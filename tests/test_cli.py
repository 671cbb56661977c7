import dataclasses
import json
import math
import re

import pytest

from itereq.cli import main

SQRT2 = math.sqrt(2.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_3_1(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--n", "3", "--k", "1")
    assert code == 0
    assert "case C5" in out
    assert "0.4142135623" in out
    assert "-2.4142135623" in out


def test_analyze_4_2_double_root(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--n", "4", "--k", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["case_label"] == "C8"
    assert payload["matched"] is True
    ones = [r for r in payload["real_roots"] if r["value"] == 1.0]
    assert ones[0]["multiplicity"] == 2
    assert payload["modulus_separation_min_gap"] == "not_applicable"
    code, out, _ = run_cli(capsys, "analyze", "--n", "4", "--k", "2")
    assert code == 0
    assert "modulus separation: not applicable" in out


def test_analyze_rejects_small_n(capsys):
    code, _, err = run_cli(capsys, "analyze", "--n", "1", "--k", "0")
    assert code == 2
    assert "n must be" in err


def test_analyze_unknown_flag_is_an_error(capsys):
    code = main(["analyze", "--n", "3", "--k", "1", "--frobnicate"])
    assert code == 2


def test_analyze_past_the_paper_range(capsys):
    code, out, err = run_cli(capsys, "analyze", "--n", "60", "--k", "1")
    assert code == 0, err
    assert "expectations matched: True" in out


def test_analyze_text_prints_each_mismatch_and_exits_1(monkeypatch, capsys):
    from itereq import cli

    monkeypatch.setattr(
        cli, "report_matches_expectation", lambda report: (False, ["first", "second"])
    )
    code, out, _ = run_cli(capsys, "analyze", "--n", "3", "--k", "1")
    assert code == 1
    assert out.endswith(
        "  expectations matched: False\n  mismatch: first\n  mismatch: second\n"
    )


def test_analyze_json_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "--n", "5", "--k", "2", "--json")
    _, out2, _ = run_cli(capsys, "analyze", "--n", "5", "--k", "2", "--json")
    assert out1 == out2


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_translation_family(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--n", "6", "--k", "3",
        "--interval", "(-inf,inf)", "--params", "c=1", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    spec = payload["solutions"][0]
    assert spec["family"] == "translation"
    assert spec["params"]["c"] == 1.0


def test_solve_three_piece_slope(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--n", "4", "--k", "1",
        "--interval", "(-inf,inf)", "--params", "a=0,b=1", "--json",
    )
    assert code == 0
    spec = json.loads(out)["solutions"][0]
    assert spec["family"] == "three_piece"
    assert spec["params"]["a"] == 0.0
    assert spec["params"]["b"] == 1.0
    assert spec["params"]["slope"] == pytest.approx(0.27568220365098495, abs=1e-9)


def test_solve_on_a_half_line_outside_the_window(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--n", "4", "--k", "1", "--interval", "(20,inf)", "--json",
    )
    assert code == 0, err
    spec = json.loads(out)["solutions"][0]
    assert spec["family"] == "three_piece"
    assert spec["params"]["a"] == spec["params"]["b"] == 30.0


def test_solve_open_problem_exit_3(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--n", "4", "--k", "2", "--interval", "(-inf,inf)",
        "--json",
    )
    assert code == 3
    assert json.loads(out) == {"status": "open_problem"}


def test_solve_open_problem_text_exit_3(capsys):
    code, out, _ = run_cli(capsys, "solve", "--n", "4", "--k", "2")
    assert code == 3
    assert out == (
        "(n=4, k=2): both k and n even; the continuous-solution "
        "classification is unsolved\n"
    )


def test_solve_two_families_for_odd_odd(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--n", "3", "--k", "1", "--interval", "(-inf,inf)",
        "--json",
    )
    assert code == 0
    families = [s["family"] for s in json.loads(out)["solutions"]]
    assert families == ["affine", "three_piece"]


def test_solve_interval_syntax(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--n", "2", "--k", "0", "--interval", "[0,1)", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert [s["family"] for s in payload["solutions"]] == ["identity"]
    dom = payload["solutions"][0]["domain"]
    assert dom == {"lo": 0.0, "hi": 1.0, "lo_closed": True, "hi_closed": False}


def test_solve_bad_interval_rejected(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--n", "2", "--k", "0", "--interval", "zap",
    )
    assert code == 2
    assert "interval" in err


def test_solve_rejects_a_param_chunk_without_a_value(capsys):
    code, out, err = run_cli(capsys, "solve", "--n", "3", "--k", "1", "--params", "c1")
    assert code == 2 and out == ""
    assert "bad --params chunk 'c1'" in err


def test_solve_rejects_a_repeated_param_name(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--n", "3", "--k", "1", "--params", "a=1, a=2",
    )
    assert code == 2
    assert out == ""
    assert "'a'" in err and "more than once" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def write_spec(tmp_path, spec):
    path = tmp_path / "solution.json"
    path.write_text(json.dumps(spec))
    return str(path)


REAL_LINE_JSON = {
    "lo": "-inf", "hi": "+inf", "lo_closed": False, "hi_closed": False,
}


def test_verify_three_piece_passes(tmp_path, capsys):
    spec = {
        "family": "three_piece",
        "params": {"a": 0.0, "b": 1.0, "slope": 0.27568220365098495},
        "domain": REAL_LINE_JSON,
    }
    code, out, _ = run_cli(
        capsys, "verify", "--n", "4", "--k", "1",
        "--solution", write_spec(tmp_path, spec),
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["points_evaluated"] == 1001
    assert set(report) == {
        "max_residual", "limit", "pass", "points_evaluated", "points_escaped",
    }


def test_verify_three_piece_on_a_half_line_outside_the_window(tmp_path, capsys):
    spec = {
        "family": "three_piece",
        "params": {"a": 30.0, "b": 30.0, "slope": 0.27568220365098495},
        "domain": {"lo": 20.0, "hi": "+inf", "lo_closed": False, "hi_closed": False},
    }
    code, out, _ = run_cli(
        capsys, "verify", "--n", "4", "--k", "1",
        "--solution", write_spec(tmp_path, spec),
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["points_evaluated"] == 1001


def test_verify_affine_against_k0(tmp_path, capsys):
    spec = {
        "family": "affine",
        "params": {"slope": -2.0, "c": 5.0},
        "domain": REAL_LINE_JSON,
    }
    code, out, _ = run_cli(
        capsys, "verify", "--n", "2", "--k", "0",
        "--solution", write_spec(tmp_path, spec),
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_identity_zero_residual(tmp_path, capsys):
    spec = {"family": "identity", "params": {}, "domain": REAL_LINE_JSON}
    code, out, _ = run_cli(
        capsys, "verify", "--n", "7", "--k", "3",
        "--solution", write_spec(tmp_path, spec),
    )
    assert code == 0
    assert json.loads(out)["max_residual"] == 0.0


def test_verify_wrong_solution_exit_1(tmp_path, capsys):
    spec = {
        "family": "affine",
        "params": {"slope": -2.0, "c": 5.0},
        "domain": REAL_LINE_JSON,
    }
    code, out, _ = run_cli(
        capsys, "verify", "--n", "3", "--k", "1",
        "--solution", write_spec(tmp_path, spec),
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_generator_flag(tmp_path, capsys):
    spec = {
        "family": "conjugate",
        "params": {
            "generator": {"kind": "log"},
            "inner": {
                "family": "affine",
                "params": {"slope": -0.5, "c": math.log(2.0)},
                "domain": {
                    "lo": 0.0, "hi": math.log(4.0),
                    "lo_closed": True, "hi_closed": True,
                },
            },
        },
        "domain": {"lo": 1.0, "hi": 4.0, "lo_closed": True, "hi_closed": True},
    }
    code, out, _ = run_cli(
        capsys, "verify", "--n", "2", "--k", "2",
        "--solution", write_spec(tmp_path, spec), "--generator", "log",
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_missing_file_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "verify", "--n", "2", "--k", "0",
        "--solution", str(tmp_path / "missing.json"),
    )
    assert code == 2


def test_verify_non_object_spec_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "verify", "--n", "3", "--k", "1",
        "--solution", write_spec(tmp_path, [1, 2]),
    )
    assert code == 2
    assert "must be a JSON object, got list" in err


def test_orbit_spec_missing_domain_exit_2(tmp_path, capsys):
    spec = {"family": "identity", "params": {}}
    code, _, err = run_cli(
        capsys, "orbit", "--solution", write_spec(tmp_path, spec),
        "--x0", "0", "--steps", "3",
    )
    assert code == 2
    assert "missing field 'domain'" in err


# ---------------------------------------------------------------------------
# orbit
# ---------------------------------------------------------------------------


def test_orbit_identity(tmp_path, capsys):
    spec = {"family": "identity", "params": {}, "domain": REAL_LINE_JSON}
    code, out, _ = run_cli(
        capsys, "orbit", "--solution", write_spec(tmp_path, spec),
        "--x0", "1", "--steps", "3",
    )
    assert code == 0
    assert out.splitlines() == ["m,x_m", "0,1.0", "1,1.0", "2,1.0", "3,1.0"]


def test_orbit_affine_powers(tmp_path, capsys):
    spec = {
        "family": "affine",
        "params": {"slope": -2.0, "c": 0.0},
        "domain": REAL_LINE_JSON,
    }
    code, out, _ = run_cli(
        capsys, "orbit", "--solution", write_spec(tmp_path, spec),
        "--x0", "1", "--steps", "3",
    )
    assert code == 0
    values = [line.split(",")[1] for line in out.splitlines()[1:]]
    assert values == ["1.0", "-2.0", "4.0", "-8.0"]


def test_orbit_backward_translation(tmp_path, capsys):
    spec = {
        "family": "translation",
        "params": {"c": 0.5},
        "domain": REAL_LINE_JSON,
    }
    code, out, _ = run_cli(
        capsys, "orbit", "--solution", write_spec(tmp_path, spec),
        "--x0", "0", "--steps", "2", "--back", "2",
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[0] for r in rows] == ["-2", "-1", "0", "1", "2"]
    assert [float(r[1]) for r in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]


def test_orbit_three_piece_negative_zero_constant(tmp_path, capsys):
    spec = {
        "family": "three_piece",
        "params": {"a": -1.0, "b": 2.0, "slope": 0.5},
        "domain": REAL_LINE_JSON,
    }
    code, out, _ = run_cli(
        capsys, "orbit", "--solution", write_spec(tmp_path, spec),
        "--x0=-0.0", "--steps", "3", "--back", "2",
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[0] for r in rows] == ["-2", "-1", "0", "1", "2", "3"]
    assert [float(r[1]) for r in rows] == [0.0] * 6


def test_orbit_to_csv_file(tmp_path, capsys):
    spec = {"family": "identity", "params": {}, "domain": REAL_LINE_JSON}
    target = tmp_path / "orbit.csv"
    code, out, _ = run_cli(
        capsys, "orbit", "--solution", write_spec(tmp_path, spec),
        "--x0", "2", "--steps", "2", "--csv", str(target),
    )
    assert code == 0
    assert target.read_text().startswith("m,x_m\n")


def test_orbit_domain_violation_exit_2(tmp_path, capsys):
    spec = {
        "family": "identity",
        "params": {},
        "domain": {"lo": 0.0, "hi": 1.0, "lo_closed": True, "hi_closed": True},
    }
    code, _, err = run_cli(
        capsys, "orbit", "--solution", write_spec(tmp_path, spec),
        "--x0", "5", "--steps", "3",
    )
    assert code == 2


def test_orbit_negative_steps_exit_2(tmp_path, capsys):
    spec = {"family": "identity", "params": {}, "domain": REAL_LINE_JSON}
    code, out, err = run_cli(
        capsys, "orbit", "--solution", write_spec(tmp_path, spec),
        "--x0", "0", "--steps", "-1",
    )
    assert code == 2 and out == ""
    assert "--steps and --back must be nonnegative" in err


# ---------------------------------------------------------------------------
# fit-recurrence
# ---------------------------------------------------------------------------


def _write_orbit_csv(tmp_path, values, start=0):
    path = tmp_path / "orbit.csv"
    lines = ["m,x_m"] + [f"{start + i},{v!r}" for i, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_fit_recurrence_power_orbit(tmp_path, capsys):
    values = [(-2.0) ** m for m in range(12)]
    code, out, _ = run_cli(
        capsys, "fit-recurrence", "--n", "2", "--k", "0",
        "--orbit", _write_orbit_csv(tmp_path, values), "--json",
    )
    assert code == 0
    payload = json.loads(out)
    # the orbit excites only -2, so the closed form names only -2
    weights = {
        round(t["lambda"], 6): t["coeffs"][0] for t in payload["real_terms"]
    }
    assert weights == {-2.0: pytest.approx(1.0, abs=1e-10)}
    assert payload["held_out_max_relative_error"] <= 1e-6
    modes = payload["modes"]
    assert modes["chosen"] == [{"lambda": -2.0, "columns": 1}]
    assert 0.0 <= modes["max_ratio"] <= modes["threshold"] == 16 * 2.0**-52
    assert modes["least_ratio_with_fewer_columns"] is None


def test_fit_recurrence_json_names_the_rank_gap(tmp_path, capsys):
    # x_j = 1 + (-2)^j excites both roots of (2, 0); each root alone leaves
    # a residual ratio far above the threshold
    values = [1.0 + (-2.0) ** m for m in range(12)]
    code, out, _ = run_cli(
        capsys, "fit-recurrence", "--n", "2", "--k", "0",
        "--orbit", _write_orbit_csv(tmp_path, values), "--json",
    )
    assert code == 0
    modes = json.loads(out)["modes"]
    assert [m["columns"] for m in modes["chosen"]] == [1, 1]
    assert modes["least_ratio_with_fewer_columns"] > 1e6 * modes["threshold"]


def test_fit_recurrence_arithmetic_progression(tmp_path, capsys):
    values = [0.5 * m for m in range(10)]
    code, out, _ = run_cli(
        capsys, "fit-recurrence", "--n", "2", "--k", "1",
        "--orbit", _write_orbit_csv(tmp_path, values), "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["real_terms"][0]["coeffs"][1] == pytest.approx(0.5, abs=1e-10)


def test_fit_recurrence_constant_orbit(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "fit-recurrence", "--n", "2", "--k", "0",
        "--orbit", _write_orbit_csv(tmp_path, [3.0] * 8), "--json",
    )
    assert code == 0
    payload = json.loads(out)
    weights = {
        round(t["lambda"], 6): t["coeffs"][0] for t in payload["real_terms"]
    }
    assert weights[1.0] == pytest.approx(3.0, abs=1e-12)


def test_fit_recurrence_reindexes_negative_start(tmp_path, capsys):
    # rows may start at any index; the recurrence is shift invariant
    values = [(-2.0) ** m for m in range(-3, 9)]
    code, out, _ = run_cli(
        capsys, "fit-recurrence", "--n", "2", "--k", "0",
        "--orbit", _write_orbit_csv(tmp_path, values, start=-3), "--json",
    )
    assert code == 0
    assert json.loads(out)["held_out_max_relative_error"] <= 1e-6


def test_fit_recurrence_three_piece_orbit_with_backward_steps(tmp_path, capsys):
    # a true orbit of the (3, 1) three-piece map, 4 steps back and 30 on: it
    # excites only the root 0.414, so no weight sits on -2.414 for index 34
    # to amplify
    spec = {
        "family": "three_piece",
        "params": {"a": 0, "b": 1, "slope": 0.4142135623730951},
        "domain": REAL_LINE_JSON,
    }
    path = tmp_path / "piece.csv"
    code, _, _ = run_cli(
        capsys, "orbit", "--solution", write_spec(tmp_path, spec),
        "--x0", "-2", "--steps", "30", "--back", "4", "--csv", str(path),
    )
    if code != 0:
        pytest.fail(f"orbit exit {code}")
    code, out, _ = run_cli(
        capsys, "fit-recurrence", "--n", "3", "--k", "1", "--orbit", str(path), "--json",
    )
    payload = json.loads(out)
    assert code == 0, payload["held_out_max_relative_error"]
    assert [m["lambda"] for m in payload["modes"]["chosen"]] == [0.4142135623730951]


def test_solve_rejects_unknown_parameter(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "solve", "--n", "6", "--k", "3",
        "--interval", "(-inf,inf)", "--params", "zz=1",
    )
    assert code == 2
    assert "unknown parameter" in err


def test_fit_recurrence_short_orbit_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "fit-recurrence", "--n", "4", "--k", "1",
        "--orbit", _write_orbit_csv(tmp_path, [1.0, 2.0, 3.0]),
    )
    assert code == 2


def test_fit_recurrence_needs_a_held_out_row_exit_2(tmp_path, capsys):
    # n rows are fitted exactly whatever they hold, which would leave no
    # held-out evidence and exit 0
    code, out, err = run_cli(
        capsys, "fit-recurrence", "--n", "4", "--k", "1",
        "--orbit", _write_orbit_csv(tmp_path, [1.0, 5.0, -3.0, 7.0]), "--json",
    )
    assert code == 2 and out == ""
    assert "orbit has 4 rows" in err and "n + 1 = 5" in err


def test_fit_recurrence_prediction_failure_exit_1(tmp_path, capsys):
    # not a recurrence orbit of (2, 0): held-out error is large
    values = [1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0]
    code, out, _ = run_cli(
        capsys, "fit-recurrence", "--n", "2", "--k", "0",
        "--orbit", _write_orbit_csv(tmp_path, values),
    )
    assert code == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_recurrence_non_finite_value_exit_2(tmp_path, capsys, bad):
    code, _, err = run_cli(
        capsys, "fit-recurrence", "--n", "2", "--k", "1",
        "--orbit", _write_orbit_csv(tmp_path, [1.0, 2.0, 4.0, 8.0, bad]),
    )
    assert code == 2
    assert "row index 4" in err and "not finite" in err


def test_fit_recurrence_skips_blank_lines(tmp_path, capsys):
    values = [(-2.0) ** m for m in range(12)]
    args = ("fit-recurrence", "--n", "2", "--k", "0", "--json", "--orbit")
    _, plain, _ = run_cli(capsys, *args, _write_orbit_csv(tmp_path, values))
    path = tmp_path / "blank.csv"
    rows = "".join(f"{m},{v!r}\n\n" for m, v in enumerate(values))
    path.write_text("\n  \nm,x_m\n\n" + rows + "\n")
    code, out, _ = run_cli(capsys, *args, str(path))
    assert code == 0
    assert out == plain


def test_fit_recurrence_unparsable_row_exit_2(tmp_path, capsys):
    path = tmp_path / "orbit.csv"
    path.write_text("m,x_m\n0,1\n1,2\n2,4\n3,8\n4,abc\n")
    code, _, err = run_cli(
        capsys, "fit-recurrence", "--n", "2", "--k", "1", "--orbit", str(path),
    )
    assert code == 2
    assert "line 6" in err and "4,abc" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("m,x_m\n", "no orbit rows found"),
        ("m,x_m\n0,1\n1,2\n3,8\n4,16\n5,32\n", "orbit indices must be consecutive"),
    ],
    ids=["header_only", "gap"],
)
def test_fit_recurrence_orbit_without_consecutive_rows_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "orbit.csv"
    path.write_text(text)
    code, out, err = run_cli(
        capsys, "fit-recurrence", "--n", "2", "--k", "1", "--orbit", str(path),
    )
    assert code == 2 and out == ""
    assert message in err


def test_fit_recurrence_row_with_extra_field_exit_2(tmp_path, capsys):
    # fails on a reader that keeps the first two fields of "2,4,99": it
    # fits the orbit and exits 1
    path = tmp_path / "orbit.csv"
    path.write_text("m,x_m\n0,1\n1,2\n2,4,99\n3,8\n4,16\n")
    code, _, err = run_cli(
        capsys, "fit-recurrence", "--n", "2", "--k", "1", "--orbit", str(path),
    )
    assert code == 2
    assert "cannot parse orbit row on line 4" in err and "2,4,99" in err


def _tiny_power_orbit():
    # the orbit of 1e-300 under x -> -2.414 x, which excites only -2.414
    values = [1e-300]
    for _ in range(899):
        values.append(values[-1] * (-1.0 - SQRT2))
    return values


@pytest.mark.parametrize(
    "orbit",
    [lambda: [0.5**m + 1.0 for m in range(900)], _tiny_power_orbit],
    ids=["half_powers_plus_one", "orbit_of_the_root_below_minus_one"],
)
def test_fit_recurrence_overflowing_closed_form_exit_4(tmp_path, capsys, orbit):
    # (3, 1) has the root -2.414; its power at index 899 leaves the float
    # range, which refutes nothing.  Three anchors fix three weights, so the
    # first orbit is fitted on the whole spectrum.
    values = orbit()
    code, out, err = run_cli(
        capsys, "fit-recurrence", "--n", "3", "--k", "1",
        "--orbit", _write_orbit_csv(tmp_path, values),
    )
    assert code == 4
    assert err.startswith("numerical failure: a closed-form term left the float range")
    assert err.count("\n") == 1


def _translation_1e307(tmp_path):
    spec = tmp_path / "tr.json"
    spec.write_text(json.dumps({
        "family": "translation", "params": {"c": 1e307},
        "domain": {"lo": "-inf", "hi": "+inf"},
    }))
    return str(spec)


@pytest.mark.parametrize(
    "n, k, line",
    [
        ("2", "0", "held-out max relative error: inf"),
        ("2", "2", "held-out max relative error: inf"),
        ("5", "1", "recurrence residual 9e+307 exceeds RECURRENCE_TOL (1e-09, relative)"),
    ],
    ids=["0", "2", "5_1"],
)
def test_fit_recurrence_overflowing_prediction_fails_without_warning(
    tmp_path, capsys, n, k, line
):
    # the orbit escapes forward at m = 18.  At (2, 0) and (2, 2) two anchors
    # fix the whole spectrum, and predictions that overflow to +-inf read as
    # an infinite held-out error; at (5, 1) no mode set explains the orbit,
    # whose recurrence residual (scaled, so it stays finite) refutes it.
    # Neither warns.
    csv = str(tmp_path / "tr.csv")
    code, _, _ = run_cli(
        capsys, "orbit", "--solution", _translation_1e307(tmp_path),
        "--x0", "0.3", "--steps", "30", "--back", "4", "--csv", csv,
    )
    assert code == 0
    code, out, err = run_cli(
        capsys, "fit-recurrence", "--n", n, "--k", k, "--orbit", csv,
    )
    assert (code, err) == (1, "")
    assert line in out


@pytest.mark.parametrize(
    "k, tol, code",
    [("7", None, 0), ("3", "2", 0), ("3", "0.1", 1)],
    ids=["solution", "loose_tol", "tight_tol"],
)
def test_verify_judges_residuals_near_the_float_range(tmp_path, capsys, k, tol, code):
    # the iterates of c = 1e307 reach 1.4e308, and the deviations from f^k
    # add up past the float range; the residual is -(k - 7) c exactly at
    # (14, k), so it is 0 at k = 7 and 4e307, 0.29 of max|f^i|, at k = 3
    argv = ["verify", "--n", "14", "--k", k, "--solution", _translation_1e307(tmp_path)]
    got, out, err = run_cli(capsys, *argv, *(["--tol", tol] if tol else []))
    assert (got, err) == (code, "")
    payload = json.loads(out)
    assert payload["pass"] is (code == 0)
    assert payload["max_residual"] == (0.0 if k == "7" else pytest.approx(4e307))


def test_solve_human_readable_output(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--n", "3", "--k", "1", "--interval", "(-inf,inf)",
    )
    assert code == 0
    assert "affine" in out and "three_piece" in out
    assert "spec:" in out


def test_verify_samples_and_tol_flags(tmp_path, capsys):
    spec = {"family": "identity", "params": {}, "domain": REAL_LINE_JSON}
    code, out, _ = run_cli(
        capsys, "verify", "--n", "4", "--k", "2",
        "--solution", write_spec(tmp_path, spec),
        "--samples", "101", "--tol", "1e-12",
    )
    assert code == 0
    assert json.loads(out)["points_evaluated"] == 101


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def test_selftest_runs_clean(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("[")]
    assert len(lines) == 10
    assert all(line.startswith("[PASS]") for line in lines)


def test_selftest_prints_a_failing_criterion_and_exits_1(monkeypatch, capsys):
    from itereq import selftest

    real = selftest.verify_mean

    def failing(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), passed=False, max_residual=1.0)

    monkeypatch.setattr(selftest, "verify_mean", failing)
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    lines = [line for line in out.splitlines() if line.startswith("[")]
    assert len(lines) == 10
    assert [line for line in lines if not line.startswith("[PASS]")] == [
        "[FAIL] criterion 4: family verification -- failures: "
        "[('identity(2,0)', 1.0), ('identity(2,1)', 1.0), ('identity(2,2)', 1.0)]"
    ]


# ---------------------------------------------------------------------------
# input boundary and exit codes
# ---------------------------------------------------------------------------


def _spec(family="identity", params=None, domain=None):
    return {
        "family": family,
        "params": {} if params is None else params,
        "domain": REAL_LINE_JSON if domain is None else domain,
    }


@pytest.mark.parametrize(
    "spec, field",
    [
        (_spec("affine", {"slope": None, "c": 0.0}), "slope"),
        (_spec(domain="x"), "domain"),
        (_spec(params=[]), "params"),
        (_spec("translation", {"c": math.nan}), "'c'"),
        (_spec("conjugate", {"generator": "log", "inner": _spec()}), "generator"),
        (_spec(domain={"lo": 0.0, "hi": 1.0, "lo_closed": "no"}), "lo_closed"),
        (_spec("involution", {"a": 0.0}), "unknown family 'involution'"),
    ],
)
def test_verify_malformed_spec_exit_2(tmp_path, capsys, spec, field):
    code, _, err = run_cli(
        capsys, "verify", "--n", "3", "--k", "1",
        "--solution", write_spec(tmp_path, spec),
    )
    assert code == 2
    assert field in err
    assert "Traceback" not in err


def test_verify_deeply_nested_spec_exit_2(tmp_path, capsys):
    head, tail = json.dumps(
        _spec("conjugate", {"generator": {"kind": "identity"}, "inner": 0})
    ).split("0", 1)
    path = tmp_path / "deep.json"
    path.write_text(head * 3000 + json.dumps(_spec()) + tail * 3000)
    code, _, err = run_cli(
        capsys, "verify", "--n", "3", "--k", "1", "--solution", str(path),
    )
    assert code == 2
    assert "nested too deeply" in err


@pytest.mark.parametrize("command", ["verify", "orbit"])
def test_spec_that_is_not_json_names_the_file_exit_2(tmp_path, capsys, command):
    path = tmp_path / "spec.json"
    path.write_text("not json\n")
    args = {"verify": ["--n", "3", "--k", "1"], "orbit": ["--x0", "0", "--steps", "3"]}
    code, out, err = run_cli(
        capsys, command, *args[command], "--solution", str(path)
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: solution spec {str(path)!r} is not valid JSON: ")
    assert "line 1 column 1" in err and err.count("\n") == 1


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_verify_rejects_bad_tol(tmp_path, capsys, tol):
    code, _, err = run_cli(
        capsys, "verify", "--n", "7", "--k", "3",
        "--solution", write_spec(tmp_path, _spec()), f"--tol={tol}",
    )
    assert code == 2
    assert "--tol" in err


def test_analyze_has_no_tol_flag(capsys):
    code, _, err = run_cli(capsys, "analyze", "--n", "3", "--k", "1", "--tol", "10")
    assert code == 2
    assert "--tol" in err


def test_verify_power_generator(tmp_path, capsys):
    # phi(x) = sqrt(x) carries [1, 4] onto [1, 2], where the affine map of
    # slope -1/2 fixing 1.5 solves (2, 2)
    spec = _spec(
        "conjugate",
        {
            "generator": {"kind": "power", "p": 2.0},
            "inner": _spec(
                "affine", {"slope": -0.5, "c": 2.25},
                {"lo": 1.0, "hi": 2.0, "lo_closed": True, "hi_closed": True},
            ),
        },
        {"lo": 1.0, "hi": 4.0, "lo_closed": True, "hi_closed": True},
    )
    path = write_spec(tmp_path, spec)
    code, out, _ = run_cli(
        capsys, "verify", "--n", "2", "--k", "2", "--solution", path,
        "--generator", "power:2",
    )
    assert code == 0
    assert json.loads(out)["pass"] is True
    code, _, err = run_cli(
        capsys, "verify", "--n", "2", "--k", "2", "--solution", path,
        "--generator", "power=2",
    )
    assert code == 2
    assert "power:P" in err


@pytest.mark.parametrize("flag", ["power:abc", "power:"])
def test_verify_malformed_power_generator_exit_2(tmp_path, capsys, flag):
    code, _, err = run_cli(
        capsys, "verify", "--n", "2", "--k", "2",
        "--solution", write_spec(tmp_path, _spec()), "--generator", flag,
    )
    assert code == 2
    assert f"unknown generator {flag!r}; use identity, log or power:P" in err


def test_verify_reciprocal_fails_exit_1(tmp_path, capsys):
    # 1/x, the log conjugate of x -> -x, is an involution: it solves no (n, k)
    spec = _spec(
        "conjugate",
        {"generator": {"kind": "log"}, "inner": _spec("affine", {"slope": -1.0, "c": 0.0})},
        {"lo": 0.0, "hi": "+inf"},
    )
    code, out, _ = run_cli(
        capsys, "verify", "--n", "4", "--k", "1", "--solution", write_spec(tmp_path, spec),
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_fit_recurrence_affine_13_12_orbit_exit_0(tmp_path, capsys):
    # the n x n anchor system of (13, 12) was refused at condition number
    # 3.9e12; the orbit excites only 1 and the slope -0.764
    from itereq.charpoly import CharProblem
    from itereq.families import enumerate_families
    from itereq.intervals import REAL_LINE
    from itereq.verify import iterate

    enum = enumerate_families(CharProblem(13, 12), REAL_LINE)
    affine = next(d for d in enum.families if d.family == "affine")
    orbit = iterate(affine.instantiate(REAL_LINE, c=0.3), 0.7, 0, 30)
    code, out, err = run_cli(
        capsys, "fit-recurrence", "--n", "13", "--k", "12",
        "--orbit", _write_orbit_csv(tmp_path, orbit.points.tolist()), "--json",
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert [m["lambda"] for m in payload["modes"]["chosen"]] == [1.0, affine.slope]
    assert payload["held_out_max_relative_error"] <= 1e-6


def test_fit_recurrence_prints_a_conjugate_pair(tmp_path, capsys):
    # x_j = Re z^j for the root z above the axis of (4, 1) excites only its
    # conjugate pair, printed as one cos/sin line
    from itereq.charpoly import CharProblem, analyze_roots

    pair = analyze_roots(CharProblem(4, 1)).complex_roots
    z = next(c.as_complex() for c in pair if c.im > 0)
    values = [(z**m).real for m in range(12)]
    code, out, err = run_cli(
        capsys, "fit-recurrence", "--n", "4", "--k", "1",
        "--orbit", _write_orbit_csv(tmp_path, values),
    )
    assert (code, err) == (0, "")
    term, held_out = out.splitlines()
    number = r"(\S+)"
    match = re.fullmatch(
        rf"  \[\({number}\)\*cos\({number}\*j\) \+ \({number}\)\*sin\({number}\*j\)\] "
        rf"\* \({number}\)\^j",
        term,
    )
    assert match, term
    cos_w, arg, sin_w, arg_again, modulus = map(float, match.groups())
    assert arg == arg_again == pytest.approx(math.atan2(z.imag, z.real), abs=1e-12)
    assert modulus == pytest.approx(abs(z), rel=1e-12)
    assert (cos_w, sin_w) == (pytest.approx(1.0, abs=1e-10), pytest.approx(0.0, abs=1e-10))
    assert held_out.startswith("held-out max relative error: ")


def test_fit_recurrence_json_names_a_broken_recurrence(tmp_path, capsys):
    # a line is an orbit of (5, 1) only if 1 were a double root there
    code, out, err = run_cli(
        capsys, "fit-recurrence", "--n", "5", "--k", "1",
        "--orbit", _write_orbit_csv(tmp_path, [float(m) for m in range(12)]), "--json",
    )
    assert (code, err) == (1, "")
    payload = strict_loads(out)
    assert payload["recurrence_max_residual"] > payload["recurrence_tol"] == 1e-9


def test_fit_recurrence_orbit_of_too_many_modes_exit_4(tmp_path, capsys):
    # a sequence that keeps the (5, 1) recurrence from arbitrary starting
    # values excites every root: no closed form of at most three columns
    # explains it, and nothing is refuted
    from itereq.charpoly import CharProblem, build_char_poly

    a = build_char_poly(CharProblem(5, 1)).coeffs
    values = [1.0, -0.5, 2.0, 0.25, -1.0]
    for _ in range(10):
        window = values[-5:]
        values.append(-sum(c * v for c, v in zip(a, window)) / a[5])
    code, out, err = run_cli(
        capsys, "fit-recurrence", "--n", "5", "--k", "1",
        "--orbit", _write_orbit_csv(tmp_path, values),
    )
    assert (code, out) == (4, "")
    assert err.startswith("numerical failure: no set of at most 3 spectrum modes")
    assert "least annihilator residual ratio" in err and "threshold 3.553e-15" in err


@pytest.mark.parametrize(
    "error, expected",
    [("BracketFailure", 1), ("NonConvergence", 4), ("RootMismatch", 4)],
)
def test_analyze_exit_code_of_solver_errors(monkeypatch, capsys, error, expected):
    from itereq import cli, errors

    def fail(prob):
        raise getattr(errors, error)("synthetic")

    monkeypatch.setattr(cli, "analyze_roots", fail)
    code, _, err = run_cli(capsys, "analyze", "--n", "3", "--k", "1")
    assert code == expected
    assert "synthetic" in err


def test_analyze_overlapping_inclusion_disks_exit_4(monkeypatch, capsys):
    # a start collapsed onto one point: the disks meet, as at a double root
    import numpy as np

    from itereq import charpoly

    monkeypatch.setattr(charpoly, "_lifted_estimates", lambda p: np.full(2, 0.5 + 0j))
    code, _, err = run_cli(capsys, "analyze", "--n", "3", "--k", "1")
    assert code == 4
    assert "inclusion disks overlap" in err and "the roots must be simple" in err


def test_analyze_a_bad_lifted_start_exit_4(monkeypatch, capsys):
    # no eigenvalue retry: a lifted start that misses a check is a
    # numerical failure naming the problem, the start and the check
    import numpy as np

    from itereq import charpoly

    monkeypatch.setattr(charpoly, "_lifted_estimates", lambda p: np.full(39, 0.5 + 0j))
    code, _, err = run_cli(capsys, "analyze", "--n", "40", "--k", "13")
    assert code == 4
    assert "(n=40, k=13), lifted-form estimates: inclusion disks overlap" in err


def test_analyze_two_real_estimates_in_a_bracket_exit_1(monkeypatch, capsys):
    from itereq import charpoly
    from itereq.poly import ComplexRoot

    real_certified_roots = charpoly.certified_roots

    def doubled(p, z):
        roots, radii = real_certified_roots(p, z)
        return roots + [ComplexRoot(0.5, 0.0)], [*radii, 0.0]

    monkeypatch.setattr(charpoly, "certified_roots", doubled)
    code, _, err = run_cli(capsys, "analyze", "--n", "3", "--k", "1")
    assert code == 1
    assert "2 real root estimates in bracket (0.0, 1.0)" in err


@pytest.mark.parametrize(
    "command, argv",
    [
        ("analyze", ["--n", "1000000", "--k", "3"]),
        ("verify", ["--n", "4", "--k", "1", "--solution", "s.json", "--samples", "100000000000"]),
    ],
)
def test_out_of_memory_is_a_numerical_failure_not_a_refuted_claim(
    monkeypatch, capsys, command, argv
):
    # the handler raises as an allocation that cannot be met would; nothing
    # is allocated for real
    from itereq import cli

    def out_of_memory(args):
        raise MemoryError

    monkeypatch.setattr(cli, f"_cmd_{command}", out_of_memory)
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 4
    assert out == ""
    assert err.startswith("numerical failure: out of memory")
    assert len(err.strip().splitlines()) == 1


# ---------------------------------------------------------------------------
# strict JSON (RFC 8259): no NaN, Infinity or -Infinity tokens
# ---------------------------------------------------------------------------


def strict_loads(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("n, k", [(3, 1), (2, 1), (3, 2)])
def test_analyze_json_without_non_real_roots_is_strict(capsys, n, k):
    code, out, _ = run_cli(capsys, "analyze", "--n", str(n), "--k", str(k), "--json")
    assert code == 0
    payload = strict_loads(out)
    assert payload["complex_roots"] == []
    assert payload["modulus_separation_min_gap"] == "+inf"


def test_verify_json_with_every_point_escaped_is_strict(tmp_path, capsys):
    spec = {
        "family": "affine",
        "params": {"slope": 1e200, "c": 1.0},
        "domain": {"lo": "-inf", "hi": "+inf"},
    }
    code, out, _ = run_cli(
        capsys, "verify", "--n", "5", "--k", "1",
        "--solution", write_spec(tmp_path, spec),
    )
    assert code == 1
    assert strict_loads(out) == {
        "max_residual": "+inf", "limit": None, "pass": False,
        "points_evaluated": 0, "points_escaped": 1001,
    }


def test_solve_json_is_strict(capsys):
    code, out, _ = run_cli(capsys, "solve", "--n", "3", "--k", "1", "--json")
    assert code == 0
    domains = [s["domain"] for s in strict_loads(out)["solutions"]]
    assert domains == [REAL_LINE_JSON, REAL_LINE_JSON]


def test_fit_recurrence_json_is_strict(tmp_path, capsys):
    values = [(-2.0) ** m for m in range(12)]
    code, out, _ = run_cli(
        capsys, "fit-recurrence", "--n", "2", "--k", "0",
        "--orbit", _write_orbit_csv(tmp_path, values), "--json",
    )
    assert code == 0
    assert strict_loads(out)["held_out_max_relative_error"] <= 1e-6


def test_json_floats_name_every_non_finite_value():
    from itereq.intervals import json_float

    assert [json_float(v) for v in (math.inf, -math.inf, math.nan, -0.5)] == [
        "+inf", "-inf", "nan", -0.5,
    ]
