"""Acceptance gate: one test per criterion, each printing its verdict.

The criteria live in ``itereq.selftest`` so that ``itereq selftest``
(the CLI entry point) and this module run the identical battery.  Every
tolerance is pinned there: residuals at 1e-9, separation floor 1e-6,
anchor reproduction at 1e-10, prediction error 1e-6, the 5 s root-table
and 2 s family-verification budgets.
"""

import math

import numpy as np
import pytest

from itereq.charpoly import CharProblem, analyze_roots, classify
from itereq.errors import ConstructionError
from itereq.families import Affine, Identity, ThreePiece, conjugate, enumerate_families
from itereq.intervals import REAL_LINE, Interval
from itereq.means import Generator
from itereq.selftest import (
    CRITERIA,
    criterion_1_root_table,
    criterion_4_family_verification,
    criterion_6_involution,
    criterion_10_negative_control,
    _table_range,
    _verified_families,
)
from itereq.verify import verify_mean

SQRT2 = math.sqrt(2.0)


@pytest.mark.parametrize(
    "number, name, fn", CRITERIA, ids=[f"criterion_{n}" for n, _, _ in CRITERIA]
)
def test_acceptance_criterion(number, name, fn, capsys):
    passed, details = fn()
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"\n[{status}] criterion {number}: {name} -- {details}")
    assert passed, f"criterion {number} ({name}): {details}"


# -- supporting assertions pinning details the criteria summarize ----------


def test_root_table_within_time_budget():
    passed, details = criterion_1_root_table()
    assert passed
    assert "0 mismatches" in details


def test_root_table_times_uncached_analysis(monkeypatch):
    from itereq import charpoly

    table = list(_table_range())
    for prob in table:
        analyze_roots(prob)
    calls = []
    real_certified_roots = charpoly.certified_roots

    def counted(p, z):
        calls.append(p)
        return real_certified_roots(p, z)

    monkeypatch.setattr(charpoly, "certified_roots", counted)
    assert criterion_1_root_table()[0]
    # one spectrum solve per case whose polynomial keeps a positive degree
    # once the root 1 is divided out
    with_spectrum = [
        prob for prob in table
        if prob.n > classify(prob).expected_real_roots[0].multiplicity
    ]
    assert with_spectrum and len(calls) == len(with_spectrum)


def test_family_roster_matches_required_list():
    names = [name for name, _, _ in _verified_families()]
    # identity over the full (n, k) grid up to n = 10
    assert sum(1 for n in names if n.startswith("identity")) == sum(
        n + 1 for n in range(2, 11)
    )
    for required in (
        "translation(2,1)", "translation(6,3)", "translation(10,5)",
        "translation(14,7)", "affine(3,1)", "affine(2,0)", "affine(2,2)",
        "three_piece(4,1)", "three_piece(3,1)",
    ):
        assert required in names


def test_required_slopes_take_their_closed_form_values():
    by_name = {name: sol for name, sol, _ in _verified_families()}
    assert by_name["affine(3,1)"].slope == pytest.approx(-1.0 - SQRT2, abs=1e-15)
    assert by_name["affine(2,0)"].slope == -2.0
    assert by_name["affine(2,2)"].slope == -0.5
    assert by_name["three_piece(4,1)"].slope == pytest.approx(
        0.27568220365098495, abs=1e-12
    )
    assert by_name["three_piece(3,1)"].slope == pytest.approx(
        SQRT2 - 1.0, abs=1e-12
    )


def test_family_verification_reports_residual_scale():
    passed, details = criterion_4_family_verification()
    assert passed
    assert "worst residual" in details


def test_involution_control_fails_on_a_map_that_solves_some_case(monkeypatch):
    from itereq import selftest

    assert criterion_6_involution()[0]
    monkeypatch.setattr(selftest, "_reciprocal", lambda: Identity(Interval(0.0, math.inf)))
    passed, details = criterion_6_involution()
    assert not passed
    assert "1/x passes [(2, 0)" in details


def test_involution_control_fails_on_escaped_points(monkeypatch):
    from itereq import selftest

    # e^0.5 x^-2 fails every (n, k), but its iterates leave (0, inf)
    steep = conjugate(Generator("log", Interval(0.0, math.inf)), Affine(REAL_LINE, -2.0, 0.5))
    monkeypatch.setattr(selftest, "_reciprocal", lambda: steep)
    with np.errstate(all="ignore"):
        passed, details = criterion_6_involution()
    assert not passed
    assert "1/x passes" not in details and " 0 escaped" not in details


def test_a_criterion_that_raises_fails_with_the_error(monkeypatch, capsys):
    from itereq import selftest

    def refuse():
        raise ConstructionError("injected refusal")

    monkeypatch.setattr(selftest, "_reciprocal", refuse)
    monkeypatch.setattr(selftest, "CRITERIA", (CRITERIA[5],))
    results = selftest.run_all()
    assert [(r.number, r.passed, r.details) for r in results] == [
        (6, False, "raised: injected refusal")
    ]
    assert capsys.readouterr().out == (
        "[FAIL] criterion 6: involution -- raised: injected refusal\n"
    )


def test_negative_control_wrong_slope_residual_is_loud():
    prob = CharProblem(4, 1)
    slope = analyze_roots(prob).real_root_in(0.0, 1.0)
    report = verify_mean(
        ThreePiece(REAL_LINE, 0.0, 1.0, slope + 1e-3), prob, samples=1001
    )
    assert not report.passed
    assert report.max_residual > 1e-5
    assert criterion_10_negative_control()[0]


def test_open_problem_status_is_a_value_not_an_error():
    out = enumerate_families(CharProblem(6, 2), REAL_LINE)
    assert out.is_open_problem
    assert out.families == ()
