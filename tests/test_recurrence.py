import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import itereq
from itereq import recurrence
from itereq.charpoly import (
    _REPORT_CACHE_SIZE,
    CharProblem,
    RealRootRecord,
    analyze_roots,
    build_char_poly,
)
from itereq.errors import DomainError, SingularSystem, TooShort
from itereq.families import Affine, ThreePiece, Translation, enumerate_families
from itereq.intervals import REAL_LINE, Interval
from itereq.poly import Polynomial
from itereq.recurrence import (
    ClosedForm,
    ComplexTerm,
    RealTerm,
    _anchor_system,
    _assemble,
    _cached_basis,
    _spectrum_terms,
    _terms_key,
    check_recurrence,
    fit_closed_form,
    predict,
    predict_range,
    prediction_error,
    single_regime,
)
from itereq.selftest import _fit_cases, criterion_7_recurrence
from itereq.verify import Orbit, iterate

# the closed-form code keeps its overflow and divide cases quiet (they raise
# or read as +-inf), so a NumPy RuntimeWarning here is a leak and fails
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def orbit_from_values(values):
    vals = np.asarray(values, dtype=float)
    return Orbit(0, len(vals) - 1, vals)


# ---------------------------------------------------------------------------
# check_recurrence
# ---------------------------------------------------------------------------


def test_arithmetic_progression_satisfies_double_root_recurrence():
    orbit = iterate(Translation(REAL_LINE, 1.0), 0.0, 0, 12)
    report = check_recurrence(orbit, build_char_poly(CharProblem(2, 1)))
    assert report.passed
    assert report.max_residual <= 1e-12


def test_power_orbit_satisfies_k0_recurrence():
    orbit = iterate(Affine(REAL_LINE, -2.0, 0.0), 1.0, 0, 12)
    report = check_recurrence(orbit, build_char_poly(CharProblem(2, 0)))
    assert report.passed
    assert report.max_residual <= 1e-9


def test_single_branch_three_piece_orbit_satisfies_recurrence():
    slope = analyze_roots(CharProblem(4, 1)).real_root_in(0.0, 1.0)
    sol = ThreePiece(REAL_LINE, 0.0, 1.0, slope)
    orbit = iterate(sol, -4.0, 0, 20)
    report = check_recurrence(orbit, build_char_poly(CharProblem(4, 1)))
    assert report.passed


def test_recurrence_too_short():
    with pytest.raises(TooShort):
        check_recurrence(
            orbit_from_values([1.0, 2.0]), build_char_poly(CharProblem(3, 1))
        )


def test_recurrence_detects_non_solution():
    orbit = orbit_from_values([1.0, 2.0, 4.5, 8.0, 16.0, 32.0])
    report = check_recurrence(orbit, build_char_poly(CharProblem(2, 1)))
    assert not report.passed


# ---------------------------------------------------------------------------
# fit_closed_form
# ---------------------------------------------------------------------------


def test_fit_pure_power_orbit():
    # orbit (1, -2, 4, -8, ...) over the spectrum {1, -2}: all weight on -2
    orbit = iterate(Affine(REAL_LINE, -2.0, 0.0), 1.0, 0, 10)
    spectrum = analyze_roots(CharProblem(2, 0))
    cf = fit_closed_form(orbit, spectrum)
    weights = {round(t.lam, 6): t.coeffs[0] for t in cf.real_terms}
    assert weights[1.0] == pytest.approx(0.0, abs=1e-12)
    assert weights[-2.0] == pytest.approx(1.0, abs=1e-12)


def test_fit_arithmetic_progression_double_root():
    # x_j = 0.5 j: linear polynomial on the double root 1
    orbit = iterate(Translation(REAL_LINE, 0.5), 0.0, 0, 10)
    spectrum = analyze_roots(CharProblem(2, 1))
    cf = fit_closed_form(orbit, spectrum)
    assert len(cf.real_terms) == 1
    coeffs = cf.real_terms[0].coeffs
    assert coeffs[0] == pytest.approx(0.0, abs=1e-12)
    assert coeffs[1] == pytest.approx(0.5, abs=1e-12)


def test_fit_constant_orbit():
    orbit = orbit_from_values([3.0] * 8)
    spectrum = analyze_roots(CharProblem(2, 0))
    cf = fit_closed_form(orbit, spectrum)
    weights = {round(t.lam, 6): t.coeffs[0] for t in cf.real_terms}
    assert weights[1.0] == pytest.approx(3.0, abs=1e-12)
    assert weights[-2.0] == pytest.approx(0.0, abs=1e-12)


def test_fit_orbit_near_overflow():
    orbit = orbit_from_values([1e305] * 8)
    cf = fit_closed_form(orbit, analyze_roots(CharProblem(2, 0)))
    weights = {round(t.lam, 6): t.coeffs[0] for t in cf.real_terms}
    assert weights[1.0] == pytest.approx(1e305, rel=1e-12)
    assert weights[-2.0] == pytest.approx(0.0, abs=1e293)


def test_fit_reproduces_anchors_exactly():
    slope = analyze_roots(CharProblem(4, 1)).real_root_in(0.0, 1.0)
    sol = ThreePiece(REAL_LINE, 0.0, 1.0, slope)
    orbit = iterate(sol, -1.0, 0, 30)
    spectrum = analyze_roots(CharProblem(4, 1))
    cf = fit_closed_form(orbit, spectrum, regime_of=sol)
    for j in range(4):
        assert predict(cf, j) == pytest.approx(orbit.value(j), abs=1e-10)


def test_fit_predicts_iterated_values():
    slope = analyze_roots(CharProblem(4, 1)).real_root_in(0.0, 1.0)
    sol = ThreePiece(REAL_LINE, 0.0, 1.0, slope)
    orbit = iterate(sol, -1.0, 0, 30)
    spectrum = analyze_roots(CharProblem(4, 1))
    cf = fit_closed_form(orbit, spectrum, regime_of=sol)
    assert prediction_error(cf, orbit, 4, 30) <= 1e-6


def test_fit_requires_enough_values():
    with pytest.raises(TooShort):
        fit_closed_form(
            orbit_from_values([1.0, 2.0]), analyze_roots(CharProblem(4, 1))
        )


def test_fit_refuses_branch_crossing_orbit():
    # constructed orbits never cross (the anchors are fixed points), but
    # external orbit data can straddle the regimes and must be refused
    slope = analyze_roots(CharProblem(4, 1)).real_root_in(0.0, 1.0)
    sol = ThreePiece(REAL_LINE, 0.0, 1.0, slope)
    straddling = orbit_from_values([-1.0, 0.5, 2.0, 3.0, 4.0])
    assert not single_regime(sol, straddling)
    with pytest.raises(DomainError):
        fit_closed_form(
            straddling, analyze_roots(CharProblem(4, 1)), regime_of=sol
        )


def test_constructed_three_piece_orbits_stay_single_regime():
    slope = analyze_roots(CharProblem(4, 1)).real_root_in(0.0, 1.0)
    sol = ThreePiece(REAL_LINE, 0.0, 1.0, slope)
    for x0 in (-3.0, 0.5, 5.0):
        assert single_regime(sol, iterate(sol, x0, 0, 30))


def test_single_regime_certificates():
    slope = analyze_roots(CharProblem(4, 1)).real_root_in(0.0, 1.0)
    sol = ThreePiece(REAL_LINE, 0.0, 1.0, slope)
    below = iterate(sol, -2.0, 0, 20)
    inside = iterate(sol, 0.5, 0, 20)
    assert single_regime(sol, below)
    assert single_regime(sol, inside)
    # non-piecewise families always certify
    assert single_regime(Affine(REAL_LINE, -2.0, 0.0), below)


def test_fit_singular_for_repeated_spectrum_entry():
    # a spectrum whose parameter count disagrees with the degree is refused
    spectrum = analyze_roots(CharProblem(2, 0))
    orbit = orbit_from_values([1.0, 2.0, 3.0, 4.0])
    bad = spectrum.__class__(
        problem=CharProblem(3, 1),
        real_roots=spectrum.real_roots,  # only 2 parameters for degree 3
        complex_roots=(),
    )
    with pytest.raises(SingularSystem):
        fit_closed_form(orbit, bad)
    # two nearly repeated roots pass the condition guard (about 4e9), but
    # their weights of about +-1e9 cancel in double precision, so the fit
    # cannot reproduce its anchors; the failure names the error and limit
    near = spectrum.__class__(
        problem=CharProblem(2, 0),
        real_roots=(
            RealRootRecord(1.0, 1, (0.5, 1.0)),
            RealRootRecord(1.0 + 1e-9, 1, (1.0, 1.5)),
        ),
        complex_roots=(),
    )
    with pytest.raises(
        SingularSystem,
        match=r"fit does not reproduce anchor \d: .*, "
        r"error \d\.\d{3}e-0[5-8] exceeds 2\.700e-09",
    ):
        fit_closed_form(orbit_from_values([0.3, 1.7, 2.0]), near)


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def test_predict_pure_power():
    orbit = iterate(Affine(REAL_LINE, -2.0, 0.0), 1.0, 0, 10)
    cf = fit_closed_form(orbit, analyze_roots(CharProblem(2, 0)))
    assert predict(cf, 5) == pytest.approx(-32.0, rel=1e-12)


def test_predict_linear_double_root_term():
    orbit = iterate(Translation(REAL_LINE, 0.5), 0.0, 0, 10)
    cf = fit_closed_form(orbit, analyze_roots(CharProblem(2, 1)))
    assert predict(cf, 10) == pytest.approx(5.0, rel=1e-12)


def test_predict_matches_long_iteration():
    slope = analyze_roots(CharProblem(3, 1)).real_root_in(0.0, 1.0)
    sol = ThreePiece(REAL_LINE, 0.0, 1.0, slope)
    orbit = iterate(sol, -1.0, 0, 20)
    cf = fit_closed_form(orbit, analyze_roots(CharProblem(3, 1)), regime_of=sol)
    assert predict(cf, 20) == pytest.approx(orbit.value(20), rel=1e-6, abs=1e-9)


def test_closed_form_json_shape():
    orbit = iterate(Affine(REAL_LINE, -2.0, 0.0), 1.0, 0, 10)
    cf = fit_closed_form(orbit, analyze_roots(CharProblem(2, 0)))
    payload = cf.to_json()
    assert set(payload) == {"real_terms", "complex_terms"}
    assert {"lambda", "coeffs"} == set(payload["real_terms"][0])
    cf41 = fit_closed_form(
        iterate(Affine(REAL_LINE, -2.0, 0.0), 1.0, 0, 10),
        analyze_roots(CharProblem(2, 0)),
    )
    assert [len(t.coeffs) for t in cf41.real_terms] == [1, 1]
    assert not cf41.complex_terms


def test_complex_terms_json_shape():
    sol = Affine(REAL_LINE, 1.0, 0.0)  # placeholder identity-slope map
    orbit = orbit_from_values([3.0] * 10)
    spectrum = analyze_roots(CharProblem(4, 1))
    cf = fit_closed_form(orbit, spectrum)
    payload = cf.to_json()
    assert {"modulus", "argument", "cos_poly", "sin_poly"} == set(
        payload["complex_terms"][0]
    )
    assert 0.0 < cf.complex_terms[0].argument < math.pi


# ---------------------------------------------------------------------------
# linearity
# ---------------------------------------------------------------------------


@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
def test_fit_is_linear_in_the_orbit(x0, y0):
    spectrum = analyze_roots(CharProblem(2, 0))
    sol = Affine(REAL_LINE, -2.0, 0.0)
    a = iterate(sol, x0, 0, 6).forward_values() if x0 else np.zeros(7)
    b = iterate(sol, y0, 0, 6).forward_values() if y0 else np.zeros(7)
    fit_a = fit_closed_form(orbit_from_values(a), spectrum)
    fit_b = fit_closed_form(orbit_from_values(b), spectrum)
    fit_sum = fit_closed_form(orbit_from_values(a + b), spectrum)
    for t_a, t_b, t_s in zip(
        fit_a.real_terms, fit_b.real_terms, fit_sum.real_terms
    ):
        for ca, cb, cs in zip(t_a.coeffs, t_b.coeffs, t_s.coeffs):
            assert cs == pytest.approx(ca + cb, abs=1e-9)


# ---------------------------------------------------------------------------
# refinement and the 50-digit reference solve
# ---------------------------------------------------------------------------


def test_refined_fit_predicts_three_piece_3_1_to_index_30():
    # the orbit decays like 0.414^j, so the weight of the root -2.414 is
    # about 1e-19; a bare double solve leaves about 1e-17 there, which
    # 2.414^30 turns into a prediction error of 3e-6 at index 30
    slope = analyze_roots(CharProblem(3, 1)).real_root_in(0.0, 1.0)
    sol = ThreePiece(REAL_LINE, 0.0, 1.0, slope)
    orbit = iterate(sol, -1.0, 0, 30)
    cf = fit_closed_form(orbit, analyze_roots(CharProblem(3, 1)), regime_of=sol)
    assert prediction_error(cf, orbit, 3, 30) <= 1e-6


def _solve_extended(reals, complexes, anchors, deg):
    """The anchor system built and LU-solved at 50 digits (reference)."""
    with mp.workdps(50):
        rows = []
        for j in range(deg):
            row = []
            jm = mp.mpf(j)
            for lam, mult in reals:
                pw = mp.mpf(lam) ** j
                for t in range(mult):
                    row.append(jm**t * pw)
            for mod, phi, mult in complexes:
                env = mp.mpf(mod) ** j
                cosv, sinv = mp.cos(jm * mp.mpf(phi)), mp.sin(jm * mp.mpf(phi))
                for t in range(mult):
                    row.append(jm**t * cosv * env)
                    row.append(jm**t * sinv * env)
            rows.append(row)
        b = mp.matrix([mp.mpf(float(v)) for v in anchors])
        return [float(v) for v in mp.lu_solve(mp.matrix(rows), b)]


def _reference_fit(orbit, spectrum):
    deg = spectrum.problem.degree
    reals, complexes = _spectrum_terms(spectrum)
    anchors = orbit.forward_values()[:deg]
    return _assemble(
        reals, complexes, _solve_extended(reals, complexes, anchors, deg)
    )


def _workload_cases(seed):
    """Every family of every (n, k), 2 <= n <= 15, drawn as the fit workload."""
    rng = np.random.default_rng([seed, 2])
    cases = []
    for n in range(2, 16):
        for k in range(n + 1):
            prob = CharProblem(n, k)
            for desc in enumerate_families(prob, REAL_LINE).families:
                x0 = float(rng.uniform(-3.0, 3.0))
                if desc.family == "translation":
                    params = {"c": float(rng.uniform(0.1, 2.0))}
                elif desc.family == "affine":
                    params = {"c": float(rng.uniform(-2.0, 2.0))}
                elif desc.family == "three_piece":
                    a = float(rng.uniform(-2.0, 1.0))
                    params = {"a": a, "b": a + float(rng.uniform(0.5, 2.0))}
                    x0 = a - float(rng.uniform(0.5, 3.0))
                else:
                    params = {}
                sol = desc.instantiate(REAL_LINE, **params)
                cases.append((f"({n},{k}) {desc.family}", sol, prob, x0))
    return cases


def _verdict(cf, orbit, n):
    """Criterion 7's gate: anchors to 1e-10, predictions to 1e-6."""
    scale = 1.0 + max(abs(orbit.value(j)) for j in range(n))
    anchor_err = max(abs(predict(cf, j) - orbit.value(j)) for j in range(n))
    return anchor_err <= 1e-10 * scale and (
        prediction_error(cf, orbit, n, 30) <= 1e-6
    )


def test_double_fit_agrees_with_50_digit_reference():
    cases = _fit_cases() + _workload_cases(3)
    assert len(cases) == len(_fit_cases()) + 182
    refused = passed = 0
    for name, sol, prob, x0 in cases:
        spectrum = analyze_roots(prob)
        orbit = iterate(sol, x0, 0, 30)
        try:
            cf = fit_closed_form(orbit, spectrum, regime_of=sol)
        except SingularSystem as exc:
            # the condition guard runs before any solve and refuses both
            assert "condition number" in str(exc), name
            refused += 1
            continue
        ref = _reference_fit(orbit, spectrum)
        ok = _verdict(cf, orbit, prob.n)
        assert ok == _verdict(ref, orbit, prob.n), name
        if ok:
            passed += 1
            for j in range(31):
                want = predict(ref, j)
                assert abs(predict(cf, j) - want) <= 1e-6 * (1.0 + abs(want)), (
                    name, j,
                )
    # the seed-3 fit workload fails 10 inputs: 6 refused by the guard and
    # 4 affine (n, n - 1) orbits that miss the index-30 gate either way
    assert refused == 6 and passed == len(cases) - 10


def test_import_leaves_mpmath_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(itereq.__file__)))
    code = (
        "import sys, itereq, itereq.cli, itereq.selftest; "
        "sys.exit('mpmath' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_fit_rejects_non_finite_anchor():
    # no orbit holds a non-finite anchor: its constructor names the index
    with pytest.raises(DomainError, match="index 1 is not finite"):
        orbit_from_values([1.0, math.inf, 2.0, 3.0])


# ---------------------------------------------------------------------------
# the anchor-system memo
# ---------------------------------------------------------------------------


def test_equal_reports_share_one_read_only_anchor_system():
    report = analyze_roots(CharProblem(5, 2))
    equal = dataclasses.replace(report)
    assert equal == report and equal is not report
    system = _anchor_system(report)
    assert _anchor_system(equal) is system
    for array in (system.matrix, *system.halves):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    assert system.cond <= 1e12
    # a fit on the shared system is the fit on a fresh one
    orbit = iterate(Affine(REAL_LINE, -2.0, 0.0), 0.3, 0, 12)
    cached = fit_closed_form(orbit, equal)
    _anchor_system.cache_clear()
    assert fit_closed_form(orbit, report) == cached


def test_a_fit_evaluates_the_basis_once_per_spectrum(monkeypatch):
    # the anchor matrix is the basis at 0..degree-1, the anchor check reads
    # the fitted anchors off that kept matrix, and a prediction on a range
    # already evaluated reads the kept basis
    calls = []
    basis = recurrence._basis
    monkeypatch.setattr(
        recurrence, "_basis", lambda *a: calls.append(a[2].tolist()) or basis(*a)
    )
    report = analyze_roots(CharProblem(5, 2))
    for x0 in (0.3, 0.7, -1.1):
        orbit = iterate(Affine(REAL_LINE, -2.0, 0.0), x0, 0, 30)
        cf = fit_closed_form(orbit, report)
    assert calls == [[0, 1, 2, 3, 4]]
    predict_range(cf, 0, 4)
    assert len(calls) == 1
    for _ in range(3):
        prediction_error(cf, orbit, 5, 30)
        predict(cf, 30)
    assert calls[1:] == [list(range(5, 31)), [30]]


def test_a_report_hashes_its_fields_once_and_a_replaced_one_anew():
    report = analyze_roots(CharProblem(5, 2))
    fields_hash = hash((report.problem, report.real_roots, report.complex_roots))
    assert hash(report) == fields_hash
    assert vars(report)["_hash"] == fields_hash  # kept for the next lookup
    moved = dataclasses.replace(report, complex_roots=report.complex_roots[::-1])
    assert moved != report and "_hash" not in vars(moved)
    assert hash(moved) == hash((moved.problem, moved.real_roots, moved.complex_roots))
    assert hash(moved) != hash(report)
    assert hash(dataclasses.replace(report)) == hash(report)


def test_condition_refusal_raises_on_every_call():
    spectrum = analyze_roots(CharProblem(13, 12))
    orbit = orbit_from_values([0.5 + 0.1 * j for j in range(20)])
    for _ in range(3):
        with pytest.raises(SingularSystem, match="condition number .* exceeds 1e\\+12"):
            fit_closed_form(orbit, spectrum)
    assert _anchor_system.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# the closed-form basis memo
# ---------------------------------------------------------------------------


def _random_terms(rng):
    """Spectrum terms of every kind: roots from 0 and -0 to 50 in size,
    either sign, multiplicities 1 to 3, arguments including 0 and -0."""
    def value():
        return float(rng.choice([0.0, -0.0, 1.0, -1.0, rng.uniform(-50.0, 50.0)]))

    reals = [(value(), int(rng.integers(1, 4))) for _ in range(rng.integers(0, 4))]
    complexes = [
        (abs(value()), value(), int(rng.integers(1, 3)))
        for _ in range(rng.integers(0, 3))
    ]
    return reals, complexes


def test_a_hit_is_a_fresh_basis_bit_for_bit():
    rng = np.random.default_rng(20)
    checked = 0
    for _ in range(300):
        reals, complexes = _random_terms(rng)
        lo = int(rng.integers(-40, 40))
        hi = lo + int(rng.integers(-1, 40))
        key = _terms_key(reals, complexes)
        try:
            want = recurrence._basis(reals, complexes, np.arange(lo, hi + 1))
        except OverflowError:
            for _ in range(2):  # not cached: raised again on the next call
                with pytest.raises(OverflowError):
                    _cached_basis(key, lo, hi)
            continue
        miss = _cached_basis(key, lo, hi)
        hit = _cached_basis(_terms_key(reals, complexes), lo, hi)
        assert hit is miss
        assert hit.shape == want.shape and hit.tobytes() == want.tobytes()
        checked += 1
    assert checked > 100


def test_signed_zeros_get_their_own_entries():
    # 0.0 == -0.0, but odd powers of -0.0 and sines of -0.0 * j are -0.0
    for plus, minus in (
        (([(0.0, 1)], []), ([(-0.0, 1)], [])),
        (([], [(1.0, 0.0, 1)]), ([], [(1.0, -0.0, 1)])),
    ):
        got = [_cached_basis(_terms_key(*terms), 1, 3) for terms in (plus, minus)]
        for terms, basis in zip((plus, minus), got):
            want = recurrence._basis(*terms, np.arange(1, 4))
            assert basis.tobytes() == want.tobytes()
        assert got[0].tobytes() != got[1].tobytes()
    assert _cached_basis.cache_info().currsize == 4


def test_shared_bases_are_read_only_and_the_anchor_matrix_is_one():
    report = analyze_roots(CharProblem(5, 2))
    cf = fit_closed_form(iterate(Affine(REAL_LINE, -2.0, 0.0), 0.3, 0, 12), report)
    reals, complexes = _spectrum_terms(report)
    key = _terms_key(reals, complexes)
    assert _cached_basis(key, 0, 4) is _anchor_system(report).matrix
    predict_range(cf, 5, 30)
    for basis in (_cached_basis(key, 0, 4), _cached_basis(key, 5, 30)):
        assert not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0
    assert _cached_basis.cache_info().misses == 2


def test_the_basis_memo_is_bounded():
    size = _cached_basis.cache_info().maxsize
    assert size == 2 * _REPORT_CACHE_SIZE
    cf = ClosedForm((RealTerm(0.5, (1.0,)),), ())
    for j in range(size + 10):
        assert predict(cf, j) == 0.5**j
    assert _cached_basis.cache_info().currsize == size


def _criterion_7_outputs():
    """Each criterion-7 fit's closed form, anchor error and prediction error."""
    out = []
    for name, sol, prob, x0 in _fit_cases():
        orbit = iterate(sol, x0, 0, 30)
        cf = fit_closed_form(orbit, analyze_roots(prob), regime_of=sol)
        anchors = orbit.forward_values()[: prob.n]
        anchor_err = float(abs(predict_range(cf, 0, prob.n - 1) - anchors).max())
        pred_err = prediction_error(cf, orbit, prob.n, 30)
        out.append((name, json.dumps(cf.to_json()), anchor_err.hex(), pred_err.hex()))
    return out


def test_criterion_7_reads_the_same_from_a_cold_and_a_warm_memo():
    cold = _criterion_7_outputs()
    assert _cached_basis.cache_info().hits > 0  # shared spectra within one pass
    assert _criterion_7_outputs() == cold
    assert criterion_7_recurrence()[0]


def test_a_closed_form_without_terms_is_the_empty_sum():
    empty = ClosedForm((), ())
    assert _bits(predict_range(empty, -2, 3)) == _bits([0.0] * 6)
    assert predict(empty, 7) == 0.0
    orbit = orbit_from_values([1.0, -3.0, 0.5])
    assert prediction_error(empty, orbit, 0, 2) == 0.75


def test_a_zero_root_at_a_negative_index_raises_overflow_without_a_warning():
    # RuntimeWarning is an error in this module (pytestmark above)
    for lam in (0.0, -0.0):
        cf = ClosedForm((RealTerm(lam, (1.0,)),), ())
        with pytest.raises(OverflowError):
            predict_range(cf, -1, 1)
    cf = ClosedForm((), (ComplexTerm(0.0, 1.0, (1.0,), (0.0,)),))
    with pytest.raises(OverflowError):
        predict(cf, -3)


# ---------------------------------------------------------------------------
# whole-range evaluation and recurrence windows against the per-index forms
# ---------------------------------------------------------------------------


def _bits(values):
    return [float(v).hex() for v in values]


def _workload_fits(seed):
    for name, sol, prob, x0 in _workload_cases(seed):
        orbit = iterate(sol, x0, 0, 30)
        try:
            yield name, prob, fit_closed_form(orbit, analyze_roots(prob), regime_of=sol)
        except SingularSystem:
            continue


def test_predict_range_is_predict_bit_for_bit():
    # one basis: an index's value does not depend on the range around it
    for name, prob, cf in _workload_fits(1):
        for lo, hi in ((0, prob.n - 1), (prob.n, 30), (-4, 40), (30, 30), (0, 0)):
            want = [predict(cf, j) for j in range(lo, hi + 1)]
            assert _bits(predict_range(cf, lo, hi)) == _bits(want), name


def test_overlapping_ranges_agree_bit_for_bit():
    for name, prob, cf in _workload_fits(7):
        wide = predict_range(cf, -4, 40)
        for lo, hi in ((-4, -1), (0, prob.n - 1), (prob.n, 30), (3, 11), (29, 40)):
            got = predict_range(cf, lo, hi)
            assert _bits(got) == _bits(wide[lo + 4 : hi + 5]), (name, lo, hi)


def test_a_root_power_past_the_float_range_raises_overflow():
    # (3, 1) has the root -2.414, whose power at index 899 exceeds 1.8e308
    cf = fit_closed_form(
        iterate(Affine(REAL_LINE, math.sqrt(2.0) - 1.0, 0.0), 1.0, 0, 12),
        analyze_roots(CharProblem(3, 1)),
    )
    assert math.isfinite(predict(cf, 800))
    for lo, hi in ((899, 899), (0, 900), (890, 1000)):
        with pytest.raises(OverflowError):
            predict_range(cf, lo, hi)
    with pytest.raises(OverflowError):
        predict(cf, 899)


def _prediction_error_reference(cf, orbit, j_lo, j_hi):
    worst = 0.0
    for j in range(j_lo, j_hi + 1):
        if j < orbit.m_lo or j > orbit.m_hi:
            continue
        actual = orbit.value(j)
        err = abs(predict(cf, j) - actual) / (1.0 + abs(actual))
        worst = max(worst, math.inf if math.isnan(err) else err)
    return worst


def test_prediction_error_is_the_per_index_loop_bit_for_bit():
    cf = fit_closed_form(
        iterate(Affine(REAL_LINE, -2.0, 0.5), 0.3, 0, 12),
        analyze_roots(CharProblem(2, 0)),
    )
    points = np.array([0.4, 1.0, -2.5, 0.0, 7.0, 1e300, -5.0, -1e-300, 3.0])
    orbit = Orbit(-1, 7, points)
    for j_lo in range(-3, 10):
        for j_hi in range(j_lo - 1, 10):
            if max(j_lo, -1) > min(j_hi, 7):  # no orbit index in range
                with pytest.raises(
                    TooShort, match=rf"\[{j_lo}, {j_hi}\] holds no index .*\[-1, 7\]"
                ):
                    prediction_error(cf, orbit, j_lo, j_hi)
                continue
            got = prediction_error(cf, orbit, j_lo, j_hi)
            want = _prediction_error_reference(cf, orbit, j_lo, j_hi)
            assert float(got).hex() == float(want).hex(), (j_lo, j_hi)
    for name, sol, prob, x0 in _workload_cases(2)[::5]:
        orbit = iterate(sol, x0, -5, 30)
        try:
            cf = fit_closed_form(orbit, analyze_roots(prob), regime_of=sol)
        except SingularSystem:
            continue
        got = prediction_error(cf, orbit, prob.n, 30)
        assert got.hex() == _prediction_error_reference(cf, orbit, prob.n, 30).hex()


def _check_recurrence_reference(orbit, coeffs, tol=1e-9):
    """The per-window generator form over the held values, index by index."""
    vals = np.array([orbit.value(m) for m in range(orbit.m_lo, orbit.m_hi + 1)])
    deg = coeffs.degree
    if len(vals) < deg + 1:
        raise TooShort("short")
    arr = coeffs.as_array()
    windows = len(vals) - deg
    residuals = np.empty(windows)
    for m in range(windows):
        residuals[m] = math.fsum(arr[i] * vals[m + i] for i in range(deg + 1))
    limit = tol * coeffs.inf_norm * (1.0 + float(np.max(np.abs(vals))))
    max_resid = float(np.max(np.abs(residuals)))
    return max_resid, math.isfinite(max_resid) and max_resid <= limit, windows


MODERATE = st.floats(min_value=-1e6, max_value=1e6)


@given(
    values=st.lists(MODERATE, min_size=1, max_size=24),
    back=st.integers(min_value=0, max_value=23),
    coeffs=st.lists(MODERATE, min_size=2, max_size=6),
)
@example(values=[0.0, 1.0, 2.0, 3.0, 4.0], back=2, coeffs=[1.0, -2.0, 1.0])
def test_check_recurrence_is_the_generator_form_bit_for_bit(values, back, coeffs):
    back = min(back, len(values) - 1)
    orbit = Orbit(-back, len(values) - 1 - back, np.array(values))
    poly = Polynomial(tuple(coeffs))
    try:
        want = _check_recurrence_reference(orbit, poly)
    except TooShort:
        with pytest.raises(TooShort):
            check_recurrence(orbit, poly)
        return
    got = check_recurrence(orbit, poly)
    assert (got.max_residual.hex(), got.passed, got.windows) == (
        want[0].hex(), want[1], want[2]
    )


# orbits cut by an escape forward, backward and both ways: each consumer
# reads the held run as it is
BOX = Interval(-5.0, 5.0, True, True)
ESCAPING = [
    (Translation(REAL_LINE, 1e307), 0.3, -4, 30),
    (Translation(REAL_LINE, 1e307), 0.3, -30, 4),
    (Translation(REAL_LINE, 1e307), 0.3, -30, 30),
    (ThreePiece(REAL_LINE, -1.0, 1.0, 1e300), 2.0, -6, 6),
    (ThreePiece(BOX, -1.0, 1.0, 0.5), 2.0, -6, 6),
    (ThreePiece(BOX, -1.0, 1.0, 0.5), 4.0, -6, 6),
]


def _single_regime_reference(sol, held):
    if not isinstance(sol, ThreePiece):
        return True
    return (
        all(v <= sol.a for v in held)
        or all(v >= sol.b for v in held)
        or all(sol.a <= v <= sol.b for v in held)
    )


@pytest.mark.parametrize("sol, x0, m_lo, m_hi", ESCAPING)
def test_escaping_orbits_read_as_loops_over_the_held_values(sol, x0, m_lo, m_hi):
    orbit = iterate(sol, x0, m_lo, m_hi)
    assert orbit.escaped
    held = [orbit.value(m) for m in range(orbit.m_lo, orbit.m_hi + 1)]
    assert all(math.isfinite(v) for v in held)
    assert orbit.forward_values().tolist() == held[-orbit.m_lo :]
    assert single_regime(sol, orbit) == _single_regime_reference(sol, held)

    # a scaled (2, 1) row: its products of values near 1.8e308 stay finite
    poly = Polynomial((-0.5, 1.0, -0.5))
    got = check_recurrence(orbit, poly)
    want = _check_recurrence_reference(orbit, poly)
    assert (got.max_residual.hex(), got.passed, got.windows) == (
        want[0].hex(), want[1], want[2]
    )

    cf = fit_closed_form(orbit, analyze_roots(CharProblem(2, 1)))
    for j_lo in range(m_lo - 2, m_hi + 3, 3):
        for j_hi in range(j_lo - 1, m_hi + 3, 4):
            if max(j_lo, orbit.m_lo) > min(j_hi, orbit.m_hi):
                with pytest.raises(TooShort, match="holds no index"):
                    prediction_error(cf, orbit, j_lo, j_hi)
                continue
            got = prediction_error(cf, orbit, j_lo, j_hi)
            want = _prediction_error_reference(cf, orbit, j_lo, j_hi)
            assert got.hex() == want.hex(), (j_lo, j_hi)


@pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (4, 1), (5, 2)])
def test_check_recurrence_scales_an_orbit_near_the_float_range(n, k):
    # products of values near 1.7e308 with coefficients above 1 overflowed:
    # (2, 1) read an infinite residual and passed, the others raised in fsum
    orbit = iterate(Translation(REAL_LINE, 1e307), 0.3, -5, 30)
    report = check_recurrence(orbit, build_char_poly(CharProblem(n, k)))
    # against the exact residual: each product is rounded once, so they
    # agree to rounding, and exactly for (2, 1), whose products are exact
    # (scaling by 2^-1023 loses only the low bits of x_0 = 0.3, far below
    # the rounding of values near 1e307)
    coeffs = [Fraction(a) for a in build_char_poly(CharProblem(n, k)).coeffs]
    vals = [Fraction(v) for v in orbit.points.tolist()]
    exact = float(max(
        abs(sum(a * v for a, v in zip(coeffs, vals[m:])))
        for m in range(len(vals) - n)
    ))
    assert report.max_residual == pytest.approx(exact, rel=1e-14, abs=0.0)
    assert report.max_residual == exact or (n, k) != (2, 1)
    assert math.isfinite(report.max_residual) and report.windows == len(vals) - n
    # a translation solves (2, 1) only
    assert report.passed == ((n, k) == (2, 1))


def test_nan_predictions_read_as_an_infinite_error():
    # the c = 1e307 translation orbit read back from its CSV, re-indexed
    # from 0: at 11 and 12 the (5, 1) closed form adds +inf and -inf terms
    held = iterate(Translation(REAL_LINE, 1e307), 0.3, -4, 30)
    orbit = orbit_from_values(held.points)
    cf = fit_closed_form(orbit, analyze_roots(CharProblem(5, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflowing products do not warn
        assert np.isnan(predict_range(cf, 11, 12)).all()
    assert prediction_error(cf, orbit, 11, 12) == math.inf
    assert _prediction_error_reference(cf, orbit, 11, 12) == math.inf
