import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from itereq.charpoly import (
    CharProblem,
    analyze_roots,
    build_char_poly,
    char_poly_lifted,
    classify,
    derivative_factor,
    report_matches_expectation,
)
from itereq.errors import BracketFailure, DomainError, NonConvergence
from itereq.poly import ComplexRoot, Polynomial, evaluate

SQRT2 = math.sqrt(2.0)

# frozen oracle values (see test_poly for the bisection oracle): the root
# of r^3+2r^2+3r-1 in (0,1) and the modulus of the leftover conjugate pair
CUBIC_ROOT = 0.27568220365098495
QUARTIC_PAIR_MODULUS = 1.9045642768654023




def _ints(p: Polynomial) -> list[int]:
    """The coefficients of ``p`` as Python ints; each must be integral."""
    assert all(c == int(c) for c in p.coeffs)
    return [int(c) for c in p.coeffs]


def _times_r_minus_one(cs: list[int]) -> list[int]:
    """``sum_i c_i r^i * (r - 1)`` in integer arithmetic, ascending."""
    return [b - a for a, b in zip(cs + [0], [0] + cs)]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_problem_validation():
    with pytest.raises(DomainError):
        CharProblem(1, 0)
    with pytest.raises(DomainError):
        CharProblem(3, 4)
    with pytest.raises(DomainError):
        CharProblem(3, -1)


def test_char_poly_interior_case():
    assert build_char_poly(CharProblem(2, 1)).coeffs == (-1.0, 2.0, -1.0)


def test_char_poly_k0():
    assert build_char_poly(CharProblem(2, 0)).coeffs == (2.0, -1.0, -1.0)


def test_char_poly_kn():
    assert build_char_poly(CharProblem(2, 2)).coeffs == (-1.0, -1.0, 2.0)


def test_char_poly_leading_sign_convention():
    for n in range(2, 9):
        for k in range(0, n):
            assert build_char_poly(CharProblem(n, k)).coeffs[-1] == -1.0
        assert build_char_poly(CharProblem(n, n)).coeffs[-1] == float(n)


def test_lifted_poly_expansion():
    # r^5 - 5r^2 + 5r - 1 for (n, k) = (4, 1)
    assert char_poly_lifted(CharProblem(4, 1)).coeffs == (
        -1.0, 5.0, -5.0, 0.0, 0.0, 1.0,
    )


def test_lifted_poly_is_cube_at_n2k1():
    # (r - 1)^3 when n = 2, k = 1
    assert char_poly_lifted(CharProblem(2, 1)).coeffs == (-1.0, 3.0, -3.0, 1.0)


def test_lifted_vanishes_at_one_everywhere():
    for n in range(2, 12):
        for k in range(1, n):
            prob = CharProblem(n, k)
            assert evaluate(char_poly_lifted(prob), 1.0) == 0.0
            assert evaluate(derivative_factor(prob), 1.0) == 0.0


def test_lifted_equals_char_times_linear():
    # lifted(r) == -p(r) * (r - 1), the product taken in integers
    for n in range(2, 10):
        for k in range(1, n):
            prob = CharProblem(n, k)
            negated = [-c for c in _ints(build_char_poly(prob))]
            assert _ints(char_poly_lifted(prob)) == _times_r_minus_one(negated)


def test_derivative_factor_substitution():
    # r^4 - 2r + 1 at (n, k) = (4, 1)
    assert derivative_factor(CharProblem(4, 1)).coeffs == (1.0, -2.0, 0.0, 0.0, 1.0)


def test_derivative_identity_exact():
    # lifted'(r) == (n+1) * r^(k-1) * factor(r), coefficient by coefficient,
    # both sides in integers
    for n in range(2, 13):
        for k in range(1, n):
            prob = CharProblem(n, k)
            lifted = _ints(char_poly_lifted(prob))
            lhs = [i * c for i, c in enumerate(lifted)][1:]
            rhs = [0] * (k - 1) + [(n + 1) * c for c in _ints(derivative_factor(prob))]
            assert lhs == rhs


def test_lifted_domain_guard():
    with pytest.raises(DomainError):
        char_poly_lifted(CharProblem(3, 0))
    with pytest.raises(DomainError):
        derivative_factor(CharProblem(3, 3))


def test_sign_facts_at_zero_and_minus_one():
    # factor(0) = k > 0 and lifted(0) = -1 for 0 < k < n; for even k
    # additionally lifted(-1) > 0 (all exact integer arithmetic)
    for n in range(2, 16):
        for k in range(1, n):
            prob = CharProblem(n, k)
            assert evaluate(derivative_factor(prob), 0.0) == float(k)
            assert evaluate(char_poly_lifted(prob), 0.0) == -1.0
            if k % 2 == 0:
                assert evaluate(char_poly_lifted(prob), -1.0) > 0.0


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _brackets(analysis):
    return [(e.bracket, e.multiplicity) for e in analysis.expected_real_roots]


def test_classify_c1_double_root():
    analysis = classify(CharProblem(2, 1))
    assert analysis.case_label == "C1"
    assert _brackets(analysis) == [((1.0, 1.0), 2)]


def test_classify_c3():
    analysis = classify(CharProblem(4, 1))
    assert analysis.case_label == "C3"
    assert _brackets(analysis) == [((1.0, 1.0), 1), ((0.0, 1.0), 1)]


def test_classify_c8():
    analysis = classify(CharProblem(4, 2))
    assert analysis.case_label == "C8"
    assert _brackets(analysis) == [
        ((1.0, 1.0), 2),
        ((-1.0, 0.0), 1),
        ((-9.0, -1.0), 1),
    ]


def test_classify_kn():
    analysis = classify(CharProblem(4, 4))
    assert analysis.case_label == "KN"
    assert _brackets(analysis) == [((1.0, 1.0), 1), ((-1.0, 0.0), 1)]


def test_classify_k0_parity():
    assert _brackets(classify(CharProblem(3, 0))) == [((1.0, 1.0), 1)]
    assert _brackets(classify(CharProblem(4, 0))) == [
        ((1.0, 1.0), 1),
        ((-9.0, -1.0), 1),
    ]


def test_classify_complete_case_labels():
    expected = {
        (6, 3): "C1", (6, 5): "C2", (8, 1): "C3", (7, 5): "C4",
        (7, 3): "C5", (7, 4): "C6", (9, 2): "C7", (8, 4): "C8",
        (6, 4): "C9", (10, 2): "C10",
    }
    for (n, k), label in expected.items():
        assert classify(CharProblem(n, k)).case_label == label


def test_r_min_formula():
    analysis = classify(CharProblem(4, 1))
    assert analysis.r_min == pytest.approx((2.0 / 4.0) ** (1.0 / 3.0))
    assert analysis.r_max is None  # n - k odd here
    even_gap = classify(CharProblem(5, 1))
    assert even_gap.r_max == pytest.approx(-even_gap.r_min)


def test_r_min_is_one_iff_n_equals_2k():
    for n in range(2, 12):
        for k in range(1, n):
            analysis = classify(CharProblem(n, k))
            if n == 2 * k:
                assert analysis.r_min == pytest.approx(1.0)
            else:
                assert abs(analysis.r_min - 1.0) > 1e-9


def test_separation_applicability():
    # modulus separation is claimed unless k and n are both even
    assert not CharProblem(3, 1).both_even
    assert not CharProblem(4, 1).both_even
    assert not CharProblem(3, 2).both_even
    assert CharProblem(4, 2).both_even
    assert CharProblem(4, 0).both_even
    assert CharProblem(4, 4).both_even


# ---------------------------------------------------------------------------
# root analysis
# ---------------------------------------------------------------------------


def test_analyze_3_1():
    report = analyze_roots(CharProblem(3, 1))
    values = sorted(r.value for r in report.real_roots)
    assert values == pytest.approx([-1.0 - SQRT2, SQRT2 - 1.0, 1.0], abs=1e-10)
    assert report.complex_roots == ()
    assert report.bound_2n1_ok
    assert report.modulus_separation_min_gap == math.inf


def test_analyze_4_1():
    report = analyze_roots(CharProblem(4, 1))
    values = sorted(r.value for r in report.real_roots)
    assert values == pytest.approx([CUBIC_ROOT, 1.0], abs=1e-10)
    assert len(report.complex_roots) == 2
    for z in report.complex_roots:
        assert z.modulus == pytest.approx(QUARTIC_PAIR_MODULUS, abs=1e-9)
    gap = report.modulus_separation_min_gap
    assert gap == pytest.approx(QUARTIC_PAIR_MODULUS - 1.0, abs=1e-9)


def test_analyze_2_0():
    report = analyze_roots(CharProblem(2, 0))
    values = sorted(r.value for r in report.real_roots)
    assert values == pytest.approx([-2.0, 1.0], abs=1e-12)


def test_analyze_2_2_negative_root():
    report = analyze_roots(CharProblem(2, 2))
    assert report.real_root_in(-1.0, 0.0) == pytest.approx(-0.5, abs=1e-12)


def test_analyze_double_root_cases():
    for n, k in ((2, 1), (6, 3), (4, 2), (8, 4)):
        report = analyze_roots(CharProblem(n, k))
        one = [r for r in report.real_roots if r.value == 1.0]
        assert len(one) == 1
        assert one[0].multiplicity == 2


def test_report_json_shape():
    report = analyze_roots(CharProblem(4, 1))
    payload = report.to_json()
    assert payload["problem"] == {"n": 4, "k": 1}
    assert {"value", "multiplicity", "bracket"} == set(payload["real_roots"][0])
    assert {"re", "im", "multiplicity", "modulus"} == set(
        payload["complex_roots"][0]
    )
    assert payload["bound_2n1_ok"] is True
    assert isinstance(payload["modulus_separation_min_gap"], float)
    both_even = analyze_roots(CharProblem(4, 2)).to_json()
    assert both_even["modulus_separation_min_gap"] == "not_applicable"


@given(st.integers(min_value=2, max_value=15))
def test_exhaustive_match_per_n(n):
    for k in range(0, n + 1):
        prob = CharProblem(n, k)
        report = analyze_roots(prob)
        ok, problems = report_matches_expectation(report)
        assert ok, f"(n={n}, k={k}): {problems}"


def test_total_multiplicity_equals_degree():
    for n in range(2, 12):
        for k in range(0, n + 1):
            report = analyze_roots(CharProblem(n, k))
            assert report.total_multiplicity == n


def test_concurrent_analyses_are_reentrant():
    from concurrent.futures import ThreadPoolExecutor

    probs = [
        CharProblem(n, k) for n in range(2, 10) for k in range(0, n + 1)
    ]
    with ThreadPoolExecutor(max_workers=8) as pool:
        reports = list(pool.map(analyze_roots, probs))
    for report in reports:
        ok, problems = report_matches_expectation(report)
        assert ok, problems


# ---------------------------------------------------------------------------
# shared report cache
# ---------------------------------------------------------------------------


def test_equal_problems_share_one_report():
    assert analyze_roots(CharProblem(7, 3)) is analyze_roots(CharProblem(7, 3))


def test_shared_report_is_read_only():
    report = analyze_roots(CharProblem(5, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.bound_2n1_ok = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.real_roots[0].value = 2.0
    before = report.to_json()
    payload = report.to_json()
    payload["problem"]["n"] = 99
    payload["real_roots"][0]["bracket"][0] = 0.0
    payload["complex_roots"].clear()
    assert analyze_roots(CharProblem(5, 2)).to_json() == before


def test_solver_failures_are_not_cached(monkeypatch):
    from itereq import charpoly

    def fail(p):
        raise NonConvergence("synthetic")

    prob = CharProblem(9, 4)
    monkeypatch.setattr(charpoly, "all_roots", fail)
    for _ in range(2):
        with pytest.raises(NonConvergence):
            analyze_roots(prob)
    monkeypatch.undo()
    ok, problems = report_matches_expectation(analyze_roots(prob))
    assert ok, problems


def test_report_cache_is_bounded():
    maxsize = analyze_roots.cache_parameters()["maxsize"]
    probs = (CharProblem(n, k) for n in range(2, 40) for k in range(n + 1))
    for _ in range(maxsize + 1):
        analyze_roots(next(probs))
    assert analyze_roots.cache_info().currsize == maxsize


@pytest.mark.parametrize(
    "n,k", [(46, 2), (55, 0), (55, 1), (59, 19), (60, 1), (63, 13), (64, 16)]
)
def test_spectrum_past_the_paper_range(n, k):
    prob = CharProblem(n, k)
    report = analyze_roots(prob)
    ok, problems = report_matches_expectation(report)
    assert ok, problems
    # backward error of every root against the undeflated polynomial
    coeffs = build_char_poly(prob).coeffs
    roots = [complex(r.value) for r in report.real_roots]
    roots += [z.as_complex() for z in report.complex_roots]
    for z in roots:
        value = sum(c * z**i for i, c in enumerate(coeffs))
        magnitude = sum(abs(c) * abs(z) ** i for i, c in enumerate(coeffs))
        assert abs(value) / magnitude <= 1e-8, z


# ---------------------------------------------------------------------------
# one spectrum solve: bracket checks and their failure paths
# ---------------------------------------------------------------------------


def _patched_estimates(monkeypatch, edit):
    """Make ``analyze_roots`` see the real spectrum of its polynomial, edited."""
    from itereq import charpoly

    real_all_roots = charpoly.all_roots

    def patched(p):
        return edit(real_all_roots(p))

    monkeypatch.setattr(charpoly, "all_roots", patched)


def _without_root_in(lo, hi):
    return lambda roots: [z for z in roots if not (z.im == 0.0 and lo < z.re < hi)]


@pytest.mark.parametrize(
    "edit, count",
    [
        (_without_root_in(0.0, 1.0), 0),
        (lambda roots: roots + [ComplexRoot(0.5, 0.0)], 2),
    ],
    ids=["none", "two"],
)
def test_bracket_needs_exactly_one_real_estimate(monkeypatch, edit, count):
    _patched_estimates(monkeypatch, edit)
    with pytest.raises(BracketFailure, match=rf"\b{count} real root estimates in bracket \(0\.0, 1\.0\)"):
        analyze_roots(CharProblem(3, 1))


def test_real_estimate_outside_every_bracket_is_flagged(monkeypatch):
    _patched_estimates(monkeypatch, lambda roots: roots + [ComplexRoot(-0.5, 0.0)])
    report = analyze_roots(CharProblem(3, 1))
    assert ComplexRoot(-0.5, 0.0) in report.complex_roots
    ok, problems = report_matches_expectation(report)
    assert not ok
    assert any("unexpected extra real root -0.5" in p for p in problems)


def test_real_estimate_without_a_nearby_sign_change_fails(monkeypatch):
    def shift(roots):
        return [
            ComplexRoot(z.re + 1e-6, 0.0) if 0.0 < z.re < 1.0 and z.im == 0.0 else z
            for z in roots
        ]

    _patched_estimates(monkeypatch, shift)
    with pytest.raises(NonConvergence, match="sign change not confirmed within 1.0e-10"):
        analyze_roots(CharProblem(3, 1))


def test_one_spectrum_solve_per_problem(monkeypatch):
    calls = []
    _patched_estimates(monkeypatch, lambda roots: calls.append(roots) or roots)
    report = analyze_roots(CharProblem(12, 4))  # C10: four real roots
    assert len(report.real_roots) == 4 and len(calls) == 1
    # the real roots are read off that one spectrum
    (spectrum,) = calls
    assert [r.value for r in report.real_roots[1:]] == [
        next(z.re for z in spectrum if z.im == 0.0 and lo < z.re < hi)
        for lo, hi in (r.bracket for r in report.real_roots[1:])
    ]
    assert len(report.complex_roots) == len(spectrum) - 3
    assert report_matches_expectation(report)[0]


@pytest.mark.parametrize("n", [150, 200])
def test_bracket_end_signs_are_exact_past_the_float_range(monkeypatch, n):
    from itereq import _kernels, charpoly

    prob = CharProblem(n, 0)  # K0 with n even: a root in (-(2n+1), -1)
    end = -(2 * n + 1)
    work = charpoly._divide_out_one(build_char_poly(prob), 1)
    # p(r) = n - r - ... - r^n, and work = p / (r - 1) with end - 1 < 0
    p_end = n - sum(end**i for i in range(1, n + 1))
    assert charpoly._exact_sign(work, float(end)) == (-1 if p_end > 0 else 1)
    assert math.isinf(evaluate(work, float(end)))  # why the sign is taken exactly

    non_finite = []

    def watch(fn):
        def wrapper(*args):
            value = fn(*args)
            parts = value if isinstance(value, tuple) else (value,)
            if not all(np.all(np.isfinite(part)) for part in parts):
                non_finite.append((fn.__name__, args[-1]))
            return value

        return wrapper

    for name in ("horner", "horner_vec", "horner_scaled_bound"):
        monkeypatch.setattr(_kernels, name, watch(getattr(_kernels, name)))
    report = analyze_roots(prob)
    assert non_finite == []
    ok, problems = report_matches_expectation(report)
    assert ok, problems


@pytest.mark.parametrize("n, k", [(150, 149), (151, 150), (200, 199)])
@pytest.mark.parametrize("x", [-12.5, 12.5, 149.75])
def test_signed_value_past_the_direct_range_has_the_exact_sign(n, k, x):
    from itereq.charpoly import _divide_out_one, _signed_value

    work = _divide_out_one(build_char_poly(CharProblem(n, k)), 1)
    exact = sum(Fraction(c) * Fraction(x) ** i for i, c in enumerate(work.coeffs))
    value = _signed_value(work, x)
    assert math.isfinite(value) and (value > 0) == (exact > 0) and exact != 0


@pytest.mark.parametrize("n", [150, 200])
def test_sign_checks_near_a_root_of_size_n_stay_finite(monkeypatch, n):
    from itereq import _kernels

    non_finite = []
    horner = _kernels.horner

    def watched(desc, x):
        value = horner(desc, x)
        if not math.isfinite(value):
            non_finite.append(x)
        return value

    monkeypatch.setattr(_kernels, "horner", watched)
    report = analyze_roots(CharProblem(n, n - 1))
    assert non_finite == []
    ok, problems = report_matches_expectation(report)
    assert ok, problems


def test_integer_quotient_is_the_float_deflation_bit_for_bit():
    # exact oracle: the quotient times (r - 1)^m, multiplied back in
    # integers, is the characteristic polynomial coefficient for coefficient
    from itereq.charpoly import _divide_out_one

    for n in range(2, 81):
        for k in range(n + 1):
            prob = CharProblem(n, k)
            mult = classify(prob).expected_real_roots[0].multiplicity
            quotient = _divide_out_one(build_char_poly(prob), mult)
            assert quotient.degree == n - mult
            product = _ints(quotient)
            for _ in range(mult):
                product = _times_r_minus_one(product)
            assert product == _ints(build_char_poly(prob))


def test_integer_quotient_needs_a_zero_remainder():
    from itereq.charpoly import _divide_out_one
    from itereq.errors import RootMismatch

    # (r - 1)^2 (r + 2) once and twice divides; a third division leaves 3
    p = Polynomial((2.0, -3.0, 0.0, 1.0))
    assert _divide_out_one(p, 2).coeffs == (2.0, 1.0)
    with pytest.raises(RootMismatch, match="integer remainder 3"):
        _divide_out_one(p, 3)


def test_unconfirmed_sign_change_reports_a_finite_scaled_residual():
    from itereq.charpoly import _confirm_sign_change, _divide_out_one

    # the real root near 150 of (150, 149): |x|^150 overflows, so the
    # residual is reported divided by |x|^n, and named so
    prob = CharProblem(150, 149)
    work = _divide_out_one(build_char_poly(prob), 1)
    lo, hi = 1.0, 301.0
    root = analyze_roots(prob).real_root_in(lo, hi)
    _confirm_sign_change(work, root, lo, hi)
    with pytest.raises(NonConvergence, match=r"scaled \|p\(x\)\|/\|x\|\^149") as info:
        _confirm_sign_change(work, root + 1e-6, lo, hi)
    assert math.isfinite(info.value.best_residual) and info.value.best_residual > 0.0
    # inside the direct range the plain |p(x)| is reported
    small = _divide_out_one(build_char_poly(CharProblem(5, 2)), 1)
    with pytest.raises(NonConvergence, match=r"; \|p\(x\)\| = ") as info:
        _confirm_sign_change(small, 0.3, 0.0, 1.0)
    assert info.value.best_residual == abs(evaluate(small, 0.3))
