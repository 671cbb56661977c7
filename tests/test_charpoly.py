import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from itereq import charpoly
from itereq.charpoly import (
    CharProblem,
    RootReport,
    _quotient,
    _quotient_sign,
    analyze_roots,
    build_char_poly,
    classify,
    report_matches_expectation,
)
from itereq.cli import main
from itereq.errors import BracketFailure, DomainError, NonConvergence, RootMismatch
from itereq.poly import ComplexRoot, Polynomial, certified_roots

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


def _lifted(prob: CharProblem) -> list[int]:
    """``(r - 1) p(r)``, ``p`` the characteristic polynomial, in integers."""
    return _times_r_minus_one(_ints(build_char_poly(prob)))


def _exact_sign(p: Polynomial, x: float) -> int:
    """Sign of ``p(x)`` for integer coefficients, in integer arithmetic:
    Horner's scheme on ``2^{s deg} p(a / 2^s)`` for ``x = a / 2^s``."""
    a, d = x.as_integer_ratio()
    acc, scale = 0, 1
    for c in reversed(_ints(p)):
        acc = acc * a + c * scale
        scale *= d
    return (acc > 0) - (acc < 0)


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


def test_char_poly_is_one_formula_for_every_k():
    # (n+1) r^k - sum_{i=0}^{n} r^i: -1 everywhere but n at r^k
    for n in range(2, 401):
        for k in range(n + 1):
            expected = [-1.0] * (n + 1)
            expected[k] = float(n)
            assert build_char_poly(CharProblem(n, k)).coeffs == tuple(expected)


def test_lifted_vanishes_at_one_everywhere():
    # 1 is a root of (r - 1) p(r) exactly to the multiplicity of 1 in p, plus
    # one: the remainders p(1) of the divisions by r - 1 (suffix sums)
    for n in range(2, 12):
        for k in range(n + 1):
            prob = CharProblem(n, k)
            mult = classify(prob).expected_real_roots[0].multiplicity
            cs, remainders = _lifted(prob), []
            for _ in range(mult + 2):
                remainders.append(sum(cs))
                cs = [sum(cs[j + 1 :]) for j in range(len(cs) - 1)]
            assert remainders[:-1] == [0] * (mult + 1) and remainders[-1] != 0


def test_lifted_equals_char_times_linear():
    # (r - 1) p(r) == (n+1)(r^{k+1} - r^k) - r^{n+1} + 1 for every k,
    # the identity the exact sign rule evaluates
    for n in range(2, 101):
        for k in range(n + 1):
            four_terms = [0] * (n + 2)
            four_terms[0] += 1
            four_terms[k] -= n + 1
            four_terms[k + 1] += n + 1
            four_terms[n + 1] -= 1
            assert _lifted(CharProblem(n, k)) == four_terms, (n, k)


def test_sign_facts_at_zero_and_minus_one():
    # (r - 1) p(r) is -p(0) at 0: 1 for k > 0 and -n for k = 0; for even k
    # it is negative at -1 (all exact integer arithmetic)
    for n in range(2, 16):
        for k in range(n + 1):
            lifted = _lifted(CharProblem(n, k))
            assert lifted[0] == (1 if k else -n)
            if k % 2 == 0:
                assert sum(c * (-1) ** i for i, c in enumerate(lifted)) < 0


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


def _sign_changes(coeffs) -> int:
    """Descartes' count: the sign changes of the nonzero coefficients."""
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def test_classify_layout_is_certified_by_descartes_and_exact_signs():
    # (r - 1) p(r) has at most as many positive (negative) roots, with
    # multiplicity, as Descartes' count allows.  When that count equals the
    # multiplicity of 1 plus the brackets, and the exact quotient changes
    # sign across every bracket, each bracket holds exactly one simple
    # root and the table has found every real root.
    for n in range(3, 101):
        for k in range(1, n):
            prob = CharProblem(n, k)
            expected = classify(prob).expected_real_roots
            mult_one = expected[0].multiplicity
            brackets = [e.bracket for e in expected[1:]]
            lifted = _lifted(prob)
            mirrored = [c if i % 2 == 0 else -c for i, c in enumerate(lifted)]
            positive = sum(lo >= 0.0 for lo, _ in brackets)
            assert _sign_changes(lifted) == mult_one + 1 + positive, (n, k)
            assert _sign_changes(mirrored) == len(brackets) - positive, (n, k)
            for lo, hi in brackets:
                signs = _quotient_sign(prob, mult_one, lo), _quotient_sign(prob, mult_one, hi)
                assert signs[0] * signs[1] < 0, (n, k, lo)


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


def test_separation_gap_is_the_least_pairwise_modulus_difference():
    # the one-pass gap against the pairwise loop over the same differences
    for n in range(2, 65):
        for k in range(n + 1):
            report = analyze_roots(CharProblem(n, k))
            gaps = [
                abs(z.modulus - abs(r.value))
                for z in report.complex_roots
                if z.im != 0.0
                for r in report.real_roots
            ]
            expected = None if report.problem.both_even else min(gaps, default=math.inf)
            gap = report.modulus_separation_min_gap
            assert gap == expected and type(gap) is type(expected), (n, k)


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


def test_claims_are_read_off_the_roots():
    # a report keeps only its roots, so scaling them moves the bound verdict
    report = analyze_roots(CharProblem(5, 2))
    assert [f.name for f in dataclasses.fields(RootReport)] == [
        "problem", "real_roots", "complex_roots",
    ]
    scaled = dataclasses.replace(report, complex_roots=tuple(
        ComplexRoot(1e3 * z.re, 1e3 * z.im) for z in report.complex_roots
    ))
    assert report.bound_2n1_ok and not scaled.bound_2n1_ok
    assert scaled.max_modulus == pytest.approx(2016.8, abs=0.1)
    assert scaled.modulus_separation_min_gap > report.modulus_separation_min_gap
    ok, problems = report_matches_expectation(scaled)
    assert not ok
    assert problems == [f"modulus bound violated: max modulus {scaled.max_modulus!r}"]
    assert scaled.to_json()["bound_2n1_ok"] is False


def _edit_real(i, **changes):
    def edit(report):
        real = list(report.real_roots)
        real[i] = dataclasses.replace(real[i], **changes)
        return dataclasses.replace(report, real_roots=tuple(real))

    return edit


@pytest.mark.parametrize(
    "edit, mismatch",
    [
        (lambda r: dataclasses.replace(r, real_roots=r.real_roots[:1]),
         "real root count 1 != expected 2"),
        (_edit_real(0, value=1.0 + 2.0**-52), "root 1 reported as 1.0000000000000002"),
        (_edit_real(1, value=1.5), "root 1.5 not strictly inside (0.0, 1.0)"),
        (_edit_real(1, multiplicity=2), "multiplicity 2 != 1"),
        (lambda r: dataclasses.replace(
            r, complex_roots=(ComplexRoot(0.0, 1.0), ComplexRoot(0.0, -1.0))
        ), "modulus separation gap 0.0 not positive"),
    ],
    ids=["count", "one_off_one", "outside_bracket", "multiplicity", "zero_gap"],
)
def test_hand_built_reports_name_each_mismatch(edit, mismatch):
    # (4, 1): the root 1, a root in (0, 1) and one conjugate pair
    report = edit(analyze_roots(CharProblem(4, 1)))
    ok, problems = report_matches_expectation(report)
    assert not ok
    assert any(mismatch in p for p in problems), problems


def test_solver_failures_are_not_cached(monkeypatch):
    from itereq import charpoly

    def fail(p, z):
        raise NonConvergence("synthetic")

    prob = CharProblem(9, 4)
    monkeypatch.setattr(charpoly, "certified_roots", fail)
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
    """Make ``analyze_roots`` see the real spectrum of its polynomial, edited;
    each root keeps its radius, and a root the edit adds has radius 0."""
    from itereq import charpoly

    real_certified_roots = charpoly.certified_roots

    def patched(p, z):
        roots, radii = real_certified_roots(p, z)
        radius = {id(root): r for root, r in zip(roots, radii)}
        edited = edit(roots)
        return edited, np.array([radius.get(id(root), 0.0) for root in edited])

    monkeypatch.setattr(charpoly, "certified_roots", patched)


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


def test_real_estimate_shifted_off_its_root_is_refused_by_the_residual_test(monkeypatch):
    # the estimate of the root sqrt(2) - 1 of (3, 1), 1e-6 off: its disk
    # stays apart from the others, and the residual test refuses it
    def shifted(prob):
        z = good(prob)
        return np.where((z.imag == 0.0) & (0.0 < z.real) & (z.real < 1.0), z + 1e-6, z)

    good = charpoly._lifted_estimates
    monkeypatch.setattr(charpoly, "_lifted_estimates", shifted)
    with pytest.raises(
        NonConvergence,
        match=r"^\(n=3, k=1\), lifted-form estimates: root residual \S+ times its limit at "
        r"the estimates$",
    ):
        analyze_roots(CharProblem(3, 1))
    assert main(["analyze", "--n", "3", "--k", "1"]) == 4


def test_real_root_whose_disk_reaches_its_bracket_end_is_refused(monkeypatch, capsys):
    # the root sqrt(2) - 1 of (3, 1) handed back with radius 0.5: its disk
    # reaches 0, the lower end of its bracket (0, 1)
    estimate = analyze_roots.__wrapped__(CharProblem(3, 1)).real_root_in(0.0, 1.0)
    real_certified_roots = charpoly.certified_roots

    def widened(p, z):
        roots, radii = real_certified_roots(p, z)
        inside = [root.im == 0.0 and 0.0 < root.re < 1.0 for root in roots]
        return roots, np.where(inside, 0.5, radii)

    monkeypatch.setattr(charpoly, "certified_roots", widened)
    with pytest.raises(NonConvergence) as info:
        analyze_roots(CharProblem(3, 1))
    assert str(info.value) == (
        f"(n=3, k=1): the disk of radius 5.000e-01 about the real root estimate "
        f"{estimate!r} reaches its bracket end 0.0"
    )
    assert main(["analyze", "--n", "3", "--k", "1"]) == 4
    assert "reaches its bracket end 0.0" in capsys.readouterr().err


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
    from itereq import _kernels

    prob = CharProblem(n, 0)  # K0 with n even: a root in (-(2n+1), -1)
    end = -(2 * n + 1)
    # p(r) = n - r - ... - r^n, and q = p / (r - 1) with end - 1 < 0
    p_end = n - sum(end**i for i in range(1, n + 1))
    assert _quotient_sign(prob, 1, float(end)) == (-1 if p_end > 0 else 1)
    assert abs(end) ** n > sys.float_info.max  # why the sign is taken exactly

    non_finite = []

    def watch(fn):
        def wrapper(*args):
            value = fn(*args)
            parts = value if isinstance(value, tuple) else (value,)
            if not all(np.all(np.isfinite(part)) for part in parts):
                non_finite.append((fn.__name__, args[-1]))
            return value

        return wrapper

    fused = _kernels.horner_scaled_bound
    monkeypatch.setattr(_kernels, "horner_scaled_bound", watch(fused))
    report = analyze_roots(prob)
    assert non_finite == []
    ok, problems = report_matches_expectation(report)
    assert ok, problems


def _window_ends(report, width=1e-10):
    """Points ``width`` either side of each real root, inside its bracket."""
    for rec in report.real_roots[1:]:
        lo, hi = rec.bracket
        yield max(lo, rec.value - width)
        yield min(hi, rec.value + width)


def test_sign_rule_is_the_exact_sign_of_the_quotient():
    # oracle: Horner's scheme in integers on the integer quotient itself
    for n in range(2, 101):
        for k in range(n + 1):
            prob = CharProblem(n, k)
            mult = classify(prob).expected_real_roots[0].multiplicity
            work = _quotient(prob, mult)
            big = 2.0 * n + 1.0
            points = [0.0, 1.0, -1.0, big, -big]
            points += _window_ends(analyze_roots.__wrapped__(prob))
            for x in points:
                assert _quotient_sign(prob, mult, x) == _exact_sign(work, x), (n, k, x)


@pytest.mark.parametrize("n", [150, 200, 400])
def test_sign_rule_past_the_float_range(n):
    # |x|^n, and so a float p(x), overflows at +-(2n+1) and near n
    assert n * math.log2(n - 0.25) > sys.float_info.max_exp
    for k in (0, 1, n // 2, n - 1, n):
        prob = CharProblem(n, k)
        mult = classify(prob).expected_real_roots[0].multiplicity
        work = _quotient(prob, mult)
        points = [-(2.0 * n + 1.0), -12.5, 12.5, n - 0.25, 2.0 * n + 1.0, 1.0 + 2.0**-40]
        if k == n - 1:  # and the window around its real root near n
            report = analyze_roots(prob)
            assert report_matches_expectation(report)[0]
            points += _window_ends(report)
        for x in points:
            assert _quotient_sign(prob, mult, x) == _exact_sign(work, x), (k, x)


def test_integer_quotient_is_the_float_deflation_bit_for_bit():
    # exact oracle: the quotient times (r - 1)^m, multiplied back in
    # integers, is the characteristic polynomial coefficient for coefficient
    for n in range(2, 81):
        for k in range(n + 1):
            prob = CharProblem(n, k)
            mult = classify(prob).expected_real_roots[0].multiplicity
            quotient = _quotient(prob, mult)
            assert quotient.degree == n - mult
            product = _ints(quotient)
            for _ in range(mult):
                product = _times_r_minus_one(product)
            assert product == _ints(build_char_poly(prob))


def test_quotient_from_n_k_is_the_suffix_sums_of_the_char_poly():
    # the quotient built from (n, k) in integers against the float
    # characteristic polynomial divided by suffix sums, for every n <= 400
    # at k where 1 is simple and, for even n, at n = 2k where it is double;
    # dividing once more leaves a nonzero remainder
    for n in range(2, 401):
        for k in sorted({0, 1, n // 2 - 1, n // 2, (n + 1) // 2, n - 1, n}):
            prob = CharProblem(n, k)
            mult = classify(prob).expected_real_roots[0].multiplicity
            assert mult == (2 if n == 2 * k else 1)
            cs = list(build_char_poly(prob).coeffs)
            for _ in range(mult):
                assert math.fsum(cs) == 0.0
                tail, suffix = 0.0, []
                for c in reversed(cs[1:]):
                    tail += c
                    suffix.append(tail)
                cs = suffix[::-1]
            assert _quotient(prob, mult).coeffs == tuple(cs), (n, k)
            with pytest.raises(RootMismatch, match="remainder"):
                _quotient(prob, mult + 1)


def test_integer_quotient_needs_a_zero_remainder():
    # (3, 1): -1 + 3r - r^2 - r^3 over r - 1 is 1 - 2r - r^2, which leaves
    # q(1) = p'(1) = (n+1)(2k-n)/2 = -2 on a second division
    assert _quotient(CharProblem(3, 1), 1).coeffs == (1.0, -2.0, -1.0)
    with pytest.raises(
        RootMismatch,
        match=r"^CharProblem\(n=3, k=1\): 1 is not a 2-fold root: remainder -2$",
    ):
        _quotient(CharProblem(3, 1), 2)


# ---------------------------------------------------------------------------
# the lifted start
# ---------------------------------------------------------------------------


def _eigenvalue_started_spectrum(prob, work):
    """The reference start: companion-matrix eigenvalues (``np.roots``), the
    real ones and one of each pair, certified alike."""
    z = np.roots(work.coeffs[::-1])
    return certified_roots(work, np.concatenate([z[z.imag == 0.0].real, z[z.imag > 0.0]]) + 0j)


def _report_values(report):
    return np.array(
        [r.value for r in report.real_roots] + [z.as_complex() for z in report.complex_roots]
    )


# 43, 47 and 58 hold the slow w = 1 slots (43, 21), (47, 23) and (58, 28),
# the positive root other than 1 close to it, where Newton takes the most steps
@pytest.mark.parametrize(
    "n", [*range(2, 21), 21, 22, 30, 31, 43, 47, 58, 63, 64, 100, 200]
)
def test_lifted_start_gives_the_eigenvalue_started_report(monkeypatch, n):
    for k in range(n + 1):
        prob = CharProblem(n, k)
        lifted = analyze_roots.__wrapped__(prob)
        with monkeypatch.context() as m:
            m.setattr(charpoly, "_spectrum", _eigenvalue_started_spectrum)
            eig = analyze_roots.__wrapped__(prob)
        # the same layout: brackets and multiplicities, then roots in the
        # same sorted order, non-real exactly where the other's are
        assert [(r.bracket, r.multiplicity) for r in lifted.real_roots] == [
            (r.bracket, r.multiplicity) for r in eig.real_roots
        ]
        assert [np.sign(z.im) for z in lifted.complex_roots] == [
            np.sign(z.im) for z in eig.complex_roots
        ]
        a, b = _report_values(lifted), _report_values(eig)
        assert np.all(np.abs(a - b) <= 1e-13 * np.abs(b)), (k, np.max(np.abs(a - b) / np.abs(b)))


def test_lifted_start_needs_no_retry_up_to_n_100():
    # every start passes every check of certified_roots as it is: a miss raises
    for n in range(2, 101):
        for k in range(n + 1):
            analyze_roots.__wrapped__(CharProblem(n, k))


def test_n_equal_2k_past_243_takes_one_kernel_pass_per_solve(monkeypatch):
    # where the sweep loop once ran to its cap of 1200: the estimates pass
    # every check as they are, and one correction is all they get, in one
    # pass over one point per real root and per conjugate pair
    from itereq import _kernels

    passes = []
    fused = _kernels.horner_scaled_bound

    def counted(c, z):
        passes.append(len(z))
        return fused(c, z)

    monkeypatch.setattr(_kernels, "horner_scaled_bound", counted)
    points = []
    for n in range(244, 301, 2):
        report = analyze_roots.__wrapped__(CharProblem(n, n // 2))
        assert report_matches_expectation(report)[0], n
        # the root 1 is double; the other real roots, and one of each pair
        points.append(len(report.real_roots) - 1 + len(report.complex_roots) // 2)
    assert passes == points
    assert points == [n // 2 - (n // 2) % 2 for n in range(244, 301, 2)]


@pytest.mark.parametrize("n, k", [(2000, 1951), (3000, 1499), (3000, 1)])
def test_disks_hold_from_n_2000(n, k):
    # a Weierstrass denominator, a running product of n - 2 differences,
    # fell below the float range here and overlapped the disks; the Newton
    # disks form no product (RuntimeWarning is an error in this suite)
    ok, problems = report_matches_expectation(analyze_roots.__wrapped__(CharProblem(n, k)))
    assert ok, problems


@pytest.mark.xfail(
    strict=True,
    raises=NonConvergence,
    reason="ROADMAP item 12: at n = 2k from 5000, and at k = 1 and k = n - 1 from "
    "18000, the Horner rounding bound of the quotient alone widens the disks nearest "
    "-1 until two meet (the real root and a pair, or a pair and its mirror)",
)
@pytest.mark.parametrize("n, k", [(5000, 2500), (18000, 1)])
def test_disks_hold_at_large_n(n, k):
    ok, problems = report_matches_expectation(analyze_roots.__wrapped__(CharProblem(n, k)))
    assert ok, problems


def test_certificate_at_n_4000_peaks_below_150_mb():
    # the overlap test is a sweep in real order: no n x n array is built
    # (the pairwise distance and overlap arrays peaked at about 290 MB here)
    src = os.path.dirname(os.path.dirname(os.path.abspath(charpoly.__file__)))
    code = (
        "import resource; from itereq.charpoly import CharProblem, analyze_roots; "
        "analyze_roots.__wrapped__(CharProblem(4000, 1999)); "
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    peak_mb = int(run.stdout) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mb < 150, peak_mb


@pytest.mark.parametrize("bad", ["collapsed", "not_finite", "too_few", "unpolished"])
def test_a_bad_lifted_start_raises_naming_the_check(monkeypatch, bad):
    # no eigenvalue retry: the problem, the start and the missed check are named
    prob = CharProblem(40, 13)
    good = charpoly._lifted_estimates(prob)
    start, check = {
        # every pair collapsed onto one point
        "collapsed": (np.where(good.imag > 0, 0.5 + 0.5j, good), "inclusion disks overlap"),
        "not_finite": (
            np.where(good.imag > 0, complex(np.nan, 1.0), good), r"root estimate \(nan\+1j\)"
        ),
        # the one real estimate dropped: 19 estimates, one per pair, for 38 roots
        "too_few": (good[1:], "38 root estimates for degree 39"),
        # every estimate off by 1e-6: the disks stay apart, the residuals do not pass
        "unpolished": (good * (1 + 1e-6), "root residual .* times its limit at the estimates"),
    }[bad]
    monkeypatch.setattr(charpoly, "_lifted_estimates", lambda p: start)
    with pytest.raises(NonConvergence, match=r"\(n=40, k=13\), lifted-form estimates: " + check):
        analyze_roots.__wrapped__(prob)
