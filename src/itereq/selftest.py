"""Acceptance battery: exhaustive desk-scale checks of every claim.

Each criterion function returns a :class:`CriterionResult`; ``run_all``
executes the battery and prints one pass/fail line per criterion.  The
pytest acceptance module drives the same functions, so the CLI
``selftest`` subcommand and the test suite agree by construction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charpoly import (
    CharProblem,
    analyze_roots,
    build_char_poly,
    report_matches_expectation,
)
from .errors import ItereqError
from .families import (
    Affine,
    Identity,
    Solution,
    ThreePiece,
    Translation,
    build_involution,
    conjugate,
    enumerate_families,
)
from .intervals import REAL_LINE, Interval
from .means import Generator
from .poly import Polynomial
from .recurrence import PREDICTION_TOL, fit_closed_form, predict, prediction_error
from .verify import (
    DEFAULT_SAMPLES,
    DEFAULT_TOL,
    antimonotone_signs_constant,
    iterate,
    verify_dual,
    verify_general,
    verify_mean,
)

ROOT_TABLE_TIME_BUDGET = 5.0
FAMILY_TIME_BUDGET = 2.0
SEPARATION_FLOOR = 1e-6
ANCHOR_TOL = 1e-10


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str


def _table_range():
    """(n, k) pairs of the exhaustive table: 2<=n<=15, 1<=k<n, one parity odd."""
    for n in range(2, 16):
        for k in range(1, n):
            if k % 2 == 0 and n % 2 == 0:
                continue
            yield CharProblem(n, k)


def criterion_1_root_table() -> CriterionResult:
    """Real-root count, signs, brackets, and the n=2k double root.

    Times the uncached analysis, so the budget measures root finding even
    when earlier calls have filled the report cache.
    """
    start = time.perf_counter()
    mismatches: list[str] = []
    count = 0
    for prob in _table_range():
        count += 1
        report = analyze_roots.__wrapped__(prob)
        ok, problems = report_matches_expectation(report)
        if not ok:
            mismatches.append(f"(n={prob.n}, k={prob.k}): {problems}")
    elapsed = time.perf_counter() - start
    passed = not mismatches and elapsed < ROOT_TABLE_TIME_BUDGET
    details = f"{count} cases, 0 mismatches, {elapsed:.2f}s"
    if mismatches:
        details = f"{len(mismatches)} mismatches: {mismatches[:3]}"
    elif elapsed >= ROOT_TABLE_TIME_BUDGET:
        details = f"time budget exceeded: {elapsed:.2f}s >= {ROOT_TABLE_TIME_BUDGET}s"
    return CriterionResult(1, "root-case table", passed, details)


def criterion_2_complex_bound() -> CriterionResult:
    """All complex roots stay inside modulus 2n+1, with margin."""
    violations = []
    min_margin = math.inf
    for prob in _table_range():
        report = analyze_roots(prob)
        if not report.bound_2n1_ok:
            violations.append((prob.n, prob.k, report.max_modulus))
        min_margin = min(min_margin, report.bound_margin)
    passed = not violations and min_margin > 0.0
    details = f"0 violations, min margin {min_margin:.6f}"
    if violations:
        details = f"violations: {violations[:3]}"
    return CriterionResult(2, "complex modulus bound", passed, details)


def criterion_3_modulus_separation() -> CriterionResult:
    """Non-real and real root moduli never nearly coincide."""
    min_gap = math.inf
    offenders = []
    for prob in _table_range():
        report = analyze_roots(prob)
        gap = report.modulus_separation_min_gap
        if gap is None:
            offenders.append((prob.n, prob.k, "not applicable inside table"))
            continue
        min_gap = min(min_gap, gap)
        if gap <= SEPARATION_FLOOR:
            offenders.append((prob.n, prob.k, gap))
    passed = not offenders and min_gap > SEPARATION_FLOOR
    details = f"min gap {min_gap:.6e}"
    if offenders:
        details = f"offenders: {offenders[:3]}"
    return CriterionResult(3, "modulus separation", passed, details)


def _verified_families() -> list[tuple[str, Solution, CharProblem]]:
    """The named solution constructions whose residuals must vanish."""
    sols: list[tuple[str, Solution, CharProblem]] = []
    for n in range(2, 11):
        for k in range(0, n + 1):
            sols.append(
                (f"identity({n},{k})", Identity(REAL_LINE), CharProblem(n, k))
            )
    for k in (1, 3, 5, 7):
        n = 2 * k
        sols.append(
            (
                f"translation({n},{k})",
                Translation(REAL_LINE, 0.5),
                CharProblem(n, k),
            )
        )
    sols.append(
        (
            "affine(3,1)",
            Affine(REAL_LINE, -1.0 - math.sqrt(2.0), 0.0),
            CharProblem(3, 1),
        )
    )
    sols.append(("affine(2,0)", Affine(REAL_LINE, -2.0, 5.0), CharProblem(2, 0)))
    sols.append(("affine(2,2)", Affine(REAL_LINE, -0.5, 0.0), CharProblem(2, 2)))
    prob41 = CharProblem(4, 1)
    slope41 = analyze_roots(prob41).real_root_in(0.0, 1.0)
    sols.append(
        ("three_piece(4,1)", ThreePiece(REAL_LINE, 0.0, 1.0, slope41), prob41)
    )
    # the analyzed root equals sqrt(2) - 1 to the last ulp; using it keeps
    # orbit and spectrum bit-consistent for the recurrence fits
    prob31 = CharProblem(3, 1)
    slope31 = analyze_roots(prob31).real_root_in(0.0, 1.0)
    sols.append(
        ("three_piece(3,1)", ThreePiece(REAL_LINE, 0.0, 1.0, slope31), prob31)
    )
    return sols


def criterion_4_family_verification() -> CriterionResult:
    """Every constructed family satisfies its equation to ``DEFAULT_TOL``."""
    cases = _verified_families()
    start = time.perf_counter()
    failures = []
    worst = 0.0
    for name, sol, prob in cases:
        report = verify_mean(sol, prob, samples=DEFAULT_SAMPLES, tol=DEFAULT_TOL)
        worst = max(worst, report.max_residual)
        if not report.passed or report.max_residual > DEFAULT_TOL:
            failures.append((name, report.max_residual))
    elapsed = time.perf_counter() - start
    passed = not failures and elapsed < FAMILY_TIME_BUDGET
    details = (
        f"{len(cases)} constructions, worst residual {worst:.3e}, {elapsed:.2f}s"
    )
    if failures:
        details = f"failures: {failures[:3]}"
    elif elapsed >= FAMILY_TIME_BUDGET:
        details = f"time budget exceeded: {elapsed:.2f}s >= {FAMILY_TIME_BUDGET}s"
    return CriterionResult(4, "family verification", passed, details)


def geometric_conjugate() -> tuple[Solution, Generator, CharProblem]:
    """F(x) = 2 * x^(-1/2) as a log-generator conjugate on [1, 4]."""
    domain = Interval(1.0, 4.0, True, True)
    gen = Generator("log", domain)
    inner = Affine(gen.image(), -0.5, math.log(2.0))
    return conjugate(gen, inner), gen, CharProblem(2, 2)


def power_conjugate() -> tuple[Solution, Generator, CharProblem]:
    """F(x) = (1.5 - sqrt(x)/2)^2 as a power-generator conjugate."""
    domain = Interval(0.0625, 4.0)
    gen = Generator("power", domain, p=2.0)
    inner = Affine(gen.image(), -0.5, 1.5)
    return conjugate(gen, inner), gen, CharProblem(2, 2)


def criterion_5_conjugates() -> CriterionResult:
    """Quasi-arithmetic conjugate solutions verify under their means."""
    failures = []
    for label, builder in (
        ("geometric", geometric_conjugate),
        ("power p=2", power_conjugate),
    ):
        sol, gen, prob = builder()
        report = verify_general(
            sol, gen, prob, samples=DEFAULT_SAMPLES, tol=DEFAULT_TOL
        )
        if not report.passed or report.max_residual > DEFAULT_TOL:
            failures.append((label, report.max_residual))
    passed = not failures
    details = "geometric and power conjugates pass at 1e-9"
    if failures:
        details = f"failures: {failures}"
    return CriterionResult(5, "quasi-arithmetic conjugates", passed, details)


def _reciprocal_involution() -> Solution:
    """f(x) = 1/x on (0, +inf), assembled around the fixed point 1."""
    return build_involution(
        Interval(0.0, math.inf), 1.0, f0=lambda x: 1.0 / x, f0_inverse=lambda y: 1.0 / y
    )


def criterion_6_involution() -> CriterionResult:
    """Reciprocal involution: self-inverse and the even-iterate equation."""
    sol = _reciprocal_involution()
    xs = np.linspace(0.01, 10.0, 1001)
    round_trip = sol._eval_array(sol._eval_array(xs))
    err_inv = float(np.max(np.abs(round_trip - xs) / (1.0 + np.abs(xs))))

    # (f^2 + f^4 + f^6)/3 = x  (even iterate count m=2, n=3 blocks, p=1)
    f2 = round_trip
    f4 = sol._eval_array(sol._eval_array(f2))
    f6 = sol._eval_array(sol._eval_array(f4))
    resid = np.max(np.abs((f2 + f4 + f6) / 3.0 - xs) / (1.0 + np.abs(xs)))
    passed = err_inv <= DEFAULT_TOL and resid <= DEFAULT_TOL
    details = f"f(f(x)) error {err_inv:.3e}, even-iterate residual {resid:.3e}"
    return CriterionResult(6, "involution", passed, details)


def _fit_cases() -> list[tuple[str, Solution, CharProblem, float]]:
    """(name, solution, problem, x0) with single-regime orbits."""
    cases: list[tuple[str, Solution, CharProblem, float]] = []
    for name, sol, prob in _verified_families():
        if isinstance(sol, ThreePiece):
            x0 = sol.a - 1.0  # stays in the lower affine regime
        elif isinstance(sol, Translation):
            x0 = 0.0
        else:
            x0 = 1.0 if isinstance(sol, Affine) else 3.0
        cases.append((name, sol, prob, x0))
    return cases


def criterion_7_recurrence() -> CriterionResult:
    """Closed-form fits reproduce anchors and predict to index 30."""
    failures = []
    cases = _fit_cases()
    for name, sol, prob, x0 in cases:
        orbit = iterate(sol, x0, 0, 30)
        spectrum = analyze_roots(prob)
        cf = fit_closed_form(orbit, spectrum, regime_of=sol)
        anchor_scale = 1.0 + max(
            abs(orbit.value(j)) for j in range(prob.n)
        )
        anchor_err = max(
            abs(predict(cf, j) - orbit.value(j)) for j in range(prob.n)
        )
        pred_err = prediction_error(cf, orbit, prob.n, 30)
        if anchor_err > ANCHOR_TOL * anchor_scale or pred_err > PREDICTION_TOL:
            failures.append((name, anchor_err, pred_err))
    passed = not failures
    details = f"{len(cases)} fits, anchors to 1e-10, predictions to 1e-6"
    if failures:
        details = f"failures: {failures[:3]}"
    return CriterionResult(7, "recurrence closed forms", passed, details)


def criterion_8_duality() -> CriterionResult:
    """Primal pass iff dual pass for every bijective verified family."""
    cases: list[tuple[str, Solution, Polynomial]] = []
    for name, sol, prob in _verified_families():
        cases.append((name, sol, build_char_poly(prob)))
    cases.append(
        ("involution f^2=id", _reciprocal_involution(), Polynomial((-1.0, 0.0, 1.0)))
    )
    failures = []
    for name, sol, coeffs in cases:
        report = verify_dual(sol, coeffs, samples=DEFAULT_SAMPLES, tol=DEFAULT_TOL)
        if not (report.passed and report.primal.passed and report.dual.passed):
            failures.append(
                (name, report.primal.max_residual, report.dual.max_residual)
            )
    passed = not failures
    details = f"{len(cases)} bijections, primal <=> dual"
    if failures:
        details = f"failures: {failures[:3]}"
    return CriterionResult(8, "duality", passed, details)


def criterion_9_antimonotone() -> CriterionResult:
    """Orbit differences of decreasing solutions alternate consistently."""
    cases: list[tuple[str, Solution, float]] = [
        ("affine(3,1)", Affine(REAL_LINE, -1.0 - math.sqrt(2.0), 0.0), 0.3),
        ("affine(2,0)", Affine(REAL_LINE, -2.0, 5.0), 1.0),
        ("affine(2,2)", Affine(REAL_LINE, -0.5, 0.0), 1.0),
        ("involution", _reciprocal_involution(), 2.0),
    ]
    failures = []
    for name, sol, x0 in cases:
        orbit = iterate(sol, x0, 0, 30)
        if orbit.escaped or not antimonotone_signs_constant(orbit):
            failures.append(name)
    passed = not failures
    details = f"{len(cases)} decreasing solutions, 30 steps each"
    if failures:
        details = f"failures: {failures}"
    return CriterionResult(9, "anti-monotone orbits", passed, details)


def criterion_10_negative_control() -> CriterionResult:
    """Both-even refusal, and a wrong slope must fail loudly."""
    enumeration = enumerate_families(CharProblem(4, 2), REAL_LINE)
    refused = enumeration.is_open_problem

    prob = CharProblem(4, 1)
    slope = analyze_roots(prob).real_root_in(0.0, 1.0)
    wrong = ThreePiece(REAL_LINE, 0.0, 1.0, slope + 1e-3)
    report = verify_mean(wrong, prob, samples=DEFAULT_SAMPLES, tol=DEFAULT_TOL)
    loud = (not report.passed) and report.max_residual > 1e-5

    passed = refused and loud
    details = (
        f"open-problem refusal: {refused}, wrong-slope residual "
        f"{report.max_residual:.3e} > 1e-5: {loud}"
    )
    return CriterionResult(10, "negative controls", passed, details)


CRITERIA: tuple[tuple[int, str, Callable[[], CriterionResult]], ...] = (
    (1, "root-case table", criterion_1_root_table),
    (2, "complex modulus bound", criterion_2_complex_bound),
    (3, "modulus separation", criterion_3_modulus_separation),
    (4, "family verification", criterion_4_family_verification),
    (5, "quasi-arithmetic conjugates", criterion_5_conjugates),
    (6, "involution", criterion_6_involution),
    (7, "recurrence closed forms", criterion_7_recurrence),
    (8, "duality", criterion_8_duality),
    (9, "anti-monotone orbits", criterion_9_antimonotone),
    (10, "negative controls", criterion_10_negative_control),
)


def run_all(verbose: bool = False) -> list[CriterionResult]:
    """Execute the full battery."""
    results = []
    for number, name, fn in CRITERIA:
        try:
            result = fn()
        except ItereqError as exc:
            result = CriterionResult(number, name, False, f"raised: {exc}")
        results.append(result)
        if verbose:
            status = "PASS" if result.passed else "FAIL"
            print(f"[{status}] criterion {result.number}: {result.name} -- {result.details}")
    return results
