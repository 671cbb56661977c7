"""Acceptance battery: exhaustive desk-scale checks of every claim.

Each criterion function returns ``(passed, details)``.  ``CRITERIA`` is
the one place that numbers and names them; ``run_all`` executes the
battery, builds a :class:`CriterionResult` for each entry and prints one
pass/fail line per criterion.  The pytest acceptance module drives the
same functions, so the CLI ``selftest`` subcommand and the test suite
agree by construction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

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
    conjugate,
    enumerate_families,
)
from .intervals import REAL_LINE, Interval
from .means import Generator
from .poly import Polynomial
from .recurrence import PREDICTION_TOL, fit_closed_form, predict_range, prediction_error
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


def criterion_1_root_table() -> tuple[bool, str]:
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
    details = f"{count} cases, 0 mismatches, {elapsed:.2f}s"
    if mismatches:
        details = f"{len(mismatches)} mismatches: {mismatches[:3]}"
    elif elapsed >= ROOT_TABLE_TIME_BUDGET:
        details = f"time budget exceeded: {elapsed:.2f}s >= {ROOT_TABLE_TIME_BUDGET}s"
    return not mismatches and elapsed < ROOT_TABLE_TIME_BUDGET, details


def criterion_2_complex_bound() -> tuple[bool, str]:
    """All complex roots stay inside modulus 2n+1, with margin."""
    violations = []
    min_margin = math.inf
    for prob in _table_range():
        report = analyze_roots(prob)
        if not report.bound_2n1_ok:
            violations.append((prob.n, prob.k, report.max_modulus))
        min_margin = min(min_margin, report.bound_margin)
    details = f"0 violations, min margin {min_margin:.6f}"
    if violations:
        details = f"violations: {violations[:3]}"
    return not violations and min_margin > 0.0, details


def criterion_3_modulus_separation() -> tuple[bool, str]:
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
    details = f"min gap {min_gap:.6e}"
    if offenders:
        details = f"offenders: {offenders[:3]}"
    return not offenders and min_gap > SEPARATION_FLOOR, details


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


def criterion_4_family_verification() -> tuple[bool, str]:
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
    details = (
        f"{len(cases)} constructions, worst residual {worst:.3e}, {elapsed:.2f}s"
    )
    if failures:
        details = f"failures: {failures[:3]}"
    elif elapsed >= FAMILY_TIME_BUDGET:
        details = f"time budget exceeded: {elapsed:.2f}s >= {FAMILY_TIME_BUDGET}s"
    return not failures and elapsed < FAMILY_TIME_BUDGET, details


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


def criterion_5_conjugates() -> tuple[bool, str]:
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
    details = "geometric and power conjugates pass at 1e-9"
    if failures:
        details = f"failures: {failures}"
    return not failures, details


def _reciprocal() -> Solution:
    """f(x) = 1/x on (0, +inf): the log conjugate of x -> -x."""
    return conjugate(Generator("log", Interval(0.0, math.inf)), Affine(REAL_LINE, -1.0, 0.0))


def criterion_6_involution() -> tuple[bool, str]:
    """The involution 1/x solves no (n, k): its iterates alternate between
    id and f, so the mean is ``(a id + b f)/(n+1)`` and ``f^k`` equals it
    only where ``f(x) = x``."""
    sol = _reciprocal()
    cases = [CharProblem(n, k) for n in range(2, 16) for k in range(0, n + 1)]
    passed, escaped = [], 0
    least = math.inf
    for prob in cases:
        report = verify_mean(sol, prob, DEFAULT_SAMPLES, DEFAULT_TOL)
        least = min(least, report.max_residual)
        escaped += report.points_escaped
        if report.passed:
            passed.append((prob.n, prob.k))
    details = (
        f"1/x fails all {len(cases)} (n, k) with n <= 15, "
        f"least residual {least:.3e}, {escaped} escaped"
    )
    if passed:
        details = f"1/x passes {passed[:3]}"
    return not passed and escaped == 0, details


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


def criterion_7_recurrence() -> tuple[bool, str]:
    """Closed-form fits reproduce anchors and predict to index 30."""
    failures = []
    cases = _fit_cases()
    for name, sol, prob, x0 in cases:
        orbit = iterate(sol, x0, 0, 30)
        spectrum = analyze_roots(prob)
        cf = fit_closed_form(orbit, spectrum, regime_of=sol)
        anchors = orbit.forward_values()[: prob.n]
        anchor_scale = 1.0 + float(abs(anchors).max())
        anchor_err = float(abs(predict_range(cf, 0, prob.n - 1) - anchors).max())
        pred_err = prediction_error(cf, orbit, prob.n, 30)
        if anchor_err > ANCHOR_TOL * anchor_scale or pred_err > PREDICTION_TOL:
            failures.append((name, anchor_err, pred_err))
    details = f"{len(cases)} fits, anchors to 1e-10, predictions to 1e-6"
    if failures:
        details = f"failures: {failures[:3]}"
    return not failures, details


def criterion_8_duality() -> tuple[bool, str]:
    """Primal pass iff dual pass for every bijective verified family."""
    cases: list[tuple[str, Solution, Polynomial]] = []
    for name, sol, prob in _verified_families():
        cases.append((name, sol, build_char_poly(prob)))
    cases.append(
        ("involution f^2=id", _reciprocal(), Polynomial((-1.0, 0.0, 1.0)))
    )
    failures = []
    for name, sol, coeffs in cases:
        report = verify_dual(sol, coeffs, samples=DEFAULT_SAMPLES, tol=DEFAULT_TOL)
        if not (report.passed and report.primal.passed and report.dual.passed):
            failures.append(
                (name, report.primal.max_residual, report.dual.max_residual)
            )
    details = f"{len(cases)} bijections, primal <=> dual"
    if failures:
        details = f"failures: {failures[:3]}"
    return not failures, details


def criterion_9_antimonotone() -> tuple[bool, str]:
    """Orbit differences of decreasing solutions alternate consistently."""
    cases: list[tuple[str, Solution, float]] = [
        ("affine(3,1)", Affine(REAL_LINE, -1.0 - math.sqrt(2.0), 0.0), 0.3),
        ("affine(2,0)", Affine(REAL_LINE, -2.0, 5.0), 1.0),
        ("affine(2,2)", Affine(REAL_LINE, -0.5, 0.0), 1.0),
        ("involution", _reciprocal(), 2.0),
    ]
    failures = []
    for name, sol, x0 in cases:
        orbit = iterate(sol, x0, 0, 30)
        if orbit.escaped or not antimonotone_signs_constant(orbit):
            failures.append(name)
    details = f"{len(cases)} decreasing solutions, 30 steps each"
    if failures:
        details = f"failures: {failures}"
    return not failures, details


def criterion_10_negative_control() -> tuple[bool, str]:
    """Both-even refusal, and a wrong slope must fail loudly."""
    enumeration = enumerate_families(CharProblem(4, 2), REAL_LINE)
    refused = enumeration.is_open_problem

    prob = CharProblem(4, 1)
    slope = analyze_roots(prob).real_root_in(0.0, 1.0)
    wrong = ThreePiece(REAL_LINE, 0.0, 1.0, slope + 1e-3)
    report = verify_mean(wrong, prob, samples=DEFAULT_SAMPLES, tol=DEFAULT_TOL)
    loud = (not report.passed) and report.max_residual > 1e-5

    details = (
        f"open-problem refusal: {refused}, wrong-slope residual "
        f"{report.max_residual:.3e} > 1e-5: {loud}"
    )
    return refused and loud, details


CRITERIA: tuple[tuple[int, str, Callable[[], tuple[bool, str]]], ...] = (
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


def run_all() -> list[CriterionResult]:
    """Execute the full battery, printing one line per criterion."""
    results = []
    for number, name, fn in CRITERIA:
        try:
            passed, details = fn()
        except ItereqError as exc:
            passed, details = False, f"raised: {exc}"
        results.append(CriterionResult(number, name, passed, details))
        status = "PASS" if passed else "FAIL"
        print(f"[{status}] criterion {number}: {name} -- {details}")
    return results
