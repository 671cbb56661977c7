"""Characteristic polynomials of the iterate-mean equation and their roots.

For integers ``n >= 2`` and ``0 <= k <= n`` the equation
``f^k(x) = (f^0(x) + ... + f^n(x)) / (n + 1)`` has characteristic equation

    (n+1) r^k = sum_{i=0}^{n} r^i          (0 <= k < n)
    n r^n     = sum_{i=0}^{n-1} r^i        (k = n)

The parities of ``k`` and ``n`` and the ordering of ``n`` against ``2k``
determine a complete table of real-root locations (labels C1..C10 for
``0 < k < n``, plus K0 and KN for the boundary cases).  ``analyze_roots``
computes the whole spectrum in one solve, finds every predicted real root
in its bracket there, and checks the modulus bound ``|z| < 2n+1`` plus the
real/non-real modulus separation.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from . import _kernels
from .errors import BracketFailure, DomainError, NonConvergence, RootMismatch
from .poly import ComplexRoot, Polynomial, all_roots, evaluate

# ``perfbench/tracer.py`` wraps these three names and ``_kernels.bisect_loop``,
# which name root finders the package no longer has; nothing calls them.  They
# go, with their per-layer metrics, in the benchmark change of ROADMAP item 1.
bisect_root = newton_polish = deflate = None

# Half-width of the interval around each real root on which the deflated
# polynomial must change sign.
_BISECT_WIDTH = 1e-10
# Root reports kept by ``analyze_roots``: 256 holds the whole paper table
# (133 problems for 2 <= n <= 15) and caps memory when a longer table
# streams through.
_REPORT_CACHE_SIZE = 256


@dataclass(frozen=True)
class CharProblem:
    """The pair (n, k) selecting one iterate-mean equation."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise DomainError(f"n must be >= 2, got {self.n}")
        if not 0 <= self.k <= self.n:
            raise DomainError(f"k must lie in [0, {self.n}], got {self.k}")

    @property
    def degree(self) -> int:
        return self.n

    @property
    def both_even(self) -> bool:
        return self.k % 2 == 0 and self.n % 2 == 0


@dataclass(frozen=True)
class ExpectedRoot:
    """A bracket known to contain exactly one real root.

    The bracket is degenerate, ``(1.0, 1.0)``, for the exact root 1.
    """

    bracket: tuple[float, float]
    multiplicity: int

    @property
    def is_one(self) -> bool:
        return self.bracket == (1.0, 1.0)


@dataclass(frozen=True)
class CaseAnalysis:
    """Parity case label plus the expected real-root layout."""

    case_label: str
    r_min: float | None
    r_max: float | None
    expected_real_roots: tuple[ExpectedRoot, ...]


@dataclass(frozen=True)
class RealRootRecord:
    value: float
    multiplicity: int
    bracket: tuple[float, float]


@dataclass(frozen=True)
class RootReport:
    """Fully resolved spectrum of one characteristic polynomial."""

    problem: CharProblem
    real_roots: tuple[RealRootRecord, ...]
    complex_roots: tuple[ComplexRoot, ...]
    bound_2n1_ok: bool
    modulus_separation_min_gap: float | None

    @property
    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.real_roots) + sum(
            r.multiplicity for r in self.complex_roots
        )

    @property
    def max_modulus(self) -> float:
        mods = [abs(r.value) for r in self.real_roots]
        mods += [r.modulus for r in self.complex_roots]
        return max(mods)

    @property
    def bound_margin(self) -> float:
        return (2 * self.problem.n + 1) - self.max_modulus

    def real_root_in(self, lo: float, hi: float) -> float:
        """The (unique) real root with value strictly inside (lo, hi)."""
        hits = [r.value for r in self.real_roots if lo < r.value < hi]
        if len(hits) != 1:
            raise DomainError(
                f"expected one real root in ({lo}, {hi}), found {hits}"
            )
        return hits[0]

    def to_json(self) -> dict:
        gap = self.modulus_separation_min_gap
        return {
            "problem": {"n": self.problem.n, "k": self.problem.k},
            "real_roots": [
                {
                    "value": r.value,
                    "multiplicity": r.multiplicity,
                    "bracket": [r.bracket[0], r.bracket[1]],
                }
                for r in self.real_roots
            ],
            "complex_roots": [
                {
                    "re": r.re,
                    "im": r.im,
                    "multiplicity": r.multiplicity,
                    "modulus": r.modulus,
                }
                for r in self.complex_roots
            ],
            "bound_2n1_ok": self.bound_2n1_ok,
            "modulus_separation_min_gap": (
                "not_applicable" if gap is None else gap
            ),
        }


def build_char_poly(prob: CharProblem) -> Polynomial:
    """Characteristic polynomial with integer coefficients.

    For ``0 <= k < n`` this is ``(n+1) r^k - sum_{i=0}^n r^i`` (leading
    coefficient -1); for ``k = n`` it is ``n r^n - sum_{i=0}^{n-1} r^i``
    (leading coefficient ``n``).
    """
    n, k = prob.n, prob.k
    coeffs = [-1.0] * (n + 1)
    if k == n:
        coeffs[n] = float(n)
    else:
        coeffs[k] += n + 1
    return Polynomial(tuple(coeffs))


def char_poly_lifted(prob: CharProblem) -> Polynomial:
    """The characteristic polynomial multiplied through by ``(r - 1)``.

    Explicitly ``r^{n+1} - (n+1) r^k (r - 1) - 1`` for ``0 < k < n``; the
    multiplicity of the root 1 here exceeds its multiplicity in the
    characteristic polynomial by one.
    """
    n, k = prob.n, prob.k
    if not 0 < k < n:
        raise DomainError(f"lifted form needs 0 < k < n, got k={k}, n={n}")
    coeffs = [0.0] * (n + 2)
    coeffs[0] = -1.0
    coeffs[k] += n + 1
    coeffs[k + 1] -= n + 1
    coeffs[n + 1] += 1.0
    return Polynomial(tuple(coeffs))


def derivative_factor(prob: CharProblem) -> Polynomial:
    """The factor ``r^{n-k+1} - (k+1) r + k``.

    Its sign controls the monotonicity of the lifted polynomial through
    the identity ``lifted'(r) = (n+1) r^{k-1} * factor(r)``.
    """
    n, k = prob.n, prob.k
    if not 0 < k < n:
        raise DomainError(f"derivative factor needs 0 < k < n, got k={k}, n={n}")
    coeffs = [0.0] * (n - k + 2)
    coeffs[0] = float(k)
    coeffs[1] -= k + 1
    coeffs[n - k + 1] += 1.0
    return Polynomial(tuple(coeffs))


def _one(mult: int = 1) -> ExpectedRoot:
    return ExpectedRoot((1.0, 1.0), mult)


def classify(prob: CharProblem) -> CaseAnalysis:
    """Assign the parity case label and its expected real-root brackets.

    The label depends only on the parities of ``k`` and ``n`` and the
    ordering of ``n`` against ``2k``.  The root 1 has multiplicity 2
    exactly when ``n = 2k``, and multiplicity 1 otherwise.
    """
    n, k = prob.n, prob.k
    big = 2.0 * n + 1.0

    if k < n:
        r_min = ((k + 1) / (n - k + 1)) ** (1.0 / (n - k))
        r_max = -r_min if (n - k) % 2 == 0 else None
    else:
        r_min = None
        r_max = None

    pos_small = ExpectedRoot((0.0, 1.0), 1)
    pos_big = ExpectedRoot((1.0, big), 1)
    neg_small = ExpectedRoot((-1.0, 0.0), 1)
    neg_big = ExpectedRoot((-big, -1.0), 1)

    if k == 0:
        expected = [_one()]
        if n % 2 == 0:
            expected.append(neg_big)
        return CaseAnalysis("K0", r_min, r_max, tuple(expected))
    if k == n:
        expected = [_one()]
        if n % 2 == 0:
            expected.append(neg_small)
        return CaseAnalysis("KN", None, None, tuple(expected))

    k_odd = k % 2 == 1
    n_odd = n % 2 == 1

    if k_odd and n == 2 * k:
        return CaseAnalysis("C1", r_min, r_max, (_one(2),))
    if k_odd and not n_odd and n < 2 * k:
        return CaseAnalysis("C2", r_min, r_max, (_one(), pos_big))
    if k_odd and not n_odd and n > 2 * k:
        return CaseAnalysis("C3", r_min, r_max, (_one(), pos_small))
    if k_odd and n_odd and n < 2 * k:
        return CaseAnalysis("C4", r_min, r_max, (_one(), pos_big, neg_big))
    if k_odd and n_odd and n > 2 * k:
        return CaseAnalysis("C5", r_min, r_max, (_one(), pos_small, neg_big))
    if not k_odd and n_odd and n < 2 * k:
        return CaseAnalysis("C6", r_min, r_max, (_one(), pos_big, neg_small))
    if not k_odd and n_odd and n > 2 * k:
        return CaseAnalysis("C7", r_min, r_max, (_one(), pos_small, neg_small))
    if not k_odd and n == 2 * k:
        return CaseAnalysis("C8", r_min, r_max, (_one(2), neg_small, neg_big))
    if not k_odd and not n_odd and n < 2 * k:
        return CaseAnalysis(
            "C9", r_min, r_max, (_one(), pos_big, neg_small, neg_big)
        )
    return CaseAnalysis(
        "C10", r_min, r_max, (_one(), pos_small, neg_small, neg_big)
    )


def _exact_sign(p: Polynomial, x: float) -> int:
    """Sign of ``p(x)`` in exact arithmetic, for integer coefficients and integer ``x``."""
    xi = int(x)
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * xi + int(c)
    return (acc > 0) - (acc < 0)


def _divide_out_one(p: Polynomial, times: int) -> Polynomial:
    """``p / (r - 1)^times`` in integer arithmetic: each division takes the
    suffix sums ``q_j = sum_{i>j} p_i`` and needs the remainder ``p(1)`` to be 0."""
    cs = [int(c) for c in p.coeffs]
    for _ in range(times):
        if sum(cs) != 0:
            raise RootMismatch(f"1 is not a root of {p}: integer remainder {sum(cs)}")
        cs = list(itertools.accumulate(reversed(cs[1:])))[::-1]
    return Polynomial(tuple(cs))


def _signed_value(p: Polynomial, x: float) -> float:
    """A float with the sign of ``p(x)``, which cannot overflow.

    Up to ``_kernels.direct_radius`` this is ``p(x)``, as in
    ``_kernels.horner_scaled_bound``; beyond it, ``p(x) / |x|^n``, taken as
    the reversed polynomial at ``1/x`` (whose descending coefficients are
    the ascending ones of ``p``).
    """
    n = p.degree
    if abs(x) <= _kernels.direct_radius(n):
        return evaluate(p, x)
    value = _kernels.horner(p.coeffs, 1.0 / x)
    return -value if x < 0.0 and n % 2 else value


def _confirm_sign_change(p: Polynomial, root: float, lo: float, hi: float) -> None:
    """Require a sign change of ``p`` within ``_BISECT_WIDTH`` of ``root``;
    a failure reports the finite ``|_signed_value(p, root)|``."""
    a = max(lo, root - _BISECT_WIDTH)
    b = min(hi, root + _BISECT_WIDTH)
    if _signed_value(p, a) * _signed_value(p, b) > 0.0:
        residual = abs(_signed_value(p, root))
        scaled = abs(root) > _kernels.direct_radius(p.degree)
        measured = f"scaled |p(x)|/|x|^{p.degree}" if scaled else "|p(x)|"
        raise NonConvergence(
            f"sign change not confirmed within {_BISECT_WIDTH:.1e} of "
            f"{root!r}; {measured} = {residual:.3e} there",
            best_residual=residual,
        )


@functools.lru_cache(maxsize=_REPORT_CACHE_SIZE)
def analyze_roots(prob: CharProblem) -> RootReport:
    """Resolve the full spectrum and check the root-location claims.

    There is one shared, read-only report per (n, k): results are kept in
    a bounded LRU cache keyed on the frozen ``CharProblem``, so equal
    problems get the identical ``RootReport``.  The report and its records
    are frozen and hold only tuples and numbers, and ``to_json`` builds
    fresh containers, so no caller can change what another one reads.
    Failures are not cached; a solver error raises on every call.  The
    gain goes to in-process pipelines that meet the same (n, k) again
    (``selftest``, the fit and verify pipelines, library loops); a single
    CLI call analyses one (n, k) and gains nothing.  The uncached analysis
    is ``analyze_roots.__wrapped__``.

    The exact root 1 is divided out to its known multiplicity before any
    numerics, in integer arithmetic, which leaves a polynomial with
    integer coefficients.  Its sign at each end of every predicted
    real-root bracket (all integers: 0, +-1, +-(2n+1)) is taken in exact
    integer arithmetic, and must change across the bracket.  One
    ``all_roots`` call then gives every other root: companion-matrix
    eigenvalues, each alone in its Weierstrass disk and polished, with
    the residual test of ``all_roots``.  Each predicted real root is the
    unique real estimate strictly inside its bracket, and the deflated
    polynomial must change sign within ``_BISECT_WIDTH`` of it.  A bracket holding no real
    estimate, or more than one, raises :class:`BracketFailure`; a missing
    sign change near a root raises :class:`NonConvergence`.  Real
    estimates in no bracket stay among the complex roots, where
    ``report_matches_expectation`` flags them.
    """
    analysis = classify(prob)
    mult_one = analysis.expected_real_roots[0].multiplicity

    work = _divide_out_one(build_char_poly(prob), mult_one)

    brackets = [e for e in analysis.expected_real_roots if not e.is_one]
    for exp in brackets:
        lo, hi = exp.bracket
        slo, shi = _exact_sign(work, lo), _exact_sign(work, hi)
        if slo * shi >= 0:
            raise BracketFailure(
                f"(n={prob.n}, k={prob.k}): no sign change on bracket "
                f"({lo}, {hi}); exact signs {slo:+d}, {shi:+d}"
            )

    estimates = all_roots(work) if work.degree > 0 else []
    real_records = [RealRootRecord(1.0, mult_one, (1.0, 1.0))]
    real_estimates = [(i, z.re) for i, z in enumerate(estimates) if z.im == 0.0]
    taken: set[int] = set()
    for exp in brackets:
        lo, hi = exp.bracket
        hits = [i for i, x in real_estimates if lo < x < hi]
        if len(hits) != 1:
            raise BracketFailure(
                f"(n={prob.n}, k={prob.k}): {len(hits)} real root estimates "
                f"in bracket ({lo}, {hi}), expected 1"
            )
        z = estimates[hits[0]]
        _confirm_sign_change(work, z.re, lo, hi)
        taken.add(hits[0])
        real_records.append(RealRootRecord(z.re, z.multiplicity, (lo, hi)))
    complex_roots = tuple(z for i, z in enumerate(estimates) if i not in taken)

    bound = 2.0 * prob.n + 1.0
    max_mod = max(
        [abs(r.value) for r in real_records]
        + [r.modulus for r in complex_roots]
    )
    bound_ok = max_mod < bound

    if prob.both_even:  # modulus separation is claimed only when k or n is odd
        gap = None
    else:
        gaps = [
            abs(z.modulus - abs(r.value))
            for z in complex_roots
            if z.im != 0.0
            for r in real_records
        ]
        gap = min(gaps) if gaps else math.inf

    return RootReport(
        problem=prob,
        real_roots=tuple(real_records),
        complex_roots=complex_roots,
        bound_2n1_ok=bound_ok,
        modulus_separation_min_gap=gap,
    )


def report_matches_expectation(
    report: RootReport, analysis: CaseAnalysis | None = None
) -> tuple[bool, list[str]]:
    """Compare a root report against the case table's predictions.

    Checks the real-root count, bracket membership (strict interior, or
    exactly 1), multiplicities, that every residual root is genuinely
    non-real, the total multiplicity, and the modulus bound.  Returns
    ``(ok, mismatches)``.
    """
    if analysis is None:
        analysis = classify(report.problem)
    problems: list[str] = []

    if len(report.real_roots) != len(analysis.expected_real_roots):
        problems.append(
            f"real root count {len(report.real_roots)} != "
            f"expected {len(analysis.expected_real_roots)}"
        )
    else:
        for rec, exp in zip(report.real_roots, analysis.expected_real_roots):
            if exp.is_one:
                if rec.value != 1.0:
                    problems.append(f"root 1 reported as {rec.value!r}")
            else:
                lo, hi = exp.bracket
                if not lo < rec.value < hi:
                    problems.append(
                        f"root {rec.value!r} not strictly inside ({lo}, {hi})"
                    )
            if rec.multiplicity != exp.multiplicity:
                problems.append(
                    f"root {rec.value!r} multiplicity {rec.multiplicity} != "
                    f"{exp.multiplicity}"
                )

    for z in report.complex_roots:
        if z.im == 0.0:
            problems.append(f"unexpected extra real root {z.re!r} in residual")

    if report.total_multiplicity != report.problem.degree:
        problems.append(
            f"total multiplicity {report.total_multiplicity} != degree "
            f"{report.problem.degree}"
        )
    if not report.bound_2n1_ok:
        problems.append(
            f"modulus bound violated: max modulus {report.max_modulus!r}"
        )
    gap = report.modulus_separation_min_gap
    if gap is not None and gap <= 0.0:
        problems.append(f"modulus separation gap {gap!r} not positive")

    return (not problems, problems)
