"""Characteristic polynomials of the iterate-mean equation and their roots.

For integers ``n >= 2`` and ``0 <= k <= n`` the equation
``f^k(x) = (f^0(x) + ... + f^n(x)) / (n + 1)`` has characteristic equation

    (n+1) r^k = sum_{i=0}^{n} r^i

The parities of ``k`` and ``n`` and the ordering of ``n`` against ``2k``
determine a complete table of real-root locations (labels C1..C10 for
``0 < k < n``, plus K0 and KN for the boundary cases).  ``analyze_roots``
computes the whole spectrum in one solve and finds every predicted real
root in its bracket there.  Its report reads the modulus bound
``|z| < 2n+1`` and the real/non-real modulus separation off those roots.

The memos of the package, all sized from ``_REPORT_CACHE_SIZE`` (256)
and none keeping a failure: ``analyze_roots`` and ``build_char_poly``
keep one report and one polynomial per ``CharProblem``,
``families.enumerate_families`` one enumeration per problem and
``recurrence._anchor_system`` one anchor system per spectrum, 256 each,
and ``recurrence._cached_basis`` one closed-form basis per spectrum and
index range, 512.  A ``RootReport`` keeps its own hash once taken.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure, DomainError, NonConvergence, RootMismatch
from .intervals import json_float
from .poly import ComplexRoot, Polynomial, certified_roots

# ``perfbench/tracer.py`` wraps these four names, ``_kernels.bisect_loop``,
# ``_kernels.dk_sweeps`` and ``_kernels.horner``, which name kernels the
# package no longer has; nothing calls them.  They go, with their
# per-layer metrics, in the benchmark change of ROADMAP item 1.
all_roots = bisect_root = newton_polish = deflate = None

# Half-width of the window around each real root estimate on which the
# deflated polynomial must change sign.
_SIGN_WINDOW = 1e-10
# Fixed-point steps per slot before Newton, and the Newton step cap and
# relative stopping size of ``_lifted_estimates``.
_FIXED_POINT_STEPS = 3
_NEWTON_MAX_STEPS = 40
_NEWTON_STEP_TOL = 1e-14
# Entries kept by each per-problem or per-spectrum memo: 256 holds the
# whole paper table (133 problems for 2 <= n <= 15) and caps memory when a
# longer table streams through.
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
    """Fully resolved spectrum of one characteristic polynomial.

    It holds only the problem and the roots; the modulus bound and the
    separation gap are read off those roots on every access.  Its hash,
    that of the tuple of its fields as the dataclass would give it, is
    computed on first use and kept: the memos keyed on a report
    (``recurrence._anchor_system``) then hash it in constant time.
    """

    problem: CharProblem
    real_roots: tuple[RealRootRecord, ...]
    complex_roots: tuple[ComplexRoot, ...]

    def __hash__(self) -> int:
        kept = self.__dict__
        h = kept.get("_hash")
        if h is None:
            h = kept["_hash"] = hash((self.problem, self.real_roots, self.complex_roots))
        return h

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

    @property
    def bound_2n1_ok(self) -> bool:
        """Every root has modulus below ``2n+1``."""
        return self.max_modulus < 2.0 * self.problem.n + 1.0

    @property
    def modulus_separation_min_gap(self) -> float | None:
        """Least ``| |z| - |r| |`` over non-real z and real r; None when k
        and n are both even (no claim), inf without a non-real root."""
        if self.problem.both_even:
            return None
        mods = [z.modulus for z in self.complex_roots if z.im != 0.0]
        if not mods:
            return math.inf
        reals = [abs(r.value) for r in self.real_roots]
        return float(np.abs(np.subtract.outer(mods, reals)).min())

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
                "not_applicable" if gap is None else json_float(gap)
            ),
        }


@functools.lru_cache(maxsize=_REPORT_CACHE_SIZE)
def build_char_poly(prob: CharProblem) -> Polynomial:
    """Characteristic polynomial ``(n+1) r^k - sum_{i=0}^{n} r^i``.

    Its coefficients are integers: -1 everywhere but ``n`` at ``r^k``.
    The leading coefficient is -1 for ``k < n`` and ``n`` for ``k = n``.
    One shared polynomial is kept per (n, k), as ``analyze_roots`` keeps
    its report; ``Polynomial`` is frozen and its array read-only.
    """
    n, k = prob.n, prob.k
    coeffs = [-1.0] * (n + 1)
    coeffs[k] += n + 1
    return Polynomial(tuple(coeffs))


def _one(mult: int = 1) -> ExpectedRoot:
    return ExpectedRoot((1.0, 1.0), mult)


# Case label of 0 < k < n, keyed on (k % 2, n % 2, sign(n - 2k)).
_CASE_LABELS = {
    (1, 0, 0): "C1", (1, 0, -1): "C2", (1, 0, 1): "C3",
    (1, 1, -1): "C4", (1, 1, 1): "C5",
    (0, 1, -1): "C6", (0, 1, 1): "C7",
    (0, 0, 0): "C8", (0, 0, -1): "C9", (0, 0, 1): "C10",
}


def classify(prob: CharProblem) -> CaseAnalysis:
    """Assign the parity case label and its expected real-root brackets.

    For ``0 < k < n``, after the root 1, three facts give the layout: the
    positive root other than 1 lies in ``(0, 1)`` when ``n > 2k`` and in
    ``(1, 2n+1)`` when ``n < 2k`` (for ``n = 2k`` there is none, and 1 is
    double); a root in ``(-1, 0)`` exists exactly when k is even; a root in
    ``(-(2n+1), -1)`` exists exactly when ``n - k`` is even.  The label is
    keyed on the parities of k and n and the sign of ``n - 2k``.
    """
    n, k = prob.n, prob.k
    big = 2.0 * n + 1.0

    if k < n:
        r_min = ((k + 1) / (n - k + 1)) ** (1.0 / (n - k))
        r_max = -r_min if (n - k) % 2 == 0 else None
    else:
        r_min = None
        r_max = None

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

    side = (n > 2 * k) - (n < 2 * k)
    expected = [_one(2 if side == 0 else 1)]
    if side:
        expected.append(ExpectedRoot((0.0, 1.0) if side > 0 else (1.0, big), 1))
    if k % 2 == 0:
        expected.append(neg_small)
    if (n - k) % 2 == 0:
        expected.append(neg_big)
    label = _CASE_LABELS[k % 2, n % 2, side]
    return CaseAnalysis(label, r_min, r_max, tuple(expected))


def _divide_out_one(p: Polynomial, times: int) -> Polynomial:
    """``p / (r - 1)^times`` in integer arithmetic: each division takes the
    suffix sums ``q_j = sum_{i>j} p_i`` and needs the remainder ``p(1)`` to be 0."""
    cs = [int(c) for c in p.coeffs]
    for _ in range(times):
        if sum(cs) != 0:
            raise RootMismatch(f"1 is not a root of {p}: integer remainder {sum(cs)}")
        cs = list(itertools.accumulate(reversed(cs[1:])))[::-1]
    return Polynomial(tuple(cs))


def _quotient_sign(prob: CharProblem, mult: int, x: float) -> int:
    """Exact sign at the float ``x`` of ``q = p / (r - 1)^mult``, where
    ``p = build_char_poly(prob)`` and 1 is a root of ``p`` of multiplicity
    ``mult``.

    For every ``0 <= k <= n``, ``(r - 1) p(r) = (n+1)(r^{k+1} - r^k) -
    r^{n+1} + 1``, which is ``(r - 1)^{mult+1} q(r)``.  With ``x = a / 2^s``
    that form times ``2^{s(n+1)}`` is an integer, taken with ``**`` and
    shifts, and the sign of ``(a - 2^s)^{mult+1}`` is divided out of its
    sign.  At ``x = 1`` the sign is that of ``q(1)``: ``p'(1) = (n+1)(2k -
    n)/2`` when ``mult = 1``, and ``p''(1)/2 = -(n+1)k(k+1)/6`` when
    ``mult = 2`` (``n = 2k``).
    """
    n, k = prob.n, prob.k
    a, d = x.as_integer_ratio()  # d = 2^s
    if a == d:
        return (2 * k > n) - (2 * k < n) if mult == 1 else -1
    s = d.bit_length() - 1
    ak = a**k
    lifted = (
        ((n + 1) * ak * (a - d) << s * (n - k))
        - ak * a ** (n + 1 - k)
        + (1 << s * (n + 1))
    )
    sign = (lifted > 0) - (lifted < 0)
    return -sign if mult % 2 == 0 and a < d else sign


def _lifted_estimates(prob: CharProblem) -> np.ndarray:
    """One estimate per real root and per conjugate pair of ``p / (r -
    1)^m`` from the lifted form, as ``certified_roots`` takes them.

    The Newton polygon of ``L(r) = (r - 1) p(r) = (n+1)(r^{k+1} - r^k) -
    r^{n+1} + 1`` (Bini, 1996) puts k roots near the inner circle ``|r| =
    (n+1)^{-1/k}``, one at 1, and n - k near the outer circle ``|r| =
    (n+1)^{1/(n-k)}``.  Slot j of a circle with c slots is labelled by
    ``w_j = e^{2 pi i j / c}``.  Each circle is taken in a variable of
    modulus below 1, ``x = r`` inside and ``x = 1/r`` outside, where ``L``
    is, up to sign and a power of x, ``G(x) = (n+1) x^c (1 - x) - 1 +
    x^{n+1}``.  Every slot is iterated in one complex array of ``y = log
    x``: from ``x = w_j (n+1)^{-1/c}``, a few fixed-point steps ``x <- w_j
    ((1 - x^{n+1}) / ((n+1)(1 - x)))^{1/c}``, then Newton on G until every
    step is below ``_NEWTON_STEP_TOL``.  Powers are ``exp``, and ``x - 1``
    and ``x^{n+1} - 1`` are ``expm1``: nothing overflows at any n, and G
    keeps its digits where its terms cancel.

    The j = 0 slot of the outer circle is the root 1 when ``n >= 2k``, and
    that of the inner circle when ``n <= 2k`` (``classify``); both are
    dropped.  The other ``w = 1`` slot and the ``w = -1`` slots (c even)
    are the real roots: they come first, and are taken real at the end.
    The slots above the real axis follow, one per conjugate pair.
    Every slot starts by the one rule (near ``n = 2k`` Newton takes more
    steps on the ``w = 1`` slot).  ``certified_roots`` checks the estimates.
    """
    n, k, n1 = prob.n, prob.k, prob.n + 1.0
    real, upper = [], []  # slots (c, arg w_j, inner)
    for count, inside, keep_one in ((k, True, n > 2 * k), (n - k, False, n < 2 * k)):
        if count:
            if keep_one:
                real.append((count, 0.0, inside))  # the positive root other than 1
            if count % 2 == 0:
                real.append((count, math.pi, inside))
            # the outer circle's x = 1/r: the slots below the axis in x lie above it in r
            turn = (2 if inside else -2) * math.pi / count
            upper += [(count, turn * j, inside) for j in range(1, (count + 1) // 2)]
    c, arg, inner = (np.array(s) for s in zip(*real, *upper))
    c, arg = c.astype(np.complex128), 1j * arg
    with np.errstate(all="ignore"):
        y = arg - math.log(n1) / c
        for _ in range(_FIXED_POINT_STEPS):
            y = arg + np.log(np.expm1(n1 * y) / (n1 * np.expm1(y))) / c
        for _ in range(_NEWTON_MAX_STEPS):  # y -= G / (dG/dy)
            x_1, xn1_1, xc = np.expm1(y), np.expm1(n1 * y), np.exp(c * y)
            step = (xn1_1 - n1 * xc * x_1) / (n1 * (xn1_1 + 1 - xc * (1 + (c + 1) * x_1)))
            y -= step
            if np.abs(step).max() <= _NEWTON_STEP_TOL:
                break
        r = np.exp(np.where(inner, y, -y))
    return np.concatenate([r[: len(real)].real, r[len(real) :]])


@functools.lru_cache(maxsize=_REPORT_CACHE_SIZE)
def analyze_roots(prob: CharProblem) -> RootReport:
    """Resolve the full spectrum and place every predicted real root.

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
    integer coefficients.  Every sign of it the analysis takes is exact,
    from ``_quotient_sign``.  Its signs at the ends of every predicted
    real-root bracket (0, +-1, +-(2n+1)) must differ.  One certified
    solve (``_spectrum``) then gives every other root: estimates from the
    lifted form (``_lifted_estimates``), then ``poly.certified_roots``'s
    count and finiteness checks, disjoint Newton disks, the residual
    test, and one Newton step.  Each predicted real root is the unique real
    estimate strictly inside its bracket, and the deflated polynomial must
    change sign within ``_SIGN_WINDOW`` of it.  A bracket holding no real
    estimate, or more than one, raises :class:`BracketFailure`; a window
    without a sign change raises :class:`NonConvergence` naming both of
    its ends and their signs.  Real estimates in no bracket stay among
    the complex roots, where ``report_matches_expectation`` flags them.
    It returns once the roots are placed; the report reads its claims off them.
    """
    analysis = classify(prob)
    mult_one = analysis.expected_real_roots[0].multiplicity

    work = _divide_out_one(build_char_poly(prob), mult_one)
    sign = functools.partial(_quotient_sign, prob, mult_one)

    brackets = [e for e in analysis.expected_real_roots if not e.is_one]
    for exp in brackets:
        lo, hi = exp.bracket
        slo, shi = sign(lo), sign(hi)
        if slo * shi >= 0:
            raise BracketFailure(
                f"(n={prob.n}, k={prob.k}): no sign change on bracket "
                f"({lo}, {hi}); exact signs {slo:+d}, {shi:+d}"
            )

    estimates = _spectrum(prob, work) if work.degree > 0 else []
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
        a, b = max(lo, z.re - _SIGN_WINDOW), min(hi, z.re + _SIGN_WINDOW)
        sa, sb = sign(a), sign(b)
        if sa * sb > 0:
            raise NonConvergence(
                f"(n={prob.n}, k={prob.k}): sign change not confirmed within "
                f"{_SIGN_WINDOW:.1e} of {z.re!r}; exact signs {sa:+d} at {a!r} "
                f"and {sb:+d} at {b!r}"
            )
        taken.add(hits[0])
        real_records.append(RealRootRecord(z.re, z.multiplicity, (lo, hi)))
    complex_roots = tuple(z for i, z in enumerate(estimates) if i not in taken)
    return RootReport(prob, tuple(real_records), complex_roots)


def _spectrum(prob: CharProblem, work: Polynomial) -> list[ComplexRoot]:
    """Every root of ``work``, certified by ``certified_roots`` from the
    lifted form's estimates.  A start that misses a check raises
    :class:`NonConvergence` naming the problem, the start and the check."""
    try:
        return certified_roots(work, _lifted_estimates(prob))
    except NonConvergence as exc:
        raise NonConvergence(
            f"(n={prob.n}, k={prob.k}), lifted-form estimates: {exc}",
            best_residual=exc.best_residual,
        ) from exc


def report_matches_expectation(report: RootReport) -> tuple[bool, list[str]]:
    """Compare a root report against the case table of its own problem.

    Checks the real-root count, bracket membership (strict interior, or
    exactly 1), multiplicities, that every residual root is genuinely
    non-real, the total multiplicity, the modulus bound and a positive
    separation gap, each read off the report's roots.  Returns
    ``(ok, mismatches)``.
    """
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
