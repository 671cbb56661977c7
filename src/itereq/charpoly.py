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
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure, DomainError, NonConvergence, RootMismatch
from .intervals import json_float
from .poly import ComplexRoot, Polynomial, all_roots, certified_roots

# ``perfbench/tracer.py`` wraps these three names and ``_kernels.bisect_loop``,
# which name root finders the package no longer has; nothing calls them.  They
# go, with their per-layer metrics, in the benchmark change of ROADMAP item 1.
bisect_root = newton_polish = deflate = None

# Half-width of the window around each real root estimate on which the
# deflated polynomial must change sign.
_SIGN_WINDOW = 1e-10
# From this n on, ``analyze_roots`` starts from the lifted form's estimates
# (``_lifted_estimates``: 130-180 us for 10 <= n <= 100 on a 2-vCPU host)
# instead of the companion eigenvalues (19 us at n = 10, 95 us at n = 30,
# 480 us at n = 60): the measured crossover of the whole analysis.
_LIFTED_MIN_N = 30
# Fixed-point steps per slot before Newton, and the Newton step cap and
# relative stopping size of ``_lifted_estimates``.
_FIXED_POINT_STEPS = 3
_NEWTON_MAX_STEPS = 40
_NEWTON_STEP_TOL = 1e-14
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
    """Fully resolved spectrum of one characteristic polynomial.

    It holds only the problem and the roots; the modulus bound and the
    separation gap are read off those roots on every access.
    """

    problem: CharProblem
    real_roots: tuple[RealRootRecord, ...]
    complex_roots: tuple[ComplexRoot, ...]

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
        gaps = [
            abs(z.modulus - abs(r.value))
            for z in self.complex_roots
            if z.im != 0.0
            for r in self.real_roots
        ]
        return min(gaps) if gaps else math.inf

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


def build_char_poly(prob: CharProblem) -> Polynomial:
    """Characteristic polynomial ``(n+1) r^k - sum_{i=0}^{n} r^i``.

    Its coefficients are integers: -1 everywhere but ``n`` at ``r^k``.
    The leading coefficient is -1 for ``k < n`` and ``n`` for ``k = n``.
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
    """One estimate per root of ``p / (r - 1)^m`` from the lifted form, in
    the layout of ``certified_roots``.

    The Newton polygon of ``L(r) = (r - 1) p(r) = (n+1)(r^{k+1} - r^k) -
    r^{n+1} + 1`` (Bini, 1996) puts k roots near the inner circle ``|r| =
    (n+1)^{-1/k}``, one at 1, and n - k near the outer circle ``|r| =
    (n+1)^{1/(n-k)}``.  Slot j of a circle with c slots is labelled by
    ``w_j = e^{2 pi i j / c}``.  Each circle is taken in a variable of
    modulus below 1, ``x = r`` inside and ``x = 1/r`` outside, so that no
    power overflows at any n; there ``L`` is, up to sign and a power of
    x, ``G(x) = (n+1) x^c (1 - x) - 1 + x^{n+1}``.  From ``x = w_j
    (n+1)^{-1/c}``, a few fixed-point steps ``x <- w_j ((1 - x^{n+1}) /
    ((n+1)(1 - x)))^{1/c}`` lead each slot to its root, and Newton on
    ``G`` finishes it; every step is a few NumPy calls over all slots.

    The j = 0 slot of the outer circle is the root 1 when ``n >= 2k``, and
    that of the inner circle when ``n <= 2k`` (``classify``: the positive
    root other than 1 lies in (0, 1) when ``n > 2k``, above 1 when ``n <
    2k``); those are dropped.  The other ``w = 1`` slot and the ``w = -1``
    slots (c even) are the real roots; they iterate in real arithmetic,
    so they come out exactly real.  Only the slots above the real axis
    are iterated among the others, and their conjugates are appended.
    The estimates carry no guarantee: ``certified_roots`` checks them.
    """
    n, k = prob.n, prob.k
    real: list[tuple[int, float, bool]] = []  # (c, w_j, inner)
    upper: list[tuple[int, complex, bool]] = []
    for c, inner, keep_one in ((k, True, n > 2 * k), (n - k, False, n < 2 * k)):
        if c == 0:
            continue
        if keep_one:
            real.append((c, 1.0, inner))
        if c % 2 == 0:
            real.append((c, -1.0, inner))
        # the outer circle's x = 1/r: the slots below the axis in x lie above it in r
        turn = (2j if inner else -2j) * math.pi / c
        upper += [(c, cmath.exp(turn * j), inner) for j in range(1, (c + 1) // 2)]
    with np.errstate(all="ignore"):
        z_real = _lifted_slots(n, real, np.float64)
        z_upper = _lifted_slots(n, upper, np.complex128)
    return np.concatenate([z_real, z_upper, z_upper.conj()]).astype(np.complex128)


def _lifted_slots(n: int, slots: list, dtype) -> np.ndarray:
    """The root in ``r`` of each slot ``(c, w_j, inner)`` of ``_lifted_estimates``."""
    c = np.array([s[0] for s in slots], dtype=np.int64)
    omega = np.array([s[1] for s in slots], dtype=dtype)
    inner = np.array([s[2] for s in slots], dtype=bool)
    x = omega * (n + 1.0) ** (-1.0 / c)
    for _ in range(_FIXED_POINT_STEPS):
        x = omega * ((1 - x ** (n + 1)) / ((n + 1) * (1 - x))) ** (1.0 / c)
    for _ in range(_NEWTON_MAX_STEPS):
        xc1 = x ** (c - 1)
        xc = xc1 * x
        xn = x ** n
        g = (n + 1) * xc * (1 - x) - 1 + xn * x
        step = g / ((n + 1) * (c * xc1 - (c + 1) * xc + xn))
        x = x - step
        if np.all(np.abs(step) <= _NEWTON_STEP_TOL * np.abs(x)):
            break
    return np.where(inner, x, 1.0 / x)


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
    companion-matrix eigenvalues, or from the lifted form for ``n >=
    _LIFTED_MIN_N``, each alone in its Weierstrass disk and polished, with
    the residual test of ``poly.certified_roots``.  Each predicted real
    root is the unique real estimate strictly inside its bracket, and the
    deflated polynomial must change sign within ``_SIGN_WINDOW`` of it.  A bracket holding no real
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
    """Every root of ``work``, certified: from the lifted form's estimates
    for ``n >= _LIFTED_MIN_N``, falling back once to ``all_roots`` if they
    are not finite or fail the disks or the residual test; from
    ``all_roots`` below."""
    if prob.n >= _LIFTED_MIN_N:
        z = _lifted_estimates(prob)
        if np.all(np.isfinite(z)):
            try:
                return certified_roots(work, z)
            except NonConvergence:
                pass
    return all_roots(work)


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
