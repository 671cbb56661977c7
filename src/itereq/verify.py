"""Orbit iteration and residual verification of the iterate equations.

Verification is grid-based: solutions are iterated over a bounded sample
window inside their domain and the relevant residual is maximized over
the grid.  Points whose iterates leave the domain are skipped and
counted; a verdict needs at least 90% of the grid to survive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charpoly import CharProblem
from .errors import DomainError, NotSurjective
from .families import Solution
from .intervals import Interval
from .means import Generator, qa_mean_rows
from .poly import Polynomial

DEFAULT_SAMPLES = 1001
DEFAULT_TOL = 1e-9
_EVAL_QUOTA = 0.9
# Grid columns per verification block: (n+1) rows of 8192 doubles stay in
# cache while they are mapped, masked and reduced.  BLAS sums a column of
# the linear residual's ``tensordot`` in the order it would in one
# whole-grid array only at the same offset modulo its kernel width, hence a
# power of two, and only in an array more than a few columns wide, hence a
# last block that takes the remainder rather than leave a narrow one.
_BLOCK = 8192


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a grid verification run."""

    max_residual: float
    passed: bool
    points_evaluated: int
    points_escaped: int

    def to_json(self) -> dict:
        return {
            "max_residual": self.max_residual,
            "pass": self.passed,
            "points_evaluated": self.points_evaluated,
            "points_escaped": self.points_escaped,
        }


@dataclass(frozen=True)
class DualReport:
    """Primal residuals of f next to dual residuals of f^{-1}.

    ``passed`` states that the two verdicts agree (both pass or both
    fail), which is the checkable content of the duality claim.
    """

    primal: VerifyReport
    dual: VerifyReport
    passed: bool

    def to_json(self) -> dict:
        return {
            "primal": self.primal.to_json(),
            "dual": self.dual.to_json(),
            "pass": self.passed,
        }


@dataclass
class Orbit:
    """Iterate sequence ``x_m`` for m in [m_lo, m_hi] with x_0 = x0.

    Forward indices apply f, negative indices apply the inverse.  If an
    iterate leaves the domain the orbit is cut there: ``escaped`` is set,
    ``escape_index`` records the first bad index, and the remaining
    entries hold NaN.
    """

    x0: float
    m_lo: int
    m_hi: int
    points: np.ndarray
    escaped: bool = False
    escape_index: int | None = None

    def value(self, m: int) -> float:
        if not self.m_lo <= m <= self.m_hi:
            raise IndexError(f"index {m} outside [{self.m_lo}, {self.m_hi}]")
        return float(self.points[m - self.m_lo])

    def forward_values(self) -> np.ndarray:
        """Values for m = 0..m_hi, truncated before any escape."""
        vals = self.points[-self.m_lo:]
        good = ~np.isnan(vals)
        if np.all(good):
            return vals.copy()
        cut = int(np.argmin(good))
        return vals[:cut].copy()

    def all_values(self) -> np.ndarray:
        return self.points.copy()


def _contains_array(domain: Interval, vals: np.ndarray) -> np.ndarray:
    """Closure membership with a hair of relative slack (rounding guard).

    An infinite end bounds nothing a finite value can cross, so only the
    finite ends are tested.
    """
    ok = np.isfinite(vals)
    if math.isfinite(domain.lo) or math.isfinite(domain.hi):
        slack = 1e-12 * (1.0 + np.abs(vals))
        if math.isfinite(domain.lo):
            ok &= vals >= domain.lo - slack
        if math.isfinite(domain.hi):
            ok &= vals <= domain.hi + slack
    return ok


def _contains_point(domain: Interval, x: float) -> bool:
    """``_contains_array`` for one value, in Python floats: the same IEEE
    operations, without building an array per orbit point."""
    if not math.isfinite(x):
        return False
    slack = 1e-12 * (1.0 + abs(x))
    return domain.lo - slack <= x <= domain.hi + slack


def sample_grid(domain: Interval, samples: int, half_width: float = 10.0) -> np.ndarray:
    """Uniform grid over the domain clipped to ``[-half_width, half_width]``.

    Open endpoints are offset inward by 1e-6 of the window width.
    """
    if samples < 1:
        raise DomainError("need at least one sample")
    lo, hi = domain.window(half_width)
    width = hi - lo
    off = 1e-6 * width
    if not domain.lo_closed or domain.lo < lo:
        lo_s = lo + off
    else:
        lo_s = lo
    if not domain.hi_closed or domain.hi > hi:
        hi_s = hi - off
    else:
        hi_s = hi
    if samples == 1:
        return np.asarray([0.5 * (lo_s + hi_s)])
    return np.linspace(lo_s, hi_s, samples)


def iterate(s: Solution, x0: float, m_lo: int = 0, m_hi: int = 0) -> Orbit:
    """Build the orbit of ``x0`` under ``s`` for indices m_lo..m_hi.

    ``m_lo <= 0 <= m_hi``; negative indices use the pointwise inverse.
    """
    if m_lo > 0 or m_hi < 0:
        raise DomainError(f"need m_lo <= 0 <= m_hi, got [{m_lo}, {m_hi}]")
    if not s.domain.contains(x0):
        raise DomainError(f"x0 = {x0!r} outside domain {s.domain}")

    size = m_hi - m_lo + 1
    points = np.full(size, np.nan)
    points[-m_lo] = x0
    escaped = False
    escape_index: int | None = None

    # an iterate that overflows escapes the domain below; one guard per
    # call, not per point
    with np.errstate(over="ignore"):
        x = x0
        for m in range(1, m_hi + 1):
            x = s(x)
            if not _contains_point(s.domain, x):
                escaped, escape_index = True, m
                break
            points[m - m_lo] = x

        if not escaped or escape_index is None or escape_index > 0:
            x = x0
            for m in range(-1, m_lo - 1, -1):
                try:
                    x = s.invert(x)
                except NotSurjective:
                    escaped, escape_index = True, m
                    break
                if not _contains_point(s.domain, x):
                    escaped, escape_index = True, m
                    break
                points[m - m_lo] = x

    return Orbit(x0, m_lo, m_hi, points, escaped, escape_index)


def _iterate_rows(
    s: Solution, xs: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stack f^0..f^count over one block of grid points, masking escaped points.

    Returns ``(rows, alive)`` where ``rows`` is (count+1, len(xs)) and
    ``alive`` marks columns whose iterates all stayed in the domain.  Whole
    rows are mapped until a point escapes; from then on only the live
    columns are, and the escaped ones keep the NaN the rows start with.
    """
    rows = np.full((count + 1, len(xs)), np.nan)
    rows[0] = xs
    alive = _contains_array(s.domain, xs)
    for i in range(1, count + 1):
        if alive.all():
            rows[i] = s._eval_array(rows[i - 1])
        elif alive.any():
            rows[i, alive] = s._eval_array(rows[i - 1, alive])
        alive &= _contains_array(s.domain, rows[i])
    return rows, alive


def _max_abs(x: np.ndarray, running: float = 0.0) -> float:
    """The larger of ``running`` and ``max |x|``, read off the extremes.

    A NaN in either wins, as it does in ``np.max``; Python's ``max`` would
    keep or drop it depending on the order of its arguments.
    """
    m = max(abs(x.max()), abs(x.min()))
    return m if math.isnan(m) or m > running else running


def _verify_grid(
    s: Solution,
    count: int,
    residual: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    samples: int,
    tol: float,
    coeff_scale: float = 1.0,
) -> VerifyReport:
    """Iterate ``s`` over its grid block by block and judge the residual.

    Each block holds ``_BLOCK`` grid columns, the last one also the
    remainder.  ``residual(rows, alive, live)`` gets a block's iterates
    f^0..f^count, its live mask and its live columns, and returns the
    residual at the live columns.  Only the evaluated count and the
    largest ``|residual|`` and ``|f^i|`` at live points outlive a block, so
    memory scales with ``(count + 1) * _BLOCK``, not with ``samples``.
    Maps run with overflow ignored: a point that overflows is not finite,
    so it escapes.

    The verdict requires ``max |residual| <= tol * coeff_scale * (1 + max
    |f^i|)`` over the live points and at least 90% of the grid alive.
    """
    xs = sample_grid(s.domain, samples)
    evaluated = 0
    resid_max = rows_max = 0.0
    edges = [*range(0, max(samples // _BLOCK, 1) * _BLOCK, _BLOCK), samples]
    for start, stop in zip(edges, edges[1:]):
        with np.errstate(over="ignore"):
            rows, alive = _iterate_rows(s, xs[start:stop], count)
        live_count = int(np.count_nonzero(alive))
        if live_count == 0:
            continue
        evaluated += live_count
        live = rows if live_count == stop - start else rows[:, alive]
        resid_max = _max_abs(residual(rows, alive, live), resid_max)
        rows_max = _max_abs(live, rows_max)
    escaped = samples - evaluated
    if evaluated == 0:
        return VerifyReport(math.inf, False, 0, escaped)
    max_resid = float(resid_max)
    scale = coeff_scale * (1.0 + float(rows_max))
    passed = max_resid <= tol * scale and evaluated >= math.ceil(
        _EVAL_QUOTA * samples
    )
    return VerifyReport(max_resid, passed, evaluated, escaped)


def verify_general(
    s_outer: Solution,
    gen: Generator,
    prob: CharProblem,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
) -> VerifyReport:
    """Residuals of ``F^k(x) = M(x, F(x), ..., F^n(x))`` with M from ``gen``.

    The solution domain must sit inside the generator domain.  The
    verdict requires ``max |residual| <= tol * (1 + max |F^i|)`` and at
    least 90% of the grid to avoid escapes.
    """
    dom, gdom = s_outer.domain, gen.domain
    if dom.lo < gdom.lo or dom.hi > gdom.hi:
        raise DomainError(
            f"solution domain {dom} not contained in generator domain {gdom}"
        )
    k = prob.k

    def residual(rows, alive, live):
        return live[k] - qa_mean_rows(gen, live, anchor=k)

    return _verify_grid(s_outer, prob.n, residual, samples, tol)


def verify_mean(
    s: Solution,
    prob: CharProblem,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
) -> VerifyReport:
    """Residuals of ``f^k(x) = (f^0(x) + ... + f^n(x)) / (n+1)``."""
    return verify_general(s, Generator("identity", s.domain), prob, samples, tol)


def linear_residual_report(
    s: Solution,
    coeffs: Polynomial,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
) -> VerifyReport:
    """Residuals of ``sum_i a_i f^i(x) = 0`` over the grid.

    Computed as ``sum_i a_i (f^i - f^0) + (sum_i a_i) f^0`` so that
    constant orbits of zero-sum coefficient rows cancel exactly.
    """
    arr = coeffs.as_array()
    coeff_sum = math.fsum(coeffs.coeffs)

    def residual(rows, alive, live):
        # the whole block, live or not: BLAS may sum a column in another
        # order once the columns are gathered and shifted
        res = np.tensordot(arr, rows - rows[0], axes=(0, 0)) + coeff_sum * rows[0]
        return res if live is rows else res[alive]

    return _verify_grid(s, coeffs.degree, residual, samples, tol, coeffs.inf_norm)


def verify_dual(
    s: Solution,
    coeffs: Polynomial,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
) -> DualReport:
    """Check the primal/dual equivalence for a bijective solution.

    f satisfies ``sum_i a_i f^i = 0`` exactly when its inverse satisfies
    the reversed-coefficient equation ``sum_i a_i g^{n-i} = 0``; both
    residual runs must agree on pass/fail.
    """
    inv = s.inverse()
    primal = linear_residual_report(s, coeffs, samples, tol)
    reversed_coeffs = Polynomial(tuple(reversed(coeffs.coeffs)))
    dual = linear_residual_report(inv, reversed_coeffs, samples, tol)
    return DualReport(primal, dual, primal.passed == dual.passed)


def verify_second_order(
    s: Solution,
    rho: float,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
) -> VerifyReport:
    """Residuals of ``f(f(x)) - (1 + rho) f(x) + rho x = 0``."""

    def residual(rows, alive, live):
        return live[2] - (1.0 + rho) * live[1] + rho * live[0]

    return _verify_grid(s, 2, residual, samples, tol, 1.0 + abs(rho))


def antimonotone_signs_constant(orbit: Orbit) -> bool:
    """True when ``(-1)^m (x_m - x_{m-1})`` keeps one sign over the orbit.

    Zero differences are neutral; the check applies to the stored,
    non-escaped index range.
    """
    signs: list[float] = []
    for m in range(orbit.m_lo + 1, orbit.m_hi + 1):
        a = orbit.points[m - 1 - orbit.m_lo]
        b = orbit.points[m - orbit.m_lo]
        if np.isnan(a) or np.isnan(b):
            continue
        term = (-1.0) ** m * (b - a)
        if term != 0.0:
            signs.append(math.copysign(1.0, term))
    return len(set(signs)) <= 1
