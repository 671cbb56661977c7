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
from .errors import DomainError
from .families import Solution
from .intervals import Interval, contains_with_slack, contains_with_slack_array, json_float
from .means import Generator, qa_mean_rows
from .poly import Polynomial

DEFAULT_SAMPLES = 1001
DEFAULT_TOL = 1e-9
_EVAL_QUOTA = 0.9
# Grid columns per verification block: _BLOCK, or more when (n+1) rows of
# them hold fewer than _BLOCK_VALUES doubles, which stay in cache while they
# are mapped, tested and reduced.  Each point's residual adds its terms in
# row order whatever block it sits in, so no result depends on the block.
_BLOCK, _BLOCK_VALUES = 8192, 2**16


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a grid verification run.

    ``limit`` is the threshold ``max_residual`` had to meet, ``tol *
    coeff_scale * (1 + max |f^i|)`` over the live points, or None when no
    point survives.
    """

    max_residual: float
    limit: float | None
    passed: bool
    points_evaluated: int
    points_escaped: int

    def to_json(self) -> dict:
        return {
            "max_residual": json_float(self.max_residual),
            "limit": None if self.limit is None else json_float(self.limit),
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

    @property
    def passed(self) -> bool:
        return self.primal.passed == self.dual.passed

    def to_json(self) -> dict:
        return {
            "primal": self.primal.to_json(),
            "dual": self.dual.to_json(),
            "pass": self.passed,
        }


@dataclass
class Orbit:
    """Iterate sequence ``x_m`` for m in [m_lo, m_hi]; ``x_0`` is the start.

    Forward indices apply f, negative indices apply the inverse.
    ``points`` holds exactly the iterates ``x_{m_lo}..x_{m_hi}``, all
    finite; the range contains index 0.  An orbit that left the domain
    holds only the run that stayed in it: ``escape_index`` records the
    first bad index, just past ``m_hi`` or just before ``m_lo``, and
    ``escaped`` is read off it.  Any other layout raises
    :class:`DomainError` naming the first bad index.
    """

    m_lo: int
    m_hi: int
    points: np.ndarray
    escape_index: int | None = None

    def __post_init__(self):
        pts = self.points = np.asarray(self.points, dtype=float)
        lo, hi = self.m_lo, self.m_hi
        if lo > 0 or hi < 0:
            raise DomainError(f"orbit indices [{lo}, {hi}] leave out index 0")
        if pts.shape != (hi - lo + 1,):
            raise DomainError(
                f"orbit indices [{lo}, {hi}] need {hi - lo + 1} points, got "
                f"{pts.size}: index {lo + min(pts.size, hi - lo + 1)} is bad"
            )
        bad = np.flatnonzero(~np.isfinite(pts))
        if bad.size:
            i = int(bad[0])
            raise DomainError(
                f"orbit point at index {lo + i} is not finite: {float(pts[i])!r}"
            )

    @property
    def escaped(self) -> bool:
        return self.escape_index is not None

    def value(self, m: int) -> float:
        if not self.m_lo <= m <= self.m_hi:
            raise IndexError(f"index {m} outside [{self.m_lo}, {self.m_hi}]")
        return float(self.points[m - self.m_lo])

    def forward_values(self) -> np.ndarray:
        """Values for m = 0..m_hi."""
        return self.points[-self.m_lo:].copy()

    def all_values(self) -> np.ndarray:
        return self.points.copy()


def _grid_ends(domain: Interval, samples: int) -> tuple[float, float]:
    """First and last point of ``sample_grid(domain, samples)``."""
    if samples < 1:
        raise DomainError("need at least one sample")
    lo, hi = domain.window()
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
    return lo_s, hi_s


def _grid_points(lo: float, hi: float, samples: int, start: int, stop: int) -> np.ndarray:
    """Points ``start..stop-1`` of ``np.linspace(lo, hi, samples)``, bit for bit.

    The same operations as ``linspace``: point i is ``i * step + lo`` with
    ``step = (hi - lo) / (samples - 1)``, or ``i / (samples - 1) * (hi -
    lo) + lo`` when that step is 0 (a denormal width), and the last point
    is ``hi``.  Only the block is built, so its memory does not grow with
    ``samples``.  One sample sits at the midpoint.
    """
    if samples == 1:
        return np.asarray([0.5 * (lo + hi)])
    div = samples - 1
    delta = hi - lo
    step = delta / div
    xs = np.arange(start, stop, dtype=float)
    if step == 0.0:
        xs /= div
        xs *= delta
    else:
        xs *= step
    xs += lo
    if stop == samples:
        xs[-1] = hi
    return xs


def sample_grid(domain: Interval, samples: int) -> np.ndarray:
    """Uniform grid over the domain's sampling window (``Interval.window``).

    Open endpoints are offset inward by 1e-6 of the window width.
    """
    lo, hi = _grid_ends(domain, samples)
    return _grid_points(lo, hi, samples, 0, samples)


def iterate(s: Solution, x0: float, m_lo: int = 0, m_hi: int = 0) -> Orbit:
    """Build the orbit of ``x0`` under ``s`` for indices m_lo..m_hi.

    ``m_lo <= 0 <= m_hi``; negative indices use the pointwise inverse.
    An iterate that leaves the domain (``contains_with_slack``) ends the
    orbit on its side: the returned ``m_hi`` (or ``m_lo``) is the last
    index before it, and ``escape_index`` is its index (the backward one
    when both sides escape).
    """
    if m_lo > 0 or m_hi < 0:
        raise DomainError(f"need m_lo <= 0 <= m_hi, got [{m_lo}, {m_hi}]")
    if not s.domain.contains(x0):
        raise DomainError(f"x0 = {x0!r} outside domain {s.domain}")

    forward, backward = [float(x0)], []
    escape_index: int | None = None

    # an iterate that overflows escapes the domain; one guard per call, not
    # per point.  Forward steps map with ``_eval_scalar``, which is ``s(x)``
    # without its domain test: ``x0`` and every iterate kept lie in the
    # domain, so that test cannot fail.  Backward steps are ``s.invert(x)``
    # with the image taken once: a value outside it is the escape
    # ``invert`` signals with ``NotSurjective``.
    domain = s.domain
    with np.errstate(over="ignore"):
        x = forward[0]
        for m in range(1, m_hi + 1):
            x = s._eval_scalar(x)
            if not contains_with_slack(domain, x):
                escape_index = m
                break
            forward.append(x)

        image = s.image() if m_lo < 0 else None
        x = forward[0]
        for m in range(-1, m_lo - 1, -1):
            if not (
                contains_with_slack(image, x)
                and contains_with_slack(domain, x := s._invert_scalar(x))
            ):
                escape_index = m
                break
            backward.append(x)

    points = np.array(backward[::-1] + forward)
    return Orbit(-len(backward), len(forward) - 1, points, escape_index)


def _iterate_rows(s: Solution, xs: np.ndarray, count: int) -> tuple[np.ndarray, float]:
    """f^0..f^count at the points of one grid block that never escape.

    Returns ``(live, peak)``: the (count+1)-row columns of the points whose
    iterates all stay in the domain, in grid order, and their largest
    ``|f^i|`` (0 when no point stays).  All rows are mapped first
    (``Solution._iterate_into``) with every floating-point fault raising;
    then the block's minimum and maximum decide: both finite, with ``lo <=
    min`` and ``max <= hi`` for the domain's ends, prove every point
    inside, and ``peak`` is read off those extremes.  A map with
    ``monotone_rows`` whose points are sorted (``xs[:-1] <= xs[1:]``,
    which a NaN fails) has monotone rows, so the extremes are read off the
    block's first and last columns, the same values the whole block gives;
    any other block takes them over all its values.  A block that
    fails this test or raises is mapped again from row 1, row by row under
    the caller's error state: each row maps only the points still inside
    (``contains_with_slack_array``), so its escapes, warnings and bits are
    those of the row-by-row map, and an escaped point never reaches f.
    """
    domain = s.domain
    rows = np.empty((count + 1, len(xs)))
    rows[0] = xs
    try:
        with np.errstate(all="raise"):
            s._iterate_into(rows)
    except Exception:  # noqa: BLE001
        pass  # escaped points were mapped too; the redo raises what live ones raise
    else:
        if s.monotone_rows and (xs[:-1] <= xs[1:]).all():
            # as Python floats, which two short columns are read into
            # faster than NumPy reduces them; sorted points and raised
            # faults leave no NaN for ``min`` and ``max`` to mishandle
            ends = rows[:, 0].tolist() + rows[:, -1].tolist()
            low, high = min(ends), max(ends)
        else:
            low, high = rows.min(), rows.max()
        finite = math.isfinite(low) and math.isfinite(high)
        if finite and domain.lo <= low and high <= domain.hi:
            return rows, max(abs(low), abs(high))
    cols = np.flatnonzero(contains_with_slack_array(domain, xs))
    for i in range(1, count + 1):
        if not cols.size:
            break
        rows[i, cols] = s._eval_array(rows[i - 1, cols])
        cols = cols[contains_with_slack_array(domain, rows[i, cols])]
    live = rows[:, cols]
    return live, (_max_abs(live) if cols.size else 0.0)


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
    residual: Callable[[np.ndarray], np.ndarray],
    samples: int,
    tol: float,
    coeff_scale: float = 1.0,
    linear: bool = False,
) -> VerifyReport:
    """Iterate ``s`` over its grid block by block and judge the residual.

    Each block holds ``max(_BLOCK, _BLOCK_VALUES // (count + 1))`` grid
    columns, the last one what is left, and builds its own grid points
    (``_grid_points``), which are sorted.  ``_iterate_rows`` hands back
    only a block's live columns, the iterates f^0..f^count of its points
    that never escape, and their peak ``|f^i|``, read off the block's end
    columns for a map with ``monotone_rows``; ``residual(live)`` returns
    the residual there.  The block is the
    residual's own: it may overwrite ``live`` and return one of its rows,
    since the evaluated count, the peak ``|f^i|`` and the scaling decision
    are read off the block before the residual runs.  Only the evaluated
    count and the largest ``|residual|`` and ``|f^i|`` at live points
    outlive a block, so memory scales with the block, not with
    ``samples``.  The whole run ignores overflow, under one ``np.errstate``:
    a point that overflows is not finite, so it escapes.  A residual that
    overflows is infinite, or NaN without a warning where terms overflow
    with opposite signs.

    A ``linear`` residual is linear in the iterates, so that
    ``residual(2^-e live) = 2^-e residual(live)``, and none of its terms
    or partial sums exceeds ``4 (count + 1) coeff_scale max |f^i|`` (the
    arithmetic mean and ``linear_residual_report``).  Where that bound
    reaches 2^1023 one could overflow, so there the block is scaled into
    [-2, 2] by a power of two in place, as ``check_recurrence`` scales an
    orbit, and the residual scaled back; elsewhere nothing is scaled.

    The verdict requires a finite ``max |residual| <= tol * coeff_scale *
    (1 + max |f^i|)`` over the live points and at least 90% of the grid
    alive; the report carries that limit.  With ``tol * coeff_scale``
    formed first, the limit overflows only when its exact value lies
    beyond the float range.
    """
    lo, hi = _grid_ends(s.domain, samples)
    evaluated = 0
    resid_max = rows_max = 0.0
    width = max(_BLOCK, _BLOCK_VALUES // (count + 1))
    with np.errstate(over="ignore"):
        for start in range(0, samples, width):
            stop = min(start + width, samples)
            xs = _grid_points(lo, hi, samples, start, stop)
            live, peak = _iterate_rows(s, xs, count)
            if not live.size:
                continue
            evaluated += live.shape[1]
            rows_max = max(rows_max, peak)
            with np.errstate(invalid="ignore"):
                if linear and 4.0 * (count + 1) * coeff_scale * peak >= 2.0**1023:
                    exp = math.frexp(peak)[1] - 1
                    resid = residual(np.ldexp(live, -exp, out=live))
                    resid *= 2.0**exp
                else:
                    resid = residual(live)
                resid_max = _max_abs(resid, resid_max)
    escaped = samples - evaluated
    if evaluated == 0:
        return VerifyReport(math.inf, None, False, 0, escaped)
    max_resid = float(resid_max)
    limit = tol * coeff_scale * (1.0 + float(rows_max))
    quota = evaluated >= math.ceil(_EVAL_QUOTA * samples)
    passed = math.isfinite(max_resid) and max_resid <= limit and quota
    return VerifyReport(max_resid, limit, passed, evaluated, escaped)


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

    def residual(live):
        fk = live[k].copy()
        mean = qa_mean_rows(gen, live, anchor=k)
        return np.subtract(fk, mean, out=mean)

    linear = gen.kind == "identity"  # the arithmetic mean
    return _verify_grid(s_outer, prob.n, residual, samples, tol, linear=linear)


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

    Computed as ``(sum_i a_i) f^0 + sum_{i>=1} a_i (f^i - f^0)`` so that
    constant orbits of zero-sum coefficient rows cancel exactly.  The
    terms ``a_i (f^i - f^0)`` are formed in place in rows 1.. of the
    block, which the residual overwrites, by one broadcast subtraction and
    one broadcast product (elementwise, so each is the per-row operation),
    and added one row at a time, in row order, into row 0, so a point's
    residual depends neither on the other points nor on the block.
    """
    coeff_sum = math.fsum(coeffs.coeffs)
    higher = np.array(coeffs.coeffs[1:])[:, None]

    def residual(live):
        base, terms = live[0], live[1:]
        np.subtract(terms, base, out=terms)
        terms *= higher
        base *= coeff_sum
        for row in terms:
            base += row
        return base

    return _verify_grid(s, coeffs.degree, residual, samples, tol, coeffs.inf_norm, True)


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
    return DualReport(primal, dual)


def verify_second_order(
    s: Solution,
    rho: float,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
) -> VerifyReport:
    """Residuals of ``f(f(x)) - (1 + rho) f(x) + rho x = 0``."""

    def residual(live):
        x, fx, ffx = live
        fx *= 1.0 + rho
        ffx -= fx
        x *= rho
        ffx += x
        return ffx

    return _verify_grid(s, 2, residual, samples, tol, 1.0 + abs(rho))


def antimonotone_signs_constant(orbit: Orbit) -> bool:
    """True when ``(-1)^m (x_m - x_{m-1})`` keeps one sign over the orbit.

    Zero differences are neutral; the check runs over every held point.
    """
    terms = np.diff(orbit.points)
    terms[orbit.m_lo % 2 :: 2] *= -1.0  # term i is at m = m_lo + 1 + i
    terms = terms[terms != 0.0]
    return bool(np.all(terms > 0.0) or np.all(terms < 0.0))
