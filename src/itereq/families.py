"""Constructible solution families of the iterate-mean equation.

Every solution is a strictly monotone, evaluable, invertible function
object tied to a domain interval:

* ``Identity``    -- f(x) = x;
* ``Translation`` -- f(x) = x + c;
* ``Affine``      -- f(x) = slope * x + c, slope != 0;
* ``ThreePiece``  -- identity on (a, b), slope r anchored at a and b
                     outside (continuous, strictly increasing);
* ``Involution``  -- strictly decreasing f with f(f(x)) = x on a bounded
                     interval, assembled from a decreasing branch f0 on
                     (inf I, a]; no involution but the identity solves the
                     iterate-mean equation, so it serves only the
                     second-order (rho = -1) and dual checks;
* ``Conjugate``   -- phi^{-1} o f o phi for a mean generator phi.

One image rule serves every family: a strictly monotone map sends its
domain onto the interval between its values at the domain's two ends
(``Interval.monotone_image``), swapped together with their closedness when
it decreases.  The closed-form families take those values from
``_eval_scalar``, which gives +-inf at an infinite end; a conjugate maps its
inner image's ends through ``phi^{-1}``; an involution's image is its
domain.  Translation, Affine and ThreePiece are accepted only when that
image lies in the domain.

``enumerate_families`` reads the families off the real characteristic
roots by one rule: each negative root gives an affine family and each
positive root other than 1 a three-piece family of that slope, a double
root 1 gives the translations, and the identity is listed when there is
neither a translation nor a three-piece family.  For ``0 < k < n`` with k
and n both even it reports the unsolved regime instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charpoly import _REPORT_CACHE_SIZE, CharProblem, analyze_roots, classify
from .errors import (
    BadAnchor,
    ConstructionError,
    DomainError,
    DomainMismatch,
    NotAnInvolution,
    NotInvertible,
    NotSurjective,
)
from .intervals import Interval, contains_with_slack, finite_real
from .means import Generator

_FAMILIES_CACHE_SIZE = _REPORT_CACHE_SIZE


class Solution:
    """Base class: a strictly monotone function on an interval.

    Arrays go through ``_eval_array``; a single point goes through
    ``_eval_scalar`` (``__call__``) and ``_invert_scalar`` (``invert``);
    there is no array inverse.  ``Identity``, ``Translation``, ``Affine``
    and ``ThreePiece`` give both in Python floats, ``_eval_scalar`` with the
    array formula's IEEE operations in the same order, so a point maps to
    the same bits without building a one-element array.  ``_eval_into``
    maps an array into a buffer the caller owns, which may be the array
    itself; those four families write it with ufunc ``out=``, and
    ``_eval_array`` is ``_eval_into`` on a fresh buffer.  ``Conjugate``
    writes phi, its inner map's ``_eval_into`` and phi^-1 into the buffer
    in turn.  Other families map one point through one-element arrays;
    ``_iterate_into`` maps each row of a block from the one above.

    ``monotone_rows`` states that ``_iterate_into`` maps sorted points
    (ascending, no NaN) to rows that are each monotone, in rounded
    arithmetic, so a block's extremes sit in its first and last columns.
    ``Identity``, ``Translation``, ``Affine`` and ``ThreePiece`` have it:

    * rounding is monotone, so ``fl(x + c)`` and ``fl(fl(s*x) + c)`` are
      monotone in x (non-increasing for s < 0), and each row is the one
      above mapped by the same rounded formula, a composition of monotone
      maps;
    * ``ThreePiece`` maps each of ``(-inf, a]``, ``[a, b]`` and
      ``[b, inf)`` into itself in rounded arithmetic (its docstring), by
      one such formula with a fixed anchor on each, so its rows are
      non-decreasing across the pieces too;
    * under ``np.errstate(all="raise")`` points that are not NaN give no
      NaN: ``inf - inf`` and ``0 * inf`` raise.

    The grid's blocks are sorted (``verify._grid_points``: the points are
    ``i * step + lo`` and the last one ``hi``, at least its neighbour).
    Conjugates (phi and phi^-1 carry no such promise), involutions and
    other maps do not have it.
    """

    domain: Interval
    family: str = "abstract"
    monotone_rows: bool = False

    # -- evaluation -------------------------------------------------------

    def __call__(self, x: float) -> float:
        if not contains_with_slack(self.domain, x):
            raise DomainError(f"{x!r} outside domain {self.domain}")
        return self._eval_scalar(float(x))

    def _eval_array(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _eval_into(self, xs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """f over ``xs`` written into ``out``, an array of the same shape;
        returns ``out``.  The default copies the result of ``_eval_array``
        into it."""
        out[...] = self._eval_array(xs)
        return out

    def _iterate_into(self, rows: np.ndarray) -> np.ndarray:
        """Each row i >= 1 of ``rows`` set to f of row i - 1; returns ``rows``."""
        for prev, row in zip(rows[:-1], rows[1:]):
            self._eval_into(prev, row)
        return rows

    def _eval_scalar(self, x: float) -> float:
        return float(self._eval_array(np.asarray([x], dtype=float))[0])

    # -- inversion --------------------------------------------------------

    def invert(self, y: float) -> float:
        """Solve f(x) = y; raises NotSurjective for y outside the image."""
        if not contains_with_slack(self.image(), y):
            raise NotSurjective(f"{y!r} outside image {self.image()}")
        return self._invert_scalar(float(y))

    def _invert_scalar(self, y: float) -> float:
        raise NotImplementedError

    def inverse(self) -> "Solution":
        """The inverse as a solution object on the same domain.

        Only available when f maps its domain onto itself.
        """
        if not self.is_bijection_onto_domain():
            raise NotInvertible(
                f"{self.family} maps {self.domain} onto {self.image()}, "
                "not onto its own domain"
            )
        try:
            return self._inverse_spec()
        except ConstructionError as exc:
            raise ConstructionError(f"inverse of {self!r}: {exc}") from None

    def _inverse_spec(self) -> "Solution":
        raise NotImplementedError

    # -- structure -----------------------------------------------------------

    @property
    def is_increasing(self) -> bool:
        raise NotImplementedError

    def image(self) -> Interval:
        """f(domain): the domain's ends mapped by ``_eval_scalar`` (+-inf at
        an infinite end), swapped with their closedness when f decreases."""
        return self.domain.monotone_image(self._eval_scalar, self.is_increasing)

    def is_bijection_onto_domain(self) -> bool:
        return self.image().ends_close(self.domain, 1e-12)

    # -- serialization ----------------------------------------------------------

    def params_json(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "params": self.params_json(),
            "domain": self.domain.to_json(),
        }


def _check_construction(sol: Solution, *finite: str) -> None:
    """Reject NaN or +-inf ``finite`` parameters, and an image past the domain.

    Each finite end of the image must lie in the domain up to rounding
    (``contains_with_slack``); an infinite one must be the domain's end.
    """
    for name in finite:
        if not math.isfinite(value := getattr(sol, name)):
            raise ConstructionError(f"{sol.family} {name} must be finite, got {value!r}")
    img, dom = sol.image(), sol.domain
    ends = ((img.lo, dom.lo), (img.hi, dom.hi))
    if not all(contains_with_slack(dom, end) or end == d for end, d in ends):
        raise ConstructionError(
            f"{sol.family} image {img} is not contained in domain {dom}"
        )


@dataclass(frozen=True)
class Identity(Solution):
    domain: Interval
    family = "identity"
    monotone_rows = True

    def _eval_array(self, xs):
        return xs.copy()

    def _eval_into(self, xs, out):
        np.copyto(out, xs)
        return out

    def _iterate_into(self, rows):
        """Every row i >= 1 set to row 0 by one broadcast copy."""
        np.copyto(rows[1:], rows[0])
        return rows

    def _eval_scalar(self, x):
        return x

    def _invert_scalar(self, y):
        return y

    def _inverse_spec(self):
        return self

    @property
    def is_increasing(self):
        return True

    def params_json(self):
        return {}


@dataclass(frozen=True)
class Translation(Solution):
    domain: Interval
    c: float
    family = "translation"
    monotone_rows = True

    def __post_init__(self):
        _check_construction(self, "c")

    def _eval_array(self, xs):
        return self._eval_into(xs, np.empty_like(xs, dtype=float))

    def _eval_into(self, xs, out):
        return np.add(xs, self.c, out=out)

    def _eval_scalar(self, x):
        return x + self.c

    def _invert_scalar(self, y):
        return y - self.c

    def _inverse_spec(self):
        return Translation(self.domain, -self.c)

    @property
    def is_increasing(self):
        return True

    def params_json(self):
        return {"c": self.c}


@dataclass(frozen=True)
class Affine(Solution):
    domain: Interval
    slope: float
    c: float
    family = "affine"
    monotone_rows = True

    def __post_init__(self):
        if self.slope == 0.0:
            raise ConstructionError("affine slope must be nonzero")
        _check_construction(self, "slope", "c")

    def _eval_array(self, xs):
        return self._eval_into(xs, np.empty_like(xs, dtype=float))

    def _eval_into(self, xs, out):
        np.multiply(self.slope, xs, out=out)
        out += self.c
        return out

    def _eval_scalar(self, x):
        return self.slope * x + self.c

    def _invert_scalar(self, y):
        return (y - self.c) / self.slope

    def _inverse_spec(self):
        return Affine(self.domain, 1.0 / self.slope, -self.c / self.slope)

    @property
    def is_increasing(self):
        return self.slope > 0.0

    def params_json(self):
        return {"slope": self.slope, "c": self.c}


@dataclass(frozen=True)
class ThreePiece(Solution):
    """Identity on (a, b), slope r anchored at a below and at b above.

        f(x) = r*(x - a) + a   for x <= a
        f(x) = x               for a < x < b
        f(x) = r*(x - b) + b   for x >= b

    Arrays are evaluated through the clamp ``c = min(max(x, a), b)`` as
    ``(x - c)*r + c``, in five passes and without masks; one point goes
    through the same clamp and operations in Python floats
    (``_eval_scalar``) and is inverted as ``(y - c)/r + c`` (there is no
    array inverse).  That is the branch arithmetic, operation for
    operation: ``c`` is ``a`` below ``a`` and ``b`` above ``b``, and inside
    ``(x - x)*r + x`` is ``x``; NaN and +-inf propagate as in the branches.  The one bit that differs is the
    sign of a zero: ``x = -0.0`` strictly inside ``(a, b)`` maps to
    ``+0.0``, an equal value.  A zero anchor is stored as ``+0.0``: with
    ``a = +0.0`` and ``b = -0.0`` the clamp can pick ``b`` where the branch
    anchors at ``a``, and the two zeros then give results of opposite sign.
    ``_iterate_into`` clamps only the first row and maps each later row with
    that clamp, in three passes, to the same bits: as r > 0, f maps each of
    ``(-inf, a]``, ``[a, b]`` and ``[b, inf)`` into itself in rounded
    arithmetic too (``x - a <= 0`` gives ``(x - a)*r + a <= a``; likewise at
    ``b``; a zero inside maps to ``+0.0`` whatever its clamp's sign).
    """

    domain: Interval
    a: float
    b: float
    slope: float
    family = "three_piece"
    monotone_rows = True

    def __post_init__(self):
        object.__setattr__(self, "a", self.a + 0.0)
        object.__setattr__(self, "b", self.b + 0.0)
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ConstructionError("three-piece anchors must be finite")
        if self.a > self.b:
            raise ConstructionError(f"anchors need a <= b, got {self.a} > {self.b}")
        if not 0.0 < self.slope < math.inf or self.slope == 1.0:
            raise ConstructionError(
                f"three-piece slope must be finite, positive and != 1, got {self.slope}"
            )
        for v in (self.a, self.b):
            if not self.domain.contains_in_closure(v):
                raise ConstructionError(
                    f"anchor {v!r} outside closure of {self.domain}"
                )
        _check_construction(self)

    def _eval_array(self, xs):
        return self._eval_into(xs, np.empty_like(xs, dtype=float))

    def _eval_into(self, xs, out):
        anchor = np.maximum(xs, self.a)
        np.minimum(anchor, self.b, out=anchor)
        np.subtract(xs, anchor, out=out)
        out *= self.slope
        out += anchor
        return out

    def _iterate_into(self, rows):
        anchor = np.minimum(np.maximum(rows[0], self.a), self.b)
        for prev, row in zip(rows[:-1], rows[1:]):
            np.subtract(prev, anchor, out=row)
            row *= self.slope
            row += anchor
        return rows

    def _anchor(self, x: float) -> float:
        """``x`` clamped to ``[a, b]``; NaN stays NaN, as in ``np.maximum``."""
        return self.a if x < self.a else self.b if x > self.b else x

    def _eval_scalar(self, x):
        anchor = self._anchor(x)
        return (x - anchor) * self.slope + anchor

    def _invert_scalar(self, y):
        anchor = self._anchor(y)
        return (y - anchor) / self.slope + anchor

    def _inverse_spec(self):
        return ThreePiece(self.domain, self.a, self.b, 1.0 / self.slope)

    @property
    def is_increasing(self):
        return True

    def params_json(self):
        return {"a": self.a, "b": self.b, "slope": self.slope}


class Involution(Solution):
    """Strictly decreasing self-inverse map assembled from one branch.

    ``f(x) = f0(x)`` for ``x <= a`` and ``f(x) = f0^{-1}(x)`` for
    ``x > a``, where f0 is continuous, strictly decreasing on the part of
    the bounded domain left of ``a``, fixes ``a``, and tends to the
    domain's supremum at its infimum.  Built through
    :func:`build_involution`; it does not serialize.
    """

    family = "involution"

    def __init__(
        self,
        domain: Interval,
        a: float,
        f0: Callable[[np.ndarray], np.ndarray],
        f0_inv: Callable[[np.ndarray], np.ndarray],
    ):
        self.domain = domain
        self.a = a
        self._f0 = f0
        self._f0_inv = f0_inv

    def _eval_array(self, xs):
        xs = np.asarray(xs, dtype=float)
        out = np.empty_like(xs)
        low = xs <= self.a
        if np.any(low):
            out[low] = self._f0(xs[low])
        if np.any(~low):
            out[~low] = self._f0_inv(xs[~low])
        return out

    def _invert_scalar(self, y):
        return self._eval_scalar(y)

    def _inverse_spec(self):
        return self

    @property
    def is_increasing(self):
        return False

    def image(self):
        return self.domain

    def params_json(self):
        raise ConstructionError(
            "involutions do not serialize: no involution but the identity "
            "solves the iterate-mean equation"
        )


class Conjugate(Solution):
    """Generator conjugate ``phi^{-1} o inner o phi`` on the generator domain."""

    family = "conjugate"

    def __init__(self, gen: Generator, inner: Solution):
        self.gen = gen
        self.inner = inner
        self.domain = gen.domain

    def _eval_array(self, xs):
        return self._eval_into(xs, np.empty_like(xs, dtype=float))

    def _eval_into(self, xs, out):
        """phi, the inner map and phi^-1, each written in place into ``out``."""
        self.gen.phi(xs, out=out)
        self.inner._eval_into(out, out)
        return self.gen.phi_inv(out, out=out)

    def _invert_scalar(self, y):
        x = self.inner._invert_scalar(float(self.gen.phi(np.asarray([y]))[0]))
        return float(self.gen.phi_inv(np.asarray([x]))[0])

    def _inverse_spec(self):
        return Conjugate(self.gen, self.inner.inverse())

    @property
    def is_increasing(self):
        return self.inner.is_increasing

    def image(self):
        return self.inner.image().monotone_image(self.gen.phi_inv, self.gen.increasing)

    def params_json(self):
        return {"generator": self.gen.to_json(), "inner": self.inner.to_json()}


def conjugate(gen: Generator, inner: Solution) -> Conjugate:
    """Transport a solution of the arithmetic-mean form through a generator.

    Given ``inner`` defined on ``phi(domain)``, returns the map
    ``x -> phi^{-1}(inner(phi(x)))`` on the generator's domain.  The inner
    solution's domain must equal the transported domain.
    """
    target = gen.image()
    got = inner.domain
    if not target.ends_close(got, 1e-9):
        raise DomainMismatch(
            f"inner domain {got} != transported generator domain {target}"
        )
    return Conjugate(gen, inner)


# ---------------------------------------------------------------------------
# Family enumeration
# ---------------------------------------------------------------------------

OPEN_PROBLEM = "open_problem"


@dataclass(frozen=True)
class FamilyDescriptor:
    """One parametric family solving a given (n, k) on a given interval."""

    family: str
    slope: float | None
    free_params: tuple[str, ...]
    note: str

    def instantiate(self, domain: Interval, **params: float) -> Solution:
        """Build this family on ``domain``.

        Omitted parameters anchor at the midpoint of the domain's sampling
        window: the affine map fixes it, the three-piece map starts its
        identity stretch there, and a translation defaults to ``c = 0``.
        Parameters the family does not take are ignored.
        """
        wlo, whi = domain.window()
        mid = 0.5 * (wlo + whi)
        if self.family == "translation":
            params.setdefault("c", 0.0)
        elif self.family == "affine":
            params.setdefault("c", mid * (1.0 - self.slope))
        elif self.family == "three_piece":
            params.setdefault("a", mid)
            params.setdefault("b", max(mid, params["a"]))
        return build_solution(self.family, domain, {**params, "slope": self.slope})


@dataclass(frozen=True)
class FamilyEnumeration:
    status: str  # "ok" or "open_problem"
    families: tuple[FamilyDescriptor, ...]

    @property
    def is_open_problem(self) -> bool:
        return self.status == OPEN_PROBLEM


_IDENTITY = FamilyDescriptor("identity", None, (), "f(x) = x")
_TRANSLATION = FamilyDescriptor("translation", None, ("c",), "f(x) = x + c")


def _families_from_roots(roots: list[tuple[float, int]]) -> FamilyEnumeration:
    """The families read off the real roots ``(value, multiplicity)`` by the
    rule of the module docstring: identity or translation first, then the
    affine families, then the three-piece families."""
    affine = [
        FamilyDescriptor("affine", r, ("c",), f"f(x) = {r!r}*x + c")
        for r, _ in roots
        if r < 0.0
    ]
    three_piece = [
        FamilyDescriptor(
            "three_piece", r, ("a", "b"), f"identity on (a,b), slope {r!r} outside"
        )
        for r, _ in roots
        if r > 0.0 and r != 1.0
    ]
    first = [_TRANSLATION] if (1.0, 2) in roots else [] if three_piece else [_IDENTITY]
    return FamilyEnumeration("ok", tuple(first + affine + three_piece))


def enumerate_families(prob: CharProblem, domain: Interval) -> FamilyEnumeration:
    """The complete list of solution families for (n, k) on ``domain``.

    The families are read off the real characteristic roots by
    ``_families_from_roots``; when ``classify`` predicts no real root but
    1, no spectrum is solved.  For ``0 < k < n`` with k and n both even
    the continuous-solution classification is unresolved and the
    enumeration carries status ``open_problem`` (no families).

    The domain matters only for k = 0, where off the real line the
    identity alone is listed.  Every other enumeration depends on the
    problem alone and is kept per (n, k) in a bounded LRU memo
    (``_problem_families``, ``_FAMILIES_CACHE_SIZE`` entries), so
    equal problems get the identical frozen enumeration.  As with
    ``analyze_roots``, failures are not cached: a solver error raises on
    every call.
    """
    if prob.k == 0 and not domain.is_real_line:
        return FamilyEnumeration("ok", (_IDENTITY,))
    return _problem_families(prob)


@functools.lru_cache(maxsize=_FAMILIES_CACHE_SIZE)
def _problem_families(prob: CharProblem) -> FamilyEnumeration:
    """``enumerate_families(prob, domain)`` for every domain but that of
    k = 0 off the real line."""
    n, k = prob.n, prob.k
    if 0 < k < n and prob.both_even:
        return FamilyEnumeration(OPEN_PROBLEM, ())
    expected = classify(prob).expected_real_roots
    if len(expected) == 1:
        return _families_from_roots([(1.0, expected[0].multiplicity)])
    report = analyze_roots(prob)
    return _families_from_roots([(r.value, r.multiplicity) for r in report.real_roots])


# ---------------------------------------------------------------------------
# Second-order equation f(f(x)) - (1 + rho) f(x) + rho x = 0
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SecondOrderProblem:
    rho: float
    domain: Interval

    def __post_init__(self):
        if finite_real(self.rho, "rho") == 0.0:
            raise DomainError("rho must be nonzero")


def second_order_families(prob: SecondOrderProblem) -> FamilyEnumeration:
    """Solution families of ``f^2 - (1 + rho) f + rho id = 0``.

    The characteristic roots are 1 and rho, so by ``_families_from_roots``
    rho = 1 gives translations; positive rho != 1 the three-piece family
    with slope rho (which contains the identity and the anchored affine
    map as parameter limits); negative rho the identity plus affine maps
    of slope rho.
    """
    rho = prob.rho
    return _families_from_roots([(1.0, 2)] if rho == 1.0 else [(1.0, 1), (rho, 1)])


# ---------------------------------------------------------------------------
# Involution construction
# ---------------------------------------------------------------------------


def _table_interp(xs: np.ndarray, ys: np.ndarray):
    def f(v: np.ndarray) -> np.ndarray:
        return np.interp(v, xs, ys)

    return f


def _numeric_inverse(
    f0: Callable[[np.ndarray], np.ndarray], domain: Interval, a: float
):
    """Bisection inverse of a strictly decreasing branch, all values at once.

    Each value keeps its own bracket ``[lo, hi]`` and stops when its
    midpoint no longer splits it (or after 200 halvings), so every result
    is the one a bisection of that value alone would give.
    """

    def inv(vals: np.ndarray) -> np.ndarray:
        vals = np.atleast_1d(np.asarray(vals, dtype=float))
        hi = np.full_like(vals, a)
        probe = domain.lo + 1e-13 * (a - domain.lo)
        # values above the reachable branch are clamped to the probe
        above = float(f0(np.asarray([probe]))[0]) < vals
        lo = np.where(above, probe, domain.lo + 1e-300)
        live = np.ones(vals.shape, dtype=bool)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            live &= (lo < mid) & (mid < hi)
            if not live.any():
                break
            m = mid[live]
            up = f0(m) >= vals[live]
            lo[live] = np.where(up, m, lo[live])
            hi[live] = np.where(up, hi[live], m)
        return 0.5 * (lo + hi)

    return inv


INVOLUTION_TOL = 1e-9  # relative error build_involution allows in f(a), f(f(x))
INVOLUTION_GRID = 257  # window points of its f(f(x)) = x check


def build_involution(
    domain: Interval,
    a: float,
    f0: Callable | None = None,
    f0_table: tuple | None = None,
) -> Involution:
    """Assemble a strictly decreasing involution from one branch.

    The domain must be bounded, and open or closed.  ``f0`` acts on the
    part of the domain at or below the interior anchor ``a``; it must be
    continuous, strictly decreasing, fix ``a``, and tend to the domain
    supremum at the domain infimum.  Supply either a callable, inverted by
    bisection, or a breakpoint table ``(xs, ys)`` interpolated
    piecewise-linearly.  The assembled map is ``f0`` left of ``a`` and
    ``f0^{-1}`` right of it; the construction is rejected if ``f(a)`` or
    ``f(f(x))`` strays from ``a`` or ``x`` by more than ``INVOLUTION_TOL``
    relative, on ``INVOLUTION_GRID`` window points.
    """
    bounded = math.isfinite(domain.lo) and math.isfinite(domain.hi)
    if not bounded or not (domain.is_open or domain.is_closed):
        raise DomainError(
            f"involutions need a bounded open or closed domain, got {domain}"
        )
    if not domain.is_interior(a):
        raise DomainError(f"anchor {a!r} must be interior to {domain}")

    if f0_table is not None:
        try:
            xs = np.asarray(f0_table[0], dtype=float)
            ys = np.asarray(f0_table[1], dtype=float)
        except (TypeError, ValueError, OverflowError):
            xs = ys = np.asarray(np.nan)
        if xs.ndim != 1 or xs.shape != ys.shape:
            raise ConstructionError(
                "f0_table needs x and y lists of numbers of one length"
            )
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ConstructionError("f0_table entries must be finite numbers")
        if len(xs) < 2 or np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) >= 0):
            raise NotAnInvolution(
                "table must have increasing x and strictly decreasing y"
            )
        f0_fn = _table_interp(xs, ys)
        f0_inv_fn = _table_interp(ys[::-1], xs[::-1])
    elif f0 is not None:
        def f0_fn(v: np.ndarray) -> np.ndarray:
            return np.asarray(f0(v), dtype=float)

        f0_inv_fn = _numeric_inverse(f0_fn, domain, a)
    else:
        raise ConstructionError("supply f0 (callable) or f0_table")

    anchor_val = float(f0_fn(np.asarray([a]))[0])
    if abs(anchor_val - a) > INVOLUTION_TOL * (1.0 + abs(a)):
        raise BadAnchor(f"f0({a!r}) = {anchor_val!r} != {a!r}")

    _check_boundary_limit(f0_fn, domain, a)

    sol = Involution(domain, a, f0_fn, f0_inv_fn)

    wlo, whi = domain.window()
    width = whi - wlo
    off = 1e-6 * width
    pts = np.linspace(wlo + off, whi - off, INVOLUTION_GRID)
    vals = sol._eval_array(pts)
    # strict decrease of the assembled map
    if np.any(np.diff(vals) >= 0):
        raise NotAnInvolution("assembled map is not strictly decreasing")
    round_trip = sol._eval_array(vals)
    err = np.max(np.abs(round_trip - pts) / (1.0 + np.abs(pts)))
    if not err <= INVOLUTION_TOL:
        raise NotAnInvolution(
            f"f(f(x)) deviates from x by {err:.3e} (tol {INVOLUTION_TOL:.1e})"
        )
    return sol


def _check_boundary_limit(f0_fn, domain: Interval, a: float) -> None:
    """Require f0 -> sup(domain) as x -> inf(domain)."""
    probes = domain.lo + (a - domain.lo) * np.power(10.0, -np.arange(3, 10, dtype=float))
    last = float(f0_fn(probes)[-1])
    if abs(last - domain.hi) > 1e-5 * (1.0 + abs(domain.hi)):
        raise BadAnchor(
            f"f0 tends to {last!r} at the domain infimum, expected {domain.hi!r}"
        )


# ---------------------------------------------------------------------------
# Building solutions from family names and JSON
# ---------------------------------------------------------------------------


def build_solution(family: str, domain: Interval, params: dict) -> Solution:
    """The solution of ``family`` on ``domain`` with the given parameters.

    Numeric parameters must be finite real numbers; a
    :class:`ConstructionError` or :class:`DomainError` names the field
    that is missing or malformed.
    """
    if family == "identity":
        return Identity(domain)
    if family == "translation":
        return Translation(domain, finite_real(params["c"], "c"))
    if family == "affine":
        return Affine(
            domain, finite_real(params["slope"], "slope"), finite_real(params["c"], "c")
        )
    if family == "three_piece":
        a, b, slope = (finite_real(params[name], name) for name in ("a", "b", "slope"))
        return ThreePiece(domain, a, b, slope)
    if family == "conjugate":
        gen = Generator.from_json(_object(params, "generator"), domain)
        return conjugate(gen, solution_from_json(params["inner"]))
    raise ConstructionError(f"unknown family {family!r}")


def solution_from_json(obj: dict) -> Solution:
    """Rebuild a solution from its JSON form (see ``Solution.to_json``).

    Raises an :class:`~itereq.errors.ItereqError` naming the problem when
    ``obj`` is not a JSON object or a field is missing or malformed.
    """
    if not isinstance(obj, dict):
        raise ConstructionError(
            f"a solution spec must be a JSON object, got {type(obj).__name__}"
        )
    try:
        domain = Interval.from_json(_object(obj, "domain"))
        return build_solution(obj["family"], domain, _object(obj, "params", {}))
    except KeyError as exc:
        raise ConstructionError(
            f"solution spec is missing field {exc.args[0]!r}"
        ) from None


def _object(obj: dict, name: str, default: dict | None = None) -> dict:
    """The JSON object in field ``name`` (``default`` when it is absent)."""
    value = obj[name] if default is None else obj.get(name, default)
    if not isinstance(value, dict):
        raise ConstructionError(
            f"field {name!r} must be a JSON object, got {type(value).__name__}"
        )
    return value
