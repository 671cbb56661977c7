"""Constructible solution families of the iterate-mean equation.

Every solution is a strictly monotone, evaluable, invertible function
object tied to a domain interval:

* ``Identity``    -- f(x) = x;
* ``Translation`` -- f(x) = x + c;
* ``Affine``      -- f(x) = slope * x + c, slope != 0;
* ``ThreePiece``  -- identity on (a, b), slope r anchored at a and b
                     outside (continuous, strictly increasing);
* ``Involution``  -- strictly decreasing f with f(f(x)) = x, assembled
                     from a decreasing branch f0 on (inf I, a];
* ``Conjugate``   -- phi^{-1} o f o phi for a mean generator phi.

``enumerate_families`` lists which families solve a given (n, k) on a
given interval, with slopes pulled from the characteristic-root report;
for k and n both even it reports the unsolved regime instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charpoly import CharProblem, RootReport, analyze_roots
from .errors import (
    BadAnchor,
    ConstructionError,
    DomainError,
    DomainMismatch,
    NotAnInvolution,
    NotSurjective,
)
from .intervals import Interval, finite_real
from .means import Generator

_REL_SLACK = 1e-12


def _contains_with_slack(interval: Interval, y: float) -> bool:
    if interval.contains(y):
        return True
    slack = _REL_SLACK * (1.0 + abs(y))
    return interval.lo - slack <= y <= interval.hi + slack


class Solution:
    """Base class: a strictly monotone function on an interval."""

    domain: Interval
    family: str = "abstract"

    # -- evaluation -------------------------------------------------------

    def __call__(self, x: float) -> float:
        if not _contains_with_slack(self.domain, x):
            raise DomainError(f"{x!r} outside domain {self.domain}")
        return float(self._eval_array(np.asarray([x], dtype=float))[0])

    def _eval_array(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- inversion --------------------------------------------------------

    def invert(self, y: float) -> float:
        """Solve f(x) = y; raises NotSurjective for y outside the image."""
        if not _contains_with_slack(self.image(), y):
            raise NotSurjective(f"{y!r} outside image {self.image()}")
        return float(self._invert_array(np.asarray([y], dtype=float))[0])

    def _invert_array(self, ys: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def inverse(self) -> "Solution":
        """The inverse as a solution object on the same domain.

        Only available when f maps its domain onto itself.
        """
        from .errors import NotInvertible

        if not self.is_bijection_onto_domain():
            raise NotInvertible(
                f"{self.family} maps {self.domain} onto {self.image()}, "
                "not onto its own domain"
            )
        return self._inverse_spec()

    def _inverse_spec(self) -> "Solution":
        raise NotImplementedError

    # -- structure -----------------------------------------------------------

    @property
    def is_increasing(self) -> bool:
        raise NotImplementedError

    def image(self) -> Interval:
        raise NotImplementedError

    def is_bijection_onto_domain(self) -> bool:
        img, dom = self.image(), self.domain
        lo_ok = img.lo == dom.lo or math.isclose(
            img.lo, dom.lo, rel_tol=1e-12, abs_tol=1e-12
        )
        hi_ok = img.hi == dom.hi or math.isclose(
            img.hi, dom.hi, rel_tol=1e-12, abs_tol=1e-12
        )
        return lo_ok and hi_ok

    # -- serialization ----------------------------------------------------------

    def params_json(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "params": self.params_json(),
            "domain": self.domain.to_json(),
        }


def _check_image_contained(sol: Solution) -> None:
    img, dom = sol.image(), sol.domain
    slack_lo = _REL_SLACK * (1.0 + abs(dom.lo)) if math.isfinite(dom.lo) else 0.0
    slack_hi = _REL_SLACK * (1.0 + abs(dom.hi)) if math.isfinite(dom.hi) else 0.0
    if img.lo < dom.lo - slack_lo or img.hi > dom.hi + slack_hi:
        raise ConstructionError(
            f"{sol.family} image {img} is not contained in domain {dom}"
        )


@dataclass(frozen=True)
class Identity(Solution):
    domain: Interval
    family = "identity"

    def _eval_array(self, xs):
        return xs.copy()

    def _invert_array(self, ys):
        return ys.copy()

    def _inverse_spec(self):
        return self

    @property
    def is_increasing(self):
        return True

    def image(self):
        return self.domain

    def params_json(self):
        return {}


@dataclass(frozen=True)
class Translation(Solution):
    domain: Interval
    c: float
    family = "translation"

    def __post_init__(self):
        _check_image_contained(self)

    def _eval_array(self, xs):
        return xs + self.c

    def _invert_array(self, ys):
        return ys - self.c

    def _inverse_spec(self):
        return Translation(self.domain, -self.c)

    @property
    def is_increasing(self):
        return True

    def image(self):
        lo = self.domain.lo + self.c if math.isfinite(self.domain.lo) else -math.inf
        hi = self.domain.hi + self.c if math.isfinite(self.domain.hi) else math.inf
        return Interval(lo, hi, self.domain.lo_closed, self.domain.hi_closed)

    def params_json(self):
        return {"c": self.c}


@dataclass(frozen=True)
class Affine(Solution):
    domain: Interval
    slope: float
    c: float
    family = "affine"

    def __post_init__(self):
        if self.slope == 0.0:
            raise ConstructionError("affine slope must be nonzero")
        _check_image_contained(self)

    def _eval_array(self, xs):
        return self.slope * xs + self.c

    def _invert_array(self, ys):
        return (ys - self.c) / self.slope

    def _inverse_spec(self):
        return Affine(self.domain, 1.0 / self.slope, -self.c / self.slope)

    @property
    def is_increasing(self):
        return self.slope > 0.0

    def image(self):
        def fwd(v: float) -> float:
            if math.isinf(v):
                return math.copysign(math.inf, v * self.slope)
            return self.slope * v + self.c

        a, b = fwd(self.domain.lo), fwd(self.domain.hi)
        if self.slope > 0:
            return Interval(a, b, self.domain.lo_closed, self.domain.hi_closed)
        return Interval(b, a, self.domain.hi_closed, self.domain.lo_closed)

    def params_json(self):
        return {"slope": self.slope, "c": self.c}


@dataclass(frozen=True)
class ThreePiece(Solution):
    """Identity on (a, b), slope r anchored at a below and at b above.

        f(x) = r*(x - a) + a   for x <= a
        f(x) = x               for a < x < b
        f(x) = r*(x - b) + b   for x >= b

    Arrays are evaluated through the clamp ``c = min(max(x, a), b)`` as
    ``(x - c)*r + c``, the inverse as ``(y - c)/r + c``, in five passes and
    without masks.  That is the branch arithmetic, operation for
    operation: ``c`` is ``a`` below ``a`` and ``b`` above ``b``, and inside
    ``(x - x)*r + x`` is ``x``; NaN and +-inf propagate as in the branches.
    The one bit that differs is the sign of a zero: ``x = -0.0`` strictly
    inside ``(a, b)`` maps to ``+0.0``, an equal value.  A zero anchor is
    stored as ``+0.0``: with ``a = +0.0`` and ``b = -0.0`` the clamp can
    pick ``b`` where the branch anchors at ``a``, and the two zeros then
    give results of opposite sign.
    """

    domain: Interval
    a: float
    b: float
    slope: float
    family = "three_piece"

    def __post_init__(self):
        object.__setattr__(self, "a", self.a + 0.0)
        object.__setattr__(self, "b", self.b + 0.0)
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ConstructionError("three-piece anchors must be finite")
        if self.a > self.b:
            raise ConstructionError(f"anchors need a <= b, got {self.a} > {self.b}")
        if self.slope <= 0.0 or self.slope == 1.0:
            raise ConstructionError(
                f"three-piece slope must be positive and != 1, got {self.slope}"
            )
        for v in (self.a, self.b):
            if not self.domain.contains_in_closure(v):
                raise ConstructionError(
                    f"anchor {v!r} outside closure of {self.domain}"
                )
        _check_image_contained(self)

    def _eval_array(self, xs):
        anchor = np.minimum(np.maximum(xs, self.a), self.b)
        out = np.subtract(xs, anchor)
        out *= self.slope
        out += anchor
        return out

    def _invert_array(self, ys):
        anchor = np.minimum(np.maximum(ys, self.a), self.b)
        out = np.subtract(ys, anchor)
        out /= self.slope
        out += anchor
        return out

    def _inverse_spec(self):
        return ThreePiece(self.domain, self.a, self.b, 1.0 / self.slope)

    @property
    def is_increasing(self):
        return True

    def image(self):
        def fwd(v: float) -> float:
            if v == -math.inf or v == math.inf:
                return v
            if v <= self.a:
                return self.slope * (v - self.a) + self.a
            if v >= self.b:
                return self.slope * (v - self.b) + self.b
            return v

        return Interval(
            fwd(self.domain.lo),
            fwd(self.domain.hi),
            self.domain.lo_closed,
            self.domain.hi_closed,
        )

    def params_json(self):
        return {"a": self.a, "b": self.b, "slope": self.slope}


class Involution(Solution):
    """Strictly decreasing self-inverse map assembled from one branch.

    ``f(x) = f0(x)`` for ``x <= a`` and ``f(x) = f0^{-1}(x)`` for
    ``x > a``, where f0 is continuous, strictly decreasing on the part of
    the domain left of ``a``, fixes ``a``, and tends to the domain's
    supremum at its infimum.  Built through :func:`build_involution`.
    """

    family = "involution"

    def __init__(
        self,
        domain: Interval,
        a: float,
        f0: Callable[[np.ndarray], np.ndarray],
        f0_inv: Callable[[np.ndarray], np.ndarray],
        table: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        self.domain = domain
        self.a = a
        self._f0 = f0
        self._f0_inv = f0_inv
        self._table = table

    def _eval_array(self, xs):
        xs = np.asarray(xs, dtype=float)
        out = np.empty_like(xs)
        low = xs <= self.a
        if np.any(low):
            out[low] = self._f0(xs[low])
        if np.any(~low):
            out[~low] = self._f0_inv(xs[~low])
        return out

    def _invert_array(self, ys):
        return self._eval_array(ys)

    def _inverse_spec(self):
        return self

    def invert(self, y: float) -> float:
        if not _contains_with_slack(self.domain, y):
            raise NotSurjective(f"{y!r} outside image {self.domain}")
        return self(y)

    @property
    def is_increasing(self):
        return False

    def image(self):
        return self.domain

    def params_json(self):
        if self._table is None:
            raise ConstructionError(
                "involutions built from callables do not serialize; "
                "use a breakpoint table"
            )
        xs, ys = self._table
        return {"a": self.a, "f0_table": {"x": list(xs), "y": list(ys)}}


class Conjugate(Solution):
    """Generator conjugate ``phi^{-1} o inner o phi`` on the generator domain."""

    family = "conjugate"

    def __init__(self, gen: Generator, inner: Solution):
        self.gen = gen
        self.inner = inner
        self.domain = gen.domain

    def _eval_array(self, xs):
        return self.gen.phi_inv(self.inner._eval_array(self.gen.phi(xs)))

    def _invert_array(self, ys):
        return self.gen.phi_inv(self.inner._invert_array(self.gen.phi(ys)))

    def _inverse_spec(self):
        return Conjugate(self.gen, self.inner.inverse())

    @property
    def is_increasing(self):
        return self.inner.is_increasing

    def image(self):
        inner_img = self.inner.image()
        # pull the inner image back through phi^{-1}
        if self.gen.increasing:
            lo = self.gen._phi_inv_limit(inner_img.lo)
            hi = self.gen._phi_inv_limit(inner_img.hi)
            return Interval(lo, hi, inner_img.lo_closed, inner_img.hi_closed)
        lo = self.gen._phi_inv_limit(inner_img.hi)
        hi = self.gen._phi_inv_limit(inner_img.lo)
        return Interval(lo, hi, inner_img.hi_closed, inner_img.lo_closed)

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
    close = (
        math.isclose(target.lo, got.lo, rel_tol=1e-9, abs_tol=1e-9)
        or (math.isinf(target.lo) and math.isinf(got.lo))
    ) and (
        math.isclose(target.hi, got.hi, rel_tol=1e-9, abs_tol=1e-9)
        or (math.isinf(target.hi) and math.isinf(got.hi))
    )
    if not close:
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
        wlo, whi = domain.window(10.0)
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


def enumerate_families(prob: CharProblem, domain: Interval) -> FamilyEnumeration:
    """The complete list of solution families for (n, k) on ``domain``.

    Slopes are pulled from the characteristic-root report.  When both k
    and n are even the continuous-solution classification is unresolved
    and the enumeration carries status ``open_problem`` (no families).
    """
    n, k = prob.n, prob.k

    def descriptors(*ds: FamilyDescriptor) -> FamilyEnumeration:
        return FamilyEnumeration("ok", tuple(ds))

    identity = FamilyDescriptor("identity", None, (), "f(x) = x")

    if k in (0, n):
        if n % 2 == 1 or (k == 0 and not domain.is_real_line):
            return descriptors(identity)
        root = analyze_roots(prob).real_root_in(-math.inf, 0.0)
        return descriptors(identity, _affine_descriptor(root))

    if prob.both_even:
        return FamilyEnumeration(OPEN_PROBLEM, ())

    k_odd = k % 2 == 1
    n_odd = n % 2 == 1

    if k_odd and n == 2 * k:
        return descriptors(
            FamilyDescriptor("translation", None, ("c",), "f(x) = x + c")
        )
    report = analyze_roots(prob)
    pos = _positive_root_not_one(report)
    if k_odd and not n_odd:
        return descriptors(_three_piece_descriptor(pos))
    # k even with n odd, or k and n both odd
    neg = report.real_root_in(-math.inf, 0.0)
    return descriptors(_affine_descriptor(neg), _three_piece_descriptor(pos))


def _affine_descriptor(slope: float) -> FamilyDescriptor:
    return FamilyDescriptor(
        "affine", slope, ("c",), f"f(x) = {slope!r}*x + c"
    )


def _three_piece_descriptor(slope: float) -> FamilyDescriptor:
    return FamilyDescriptor(
        "three_piece",
        slope,
        ("a", "b"),
        f"identity on (a,b), slope {slope!r} outside",
    )


def _positive_root_not_one(report: RootReport) -> float:
    hits = [r.value for r in report.real_roots if r.value > 0.0 and r.value != 1.0]
    if len(hits) != 1:
        raise DomainError(
            f"expected one positive root != 1 for {report.problem}, got {hits}"
        )
    return hits[0]


# ---------------------------------------------------------------------------
# Second-order equation f(f(x)) - (1 + rho) f(x) + rho x = 0
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SecondOrderProblem:
    rho: float
    domain: Interval

    def __post_init__(self):
        if self.rho == 0.0:
            raise DomainError("rho must be nonzero")


def second_order_families(prob: SecondOrderProblem) -> FamilyEnumeration:
    """Solution families of ``f^2 - (1 + rho) f + rho id = 0``.

    rho = 1 gives translations; positive rho != 1 the three-piece family
    with slope rho (which contains the identity and the anchored affine
    map as parameter limits); negative rho the identity plus affine maps
    of slope rho.
    """
    rho = prob.rho
    if rho == 1.0:
        return FamilyEnumeration(
            "ok", (FamilyDescriptor("translation", None, ("c",), "f(x) = x + c"),)
        )
    if rho > 0.0:
        return FamilyEnumeration("ok", (_three_piece_descriptor(rho),))
    return FamilyEnumeration(
        "ok",
        (
            FamilyDescriptor("identity", None, (), "f(x) = x"),
            _affine_descriptor(rho),
        ),
    )


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
        if math.isfinite(domain.lo):
            width = a - domain.lo
            probe = domain.lo + 1e-13 * width
            # values above the reachable branch are clamped to the probe
            above = float(f0(np.asarray([probe]))[0]) < vals
            lo = np.where(above, probe, domain.lo + 1e-300)
        else:
            lo = np.full_like(vals, a - 1.0)
            grow = np.ones(vals.shape, dtype=bool)
            while grow.any():
                grow[grow] = (f0(lo[grow]) < vals[grow]) & (lo[grow] > -1e300)
                lo[grow] = a - 2.0 * (a - lo[grow])
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


def build_involution(
    domain: Interval,
    a: float,
    f0: Callable | None = None,
    f0_inverse: Callable | None = None,
    f0_table: tuple | None = None,
    tol: float = 1e-9,
    grid: int = 257,
) -> Involution:
    """Assemble a strictly decreasing involution from one branch.

    ``f0`` acts on the part of the domain at or below the interior anchor
    ``a``; it must be continuous, strictly decreasing, fix ``a``, and tend
    to the domain supremum at the domain infimum.  Supply either a
    callable (optionally with its inverse) or a breakpoint table
    ``(xs, ys)`` interpolated piecewise-linearly.  The assembled map is
    ``f0`` left of ``a`` and ``f0^{-1}`` right of it; the construction is
    rejected if ``f(f(x))`` strays from ``x`` by more than ``tol``
    relative on a verification grid.
    """
    if not (domain.is_open or domain.is_closed):
        raise DomainError(
            f"involutions need an open or closed domain, got {domain}"
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
        table = (xs, ys)
    elif f0 is not None:
        def f0_fn(v: np.ndarray) -> np.ndarray:
            return np.asarray(f0(v), dtype=float)

        if f0_inverse is not None:
            def f0_inv_fn(v: np.ndarray) -> np.ndarray:
                return np.asarray(f0_inverse(v), dtype=float)
        else:
            f0_inv_fn = _numeric_inverse(f0_fn, domain, a)
        table = None
    else:
        raise ConstructionError("supply f0 (callable) or f0_table")

    anchor_val = float(f0_fn(np.asarray([a]))[0])
    if abs(anchor_val - a) > tol * (1.0 + abs(a)):
        raise BadAnchor(f"f0({a!r}) = {anchor_val!r} != {a!r}")

    _check_boundary_limit(f0_fn, domain, a)

    sol = Involution(domain, a, f0_fn, f0_inv_fn, table)

    wlo, whi = domain.window(10.0)
    width = whi - wlo
    off = 1e-6 * width
    pts = np.linspace(wlo + off, whi - off, grid)
    vals = sol._eval_array(pts)
    # strict decrease of the assembled map
    if np.any(np.diff(vals) >= 0):
        raise NotAnInvolution("assembled map is not strictly decreasing")
    round_trip = sol._eval_array(vals)
    err = np.max(np.abs(round_trip - pts) / (1.0 + np.abs(pts)))
    if not err <= tol:
        raise NotAnInvolution(
            f"f(f(x)) deviates from x by {err:.3e} (tol {tol:.1e})"
        )
    return sol


def _check_boundary_limit(f0_fn, domain: Interval, a: float) -> None:
    """Require f0 -> sup(domain) as x -> inf(domain)."""
    if math.isfinite(domain.lo):
        width = a - domain.lo
        probes = domain.lo + width * np.power(10.0, -np.arange(3, 10, dtype=float))
    else:
        probes = a - np.power(10.0, np.arange(3, 10, dtype=float))
    vals = f0_fn(np.asarray(probes, dtype=float))
    last = float(vals[-1])
    if math.isfinite(domain.hi):
        if abs(last - domain.hi) > 1e-5 * (1.0 + abs(domain.hi)):
            raise BadAnchor(
                f"f0 tends to {last!r} at the domain infimum, expected "
                f"{domain.hi!r}"
            )
    else:
        if last < 1e6:
            raise BadAnchor(
                f"f0 stays bounded ({last!r}) approaching the domain infimum "
                "but the domain is unbounded above"
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
    if family == "involution":
        table = _object(params, "f0_table")
        return build_involution(
            domain, finite_real(params["a"], "a"), f0_table=(table["x"], table["y"])
        )
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
