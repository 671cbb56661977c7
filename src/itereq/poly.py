"""Real-coefficient polynomials and their roots.

Coefficients are stored in ascending order (constant term first), matching
the characteristic form ``sum_i a_i r^i``.  A ``Polynomial`` computes its
float64 array and its coefficient norm once.
``certified_roots`` takes one estimate per real root and per conjugate
pair from any source, checks them, draws disjoint Newton inclusion disks,
applies the residual test, and reports each root after one Newton step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from . import _kernels
from .errors import NonConvergence

ROOT_RESIDUAL_TOL = 1e-12  # relative residual limit of every root (certified_roots)
_EPS = float(np.finfo(float).eps)
# 1 + 8 eps: covers the rounding of the ten float operations, at most
# 6.5 eps, that give a radius ``certified_roots`` hands back
_RADIUS_ROUND_UP = 1.0 + 8.0 * _EPS


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with real coefficients, ascending by power.

    ``coeffs`` is never empty; trailing zeros are stripped on construction
    so that ``degree == len(coeffs) - 1`` (the zero polynomial keeps a
    single 0.0 coefficient).  The float64 array and ``inf_norm`` are
    computed once at construction; they take no part in equality or
    hashing.
    """

    coeffs: tuple[float, ...]
    _array: np.ndarray = field(init=False, repr=False, compare=False)
    _inf_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cs = [float(c) for c in self.coeffs]
        if not cs:
            raise ValueError("a polynomial needs at least one coefficient")
        while len(cs) > 1 and cs[-1] == 0.0:
            cs.pop()
        arr = np.array(cs, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_array", arr)
        object.__setattr__(self, "_inf_norm", max(map(abs, cs)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def inf_norm(self) -> float:
        """Largest absolute coefficient, the scale for residual tolerances."""
        return self._inf_norm

    def as_array(self) -> np.ndarray:
        """The coefficients as a read-only float64 array, shared by every caller."""
        return self._array

    def __str__(self) -> str:
        terms = [f"{c:+g}*r^{i}" for i, c in enumerate(self.coeffs) if c != 0.0]
        return " ".join(terms) if terms else "0"


@dataclass(frozen=True)
class ComplexRoot:
    """One root of a polynomial with its multiplicity.

    ``certified_roots`` always reports multiplicity 1; the field stays
    because the JSON root reports and the benchmark's root gate read it.

    ``modulus`` is cached at construction as ``np.hypot(re, im)``; a
    caller that already holds that value may pass it (``certified_roots``
    builds its records with ``_root_records`` from one vectorized
    ``np.hypot``, skipping this constructor).  Roots with
    nonzero imaginary part always travel in conjugate pairs inside any
    root list produced here.
    """

    re: float
    im: float
    multiplicity: int = 1
    modulus: float | None = None

    def __post_init__(self) -> None:
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")
        if self.modulus is None:
            object.__setattr__(self, "modulus", float(np.hypot(self.re, self.im)))

    def as_complex(self) -> complex:
        return complex(self.re, self.im)


def _rounding_bounds(magnitude: np.ndarray, modulus: np.ndarray, n: int) -> tuple:
    """Bounds ``(r_h, r_dh)`` on Horner's rounding of the ``h`` and ``dh``
    of ``_kernels.horner_scaled_bound`` (Higham, 2002, ch. 5), from its
    ``magnitude``, ``modulus = |z_i|`` and the degree n: ``r_h = 4 n eps
    magnitude`` and ``r_dh = 4 n^2 eps magnitude / |z_i|``, which is at
    least ``4 n eps sum_j j |c_j| |z_i|^(j-1)`` in both regimes, scaled as
    ``magnitude`` is, and 0 at ``z_i = 0``, where Horner's scheme is exact."""
    r_h = 4.0 * n * _EPS * magnitude
    return r_h, np.divide(n * r_h, modulus, out=np.zeros(len(r_h)), where=modulus > 0.0)


def _disk_radii(
    h: np.ndarray, dh: np.ndarray, magnitude: np.ndarray, modulus: np.ndarray, n: int
) -> np.ndarray:
    """Radii ``n (|h| + r_h) / (|dh| - r_dh)`` of the Newton inclusion disks
    around ``z``, from the scaled ``p(z_i)``, ``p'(z_i)`` and ``sum |c_k|
    |z_i|^k`` of ``_kernels.horner_scaled_bound``, ``modulus = |z_i|``, the
    degree n and the bounds of ``_rounding_bounds``.  Since ``p'(z) / p(z) =
    sum_j 1 / (z - r_j)``, some root lies within ``n |p(z) / p'(z)|`` of z:
    n pairwise disjoint disks hold one simple root each.  A radius is
    infinite where its denominator is not positive or a bound overflowed.
    It runs under ``certified_roots``'s ``np.errstate``."""
    r_h, r_dh = _rounding_bounds(magnitude, modulus, n)
    below = np.abs(dh) - r_dh
    radius = n * ((np.abs(h) + r_h) / below)
    radius[~(below > 0.0)] = np.inf
    return radius


def _overlapping_disks(z: np.ndarray, radius: np.ndarray) -> tuple[int, int] | None:
    """Two estimates whose disks ``|w - z_i| <= radius_i`` meet, or None: a
    sweep in real order, in O(n) memory.  Disks that meet have real parts
    within ``2 max(radius)``, and in real order that gap only grows with the
    offset d; so each estimate is tested against the one d places on, only
    where that close, for d = 1, 2, ... until an offset has no such pair.
    The disks are taken as given; ``_meeting_disks`` adds the mirrors."""
    order = np.argsort(z.real, kind="stable")
    w, r = z[order], radius[order]
    reach = 2.0 * r.max()
    for d in range(1, len(z)):
        i = np.flatnonzero(w.real[d:] - w.real[:-d] <= reach)
        if not i.size:
            return None
        hit = i[np.abs(w[i + d] - w[i]) <= r[i] + r[i + d]]
        if hit.size:
            return int(order[hit[0]]), int(order[hit[0] + d])
    return None


def _meeting_disks(z: np.ndarray, radius: np.ndarray) -> tuple | None:
    """Two disks that meet, as (centre, radius), among the disks ``|w - z_i|
    <= radius_i`` and the mirrors of the non-real ones; or None.  With each
    ``z_i`` taken into the closed upper half-plane, they are disjoint
    exactly when the ``_overlapping_disks`` sweep finds nothing and each
    non-real disk misses the axis, ``radius_i < |Im z_i|`` (else it is
    named with its mirror): a disk and another's mirror lie ``Im z_i + Im
    z_j`` apart, and a real disk meets a mirror only if it meets the disk."""
    im = np.abs(z.imag)
    axis = (im != 0.0) & ~(radius < im)
    if axis.any():
        i = int(np.argmax(axis))
        return (complex(z[i]), radius[i]), (complex(z[i]).conjugate(), radius[i])
    upper = np.where(z.imag < 0.0, z.conj(), z)
    if (hit := _overlapping_disks(upper, radius)) is None:
        return None
    return tuple((complex(upper[i]), radius[i]) for i in hit)


def certified_roots(p: Polynomial, z: np.ndarray) -> tuple[list[ComplexRoot], np.ndarray]:
    """The roots of ``p`` and their radii, from one estimate per real root
    and per conjugate pair.

    ``z`` holds the real estimates (imaginary part exactly 0) and either
    member of each non-real pair, in any order; how they were made does not
    matter.  Four checks come first, each raising :class:`NonConvergence`
    named after it: the estimates stand for ``p.degree`` roots, a pair for
    two; every estimate finite (the first that is not is named); disjoint
    Newton inclusion disks (``_disk_radii``, ``_meeting_disks``) over
    the estimates and the mirrors of the non-real ones, so that
    each holds exactly one simple root and a non-real disk no real point
    (two that overlap are named, since a multiple root, or a cluster the
    estimates cannot separate, is outside this solver's contract); and the
    residual test, where every ``|p(z_i)|`` must lie within
    ``ROOT_RESIDUAL_TOL`` of the coefficient norm or of the evaluation
    magnitude at ``z_i``, whichever is larger, with a finite limit.  Both
    sides are scaled as ``_kernels.horner_scaled_bound`` scales them, so
    that the test cannot overflow.

    Each estimate then takes one Newton step ``z_i - p(z_i) / p'(z_i)``
    from the values the disks read: one kernel pass, over the given points.
    The real ones are made real again; each pair is its corrected member
    and that member's conjugate.  The step is at most ``1/n`` of the disk
    radius, so every root lies inside its own certified disk.  Every root
    is reported with multiplicity 1, sorted by real, then imaginary part;
    a constant, given no estimates, has none.  Beside the roots, in their
    order, comes each one's radius, its disk's plus its step, rounded up:
    the root it stands for lies within it.
    """
    pair = z.imag != 0.0
    if (count := len(z) + np.count_nonzero(pair)) != p.degree:
        raise NonConvergence(f"{count} root estimates for degree {p.degree}")
    if not count:
        return [], np.empty(0)  # a constant: no roots, and no point to evaluate at
    finite = np.isfinite(z)
    if not finite.all():
        bad = complex(z[np.argmin(finite)])
        raise NonConvergence(f"root estimate {bad!r} is not finite")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h, dh, scale, magnitude = _kernels.horner_scaled_bound(p.as_array(), z)
        radius = _disk_radii(h, dh, magnitude, np.abs(z), p.degree)
    if (hit := _meeting_disks(z, radius)) is not None:
        (a, ra), (b, rb) = hit
        raise NonConvergence(
            f"inclusion disks overlap: estimates {a!r} and {b!r} lie {abs(a - b):.3e} "
            f"apart with radii {ra:.3e} and {rb:.3e}; the roots must be simple"
        )
    resid = np.abs(h)
    allowed = ROOT_RESIDUAL_TOL * np.maximum(p.inf_norm * scale, magnitude)
    if not (np.all(resid <= allowed) and np.max(allowed) < np.inf):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            worst = float(np.max(resid / allowed))
            # max |p(z_i)|: a zero scaled residual reads 0 where scale underflowed
            best = float(np.max(resid / np.where(h == 0, 1.0, scale)))
        raise NonConvergence(
            f"root residual {worst:.3e} times its limit at the estimates",
            best_residual=best,
        )

    w = z - h / dh
    radius = (radius + np.abs(w - z)) * _RADIUS_ROUND_UP
    w = np.concatenate([w, w[pair].conj()])
    w.imag[: len(z)][~pair] = 0.0
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    roots = _root_records(w.real.tolist(), w.imag.tolist(), np.hypot(w.real, w.imag).tolist())
    return roots, np.concatenate([radius, radius[pair]])[order]


def _root_records(re: list, im: list, modulus: list) -> list[ComplexRoot]:
    """Simple roots with their moduli, built without ``ComplexRoot.__init__``.

    The frozen dataclass's ``__init__`` and ``__post_init__`` cost about
    a microsecond per root; filling each instance dictionary directly
    gives records equal to ``ComplexRoot(re, im, 1, modulus)``.
    """
    out = []
    for r, i, m in zip(re, im, modulus):
        root = object.__new__(ComplexRoot)
        fields = root.__dict__
        fields["re"] = r
        fields["im"] = i
        fields["multiplicity"] = 1
        fields["modulus"] = m
        out.append(root)
    return out
