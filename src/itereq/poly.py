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


def _disk_radii(h: np.ndarray, dh: np.ndarray, magnitude: np.ndarray, n: int) -> np.ndarray:
    """Radii ``n |p(z_i) / p'(z_i)|`` of the Newton inclusion disks around ``z``.

    ``h``, ``dh`` and ``magnitude`` are the scaled ``p(z_i)``, ``p'(z_i)``
    and ``sum |c_k| |z_i|^k`` of ``_kernels.horner_scaled_bound``, and n is
    the degree of ``p``.  Since
    ``p'(z) / p(z) = sum_j 1 / (z - r_j)``, some root lies within
    ``n |p(z) / p'(z)|`` of ``z``: every disk holds a root, so n pairwise
    disjoint disks hold one simple root each.  ``|p(z_i)|`` is taken with a
    bound on Horner's rounding error added, so that noise near a multiple
    root cannot shrink a disk.  A vanishing derivative, or a bound that
    overflowed, gets an infinite radius.
    """
    rounding = 4.0 * n * np.finfo(float).eps * magnitude
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        radius = n * ((np.abs(h) + rounding) / np.abs(dh))
    return np.where(np.isnan(radius), np.inf, radius)


def _overlapping_disks(z: np.ndarray, radius: np.ndarray) -> tuple[int, int] | None:
    """Two estimates whose disks ``|w - z_i| <= radius_i`` meet, or None: a
    sweep in real order, in O(n) memory.  Disks that meet have real parts
    within ``2 max(radius)``, and in real order that gap only grows with the
    offset d; so each estimate is tested against the one d places on, only
    where that close, for d = 1, 2, ... until an offset has no such pair."""
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


def certified_roots(p: Polynomial, z: np.ndarray) -> list[ComplexRoot]:
    """The roots of ``p`` from one estimate per real root and per conjugate pair.

    ``z`` holds the real estimates (imaginary part exactly 0) and either
    member of each non-real pair, in any order; how they were made does not
    matter.  Four checks come first, each raising :class:`NonConvergence`
    named after it: the estimates stand for ``p.degree`` roots, a pair for
    two; every estimate finite (the first that is not is named); disjoint
    Newton inclusion disks (``_disk_radii``, ``_overlapping_disks``) over
    the estimates followed by the mirrors of the non-real ones, so that
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
    a constant, given no estimates, has none.
    """
    pair = z.imag != 0.0
    if (count := len(z) + np.count_nonzero(pair)) != p.degree:
        raise NonConvergence(f"{count} root estimates for degree {p.degree}")
    if not count:
        return []  # a constant: no roots, and no point to evaluate at
    finite = np.isfinite(z)
    if not finite.all():
        bad = complex(z[np.argmin(finite)])
        raise NonConvergence(f"root estimate {bad!r} is not finite")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h, dh, scale, magnitude = _kernels.horner_scaled_bound(p.as_array(), z)
    radius = _disk_radii(h, dh, magnitude, p.degree)
    disks = np.concatenate([z, z[pair].conj()])
    radii = np.concatenate([radius, radius[pair]])
    if (hit := _overlapping_disks(disks, radii)) is not None:
        i, j = hit
        raise NonConvergence(
            f"inclusion disks overlap: estimates {complex(disks[i])!r} and "
            f"{complex(disks[j])!r} lie {abs(disks[i] - disks[j]):.3e} apart with "
            f"radii {radii[i]:.3e} and {radii[j]:.3e}; the roots must be simple"
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

    z = z - h / dh
    re = np.concatenate([z.real, z.real[pair]])
    im = np.concatenate([np.where(pair, z.imag, 0.0), -z.imag[pair]])
    order = np.lexsort((im, re))
    return _root_records(
        re[order].tolist(), im[order].tolist(), np.hypot(re, im)[order].tolist()
    )


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
