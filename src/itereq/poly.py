"""Real-coefficient polynomials and their roots.

Coefficients are stored in ascending order (constant term first), matching
the characteristic form ``sum_i a_i r^i``.  A ``Polynomial`` computes its
float64 array and its coefficient norm once.
``certified_roots`` takes one estimate per root from any source, checks
their count and finiteness, draws disjoint Weierstrass inclusion disks
around them, applies the residual test, and reports each estimate after
one Weierstrass correction.
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


def _disk_radii(
    h: np.ndarray, denom: np.ndarray, magnitude: np.ndarray
) -> np.ndarray:
    """Radii ``n |W_i|`` of the Weierstrass inclusion disks around ``z``.

    ``W_i = p(z_i) / (c_n prod_{j != i} (z_i - z_j))`` is the Durand-Kerner
    correction; ``h`` and ``magnitude`` are the scaled ``p(z_i)`` and
    ``sum |c_k| |z_i|^k`` of ``_kernels.horner_scaled_bound``, ``denom``
    the denominators of ``_kernels.dk_denominators``, scaled alike.  The
    disks cover every root, and a connected union of m of them holds
    exactly m roots (Braess & Hadeler, 1973), so a disk that meets no
    other holds exactly one simple root.  ``|p(z_i)|`` is taken with a
    bound on Horner's rounding error added, so that noise near a multiple
    root cannot shrink a disk.  A collapsed pair of estimates, or a bound
    that overflowed, gets an infinite radius.
    """
    n = len(h)
    rounding = 4.0 * n * np.finfo(float).eps * magnitude
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = (np.abs(h) + rounding) / np.abs(denom)
    radius = n * w
    return np.where(np.isnan(radius), np.inf, radius)


def certified_roots(p: Polynomial, z: np.ndarray) -> list[ComplexRoot]:
    """The roots of ``p`` from one estimate per root, certified and corrected once.

    ``z`` lists the real estimates (zero imaginary part), then those above
    the real axis, then their exact conjugates in the same order; how the
    estimates were made does not matter.  Four checks come first, each
    raising :class:`NonConvergence` named after it: one estimate per root;
    every estimate finite (the first that is not is named); pairwise
    disjoint Weierstrass inclusion disks, so that each holds exactly one
    simple root (two that overlap are named, since a multiple root, or a
    cluster the estimates cannot separate, is outside this solver's
    contract); and the residual test, where every ``|p(z_i)|`` must lie
    within ``ROOT_RESIDUAL_TOL`` of the coefficient norm or of the
    evaluation magnitude at ``z_i``, whichever is larger, with a finite
    limit.  Both sides are scaled as ``_kernels.horner_scaled_bound``
    scales them, so that the test cannot overflow.

    Each estimate then takes exactly one Weierstrass (Durand-Kerner)
    correction ``z_i - W_i``, from the same values the disks read: one
    kernel pass per call.  The real ones are made real again and each pair
    exact conjugates (their mean), since ``W_i`` rounds differently for
    the two members of a pair.  ``|W_i|`` is at most ``1/n`` of the disk
    radius, so every reported root lies inside its own certified disk.
    Every root is reported with multiplicity 1, sorted by real, then
    imaginary part.
    """
    if len(z) != p.degree:
        raise NonConvergence(f"{len(z)} root estimates for degree {p.degree}")
    finite = np.isfinite(z)
    if not finite.all():
        bad = complex(z[np.argmin(finite)])
        raise NonConvergence(f"root estimate {bad!r} is not finite")
    c = p.as_array()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h, scale, magnitude = _kernels.horner_scaled_bound(c, z)
        diff = z[:, None] - z[None, :]
        distance = np.abs(diff)
        denom = _kernels.dk_denominators(c, z, diff)
    radius = _disk_radii(h, denom, magnitude)
    touch = distance <= radius[:, None] + radius[None, :]
    np.fill_diagonal(touch, False)
    if touch.any():
        i, j = np.argwhere(touch)[0]
        raise NonConvergence(
            f"inclusion disks overlap: estimates {complex(z[i])!r} and "
            f"{complex(z[j])!r} lie {distance[i, j]:.3e} apart with radii "
            f"{radius[i]:.3e} and {radius[j]:.3e}; the roots must be simple"
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

    nr = int(np.count_nonzero(z.imag == 0.0))
    nu = (len(z) - nr) // 2
    z = z - h / denom
    upper = 0.5 * (z[nr : nr + nu] + z[nr + nu :].conj())
    re = np.concatenate([z[:nr].real, upper.real, upper.real])
    im = np.concatenate([np.zeros(nr), upper.imag, -upper.imag])
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
