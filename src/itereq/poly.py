"""Real-coefficient polynomials: evaluation, division, and root finding.

Coefficients are stored in ascending order (constant term first), matching
the characteristic form ``sum_i a_i r^i``.  Root finding is split between
bracketed bisection (for real roots with known isolation intervals) and
companion-matrix eigenvalues polished by Durand-Kerner sweeps (for the
full complex spectrum).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .errors import NonConvergence, NoSignChange, RootMismatch


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with real coefficients, ascending by power.

    ``coeffs`` is never empty; trailing zeros are stripped on construction
    so that ``degree == len(coeffs) - 1`` (the zero polynomial keeps a
    single 0.0 coefficient).
    """

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        cs = [float(c) for c in self.coeffs]
        if not cs:
            raise ValueError("a polynomial needs at least one coefficient")
        while len(cs) > 1 and cs[-1] == 0.0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def inf_norm(self) -> float:
        """Largest absolute coefficient, the scale for residual tolerances."""
        return max(abs(c) for c in self.coeffs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=np.float64)

    def __call__(self, x):
        return evaluate(self, x)

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0.0,))
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def scaled(self, factor: float) -> "Polynomial":
        return Polynomial(tuple(factor * c for c in self.coeffs))

    def __str__(self) -> str:
        terms = [f"{c:+g}*r^{i}" for i, c in enumerate(self.coeffs) if c != 0.0]
        return " ".join(terms) if terms else "0"


@dataclass(frozen=True)
class ComplexRoot:
    """One root of a polynomial with its multiplicity.

    ``modulus`` is cached at construction; roots with nonzero imaginary
    part always travel in conjugate pairs inside any root list produced
    here.
    """

    re: float
    im: float
    multiplicity: int = 1
    modulus: float = field(default=0.0)

    def __post_init__(self) -> None:
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")
        object.__setattr__(self, "modulus", float(np.hypot(self.re, self.im)))

    @property
    def is_real(self) -> bool:
        return self.im == 0.0

    def as_complex(self) -> complex:
        return complex(self.re, self.im)


def evaluate(p: Polynomial, x):
    """Evaluate ``p`` at ``x`` (scalar or ndarray) via Horner's scheme."""
    if isinstance(x, np.ndarray):
        return _kernels.horner_vec(p.as_array(), np.asarray(x, dtype=np.float64))
    return float(_kernels.horner(p.as_array(), float(x)))


def multiply_linear(p: Polynomial, root_shift: float) -> Polynomial:
    """Return ``p(r) * (r - root_shift)``; the degree grows by one."""
    cs = p.coeffs
    out = [0.0] * (len(cs) + 1)
    for i, c in enumerate(cs):
        out[i + 1] += c
        out[i] -= root_shift * c
    return Polynomial(tuple(out))


def eval_condition_scale(p: Polynomial, x: float) -> float:
    """``sum |c_i| |x|^i``: the magnitude against which p(x) can be resolved.

    Horner's rounding error is a small multiple of eps times this sum, so
    residual tolerances at points of large modulus must be read relative
    to it, not to the coefficient norm.
    """
    ax = abs(x)
    total = 0.0
    power = 1.0
    for c in p.coeffs:
        total += abs(c) * power
        power *= ax
    return total


def deflate(p: Polynomial, root: float, tol: float = 1e-9) -> Polynomial:
    """Divide out ``(r - root)`` by synthetic division.

    Requires the remainder ``p(root)`` to be small: at most ``tol`` times
    the larger of the coefficient norm and the evaluation magnitude
    ``sum |c_i| |root|^i`` (the best resolution double precision offers
    at the point); raises :class:`RootMismatch` otherwise.  Division runs
    from the leading coefficient for ``|root| <= 1`` and from the
    constant term otherwise, which keeps the quotient stable for roots
    of any modulus.
    """
    scale = max(p.inf_norm, eval_condition_scale(p, root))
    remainder = evaluate(p, root)
    if abs(remainder) > tol * scale:
        raise RootMismatch(
            f"{root!r} is not a root: remainder {remainder:.3e} exceeds "
            f"{tol:.1e} * {scale:.3e}"
        )
    cs = p.coeffs
    if len(cs) == 1:
        raise RootMismatch("cannot deflate a constant polynomial")
    out = [0.0] * (len(cs) - 1)
    if abs(root) <= 1.0:
        acc = 0.0
        for i in range(len(cs) - 1, 0, -1):
            acc = acc * root + cs[i]
            out[i - 1] = acc
    else:
        out[0] = -cs[0] / root
        for i in range(1, len(cs) - 1):
            out[i] = (out[i - 1] - cs[i]) / root
    return Polynomial(tuple(out))


def bisect_root(
    p: Polynomial,
    lo: float,
    hi: float,
    tol: float = 1e-10,
) -> float:
    """Locate the sign-change point of ``p`` inside ``[lo, hi]``.

    The endpoints must straddle a sign change (:class:`NoSignChange`
    otherwise).  The result ``r`` satisfies ``|r - root| <= tol`` and the
    sign change is re-confirmed on ``[r - tol, r + tol]``;
    :class:`NonConvergence` is raised if the iteration budget runs out
    before the bracket narrows to ``tol``.
    """
    if not lo < hi:
        raise NoSignChange(f"empty bracket [{lo}, {hi}]")
    flo = evaluate(p, lo)
    fhi = evaluate(p, hi)
    if flo * fhi >= 0.0:
        raise NoSignChange(
            f"no sign change on [{lo}, {hi}]: p(lo)={flo:.3e}, p(hi)={fhi:.3e}"
        )
    mid, blo, bhi, _ = _kernels.bisect_loop(p.as_array(), lo, hi, flo, tol)
    if bhi - blo > max(tol, 4.0 * np.spacing(max(abs(blo), abs(bhi)))):
        raise NonConvergence(
            f"bisection stalled at width {bhi - blo:.3e} > tol {tol:.1e}",
            best_residual=abs(evaluate(p, mid)),
        )
    # confirm the sign change survives inside [r - tol, r + tol]
    a, b = max(lo, mid - tol), min(hi, mid + tol)
    if evaluate(p, a) * evaluate(p, b) > 0.0 and evaluate(p, blo) * evaluate(p, bhi) > 0.0:
        raise NonConvergence(
            f"sign change not confirmed within {tol:.1e} of {mid!r}",
            best_residual=abs(evaluate(p, mid)),
        )
    return mid


def newton_polish(p: Polynomial, x: float, steps: int = 3) -> float:
    """A few guarded Newton steps to sharpen an already-isolated root."""
    dp = p.derivative()
    best_x, best_f = x, abs(evaluate(p, x))
    for _ in range(steps):
        d = evaluate(dp, x)
        if d == 0.0:
            break
        x = x - evaluate(p, x) / d
        fx = abs(evaluate(p, x))
        if fx < best_f:
            best_x, best_f = x, fx
    return best_x


def _companion_eigenvalues(c: np.ndarray) -> np.ndarray:
    """Eigenvalues of the companion matrix of ascending coefficients ``c``.

    LAPACK balances the matrix and returns real eigenvalues with zero
    imaginary part and complex ones in exact conjugate pairs.
    """
    comp = np.diag(np.ones(len(c) - 2), -1)
    comp[0, :] = -c[-2::-1] / c[-1]
    return np.linalg.eigvals(comp)


def _disk_radii(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Radii ``n |W_i|`` of the Weierstrass inclusion disks around ``z``.

    ``W_i = p(z_i) / (c_n prod_{j != i} (z_i - z_j))`` is the Durand-Kerner
    correction.  The disks cover every root, and a connected union of m of
    them holds exactly m roots (Braess & Hadeler, 1973), so a disk that
    meets no other holds exactly one simple root.  ``|p(z_i)|`` is taken
    with a bound on Horner's rounding error added, so that noise near a
    multiple root cannot shrink a disk.  A collapsed pair of estimates
    gets an infinite radius.
    """
    n = len(z)
    rounding = 4.0 * n * np.finfo(float).eps * _kernels.horner_vec(np.abs(c), np.abs(z))
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = (np.abs(_kernels.horner_vec(c, z)) + rounding) / np.abs(c[-1] * np.prod(diff, axis=1))
    radius = n * w
    return np.where(np.isnan(radius), np.inf, radius)


def _cluster_labels(z: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Smallest index in the connected cluster of overlapping disks of each estimate."""
    touch = np.abs(z[:, None] - z[None, :]) <= radius[:, None] + radius[None, :]
    labels = np.arange(len(z))
    while True:
        nxt = np.where(touch, labels[None, :], len(z)).min(axis=1)
        if np.array_equal(nxt, labels):
            return labels
        labels = nxt


def _polish_simple(p: Polynomial, z0: np.ndarray, tol: float) -> list[ComplexRoot]:
    """Polish isolated estimates by Durand-Kerner and apply the residual test.

    Each estimate sits alone in its inclusion disk, which is symmetric
    about the real axis for a real estimate: real estimates stay real
    roots and conjugate pairs stay pairs, so both are re-symmetrized
    exactly after the sweeps.  Every root must then leave a residual
    within ``tol`` of the coefficient norm or of the evaluation magnitude
    at the root, whichever is larger.
    """
    c = p.as_array()
    real = z0[z0.imag == 0.0].real
    upper = z0[z0.imag > 0.0]
    nr, nu = len(real), len(upper)
    start = np.concatenate([real, upper, upper.conj()])
    z, _, _ = _kernels.dk_sweeps(c, start, tol * p.inf_norm, 1e-15)
    upper = 0.5 * (z[nr : nr + nu] + z[nr + nu :].conj())
    z = np.concatenate([z[:nr].real, upper, upper.conj()])

    resid = np.abs(_kernels.horner_vec(c, z))
    allowed = tol * np.maximum(p.inf_norm, _kernels.horner_vec(np.abs(c), np.abs(z)))
    if np.any(resid > allowed):
        worst = float(np.max(resid / allowed))
        raise NonConvergence(
            f"root residual {worst:.3e} times its limit after polishing",
            best_residual=float(np.max(resid)),
        )
    roots = [ComplexRoot(v.real, v.imag) for v in z]
    roots.sort(key=lambda r: (r.re, r.im))
    return roots


def _merge_clusters(
    p: Polynomial, z: np.ndarray, labels: np.ndarray, tol: float
) -> list[ComplexRoot]:
    """One root of multiplicity m per cluster of m overlapping disks.

    The cluster mean locates the multiple root far better than any of its
    members.  A real m-fold root is a simple root of the (m-1)-th
    derivative, where Newton recovers full double-precision accuracy.
    Clusters above the real axis are mirrored below it.  The merged list
    is accepted only if it re-expands to the coefficients of ``p``.
    """
    roots: list[ComplexRoot] = []
    for label in np.unique(labels):
        g = z[labels == label]
        m = len(g)
        center = complex(g.mean())
        if abs(center.imag) <= (1e-6 * (1.0 + abs(center)) if m > 1 else 0.0):
            dm = p
            for _ in range(m - 1):
                dm = dm.derivative()
            polished = newton_polish(dm, center.real, steps=4)
            spread = float(np.max(np.abs(g - center)))
            if abs(polished - center.real) <= 2.0 * spread + 10.0 * tol:
                center = complex(polished, 0.0)
            roots.append(ComplexRoot(center.real, 0.0, m))
        elif center.imag > 0.0:
            roots.append(ComplexRoot(center.real, center.imag, m))
            roots.append(ComplexRoot(center.real, -center.imag, m))
    roots.sort(key=lambda r: (r.re, r.im))
    err = _factorization_error(p, roots)
    if err > 1e-7 * max(1.0, float(p.degree)):
        raise NonConvergence(
            f"merged root clusters re-expand with coefficient error {err:.3e}",
            best_residual=err,
        )
    return roots


def _factorization_error(p: Polynomial, roots: Sequence[ComplexRoot]) -> float:
    """Worst coefficient mismatch of prod (r - root_i) against p, relative."""
    rebuilt = expand_root_list(roots, leading=p.coeffs[-1])
    if rebuilt.degree != p.degree:
        return np.inf
    scale = max(p.inf_norm, 1e-300)
    return max(
        abs(a - b) / scale for a, b in zip(rebuilt.coeffs, p.coeffs)
    )


def all_roots(p: Polynomial, tol: float = 1e-12) -> list[ComplexRoot]:
    """All complex roots (with multiplicity) of a real polynomial.

    Starts from the companion-matrix eigenvalues, which are backward
    stable (Edelman & Murakami, 1995), and draws the Weierstrass
    inclusion disk around each.  When the disks are pairwise disjoint
    every root is simple: the estimates are polished by Durand-Kerner
    sweeps and each must pass the residual test (``tol`` relative to the
    coefficient norm or to the evaluation magnitude at the root).
    Overlapping disks mark a multiple root: each connected cluster is
    reported as one root of its size, and the merged list must re-expand
    to the coefficients.  A failed test raises :class:`NonConvergence`.
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")

    # roots at exactly zero show up as trailing zero coefficients; peel
    # them off exactly rather than asking the eigensolver to resolve them
    zero_mult = 0
    while zero_mult < p.degree and p.coeffs[zero_mult] == 0.0:
        zero_mult += 1
    if zero_mult:
        zero_root = [ComplexRoot(0.0, 0.0, zero_mult)]
        if zero_mult == p.degree:
            return zero_root
        reduced = Polynomial(p.coeffs[zero_mult:])
        return sorted(
            zero_root + all_roots(reduced, tol), key=lambda r: (r.re, r.im)
        )

    c = p.as_array()
    z = _companion_eigenvalues(c)
    labels = _cluster_labels(z, _disk_radii(c, z))
    if len(np.unique(labels)) == len(z):
        return _polish_simple(p, z, tol)
    return _merge_clusters(p, z, labels, tol)


def from_roots(roots: Iterable[complex], leading: float = 1.0) -> Polynomial:
    """Expand ``leading * prod (r - root_i)`` back into coefficients."""
    cs = np.array([leading], dtype=np.complex128)
    for root in roots:
        nxt = np.zeros(len(cs) + 1, dtype=np.complex128)
        nxt[1:] += cs
        nxt[:-1] -= root * cs
        cs = nxt
    return Polynomial(tuple(float(c.real) for c in cs))


def expand_root_list(roots: Sequence[ComplexRoot], leading: float = 1.0) -> Polynomial:
    """Expand a multiplicity-annotated root list into a polynomial."""
    flat: list[complex] = []
    for r in roots:
        flat.extend([r.as_complex()] * r.multiplicity)
    return from_roots(flat, leading)
