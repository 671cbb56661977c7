"""Real-coefficient polynomials: evaluation, division, and root finding.

Coefficients are stored in ascending order (constant term first), matching
the characteristic form ``sum_i a_i r^i``.  A ``Polynomial`` computes its
float64 array, its descending coefficients and its coefficient norm once.
``all_roots`` gives the whole spectrum of a polynomial with simple roots:
companion-matrix eigenvalues, checked by Weierstrass inclusion disks and
polished by Durand-Kerner sweeps.  ``bisect_root`` and ``newton_polish``
isolate and sharpen a single real root in a known bracket; nothing in the
package calls them, and they are kept because the benchmark's tracer
(``perfbench/tracer.py``) wraps them by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from . import _kernels
from .errors import NonConvergence, NoSignChange, RootMismatch

ROOT_RESIDUAL_TOL = 1e-12  # relative residual limit of every root (all_roots)


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with real coefficients, ascending by power.

    ``coeffs`` is never empty; trailing zeros are stripped on construction
    so that ``degree == len(coeffs) - 1`` (the zero polynomial keeps a
    single 0.0 coefficient).  The float64 array, the descending
    coefficients that scalar evaluation runs over, and ``inf_norm`` are
    computed once at construction; they take no part in equality or
    hashing.
    """

    coeffs: tuple[float, ...]
    _array: np.ndarray = field(init=False, repr=False, compare=False)
    _desc: tuple[float, ...] = field(init=False, repr=False, compare=False)
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
        object.__setattr__(self, "_desc", tuple(reversed(cs)))
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

    ``all_roots`` always reports multiplicity 1; the field stays because
    the JSON root reports and the benchmark's root gate read it.

    ``modulus`` is cached at construction as ``np.hypot(re, im)``; a
    caller that already holds that value (``all_roots`` takes every
    modulus from one vectorized ``np.hypot``) may pass it.  Roots with
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


def evaluate(p: Polynomial, x):
    """Evaluate ``p`` at ``x`` (scalar or ndarray) via Horner's scheme."""
    if isinstance(x, np.ndarray):
        return _kernels.horner_vec(p.as_array(), np.asarray(x, dtype=np.float64))
    return _kernels.horner(p._desc, float(x))


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


def all_roots(p: Polynomial) -> list[ComplexRoot]:
    """All complex roots of a real polynomial whose roots are all simple.

    Starts from the companion-matrix eigenvalues, which are backward
    stable (Edelman & Murakami, 1995), and draws the Weierstrass
    inclusion disk around each.  The disks must be pairwise disjoint, so
    that each holds exactly one simple root; two overlapping disks raise
    :class:`NonConvergence` naming both estimates, since a multiple root
    (or a cluster the estimates cannot separate) is outside this solver's
    contract.  The estimates are then polished by Durand-Kerner sweeps.
    A real estimate's disk is symmetric about the real axis, so real
    estimates stay real roots and conjugate pairs stay pairs; the sweeps
    re-symmetrize both exactly after each correction.  Every value comes
    from one kernel, ``_kernels.horner_scaled_bound``: the first sweep
    reuses the values of the disks, and the residual test those the sweeps
    end with, so sweeps that stop at their first check cost one pass.
    Every root must leave a residual within ``ROOT_RESIDUAL_TOL`` of the
    coefficient norm or of the evaluation magnitude at the root, whichever
    is larger, both scaled as that kernel scales them so that the test cannot
    overflow.  A root that misses it, or whose limit is not finite (the
    root is not, or its rounding bound overflowed), raises
    :class:`NonConvergence`.  Every root is reported with multiplicity 1.
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    c = p.as_array()
    z = _companion_eigenvalues(c)
    # real estimates, then those above the axis, then their exact conjugates
    upper = z[z.imag > 0.0]
    z = np.concatenate([z[z.imag == 0.0].real, upper, upper.conj()]).astype(np.complex128)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = _kernels.horner_scaled_bound(c, z)
        diff = z[:, None] - z[None, :]
        distance = np.abs(diff)
        denom = _kernels.dk_denominators(c, z, diff)
    radius = _disk_radii(values[0], denom, values[2])
    touch = distance <= radius[:, None] + radius[None, :]
    np.fill_diagonal(touch, False)
    if touch.any():
        i, j = np.argwhere(touch)[0]
        raise NonConvergence(
            f"inclusion disks overlap: estimates {complex(z[i])!r} and "
            f"{complex(z[j])!r} lie {distance[i, j]:.3e} apart with radii "
            f"{radius[i]:.3e} and {radius[j]:.3e}; all_roots needs simple roots"
        )

    z, (h, scale, magnitude), _ = _kernels.dk_sweeps(
        c, z, ROOT_RESIDUAL_TOL * p.inf_norm, (values, denom)
    )
    resid = np.abs(h)
    allowed = ROOT_RESIDUAL_TOL * np.maximum(p.inf_norm * scale, magnitude)
    if not (np.all(resid <= allowed) and np.max(allowed) < np.inf):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            worst = float(np.max(resid / allowed))
            # max |p(z_i)|: a zero scaled residual reads 0 where scale underflowed
            best = float(np.max(resid / np.where(h == 0, 1.0, scale)))
        raise NonConvergence(
            f"root residual {worst:.3e} times its limit after polishing",
            best_residual=best,
        )
    re, im = z.real, z.imag
    order = np.lexsort((im, re))
    return [
        ComplexRoot(r, i, 1, m)
        for r, i, m in zip(
            re[order].tolist(), im[order].tolist(), np.hypot(re, im)[order].tolist()
        )
    ]
