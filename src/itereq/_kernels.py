"""Hot numeric kernels in plain NumPy.

The root-table analysis spends its time outside the eigenvalue solve in
two inner loops: Horner evaluation and the Durand-Kerner sweeps that
polish companion-matrix eigenvalues.  ``bisect_loop`` serves
``poly.bisect_root``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# recorded by the benchmark's environment block; there is no jitted path
USING_NUMBA = False

# Bisection/DK iteration caps.  60 halvings shrink any O(10^2) bracket below
# 1e-15; the caps only guard against cycling on pathological input.
BISECT_MAX_ITER = 240
DK_MAX_SWEEPS = 1200
# log2 of the largest |z|^n at which a degree-n polynomial is evaluated
# directly; past it ``horner_scaled`` evaluates the reversed polynomial.
DIRECT_EXP = 512.0


def horner(desc: Sequence[float], x: float) -> float:
    """Evaluate a polynomial at scalar ``x`` from its *descending* coefficients.

    The loop runs over Python floats: the same IEEE operations as over
    NumPy scalars, without their per-operation overhead.
    """
    acc = 0.0
    for c in desc:
        acc = acc * x + c
    return acc


def horner_vec(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Horner evaluation (ascending coefficients) broadcast over an array of points."""
    acc = np.zeros_like(x)
    for c in coeffs[::-1]:
        acc *= x
        acc += c
    return acc


def direct_radius(degree: int) -> float:
    """Largest ``|z|`` at which a polynomial of ``degree`` is evaluated directly.

    Up to ``|z|^degree = 2^DIRECT_EXP`` every partial sum of Horner's
    scheme stays below ``2^DIRECT_EXP sum |c_i|``, far inside the float
    range.
    """
    return 2.0 ** (DIRECT_EXP / max(degree, 1))


def horner_scaled(
    coeffs: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray | float]:
    """``p(z_i)``, divided by ``z_i^(n-1)`` where ``|z_i|^n`` could overflow.

    There the reversed polynomial ``w^n p(1/w)`` is evaluated at
    ``w = 1/z_i``, whose powers only shrink, so no value overflows however
    large ``z_i`` is.  Returns ``(h, s)`` with ``|p(z_i)| = |h_i| / s_i``:
    ``s_i = |z_i|^-(n-1)`` (zero once it underflows) at those points, and
    ``1`` elsewhere, where ``h_i`` is ``horner_vec(coeffs, z)[i]`` bit for
    bit.  ``s`` is the scalar 1.0 when no point needs scaling.
    """
    n = len(coeffs) - 1
    big = np.abs(z) > direct_radius(n)
    if not big.any():
        return horner_vec(coeffs, z), 1.0
    x = z.copy()
    x[big] = 1.0 / z[big]
    acc = np.zeros_like(x)
    for row in np.where(big, coeffs[:, None], coeffs[::-1, None]):
        acc *= x
        acc += row
    acc[big] *= z[big]
    s = np.ones(len(z))
    s[big] = np.abs(x[big]) ** (n - 1)
    return acc, s


def horner_scaled_bound(
    coeffs: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray | float, np.ndarray]:
    """``horner_scaled(coeffs, z)`` and its rounding scale, in one pass.

    Returns ``(h, s, magnitude)``: ``h`` and ``s`` as ``horner_scaled``
    gives them, and ``magnitude_i = sum_k |c_k| |z_i|^k``, divided by
    ``|z_i|^(n-1)`` where ``h_i`` is, which bounds Horner's rounding error
    in ``h_i``.  Both run through one loop over the coefficients, and
    each is bit for bit what ``horner_scaled(coeffs, z)`` and
    ``horner_scaled(np.abs(coeffs), np.abs(z))[0]`` give.
    """
    n = len(coeffs) - 1
    az = np.abs(z)
    big = az > direct_radius(n)
    x, ax = z.copy(), az.copy()
    if big.any():
        x[big] = 1.0 / z[big]
        ax[big] = 1.0 / az[big]
    rows = np.where(big, coeffs[:, None], coeffs[::-1, None])
    acc, mag = np.zeros_like(x), np.zeros_like(ax)
    for row, abs_row in zip(rows, np.abs(rows)):
        acc *= x
        acc += row
        mag *= ax
        mag += abs_row
    if not big.any():
        return acc, 1.0, mag
    acc[big] *= z[big]
    mag[big] *= az[big]
    s = np.ones(len(z))
    s[big] = np.abs(x[big]) ** (n - 1)
    return acc, s, mag


def dk_denominators(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``c_n prod_{j != i} (z_i - z_j)``, divided by ``z_i^(n-1)`` as in ``horner_scaled``.

    The quotient of the two is the Durand-Kerner correction of ``z_i``.
    """
    diff = z[:, None] - z[None, :]
    big = np.abs(z) > direct_radius(len(coeffs) - 1)
    if big.any():
        diff[big] /= z[big, None]
    np.fill_diagonal(diff, 1.0)
    return coeffs[-1] * np.prod(diff, axis=1)


def worst_residual(h: np.ndarray, s: np.ndarray | float) -> float:
    """``max |p(z_i)|`` from scaled values; infinite when one overflows."""
    with np.errstate(divide="ignore", over="ignore"):
        # a zero scaled residual reads 0 even where ``s`` underflowed to 0
        return float(np.max(np.abs(h) / np.where(h == 0, 1.0, s)))


def bisect_loop(
    coeffs: np.ndarray, lo: float, hi: float, flo: float, xtol: float,
) -> tuple[float, float, float, int]:
    """Shrink ``[lo, hi]`` (which brackets a sign change) to width <= xtol.

    Returns ``(mid, lo, hi, iterations)``; the final ``[lo, hi]`` still
    brackets the sign change.
    """
    it = 0
    desc = coeffs[::-1].tolist()
    while hi - lo > xtol and it < BISECT_MAX_ITER:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket at rounding resolution
            break
        fm = 0.0
        for c in desc:
            fm = fm * mid + c
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
        it += 1
    return 0.5 * (lo + hi), lo, hi, it


def dk_sweeps(
    coeffs: np.ndarray,
    z0: np.ndarray,
    resid_tol: float,
    step_tol: float,
    first: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, float, int]:
    """Durand-Kerner simultaneous iteration, vectorized over root estimates.

    ``coeffs`` is ascending with nonzero leading coefficient; ``z0`` holds
    the starting estimates.  Each correction is the quotient of
    ``horner_scaled`` and ``dk_denominators``, so an estimate of large
    modulus does not overflow.  ``first``, when given, is
    ``horner_scaled(coeffs, z0) + (dk_denominators(coeffs, z0),)`` already
    computed by the caller, and the first sweep uses it instead of
    evaluating them again.  Stops when every residual |p(z_i)| falls below
    ``resid_tol`` or every update is below ``step_tol``.  Returns the final
    estimates, the worst residual (infinite if it overflows), and the sweep
    count.  The steps are not guarded: the estimates must start apart, each
    near its own simple root (``poly.all_roots`` checks that with disjoint
    inclusion disks).  If two estimates meet, a denominator is zero and
    the estimates turn non-finite; the caller's residual test rejects them.
    """
    z = z0.astype(np.complex128)
    for sweeps in range(1, DK_MAX_SWEEPS + 1):
        h, s = horner_scaled(coeffs, z) if first is None else first[:2]
        if np.all(np.abs(h) <= resid_tol * s):
            best = worst_residual(h, s)
            break
        denom = dk_denominators(coeffs, z) if first is None else first[2]
        first = None
        dz = h / denom
        z -= dz
        if float(np.max(np.abs(dz))) <= step_tol * (1.0 + float(np.max(np.abs(z)))):
            best = worst_residual(*horner_scaled(coeffs, z))
            break
    else:
        best = worst_residual(h, s)
    return z, best, sweeps
