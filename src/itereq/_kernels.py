"""Hot numeric kernels in plain NumPy.

The exhaustive root-table analysis spends nearly all of its time in three
inner loops: Horner evaluation, bracketed bisection, and the
Durand-Kerner sweeps that polish companion-matrix eigenvalues.
"""

from __future__ import annotations

import numpy as np

# recorded by the benchmark's environment block; there is no jitted path
USING_NUMBA = False

# Bisection/DK iteration caps.  60 halvings shrink any O(10^2) bracket below
# 1e-15; the caps only guard against cycling on pathological input.
BISECT_MAX_ITER = 240
DK_MAX_SWEEPS = 1200


def horner(coeffs: np.ndarray, x: float) -> float:
    """Evaluate a polynomial (ascending coefficients) at scalar ``x``.

    The loop runs over Python floats: the same IEEE operations as over
    NumPy scalars, without their per-operation overhead.
    """
    acc = 0.0
    for c in coeffs[::-1].tolist():
        acc = acc * x + c
    return acc


def horner_vec(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Horner evaluation broadcast over an array of points."""
    acc = np.zeros_like(x)
    for c in coeffs[::-1]:
        acc = acc * x + c
    return acc


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
) -> tuple[np.ndarray, float, int]:
    """Durand-Kerner simultaneous iteration, vectorized over root estimates.

    ``coeffs`` is ascending with nonzero leading coefficient; ``z0`` holds
    the starting estimates.  Stops when every residual |p(z_i)| falls below
    ``resid_tol`` or every update is below ``step_tol``.  Returns the final
    estimates, the worst residual, and the sweep count.
    """
    lc = coeffs[-1]
    z = z0.astype(np.complex128).copy()
    best = np.inf
    sweeps = 0
    for sweeps in range(1, DK_MAX_SWEEPS + 1):
        pz = horner_vec(coeffs, z)
        best = float(np.max(np.abs(pz)))
        if best <= resid_tol:
            break
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        denom = lc * np.prod(diff, axis=1)
        # a collapsed pair would zero the denominator; nudge it apart
        bad = np.abs(denom) < 1e-290
        if np.any(bad):
            z[bad] += 1e-8 * (1.0 + np.abs(z[bad]))
            continue
        dz = pz / denom
        # trust region: estimates crowding a multiple root can produce
        # explosive corrections (tiny denominators); cap the step
        cap = 0.5 * (1.0 + np.abs(z))
        overshoot = np.abs(dz) > cap
        if np.any(overshoot):
            dz[overshoot] *= cap[overshoot] / np.abs(dz[overshoot])
        z -= dz
        if float(np.max(np.abs(dz))) <= step_tol * (1.0 + float(np.max(np.abs(z)))):
            best = float(np.max(np.abs(horner_vec(coeffs, z))))
            break
    return z, best, sweeps
