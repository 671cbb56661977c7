"""Hot numeric kernels in plain NumPy.

The root-table analysis spends its time outside the estimates in two
inner loops: Horner evaluation and the Durand-Kerner sweeps that polish
root estimates.  ``horner_scaled_bound`` is the one Horner kernel of
root finding: it gives ``p(z_i)`` and the bound on its rounding error in
one pass, safe from overflow at any modulus, and the inclusion disks,
every sweep and the residual test of ``poly.certified_roots`` read their
values from it.  ``dk_sweeps`` stops on the first of three rules: every
residual below the caller's absolute limit, every update below
``DK_STEP_TOL``, or residuals that stall within that rounding bound.
``horner`` evaluates at one point; the closed forms of ``recurrence`` use
it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# recorded by the benchmark's environment block; there is no jitted path
USING_NUMBA = False

# Durand-Kerner sweep cap; it only guards against cycling on pathological input.
DK_MAX_SWEEPS = 1200
DK_STEP_TOL = 1e-15  # DK stops once every update is below this * (1 + max |z_i|)
# log2 of the largest |z|^n at which a degree-n polynomial is evaluated
# directly; past it ``horner_scaled_bound`` evaluates the reversed polynomial.
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


def direct_radius(degree: int) -> float:
    """Largest ``|z|`` at which a polynomial of ``degree`` is evaluated directly.

    Up to ``|z|^degree = 2^DIRECT_EXP`` every partial sum of Horner's
    scheme stays below ``2^DIRECT_EXP sum |c_i|``, far inside the float
    range.
    """
    return 2.0 ** (DIRECT_EXP / max(degree, 1))


def horner_scaled_bound(
    coeffs: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray | float, np.ndarray]:
    """``p(z_i)`` and its rounding bound, divided by ``z_i^(n-1)`` where
    ``|z_i|^n`` could overflow.

    There the reversed polynomial ``w^n p(1/w)`` is evaluated at
    ``w = 1/z_i``, whose powers only shrink.  Returns ``(h, s, magnitude)``
    with ``|p(z_i)| = |h_i| / s_i``: ``s_i = |z_i|^-(n-1)`` (zero once it
    underflows) there, else ``1`` and ``h_i`` is ``p(z_i)`` bit for bit as a
    plain Horner pass gives it (``s`` is the scalar 1.0 when no point is
    scaled).
    ``magnitude_i = sum_k |c_k| |z_i|^k``, scaled as ``h_i``, bounds the
    rounding error in ``h_i``.  Both halves share one complex array of
    length ``2m``, the moduli held with zero imaginary part: two ufunc
    calls per coefficient, each half bit for bit its own real Horner pass,
    except that a magnitude whose partial sum overflows turns NaN (the
    next product puts ``inf * 0`` into its imaginary part).
    """
    n, m = len(coeffs) - 1, len(z)
    az = np.abs(z)
    big = az > direct_radius(n)
    scaled = bool(big.any())
    x = np.concatenate([z, az], dtype=np.complex128)
    if scaled:
        x[:m][big] = 1.0 / z[big]
        x[m:][big] = 1.0 / az[big]
    rows = np.where(big, coeffs[:, None], coeffs[::-1, None])
    # complex rows: adding a real row to a complex array costs a cast per call
    rows = np.concatenate([rows, np.abs(rows)], axis=1, dtype=np.complex128)
    acc = np.zeros_like(x)
    for row in rows:
        acc *= x
        acc += row
    h, magnitude = acc[:m], acc[m:].real
    if not scaled:
        return h, 1.0, magnitude
    h[big] *= z[big]
    magnitude[big] *= az[big]
    s = np.ones(m)
    s[big] = np.abs(x[:m][big]) ** (n - 1)
    return h, s, magnitude


def dk_denominators(coeffs: np.ndarray, z: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """``c_n prod_{j != i} (z_i - z_j)``, scaled as ``horner_scaled_bound``
    scales ``p(z_i)``: their quotient is the Durand-Kerner correction.

    ``diff`` is ``z[:, None] - z[None, :]``, and is overwritten.
    """
    big = np.abs(z) > direct_radius(len(coeffs) - 1)
    if big.any():
        diff[big] /= z[big, None]
    np.fill_diagonal(diff, 1.0)
    return coeffs[-1] * np.prod(diff, axis=1)


# a placeholder the benchmark's tracer wraps; see the note in ``charpoly``
bisect_loop = None


def dk_sweeps(
    coeffs: np.ndarray,
    z0: np.ndarray,
    resid_tol: float,
    first: tuple[tuple, np.ndarray],
) -> tuple[np.ndarray, tuple, int]:
    """Durand-Kerner simultaneous iteration, vectorized over root estimates.

    ``coeffs`` is ascending with nonzero leading coefficient.  ``z0`` lists
    the real starting estimates (zero imaginary part), then those above
    the real axis, then their conjugates in the same order.  ``first`` is
    ``(horner_scaled_bound(coeffs, z0), dk_denominators(coeffs, z0, diff))``
    from the caller, used by the first sweep.  Each correction is the
    quotient of ``horner_scaled_bound`` and ``dk_denominators``, so no
    modulus overflows; it rounds differently for the two members of a
    pair, so after each one the real estimates are made real again and
    each pair exact conjugates (their mean).  Stops when every residual
    |p(z_i)| falls below ``resid_tol``; when every update falls below
    ``DK_STEP_TOL * (1 + max |z_i|)``; or when the largest residual fell
    by less than half over the last correction and every residual lies
    within ``4 m eps magnitude_i`` (m estimates), the rounding term of
    ``poly._disk_radii``: the residuals are then rounding noise, which
    further sweeps only stir.  (For n = 2k from 244 on that noise lies
    above ``resid_tol`` and the updates above ``DK_STEP_TOL``; without the
    last rule the sweeps ran to the cap.)  Returns the final estimates,
    ``horner_scaled_bound`` at them, and the sweep count.  The steps are
    not guarded: the estimates must start apart, each near its own simple
    root (``poly.certified_roots`` checks that with disjoint inclusion disks);
    estimates that meet turn non-finite, and the caller's residual test
    rejects them.
    """
    z = z0.astype(np.complex128)
    nr = int(np.count_nonzero(z.imag == 0.0))
    nu = (len(z) - nr) // 2
    floor = 4.0 * len(z) * np.finfo(float).eps  # the rounding term of the disks
    values, denom = first
    largest = np.inf
    for sweeps in range(1, DK_MAX_SWEEPS + 1):
        h, s, magnitude = values
        resid = np.abs(h)
        if np.all(resid <= resid_tol * s):
            break
        previous, largest = largest, float(np.max(resid))
        if largest > 0.5 * previous and np.all(resid <= floor * magnitude):
            break
        if sweeps > 1:
            denom = dk_denominators(coeffs, z, z[:, None] - z[None, :])
        dz = h / denom
        z -= dz
        z[:nr] = z[:nr].real
        upper = 0.5 * (z[nr : nr + nu] + z[nr + nu :].conj())
        z[nr : nr + nu] = upper
        z[nr + nu :] = upper.conj()
        values = horner_scaled_bound(coeffs, z)
        if float(np.max(np.abs(dz))) <= DK_STEP_TOL * (1.0 + float(np.max(np.abs(z)))):
            break
    return z, values, sweeps
