"""Hot numeric kernels in plain NumPy.

Outside the estimates, the root-table analysis spends its time in one
Horner pass and one product of differences per spectrum.
``horner_scaled_bound`` is the one Horner kernel of root finding: it
gives ``p(z_i)`` and the bound on its rounding error in one pass, safe
from overflow at any modulus.  ``dk_denominators`` gives the
denominators of the Weierstrass corrections, scaled alike.  The
inclusion disks, the residual test and the one correction of
``poly.certified_roots`` all read these two results.
"""

from __future__ import annotations

import numpy as np

# recorded by the benchmark's environment block; there is no jitted path
USING_NUMBA = False

# log2 of the largest |z|^n at which a degree-n polynomial is evaluated
# directly; past it ``horner_scaled_bound`` evaluates the reversed polynomial.
DIRECT_EXP = 512.0


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
    scales ``p(z_i)``: their quotient is the Weierstrass correction.

    ``diff`` is ``z[:, None] - z[None, :]``, and is overwritten.
    """
    big = np.abs(z) > direct_radius(len(coeffs) - 1)
    if big.any():
        diff[big] /= z[big, None]
    np.fill_diagonal(diff, 1.0)
    return coeffs[-1] * np.prod(diff, axis=1)


# placeholders the benchmark's tracer wraps; see the note in ``charpoly``
bisect_loop = dk_sweeps = horner = None
