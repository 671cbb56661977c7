"""Hot numeric kernels in plain NumPy.

Outside the estimates, the root-table analysis spends its time in one
Horner pass per spectrum.  ``horner_scaled_bound`` is the one Horner
kernel of root finding: it gives ``p(z_i)``, ``p'(z_i)`` and the bound on
the rounding error of ``p(z_i)`` in one pass, safe from overflow at any
modulus.  The inclusion disks, the residual test and the one correction
of ``poly.certified_roots`` all read its results.
"""

from __future__ import annotations

import numpy as np

# recorded by the benchmark's environment block; there is no jitted path
USING_NUMBA = False

# log2 of the largest |z|^n at which a degree-n polynomial is evaluated
# directly; past it ``horner_scaled_bound`` evaluates the reversed polynomial.
DIRECT_EXP = 512.0

# bytes of coefficient rows one block of ``horner_scaled_bound`` builds
_BLOCK_BYTES = 1 << 20


def direct_radius(degree: int) -> float:
    """Largest ``|z|`` at which a polynomial of ``degree`` is evaluated directly.

    Up to ``|z|^degree = 2^DIRECT_EXP`` every partial sum of Horner's
    scheme stays below ``2^DIRECT_EXP sum |c_i|``, far inside the float
    range.
    """
    return 2.0 ** (DIRECT_EXP / max(degree, 1))


def horner_scaled_bound(
    coeffs: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray | float, np.ndarray]:
    """``p(z_i)``, ``p'(z_i)`` and the rounding bound of ``p(z_i)``, divided
    by ``z_i^(n-1)`` where ``|z_i|^n`` could overflow.

    There ``p`` is evaluated through the reversed polynomial ``w^n p(1/w)``
    and ``p'`` through the rows ``(0 c_0, 1 c_1, ..., n c_n)``, both at
    ``w = 1/z_i``, whose powers only shrink.  Returns ``(h, dh, s,
    magnitude)`` with ``|p(z_i)| = |h_i| / s_i`` and ``|p'(z_i)| = |dh_i| /
    s_i``: ``s_i = |z_i|^-(n-1)`` (zero once it underflows) there, else
    ``1`` (the scalar 1.0 when no point is scaled) and ``h_i`` and ``dh_i``
    are bit for bit plain Horner passes over ``p`` and ``p'``.
    ``magnitude_i = sum_k |c_k| |z_i|^k``, scaled as ``h_i``, bounds the
    rounding error in ``h_i``.  The three parts share one complex array of
    length ``3m``, the moduli held with zero imaginary part: two ufunc
    calls per coefficient, each part bit for bit its own Horner pass,
    except that a magnitude whose partial sum overflows turns NaN (the
    next product puts ``inf * 0`` into its imaginary part).  The direct
    derivative rows ``(0, n c_n, ..., 1 c_1)`` give each part n + 1 steps.
    The rows are built one block of ``_BLOCK_BYTES`` at a time.
    """
    n, m = len(coeffs) - 1, len(z)
    az = np.abs(z)
    big = az > direct_radius(n)
    scaled = bool(big.any())
    x = np.concatenate([z, az, z], dtype=np.complex128)
    if scaled:
        x[:m][big] = x[2 * m :][big] = 1.0 / z[big]
        x[m : 2 * m][big] = 1.0 / az[big]
    # row i of each side, one column per part; complex, since adding a real
    # row to a complex array costs a cast per call
    reverse, direct = np.zeros((2, n + 1, 3), dtype=np.complex128)
    reverse[:, 0] = coeffs
    reverse[:, 1] = np.abs(coeffs)
    reverse[:, 2] = np.arange(n + 1) * coeffs
    direct[:, :2] = reverse[::-1, :2]
    direct[1:, 2] = reverse[:0:-1, 2]  # after the leading 0
    acc = np.zeros_like(x)
    step = max(1, _BLOCK_BYTES // max(x.nbytes, 1))
    block = np.empty((min(step, n + 1), 3, m), dtype=np.complex128)
    for lo in range(0, n + 1, step):
        rows = block[: n + 1 - lo]
        rows[...] = direct[lo : lo + step, :, None]
        if scaled:
            rows[:, :, big] = reverse[lo : lo + step, :, None]
        for row in rows.reshape(len(rows), 3 * m):
            acc *= x
            acc += row
    h, magnitude, dh = acc[:m], acc[m : 2 * m].real, acc[2 * m :]
    if not scaled:
        return h, dh, 1.0, magnitude
    h[big] *= z[big]
    magnitude[big] *= az[big]
    s = np.ones(m)
    s[big] = np.abs(x[:m][big]) ** (n - 1)
    return h, dh, s, magnitude


# placeholders the benchmark's tracer wraps; see the note in ``charpoly``
bisect_loop = dk_sweeps = horner = None
