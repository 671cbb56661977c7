import math

import numpy as np
import pytest

from itereq import _kernels
from itereq.poly import Polynomial, certified_roots


def test_dk_paths_find_same_roots():
    # one Weierstrass (Durand-Kerner) correction from estimates off by
    # about 1e-13 and one from the companion-matrix eigenvalues agree
    p = Polynomial((-6.0, 11.0, -6.0, 1.0))  # (r-1)(r-2)(r-3)
    z0 = np.asarray([1.0 + 1e-13, 2.0 - 2e-13, 3.0 + 3e-13], dtype=np.complex128)
    corrected = certified_roots(p, z0)
    assert [r.re for r in corrected] == pytest.approx([1.0, 2.0, 3.0], rel=1e-15, abs=0)
    roots = certified_roots(p, np.roots(p.coeffs[::-1]).astype(np.complex128))  # all real
    assert [r.re for r in roots] == pytest.approx([r.re for r in corrected], rel=1e-15, abs=0)
    assert all(r.im == 0.0 and r.multiplicity == 1 for r in roots + corrected)


def _horner_vec_reference(coeffs, x):
    acc = np.zeros_like(x)
    for c in coeffs[::-1]:
        acc = acc * x + c
    return acc


def _scaled_reference(coeffs, z):
    """One plain Horner pass, over the reversed polynomial at ``1/z_i``
    (times ``z_i``) past the direct range: ``(h, s)`` as the fused kernel
    defines them."""
    n = len(coeffs) - 1
    big = np.abs(z) > _kernels.direct_radius(n)
    x = np.where(big, 1.0 / np.where(big, z, 1.0), z)
    acc = np.zeros_like(x)
    for i in range(n + 1):
        acc = acc * x + np.where(big, coeffs[i], coeffs[n - i])
    acc = np.where(big, acc * z, acc)
    return acc, np.where(big, np.abs(x) ** (n - 1), 1.0)


def test_scaled_horner_is_horner_vec_within_the_direct_range():
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=12)
    z = 10.0 * np.exp(2j * np.pi * rng.random(30)) * rng.random(30)
    h, s, _ = _kernels.horner_scaled_bound(coeffs, z)
    assert np.array_equal(h, _horner_vec_reference(coeffs, z)) and s == 1.0


def test_scaled_horner_past_the_direct_range_does_not_overflow():
    coeffs = np.asarray([-1.0, 2.0, 0.5, -3.0, 1.0])  # degree 4: direct up to 2^128
    z = np.asarray([1.5, 1e50, -3e150 + 1e150j])
    with np.errstate(over="raise"):
        h, s, _ = _kernels.horner_scaled_bound(coeffs, z)
    assert h[0] == _horner_vec_reference(coeffs, z[:1])[0] and s[0] == 1.0
    # p(z) / z^3 = z - 3 + 0.5 / z + ..., and s = |z|^-3
    assert h[1:] == pytest.approx(z[1:] - 3.0, rel=1e-15)
    assert s[1] == pytest.approx(1e-150, rel=1e-15) and s[2] == 0.0


def test_one_correction_of_a_root_beyond_the_float_range_of_its_powers():
    # (r - 1e120)(r - 2)(r + 0.5): Horner at r near 1e120 passes 1e340
    p = Polynomial((1e120, 1.5e120 - 1.0, -1e120 - 1.5, 1.0))
    z0 = np.asarray([-0.5 + 1e-13, 2.0 + 1e-13, 1e120 * (1 + 1e-13)], dtype=np.complex128)
    with np.errstate(over="raise"):
        roots = certified_roots(p, z0)
    assert [r.re for r in roots] == pytest.approx([-0.5, 2.0, 1e120], rel=1e-15, abs=0)
    assert all(r.im == 0.0 for r in roots)


@pytest.mark.parametrize("radius", [10.0, 1e200])
def test_fused_bound_pass_is_both_horner_passes_bit_for_bit(radius):
    # radius 1e200 puts most points past the direct range of degree 11
    # against two separate passes, one over p at z and one over |c| at |z|
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=12)
    coeffs[3] = -0.0
    z = radius * np.exp(2j * np.pi * rng.random(30)) * rng.random(30)
    z[:6] = [0.0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0), -2.5, 1e-3j]
    with np.errstate(over="raise"):
        h, s, magnitude = _kernels.horner_scaled_bound(coeffs, z)
    h_ref, s_ref = _scaled_reference(coeffs, z)
    mag_ref, _ = _scaled_reference(np.abs(coeffs), np.abs(z))
    assert h.tobytes() == h_ref.tobytes()
    assert np.broadcast_to(s, h.shape).tobytes() == s_ref.tobytes()
    assert magnitude.tobytes() == mag_ref.tobytes()
    assert (s == 1.0) if radius == 10.0 else np.any(s != 1.0)


def test_an_overflowing_bound_reads_nan_and_a_non_finite_point_stays_non_finite():
    # |c| ~ 1e300 at |z| = 1e5, inside the direct range of degree 4: the
    # bound's partial sums overflow, and the next complex product turns
    # inf * 0 into NaN; p itself is exact there (a multiple of 1e300 z^k)
    coeffs = np.asarray([1e300, 0.0, 0.0, 0.0, 1e300])
    z = np.asarray([1e5, 0.5, np.inf, complex(np.nan, 0.0)])
    with np.errstate(over="ignore", invalid="ignore"):
        h, s, magnitude = _kernels.horner_scaled_bound(coeffs, z)
    assert np.isnan(magnitude[0]) and math.isfinite(magnitude[1])
    assert not np.isfinite(magnitude[2:]).any()
    assert np.abs(h[1]) == pytest.approx(1e300 * (1 + 0.5**4), rel=1e-15)
