import math

import numpy as np
import pytest

from itereq import _kernels
from itereq.poly import Polynomial, all_roots, bisect_root


def test_bisect_paths_agree():
    arr = np.asarray([-1.0, 0.0, 1.0])  # r^2 - 1
    mid, lo, hi, _ = _kernels.bisect_loop(arr, 0.0, 2.0, -1.0, 1e-12)
    assert mid == pytest.approx(1.0, abs=1e-11)
    assert lo <= 1.0 <= hi
    assert bisect_root(Polynomial(tuple(arr)), 0.0, 2.0, tol=1e-12) == pytest.approx(
        mid, abs=1e-11
    )


def test_dk_paths_find_same_roots():
    # circle-started sweeps and the companion-eigenvalue path agree
    arr = np.asarray([-6.0, 11.0, -6.0, 1.0])  # (r-1)(r-2)(r-3)
    z0 = np.exp(1j * np.linspace(0.3, 2 * np.pi, 3, endpoint=False)) * 7.0
    z, best, _ = _kernels.dk_sweeps(arr, z0, 1e-13, 1e-15)
    assert sorted(np.round(z.real, 8)) == [1.0, 2.0, 3.0]
    assert best <= 1e-12
    roots = all_roots(Polynomial(tuple(arr)))
    assert [r.re for r in roots] == pytest.approx(sorted(z.real), abs=1e-10)
    assert all(r.im == 0.0 and r.multiplicity == 1 for r in roots)


def _horner_vec_reference(coeffs, x):
    acc = np.zeros_like(x)
    for c in coeffs[::-1]:
        acc = acc * x + c
    return acc


def test_in_place_horner_vec_is_bit_identical():
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=17)
    for x in (rng.normal(size=40), rng.normal(size=40) + 1j * rng.normal(size=40)):
        assert np.array_equal(_kernels.horner_vec(coeffs, x), _horner_vec_reference(coeffs, x))


def test_scalar_horner_runs_over_descending_coefficients():
    coeffs = [0.5, -3.0, 1.25, 2.0]  # ascending
    acc = np.float64(0.0)
    for c in coeffs[::-1]:
        acc = acc * np.float64(0.7) + np.float64(c)
    assert _kernels.horner(coeffs[::-1], 0.7) == float(acc)


def test_dk_sweeps_first_step_from_the_caller_is_bit_identical():
    arr = np.asarray([-6.0, 11.0, -6.0, 1.0])  # (r-1)(r-2)(r-3)
    z0 = np.asarray([0.9, 2.2, 3.1], dtype=np.complex128)
    first = _kernels.horner_scaled(arr, z0) + (_kernels.dk_denominators(arr, z0),)
    plain = _kernels.dk_sweeps(arr, z0, 1e-13, 1e-15)
    given = _kernels.dk_sweeps(arr, z0, 1e-13, 1e-15, first)
    assert np.array_equal(plain[0], given[0]) and plain[1:] == given[1:]
    assert z0.tolist() == [0.9, 2.2, 3.1]


def test_scaled_horner_is_horner_vec_within_the_direct_range():
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=12)
    z = 10.0 * np.exp(2j * np.pi * rng.random(30)) * rng.random(30)
    h, s = _kernels.horner_scaled(coeffs, z)
    assert np.array_equal(h, _kernels.horner_vec(coeffs, z)) and s == 1.0


def test_scaled_horner_past_the_direct_range_does_not_overflow():
    coeffs = np.asarray([-1.0, 2.0, 0.5, -3.0, 1.0])  # degree 4: direct up to 2^128
    z = np.asarray([1.5, 1e50, -3e150 + 1e150j])
    with np.errstate(over="raise"):
        h, s = _kernels.horner_scaled(coeffs, z)
    assert h[0] == _kernels.horner_vec(coeffs, z[:1])[0] and s[0] == 1.0
    # p(z) / z^3 = z - 3 + 0.5 / z + ..., and s = |z|^-3
    assert h[1:] == pytest.approx(z[1:] - 3.0, rel=1e-15)
    assert s[1] == pytest.approx(1e-150, rel=1e-15) and s[2] == 0.0


def test_dk_sweeps_polish_a_root_beyond_the_float_range_of_its_powers():
    # (r - 1e120)(r - 2)(r + 0.5): Horner at r near 1e120 passes 1e340
    arr = np.asarray([1e120, 1.5e120 - 1.0, -1e120 - 1.5, 1.0])
    z0 = np.asarray([1e120 * (1 + 1e-9), 2.000001, -0.4999], dtype=np.complex128)
    with np.errstate(over="raise"):
        z, best, _ = _kernels.dk_sweeps(arr, z0, 0.0, 1e-15)
    assert sorted(z.real) == pytest.approx([-0.5, 2.0, 1e120], rel=1e-12)
    assert np.all(z.imag == 0.0)
    assert math.isfinite(best)
