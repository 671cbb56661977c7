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
