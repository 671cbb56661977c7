import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from itereq import _kernels
from itereq.errors import NonConvergence
from itereq.poly import ComplexRoot, Polynomial, _disk_radii, certified_roots

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def naive_eval(coeffs, x):
    """Power-sum evaluation."""
    return math.fsum(c * x**i for i, c in enumerate(coeffs))


def bisect_oracle(coeffs, lo, hi, steps=60):
    """Plain 60-step bisection on the naive evaluation."""
    flo = naive_eval(coeffs, lo)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        fm = naive_eval(coeffs, mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# frozen from bisect_oracle([-1, 3, 2, 1], 0, 1): the root of r^3+2r^2+3r-1
CUBIC_ROOT = 0.27568220365098495
# frozen: sqrt(3 + 2*CUBIC_ROOT + CUBIC_ROOT^2), modulus of the conjugate
# pair left after deflating 1 and CUBIC_ROOT from r^4+r^3+r^2-4r+1
QUARTIC_PAIR_MODULUS = 1.9045642768654023

SQRT2 = math.sqrt(2.0)


def test_oracle_agrees_with_frozen_value():
    assert bisect_oracle([-1, 3, 2, 1], 0.0, 1.0) == pytest.approx(
        CUBIC_ROOT, abs=1e-15
    )


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_trailing_zeros_stripped():
    p = Polynomial((1.0, 2.0, 0.0, 0.0))
    assert p.coeffs == (1.0, 2.0)
    assert p.degree == 1


def test_zero_polynomial_keeps_one_coefficient():
    assert Polynomial((0.0, 0.0)).coeffs == (0.0,)


def test_empty_rejected():
    with pytest.raises(ValueError):
        Polynomial(())


# ---------------------------------------------------------------------------
# certified_roots on generic polynomials, from companion-matrix estimates
# (the tests named after all_roots check the whole solve: start and certificate)
# ---------------------------------------------------------------------------


def _sorted_values(roots):
    out = []
    for r in roots:
        out.extend([complex(r.re, r.im)] * r.multiplicity)
    return sorted(out, key=lambda z: (z.real, z.imag))


def companion_estimates(p):
    """The companion-matrix eigenvalues of ``p`` (``np.roots``) in the layout of
    ``certified_roots``: the real ones, those above the axis, their conjugates."""
    z = np.roots(p.coeffs[::-1])
    upper = z[z.imag > 0.0]
    return np.concatenate([z[z.imag == 0.0].real, upper, upper.conj()]).astype(np.complex128)


def companion_roots(p):
    return certified_roots(p, companion_estimates(p))


def test_all_roots_quadratic():
    roots = companion_roots(Polynomial((-1.0, 2.0, 1.0)))
    vals = _sorted_values(roots)
    assert len(vals) == 2
    assert vals[0].real == pytest.approx(-1.0 - SQRT2, abs=1e-10)
    assert vals[1].real == pytest.approx(SQRT2 - 1.0, abs=1e-10)
    assert all(v.imag == 0.0 for v in vals)


def test_all_roots_rejects_a_double_root_naming_the_overlap():
    # (r - 1)^2: both estimates sit near 1, so their inclusion disks meet
    with pytest.raises(NonConvergence) as info:
        companion_roots(Polynomial((1.0, -2.0, 1.0)))
    msg = str(info.value)
    assert "inclusion disks overlap" in msg and "the roots must be simple" in msg
    named = [complex(w) for w in re.findall(r"\(([^()]*j)\)", msg)]
    assert len(named) == 2
    assert all(abs(w - 1.0) < 1e-6 for w in named)


@pytest.mark.parametrize("bad", [np.inf, complex(np.inf, 1.0), complex(-1.0, np.inf)])
def test_all_roots_rejects_an_infinite_estimate(bad):
    # an infinite estimate is named before any kernel pass: at it the
    # scaled residual and its limit would both be infinite
    p = Polynomial((1.0, -4.0, 1.0, 1.0, 1.0))  # two real roots, one pair
    z = companion_estimates(p)
    # in place of a real estimate, or of the upper member of the pair
    z[np.argmax(z.imag > 0.0) if complex(bad).imag else np.argmax(z.imag == 0.0)] = bad
    with pytest.raises(NonConvergence, match="is not finite") as info:
        certified_roots(p, z)
    assert repr(complex(bad)) in str(info.value)


def test_certified_roots_names_a_nan_estimate():
    # a NaN compares false with everything, so no disk or residual test
    # could reject it; the finiteness check names it first
    p = Polynomial((-6.0, 11.0, -6.0, 1.0))
    z = np.asarray([1.0, complex(np.nan, 0.0), 3.0])
    with pytest.raises(NonConvergence, match=re.escape("root estimate (nan+0j) is not finite")):
        certified_roots(p, z)


def test_certified_roots_makes_one_kernel_pass(monkeypatch):
    # the disks, the residual test and the correction share one pass
    passes = []
    fused = _kernels.horner_scaled_bound

    def counted(c, z):
        passes.append(z.copy())
        return fused(c, z)

    monkeypatch.setattr(_kernels, "horner_scaled_bound", counted)
    p = Polynomial((5.0, 1.0, -2.0, 1.0, 0.5, 1.0))
    z = companion_estimates(p)
    roots = certified_roots(p, z)
    assert len(passes) == 1 and passes[0].tobytes() == z.tobytes()
    assert len(roots) == 5


@pytest.mark.parametrize("corrections", [0, 1])
def test_all_roots_evaluates_once_per_correction_plus_once(monkeypatch, corrections):
    # certified_roots certifies and corrects its estimates in one kernel
    # pass; each further correction, its roots handed back to it, adds one
    # pass, at exactly the roots the previous call reported
    passes = []
    fused = _kernels.horner_scaled_bound

    def counted(c, z):
        passes.append(z.copy())
        return fused(c, z)

    monkeypatch.setattr(_kernels, "horner_scaled_bound", counted)
    p = Polynomial((-6.0, 11.0, -6.0, 1.0))
    roots = companion_roots(p)
    for step in range(corrections):
        z = np.asarray([r.as_complex() for r in roots])
        roots = certified_roots(p, z)
        assert passes[step + 1].tobytes() == z.tobytes()
    assert len(passes) == 1 + corrections
    assert sorted(r.re for r in roots) == pytest.approx([1.0, 2.0, 3.0], rel=1e-15)


def test_certified_roots_reports_each_estimate_minus_its_correction():
    # (r - 1)(r + 2)(r^2 + 2r + 5)(r^2 - r + 3): two real roots and two
    # conjugate pairs, the estimates off by about 1e-13
    p = Polynomial(tuple(np.polynomial.polynomial.polyfromroots(
        [1.0, -2.0, -1 + 2j, -1 - 2j, 0.5 + 1.6583123951777j, 0.5 - 1.6583123951777j]
    ).real))
    upper = np.asarray([-1 + 2j, 0.5 + 1.6583123951777j]) + 1e-13 * (1 + 1j)
    z = np.concatenate([np.asarray([1.0 + 1e-13, -2.0 - 1e-13]), upper, upper.conj()])
    c = p.as_array()
    h, _, magnitude = _kernels.horner_scaled_bound(c, z)
    denom = _kernels.dk_denominators(c, z, z[:, None] - z[None, :])
    corrected = z - h / denom
    pairs = 0.5 * (corrected[2:4] + corrected[4:].conj())
    want = np.concatenate([corrected[:2].real, pairs, pairs.conj()])
    assert np.all(want != z)  # every estimate moved
    radius = _disk_radii(h, denom, magnitude)
    assert np.all(np.abs(want - z) < radius)  # each inside its own disk

    roots = certified_roots(p, z)
    got = np.asarray([r.as_complex() for r in roots])
    order = np.lexsort((want.imag, want.real))
    assert got.tobytes() == want[order].tobytes()
    assert sum(r.im == 0.0 for r in roots) == 2  # the real estimates stay real
    ims = sorted(r.im for r in roots if r.im != 0.0)
    assert ims == [-x for x in reversed(ims)]


def test_all_roots_quartic_structure():
    # r^4 + r^3 + r^2 - 4r + 1: roots 1, the cubic root, and a conjugate
    # pair whose modulus is sqrt of the residual quadratic's constant term
    roots = companion_roots(Polynomial((1.0, -4.0, 1.0, 1.0, 1.0)))
    reals = sorted(r.re for r in roots if r.im == 0.0)
    pairs = [r for r in roots if r.im != 0.0]
    assert reals == pytest.approx([CUBIC_ROOT, 1.0], abs=1e-9)
    assert len(pairs) == 2
    for z in pairs:
        assert z.modulus == pytest.approx(QUARTIC_PAIR_MODULUS, abs=1e-9)
    assert pairs[0].re == pairs[1].re
    assert pairs[0].im == -pairs[1].im


def test_all_roots_conjugate_pairing_is_exact():
    roots = companion_roots(Polynomial((5.0, 1.0, -2.0, 1.0, 0.5, 1.0)))
    ims = sorted(r.im for r in roots if r.im != 0.0)
    for low, high in zip(ims, reversed(ims)):
        assert low == -high


@given(
    st.lists(
        st.tuples(st.integers(min_value=-6, max_value=6), st.floats(min_value=-0.1, max_value=0.1)),
        min_size=1,
        max_size=10,
        unique_by=lambda t: t[0],
    )
)
def test_all_roots_recovers_separated_real_roots(spots):
    # roots at least 0.3 apart in [-3.1, 3.1], expanded by a test-local
    # helper; each comes back real, with multiplicity 1
    want = sorted(0.5 * g + jitter for g, jitter in spots)
    p = Polynomial(tuple(np.poly(want)[::-1]))
    found = companion_roots(p)
    assert len(found) == len(want)
    for r, w in zip(found, want):
        assert r.multiplicity == 1 and r.im == 0.0
        assert r.re == pytest.approx(w, abs=1e-9)


# ---------------------------------------------------------------------------
# values computed once per polynomial
# ---------------------------------------------------------------------------


def test_cached_array_is_read_only_and_shared():
    p = Polynomial((1.0, -2.0, 3.0))
    arr = p.as_array()
    assert arr is p.as_array()
    assert arr.dtype == np.float64 and arr.tolist() == [1.0, -2.0, 3.0]
    with pytest.raises(ValueError):
        arr[0] = 5.0
    assert p.inf_norm == 3.0


def test_equal_polynomials_compare_and_hash_equal():
    a = Polynomial((1, 2.0, 0.0))
    b = Polynomial((1.0, 2.0))
    a.as_array()
    assert a == b and hash(a) == hash(b)
    assert {a: "first"}[b] == "first"
    assert a != Polynomial((1.0, 3.0))
    assert repr(a) == "Polynomial(coeffs=(1.0, 2.0))"


def test_root_moduli_match_scalar_hypot_bit_for_bit():
    p = Polynomial((3.0, -1.0, 0.5, 2.0, -1.0, 0.25, 1.0))
    roots = companion_roots(p)
    assert any(r.im != 0.0 for r in roots)
    for r in roots:
        assert r.modulus == float(np.hypot(r.re, r.im))
        assert r == ComplexRoot(r.re, r.im, r.multiplicity)
    assert ComplexRoot(3.0, -4.0).modulus == 5.0
