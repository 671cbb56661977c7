import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from itereq import _kernels
from itereq.errors import NonConvergence
from itereq.poly import ComplexRoot, Polynomial, all_roots, evaluate

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def naive_eval(coeffs, x):
    """Power-sum evaluation, the reference for Horner."""
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
# construction and evaluation
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


def test_eval_double_root_at_one():
    # -r^2 + 2r - 1 has the factor (r-1)^2
    assert evaluate(Polynomial((-1.0, 2.0, -1.0)), 1.0) == 0.0


def test_eval_constant_term():
    assert evaluate(Polynomial((1.0, 1.0, 1.0)), 0.0) == 1.0


def test_eval_near_cubic_root():
    p = Polynomial((-1.0, 3.0, 2.0, 1.0))
    assert abs(evaluate(p, 0.2757)) < 5e-4
    assert abs(evaluate(p, CUBIC_ROOT)) < 1e-14


def test_eval_array_matches_scalar():
    p = Polynomial((2.0, -1.0, 0.5, 3.0))
    xs = np.linspace(-3, 3, 17)
    vec = evaluate(p, xs)
    for x, v in zip(xs, vec):
        assert v == pytest.approx(evaluate(p, float(x)), rel=1e-15)


@given(
    st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=1,
        max_size=9,
    ),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)
def test_horner_agrees_with_naive_power_sum(coeffs, x):
    # agreement within 8 "ulps" measured at the term-magnitude scale,
    # which is the resolution either summation order can promise
    p = Polynomial(tuple(coeffs))
    scale = sum(abs(c) * abs(x) ** i for i, c in enumerate(p.coeffs))
    diff = abs(evaluate(p, x) - naive_eval(p.coeffs, x))
    assert diff <= 8 * np.finfo(float).eps * max(scale, 1e-300)


# ---------------------------------------------------------------------------
# all_roots
# ---------------------------------------------------------------------------


def _sorted_values(roots):
    out = []
    for r in roots:
        out.extend([complex(r.re, r.im)] * r.multiplicity)
    return sorted(out, key=lambda z: (z.real, z.imag))


def test_all_roots_quadratic():
    roots = all_roots(Polynomial((-1.0, 2.0, 1.0)))
    vals = _sorted_values(roots)
    assert len(vals) == 2
    assert vals[0].real == pytest.approx(-1.0 - SQRT2, abs=1e-10)
    assert vals[1].real == pytest.approx(SQRT2 - 1.0, abs=1e-10)
    assert all(v.imag == 0.0 for v in vals)


def test_all_roots_rejects_a_double_root_naming_the_overlap():
    # (r - 1)^2: both estimates sit near 1, so their inclusion disks meet
    with pytest.raises(NonConvergence) as info:
        all_roots(Polynomial((1.0, -2.0, 1.0)))
    msg = str(info.value)
    assert "inclusion disks overlap" in msg
    named = [complex(w) for w in re.findall(r"\(([^()]*j)\)", msg)]
    assert len(named) == 2
    assert all(abs(w - 1.0) < 1e-6 for w in named)


def test_all_roots_rejects_non_finite_polished_roots(monkeypatch):
    # the Durand-Kerner steps are unguarded: estimates that met would come
    # back NaN, and the residual test must not pass them
    def collapsed(coeffs, z0, *args):
        z = np.full_like(z0, np.nan)
        with np.errstate(invalid="ignore"):
            return z, _kernels.horner_scaled_bound(coeffs, z), 1

    monkeypatch.setattr(_kernels, "dk_sweeps", collapsed)
    with pytest.raises(NonConvergence, match="root residual"):
        all_roots(Polynomial((-6.0, 11.0, -6.0, 1.0)))


@pytest.mark.parametrize("bad", [np.inf, complex(np.inf, 1.0), complex(-1.0, np.inf)])
def test_all_roots_rejects_an_infinite_estimate(monkeypatch, bad):
    # at an infinite estimate both the scaled residual and its limit are
    # infinite; the limit is not finite, so the residual test rejects it
    def escaped(coeffs, z0, *args):
        z = z0.copy()
        z[0] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            return z, _kernels.horner_scaled_bound(coeffs, z), 1

    monkeypatch.setattr(_kernels, "dk_sweeps", escaped)
    with pytest.raises(NonConvergence, match="root residual"):
        all_roots(Polynomial((-6.0, 11.0, -6.0, 1.0)))


@pytest.mark.parametrize("corrections", [0, 1])
def test_all_roots_evaluates_once_per_correction_plus_once(monkeypatch, corrections):
    # the disks, the first sweep and the residual test share one kernel
    # pass; each correction adds one, whose values the residual test reads
    passes = []
    fused = _kernels.horner_scaled_bound
    sweeps = _kernels.dk_sweeps

    def counted(c, z):
        passes.append(z.copy())
        return fused(c, z)

    def one_correction(coeffs, z0, resid_tol, first):
        # a residual check that always fails, and room for one sweep
        monkeypatch.setattr(_kernels, "DK_MAX_SWEEPS", 1)
        return sweeps(coeffs, z0, -1.0, first)

    monkeypatch.setattr(_kernels, "horner_scaled_bound", counted)
    if corrections:
        monkeypatch.setattr(_kernels, "dk_sweeps", one_correction)
    roots = all_roots(Polynomial((-6.0, 11.0, -6.0, 1.0)))
    assert len(passes) == 1 + corrections
    assert sorted(r.re for r in roots) == sorted(passes[-1].real.tolist())
    if corrections:
        assert passes[1].tobytes() != passes[0].tobytes()


def test_all_roots_quartic_structure():
    # r^4 + r^3 + r^2 - 4r + 1: roots 1, the cubic root, and a conjugate
    # pair whose modulus is sqrt of the residual quadratic's constant term
    roots = all_roots(Polynomial((1.0, -4.0, 1.0, 1.0, 1.0)))
    reals = sorted(r.re for r in roots if r.im == 0.0)
    pairs = [r for r in roots if r.im != 0.0]
    assert reals == pytest.approx([CUBIC_ROOT, 1.0], abs=1e-9)
    assert len(pairs) == 2
    for z in pairs:
        assert z.modulus == pytest.approx(QUARTIC_PAIR_MODULUS, abs=1e-9)
    assert pairs[0].re == pairs[1].re
    assert pairs[0].im == -pairs[1].im


def test_all_roots_conjugate_pairing_is_exact():
    roots = all_roots(Polynomial((5.0, 1.0, -2.0, 1.0, 0.5, 1.0)))
    ims = sorted(r.im for r in roots if r.im != 0.0)
    for low, high in zip(ims, reversed(ims)):
        assert low == -high


def test_all_roots_degree_zero_rejected():
    with pytest.raises(ValueError):
        all_roots(Polynomial((3.0,)))


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
    found = all_roots(p)
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
    assert evaluate(p, 2.0) == 9.0
    assert p.inf_norm == 3.0


def test_equal_polynomials_compare_and_hash_equal():
    a = Polynomial((1, 2.0, 0.0))
    b = Polynomial((1.0, 2.0))
    a.as_array()
    evaluate(a, 3.0)
    assert a == b and hash(a) == hash(b)
    assert {a: "first"}[b] == "first"
    assert a != Polynomial((1.0, 3.0))
    assert repr(a) == "Polynomial(coeffs=(1.0, 2.0))"


def test_root_moduli_match_scalar_hypot_bit_for_bit():
    p = Polynomial((3.0, -1.0, 0.5, 2.0, -1.0, 0.25, 1.0))
    roots = all_roots(p)
    assert any(r.im != 0.0 for r in roots)
    for r in roots:
        assert r.modulus == float(np.hypot(r.re, r.im))
        assert r == ComplexRoot(r.re, r.im, r.multiplicity)
    assert ComplexRoot(3.0, -4.0).modulus == 5.0
