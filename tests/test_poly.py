import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from itereq import _kernels
from itereq.errors import NonConvergence
from itereq.poly import (
    ComplexRoot,
    Polynomial,
    _disk_radii,
    _meeting_disks,
    _overlapping_disks,
    _rounding_bounds,
    certified_roots,
)

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
    """The companion-matrix eigenvalues of ``p`` (``np.roots``) as
    ``certified_roots`` takes them: the real ones, then one of each pair."""
    z = np.roots(p.coeffs[::-1])
    return np.concatenate([z[z.imag == 0.0].real, z[z.imag > 0.0]]).astype(np.complex128)


def companion_roots(p):
    return certified_roots(p, companion_estimates(p))[0]


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
    # the disks, the residual test and the correction share one pass, over
    # one point per real root and per conjugate pair
    passes = []
    fused = _kernels.horner_scaled_bound

    def counted(c, z):
        passes.append(z.copy())
        return fused(c, z)

    monkeypatch.setattr(_kernels, "horner_scaled_bound", counted)
    p = Polynomial((5.0, 1.0, -2.0, 1.0, 0.5, 1.0))
    z = companion_estimates(p)
    roots, _ = certified_roots(p, z)
    assert len(passes) == 1 and passes[0].tobytes() == z.tobytes()
    assert len(roots) == 5
    nr = sum(r.im == 0.0 for r in roots)
    assert len(z) == nr + (5 - nr) // 2 == 3
    # a constant has no roots and takes no pass
    passes.clear()
    roots, radii = certified_roots(Polynomial((3.0,)), np.array([], complex))
    assert roots == [] and not radii.size
    assert not passes


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
        roots, _ = certified_roots(p, z)
        assert passes[step + 1].tobytes() == z.tobytes()
    assert len(passes) == 1 + corrections
    assert sorted(r.re for r in roots) == pytest.approx([1.0, 2.0, 3.0], rel=1e-15)


def test_certified_roots_reports_each_estimate_minus_its_correction():
    # (r - 1)(r + 2)(r^2 + 2r + 5)(r^2 - r + 3): two real roots and two
    # conjugate pairs, the estimates off by about 1e-13
    p = Polynomial(tuple(np.polynomial.polynomial.polyfromroots(
        [1.0, -2.0, -1 + 2j, -1 - 2j, 0.5 + 1.6583123951777j, 0.5 - 1.6583123951777j]
    ).real))
    # one member of each pair, the lower one second
    z = np.asarray([1.0 + 1e-13, -1 + 2j, -2.0 - 1e-13, 0.5 - 1.6583123951777j])
    z += 1e-13 * (1 + 1j) * (z.imag != 0)
    h, dh, _, magnitude = _kernels.horner_scaled_bound(p.as_array(), z)
    corrected = z - h / dh
    assert np.all(corrected != z)  # every estimate moved
    radius = _disk_radii(h, dh, magnitude, np.abs(z), p.degree)
    assert np.all(np.abs(corrected - z) < radius)  # each inside its own disk
    pairs = corrected[[1, 3]]
    want = np.concatenate([corrected[[0, 2]].real, pairs, pairs.conj()])

    roots, radii = certified_roots(p, z)
    got = np.asarray([r.as_complex() for r in roots])
    order = np.lexsort((want.imag, want.real))
    assert got.tobytes() == want[order].tobytes()
    # each root's radius: its disk's, plus its step, and a root within it
    reach = (radius + np.abs(corrected - z)) * (1 + 2.0**-49)
    assert radii.tobytes() == reach[[0, 2, 1, 3, 1, 3]][order].tobytes()
    true = np.roots(p.coeffs[::-1])
    assert all(np.min(np.abs(true - w)) <= r for w, r in zip(got, radii))
    assert sum(r.im == 0.0 for r in roots) == 2  # the real estimates stay real
    ims = sorted(r.im for r in roots if r.im != 0.0)
    assert ims == [-x for x in reversed(ims)]


# (r^2 + 2r + 5)(r^2 - r + 2.5) and (r - 1)(r + 2)(r^2 + 2r + 5): roots
# -1 +- 2j, 0.5 +- 1.5j, 1 and -2, where Horner's scheme is exact
TWO_PAIRS = Polynomial((12.5, 0.0, 5.5, 1.0, 1.0))
ONE_PAIR = Polynomial((-10.0, 1.0, 5.0, 3.0, 1.0))


@pytest.mark.parametrize(
    "p, both, count",
    [
        (TWO_PAIRS, [-1 - 2j, -1 + 2j, 0.5 - 1.5j, 0.5 + 1.5j], 8),
        (ONE_PAIR, [-2, -1 - 2j, -1 + 2j, 1], 6),  # in report order
    ],
    ids=["two_pairs", "report_order"],
)
def test_a_list_with_both_members_of_a_pair_is_refused(p, both, count):
    # an estimate off the axis stands for its pair, so both members count the
    # pair twice; pairing them up by position could report wrong roots that
    # read as certified
    with pytest.raises(NonConvergence, match=f"^{count} root estimates for degree 4$"):
        certified_roots(p, np.asarray(both, dtype=np.complex128))
    one = [w for w in both if w.imag >= 0]
    roots, _ = certified_roots(p, np.asarray(one, dtype=np.complex128))
    assert [r.as_complex() for r in roots] == sorted(both, key=lambda w: (w.real, w.imag))


def test_an_estimate_whose_disk_reaches_its_own_conjugate_is_refused():
    # (r - 1)^2 from 1 + 1e-9j, which stands for a pair: its disk and its
    # mirror's meet on the axis, where the double root lies
    with pytest.raises(NonConvergence) as info:
        certified_roots(Polynomial((1.0, -2.0, 1.0)), np.asarray([1 + 1e-9j]))
    assert str(info.value).startswith(
        "inclusion disks overlap: estimates (1+1e-09j) and (1-1e-09j) lie 2.000e-09 apart"
    )


def _report_bytes(roots):
    return np.asarray([(r.re, r.im, r.modulus, r.multiplicity) for r in roots]).tobytes()


@given(
    st.lists(
        st.tuples(st.integers(-6, 6), st.floats(min_value=-0.1, max_value=0.1)),
        max_size=3,
        unique_by=lambda t: t[0],
    ),
    st.lists(
        st.tuples(
            st.integers(-6, 6),
            st.integers(1, 4),
            st.floats(min_value=-0.1, max_value=0.1),
            st.floats(min_value=-0.1, max_value=0.1),
        ),
        min_size=1,
        max_size=3,
        unique_by=lambda t: t[:2],
    ),
    st.data(),
)
def test_each_pair_may_come_as_either_member_in_any_order(reals, pairs, data):
    # roots at least 0.3 apart, the pairs at least 0.4 off the axis; the
    # kernel pass treats each point alone and commutes with conjugation
    real_roots = [complex(0.5 * g + dx) for g, dx in reals]
    upper = [complex(0.5 * g + dx, 0.5 * h + dy) for g, h, dx, dy in pairs]
    p = Polynomial(tuple(np.poly(real_roots + upper + [w.conjugate() for w in upper])[::-1].real))
    want, _ = certified_roots(p, np.asarray(real_roots + upper))
    assert len(want) == p.degree
    members = [w.conjugate() if data.draw(st.booleans()) else w for w in upper]
    z = np.asarray(data.draw(st.permutations(real_roots + members)), dtype=np.complex128)
    assert _report_bytes(certified_roots(p, z)[0]) == _report_bytes(want)


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
# r (r - 1)(r + 2): the companion estimate of the root 0 is exactly 0.0,
# where a step through z p'(z) would read 0/0
@example(spots=[(0, 0.0), (2, 0.0), (-4, 0.0)])
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
# the overlap sweep against the pairwise test
# ---------------------------------------------------------------------------


def pairwise_overlaps(z, radius):
    """Every pair i < j whose disks meet, by testing all n (n - 1) / 2 pairs."""
    return {
        (i, j)
        for i in range(len(z))
        for j in range(i + 1, len(z))
        if abs(z[i] - z[j]) <= radius[i] + radius[j]
    }


def _sweep_agrees(z, radius):
    """The sweep's verdict is the pairwise one, and a pair it names overlaps."""
    z, radius = np.asarray(z, dtype=np.complex128), np.asarray(radius, dtype=float)
    want = pairwise_overlaps(z, radius)
    pair = _overlapping_disks(z, radius)
    if not want:
        assert pair is None
        return None
    assert pair is not None and tuple(sorted(pair)) in want
    return pair


def test_sweep_finds_an_overlap_two_places_on_in_real_order():
    # 0 and 0.1 meet; the estimate between them in real order lies far above
    z, radius = [0.0, 0.05 + 1j, 0.1], [0.01, 0.01, 0.1]
    assert pairwise_overlaps(np.asarray(z), radius) == {(0, 2)}
    assert sorted(_sweep_agrees(z, radius)) == [0, 2]


@pytest.mark.parametrize("r, meet", [(1.5e-3, True), (0.6e-3, False)])
def test_sweep_tests_conjugates_with_equal_real_parts(r, meet):
    z = [2.0, 1 + 1e-3j, -1 + 5e-1j, 1 - 1e-3j, -1 - 5e-1j]
    assert (_sweep_agrees(z, [1e-2, r, 1e-2, r, 1e-2]) is not None) is meet


def test_sweep_with_an_infinite_radius_names_its_disk():
    assert 1 in _sweep_agrees([0.0, 5.0, 10.0, 3j], [1.0, np.inf, 1.0, 1.0])


@pytest.mark.parametrize("radius", [0.0, 1.0, np.inf])
def test_sweep_over_a_single_estimate_finds_nothing(radius):
    assert _overlapping_disks(np.asarray([1.0 + 2j]), np.asarray([radius])) is None


def test_sweep_agrees_with_the_pairwise_test_on_random_disks():
    # clouds taller than wide, so that disks meet past their neighbours in
    # real order; some hold conjugate pairs, some an infinite radius, some
    # a single estimate
    rng = np.random.default_rng(20261020)
    verdicts, past_neighbours = set(), 0
    for _ in range(400):
        n = int(rng.integers(1, 40))
        z = rng.normal(scale=10 ** rng.uniform(-3, 0), size=n) + 1j * rng.normal(size=n)
        if rng.random() < 0.5:
            z = np.concatenate([z, z.conj()])
        radius = rng.uniform(0, 10 ** rng.uniform(-3, -0.5), size=len(z))
        if rng.random() < 0.1:
            radius[rng.integers(len(z))] = np.inf
        verdicts.add(_sweep_agrees(z, radius) is not None)
        order = np.argsort(z.real, kind="stable")
        neighbours = {tuple(sorted(p)) for p in zip(order, order[1:])}
        want = pairwise_overlaps(z, radius)
        past_neighbours += bool(want) and not want & neighbours
    assert verdicts == {True, False}
    assert past_neighbours > 0


def _disks_with_mirrors(z, radius):
    """Every disk as (centre, radius): the estimates, then the mirrors of
    the non-real ones."""
    disks = list(zip(z, radius))
    return disks + [(np.conj(w), r) for w, r in disks if w.imag != 0.0]


def _meet(a, b):
    return np.abs(a[0] - b[0]) <= a[1] + b[1]


# centres and radii on a grid of sixteenths, where the sums are exact
_grid = st.integers(-24, 24).map(lambda i: i / 16.0)
_estimates = st.lists(
    st.tuples(
        _grid,
        st.one_of(st.just(0.0), _grid),  # real, or either half-plane
        st.one_of(st.integers(0, 24).map(lambda i: i / 16.0), st.just(np.inf)),
    ),
    min_size=1,
    max_size=12,
)


@given(_estimates)
# a disk that touches the axis reaches its own mirror
@example([(0.5, 0.25, 0.25), (3.0, 0.0, 0.0)])
# equal real parts, the lower one meeting the upper one's mirror
@example([(1.0, -0.5, 0.25), (1.0, 1.0, 0.125), (1.0, 0.0, 0.0)])
@example([(1.0, -0.5, 0.25), (1.0, 1.0, 0.25)])
# an infinite real disk meets every mirror
@example([(1.0, 0.0, np.inf), (-1.0, 1.0, 0.5)])
def test_upper_half_test_is_the_all_pairs_test_with_mirrors(spots):
    z = np.asarray([complex(x, y) for x, y, _ in spots])
    radius = np.asarray([r for *_, r in spots])
    disks = _disks_with_mirrors(z, radius)
    brute = any(_meet(a, b) for i, a in enumerate(disks) for b in disks[i + 1 :])
    hit = _meeting_disks(z, radius)
    assert (hit is not None) == brute
    if hit is not None:
        a, b = hit
        # two disks of the set that really meet: a given estimate or its mirror each
        assert _meet(a, b)
        for centre, r in hit:
            assert any(centre == w and r == q for w, q in disks)


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


# ---------------------------------------------------------------------------
# the rounding bounds of the disks, in exact arithmetic
# ---------------------------------------------------------------------------


def _gaussian(z):
    """``(a, b, D)`` with z = (a + b i) / D, for integers a, b and one power
    of two D."""
    (a, da), (b, db) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    d = max(da, db)
    return a * (d // da), b * (d // db), d


def _exact_horner(coeffs, z):
    """``(D^n q(z), D^(n-1) q'(z), D)`` at the float parts of z, for integer
    coefficients, in integers, each complex value a pair of ints: Horner's
    scheme, exact."""
    a, b, d = _gaussian(z)
    n = len(coeffs) - 1
    value, slope = (int(coeffs[n]), 0), (0, 0)
    for t in range(n):  # value carries D^t, slope D^(t-1)
        slope = (slope[0] * a - slope[1] * b + value[0], slope[0] * b + slope[1] * a + value[1])
        value = (
            value[0] * a - value[1] * b + int(coeffs[n - 1 - t]) * d ** (t + 1),
            value[0] * b + value[1] * a,
        )
    return value, slope, d


def _exact_quotient(value, d, z, power):
    """``(value / d) / z^power`` as a pair of Fractions, for a Gaussian
    integer ``value`` (a pair of ints), an int d and a float z."""
    a, b, big_d = _gaussian(z)
    pr, pi = 1, 0
    for _ in range(power):
        pr, pi = pr * a - pi * b, pr * b + pi * a
    # value D^power / (d (a + b i)^power): times the conjugate over |.|^2
    den = d * (pr * pr + pi * pi)
    num = (value[0] * pr + value[1] * pi, value[1] * pr - value[0] * pi)
    return [Fraction(x * big_d**power, den) for x in num]


def _within(x, exact, bound):
    """``|x - exact| <= bound`` exactly, for a complex float x, an exact
    complex value (a pair of Fractions) and a float bound."""
    re_, im_ = Fraction(x.real) - exact[0], Fraction(x.imag) - exact[1]
    return re_ * re_ + im_ * im_ <= Fraction(bound) ** 2


def test_rounding_bounds_hold_in_exact_arithmetic():
    # sampled quotients of the characteristic polynomials, n <= 60, at
    # random points of both regimes of the kernel, at their own estimates
    # (where p(z) nearly vanishes) and at 0
    from itereq.charpoly import CharProblem, _lifted_estimates, _quotient, classify

    rng = np.random.default_rng(20261021)
    checked = {False: 0, True: 0}
    for _ in range(40):
        n = int(rng.integers(2, 61))
        prob = CharProblem(n, int(rng.integers(0, n + 1)))
        q = _quotient(prob, classify(prob).expected_real_roots[0].multiplicity)
        if q.degree < 1:
            continue
        edge = _kernels.direct_radius(q.degree)
        size = np.concatenate([rng.uniform(0.1, 1.0, 6) * edge, rng.uniform(1.0, 8.0, 6) * edge])
        z = np.concatenate([
            size * np.exp(2j * np.pi * rng.random(12)), _lifted_estimates(prob), [0.0]
        ]).astype(np.complex128)
        h, dh, _, magnitude = _kernels.horner_scaled_bound(q.as_array(), z)
        r_h, r_dh = _rounding_bounds(magnitude, np.abs(z), q.degree)
        for i in range(len(z)):
            # q(z) and q'(z), divided by z^(m-1) past the direct range, where
            # h and dh hold them so (their moduli times the scale s)
            value, slope, d = _exact_horner(q.coeffs, z[i])
            m, big = q.degree, bool(abs(z[i]) > edge)
            value = _exact_quotient(value, d**m, z[i], m - 1 if big else 0)
            slope = _exact_quotient(slope, d ** (m - 1), z[i], m - 1 if big else 0)
            assert _within(h[i], value, r_h[i]), (prob, z[i])
            assert _within(dh[i], slope, r_dh[i]), (prob, z[i])
            checked[big] += 1
    assert min(checked.values()) > 100
