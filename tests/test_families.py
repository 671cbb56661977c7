import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from itereq.charpoly import CharProblem, analyze_roots, classify
from itereq.errors import (
    BadAnchor,
    ConstructionError,
    DomainError,
    NonConvergence,
    NotAnInvolution,
    NotSurjective,
)
from itereq.families import (
    Affine,
    Identity,
    SecondOrderProblem,
    ThreePiece,
    Translation,
    _numeric_inverse,
    build_involution,
    conjugate,
    enumerate_families,
    second_order_families,
    solution_from_json,
)
from itereq.intervals import Interval, REAL_LINE, contains_with_slack
from itereq.means import Generator

SQRT2 = math.sqrt(2.0)
POS = Interval(0.0, math.inf)


# ---------------------------------------------------------------------------
# evaluation and inversion
# ---------------------------------------------------------------------------


def test_three_piece_lower_branch():
    s = ThreePiece(REAL_LINE, 0.0, 1.0, 0.5)
    assert s(-2.0) == -1.0


def test_three_piece_middle_branch_is_identity():
    s = ThreePiece(REAL_LINE, 0.0, 1.0, 0.5)
    assert s(0.5) == 0.5


def test_affine_eval():
    assert Affine(REAL_LINE, -2.0, 0.0)(3.0) == -6.0


def test_three_piece_invert():
    s = ThreePiece(REAL_LINE, 0.0, 1.0, 0.5)
    assert s.invert(-1.0) == -2.0
    assert s.inverse().slope == 2.0


def test_identity_invert():
    s = Identity(REAL_LINE)
    assert s.invert(17.3) == 17.3


def _reciprocal():
    """1/x on (0, inf), the log conjugate of x -> -x."""
    return conjugate(Generator("log", POS), Affine(REAL_LINE, -1.0, 0.0))


def test_involution_invert():
    s = build_involution(Interval(0.0, 2.0), 1.0, f0_table=([0.0, 1.0], [2.0, 1.0]))
    assert s.invert(1.5) == pytest.approx(0.5)
    assert s.inverse() is s


def test_out_of_domain_eval_rejected():
    s = Affine(Interval(0.0, 1.0, True, True), 0.5, 0.25)
    with pytest.raises(DomainError):
        s(2.0)


def test_out_of_image_inversion_rejected():
    s = Affine(Interval(0.0, 1.0, True, True), 0.5, 0.25)  # image [0.25, 0.75]
    with pytest.raises(NotSurjective):
        s.invert(0.9)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_non_finite_points_rejected_on_unbounded_domains(x):
    s = Affine(REAL_LINE, 2.0, 0.0)
    with pytest.raises(DomainError):
        s(x)
    with pytest.raises(NotSurjective):
        s.invert(x)
    inv = _reciprocal()
    with pytest.raises(DomainError):
        inv(x)
    with pytest.raises(NotSurjective):
        inv.invert(x)


def test_points_inside_the_slack_pass():
    # 1e-12 relative slack past a finite end, none past it
    s = Affine(Interval(0.0, 1.0, True, True), 0.5, 0.25)  # image [0.25, 0.75]
    assert s(1.0 + 1e-12) == 0.5 * (1.0 + 1e-12) + 0.25
    assert s(-1e-12) == 0.5 * -1e-12 + 0.25
    assert s.invert(0.75 + 1e-12) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        s(1.0 + 1e-10)
    with pytest.raises(NotSurjective):
        s.invert(0.25 - 1e-10)
    inv = build_involution(Interval(0.0, 2.0), 1.0, f0=lambda x: 2.0 - x)
    assert inv.invert(2.0 + 1e-12) == pytest.approx(0.0, abs=1e-11)
    with pytest.raises(NotSurjective):
        inv.invert(2.0 + 1e-10)


# ---------------------------------------------------------------------------
# construction rules
# ---------------------------------------------------------------------------


def test_affine_zero_slope_rejected():
    with pytest.raises(ConstructionError):
        Affine(REAL_LINE, 0.0, 1.0)


def test_affine_image_containment_enforced():
    Affine(Interval(0.0, 1.0, True, True), 0.5, 0.25)  # fits
    with pytest.raises(ConstructionError):
        Affine(Interval(0.0, 1.0, True, True), 0.5, 0.9)  # spills right
    with pytest.raises(ConstructionError, match="not contained in domain"):
        Affine(Interval(0.0, math.inf, True), -1.0, 0.0)  # image (-inf, 0]


def test_affine_contracting_slope_rejected_on_bounded_domain():
    with pytest.raises(ConstructionError):
        Affine(Interval(0.0, 1.0, True, True), -2.0, 1.0)
    with pytest.raises(ConstructionError):
        Affine(Interval(0.0, 1.0, True, True), 1.5, 0.0)


def test_translation_image_containment():
    Translation(REAL_LINE, 5.0)
    Translation(Interval(0.0, math.inf, True), 2.0)
    with pytest.raises(ConstructionError):
        Translation(Interval(0.0, 1.0, True, True), 0.5)


@pytest.mark.parametrize("c, fits", [
    (-1e-300, True), (1e-12, True), (1e-12 + 5e-25, True), (1e-12 + 2e-24, False),
])
def test_an_image_end_takes_the_slack_of_every_membership_test(c, fits):
    # the image end c is judged as any other value: within 1e-12 (1 + |c|)
    # of the domain end 0, so 1e-12 + 5e-25 fits although it lies past the
    # 1e-12 (1 + 0) measured at the domain end; an infinite image end fits
    # only the domain's own
    for domain in (Interval(-math.inf, 0.0, False, True), Interval(-1.0, 0.0, True, True)):
        assert contains_with_slack(domain, c) is fits
        if fits:
            Translation(domain, c)
        else:
            with pytest.raises(ConstructionError, match="not contained in domain"):
                Translation(domain, c)


def test_three_piece_parameter_validation():
    with pytest.raises(ConstructionError):
        ThreePiece(REAL_LINE, 1.0, 0.0, 0.5)  # a > b
    with pytest.raises(ConstructionError):
        ThreePiece(REAL_LINE, 0.0, 1.0, 1.0)  # slope 1
    with pytest.raises(ConstructionError):
        ThreePiece(REAL_LINE, 0.0, 1.0, -0.5)  # negative slope
    with pytest.raises(ConstructionError):
        ThreePiece(Interval(0.0, 1.0, True, True), -0.5, 0.5, 0.5)  # a outside
    with pytest.raises(ConstructionError, match="^three-piece anchors must be finite$"):
        ThreePiece(REAL_LINE, math.inf, 1.0, 0.5)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_translation_rejects_a_non_finite_shift(bad):
    with pytest.raises(ConstructionError, match="translation c must be finite"):
        Translation(REAL_LINE, bad)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_affine_rejects_non_finite_parameters(bad):
    with pytest.raises(ConstructionError, match="affine slope must be finite"):
        Affine(REAL_LINE, bad, 0.0)
    with pytest.raises(ConstructionError, match="affine c must be finite"):
        Affine(REAL_LINE, 2.0, bad)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_three_piece_rejects_a_non_finite_slope(bad):
    # an infinite slope used to be accepted and map 0.5 to NaN
    with pytest.raises(ConstructionError, match="three-piece slope must be finite"):
        ThreePiece(REAL_LINE, 0.0, 1.0, bad)


@pytest.mark.parametrize(
    "s, name",
    [
        (Affine(REAL_LINE, 1e-300, 1e10), "affine c"),  # -c/slope overflows
        (Affine(REAL_LINE, 5e-324, 0.0), "affine slope"),  # 1/slope overflows
        (ThreePiece(REAL_LINE, 0.0, 1.0, 5e-324), "three-piece slope"),
    ],
)
def test_inverse_that_overflows_names_the_parameter(s, name):
    with pytest.raises(ConstructionError, match=f"^inverse of .*: {name} must be finite"):
        s.inverse()


def test_three_piece_anchors_on_closure_boundary():
    s = ThreePiece(Interval(0.0, 1.0), 0.0, 1.0, 0.5)
    for x in np.linspace(0.01, 0.99, 11):
        assert s(float(x)) == pytest.approx(float(x))


# ---------------------------------------------------------------------------
# degenerate three-piece forms
# ---------------------------------------------------------------------------


def test_three_piece_full_window_is_identity():
    dom = Interval(-2.0, 3.0, True, True)
    s = ThreePiece(dom, -2.0, 3.0, 0.5)
    xs = np.linspace(-2.0, 3.0, 101)
    assert np.allclose(s._eval_array(xs), xs, atol=0.0)


def test_three_piece_collapsed_window_is_affine():
    s = ThreePiece(REAL_LINE, 0.7, 0.7, 2.5)
    anchored = Affine(REAL_LINE, 2.5, 0.7 * (1.0 - 2.5))
    xs = np.linspace(-5.0, 5.0, 101)
    assert np.allclose(s._eval_array(xs), anchored._eval_array(xs), rtol=1e-15)


# ---------------------------------------------------------------------------
# three-piece arithmetic against the branch formulas
# ---------------------------------------------------------------------------
#
# The clamp-anchored evaluation of an array, and the inverse of each point,
# must give every element the IEEE operations of the branch formulas below,
# bit for bit.  The one allowed difference is the sign of a zero from
# x = -0.0 inside (a, b), compared by value.


def _branch_eval(s, xs):
    low = s.slope * (xs - s.a) + s.a
    high = s.slope * (xs - s.b) + s.b
    return np.where(xs <= s.a, low, np.where(xs >= s.b, high, xs))


def _branch_invert(s, ys):
    low = (ys - s.a) / s.slope + s.a
    high = (ys - s.b) / s.slope + s.b
    return np.where(ys <= s.a, low, np.where(ys >= s.b, high, ys))


def _assert_branch_bits(s, xs):
    xs = np.asarray(xs, dtype=float)
    negative_zero = (xs == 0.0) & np.signbit(xs)
    with np.errstate(over="ignore"):
        inverted = np.array([s._invert_scalar(y) for y in xs.tolist()])
        pairs = [
            (s._eval_array(xs), _branch_eval(s, xs)),
            (inverted, _branch_invert(s, xs)),
        ]
    for got, want in pairs:
        assert got.shape == want.shape
        assert got[~negative_zero].tobytes() == want[~negative_zero].tobytes()
        assert np.array_equal(got[negative_zero], want[negative_zero])


def _edge_points(a, b):
    with np.errstate(over="ignore"):  # one ulp beyond the largest float
        ulps = [
            np.nextafter(a, -math.inf), np.nextafter(b, math.inf),
            np.nextafter(a, math.inf), np.nextafter(b, -math.inf),
        ]
    return [a, b, *ulps, 0.5 * (a + b), a - 3.7, b + 3.7, 0.0, -0.0,
            math.inf, -math.inf, math.nan, 1e308, -1e308,
            5e-324, -5e-324, 2.2e-308, -2.2e-308, 1.5, -1.5]


@pytest.mark.parametrize("slope", [SQRT2 - 1.0, 0.1, 1.0 + 1e-12, 3.0, 7.3e5])
@pytest.mark.parametrize(
    "a, b", [(-1.0, 2.0), (0.7, 0.7), (0.0, 0.0), (-1e300, 1e300), (1e-310, 3e-310)]
)
def test_three_piece_arrays_match_the_branch_formulas(a, b, slope):
    _assert_branch_bits(ThreePiece(REAL_LINE, a, b, slope), _edge_points(a, b))


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(
    ends=st.tuples(FINITE, FINITE).map(sorted),
    slope=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).filter(
        lambda r: r != 1.0
    ),
    xs=st.lists(st.floats(), min_size=1, max_size=16),
)
# a zero anchor given as -0.0 must act as +0.0 at x = -5e-324
@example(ends=[0.0, -0.0], slope=2.0, xs=[0.0])
def test_three_piece_arrays_match_the_branch_formulas_swept(ends, slope, xs):
    a, b = ends
    s = ThreePiece(REAL_LINE, a, b, slope)
    _assert_branch_bits(s, xs + _edge_points(a, b))


# ---------------------------------------------------------------------------
# three-piece iteration with the first row's clamp
# ---------------------------------------------------------------------------
#
# ``ThreePiece._iterate_into`` clamps only the first row; every later row
# must get the bits that mapping the row above with ``_eval_into`` gives.

TINY_AND_HUGE = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e300, -1e300]
ANCHORS = st.one_of(FINITE, st.sampled_from(TINY_AND_HUGE))
SLOPES = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.sampled_from([1e-300, 1e300, 5e-324, 1.0 + 1e-12, SQRT2 - 1.0]),
).filter(lambda r: r != 1.0)
POINTS = st.one_of(st.floats(), st.sampled_from(TINY_AND_HUGE))


@given(
    ends=st.tuples(ANCHORS, ANCHORS).map(sorted),
    slope=SLOPES,
    xs=st.lists(POINTS, max_size=12),
    count=st.integers(0, 20),
)
@example(ends=[0.0, -0.0], slope=2.0, xs=[-0.0, 0.0], count=3)
@example(ends=[-0.0, -0.0], slope=1e300, xs=[-5e-324, 5e-324, -0.0], count=20)
@example(ends=[0.7, 0.7], slope=1e-300, xs=[0.7, 0.8, 0.6], count=20)
@example(ends=[-1e300, 1e300], slope=1e300, xs=[math.inf, -math.inf, math.nan], count=5)
def test_three_piece_iteration_matches_repeated_maps(ends, slope, xs, count):
    a, b = ends
    s = ThreePiece(REAL_LINE, a, b, slope)
    points = xs + _edge_points(s.a, s.b)
    got = np.empty((count + 1, len(points)))
    got[0] = points
    want = got.copy()
    with np.errstate(over="ignore", under="ignore"):
        assert s._iterate_into(got) is got
        for i in range(1, count + 1):
            s._eval_into(want[i - 1], want[i])
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# scalar maps against the array maps
# ---------------------------------------------------------------------------
#
# ``__call__`` and ``invert`` run ``_eval_scalar`` and ``_invert_scalar`` in
# Python floats; each must give every point the bits of an array form: the
# family's own ``_eval_array``, and the inverse formula written over arrays.


def _clamp_invert(s, ys):
    anchor = np.minimum(np.maximum(ys, s.a), s.b)
    return (ys - anchor) / s.slope + anchor


def _assert_scalar_bits(s, xs, invert):
    xs = [float(x) for x in xs]
    maps = ((s._eval_scalar, s._eval_array), (s._invert_scalar, invert))
    with np.errstate(over="ignore", invalid="ignore"):
        for scalar, array in maps:
            whole = array(np.asarray(xs))
            for x, want in zip(xs, whole.tolist()):
                got = np.float64(scalar(x)).tobytes()
                assert got == np.float64(want).tobytes(), (x, scalar(x), want)
                assert got == array(np.asarray([x])).tobytes(), x


NONZERO = FINITE.filter(lambda v: v != 0.0)


@given(
    ends=st.tuples(FINITE, FINITE).map(sorted),
    slope=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).filter(
        lambda r: r != 1.0
    ),
    xs=st.lists(st.floats(), max_size=16),
)
@example(ends=[0.0, -0.0], slope=2.0, xs=[-0.0, 0.0])
@example(ends=[0.7, 0.7], slope=SQRT2 - 1.0, xs=[])
@example(ends=[-1e308, 1e308], slope=7.3e5, xs=[])
@example(ends=[5e-324, 5e-324], slope=1e-300, xs=[])
def test_three_piece_scalar_maps_match_the_arrays(ends, slope, xs):
    a, b = ends
    s = ThreePiece(REAL_LINE, a, b, slope)
    points = xs + _edge_points(s.a, s.b)
    _assert_scalar_bits(s, points, lambda ys: _clamp_invert(s, ys))


@given(
    slope=NONZERO,
    c=FINITE,
    xs=st.lists(st.floats(), max_size=16),
)
@example(slope=-1.0 - SQRT2, c=0.3, xs=[])
@example(slope=5e-324, c=-0.0, xs=[1e308, -1e308])
def test_identity_translation_affine_scalar_maps_match_the_arrays(slope, c, xs):
    points = xs + _edge_points(c, c + 1.0)
    for s, invert in (
        (Identity(REAL_LINE), lambda ys: ys.copy()),
        (Translation(REAL_LINE, c), lambda ys: ys - c),
        (Affine(REAL_LINE, slope, c), lambda ys: (ys - c) / slope),
    ):
        _assert_scalar_bits(s, points, invert)


def test_call_and_invert_take_the_scalar_path(monkeypatch):
    # the closed-form families build no array per point
    def no_arrays(self, xs):
        raise AssertionError("array path taken for one point")

    for cls in (Identity, Translation, Affine, ThreePiece):
        monkeypatch.setattr(cls, "_eval_array", no_arrays)
    for s in SOLUTIONS:
        y = s(1.25)
        assert type(y) is float and type(s.invert(y)) is float


def test_three_piece_maps_negative_zero_to_a_zero():
    s = ThreePiece(REAL_LINE, -1.0, 2.0, 0.5)
    assert s(-0.0) == 0.0
    assert s.invert(-0.0) == 0.0


def test_conjugate_inverts_one_point_through_its_generator():
    from itereq.selftest import geometric_conjugate, power_conjugate

    for s, gen, _ in (geometric_conjugate(), power_conjugate()):
        img = s.image()
        for y in np.linspace(img.lo, img.hi, 41)[1:-1].tolist():
            inner_y = gen.phi(np.asarray([y]))
            x = s.inner.invert(float(inner_y[0]))
            want = gen.phi_inv(np.asarray([x]))
            assert np.float64(s.invert(y)).tobytes() == want.tobytes(), y


def test_involution_inverts_by_its_own_map():
    xs = np.array([0.0, 0.5, 1.0])
    for s in (
        build_involution(Interval(0.0, 2.0), 1.0, f0=lambda x: 2.0 - x * x),
        build_involution(Interval(0.0, 2.0), 0.8, f0=lambda x: 2.0 - 1.2 * (x / 0.8) ** 1.3),
        build_involution(Interval(0.0, 2.0), 1.0, f0_table=(xs, 2.0 - xs)),
    ):
        lo, hi = s.domain.window()
        for y in np.linspace(lo, hi, 41)[1:-1].tolist():
            assert np.float64(s.invert(y)).tobytes() == np.float64(s(y)).tobytes(), y


# ---------------------------------------------------------------------------
# monotonicity and round trips
# ---------------------------------------------------------------------------

SOLUTIONS = [
    Identity(REAL_LINE),
    Translation(REAL_LINE, 0.7),
    Affine(REAL_LINE, -1.0 - SQRT2, 0.3),
    Affine(REAL_LINE, 2.0, -1.0),
    ThreePiece(REAL_LINE, -1.0, 2.0, SQRT2 - 1.0),
    ThreePiece(REAL_LINE, 0.0, 0.0, 3.0),
]


def test_eval_into_writes_the_array_map_into_the_callers_row():
    # verification maps each grid row into its place in the block; the
    # involution and the conjugate copy their array result in
    pos = Interval(1.0, 4.0, True, True)
    gen = Generator("log", pos)
    sols = SOLUTIONS + [
        build_involution(Interval(0.0, 2.0), 0.8, f0=lambda x: 2.0 - 1.2 * (x / 0.8) ** 1.3),
        conjugate(gen, Affine(gen.image(), -0.5, math.log(2.0))),
    ]
    for sol in sols:
        lo, hi = sol.domain.window()
        xs = np.linspace(lo, hi, 37)
        block = np.full((3, len(xs)), 7.0)
        got = sol._eval_into(xs, block[1])
        assert np.shares_memory(got, block[1])
        assert block[1].tobytes() == sol._eval_array(xs).tobytes(), sol.family
        assert (block[0] == 7.0).all() and (block[2] == 7.0).all()


@st.composite
def _solution_on_a_random_domain(draw):
    """Identity, Translation, Affine or ThreePiece on a half-line, a bounded
    interval or the real line, with parameters that keep the image inside."""
    ends = st.floats(-100.0, 100.0)
    shape = draw(st.sampled_from(["real", "above", "below", "bounded"]))
    lo, hi = -math.inf, math.inf
    if shape == "above":
        lo = draw(ends)
    elif shape == "below":
        hi = draw(ends)
    elif shape == "bounded":
        lo = draw(ends)
        hi = draw(st.floats(lo + 0.5, lo + 100.0))
    domain = Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))
    wlo, whi = domain.window()
    mid = draw(st.floats(wlo, whi))  # a fixed point or anchor in the domain
    shift = draw(st.floats(0.0, 50.0))
    family = draw(st.sampled_from(["identity", "translation", "affine", "three_piece"]))
    if family == "identity":
        return Identity(domain)
    if family == "translation":
        c = {"real": shift - 25.0, "above": shift, "below": -shift}.get(shape, 0.0)
        return Translation(domain, c)
    # slopes a half-line or a bounded interval maps into itself: positive and
    # contracting on both, negative only on a bounded interval
    contract = st.floats(0.05, 0.95)
    if family == "affine":
        if shape == "real":
            slope = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.05, 5.0))
        elif shape == "bounded":
            slope = draw(st.sampled_from([-1.0, 1.0])) * draw(contract)
            mid = 0.5 * (lo + hi)
        else:
            slope = draw(contract)
        c = mid * (1.0 - slope) + {"above": shift, "below": -shift}.get(shape, 0.0)
        return Affine(domain, slope, c)
    slope = draw(st.floats(0.05, 5.0).filter(lambda r: r != 1.0) if shape == "real" else contract)
    b = draw(st.floats(mid, whi))
    return ThreePiece(domain, mid, b, slope)


@given(sol=_solution_on_a_random_domain())
def test_image_maps_the_domain_ends_and_holds_every_mapped_point(sol):
    dom, img, f = sol.domain, sol.image(), sol._eval_scalar
    ends = [(f(dom.lo), dom.lo_closed), (f(dom.hi), dom.hi_closed)]
    if not sol.is_increasing:
        ends.reverse()
    assert [(img.lo, img.lo_closed), (img.hi, img.hi_closed)] == ends
    assert math.isinf(img.lo) == math.isinf(dom.lo if sol.is_increasing else dom.hi)
    assert math.isinf(img.hi) == math.isinf(dom.hi if sol.is_increasing else dom.lo)
    lo, hi = dom.window()
    for x in np.linspace(lo, hi, 33).tolist():
        if dom.contains(x):
            assert contains_with_slack(img, f(x)), (x, f(x), img)


@pytest.mark.parametrize("sol", SOLUTIONS, ids=lambda s: f"{s.family}")
def test_strict_monotonicity_on_sorted_grid(sol):
    xs = np.linspace(-8.0, 8.0, 401)
    ys = sol._eval_array(xs)
    diffs = np.diff(ys)
    if sol.is_increasing:
        assert np.all(diffs > 0)
    else:
        assert np.all(diffs < 0)


@pytest.mark.parametrize("sol", SOLUTIONS, ids=lambda s: f"{s.family}")
@given(x=st.floats(min_value=-100.0, max_value=100.0))
def test_eval_invert_round_trip(sol, x):
    y = sol(x)
    back = sol.invert(y)
    assert abs(back - x) <= 1e-9 * (1.0 + abs(x))


def test_involution_is_decreasing_and_self_inverse():
    s = build_involution(Interval(0.0, 2.0), 0.8, f0=lambda x: 2.0 - 1.2 * (x / 0.8) ** 1.3)
    xs = np.linspace(0.05, 1.95, 1001)
    ys = s._eval_array(xs)
    assert np.all(np.diff(ys) < 0)
    assert np.max(np.abs(s._eval_array(ys) - xs) / (1.0 + np.abs(xs))) <= 1e-9


# ---------------------------------------------------------------------------
# family enumeration
# ---------------------------------------------------------------------------


# family kinds on the real line for each case of the paper's table; K0 and
# KN give the identity, plus the affine family when n is even
KINDS_BY_CASE = {
    "C1": ["translation"],
    "C2": ["three_piece"],
    "C3": ["three_piece"],
    **dict.fromkeys(("C4", "C5", "C6", "C7"), ["affine", "three_piece"]),
}


def test_enumeration_follows_the_case_table():
    for n in range(2, 31):
        for k in range(n + 1):
            prob = CharProblem(n, k)
            if 0 < k < n and prob.both_even:
                continue
            out = enumerate_families(prob, REAL_LINE)
            label = classify(prob).case_label
            if label in ("K0", "KN"):
                kinds = ["identity"] if n % 2 else ["identity", "affine"]
            else:
                kinds = KINDS_BY_CASE[label]
            assert out.status == "ok"
            assert [d.family for d in out.families] == kinds, (n, k)
            roots = [r.value for r in analyze_roots(prob).real_roots]
            for d in out.families:
                if d.slope is not None:
                    assert (d.slope < 0.0) == (d.family == "affine")
                    assert d.slope.hex() in [r.hex() for r in roots], (n, k)


def test_enumerate_translation_case():
    out = enumerate_families(CharProblem(6, 3), REAL_LINE)
    assert out.status == "ok"
    assert [d.family for d in out.families] == ["translation"]
    assert out.families[0].free_params == ("c",)


def test_enumerate_both_odd_case():
    out = enumerate_families(CharProblem(3, 1), REAL_LINE)
    families = {d.family: d for d in out.families}
    assert set(families) == {"affine", "three_piece"}
    assert families["affine"].slope == pytest.approx(-1.0 - SQRT2, abs=1e-10)
    assert families["three_piece"].slope == pytest.approx(SQRT2 - 1.0, abs=1e-10)


def test_enumerate_kn_even():
    out = enumerate_families(CharProblem(2, 2), REAL_LINE)
    assert [d.family for d in out.families] == ["identity", "affine"]
    assert out.families[1].slope == pytest.approx(-0.5, abs=1e-12)


def test_enumerate_k0_kn_odd_identity_only():
    assert [d.family for d in enumerate_families(CharProblem(3, 0), REAL_LINE).families] == ["identity"]
    assert [d.family for d in enumerate_families(CharProblem(3, 3), REAL_LINE).families] == ["identity"]


def test_enumerate_even_odd_case():
    out = enumerate_families(CharProblem(3, 2), REAL_LINE)
    families = {d.family: d for d in out.families}
    assert set(families) == {"affine", "three_piece"}
    assert -1.0 < families["affine"].slope < 0.0
    assert families["three_piece"].slope > 1.0  # n < 2k here


def test_enumeration_solves_no_spectrum_when_1_is_the_only_real_root(monkeypatch):
    from itereq import families

    def refuse(prob):
        raise AssertionError(f"spectrum solved for {prob}")

    monkeypatch.setattr(families, "analyze_roots", refuse)
    for n in (3, 5, 1001):
        for k in (0, n):
            out = enumerate_families(CharProblem(n, k), REAL_LINE)
            assert [d.family for d in out.families] == ["identity"]
    for k in (1, 3, 501):
        out = enumerate_families(CharProblem(2 * k, k), REAL_LINE)
        assert [d.family for d in out.families] == ["translation"]


def test_enumerate_k0_even_depends_on_domain():
    on_line = enumerate_families(CharProblem(2, 0), REAL_LINE)
    assert [d.family for d in on_line.families] == ["identity", "affine"]
    assert on_line.families[1].slope == pytest.approx(-2.0, abs=1e-12)

    on_unit = enumerate_families(CharProblem(2, 0), Interval(0.0, 1.0))
    assert [d.family for d in on_unit.families] == ["identity"]


def test_enumerate_open_problem():
    out = enumerate_families(CharProblem(4, 2), REAL_LINE)
    assert out.is_open_problem
    assert out.families == ()


def test_descriptor_instantiation():
    out = enumerate_families(CharProblem(4, 1), REAL_LINE)
    desc = out.families[0]
    sol = desc.instantiate(REAL_LINE, a=0.0, b=1.0)
    assert isinstance(sol, ThreePiece)
    assert sol.slope == desc.slope


def test_instantiate_defaults_anchor_at_window_midpoint():
    window = Interval(0.0, 4.0, True, True)
    # contracting slopes: 0.414 for (3, 1), -0.414 for (3, 2)
    three_piece = enumerate_families(CharProblem(3, 1), REAL_LINE).families[1]
    sol = three_piece.instantiate(window)
    assert (sol.a, sol.b) == (2.0, 2.0)
    affine = enumerate_families(CharProblem(3, 2), REAL_LINE).families[0]
    assert affine.instantiate(window)(2.0) == pytest.approx(2.0, abs=1e-15)


def test_enumeration_analyzes_roots_once(monkeypatch):
    from itereq import families

    calls = []

    def counted(prob):
        calls.append(prob)
        return analyze_roots(prob)

    monkeypatch.setattr(families, "analyze_roots", counted)
    out = enumerate_families(CharProblem(3, 1), REAL_LINE)
    assert [d.family for d in out.families] == ["affine", "three_piece"]
    assert len(calls) == 1
    # kept per problem and domain: an equal pair gets the same enumeration
    assert enumerate_families(CharProblem(3, 1), REAL_LINE) is out
    assert len(calls) == 1


@pytest.mark.parametrize("domain", [REAL_LINE, POS], ids=["line", "half_line"])
def test_enumerations_are_kept_per_problem_and_domain(domain):
    # the autouse fixture empties the memo before each test, so the second
    # parametrization starts empty too
    assert enumerate_families.cache_info().currsize == 0
    equal = Interval(domain.lo, domain.hi, domain.lo_closed, domain.hi_closed)
    for n, k in ((3, 1), (4, 0), (4, 2)):
        out = enumerate_families(CharProblem(n, k), domain)
        assert enumerate_families(CharProblem(n, k), equal) is out
    assert enumerate_families.cache_info().currsize == 3
    # k = 0 lists the identity alone off the real line, under its own key
    kinds = [d.family for d in enumerate_families(CharProblem(4, 0), domain).families]
    assert kinds == (["identity", "affine"] if domain.is_real_line else ["identity"])
    assert not hasattr(classify, "cache_info")


def test_enumeration_failures_are_not_cached(monkeypatch):
    from itereq import families

    calls = []

    def failing(prob):
        calls.append(prob)
        raise NonConvergence("injected solver failure")

    monkeypatch.setattr(families, "analyze_roots", failing)
    for _ in range(2):
        with pytest.raises(NonConvergence, match="injected"):
            enumerate_families(CharProblem(3, 1), REAL_LINE)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# second-order families
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "rho, kinds",
    [
        (1.0, ["translation"]),
        (0.5, ["three_piece"]),
        (2.0, ["three_piece"]),
        (-0.5, ["identity", "affine"]),
        (-3.0, ["identity", "affine"]),
    ],
)
def test_second_order_families_follow_rho(rho, kinds):
    out = second_order_families(SecondOrderProblem(rho, REAL_LINE))
    assert [d.family for d in out.families] == kinds
    assert [d.slope for d in out.families if d.slope is not None] == (
        [] if rho == 1.0 else [rho]
    )


def test_second_order_rho_zero_rejected():
    with pytest.raises(DomainError):
        SecondOrderProblem(0.0, REAL_LINE)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_second_order_rejects_a_non_finite_rho(bad):
    with pytest.raises(DomainError, match="'rho'"):
        SecondOrderProblem(bad, REAL_LINE)


# ---------------------------------------------------------------------------
# involution construction
# ---------------------------------------------------------------------------


def test_reciprocal_involution():
    s = _reciprocal()
    for x in (0.1, 0.5, 1.0, 2.0, 7.0):
        assert s(x) == pytest.approx(1.0 / x, rel=1e-12)
        assert s(s(x)) == pytest.approx(x, rel=1e-12)


def test_involution_numeric_inverse_branch():
    # the right branch is inverted by search: f0^{-1}(y) = sqrt(2 - y)
    s = build_involution(Interval(0.0, 2.0), 1.0, f0=lambda x: 2.0 - x * x)
    assert s(1.75) == pytest.approx(0.5, abs=1e-10)


def _scalar_inverse(f0, domain, a, vals):
    """The one-value-at-a-time bisection the vectorized inverse must match."""
    out = np.empty_like(vals)
    for idx, y in enumerate(vals):
        hi = a
        lo = domain.lo + 1e-300
        probe = domain.lo + 1e-13 * (a - domain.lo)
        if float(f0(np.asarray([probe]))[0]) < y:
            lo = probe
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if float(f0(np.asarray([mid]))[0]) >= y:
                lo = mid
            else:
                hi = mid
        out[idx] = 0.5 * (lo + hi)
    return out


INVERSE_CASES = {
    # finite lower end; values up to f0's supremum 2, the top ones above the
    # reachable branch (so the probe clamp applies), and a few outside it
    "finite": (
        Interval(0.0, 2.0), 0.8, lambda x: 2.0 - 1.2 * (x / 0.8) ** 0.9,
        np.concatenate([np.linspace(0.8, 2.0, 1001), [2.0 - 1e-12, 0.5, 2.5]]),
    ),
}


@pytest.mark.parametrize("case", sorted(INVERSE_CASES))
def test_numeric_inverse_matches_scalar_bisection(case):
    domain, a, f0, vals = INVERSE_CASES[case]
    if case == "finite":
        probe = domain.lo + 1e-13 * (a - domain.lo)
        assert np.any(vals > f0(np.asarray([probe])))
    got = _numeric_inverse(f0, domain, a)(vals)
    assert got.tobytes() == _scalar_inverse(f0, domain, a, vals).tobytes()


@pytest.mark.parametrize("case", sorted(INVERSE_CASES))
def test_numeric_inverse_calls_the_branch_per_step_not_per_value(case):
    domain, a, f0, vals = INVERSE_CASES[case]
    calls = []

    def counted(x):
        calls.append(len(x))
        return f0(x)

    _numeric_inverse(counted, domain, a)(vals[:1001])
    assert len(calls) <= 300


def test_involution_boundary_limit_rejected_on_bounded_domain():
    # f0(x) = 1.8 - 0.8 x fixes 1 but tends to 1.8, not to 2, at 0
    with pytest.raises(BadAnchor, match="tends to"):
        build_involution(Interval(0.0, 2.0), 1.0, f0=lambda x: 1.8 - 0.8 * x)


@pytest.mark.parametrize(
    "domain", [POS, REAL_LINE, Interval(-math.inf, 0.0)], ids=["above", "line", "below"]
)
def test_involution_rejects_an_unbounded_domain(domain):
    with pytest.raises(DomainError, match="bounded") as err:
        build_involution(domain, -1.0 if domain.hi == 0.0 else 1.0, f0=lambda x: -x)
    assert str(domain) in str(err.value)


def test_involution_linear_branch_on_bounded_domain():
    s = build_involution(Interval(0.0, 2.0), 1.0, f0=lambda x: 2.0 - x)
    xs = np.linspace(0.01, 1.99, 101)
    assert np.allclose(s._eval_array(xs), 2.0 - xs, atol=1e-12)
    assert np.allclose(s._eval_array(s._eval_array(xs)), xs, atol=1e-12)


@pytest.mark.parametrize(
    "table",
    [([0.0, 1.0], [2.0]), ([[0.0, 1.0]], [[2.0, 1.0]]), (["x", 1.0], [2.0, 1.0])],
    ids=["lengths", "nested", "text"],
)
def test_involution_table_needs_two_number_lists_of_one_length(table):
    with pytest.raises(ConstructionError, match="lists of numbers of one length"):
        build_involution(Interval(0.0, 2.0), 1.0, f0_table=table)


def test_involution_needs_a_branch():
    with pytest.raises(ConstructionError, match=r"^supply f0 \(callable\) or f0_table$"):
        build_involution(Interval(0.0, 2.0), 1.0)


def test_involution_anchor_mismatch_rejected():
    with pytest.raises(BadAnchor):
        build_involution(Interval(0.0, 2.0), 0.5, f0=lambda x: 2.0 - x)


def test_involution_needs_open_or_closed_domain():
    with pytest.raises(DomainError):
        build_involution(
            Interval(0.0, 2.0, lo_closed=True, hi_closed=False),
            1.0,
            f0=lambda x: 2.0 - x,
        )


def test_involution_anchor_must_be_interior():
    with pytest.raises(DomainError):
        build_involution(Interval(0.0, 2.0), 2.0, f0=lambda x: 2.0 - x)


def test_involution_from_table():
    xs = np.linspace(0.0, 1.0, 33)
    ys = 2.0 - xs
    s = build_involution(Interval(0.0, 2.0), 1.0, f0_table=(xs, ys))
    assert s(0.25) == pytest.approx(1.75)
    assert s(1.75) == pytest.approx(0.25)


def test_involution_table_must_decrease():
    with pytest.raises(NotAnInvolution):
        build_involution(
            Interval(0.0, 2.0), 1.0, f0_table=([0.0, 1.0], [0.5, 1.0])
        )


@pytest.mark.parametrize("bad", [None, math.nan, math.inf])
def test_involution_table_entries_must_be_finite(bad):
    with pytest.raises(ConstructionError, match="f0_table"):
        build_involution(
            Interval(0.0, 2.0, True, True), 1.0,
            f0_table=([0.0, 0.5, 1.0], [2.0, bad, 1.0]),
        )


def test_involution_round_trip_gate_rejects_nan():
    # NaN left of -5 passes the anchor, boundary and decrease checks;
    # only the round-trip gate sees it
    with pytest.raises(NotAnInvolution):
        build_involution(
            Interval(-10.0, 10.0), 0.0, f0=lambda x: np.where(x < -5.0, np.nan, -x)
        )


def test_non_involution_rejected():
    # strictly decreasing branch that fixes a but is not self-inverse on it
    with pytest.raises((NotAnInvolution, BadAnchor)):
        build_involution(
            Interval(0.0, 2.0), 1.0, f0=lambda x: 1.0 + (1.0 - x) ** 3 + (1.0 - x)
        )


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "sol",
    [
        Identity(Interval(0.0, 1.0)),
        Translation(REAL_LINE, -0.25),
        Affine(REAL_LINE, -2.0, 5.0),
        ThreePiece(REAL_LINE, 0.0, 1.0, 0.5),
    ],
    ids=lambda s: s.family,
)
def test_solution_json_round_trip(sol):
    spec = sol.to_json()
    back = solution_from_json(spec)
    assert back.to_json() == spec
    xs = np.linspace(max(sol.domain.lo, -3.0), min(sol.domain.hi, 3.0), 11)
    for x in xs:
        if sol.domain.is_interior(float(x)):
            assert back(float(x)) == sol(float(x))


def test_table_involution_does_not_serialize():
    # no involution but the identity solves the paper's equation, so the
    # solution JSON has no involution family
    xs = np.linspace(0.0, 1.0, 65)
    s = build_involution(Interval(0.0, 2.0), 1.0, f0_table=(xs, 2.0 - xs))
    with pytest.raises(ConstructionError, match="do not serialize"):
        s.to_json()
    spec = {
        "family": "involution",
        "params": {"a": 1.0, "f0_table": {"x": xs.tolist(), "y": (2.0 - xs).tolist()}},
        "domain": {"lo": 0.0, "hi": 2.0},
    }
    with pytest.raises(ConstructionError, match="unknown family 'involution'"):
        solution_from_json(spec)


def test_callable_involution_does_not_serialize():
    s = build_involution(Interval(0.0, 2.0), 1.0, f0=lambda x: 2.0 - x)
    with pytest.raises(ConstructionError):
        s.to_json()


def test_conjugate_json_round_trip():
    from itereq.families import conjugate
    from itereq.means import Generator

    domain = Interval(1.0, 4.0, True, True)
    gen = Generator("log", domain)
    F = conjugate(gen, Affine(gen.image(), -0.5, math.log(2.0)))
    spec = F.to_json()
    assert spec["family"] == "conjugate"
    back = solution_from_json(spec)
    for x in np.linspace(1.0, 4.0, 17):
        assert back(float(x)) == pytest.approx(F(float(x)), rel=1e-14)
