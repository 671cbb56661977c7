import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from itereq.charpoly import CharProblem, analyze_roots
from itereq.errors import (
    BadAnchor,
    ConstructionError,
    DomainError,
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
    enumerate_families,
    second_order_families,
    solution_from_json,
)
from itereq.intervals import Interval, REAL_LINE

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


def test_involution_invert():
    s = build_involution(POS, 1.0, f0=lambda x: 1.0 / x, f0_inverse=lambda y: 1.0 / y)
    assert s.invert(4.0) == pytest.approx(0.25)
    assert s.inverse() is s


def test_out_of_domain_eval_rejected():
    s = Affine(Interval(0.0, 1.0, True, True), 0.5, 0.25)
    with pytest.raises(DomainError):
        s(2.0)


def test_out_of_image_inversion_rejected():
    s = Affine(Interval(0.0, 1.0, True, True), 0.5, 0.25)  # image [0.25, 0.75]
    with pytest.raises(NotSurjective):
        s.invert(0.9)


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


def test_three_piece_parameter_validation():
    with pytest.raises(ConstructionError):
        ThreePiece(REAL_LINE, 1.0, 0.0, 0.5)  # a > b
    with pytest.raises(ConstructionError):
        ThreePiece(REAL_LINE, 0.0, 1.0, 1.0)  # slope 1
    with pytest.raises(ConstructionError):
        ThreePiece(REAL_LINE, 0.0, 1.0, -0.5)  # negative slope
    with pytest.raises(ConstructionError):
        ThreePiece(Interval(0.0, 1.0, True, True), -0.5, 0.5, 0.5)  # a outside


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
# The clamp-anchored evaluation must give every element the IEEE operations
# of the branch formulas below, bit for bit.  The one allowed difference is
# the sign of a zero from x = -0.0 inside (a, b), compared by value.


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
        pairs = [
            (s._eval_array(xs), _branch_eval(s, xs)),
            (s._invert_array(xs), _branch_invert(s, xs)),
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


def test_three_piece_maps_negative_zero_to_a_zero():
    s = ThreePiece(REAL_LINE, -1.0, 2.0, 0.5)
    assert s(-0.0) == 0.0
    assert s.invert(-0.0) == 0.0


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
    s = build_involution(POS, 1.0, f0=lambda x: 1.0 / x, f0_inverse=lambda y: 1.0 / y)
    xs = np.linspace(0.05, 9.0, 1001)
    ys = s._eval_array(xs)
    assert np.all(np.diff(ys) < 0)
    assert np.max(np.abs(s._eval_array(ys) - xs) / (1.0 + np.abs(xs))) <= 1e-9


# ---------------------------------------------------------------------------
# family enumeration
# ---------------------------------------------------------------------------


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


def test_enumerate_k0_even_depends_on_domain():
    on_line = enumerate_families(CharProblem(2, 0), REAL_LINE)
    assert [d.family for d in on_line.families] == ["identity", "affine"]
    assert on_line.families[1].slope == pytest.approx(-2.0, abs=1e-12)

    on_unit = enumerate_families(CharProblem(2, 0), Interval(0.0, 1.0))
    assert [d.family for d in on_unit.families] == ["identity"]


def test_enumerate_kn_even():
    out = enumerate_families(CharProblem(2, 2), REAL_LINE)
    assert [d.family for d in out.families] == ["identity", "affine"]
    assert out.families[1].slope == pytest.approx(-0.5, abs=1e-12)


def test_enumerate_k0_kn_odd_identity_only():
    assert [d.family for d in enumerate_families(CharProblem(3, 0), REAL_LINE).families] == ["identity"]
    assert [d.family for d in enumerate_families(CharProblem(3, 3), REAL_LINE).families] == ["identity"]


def test_enumerate_open_problem():
    out = enumerate_families(CharProblem(4, 2), REAL_LINE)
    assert out.is_open_problem
    assert out.families == ()


def test_enumerate_even_odd_case():
    out = enumerate_families(CharProblem(3, 2), REAL_LINE)
    families = {d.family: d for d in out.families}
    assert set(families) == {"affine", "three_piece"}
    assert -1.0 < families["affine"].slope < 0.0
    assert families["three_piece"].slope > 1.0  # n < 2k here


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


# ---------------------------------------------------------------------------
# second-order families
# ---------------------------------------------------------------------------


def test_second_order_rho_one():
    out = second_order_families(SecondOrderProblem(1.0, REAL_LINE))
    assert [d.family for d in out.families] == ["translation"]


def test_second_order_rho_positive():
    out = second_order_families(SecondOrderProblem(0.5, REAL_LINE))
    assert [d.family for d in out.families] == ["three_piece"]
    assert out.families[0].slope == 0.5


def test_second_order_rho_negative():
    out = second_order_families(SecondOrderProblem(-0.5, REAL_LINE))
    assert [d.family for d in out.families] == ["identity", "affine"]
    assert out.families[1].slope == -0.5


def test_second_order_rho_zero_rejected():
    with pytest.raises(DomainError):
        SecondOrderProblem(0.0, REAL_LINE)


# ---------------------------------------------------------------------------
# involution construction
# ---------------------------------------------------------------------------


def test_reciprocal_involution():
    s = build_involution(POS, 1.0, f0=lambda x: 1.0 / x, f0_inverse=lambda y: 1.0 / y)
    for x in (0.1, 0.5, 1.0, 2.0, 7.0):
        assert s(x) == pytest.approx(1.0 / x, rel=1e-12)
        assert s(s(x)) == pytest.approx(x, rel=1e-12)


def test_involution_numeric_inverse_branch():
    # no explicit inverse supplied: the right branch is inverted by search
    s = build_involution(POS, 1.0, f0=lambda x: 1.0 / x)
    assert s(4.0) == pytest.approx(0.25, abs=1e-10)


def _scalar_inverse(f0, domain, a, vals):
    """The one-value-at-a-time bisection the vectorized inverse must match."""
    out = np.empty_like(vals)
    for idx, y in enumerate(vals):
        hi = a
        if math.isfinite(domain.lo):
            lo = domain.lo + 1e-300
            probe = domain.lo + 1e-13 * (a - domain.lo)
            if float(f0(np.asarray([probe]))[0]) < y:
                lo = probe
        else:
            lo = a - 1.0
            while float(f0(np.asarray([lo]))[0]) < y and lo > -1e300:
                lo = a - 2.0 * (a - lo)
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
    # infinite lower end: the bracket grows by doubling
    "infinite": (
        REAL_LINE, 0.0, lambda x: np.expm1(-x),
        np.concatenate([np.linspace(-1.0, 50.0, 1001), [1e10, 1e200]]),
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


def test_involution_boundary_limit_rejected_on_unbounded_domain():
    # f0(x) = 2 - x tends to 2, not to +inf, at the infimum of (0, inf)
    with pytest.raises(BadAnchor):
        build_involution(POS, 1.0, f0=lambda x: 2.0 - x)


def test_involution_linear_branch_on_bounded_domain():
    s = build_involution(Interval(0.0, 2.0), 1.0, f0=lambda x: 2.0 - x)
    xs = np.linspace(0.01, 1.99, 101)
    assert np.allclose(s._eval_array(xs), 2.0 - xs, atol=1e-12)
    assert np.allclose(s._eval_array(s._eval_array(xs)), xs, atol=1e-12)


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
            REAL_LINE, 0.0,
            f0=lambda x: np.where(x < -5.0, np.nan, -x),
            f0_inverse=lambda y: -y,
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
    xs = np.linspace(*sol.domain.window(3.0), 11)
    for x in xs:
        if sol.domain.is_interior(float(x)):
            assert back(float(x)) == sol(float(x))


def test_involution_json_round_trip_via_table():
    xs = np.linspace(0.0, 1.0, 65)
    s = build_involution(Interval(0.0, 2.0), 1.0, f0_table=(xs, 2.0 - xs))
    spec = s.to_json()
    assert spec["family"] == "involution"
    back = solution_from_json(spec)
    assert back(0.3) == pytest.approx(s(0.3))


def test_callable_involution_does_not_serialize():
    s = build_involution(POS, 1.0, f0=lambda x: 1.0 / x, f0_inverse=lambda y: 1.0 / y)
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
