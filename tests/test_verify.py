import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from itereq import verify as verify_module
from itereq.charpoly import CharProblem, analyze_roots, build_char_poly
from itereq.errors import ConstructionError, DomainError, NotSurjective
from itereq.families import (
    Affine,
    Identity,
    Solution,
    ThreePiece,
    Translation,
    build_involution,
    conjugate,
    enumerate_families,
)
from itereq.intervals import (
    Interval,
    REAL_LINE,
    contains_with_slack,
    contains_with_slack_array,
)
from itereq.means import Generator
from itereq.poly import Polynomial
from itereq.verify import (
    _BLOCK,
    _grid_points,
    _iterate_rows,
    DEFAULT_TOL,
    DualReport,
    Orbit,
    VerifyReport,
    antimonotone_signs_constant,
    iterate,
    sample_grid,
    verify_dual,
    verify_general,
    verify_mean,
    verify_second_order,
)

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------


def test_identity_orbit_constant():
    orb = iterate(Identity(REAL_LINE), 3.0, 0, 5)
    assert list(orb.forward_values()) == [3.0] * 6


def test_affine_orbit_powers():
    orb = iterate(Affine(REAL_LINE, -2.0, 0.0), 1.0, 0, 3)
    assert list(orb.forward_values()) == [1.0, -2.0, 4.0, -8.0]


def test_translation_orbit_backward():
    orb = iterate(Translation(REAL_LINE, 0.5), 0.0, -2, 2)
    assert list(orb.all_values()) == [-1.0, -0.5, 0.0, 0.5, 1.0]


def test_overflowing_orbit_escapes_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        orb = iterate(Translation(REAL_LINE, 1e308), 5.0, 0, 3)
    assert orb.escaped and orb.escape_index == 2
    assert orb.value(1) == 1e308


def test_point_membership_matches_the_array_test():
    domains = [
        REAL_LINE, Interval(-3.0, math.inf), Interval(-math.inf, 3.0),
        Interval(-3.0, 3.0, True, False), Interval(-1e6, 2.5),
    ]
    near = [3.0 + d for d in (-6e-12, -3e-12, 0.0, 3e-12, 6e-12)]
    values = near + [-v for v in near] + [
        0.0, -0.0, 2.5 + 1e-12, 2.5 + 2e-11, -1e6 - 1e-6, -1e6 - 1e-5,
        1e308, -1e308, math.inf, -math.inf, math.nan,
    ]
    for domain in domains:
        expected = contains_with_slack_array(domain, np.asarray(values)).tolist()
        assert [contains_with_slack(domain, x) for x in values] == expected, domain


def test_orbit_value_indexing():
    orb = iterate(Translation(REAL_LINE, 1.0), 0.0, -1, 2)
    assert orb.value(-1) == -1.0
    assert orb.value(2) == 2.0
    with pytest.raises(IndexError):
        orb.value(3)


def test_orbit_consecutive_values_satisfy_map():
    s = ThreePiece(REAL_LINE, 0.0, 1.0, 0.5)
    orb = iterate(s, -3.7, 0, 12)
    for m in range(0, 12):
        assert orb.value(m + 1) == pytest.approx(s(orb.value(m)), rel=1e-15)


def test_three_piece_orbit_of_negative_zero_is_constant():
    # -0.0 inside (a, b) maps to +0.0: the orbit stays at zero by value
    orb = iterate(ThreePiece(REAL_LINE, -1.0, 2.0, 0.5), -0.0, -3, 5)
    assert not orb.escaped
    assert list(orb.all_values()) == [0.0] * 9


def test_orbit_escape_flag_backward():
    # inverse of the contraction expands; backward iterates leave (0, 2)
    s = Affine(Interval(0.0, 2.0, True, True), 0.5, 0.5)
    orb = iterate(s, 1.8, -8, 0)
    assert orb.escaped
    assert orb.escape_index is not None and orb.escape_index < 0


def test_escaped_is_read_off_the_escape_index():
    orb = iterate(Translation(REAL_LINE, 1e307), 0.3, 0, 30)
    assert orb.escaped and orb.escape_index == 18
    held = dataclasses.replace(orb, escape_index=None)
    assert not held.escaped
    assert dataclasses.replace(held, escape_index=-1).escaped
    assert "escaped" not in {f.name for f in dataclasses.fields(Orbit)}


def test_orbit_x0_outside_domain():
    with pytest.raises(DomainError):
        iterate(Identity(Interval(0.0, 1.0)), 5.0, 0, 3)


def test_an_index_range_without_0_or_an_empty_grid_is_refused():
    with pytest.raises(DomainError, match=r"need m_lo <= 0 <= m_hi, got \[1, 2\]"):
        iterate(Identity(REAL_LINE), 0.5, 1, 2)
    with pytest.raises(DomainError, match="need at least one sample"):
        sample_grid(REAL_LINE, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_orbit_rejects_a_non_finite_point_naming_its_index(bad):
    with pytest.raises(DomainError, match="index 1 is not finite"):
        Orbit(-2, 2, np.array([1.0, 2.0, 0.0, bad, 5.0]))


def test_orbit_rejects_points_that_do_not_fill_a_range_with_index_0():
    with pytest.raises(DomainError, match="need 5 points, got 4: index 2 is bad"):
        Orbit(-2, 2, np.array([1.0, 2.0, 0.0, 3.0]))
    with pytest.raises(DomainError, match="need 3 points, got 4: index 2 is bad"):
        Orbit(-1, 1, np.array([1.0, 0.0, 3.0, 4.0]))
    with pytest.raises(DomainError, match=r"\[1, 3\] leave out index 0"):
        Orbit(1, 3, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DomainError, match=r"\[-3, -1\] leave out index 0"):
        Orbit(-3, -1, np.array([1.0, 2.0, 3.0]))


def _antimonotone_reference(orbit):
    signs = set()
    for m in range(orbit.m_lo + 1, orbit.m_hi + 1):
        term = (-1.0) ** m * (orbit.value(m) - orbit.value(m - 1))
        if term != 0.0:
            signs.add(math.copysign(1.0, term))
    return len(signs) <= 1


@pytest.mark.parametrize(
    "sol, x0, m_lo, m_hi, held, escape_index",
    [
        # forward, backward and both ways; both ways keeps the backward index
        (Translation(REAL_LINE, 1e307), 0.3, -4, 30, (-4, 17), 18),
        (Translation(REAL_LINE, 1e307), 0.3, -30, 4, (-17, 4), -18),
        (Translation(REAL_LINE, 1e307), 0.3, -30, 30, (-17, 17), -18),
        (Affine(Interval(0.0, 2.0, True, True), 0.5, 0.5), 1.01, -12, 5, (-6, 5), -7),
        (Affine(REAL_LINE, -1e200, 0.0), 0.5, -3, 6, (-3, 1), 2),
    ],
)
def test_an_escaping_orbit_holds_only_its_in_domain_run(
    sol, x0, m_lo, m_hi, held, escape_index
):
    orb = iterate(sol, x0, m_lo, m_hi)
    assert orb.escaped and orb.escape_index == escape_index
    assert (orb.m_lo, orb.m_hi) == held
    assert orb.m_hi < escape_index or orb.m_lo > escape_index
    assert len(orb.points) == orb.m_hi - orb.m_lo + 1
    assert np.isfinite(orb.points).all()
    assert orb.value(0) == x0
    assert antimonotone_signs_constant(orb) == _antimonotone_reference(orb)


CLOSED_0_2 = Interval(0.0, 2.0, True, True)
LOG_POSITIVE = Generator("log", Interval(0.0, math.inf))
LOG_BOX = Generator("log", Interval(1.0, 4.0, True, True))


def _iterate_reference(s, x0, m_lo, m_hi):
    """The per-point loop of public calls: ``s(x)`` forward and
    ``s.invert(x)`` backward, each side ending at its first value outside
    the domain or, backward, outside the image (``NotSurjective``).

    Returns the held points, the first held index, the escape index and
    what ended the orbit: None, ``"domain"`` or ``"image"``.
    """
    forward, backward, escape, by = [x0], [], None, None
    with np.errstate(over="ignore"):
        for m in range(1, m_hi + 1):
            x = s(forward[-1])
            if not contains_with_slack(s.domain, x):
                escape, by = m, "domain"
                break
            forward.append(x)
        x = x0
        for m in range(-1, m_lo - 1, -1):
            try:
                x = s.invert(x)
            except NotSurjective:
                escape, by = m, "image"
                break
            if not contains_with_slack(s.domain, x):
                escape, by = m, "domain"
                break
            backward.append(x)
    return backward[::-1] + forward, -len(backward), escape, by


@pytest.mark.parametrize(
    "sol, x0, m_lo, m_hi, escape_by",
    [
        (Identity(REAL_LINE), 0.7, -5, 5, None),
        (Translation(REAL_LINE, 0.3), -1.1, -8, 8, None),
        (Translation(REAL_LINE, 1e307), 0.3, -30, 30, "domain"),
        (Affine(REAL_LINE, -2.414213562373095, 0.5), 0.3, -5, 30, None),
        (Affine(CLOSED_0_2, 0.5, 0.5), 1.01, -12, 5, "image"),
        (ThreePiece(REAL_LINE, 0.0, 1.0, 0.4142135623730951), -2.0, -5, 30, None),
        (ThreePiece(Interval(-4.0, 4.0, True, True), -1.0, 1.0, 0.5), 2.0, -6, 6, "image"),
        (conjugate(LOG_POSITIVE, Affine(REAL_LINE, -2.0, 0.5)), 1.5, -6, 30, "domain"),
        (conjugate(LOG_BOX, Affine(LOG_BOX.image(), -0.5, math.log(2.0))), 1.9, -6, 6, "image"),
        (build_involution(CLOSED_0_2, 1.0, f0_table=([0.0, 0.5, 1.0], [2.0, 1.4, 1.0])),
         0.3, -6, 6, None),
    ],
)
def test_iterate_is_the_per_point_public_loop_bit_for_bit(sol, x0, m_lo, m_hi, escape_by):
    held, held_lo, escape, by = _iterate_reference(sol, x0, m_lo, m_hi)
    assert by == escape_by
    orbit = iterate(sol, x0, m_lo, m_hi)
    assert [v.hex() for v in orbit.points.tolist()] == [float(v).hex() for v in held]
    assert (orbit.m_lo, orbit.m_hi) == (held_lo, held_lo + len(held) - 1)
    assert orbit.escape_index == escape


def test_sample_grid_respects_open_endpoints():
    grid = sample_grid(Interval(0.0, 1.0), 101)
    assert grid[0] > 0.0 and grid[-1] < 1.0
    closed = sample_grid(Interval(0.0, 1.0, True, True), 101)
    assert closed[0] == 0.0 and closed[-1] == 1.0


def test_sample_grid_clips_infinite_domains():
    grid = sample_grid(REAL_LINE, 11)
    assert grid[0] >= -10.0 and grid[-1] <= 10.0


def _linspace_blocks(lo, hi, samples, cuts):
    edges = [0, *sorted({c for c in cuts if 0 < c < samples}), samples]
    return np.concatenate(
        [_grid_points(lo, hi, samples, a, b) for a, b in zip(edges, edges[1:])]
    )


def test_grid_blocks_are_linspace_bit_for_bit():
    rng = np.random.default_rng(5)
    tiny = 5e-324
    ranges = [(0.0, tiny), (0.0, 3 * tiny), (-tiny, tiny), (1.0, 1.0), (-0.0, 0.0)]
    for _ in range(2000):
        lo = float(rng.uniform(-10.0, 10.0)) * 10.0 ** int(rng.integers(-8, 3))
        ranges.append((lo, lo + float(rng.uniform(0.0, 20.0))))
    for lo, hi in ranges:
        samples = int(rng.integers(2, 3000))
        cuts = rng.integers(0, samples + 1, int(rng.integers(0, 4))).tolist()
        want = np.linspace(lo, hi, samples)
        assert _linspace_blocks(lo, hi, samples, cuts).tobytes() == want.tobytes(), (
            lo, hi, samples, cuts
        )


def test_sample_grid_is_linspace_between_its_ends():
    for dom in (REAL_LINE, Interval(0.0, 1.0), Interval(-3.0, 2.0, True, False),
                Interval(20.0, math.inf)):
        for samples in (2, 1001, _BLOCK + 3):
            grid = sample_grid(dom, samples)
            want = np.linspace(grid[0], grid[-1], samples)
            assert grid.tobytes() == want.tobytes()
    assert sample_grid(Interval(0.0, 1.0, True, True), 1).tolist() == [0.5]


# ---------------------------------------------------------------------------
# verify_mean
# ---------------------------------------------------------------------------


def test_identity_passes_any_problem_with_zero_residual():
    for n, k in ((2, 0), (5, 3), (9, 9)):
        report = verify_mean(Identity(REAL_LINE), CharProblem(n, k))
        assert report.passed
        assert report.max_residual == 0.0
        assert report.points_escaped == 0


def _row_mean_keeping_the_anchor(gen, rows, anchor=0):
    """The identity row mean that takes the anchor row wherever the mean
    deviation is 0, signed zeros included."""
    base = rows[anchor]
    dev = rows[0] - base
    for row in rows[1:]:
        dev += row - base
    dev /= rows.shape[0]
    return np.where(dev == 0.0, base, base + dev)


@pytest.mark.parametrize("samples", [1, 1001])
@pytest.mark.parametrize("n, k", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 3)])
def test_signed_zero_anchor_rows_leave_the_residual_bits_unchanged(
    monkeypatch, samples, n, k
):
    # f(x) = -x - 0.0 maps the grid point 0.0 to -0.0 and back, so on that
    # column the rows alternate 0.0 and -0.0: where the anchor row holds
    # -0.0 the mean reads 0.0, and the residual's sign of zero flips
    s = Affine(Interval(-1.0, 1.0, True, True), -1.0, -0.0)
    report = verify_mean(s, CharProblem(n, k), samples)
    anchors = []

    def recorded(gen, rows, anchor):
        anchors.append(rows[anchor].copy())
        return _row_mean_keeping_the_anchor(gen, rows, anchor)

    monkeypatch.setattr(verify_module, "qa_mean_rows", recorded)
    before = verify_mean(s, CharProblem(n, k), samples)
    zeros = np.concatenate(anchors)
    zeros = zeros[zeros == 0.0]
    assert zeros.size == 1 and bool(np.signbit(zeros[0])) == bool(k % 2)
    assert report.max_residual.hex() == before.max_residual.hex()
    assert report == before


def test_affine_minus_two_solves_k0_n2():
    # (f(x) + f(f(x)))/2 = x for f(x) = -2x + 5
    report = verify_mean(Affine(REAL_LINE, -2.0, 5.0), CharProblem(2, 0))
    assert report.passed
    assert report.max_residual <= 1e-12


def test_affine_negative_root_solves_3_1():
    report = verify_mean(Affine(REAL_LINE, -1.0 - SQRT2, 0.0), CharProblem(3, 1))
    assert report.passed
    assert report.max_residual <= 1e-12


def test_three_piece_solves_4_1():
    slope = analyze_roots(CharProblem(4, 1)).real_root_in(0.0, 1.0)
    report = verify_mean(
        ThreePiece(REAL_LINE, 0.0, 1.0, slope), CharProblem(4, 1), samples=1001
    )
    assert report.passed
    assert report.max_residual <= 1e-9


def test_wrong_translation_fails():
    # translations only solve the n = 2k equation
    report = verify_mean(Translation(REAL_LINE, 0.5), CharProblem(4, 1))
    assert not report.passed
    assert report.max_residual > 1e-3


def test_a_failing_control_reports_the_limit_it_missed():
    # the grid reaches 9.99998, so the limit, tol * coeff_scale * (1 + max
    # |f^i|), exceeds tol * coeff_scale * 10
    wrong = Translation(REAL_LINE, 0.5)
    reports = [
        (verify_mean(wrong, CharProblem(4, 1)), 1.0),
        (verify_second_order(wrong, 0.5), 1.5),
        (verify_module.linear_residual_report(wrong, CHAR_15_4), CHAR_15_4.inf_norm),
    ]
    for report, scale in reports:
        assert not report.passed and report.points_escaped == 0
        assert report.max_residual > report.limit > DEFAULT_TOL * scale * 10.0
        assert report.to_json()["limit"] == report.limit
    right = verify_mean(Translation(REAL_LINE, 0.5), CharProblem(4, 2))
    assert right.passed and right.max_residual <= right.limit


def test_report_json_keys():
    report = verify_mean(Identity(REAL_LINE), CharProblem(2, 1))
    assert report.to_json() == {
        "max_residual": 0.0,
        # the open line's grid ends 1e-6 of the window width inside +-10
        "limit": DEFAULT_TOL * (1.0 + 9.99998),
        "pass": True,
        "points_evaluated": 1001,
        "points_escaped": 0,
    }


def test_grid_refinement_never_flips_pass():
    slope = analyze_roots(CharProblem(4, 1)).real_root_in(0.0, 1.0)
    sol = ThreePiece(REAL_LINE, 0.0, 1.0, slope)
    r1 = verify_mean(sol, CharProblem(4, 1), samples=500)
    r2 = verify_mean(sol, CharProblem(4, 1), samples=1000)
    r3 = verify_mean(sol, CharProblem(4, 1), samples=2000)
    assert r1.passed and r2.passed and r3.passed


# ---------------------------------------------------------------------------
# verify_general
# ---------------------------------------------------------------------------


def test_geometric_mean_power_law():
    # F(x) = 2 x^(-1/2) satisfies F^2 = geometric mean of (x, F, F^2)
    domain = Interval(1.0, 4.0, True, True)
    gen = Generator("log", domain)
    F = conjugate(gen, Affine(gen.image(), -0.5, math.log(2.0)))
    report = verify_general(F, gen, CharProblem(2, 2))
    assert report.passed
    assert report.max_residual <= 1e-9


def test_identity_generator_reduces_to_verify_mean():
    sol = Affine(REAL_LINE, -2.0, 5.0)
    prob = CharProblem(2, 0)
    gen = Generator("identity", REAL_LINE)
    a = verify_general(sol, gen, prob)
    b = verify_mean(sol, prob)
    assert a == b  # bit for bit: same grid, same reduction


def test_identity_solution_zero_residual_under_log_mean():
    domain = Interval(0.5, 8.0)
    gen = Generator("log", domain)
    report = verify_general(Identity(domain), gen, CharProblem(3, 2))
    assert report.passed
    assert report.max_residual == 0.0


def test_generator_domain_must_cover_solution():
    gen = Generator("log", Interval(1.0, 2.0))
    with pytest.raises(DomainError):
        verify_general(Identity(Interval(0.5, 8.0)), gen, CharProblem(2, 1))


# ---------------------------------------------------------------------------
# verify_dual
# ---------------------------------------------------------------------------


def test_dual_affine_k0():
    report = verify_dual(
        Affine(REAL_LINE, -2.0, 0.0), build_char_poly(CharProblem(2, 0))
    )
    assert report.passed
    assert report.primal.passed and report.dual.passed


def test_dual_identity_zero_sum_coefficients():
    # any coefficient row summing to zero annihilates constant orbits
    report = verify_dual(Identity(REAL_LINE), Polynomial((2.0, -3.0, 1.0)))
    assert report.passed
    assert report.primal.max_residual == 0.0
    assert report.dual.max_residual == 0.0


def test_dual_three_piece_slope_equation():
    slope = analyze_roots(CharProblem(4, 1)).real_root_in(0.0, 1.0)
    sol = ThreePiece(REAL_LINE, 0.0, 1.0, slope)
    report = verify_dual(sol, build_char_poly(CharProblem(4, 1)))
    assert report.passed
    assert report.primal.passed and report.dual.passed


def test_dual_consistency_for_non_solution():
    # a map solving neither equation still satisfies the equivalence
    report = verify_dual(
        Affine(REAL_LINE, -3.0, 1.0), build_char_poly(CharProblem(2, 0))
    )
    assert report.passed
    assert not report.primal.passed and not report.dual.passed


def test_dual_json_shape():
    payload = verify_dual(
        Identity(REAL_LINE), Polynomial((1.0, -2.0, 1.0))
    ).to_json()
    assert set(payload) == {"primal", "dual", "pass"}


def test_dual_verdict_is_read_off_the_two_reports():
    report = verify_dual(Identity(REAL_LINE), Polynomial((1.0, -2.0, 1.0)))
    assert report.passed and report.primal.passed and report.dual.passed
    failed = dataclasses.replace(report.dual, passed=False)
    assert not dataclasses.replace(report, dual=failed).passed
    assert dataclasses.replace(report, primal=failed, dual=failed).passed
    assert "passed" not in {f.name for f in dataclasses.fields(DualReport)}


def test_dual_requires_bijection_onto_domain():
    from itereq.errors import NotInvertible

    squeezed = Affine(Interval(0.0, 1.0, True, True), 0.5, 0.25)
    with pytest.raises(NotInvertible):
        verify_dual(squeezed, Polynomial((1.0, -2.0, 1.0)))


# ---------------------------------------------------------------------------
# verify_second_order
# ---------------------------------------------------------------------------


def test_second_order_translation_rho_one():
    # (x + 2c) - 2(x + c) + x cancels to rounding level
    report = verify_second_order(Translation(REAL_LINE, 0.7), 1.0)
    assert report.passed
    assert report.max_residual <= 16 * np.finfo(float).eps * 12.0


def test_second_order_affine_any_rho():
    for rho in (-0.5, 0.25, 2.0):
        sol = Affine(REAL_LINE, rho, 1.0) if abs(rho) <= 1 else Affine(
            REAL_LINE, rho, 0.0
        )
        report = verify_second_order(sol, rho)
        assert report.passed
        assert report.max_residual <= 1e-12


def test_second_order_three_piece():
    report = verify_second_order(ThreePiece(REAL_LINE, -1.0, 1.0, 0.5), 0.5)
    assert report.passed
    assert report.max_residual <= 1e-9


def test_second_order_wrong_rho_fails():
    report = verify_second_order(Affine(REAL_LINE, 0.5, 0.0), 0.25)
    assert not report.passed


def _table_involution(seed):
    """A seeded breakpoint-table involution on a closed interval."""
    rng = np.random.default_rng(seed)
    lo = float(rng.uniform(-2.0, 0.0))
    hi = lo + float(rng.uniform(1.0, 4.0))
    a = lo + (hi - lo) * float(rng.uniform(0.3, 0.7))
    m = int(rng.integers(5, 13))
    xs = np.linspace(lo, a, m)
    w = rng.uniform(0.2, 1.0, m - 1)
    ys = np.concatenate([[hi], hi - (hi - a) * np.cumsum(w) / np.sum(w)])
    ys[-1] = a
    return build_involution(Interval(lo, hi, True, True), a, f0_table=(xs, ys))


BOUNDED_INVOLUTIONS = {
    "table": lambda: _table_involution(3),
    "callable": lambda: build_involution(
        Interval(0.0, 2.0), 0.8, f0=lambda x: 2.0 - 1.2 * (x / 0.8) ** 1.3
    ),
}


@pytest.mark.parametrize("kind", sorted(BOUNDED_INVOLUTIONS))
def test_bounded_involutions_solve_rho_minus_one_and_no_mean_equation(kind):
    # f o f = id is the second-order equation at rho = -1.  The iterates
    # f^0..f^n alternate between id and f, so their mean is
    # (a id + b f)/(n + 1), which f^k (id or f) equals only where f(x) = x
    s = BOUNDED_INVOLUTIONS[kind]()
    report = verify_second_order(s, -1.0)
    assert report.passed and report.points_escaped == 0
    for n, k in ((2, 0), (2, 1), (3, 1), (4, 2), (5, 5), (9, 4), (15, 6), (15, 15)):
        report = verify_mean(s, CharProblem(n, k))
        assert not report.passed and report.points_escaped == 0, (n, k)
        assert report.max_residual > 1e-3, (n, k)


# ---------------------------------------------------------------------------
# the grid gate near the float range
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "run, kind",
    [
        # tol * (coeff_scale * (1 + max|f^i|)) overflowed to inf here, and the
        # finite residual 1.5e307 of a map that does not solve (14, 6) passed
        (lambda: verify_module.linear_residual_report(
            Translation(REAL_LINE, 1e306), build_char_poly(CharProblem(14, 6))
        ), "finite"),
        # the residual 31c of a map that does not solve it is past the float range
        (lambda: verify_second_order(Translation(REAL_LINE, 8e307), -30.0), "inf"),
    ],
    ids=["finite_residual_14_6", "inf_residual_second_order"],
)
def test_grid_gate_fails_an_overflowed_limit_or_residual(run, kind):
    report = run()
    resid = report.max_residual
    assert {"finite": math.isfinite, "inf": math.isinf}[kind](resid)
    assert not report.passed
    assert report.points_evaluated == 1001


@pytest.mark.parametrize(
    "run",
    [
        lambda s, prob: verify_mean(s, prob),
        lambda s, prob: verify_module.linear_residual_report(s, build_char_poly(prob)),
    ],
    ids=["verify_mean", "linear_residual_report"],
)
def test_grid_gate_passes_a_solution_whose_residual_terms_would_overflow(run):
    # c = 1e307 solves (14, 7) and its 14 iterates stay below 1.5e308, but
    # the deviations from f^7 add up past the float range (to inf, or to
    # NaN where terms of both signs overflow) unless the block is scaled
    with np.errstate(all="raise"):
        report = run(Translation(REAL_LINE, 1e307), CharProblem(14, 7))
    assert report.passed and report.points_evaluated == 1001
    assert report.max_residual <= 1e-9 * 14 * 1.5e308


@pytest.mark.parametrize("c, scaled", [(1e300, False), (1e307, True)])
def test_grid_gate_scales_a_block_only_where_its_terms_could_overflow(monkeypatch, c, scaled):
    # below the overflow range the residual gets the iterates bit for bit
    seen = []
    real = verify_module._verify_grid

    def watched(s, count, residual, *args, **kwargs):
        return real(s, count, lambda live: seen.append(live.copy()) or residual(live), *args, **kwargs)

    monkeypatch.setattr(verify_module, "_verify_grid", watched)
    verify_mean(Translation(REAL_LINE, c), CharProblem(14, 7), samples=11)
    (block,) = seen
    if scaled:
        assert 1.0 <= np.max(np.abs(block)) < 2.0
    else:
        assert block[0].tobytes() == sample_grid(REAL_LINE, 11).tobytes()


# ---------------------------------------------------------------------------
# orbit properties
# ---------------------------------------------------------------------------


def test_telescoping_constant():
    # f^{m+1}(x) - rho f^m(x) is independent of m for second-order solutions
    rho = 0.5
    for sol in (
        ThreePiece(REAL_LINE, -1.0, 1.0, rho),
        Affine(REAL_LINE, rho, 0.3),
        Translation(REAL_LINE, 0.7),  # rho = 1
    ):
        r = 1.0 if isinstance(sol, Translation) else rho
        for x0 in (-3.3, 0.1, 2.9):
            orb = iterate(sol, x0, 0, 11)
            ref = orb.value(1) - r * orb.value(0)
            for m in range(0, 11):
                tele = orb.value(m + 1) - r * orb.value(m)
                assert tele == pytest.approx(ref, abs=1e-9)


def test_antimonotone_for_decreasing_maps():
    for sol, x0 in (
        (Affine(REAL_LINE, -2.0, 5.0), 1.0),
        (Affine(REAL_LINE, -0.5, 0.0), 1.0),
        (Affine(REAL_LINE, -1.0 - SQRT2, 0.0), 0.3),
    ):
        orb = iterate(sol, x0, 0, 30)
        assert antimonotone_signs_constant(orb)


def test_antimonotone_detects_violation():
    # a growing increasing map produces same-sign differences, which the
    # alternating-sign statistic rejects
    orb = iterate(Translation(REAL_LINE, 1.0), 0.0, 0, 10)
    assert not antimonotone_signs_constant(orb)


def test_geometric_envelope_for_contracting_negative_slope():
    rho, c = -0.5, 1.0
    sol = Affine(REAL_LINE, rho, c)
    limit = c / (1.0 - rho)
    for x0 in (-4.0, 0.0, 9.0):
        orb = iterate(sol, x0, 0, 25)
        for m in range(26):
            bound = abs(rho) ** m * abs(x0 - limit)
            assert abs(orb.value(m) - limit) <= bound * (1.0 + 1e-12) + 1e-15


def test_involution_orbit_two_cycle():
    s = conjugate(LOG_POSITIVE, Affine(REAL_LINE, -1.0, 0.0))  # 1/x
    orb = iterate(s, 2.0, -4, 4)
    assert orb.value(0) == 2.0
    for m in range(-4, 5):
        expected = 2.0 if m % 2 == 0 else 0.5
        assert orb.value(m) == pytest.approx(expected, rel=1e-12)
    assert antimonotone_signs_constant(orb)


def test_sample_grid_on_a_domain_outside_the_window():
    for dom in (Interval(20.0, math.inf), Interval(-math.inf, -20.0, False, True)):
        xs = sample_grid(dom, 5)
        assert np.all(np.isfinite(xs))
        assert all(dom.contains(float(x)) for x in xs)
        assert xs[-1] - xs[0] == pytest.approx(20.0, rel=1e-5)


# ---------------------------------------------------------------------------
# blocked verification against the whole-grid masked reference
# ---------------------------------------------------------------------------
#
# The reference below is the masked evaluation the verifier used before it
# mapped whole rows and before it worked in blocks of ``_BLOCK`` columns:
# one array for the whole grid, every row gathered the live columns and
# scattered the result back.  The mean and linear residuals add their
# terms one row at a time, in row order, over the whole grid (``_row_sum``).
# Reports must agree bit for bit.


def _reference_contains(domain, vals):
    slack = 1e-12 * (1.0 + np.abs(vals))
    ok = (vals >= domain.lo - slack) & (vals <= domain.hi + slack)
    return ok & np.isfinite(vals)


def _reference_rows(s, xs, count):
    rows = np.full((count + 1, len(xs)), np.nan)
    rows[0] = xs
    alive = _reference_contains(s.domain, xs)
    for i in range(1, count + 1):
        prev = rows[i - 1]
        nxt = np.full_like(prev, np.nan)
        if np.any(alive):
            nxt[alive] = s._eval_array(prev[alive])
        alive = alive & _reference_contains(s.domain, nxt)
        rows[i] = nxt
    return rows, alive


def _row_sum(terms):
    """``terms[0] + terms[1] + ...``, one whole row at a time."""
    total = terms[0].copy()
    for t in terms[1:]:
        total = total + t
    return total


def _reference_report(residual, rows, alive, samples, coeff_scale=1.0):
    evaluated = int(np.count_nonzero(alive))
    if evaluated == 0:
        return VerifyReport(math.inf, None, False, 0, samples)
    max_resid = float(np.max(np.abs(residual[alive])))
    limit = DEFAULT_TOL * coeff_scale * (1.0 + float(np.max(np.abs(rows[:, alive]))))
    passed = (
        math.isfinite(max_resid) and max_resid <= limit
        and evaluated >= math.ceil(0.9 * samples)
    )
    return VerifyReport(max_resid, limit, passed, evaluated, samples - evaluated)


def _reference_general(s, gen, prob, samples):
    xs = sample_grid(s.domain, samples)
    rows, alive = _reference_rows(s, xs, prob.n)
    residual = np.full(len(xs), np.nan)
    if np.any(alive):
        live = rows[:, alive]
        phi = live if gen.kind == "identity" else gen.phi(live)
        dev = _row_sum(phi - phi[prob.k]) / live.shape[0]
        mean_phi = phi[prob.k] + dev
        general = mean_phi if gen.kind == "identity" else gen.phi_inv(mean_phi)
        mean = np.where(dev == 0.0, live[prob.k], general)
        residual[alive] = rows[prob.k, alive] - mean
    return _reference_report(residual, rows, alive, samples)


def _reference_linear(s, coeffs, samples):
    xs = sample_grid(s.domain, samples)
    rows, alive = _reference_rows(s, xs, coeffs.degree)
    coeff_sum = math.fsum(coeffs.coeffs)
    terms = [coeff_sum * rows[0]]
    terms += [a * (row - rows[0]) for a, row in zip(coeffs.coeffs[1:], rows[1:])]
    residual = _row_sum(terms)
    return _reference_report(residual, rows, alive, samples, coeffs.inf_norm)


def _reference_second(s, rho, samples):
    xs = sample_grid(s.domain, samples)
    rows, alive = _reference_rows(s, xs, 2)
    residual = rows[2] - (1.0 + rho) * rows[1] + rho * rows[0]
    return _reference_report(residual, rows, alive, samples, 1.0 + abs(rho))


class _Leaky(Solution):
    """A map that claims its domain as image but pushes points out of it."""

    family = "leaky"

    def __init__(self, domain, fwd, back):
        self.domain, self._fwd, self._back = domain, fwd, back

    def _eval_array(self, xs):
        return self._fwd(xs)

    def image(self):
        return self.domain

    def _inverse_spec(self):
        return _Leaky(self.domain, self._back, self._fwd)

    @property
    def is_increasing(self):
        return True


PROB_15_4 = CharProblem(15, 4)
CHAR_15_4 = build_char_poly(PROB_15_4)
BOX = Interval(-10.0, 10.0, True, True)
POSITIVE = Interval(1.0, 10.0, True, True)
# one block short of full, full, one over (a last block of one column), and
# two blocks with a remainder
BLOCK_GRIDS = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)


def _slope_15_4(family):
    fams = enumerate_families(PROB_15_4, REAL_LINE).families
    return next(d.slope for d in fams if d.family == family)


def _half_leak(domain):
    """Points below the middle leave the domain at once; the rest contract.

    On a grid of ``2 * _BLOCK + 1`` points the first block is exactly the
    lower half, so it escapes whole while the other stays live.
    """
    mid, out = 0.5 * (domain.lo + domain.hi), domain.hi + 100.0
    return _Leaky(
        domain,
        lambda x: np.where(x < mid, out, mid + 0.9 * (x - mid)),
        lambda y: np.where(y < mid, out, mid + (y - mid) / 0.9),
    )


def _line_map(case):
    """A map on the line or a box.

    ``none``: no point escapes; ``some``: points near the top escape, all
    in the last block; ``block``: the lower half escapes; ``all``: every
    point escapes.
    """
    if case == "none":
        return Affine(REAL_LINE, _slope_15_4("affine"), 1.0)
    if case == "block":
        return _half_leak(BOX)
    step = 0.05 if case == "some" else 100.0
    return _Leaky(BOX, lambda x: x + step, lambda y: y - step)


def _positive_map(case, gen):
    if case == "none":
        slope, img = _slope_15_4("affine"), gen.image()
        c = 0.5 * ((img.lo - slope * img.hi) + (img.hi - slope * img.lo))
        return conjugate(gen, Affine(img, slope, c))
    if case == "block":
        return _half_leak(POSITIVE)
    q = 1.01 if case == "some" else 100.0
    return _Leaky(POSITIVE, lambda x: q * x, lambda y: y / q)


def _second_order_cases(case):
    """(solution, rho) pairs; the involution is inverted by bisection."""
    if case != "none":
        return [(_line_map(case), 0.5)]
    rho = _slope_15_4("three_piece")
    big, a = 2.0, 0.8
    inv = build_involution(
        Interval(0.0, big), a, f0=lambda x: big - (big - a) * (x / a) ** 1.3
    )
    return [(ThreePiece(REAL_LINE, -1.0, 2.0, rho), rho), (inv, -1.0)]


def _bits(report):
    return (
        report.max_residual.hex(),
        None if report.limit is None else report.limit.hex(),
        report.passed,
        report.points_evaluated,
        report.points_escaped,
    )


def _report_pairs(case, samples):
    """(blocked report, whole-grid reference) for every verify entry point."""
    line = _line_map(case)
    identity = Generator("identity", line.domain)
    pairs = [(
        verify_mean(line, PROB_15_4, samples),
        _reference_general(line, identity, PROB_15_4, samples),
    )]
    for gen in (Generator("log", POSITIVE), Generator("power", POSITIVE, p=2.0)):
        s = _positive_map(case, gen)
        pairs.append((
            verify_general(s, gen, PROB_15_4, samples),
            _reference_general(s, gen, PROB_15_4, samples),
        ))
    dual = verify_dual(line, CHAR_15_4, samples)
    reversed_coeffs = Polynomial(tuple(reversed(CHAR_15_4.coeffs)))
    pairs.append((dual.primal, _reference_linear(line, CHAR_15_4, samples)))
    pairs.append((
        dual.dual, _reference_linear(line.inverse(), reversed_coeffs, samples)
    ))
    for s, rho in _second_order_cases(case):
        pairs.append((
            verify_second_order(s, rho, samples),
            _reference_second(s, rho, samples),
        ))
    return pairs


@pytest.mark.parametrize("case", ["none", "some", "block", "all"])
def test_whole_row_reports_match_masked_reference(case, monkeypatch):
    # every block's live columns and peak too
    blocks = _record_blocks(monkeypatch)
    for samples in BLOCK_GRIDS:
        blocks.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = _report_pairs(case, samples)
        for got, want in pairs:
            assert _bits(got) == _bits(want), samples
        assert blocks
        _assert_blocks_match_reference(blocks)
        line = _line_map(case)
        _, alive = _reference_rows(line, sample_grid(line.domain, samples), 15)
        assert pairs[0][0].points_escaped == samples - np.count_nonzero(alive)
        if case == "none":
            assert alive.all()
            assert all(got.passed for got, _ in pairs)
        elif case == "all":
            assert not alive.any()
        elif samples < 2 * _BLOCK:
            assert 0 < np.count_nonzero(alive) < samples
        else:
            first, rest = alive[:_BLOCK], alive[_BLOCK:]
            if case == "some":
                assert first.all() and 0 < np.count_nonzero(rest) < len(rest)
            else:
                assert not first.any() and rest.all()


def _wreck_blocks_after_their_residual(monkeypatch):
    """Make every residual fill its block with NaN once it has its result."""
    real = verify_module._verify_grid

    def wrecking(s, count, residual, *args, **kwargs):
        def residual_then_wreck(live):
            resid = residual(live).copy()
            live[...] = np.nan
            return resid

        return real(s, count, residual_then_wreck, *args, **kwargs)

    monkeypatch.setattr(verify_module, "_verify_grid", wrecking)


def _overflow_scaled_reports():
    # c = 1e307 (as in the overflow tests above): every block is scaled
    # before its residual runs
    s, prob = Translation(REAL_LINE, 1e307), CharProblem(14, 7)
    return [
        verify_mean(s, prob, 2 * _BLOCK + 1),
        verify_module.linear_residual_report(s, build_char_poly(prob), 2 * _BLOCK + 1),
    ]


@pytest.mark.parametrize("case", ["none", "some", "block", "all"])
def test_a_residual_may_overwrite_its_block(case, monkeypatch):
    # the counts, the peak and the scaling decision are read off a block
    # before its residual runs, so a residual that wrecks its block after
    # taking its value leaves every report bit as it was
    samples = 2 * _BLOCK + 1
    want = [_bits(got) for got, _ in _report_pairs(case, samples)]
    want += [_bits(r) for r in _overflow_scaled_reports()]
    _wreck_blocks_after_their_residual(monkeypatch)
    got = [_bits(got) for got, _ in _report_pairs(case, samples)]
    got += [_bits(r) for r in _overflow_scaled_reports()]
    assert got == want


def _conjugate_cases():
    log = Generator("log", Interval(0.0, math.inf))
    box = Generator("log", Interval(1.0, 4.0, True, True))
    sqrt = Generator("power", Interval(0.0, math.inf), p=2.0)
    inverse = Generator("power", Interval(0.0, math.inf), p=-1.0)
    cube = Generator("power", Interval(0.0625, 4.0), p=3.0)
    cube_mid = 0.75 * (cube.image().lo + cube.image().hi)
    identity = Generator("identity", REAL_LINE)
    cases = {
        "identity_affine": conjugate(identity, Affine(REAL_LINE, -2.414213562373095, 0.5)),
        "log_affine_3_1": conjugate(log, Affine(REAL_LINE, -2.414213562373095, 0.5)),
        "log_three_piece": conjugate(log, ThreePiece(REAL_LINE, 0.0, 1.0, 0.4142135623730951)),
        "log_translation": conjugate(log, Translation(REAL_LINE, 0.7)),
        "log_box_affine": conjugate(box, Affine(box.image(), -0.5, math.log(2.0))),
        "sqrt_affine": conjugate(sqrt, Affine(sqrt.image(), 0.5, 1.0)),
        "reciprocal_affine": conjugate(inverse, Affine(inverse.image(), 0.5, 1.0)),
        "cube_root_affine": conjugate(cube, Affine(cube.image(), -0.5, cube_mid)),
    }
    return [pytest.param(F, id=name) for name, F in cases.items()]


@pytest.mark.parametrize("F", _conjugate_cases())
def test_conjugate_maps_into_a_buffer_bit_for_bit(F):
    # the three in-place passes of _eval_into against phi, the inner map and
    # phi^-1 each into a fresh array, on the grid, subnormal points and the
    # domain's ends
    lo, hi = F.domain.lo, F.domain.hi
    ends = [lo, hi, math.nextafter(lo, hi), math.nextafter(hi, lo)]
    tiny = [5e-324, 2.5e-310, np.finfo(float).tiny / 3, np.finfo(float).tiny]
    xs = np.concatenate([sample_grid(F.domain, 1001), ends, tiny])
    with np.errstate(all="ignore"):
        want = F.gen.phi_inv(F.inner._eval_array(F.gen.phi(xs))).tobytes()
        assert F._eval_array(xs).tobytes() == want
        assert F._eval_into(xs, np.empty_like(xs)).tobytes() == want
        in_place = xs.copy()
        assert F._eval_into(in_place, in_place).tobytes() == want
        rows = np.empty((2, len(xs)))
        rows[0] = xs
        assert F._iterate_into(rows)[1].tobytes() == want


# Each point's residual adds its terms in row order whatever block it sits
# in, so a report cannot depend on the block layout: not on the block
# width, not on where a block ends, not on a short last block.

LAYOUT_BLOCKS = (7, 1024, 8192)
LAYOUT_GRID = 2501  # divisible by none of the block widths
PROB_40_9 = CharProblem(40, 9)


def _layout_reports():
    reports = [verify_mean(_line_map(case), PROB_15_4, LAYOUT_GRID)
               for case in ("none", "some", "block")]
    coeffs = build_char_poly(PROB_40_9)
    slope = next(
        d.slope for d in enumerate_families(PROB_40_9, REAL_LINE).families
        if d.family == "three_piece"
    )
    for s in (ThreePiece(REAL_LINE, -1.0, 2.0, slope), _line_map("some")):
        dual = verify_dual(s, coeffs, LAYOUT_GRID)
        reports += [dual.primal, dual.dual]
    for s, rho in _second_order_cases("none") + _second_order_cases("some"):
        reports.append(verify_second_order(s, rho, LAYOUT_GRID))
    return [_bits(r) for r in reports]


def test_reports_do_not_depend_on_the_block_layout(monkeypatch):
    seen = []
    # no byte sizing: every block is _BLOCK columns wide, whatever n
    monkeypatch.setattr(verify_module, "_BLOCK_VALUES", 0)
    for block in LAYOUT_BLOCKS:
        assert LAYOUT_GRID % block
        monkeypatch.setattr(verify_module, "_BLOCK", block)
        seen.append(_layout_reports())
    assert seen[0] == seen[1] == seen[2]
    # the cases are not all trivial: some pass, some fail, some escape
    assert {passed for _, _, passed, _, _ in seen[0]} == {True, False}
    assert any(escaped for *_, escaped in seen[0])


# blocks sized by their rows' bytes, the block-wide escape test and its
# row-by-row redo


def _record_blocks(monkeypatch):
    """Every block ``_iterate_rows`` maps: (s, xs, count, live, peak)."""
    blocks = []

    def recording(s, xs, count):
        live, peak = _iterate_rows(s, xs, count)
        blocks.append((s, xs.copy(), count, live.copy(), peak))
        return live, peak

    monkeypatch.setattr(verify_module, "_iterate_rows", recording)
    return blocks


def _assert_live_matches_reference(s, xs, count, live, peak):
    """``live`` and ``peak`` are the reference's surviving columns and their
    largest ``|f^i|`` (0 when none survives), bit for bit."""
    with np.errstate(over="ignore"):
        want_rows, want_alive = _reference_rows(s, xs, count)
    want = want_rows[:, want_alive]
    assert live.shape == want.shape and live.tobytes() == want.tobytes()
    assert peak == (np.max(np.abs(want)) if want.size else 0.0)


def _assert_blocks_match_reference(blocks):
    for block in blocks:
        _assert_live_matches_reference(*block)


def test_block_widths_for_two_and_sixteen_rows(monkeypatch):
    # 2**16 doubles over 3 rows, and the 8192-column floor for 16 rows
    blocks = _record_blocks(monkeypatch)
    verify_mean(Translation(REAL_LINE, 0.25), CharProblem(2, 1), 50_000)
    assert [len(xs) for _, xs, *_ in blocks] == [21845, 21845, 6310]
    blocks.clear()
    verify_mean(_line_map("none"), PROB_15_4, 20_000)
    assert [len(xs) for _, xs, *_ in blocks] == [8192, 8192, 3616]


def test_first_escape_in_a_middle_row_of_a_later_block(monkeypatch):
    # negative points contract; positive ones grow by 1e50 a step and
    # overflow from row 7 on, so the first block never escapes and the
    # second escapes first in row 7 of 16
    s = _Leaky(
        REAL_LINE,
        lambda x: np.where(x > 0.0, 1e50 * x, 0.5 * x),
        lambda y: np.where(y > 0.0, 1e-50 * y, 2.0 * y),
    )
    samples = 2 * _BLOCK + 1
    blocks = _record_blocks(monkeypatch)
    identity = Generator("identity", REAL_LINE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [
            verify_mean(s, PROB_15_4, samples),
            verify_module.linear_residual_report(s, CHAR_15_4, samples),
        ]
    with np.errstate(over="ignore", invalid="ignore"):
        want = [
            _reference_general(s, identity, PROB_15_4, samples),
            _reference_linear(s, CHAR_15_4, samples),
        ]
    assert [_bits(r) for r in got] == [_bits(r) for r in want]
    assert [len(xs) for _, xs, *_ in blocks[:3]] == [_BLOCK, _BLOCK, 1]
    _assert_blocks_match_reference(blocks)
    (_, _, _, first, _), (_, xs, count, second, _) = blocks[:2]
    assert first.shape[1] == _BLOCK and 0 < second.shape[1] < _BLOCK
    with np.errstate(over="ignore"):
        rows, _ = _reference_rows(s, xs, count)
    assert np.isfinite(rows[:7]).all() and not np.isfinite(rows[7]).all()


def test_last_block_one_column_wide_for_three_rows(monkeypatch):
    samples = 2 * (2**16 // 3) + 1
    blocks = _record_blocks(monkeypatch)
    pairs = []
    for s, rho in _second_order_cases("none") + _second_order_cases("some"):
        pairs.append(
            (verify_second_order(s, rho, samples), _reference_second(s, rho, samples))
        )
    for case in ("none", "some"):
        s = Translation(REAL_LINE, 0.25) if case == "none" else _line_map(case)
        pairs.append((
            verify_mean(s, CharProblem(2, 1), samples),
            _reference_general(s, Generator("identity", s.domain), CharProblem(2, 1), samples),
        ))
    for got, want in pairs:
        assert _bits(got) == _bits(want)
    assert {len(xs) for _, xs, *_ in blocks} == {2**16 // 3, 1}
    assert sum(len(xs) == 1 for _, xs, *_ in blocks) == len(pairs)
    _assert_blocks_match_reference(blocks)


def _root_halves(x):
    """``sign(x) * sqrt(|x|) / 2``, and -100 (outside ``BOX``) below -9.

    Both square roots are taken at every point, so the one of a negative
    argument warns and is discarded; the values kept are finite.
    """
    halves = 0.5 * np.where(x >= 0.0, np.sqrt(x), -np.sqrt(-x))
    return np.where(x < -9.0, -100.0, halves)


def test_warning_of_a_discarded_temporary_is_kept():
    # the first block warns while it is mapped and then fails the escape
    # test, so it is mapped again: the block-wide pass must add none and
    # drop none of the warnings the row-by-row map gives
    s = _Leaky(BOX, _root_halves, _root_halves)
    samples = _BLOCK + 5
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        report = verify_mean(s, PROB_15_4, samples)
    xs = sample_grid(BOX, samples)
    with warnings.catch_warnings(record=True) as want:
        warnings.simplefilter("always")
        for start in range(0, samples, _BLOCK):
            _reference_rows(s, xs[start:start + _BLOCK], PROB_15_4.n)
    assert len(want) >= PROB_15_4.n and report.points_escaped > 0
    assert [(w.category, str(w.message)) for w in got] == [
        (w.category, str(w.message)) for w in want
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reference = _reference_general(s, Generator("identity", BOX), PROB_15_4, samples)
    assert _bits(report) == _bits(reference)


def test_map_that_rejects_escaped_points_never_sees_them():
    # points above 9 leave the box at once; the map refuses points outside
    # it, which the row-by-row map never passes it
    def fwd(x):
        if np.any(np.abs(x) > 10.0):
            raise ValueError("point outside the box")
        return np.where(x > 9.0, 20.0, 0.5 * x)

    s = _Leaky(BOX, fwd, fwd)
    report = verify_mean(s, PROB_15_4, 1001)
    want = _reference_general(s, Generator("identity", BOX), PROB_15_4, 1001)
    assert report.points_escaped > 0 and _bits(report) == _bits(want)


# the escape test on a row's extremes against the masked reference: points
# exactly on an end, one ulp outside it (inside the slack), past the slack,
# NaN, +-inf, and values that overflow within a few steps among finite ones

ROW_DOMAINS = (
    Interval(-2.0, 3.0, True, True),
    Interval(1.0, math.inf, True, False),
    REAL_LINE,
)


def _row_specials(domain):
    ends = [v for v in (domain.lo, domain.hi) if math.isfinite(v)]
    out = [math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -0.0]
    for v in ends:
        out += [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]
        out += [v - 1e-10, v + 1e-10]
    return out


def _row_maps(domain):
    """Maps that keep, clamp, shrink, grow or overflow points of ``domain``."""
    maps = [
        _Leaky(domain, lambda x: x.copy(), lambda y: y.copy()),
        _Leaky(domain, lambda x: 0.5 * x + 0.25, lambda y: (y - 0.25) / 0.5),
        _Leaky(domain, lambda x: -1.5 * x, lambda y: y / -1.5),
        _Leaky(domain, lambda x: 1e300 * x, lambda y: y / 1e300),
    ]
    if domain == REAL_LINE:
        maps += [
            Identity(domain),
            Affine(domain, -0.45, 1.0),
            ThreePiece(domain, -1.0, 2.0, 3.0),
            Translation(domain, 1e307),
        ]
    return maps


def _assert_rows_match_reference(s, xs, count):
    with np.errstate(over="ignore"):
        live, peak = _iterate_rows(s, xs, count)
    _assert_live_matches_reference(s, xs, count, live, peak)


@st.composite
def _row_cases(draw):
    domain = draw(st.sampled_from(ROW_DOMAINS))
    s = draw(st.sampled_from(_row_maps(domain)))
    lo = domain.lo if math.isfinite(domain.lo) else -1e6
    hi = domain.hi if math.isfinite(domain.hi) else 1e6
    point = st.one_of(
        st.floats(lo, hi), st.sampled_from(_row_specials(domain))
    )
    xs = draw(st.lists(point, min_size=1, max_size=24))
    return s, np.asarray(xs, dtype=float), draw(st.integers(0, 5))


@given(_row_cases())
def test_extreme_escape_test_matches_the_masked_reference(case):
    _assert_rows_match_reference(*case)


@pytest.mark.parametrize("domain", ROW_DOMAINS)
def test_row_extremes_on_ends_ulps_and_overflow(domain):
    lo = domain.lo if math.isfinite(domain.lo) else -4.0
    hi = domain.hi if math.isfinite(domain.hi) else 4.0
    mid = np.linspace(lo, hi, 9)
    cases = [
        # on the ends and one ulp outside them: inside by the slack
        np.array([lo, math.nextafter(lo, -math.inf), *mid, math.nextafter(hi, math.inf), hi]),
        # one point past the slack, NaN or infinite in the middle of the block
        np.array([*mid[:4], hi + 1e-6, *mid[4:]]),
        np.array([*mid[:4], math.nan, *mid[4:]]),
        np.array([*mid[:4], math.inf, -math.inf, *mid[4:]]),
    ]
    for s in _row_maps(domain):
        for xs in cases:
            _assert_rows_match_reference(s, xs, 4)
    # 1e300 * x overflows in the middle of the block only where |x| > 1.8e8
    big = _Leaky(domain, lambda x: 1e300 * x, lambda y: y / 1e300)
    if domain == REAL_LINE:
        xs = np.array([-1.0, 0.0, 1e9, 1.0, -1e9, 2.0])
        _assert_rows_match_reference(big, xs, 3)
        _assert_rows_match_reference(Translation(domain, 1e307), np.full(8, 5.0), 20)


# a map with ``monotone_rows`` on sorted points: the extremes read off a
# block's end columns against a reference that takes them over every value

MONOTONE_DOMAINS = (
    (REAL_LINE, "line"),
    (Interval(-2.0, 3.0, True, True), "bounded"),
    (Interval(0.0, 1.0, False, False), "bounded"),
    (Interval(1.0, math.inf, True, False), "half-line"),
)


def _whole_block_reference(s, xs, count):
    """``(live, peak)`` with the block's extremes taken over all its values:
    the whole mapped block when they prove every point inside, else the
    masked reference's surviving columns."""
    rows = np.empty((count + 1, len(xs)))
    rows[0] = xs
    try:
        with np.errstate(all="raise"):
            s._iterate_into(rows)
    except FloatingPointError:
        pass
    else:
        low, high = rows.min(), rows.max()
        finite = math.isfinite(low) and math.isfinite(high)
        if finite and s.domain.lo <= low and high <= s.domain.hi:
            return rows, max(abs(low), abs(high))
    with np.errstate(over="ignore"):
        want_rows, alive = _reference_rows(s, xs, count)
    live = want_rows[:, alive]
    return live, (np.max(np.abs(live)) if live.size else 0.0)


def _monotone_map(draw, domain, kind):
    """One of the four families with ``monotone_rows`` on ``domain``, and
    the points it singles out.  Only c = 0 translates a bounded domain
    into itself and only c >= 0 a half-line; affine maps fix a window
    point, with |slope| < 1 off the line and slope > 0 on the half-line;
    three-piece slopes exceed 1 only on the line."""
    lo, hi = domain.window()
    inside = st.floats(lo, hi)
    family = draw(st.sampled_from(["identity", "translation", "affine", "three_piece"]))
    if family == "identity":
        return Identity(domain), []
    if family == "translation":
        c = draw(st.floats(-4.0, 4.0) | st.sampled_from([1e-300, 1e307]))
        c = {"line": c, "bounded": 0.0, "half-line": abs(c)}[kind]
        return Translation(domain, c), []
    slope = draw(st.floats(0.05, 0.95) | st.floats(1.05, 3.0))
    if kind != "line":
        slope = min(slope, 0.95)
    if family == "affine":
        if kind != "half-line" and draw(st.booleans()):
            slope = -slope
        return Affine(domain, slope, draw(inside) * (1.0 - slope)), []
    a, b = sorted((draw(inside), draw(inside | st.just(0.0))))
    ends = [a, b, math.nextafter(a, -math.inf), math.nextafter(b, math.inf)]
    return ThreePiece(domain, a, b, slope), ends


@st.composite
def _monotone_cases(draw):
    """(map, sorted points, count) for the four families with the fact:
    slopes of both signs, three-piece anchors, +-0, the window's ends,
    points past them and +-inf, and blocks of one and two columns."""
    domain, kind = draw(st.sampled_from(MONOTONE_DOMAINS))
    try:
        s, marks = _monotone_map(draw, domain, kind)
    except ConstructionError:  # an image end past the domain by rounding
        assume(False)
    lo, hi = domain.window()
    specials = [0.0, -0.0, lo, hi, lo - 1.0, hi + 1.0, math.inf, -math.inf, *marks]
    point = st.floats(lo, hi) | st.sampled_from(specials)
    size = draw(st.integers(1, 2) | st.integers(3, 24))
    xs = sorted(draw(st.lists(point, min_size=size, max_size=size)))
    return s, np.asarray(xs, dtype=float), draw(st.integers(0, 6))


@given(_monotone_cases())
def test_end_column_extremes_match_the_whole_block(case):
    s, xs, count = case
    assert s.monotone_rows and np.all(xs[:-1] <= xs[1:])
    with np.errstate(over="ignore"):
        live, peak = _iterate_rows(s, xs, count)
    want, want_peak = _whole_block_reference(s, xs, count)
    assert live.shape == want.shape and live.tobytes() == want.tobytes()
    assert float(peak).hex() == float(want_peak).hex()


def test_a_conjugate_takes_its_block_extremes_over_every_value():
    # a conjugate may wrap any inner map: this one folds the middle of the
    # box out of it, so sorted points escape between two ends that stay
    fold = _Leaky(BOX, lambda x: np.where(np.abs(x) < 1.0, 20.0, 0.5 * x), lambda y: y)
    s = conjugate(Generator("identity", BOX), fold)
    assert not s.monotone_rows
    xs = np.linspace(-8.0, 8.0, 17)
    _assert_rows_match_reference(s, xs, 3)
    live, _ = _iterate_rows(s, xs, 3)
    assert 0 < live.shape[1] < len(xs)


def test_nan_residual_survives_the_block_reduction():
    # rho * x overflows for x above 1.8, so only the later blocks hold NaN
    # residuals; Python's max(finite, nan) would drop them
    s, rho, samples = Identity(Interval(-1.0, 4.0, True, True)), 1e308, 2 * _BLOCK + 1
    with np.errstate(over="ignore", invalid="ignore"):
        got = verify_second_order(s, rho, samples)
        want = _reference_second(s, rho, samples)
    assert math.isnan(got.max_residual) and not got.passed
    assert _bits(got) == _bits(want)


def test_overflowing_translation_escapes_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = verify_mean(Translation(REAL_LINE, 1.89231e307), CharProblem(14, 7))
    assert not report.passed
    assert report.points_escaped == 1001 and report.points_evaluated == 0


def test_verify_memory_does_not_grow_with_samples():
    # each block builds its own grid points: 4e6 samples peak at a few block
    # rows (3 rows of _BLOCK doubles is 0.2 MB), where the whole grid alone
    # would take 32 MB
    s, prob = Identity(REAL_LINE), CharProblem(2, 1)
    tracemalloc.start()
    try:
        report = verify_mean(s, prob, 4_000_001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.points_evaluated == 4_000_001
    assert peak < 2**21


def test_verify_memory_is_bounded_by_the_block():
    s = _line_map("none")
    tracemalloc.start()
    try:
        report = verify_mean(s, PROB_15_4, 200001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.points_evaluated == 200001
    # the whole grid alone is 16 rows x 200001 doubles = 25.6 MB
    assert peak < 8 * 2**20
