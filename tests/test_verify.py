import math
import tracemalloc
import warnings

import numpy as np
import pytest

from itereq.charpoly import CharProblem, analyze_roots, build_char_poly
from itereq.errors import DomainError
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
from itereq.intervals import Interval, REAL_LINE
from itereq.means import Generator
from itereq.poly import Polynomial
from itereq.verify import (
    _BLOCK,
    _contains_array,
    _contains_point,
    DEFAULT_TOL,
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
        expected = _contains_array(domain, np.asarray(values)).tolist()
        assert [_contains_point(domain, x) for x in values] == expected, domain


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


def test_orbit_escape_flag_backward():
    # inverse of the contraction expands; backward iterates leave (0, 2)
    s = Affine(Interval(0.0, 2.0, True, True), 0.5, 0.5)
    orb = iterate(s, 1.8, -8, 0)
    assert orb.escaped
    assert orb.escape_index is not None and orb.escape_index < 0


def test_orbit_x0_outside_domain():
    with pytest.raises(DomainError):
        iterate(Identity(Interval(0.0, 1.0)), 5.0, 0, 3)


def test_sample_grid_respects_open_endpoints():
    grid = sample_grid(Interval(0.0, 1.0), 101)
    assert grid[0] > 0.0 and grid[-1] < 1.0
    closed = sample_grid(Interval(0.0, 1.0, True, True), 101)
    assert closed[0] == 0.0 and closed[-1] == 1.0


def test_sample_grid_clips_infinite_domains():
    grid = sample_grid(REAL_LINE, 11)
    assert grid[0] >= -10.0 and grid[-1] <= 10.0


# ---------------------------------------------------------------------------
# verify_mean
# ---------------------------------------------------------------------------


def test_identity_passes_any_problem_with_zero_residual():
    for n, k in ((2, 0), (5, 3), (9, 9)):
        report = verify_mean(Identity(REAL_LINE), CharProblem(n, k))
        assert report.passed
        assert report.max_residual == 0.0
        assert report.points_escaped == 0


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


def test_report_json_keys():
    report = verify_mean(Identity(REAL_LINE), CharProblem(2, 1))
    assert report.to_json() == {
        "max_residual": 0.0,
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
    s = build_involution(
        Interval(0.0, math.inf), 1.0, f0=lambda x: 1.0 / x,
        f0_inverse=lambda y: 1.0 / y,
    )
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
# scattered the result back, and the mean was taken over a gathered
# (Fortran-ordered) copy of the live columns.  Reports must agree bit for
# bit.


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


def _reference_report(residual, rows, alive, samples, coeff_scale=1.0):
    evaluated = int(np.count_nonzero(alive))
    if evaluated == 0:
        return VerifyReport(math.inf, False, 0, samples)
    max_resid = float(np.max(np.abs(residual[alive])))
    scale = coeff_scale * (1.0 + float(np.max(np.abs(rows[:, alive]))))
    passed = max_resid <= DEFAULT_TOL * scale and evaluated >= math.ceil(0.9 * samples)
    return VerifyReport(max_resid, passed, evaluated, samples - evaluated)


def _reference_general(s, gen, prob, samples):
    xs = sample_grid(s.domain, samples)
    rows, alive = _reference_rows(s, xs, prob.n)
    residual = np.full(len(xs), np.nan)
    if np.any(alive):
        live = rows[:, alive]
        phi = live if gen.kind == "identity" else gen.phi(live)
        dev = np.add.reduce(np.asfortranarray(phi - phi[prob.k]), axis=0) / live.shape[0]
        mean_phi = phi[prob.k] + dev
        general = mean_phi if gen.kind == "identity" else gen.phi_inv(mean_phi)
        mean = np.where(dev == 0.0, live[prob.k], general)
        residual[alive] = rows[prob.k, alive] - mean
    return _reference_report(residual, rows, alive, samples)


def _reference_linear(s, coeffs, samples):
    xs = sample_grid(s.domain, samples)
    rows, alive = _reference_rows(s, xs, coeffs.degree)
    residual = (
        np.tensordot(coeffs.as_array(), rows - rows[0], axes=(0, 0))
        + math.fsum(coeffs.coeffs) * rows[0]
    )
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
# one block short of full, full, one over (the remainder joins the block),
# and two blocks with a remainder
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
def test_whole_row_reports_match_masked_reference(case):
    for samples in BLOCK_GRIDS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = _report_pairs(case, samples)
        for got, want in pairs:
            assert _bits(got) == _bits(want), samples
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


def test_nan_residual_survives_the_block_reduction():
    # rho * x overflows for x above 1.8, so only the second block holds NaN
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
