import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from itereq.errors import DomainError, DomainMismatch
from itereq.families import Affine, conjugate
from itereq.intervals import Interval, REAL_LINE
from itereq.means import Generator, qa_mean, qa_mean_rows

POS = Interval(0.0, math.inf)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_generator_kinds_validated():
    with pytest.raises(DomainError):
        Generator("sqrt", POS)
    with pytest.raises(DomainError):
        Generator("power", POS)  # missing exponent
    with pytest.raises(DomainError):
        Generator("power", POS, p=0.0)
    with pytest.raises(DomainError):
        Generator("log", POS, p=2.0)


@pytest.mark.parametrize("p", [math.nan, math.inf, True, "2", None])
def test_power_exponent_must_be_a_finite_number(p):
    with pytest.raises(DomainError, match="'p'"):
        Generator("power", POS, p=p)


def test_transport_overflow_is_a_domain_error():
    with pytest.raises(DomainError, match="overflows"):
        Generator("power", Interval(2.0, 3.0), p=1e-300).image()


@pytest.mark.parametrize("text", ["power=2", "power:x", "sqrt"])
def test_generator_parse_rejects_other_forms(text):
    with pytest.raises((DomainError, ValueError)):
        Generator.parse(text, POS)


def test_positive_domain_required():
    with pytest.raises(DomainError):
        Generator("log", REAL_LINE)
    with pytest.raises(DomainError):
        Generator("power", Interval(-1.0, 1.0), p=2.0)
    with pytest.raises(DomainError):
        Generator("log", Interval(0.0, 1.0, lo_closed=True))


@pytest.mark.parametrize(
    "gen, xs",
    [
        (Generator("identity", REAL_LINE), np.linspace(-5, 5, 7)),
        (Generator("log", Interval(0.1, 20.0)), np.geomspace(0.1, 20, 9)),
        (Generator("power", Interval(0.25, 4.0), p=2.0), np.linspace(0.25, 4, 9)),
        (Generator("power", Interval(0.25, 4.0), p=-2.0), np.linspace(0.25, 4, 9)),
        (Generator("power", Interval(0.5, 8.0), p=0.5), np.linspace(0.5, 8, 9)),
    ],
)
def test_phi_round_trip_within_4_ulps(gen, xs):
    for x in xs:
        back = gen.phi_inv(gen.phi(float(x)))
        assert abs(back - x) <= 4.0 * np.spacing(abs(x))


def test_transport_orientation():
    inc = Generator("power", Interval(1.0, 4.0, True, True), p=2.0)
    img = inc.image()
    assert (img.lo, img.hi) == (1.0, 2.0)
    assert img.lo_closed and img.hi_closed

    dec = Generator("power", Interval(1.0, 4.0, True, False), p=-1.0)
    img = dec.image()  # phi(x) = 1/x reverses the interval
    assert img.lo == pytest.approx(0.25)
    assert img.hi == pytest.approx(1.0)
    assert not img.lo_closed and img.hi_closed


def test_transport_infinite_endpoints():
    img = Generator("log", POS).image()
    assert img.lo == -math.inf and img.hi == math.inf
    img = Generator("power", POS, p=-2.0).image()
    assert img.lo == 0.0 and img.hi == math.inf


def test_scalar_maps_extend_to_zero_and_infinity_by_continuity():
    log = Generator("log", POS)
    assert log.phi(0.0) == -math.inf and log.phi(math.inf) == math.inf
    assert log.phi_inv(-math.inf) == 0.0 and log.phi_inv(math.inf) == math.inf
    recip = Generator("power", POS, p=-2.0)  # phi(x) = x ** -0.5
    for f in (recip.phi, recip.phi_inv):
        assert f(0.0) == math.inf
        assert f(math.inf) == 0.0
    assert Generator("power", POS, p=2.0).phi(0.0) == 0.0


def test_generator_json():
    gen = Generator("power", POS, p=2.0)
    assert gen.to_json() == {"kind": "power", "p": 2.0}
    back = Generator.from_json(gen.to_json(), POS)
    assert back == gen
    assert Generator("log", POS).to_json() == {"kind": "log"}


# ---------------------------------------------------------------------------
# quasi-arithmetic mean
# ---------------------------------------------------------------------------


def test_arithmetic_mean():
    assert qa_mean(Generator("identity", REAL_LINE), (1.0, 2.0, 3.0)) == 2.0


def test_geometric_mean():
    assert qa_mean(Generator("log", POS), (1.0, 4.0)) == pytest.approx(2.0)


def test_power_mean_p2():
    # phi(x) = sqrt(x): mean of (1, 9) is ((1 + 3)/2)^2 = 4
    gen = Generator("power", POS, p=2.0)
    assert qa_mean(gen, (1.0, 9.0)) == pytest.approx(4.0)


def test_idempotence_on_constant_tuple():
    gen = Generator("identity", REAL_LINE)
    assert qa_mean(gen, (7.25,) * 5) == 7.25


def test_domain_checked():
    with pytest.raises(DomainError):
        qa_mean(Generator("log", Interval(1.0, 2.0)), (1.5, 3.0))
    with pytest.raises(DomainError):
        qa_mean(Generator("identity", REAL_LINE), ())


@given(
    st.lists(
        st.floats(min_value=0.1, max_value=50.0),
        min_size=1,
        max_size=8,
    ),
    st.sampled_from(["identity", "log", "power:2", "power:-1", "power:0.5"]),
)
def test_internality(values, kind):
    domain = Interval(0.01, 100.0)
    if kind.startswith("power"):
        gen = Generator("power", domain, p=float(kind.split(":")[1]))
    else:
        gen = Generator(kind, domain)
    m = qa_mean(gen, values)
    assert min(values) - 1e-9 <= m <= max(values) + 1e-9


@pytest.mark.parametrize(
    "p, values, what",
    [
        (0.1, [1e-300, 2e-300], "phi underflows"),  # returned 0.0
        (0.1, [1e300, 2e300], "overflows"),  # raised a bare OverflowError
        (-0.1, [1e300, 2e300], "phi underflows"),  # returned inf
        (0.1, [1e-40, 1e-31], "phi underflows"),  # phi sum 1e-310 < 2 * 2**-1022
    ],
)
def test_mean_out_of_double_range_is_a_domain_error(p, values, what):
    with pytest.raises(DomainError, match=what) as info:
        qa_mean(Generator("power", POS, p=p), values)
    message = str(info.value)
    assert repr(values) in message and f"'p': {p!r}" in message


@pytest.mark.parametrize(
    "p, values, want",
    [
        (0.1, [1e-40, 1.0], 0.9330329915368074),
        (-0.1, [1e40, 1.0], 1.0717734625362931),
        (0.1, [1e-40, 1e-30], 9.330329915368039e-31),  # phi sum 1e-300
    ],
)
def test_an_underflow_the_mean_outweighs_keeps_the_formula_value(p, values, want):
    # phi sends 1e-40 (p = 0.1) or 1e40 (p = -0.1) to 0, beside a phi sum
    # above len(values) * 2**-1022: the lost value cannot move the mean
    gen = Generator("power", POS, p=p)
    assert qa_mean(gen, values) == want
    assert qa_mean_rows(gen, np.asarray(values)[:, None])[0] == want


def _plain_mean(gen, values):
    """The mean by its formula alone, with no range checks."""
    return float(gen.phi_inv(math.fsum(gen.phi(v) for v in values) / len(values)))


# adjacent floats whose formula mean strays one ulp or two past an end
# under power:2, power:-1 or power:3
ADJACENT = [
    [3.0, math.nextafter(3.0, 4.0)],
    [0.3, math.nextafter(0.3, 1.0)],
    [7.0, math.nextafter(7.0, 8.0), 7.0],
]


@given(
    st.one_of(
        st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=2, max_size=8),
        st.sampled_from(ADJACENT),
    ),
    st.sampled_from(["log", "power:2", "power:-1", "power:0.5", "power:3"]),
)
@example(ADJACENT[0], "power:2")
@example(ADJACENT[0], "power:-1")
@example(ADJACENT[2], "power:3")
def test_mean_keeps_the_formula_bits_and_clamps_rounding(values, kind):
    # the formula's result where it lies in [min, max], else the nearer end:
    # it strays past an end only by rounding, as on adjacent floats
    domain = Interval(0.01, 100.0)
    gen = Generator.parse(kind, domain)
    lo, hi = min(values), max(values)
    m = qa_mean(gen, values)
    assert lo <= m <= hi
    if lo < hi:
        assert m == min(max(_plain_mean(gen, values), lo), hi)


# ---------------------------------------------------------------------------
# row-wise mean
# ---------------------------------------------------------------------------


def _mean_column_by_loop(gen, phi_rows, rows, anchor, j):
    """``qa_mean_rows`` at column j, with the arithmetic in Python floats:
    the deviations of ``phi_rows`` (phi of ``rows``) from the anchor row
    added in row order, then added to it; under a generator other than
    the identity, phi^-1 of that, or the anchor value where the mean
    deviation is 0."""
    base = float(phi_rows[anchor, j])
    dev = float(phi_rows[0, j]) - base
    for i in range(1, len(phi_rows)):
        dev += float(phi_rows[i, j]) - base
    dev /= len(phi_rows)
    if gen.kind == "identity":
        return base + dev
    if dev == 0.0:
        return float(rows[anchor, j])
    return float(gen.phi_inv(np.asarray([base + dev]))[0])


# the layouts a grid block can hand a residual: a whole block, its last
# block one column wide, a block stored column by column, and the live
# columns gathered out of a block with escapes
LAYOUTS = ("whole", "single_column", "fortran", "gathered")


@st.composite
def _rows_and_anchor(draw):
    kind = draw(st.sampled_from(["identity", "log", "power:2", "power:-1", "power:0.5", "power:3"]))
    if kind == "identity":
        elements = st.one_of(
            st.floats(min_value=-1e300, max_value=1e300),
            st.sampled_from([0.0, -0.0, 1.0, -1e16, 1e16]),
        )
    else:
        elements = st.one_of(
            st.floats(min_value=1e-100, max_value=1e100),
            st.sampled_from([1.0, 3.0, 1e-16, 1e16]),
        )
    rows = draw(hnp.arrays(
        np.float64, st.tuples(st.integers(1, 300), st.integers(1, 4)), elements=elements
    ))
    layout = draw(st.sampled_from(LAYOUTS))
    if layout == "single_column":
        rows = rows[:, :1].copy()
    elif layout == "fortran":
        rows = np.asfortranarray(rows)
    elif layout == "gathered":
        cols = draw(st.lists(st.integers(0, rows.shape[1] - 1), min_size=1, max_size=6))
        rows = rows[:, cols]
    gen = Generator.parse(kind, REAL_LINE if kind == "identity" else POS)
    return gen, rows, draw(st.integers(0, len(rows) - 1))


@given(_rows_and_anchor())
def test_row_mean_adds_deviations_in_row_order(case):
    # signed zeros, cancellations (1e16 against -1e16 around 1.0) and mixed
    # magnitudes: the sum order must be the row order, bit for bit, in every
    # layout and under every generator kind
    gen, rows, anchor = case
    got = qa_mean_rows(gen, rows.copy(order="K"), anchor)
    phi_rows = gen.phi(np.ascontiguousarray(rows))
    want = [_mean_column_by_loop(gen, phi_rows, rows, anchor, j) for j in range(rows.shape[1])]
    assert got.tobytes() == np.asarray(want).tobytes()


def test_row_mean_computes_in_the_rows_it_is_given():
    rows = np.asarray([[1.0, 4.0], [2.0, 4.0], [6.0, 4.0]])
    got = qa_mean_rows(Generator("identity", REAL_LINE), rows, anchor=1)
    assert np.shares_memory(got, rows)
    assert got.tolist() == [3.0, 4.0]


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------


def test_log_conjugate_is_power_law():
    # inner f(y) = r0*y + log c on the log image gives F(x) = c * x^r0
    domain = Interval(1.0, 4.0, True, True)
    gen = Generator("log", domain)
    inner = Affine(gen.image(), -0.5, math.log(2.0))
    F = conjugate(gen, inner)
    for x in np.linspace(1.0, 4.0, 33):
        assert F(float(x)) == pytest.approx(2.0 * x ** (-0.5), rel=1e-12)


def test_identity_conjugate_is_unchanged():
    gen = Generator("identity", REAL_LINE)
    inner = Affine(REAL_LINE, -2.0, 5.0)
    F = conjugate(gen, inner)
    for x in (-3.0, 0.0, 1.7):
        assert F(x) == inner(x)


def test_power_conjugate_parameter_mapping():
    # phi(x) = sqrt(x): inner r0*y + c' becomes (r0*sqrt(x) + c')^2
    domain = Interval(0.0625, 4.0)
    gen = Generator("power", domain, p=2.0)
    inner = Affine(gen.image(), -0.5, 1.5)
    F = conjugate(gen, inner)
    for x in np.linspace(0.1, 3.9, 23):
        assert F(float(x)) == pytest.approx(
            (-0.5 * math.sqrt(x) + 1.5) ** 2, rel=1e-12
        )


def test_conjugate_domain_mismatch_rejected():
    gen = Generator("log", Interval(1.0, 4.0))
    with pytest.raises(DomainMismatch):
        conjugate(gen, Affine(REAL_LINE, -0.5, 0.0))


def test_conjugate_round_trip():
    # transporting through p and back through 1/p reproduces the map
    domain = Interval(1.0, 16.0, True, True)
    outer = Generator("power", domain, p=2.0)  # phi = sqrt -> [1, 4]
    inner_map = Affine(outer.image(), 0.5, 1.0)
    F = conjugate(outer, inner_map)

    back_gen = Generator("power", outer.image(), p=0.5)  # phi = square -> [1, 16]
    G = conjugate(back_gen, F)
    for y in np.linspace(1.0, 4.0, 101):
        assert G(float(y)) == pytest.approx(inner_map(float(y)), abs=1e-10)


def test_remark_equivalence_residuals_scale_together():
    # a wrong slope must give comparable residuals for the conjugate pair
    # of equations, within the local Lipschitz bounds of the generator
    domain = Interval(1.0, 4.0, True, True)
    gen = Generator("log", domain)
    wrong_inner = Affine(gen.image(), -0.5 + 1e-3, math.log(2.0))
    F = conjugate(gen, wrong_inner)

    n, k = 2, 2
    for x in np.linspace(1.2, 3.8, 25):
        fs = [float(x)]
        for _ in range(n):
            fs.append(F(fs[-1]))
        mean_outer = math.exp(sum(math.log(v) for v in fs) / (n + 1))
        r_outer = fs[k] - mean_outer

        ys = [gen.phi(float(x))]
        for _ in range(n):
            ys.append(wrong_inner(ys[-1]))
        r_inner = ys[k] - sum(ys) / (n + 1)

        # |phi'| = 1/x on [1,4] and |(phi^-1)'| = exp at the image points
        lip_inv = max(math.exp(v) for v in ys)
        lip_fwd = 1.0  # 1/x <= 1 on [1, 4]
        assert abs(r_outer) <= 10.0 * lip_inv * abs(r_inner) + 1e-12
        assert abs(r_inner) <= 10.0 * max(lip_fwd, 1.0) * abs(r_outer) + 1e-12
