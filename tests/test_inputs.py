"""Hostile input: decoders return a value or raise ItereqError, nothing else,
and NaN belongs to no domain."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from itereq.errors import DomainError, ItereqError
from itereq.families import Affine, solution_from_json
from itereq.intervals import REAL_LINE, Interval, finite_real, parse_interval
from itereq.means import Generator, qa_mean
from itereq.verify import iterate

FAMILIES = ["identity", "translation", "affine", "three_piece", "conjugate"]

# floats() draws NaN and +-inf as well as finite values
LEAF = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["-inf", "+inf", "inf", "nan", "log", "power"])
)
JSON = st.recursive(
    LEAF,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=12,
)
NUMBER = (
    st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 2.0, 1e-300, 1e300])
    | st.floats()
    | JSON
)
ENDPOINT = st.sampled_from(["-inf", "+inf", 0.0, 1.0, 4.0]) | NUMBER
DOMAIN = st.fixed_dictionaries(
    {"lo": ENDPOINT, "hi": ENDPOINT},
    optional={"lo_closed": st.booleans() | JSON, "hi_closed": st.booleans() | JSON},
) | JSON
SPEC = st.deferred(
    lambda: st.fixed_dictionaries(
        {"family": st.sampled_from(FAMILIES) | JSON, "domain": DOMAIN},
        optional={"params": PARAMS | JSON},
    )
    | JSON
)
PARAMS = st.fixed_dictionaries(
    {},
    optional={
        "c": NUMBER,
        "slope": NUMBER,
        "a": NUMBER,
        "b": NUMBER,
        "generator": st.fixed_dictionaries(
            {"kind": st.sampled_from(["identity", "log", "power"]) | JSON},
            optional={"p": NUMBER},
        ) | JSON,
        "inner": SPEC,
    },
)

INTERVAL_TEXT = st.text() | st.builds(
    lambda lb, lo, hi, rb: f"{lb}{lo},{hi}{rb}",
    st.sampled_from("[( "),
    st.text(max_size=6) | st.sampled_from(["-inf", "nan", "1e999", "0"]),
    st.text(max_size=6) | st.sampled_from(["+inf", "inf", "nan", "1"]),
    st.sampled_from("]) "),
)


@given(SPEC)
def test_solution_from_json_raises_only_itereq_errors(spec):
    try:
        solution_from_json(spec)
    except ItereqError:
        pass


@given(INTERVAL_TEXT)
def test_parse_interval_raises_only_itereq_errors(text):
    try:
        parse_interval(text)
    except ItereqError:
        pass


def test_an_integer_past_the_float_range_is_refused():
    with pytest.raises(DomainError, match="field 'c' must be a finite real number"):
        finite_real(10**400, "c")


def test_nan_is_in_no_interval():
    for domain in (REAL_LINE, Interval(0.0, 1.0, True, True), Interval(-1.0, math.inf)):
        assert not domain.contains(math.nan) and math.nan not in domain
    assert REAL_LINE.contains(0.0) and Interval(0.0, 1.0, True, True).contains(1.0)


def test_mean_with_a_nan_value_raises():
    with pytest.raises(DomainError, match="outside generator domain"):
        qa_mean(Generator("identity", REAL_LINE), [1.0, math.nan])


def test_orbit_from_nan_raises():
    with pytest.raises(DomainError, match="outside domain"):
        iterate(Affine(REAL_LINE, 2.0, 0.0), math.nan, 0, 3)
