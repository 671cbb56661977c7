import pytest
from hypothesis import HealthCheck, settings

from itereq.charpoly import analyze_roots, build_char_poly, classify
from itereq.families import _problem_families
from itereq.recurrence import _cached_basis, _candidates, _fit_system

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(autouse=True)
def _empty_memos():
    """Start every test with no cached root reports, characteristic
    polynomials, case analyses, family enumerations, mode candidates, fit
    systems or closed-form bases, whatever ran before."""
    analyze_roots.cache_clear()
    build_char_poly.cache_clear()
    classify.cache_clear()
    _problem_families.cache_clear()
    _candidates.cache_clear()
    _fit_system.cache_clear()
    _cached_basis.cache_clear()
