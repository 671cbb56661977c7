import pytest
from hypothesis import HealthCheck, settings

from itereq.charpoly import analyze_roots
from itereq.recurrence import _anchor_system, _basis

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(autouse=True)
def _empty_memos():
    """Start every test with no cached root reports, anchor systems or
    closed-form bases, whatever ran before."""
    analyze_roots.cache_clear()
    _anchor_system.cache_clear()
    _basis.cache_clear()
