import pytest
from hypothesis import HealthCheck, settings

from itereq.charpoly import analyze_roots

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(autouse=True)
def _empty_report_cache():
    """Start every test with no cached root reports, whatever ran before."""
    analyze_roots.cache_clear()
