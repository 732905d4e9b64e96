"""Fixtures shared by the test modules."""

import pytest

from permrat import curve_cases, curves


@pytest.fixture
def fresh_curve_caches():
    """Empty the per-prime pencil census and the per-(p, t) GH audits before
    and after the test, so a test that patches a pencil or a builder neither
    reads nor leaves behind the tables of other curves."""
    curves.pencil_census.cache_clear()
    curve_cases._gh_audit.cache_clear()
    yield
    curves.pencil_census.cache_clear()
    curve_cases._gh_audit.cache_clear()
