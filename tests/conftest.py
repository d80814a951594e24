import pytest
from hypothesis import settings

from oddzeta import coeffs, exact

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture
def cold_store(monkeypatch):
    """Empty tangent list and coefficient store for one test, without a disk cache.

    Returns the list of tangent-list builds (one count per build) made during
    the test; the shared list and store are restored afterwards.
    """
    monkeypatch.setattr(exact, "_tangents", [])
    monkeypatch.setattr(coeffs, "_columns", {})
    monkeypatch.delenv(exact.CACHE_DIR_ENV, raising=False)
    builds = []
    compute = exact._tangent_numbers
    monkeypatch.setattr(
        exact, "_tangent_numbers", lambda count: builds.append(count) or compute(count)
    )
    return builds
