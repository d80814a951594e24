import pytest
from hypothesis import settings

from oddzeta import coeffs, exact

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture
def cold_store(monkeypatch):
    """The state of a new process for one test: empty tangent list, step column and
    coefficient store, and no disk cache from the environment.

    Returns the tangent indices the step computes during the test, in order;
    the shared state is restored afterwards.
    """
    monkeypatch.setattr(exact, "_tangents", [])
    monkeypatch.setattr(exact, "_step_column", [])
    monkeypatch.setattr(coeffs, "_columns", {})
    monkeypatch.delenv(exact.CACHE_DIR_ENV, raising=False)
    steps = []
    step = exact._step

    def spy():
        value = step()
        steps.append(len(exact._step_column))
        return value

    monkeypatch.setattr(exact, "_step", spy)
    return steps
