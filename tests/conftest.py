import mpmath
import pytest
from hypothesis import settings

settings.register_profile("mpde", deadline=None, max_examples=40)
settings.load_profile("mpde")


@pytest.fixture(autouse=True)
def precision_256():
    """Pin the working precision for every test, and fail a test that
    leaves it changed: library calls leave no global state behind."""
    old = mpmath.mp.prec
    mpmath.mp.prec = 256
    yield
    leaked = mpmath.mp.prec
    mpmath.mp.prec = old
    assert leaked == 256, f"the test left mpmath.mp.prec at {leaked}"
