import mpmath
import numpy as np
import pytest

from circjacobi.harness import random_alphas  # noqa: F401  (shared by the test modules)


@pytest.fixture
def gen() -> np.random.Generator:
    return np.random.default_rng(20240601)


@pytest.fixture(autouse=True)
def mpmath_precision_restored():
    """Fail a test that leaves mpmath's working precision changed for the tests after it."""
    dps = mpmath.mp.dps
    yield
    assert mpmath.mp.dps == dps, f"mpmath.mp.dps left at {mpmath.mp.dps}, was {dps}"
