import numpy as np
import pytest

from circjacobi.harness import random_alphas  # noqa: F401  (shared by the test modules)


@pytest.fixture
def gen() -> np.random.Generator:
    return np.random.default_rng(20240601)
