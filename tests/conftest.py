import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from jflow import make_backend


@pytest.fixture(scope="session")
def torus64():
    return make_backend("torus", size=64)


@pytest.fixture(scope="session")
def torus128():
    return make_backend("torus", size=128)


@pytest.fixture(scope="session")
def sphere64():
    return make_backend("sphere", size=64)


@pytest.fixture(scope="session")
def sphere128():
    return make_backend("sphere", size=128)


@pytest.fixture(scope="session")
def sphere256():
    return make_backend("sphere", size=256)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
