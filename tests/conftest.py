from __future__ import annotations

import numpy as np
import pytest

from hitchinlab.catalog import chart_family
from hitchinlab.families import TorusFamily
from hitchinlab.fields import TorusGrid

# Deterministic chart test family: the free datum of the default catalog
# configuration, smaller grid so unit tests stay fast.
CHART_SIGMA = 0.1 + 0.05j
EPS = 1e-4


@pytest.fixture(scope="session")
def torus32() -> TorusFamily:
    return TorusFamily(TorusGrid(32))


@pytest.fixture(scope="session")
def torus64() -> TorusFamily:
    return TorusFamily(TorusGrid(64))


@pytest.fixture(scope="session")
def chart48():
    return chart_family(48, radius=0.35)


def rel_dev(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale
