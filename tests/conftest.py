from __future__ import annotations

import numpy as np
import pytest

from hitchinlab.catalog import CHART_COEFFS
from hitchinlab.families import TorusFamily, rigid_family
from hitchinlab.fields import ChartGrid, TorusGrid

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
    fam, report = rigid_family(ChartGrid(48), CHART_COEFFS, order=8, radius=0.35)
    return fam, report


def rel_dev(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale
