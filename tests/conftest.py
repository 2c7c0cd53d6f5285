import numpy as np
import pytest
from hypothesis import strategies as st

from ghostsim import (
    ArmPath,
    EnsembleConfig,
    Grid1D,
    Lens,
    Propagate,
    SetupGeometry,
    TransmissionMask,
)

# Arm paths on the 2048 x 8 um grid of the small_grid fixture: every nonzero
# hop is above its chirp bound dx * L / lambda = 0.207 m; a mask is one slit.
SMALL_GRID = Grid1D(n=2048, dx=8e-6)


def one_slit(start: int, width: int) -> TransmissionMask:
    t = np.zeros(SMALL_GRID.n)
    t[start : start + width] = 1.0
    return TransmissionMask(SMALL_GRID, t)


ELEMENTS = st.one_of(
    st.builds(Propagate, st.just(0.0) | st.floats(0.21, 0.6)),
    st.builds(Lens, st.floats(0.05, 0.5) | st.floats(-0.5, -0.05)),
    st.builds(one_slit, st.integers(0, SMALL_GRID.n - 1), st.integers(1, 512)),
)
PATHS = st.lists(ELEMENTS, max_size=5).map(ArmPath)


@pytest.fixture(scope="session")
def grid():
    return Grid1D(n=16384, dx=2e-6)


@pytest.fixture(scope="session")
def geometry():
    """Bench geometry with the verbatim scan-plane distance."""
    return SetupGeometry()


@pytest.fixture(scope="session")
def small_grid():
    return SMALL_GRID


def make_config(grid, geometry, n_realizations=1000, seed=1234):
    return EnsembleConfig(
        n_realizations=n_realizations, seed=seed, geometry=geometry, grid=grid
    )


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(42)
