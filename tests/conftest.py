import numpy as np
import pytest

from voxevo.morphology import Morphology
from voxevo.physics import PhysicsConfig
from voxevo.runconfig import RunConfig
from voxevo.walker import EpisodeConfig


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_body():
    """Six voxels in two rows, one actuator of each kind."""
    grid = np.zeros((5, 5), dtype=np.int8)
    grid[3, 1:4] = [3, 2, 4]
    grid[4, 1:4] = [1, 2, 1]
    return Morphology(grid)


@pytest.fixture
def narrow_body():
    """Three columns wide, so it can shift horizontally inside the box."""
    grid = np.zeros((5, 5), dtype=np.int8)
    grid[3, 0:3] = [3, 2, 4]
    grid[4, 0:3] = [1, 2, 1]
    return Morphology(grid)


@pytest.fixture
def plus_body():
    grid = np.zeros((5, 5), dtype=np.int8)
    grid[1, 2] = 3
    grid[2, 1:4] = [3, 1, 2]
    grid[3, 2] = 2
    return Morphology(grid)


@pytest.fixture
def fast_episode():
    return EpisodeConfig(max_steps=60)


@pytest.fixture
def tiny_evolution(fast_episode):
    return RunConfig(mu=3, lambda_=3, generations=3, seed=77, workers=1,
                     episode=fast_episode)


@pytest.fixture
def default_physics():
    return PhysicsConfig()
