"""Observation vectors for voxel robots.

Each grid cell contributes an 8-scalar block: mean corner velocity (clamped),
quadrilateral area (1 for a voxel at rest), and a 5-way material one-hot.
Empty or out-of-grid cells contribute the missing-voxel block (zero
velocity, zero volume, empty one-hot). The global layout rasters the full bounding box; the
local layout rasters the Moore window centered on one actuator. Both end with
a periodic time signal, giving 201 entries at the default sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .morphology import EMPTY, GRID_SIZE, N_MATERIALS
from .physics import SimWorld

BLOCK_SIZE = 3 + N_MATERIALS  # V.x, V.y, v, M[0..4]

MISSING_BLOCK = np.zeros(BLOCK_SIZE)
MISSING_BLOCK[3 + EMPTY] = 1.0
MISSING_BLOCK.flags.writeable = False


@dataclass(frozen=True)
class ObservationConfig:
    neighborhood_distance: int = 2
    velocity_clamp: float = 10.0
    time_period: int = 25

    def __post_init__(self):
        if self.neighborhood_distance < 0:
            raise ValueError("neighborhood distance must be >= 0")
        if self.time_period < 1:
            raise ValueError("time period must be >= 1")
        if not 0.0 < self.velocity_clamp < math.inf:
            raise ValueError("velocity clamp must be positive and finite")

    @property
    def window_side(self) -> int:
        return 2 * self.neighborhood_distance + 1

    @property
    def global_size(self) -> int:
        return GRID_SIZE * GRID_SIZE * BLOCK_SIZE + 1

    @property
    def local_size(self) -> int:
        return self.window_side * self.window_side * BLOCK_SIZE + 1


def time_signal(env_step: int, period: int) -> float:
    """Phase in [0, 2*pi), advancing one tick per environment step."""
    return 2.0 * math.pi * (env_step % period) / period


def _quad_areas(x: np.ndarray, y: np.ndarray, ring: np.ndarray,
                ring_next: np.ndarray) -> np.ndarray:
    """Shoelace area per voxel from corner coordinates `x`, `y`; `ring` rows
    are corner mass indices in polygon order and `ring_next` the next corner
    of each."""
    return 0.5 * np.abs(np.add.reduce(x[ring] * y[ring_next] - x[ring_next] * y[ring], axis=1))


class ObservationBuilder:
    """Precomputed observation assembly for one world.

    Static structure (which voxel feeds which slot of which layout) is fixed
    at construction; per-step feature blocks are recomputed from the live
    simulation state. Row `n_voxels` of the feature matrix is the
    missing-voxel block, so unoccupied slots index the padding row.
    """

    def __init__(self, world: SimWorld, cfg: ObservationConfig | None = None):
        self.world = world
        self.cfg = cfg or ObservationConfig()
        n = len(world.cells)
        self._pad = n
        self._features = np.tile(MISSING_BLOCK, (n + 1, 1))
        onehot = np.zeros((n, N_MATERIALS))
        onehot[np.arange(n), world.materials.astype(int)] = 1.0
        self._features[:n, 3:] = onehot
        self._velocity = self._features[:n, 0:2]
        self._area = self._features[:n, 2]
        # corner_map columns are TL, TR, BL, BR; polygon order TL -> TR -> BR -> BL
        self._ring = world.corner_map[:, [0, 1, 3, 2]]
        self._ring_next = self._ring[:, [1, 2, 3, 0]]

        lookup = np.full((GRID_SIZE, GRID_SIZE), self._pad, dtype=np.int64)
        for i, (r, c) in enumerate(world.cells):
            lookup[r, c] = i
        self._global_slots = lookup.ravel()

        act_cells = world.actuator_cells
        # raster index of each actuator: its block and its global-controller output
        self.actuator_raster = np.array([r * GRID_SIZE + c for r, c in act_cells], dtype=np.int64)

        # one row of window slots per actuator, in action order
        d = self.cfg.neighborhood_distance
        self._local_slots = np.full((len(act_cells), self.cfg.window_side ** 2),
                                    self._pad, dtype=np.int64)
        for row, (r, c) in enumerate(act_cells):
            k = 0
            for wr in range(r - d, r + d + 1):
                for wc in range(c - d, c + d + 1):
                    if 0 <= wr < GRID_SIZE and 0 <= wc < GRID_SIZE:
                        self._local_slots[row, k] = lookup[wr, wc]
                    k += 1
        # controller inputs, refilled in place: blocks, then the time signal
        self._global_input = np.empty(self.cfg.global_size)
        self._global_blocks = self._global_input[:-1].reshape(-1, BLOCK_SIZE)
        self._local_input = np.empty((len(act_cells), self.cfg.local_size))
        self._local_blocks = self._local_input[:, :-1].reshape(
            *self._local_slots.shape, BLOCK_SIZE)

    def refresh(self) -> None:
        """Recompute the dynamic features (velocity, volume) from world state."""
        w = self.world
        vel = np.add.reduce(w.vel[w.corner_map], axis=1)
        vel /= 4.0  # what .mean(axis=1) computes
        clamp = self.cfg.velocity_clamp
        np.maximum(vel, -clamp, out=vel)  # what np.clip computes, NaN kept
        np.minimum(vel, clamp, out=self._velocity)
        self._area[:] = _quad_areas(w.pos[:, 0], w.pos[:, 1], self._ring, self._ring_next)

    def global_vector(self, env_step: int) -> np.ndarray:
        """The full-box observation, shape (global_size,). The result is the
        builder's own buffer, overwritten by the next call."""
        self.refresh()
        np.take(self._features, self._global_slots, axis=0, out=self._global_blocks)
        self._global_input[-1] = time_signal(env_step, self.cfg.time_period)
        return self._global_input

    def local_matrix(self, env_step: int) -> np.ndarray:
        """All actuator windows at once, shape (n_act, local_size), rows in
        `world.actuator_cells` order. The result is the builder's own buffer,
        overwritten by the next call."""
        self.refresh()
        np.take(self._features, self._local_slots, axis=0, out=self._local_blocks)
        self._local_input[:, -1] = time_signal(env_step, self.cfg.time_period)
        return self._local_input
