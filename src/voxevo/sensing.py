"""Observation vectors for voxel robots.

Each grid cell contributes an 8-scalar block: mean corner velocity (clamped),
quadrilateral area (1 for a voxel at rest), and a 5-way material one-hot.
Empty or out-of-grid cells contribute the missing-voxel block (zero
velocity, zero volume, empty one-hot). The global controller reads one
Moore window of radius GRID_SIZE // 2 centred on the grid, the full bounding
box; the modular controller one window around each actuator. Both end with
a periodic time signal, giving 201 entries at the default sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .morphology import EMPTY, GRID_SIZE, N_MATERIALS
from .physics import SimWorld, check_fields

GLOBAL_KIND = "global"
MODULAR_KIND = "modular"
KINDS = (GLOBAL_KIND, MODULAR_KIND)

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
        check_fields(self, (
            # a radius-(GRID_SIZE - 1) window centred on any cell covers the grid
            ("neighborhood_distance", 0 <= self.neighborhood_distance <= GRID_SIZE - 1,
             f"must be in [0, {GRID_SIZE - 1}]"),
            ("time_period", self.time_period >= 1, "must be >= 1"),
            ("velocity_clamp", 0.0 < self.velocity_clamp < math.inf,
             "must be > 0 and finite"),
        ))

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


def _windows(lookup: np.ndarray, centres, d: int, pad: int) -> np.ndarray:
    """Entries of `lookup` in the (2d+1)^2 window around each (row, col)
    centre, in raster order, shape (len(centres), (2d+1)^2); cells outside
    the grid read `pad`."""
    side = 2 * d + 1
    padded = np.pad(lookup, d, constant_values=pad)
    return np.array([padded[r:r + side, c:c + side].ravel() for r, c in centres],
                    dtype=np.int64).reshape(len(centres), side * side)


class ObservationBuilder:
    """Precomputed observation assembly for one body and one controller kind.

    Static structure (which voxel feeds which input slot) is fixed at
    construction from the body of `world`; the builder keeps no world, and
    per-step feature blocks are recomputed from the state of the world each
    call is handed, any world of that body. Row `n_voxels` of the feature
    matrix is the missing-voxel block, so unoccupied slots index the padding
    row. `pick` reads the actions, in `world.actuator_cells` order, from the
    forward pass on `inputs`.
    """

    def __init__(self, world: SimWorld, kind: str, cfg: ObservationConfig | None = None):
        if kind not in KINDS:
            raise ValueError(f"unknown controller kind {kind!r}")
        self.kind = kind
        self.cfg = cfg or ObservationConfig()
        n = len(world.cells)
        self._features = np.tile(MISSING_BLOCK, (n + 1, 1))
        onehot = np.zeros((n, N_MATERIALS))
        onehot[np.arange(n), world.materials.astype(int)] = 1.0
        self._features[:n, 3:] = onehot
        self._velocity = self._features[:n, 0:2]
        self._area = self._features[:n, 2]
        # corner_map columns are TL, TR, BL, BR; polygon order TL -> TR -> BR -> BL
        self._ring = world.corner_map[:, [0, 1, 3, 2]]
        self._ring_next = self._ring[:, [1, 2, 3, 0]]

        lookup = np.full((GRID_SIZE, GRID_SIZE), n, dtype=np.int64)
        for i, (r, c) in enumerate(world.cells):
            lookup[r, c] = i
        act_cells = world.actuator_cells
        if kind == GLOBAL_KIND:
            # one unstacked window over the whole grid; the network emits one
            # output per cell, read at each actuator's raster index
            centre = GRID_SIZE // 2
            self._slots = _windows(lookup, [(centre, centre)], centre, n)[0]
            self.pick = np.array([r * GRID_SIZE + c for r, c in act_cells], dtype=np.int64)
        else:
            # one window per actuator, in action order; one output per row
            self._slots = _windows(lookup, act_cells, self.cfg.neighborhood_distance, n)
            self.pick = (slice(None), 0)
        # the controller input, refilled in place: blocks, then the time signal
        self._input = np.empty(self._slots.shape[:-1]
                               + (self._slots.shape[-1] * BLOCK_SIZE + 1,))
        self._blocks = self._input[..., :-1].reshape(*self._slots.shape, BLOCK_SIZE)
        self._time = self._input[..., -1]

    def refresh(self, world: SimWorld) -> None:
        """Recompute the dynamic features (velocity, volume) from `world`'s state."""
        vel = np.add.reduce(world.vel[world.corner_map], axis=1)
        vel /= 4.0  # what .mean(axis=1) computes
        clamp = self.cfg.velocity_clamp
        np.maximum(vel, -clamp, out=vel)  # what np.clip computes, NaN kept
        np.minimum(vel, clamp, out=self._velocity)
        self._area[:] = _quad_areas(world.pos[:, 0], world.pos[:, 1], self._ring, self._ring_next)

    def inputs(self, world: SimWorld, env_step: int) -> np.ndarray:
        """The controller input of `world` at `env_step`: shape (global_size,)
        for the global kind, (n_act, local_size) for the modular one. The
        result is the builder's own buffer, overwritten by the next call."""
        self.refresh(world)
        # slots are in range by construction; mode='raise' would buffer the gather
        np.take(self._features, self._slots, axis=0, mode="clip", out=self._blocks)
        self._time[...] = time_signal(env_step, self.cfg.time_period)
        return self._input
