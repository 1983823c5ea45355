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
from .physics import JoinedWorld, check_fields

GLOBAL_KIND = "global"
MODULAR_KIND = "modular"
KINDS = (GLOBAL_KIND, MODULAR_KIND)

BLOCK_SIZE = 3 + N_MATERIALS  # V.x, V.y, v, M[0..4]

MISSING_BLOCK = np.zeros(BLOCK_SIZE)
MISSING_BLOCK[3 + EMPTY] = 1.0
MISSING_BLOCK.flags.writeable = False

# bound once, called with `out` positional: see physics
_add, _divide, _maximum, _minimum = np.add, np.divide, np.maximum, np.minimum


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


def input_size(kind: str, cfg: ObservationConfig) -> int:
    """Controller input length of `kind` under the observation layout `cfg`:
    one block per cell of its window (the whole grid, or an actuator's
    neighborhood), then the time signal."""
    if kind not in KINDS:
        raise ValueError(f"unknown controller kind {kind!r}")
    side = GRID_SIZE if kind == GLOBAL_KIND else 2 * cfg.neighborhood_distance + 1
    return side * side * BLOCK_SIZE + 1


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
    """Precomputed observation assembly for the members of a joined world,
    one controller kind per member; `ControllerBatch` builds it, from its
    controllers' kinds.

    Static structure (which voxel feeds which input slot) is fixed at
    construction from the bodies of `world`; the builder keeps no world,
    and per-step feature blocks are recomputed from the state of the world
    each call is handed, any joined world of those bodies in that order.
    One feature matrix holds every member's voxels in member order; its
    last row is the missing-voxel block, so unoccupied slots index that row.

    Members of equal kind and input rows (one for the global kind, one per
    actuator for the modular) form a group, groups in order of first
    appearance: `groups` holds each group's `(kind, rows, member indices)`
    and `stacked_inputs` one `(k, rows, width)` input stack per group.
    """

    def __init__(self, world: JoinedWorld, kinds: tuple[str, ...],
                 cfg: ObservationConfig | None = None):
        members = world.members
        self.cfg = cfg or ObservationConfig()
        voxels = np.cumsum([0] + [len(w.cells) for w in members]).tolist()
        n = voxels[-1]
        self._features = np.tile(MISSING_BLOCK, (n + 1, 1))
        onehot = np.zeros((n, N_MATERIALS))
        onehot[np.arange(n), np.concatenate([w.materials for w in members]).astype(int)] = 1.0
        self._features[:n, 3:] = onehot
        self._velocity = self._features[:n, 0:2]
        self._area = self._features[:n, 2]
        # the mean corner velocity: the corner map corner-major (row k holds
        # every voxel's corner k), the (4, n, 2) buffer the velocities are
        # gathered into, its four rows, and the (n, 2) buffer they sum into
        corners = np.empty((4, n, 2))
        self._corner_mean = (np.ascontiguousarray(world.corner_map.T), corners, *corners,
                             np.empty((n, 2)))
        # corner_map columns are TL, TR, BL, BR; polygon order TL -> TR -> BR -> BL
        self._ring = world.corner_map[:, [0, 1, 3, 2]]
        self._ring_next = self._ring[:, [1, 2, 3, 0]]

        windows, groups = [], {}
        for i, (w, kind, first) in enumerate(zip(members, kinds, voxels)):
            lookup = np.full((GRID_SIZE, GRID_SIZE), n, dtype=np.int64)
            for v, (r, c) in enumerate(w.cells):
                lookup[r, c] = first + v
            if kind == GLOBAL_KIND:
                # one window over the whole grid
                centre = GRID_SIZE // 2
                windows.append(_windows(lookup, [(centre, centre)], centre, n))
            else:
                # one window per actuator, in action order
                windows.append(_windows(lookup, w.actuator_cells,
                                        self.cfg.neighborhood_distance, n))
            groups.setdefault((kind, len(windows[-1])), []).append(i)
        self.groups = tuple((kind, rows, tuple(group)) for (kind, rows), group in groups.items())
        slots = [np.stack([windows[i] for i in group]) for _, _, group in self.groups]
        # the controller inputs, refilled in place: blocks, then the time signal
        self._inputs = [np.empty(s.shape[:-1] + (s.shape[-1] * BLOCK_SIZE + 1,)) for s in slots]
        self._gathers = [(s, x[..., :-1].reshape(*s.shape, BLOCK_SIZE), x[..., -1])
                         for x, s in zip(self._inputs, slots)]

    def refresh(self, world: JoinedWorld) -> None:
        """Recompute the dynamic features (velocity, volume) from `world`'s state."""
        corner_rows, corners, c0, c1, c2, c3, mean = self._corner_mean
        # corner indices are in range by construction: 'clip' skips the check
        world.vel.take(corner_rows, 0, corners, "clip")
        # the corners in order from +0.0, as np.add.reduce sums them from its
        # identity: four -0.0 corners give +0.0, not -0.0
        _add(c0, 0.0, mean)
        _add(mean, c1, mean)
        _add(mean, c2, mean)
        _add(mean, c3, mean)
        _divide(mean, 4.0, mean)  # what .mean(axis=1) computes
        clamp = self.cfg.velocity_clamp
        # numpy 2.4 deprecates a positional `out` for maximum and minimum
        _maximum(mean, -clamp, out=mean)  # what np.clip computes, NaN kept
        _minimum(mean, clamp, out=self._velocity)
        self._area[:] = _quad_areas(world.pos[:, 0], world.pos[:, 1], self._ring, self._ring_next)

    def stacked_inputs(self, world: JoinedWorld, env_step: int) -> list[np.ndarray]:
        """The controller inputs of `world`'s members at `env_step`, one
        `(k, rows, width)` stack per group. The stacks are the builder's
        own buffers, overwritten by the next call."""
        self.refresh(world)
        phase = time_signal(env_step, self.cfg.time_period)
        for slots, blocks, time in self._gathers:
            # slots are in range by construction; mode='raise' would buffer the gather
            self._features.take(slots, 0, blocks, "clip")
            time[...] = phase
        return self._inputs
