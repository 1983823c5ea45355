"""Oracles and small file helpers shared by the test modules."""

import struct

import numpy as np

from voxevo.checkpoints import _HEADER, _RECORD_FIXED
from voxevo.control import _forward
from voxevo.evolution import Evaluator, run_evolution
from voxevo.morphology import Morphology
from voxevo.physics import (
    AXIS_DIAGONAL,
    AXIS_HORIZONTAL,
    AXIS_VERTICAL,
    VOXEL_EDGE,
)
from voxevo.sensing import GLOBAL_KIND, ObservationBuilder


def run_to_end(cfg):
    """A whole run on an evaluator of its own: its last `RunState` and the
    log of each generation, in order."""
    with Evaluator(cfg) as evaluator:
        steps = list(run_evolution(cfg, evaluator))
    return steps[-1][0], [log for _, log in steps]


def contact(normal_stiffness, normal_damping, friction) -> dict:
    """The `PhysicsConfig` keyword arguments that set the ground contact."""
    return {"contact_normal_stiffness": normal_stiffness,
            "contact_normal_damping": normal_damping, "contact_friction": friction}


# ground contact switched off, for free-fall and energy oracles
NO_CONTACT = contact(0.0, 0.0, 0.0)

# well-formed grids that are not robots, one per validity constraint
INVALID_BODIES = {
    "empty": Morphology(np.zeros((5, 5), dtype=np.int8)),
    "disconnected": Morphology.from_text("33000\n33000\n00000\n00033\n00033"),
    "no_actuator": Morphology.from_text("00000\n00000\n00000\n11111\n11111"),
}

# corner pairs of one voxel (corner_map columns TL, TR, BL, BR) by spring axis
_AXIS_OF_CORNER_PAIR = {
    frozenset((0, 1)): AXIS_HORIZONTAL, frozenset((2, 3)): AXIS_HORIZONTAL,
    frozenset((0, 2)): AXIS_VERTICAL, frozenset((1, 3)): AXIS_VERTICAL,
    frozenset((0, 3)): AXIS_DIAGONAL, frozenset((1, 2)): AXIS_DIAGONAL,
}


def spring_axes(world) -> np.ndarray:
    """AXIS_* code of each spring, from the corners of a voxel that holds
    both of its ends."""
    corner_rows = world.corner_map.tolist()
    axes = np.empty(world.n_springs, dtype=np.int8)
    for s, (a, b) in enumerate(zip(world.spring_a.tolist(), world.spring_b.tolist())):
        corners = next(row for row in corner_rows if a in row and b in row)
        axes[s] = _AXIS_OF_CORNER_PAIR[frozenset((corners.index(a), corners.index(b)))]
    return axes


def base_rest_lengths(axes: np.ndarray) -> np.ndarray:
    """Unactuated rest length of each spring: a voxel edge, or its diagonal."""
    return np.where(axes == AXIS_DIAGONAL, np.sqrt(2.0) * VOXEL_EDGE, VOXEL_EDGE)


def oracle_spring_forces(world):
    """Per-mass internal forces (Hooke + axial damping), shape (n_masses, 2),
    from whole (n, 2) arrays as the step computed them before the hot path
    was reworked: a dense incidence (+1 on each spring's endpoint a, -1 on
    its endpoint b) times the per-spring forces."""
    d = world.pos[world.spring_b] - world.pos[world.spring_a]
    length = np.sqrt((d * d).sum(axis=1))
    unit = d / length[:, None]
    v_rel = ((world.vel[world.spring_b] - world.vel[world.spring_a]) * unit).sum(axis=1)
    magnitude = world.stiffness * (length - world.rest) + world.damping * v_rel
    springs = np.arange(len(world.spring_a))
    incidence = np.zeros((len(world.pos), len(springs)))
    incidence[world.spring_a, springs] += 1.0
    incidence[world.spring_b, springs] -= 1.0
    return incidence @ (magnitude[:, None] * unit)


def mlp_forward(genome, xs) -> np.ndarray:
    """The forward pass of `genome`'s network on one input vector or a
    matrix of input rows, through the kernel that `act` runs once per group:
    the byte oracle that each member of a `ControllerBatch` must match."""
    return _forward(xs, genome.W1.T, genome.b1, genome.W2.T, genome.b2)


def member_inputs(builder: ObservationBuilder, joined, env_step: int) -> np.ndarray:
    """The controller input of the one member of `joined` at `env_step`, read
    through `builder`, a builder of that world: shape (input_size,) for the
    global kind, (n_act, input_size) for the modular one; a view of the
    builder's own buffer."""
    ((kind, _, _),) = builder.groups
    (stack,) = builder.stacked_inputs(joined, env_step)
    return stack[0, 0] if kind == GLOBAL_KIND else stack[0]


def mechanical_energy(world) -> float:
    """Kinetic + spring potential + gravitational energy (ground y = 0 as datum)."""
    kinetic = 0.5 * (world.mass * (world.vel * world.vel).sum(axis=1)).sum()
    d = world.pos[world.spring_b] - world.pos[world.spring_a]
    length = np.sqrt((d * d).sum(axis=1))
    elastic = 0.5 * (world.stiffness * (length - world.rest) ** 2).sum()
    gravitational = (world.mass * world.physics.gravity * world.pos[:, 1]).sum()
    return float(kinetic + elastic + gravitational)


def grid_distance(a: Morphology, b: Morphology) -> int:
    """Hamming distance: number of cells whose material codes differ."""
    return int(np.count_nonzero(a.grid != b.grid))


def save_catalog(path: str, catalog: dict[str, Morphology]) -> None:
    """Write bodies in the catalog file format that `load_catalog` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, body in catalog.items():
            fh.write(f"[{name}]\n{body.to_text()}\n")


def patch_checkpoint_fitness(path: str, fitness: float, parent_fitness: float) -> None:
    """Overwrite the fitness and parent fitness of the individual checkpoint
    at `path`, the two f64s that end its record's fixed part: the way to put
    values there that `save_individual` refuses to write."""
    with open(path, "r+b") as fh:
        fh.seek(_HEADER.size + _RECORD_FIXED.size - 16)
        fh.write(struct.pack("<dd", fitness, parent_fitness))


def patch_checkpoint_body(path: str, body: Morphology) -> None:
    """Overwrite the 25 body digits of the individual checkpoint at `path`,
    which follow its record's fixed part: the way to put a body there that
    `save_individual` refuses to write."""
    with open(path, "r+b") as fh:
        fh.seek(_HEADER.size + _RECORD_FIXED.size)
        fh.write(body.to_text().replace("\n", "").encode("ascii"))
