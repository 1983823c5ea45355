"""Mass-spring simulation of a voxel robot on flat terrain.

Each occupied grid cell compiles to a cross-braced unit square: four corner
masses (shared with neighboring cells), four edge springs, and two diagonal
braces. Forces are Hooke + axial damping per spring, constant gravity, and a
penalty-model contact with the ground y = 0, with Coulomb-style friction.
Integration is semi-implicit Euler (velocity update first), which is stable
for the default stiffness range at physics_dt = 1/600 with 6 substeps per
environment step.

Unit system: voxel edge = 1 length unit, per-voxel mass = 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .morphology import H_ACTUATOR, V_ACTUATOR, InvalidMorphologyError, Morphology

VOXEL_EDGE = 1.0
VOXEL_MASS = 1.0

AXIS_HORIZONTAL = 0
AXIS_VERTICAL = 1
AXIS_DIAGONAL = 2


class SimulationDivergedError(RuntimeError):
    """Non-finite state detected; carries the index of the env step, counted
    over the steps of the batch that raised it (`JoinedWorld.env_steps`)."""

    def __init__(self, step_index: int):
        super().__init__(f"simulation diverged at env step {step_index}")
        self.step_index = step_index


@dataclass(frozen=True)
class ContactParams:
    normal_stiffness: float = 1.0e4
    normal_damping: float = 10.0
    friction: float = 0.8

    def __post_init__(self):
        # ground contact is on when any of the three is positive and off when
        # all are zero; a negative value is refused, not read as zero
        for f in fields(self):
            value = getattr(self, f.name)
            if value < 0.0:
                raise ValueError(f"contact {f.name} must be >= 0, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"contact {f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class PhysicsConfig:
    """Engine constants. Stiffness is per material; shared edges sum the
    contributions of both adjacent voxels."""

    rigid_stiffness: float = 6000.0
    soft_stiffness: float = 600.0
    actuator_stiffness: float = 600.0
    damping_ratio: float = 0.1
    gravity: float = 9.81
    contact: ContactParams = field(default_factory=ContactParams)
    physics_dt: float = 1.0 / 600.0
    substeps_per_env_step: int = 6
    actuation_min: float = 0.6
    actuation_max: float = 1.6

    def __post_init__(self):
        values = (
            self.rigid_stiffness, self.soft_stiffness, self.actuator_stiffness,
            self.damping_ratio, self.gravity, self.physics_dt,
            self.actuation_min, self.actuation_max,
        )
        if not all(math.isfinite(v) for v in values):
            raise ValueError("physics config values must be finite")
        for name in ("rigid_stiffness", "soft_stiffness", "actuator_stiffness",
                     "damping_ratio"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if self.physics_dt <= 0:
            raise ValueError("physics_dt must be positive")
        if self.substeps_per_env_step < 1:
            raise ValueError("substeps_per_env_step must be >= 1")
        if not (self.actuation_min < 1.0 < self.actuation_max):
            raise ValueError("actuation range must straddle 1.0")

    def material_stiffness(self, code: int) -> float:
        if code == 1:
            return self.rigid_stiffness
        if code == 2:
            return self.soft_stiffness
        return self.actuator_stiffness


@dataclass
class SimWorld:
    """One body compiled from a genome, and its state; `step_env` steps it
    as a member of a `JoinedWorld`.

    Masses and springs are stored as flat arrays; `incidence` maps per-spring
    forces onto masses (+1 on endpoint a, -1 on endpoint b). Corner order in
    `corner_map` is (top-left, top-right, bottom-left, bottom-right). `pos` and
    `vel` are C-contiguous.

    Every rest length is hypot(mean x-extent, mean y-extent) of the scales
    that `rest_scales` picks: an edge has extent only on its own axis, as the
    mean scale of its one or two voxels; a diagonal takes its voxel's x and y
    scales. `rest` is set from `scale` at build and by each actuation.
    """

    pos: np.ndarray            # (n_masses, 2)
    vel: np.ndarray            # (n_masses, 2)
    mass: np.ndarray           # (n_masses,)
    spring_a: np.ndarray       # (n_springs,) endpoint index
    spring_b: np.ndarray       # (n_springs,)
    rest: np.ndarray           # (n_springs,) current rest length
    stiffness: np.ndarray      # (n_springs,)
    damping: np.ndarray        # (n_springs,)
    incidence: np.ndarray      # (n_masses, n_springs) +1/-1/0
    cells: list[tuple[int, int]]  # active cells, raster order; index = voxel id
    materials: np.ndarray      # (n_voxels,) material codes
    actuator_voxels: np.ndarray  # (n_act,) voxel id driven by each action
    corner_map: np.ndarray     # (n_voxels, 4) mass indices
    # current actuation scale, row 0 per-voxel x, row 1 per-voxel y; the last
    # column is a padding slot that stays 0. actuator_slots and rest_scales
    # are flat indices into it
    scale: np.ndarray          # (2, n_voxels + 1)
    actuator_slots: np.ndarray  # (n_act,) the axis and voxel each action sets
    rest_scales: np.ndarray    # (2 voxels, 2 axes, n_springs) the scales that
                               # set each spring's x and y extent; padding
                               # slot where a voxel or an axis does not count
    rest_count: np.ndarray     # (2 axes, n_springs) real voxels on each axis,
                               # 1 where there are none
    total_mass: float
    physics: PhysicsConfig

    @property
    def n_masses(self) -> int:
        return self.pos.shape[0]

    @property
    def n_springs(self) -> int:
        return self.spring_a.shape[0]

    @property
    def actuator_cells(self) -> list[tuple[int, int]]:
        """Actuator cells in raster order: the order of every action array."""
        return [self.cells[v] for v in self.actuator_voxels]


class JoinedWorld:
    """Worlds of one physics, stepped as one batch by `step_env`; a world
    alone is a batch of one. Members of one body shape (equal `cells`, so
    equal `incidence`) are laid out side by side, shapes in order of first
    appearance, and their masses and springs concatenated in that order.
    The scatter keeps one block (incidence, mass rows, spring rows, member
    count k) per body shape. Each member's `pos`, `vel` and `rest` are
    rebound to row views of the joined arrays, so actuation, observations
    and `center_of_mass` work on it as alone.

    The integration constants are derived here from the members' masses:
    the weight `mass * gravity`, a dense (n, 2) inverse mass, and the masses
    as an array and as Python floats, for the two forms of the contact.
    `env_steps` counts this batch's steps, for the index a
    `SimulationDivergedError` carries."""

    def __init__(self, worlds: tuple[SimWorld, ...]):
        first = worlds[0]
        if any(w.physics != first.physics for w in worlds):
            raise ValueError("joined worlds must share their physics")
        self.physics, self.env_steps = first.physics, 0
        shapes: dict[tuple, list[SimWorld]] = {}
        for w in worlds:
            shapes.setdefault(tuple(w.cells), []).append(w)
        members = [w for shape in shapes.values() for w in shape]
        for name in ("pos", "vel", "rest", "stiffness", "damping", "mass"):
            setattr(self, name, np.concatenate([getattr(w, name) for w in members]))
        self.weight = self.mass * self.physics.gravity
        self.inv_mass = (1.0 / self.mass[:, None]).repeat(2, axis=1)
        self.mass_list = self.mass.tolist()
        masses = np.cumsum([0] + [w.n_masses for w in members]).tolist()
        springs = np.cumsum([0] + [w.n_springs for w in members]).tolist()
        self.n_masses, self.n_springs = masses[-1], springs[-1]
        self.spring_a = np.concatenate([w.spring_a + m for w, m in zip(members, masses)])
        self.spring_b = np.concatenate([w.spring_b + m for w, m in zip(members, masses)])
        for w, m0, m1, s0, s1 in zip(members, masses, masses[1:], springs, springs[1:]):
            w.pos, w.vel, w.rest = self.pos[m0:m1], self.vel[m0:m1], self.rest[s0:s1]
        starts = np.cumsum([0] + [len(shape) for shape in shapes.values()]).tolist()
        self.blocks = tuple(
            (shape[0].incidence, slice(masses[i], masses[j]), slice(springs[i], springs[j]),
             j - i) for shape, i, j in zip(shapes.values(), starts, starts[1:]))

    @property
    def substeps_per_env_step(self) -> int:  # the bench counts spring substeps
        return self.physics.substeps_per_env_step


def join_worlds(worlds) -> JoinedWorld:
    """One joined world of `worlds`; see `JoinedWorld`."""
    return JoinedWorld(tuple(worlds))


def build_world(genome: Morphology, cfg: PhysicsConfig) -> SimWorld:
    """Compile a genome into a mass-spring world resting on the ground.

    Placement: leftmost occupied column at x = 0, lowest corner row on the
    ground at y = 0. One mass per occupied lattice corner; shared edges are
    deduplicated with their stiffness contributions summed; each voxel's mass
    1.0 is split equally over its four corners.

    Any non-empty genome builds; the evolutionary fill/actuator/connectivity
    constraints are enforced by the genome operators, not here.
    """
    if genome.n_filled == 0:
        raise InvalidMorphologyError("cannot build a world from an empty genome")

    cells = genome.occupied_cells
    min_col = min(c for _, c in cells)
    max_corner_row = max(r for r, _ in cells) + 1

    # corner lattice points (row, col), deterministic raster order
    corners = sorted({(r + dr, c + dc) for r, c in cells for dr in (0, 1) for dc in (0, 1)})
    corner_ids = {corner: i for i, corner in enumerate(corners)}
    n_masses = len(corner_ids)

    pos = np.zeros((n_masses, 2))
    mass = np.zeros(n_masses)
    for (rr, cc), idx in corner_ids.items():
        pos[idx, 0] = (cc - min_col) * VOXEL_EDGE
        pos[idx, 1] = (max_corner_row - rr) * VOXEL_EDGE

    materials = np.array([genome.grid[r, c] for r, c in cells], dtype=np.int8)
    actuator_voxels = np.flatnonzero(np.isin(materials, (H_ACTUATOR, V_ACTUATOR)))
    corner_map = np.zeros((len(cells), 4), dtype=np.int64)

    # springs keyed by (endpoint a, endpoint b, axis); insertion order fixed
    springs: dict[tuple[int, int, int], dict] = {}

    def add_spring(pa: tuple[int, int], pb: tuple[int, int], axis_kind: int,
                   k: float, voxel: int):
        a, b = corner_ids[pa], corner_ids[pb]
        if a > b:
            a, b = b, a
        key = (a, b, axis_kind)
        entry = springs.get(key)
        if entry is None:
            springs[key] = {"k": k, "voxels": [voxel]}
        else:
            entry["k"] += k
            entry["voxels"].append(voxel)

    for vox, (r, c) in enumerate(cells):
        tl, tr = (r, c), (r, c + 1)
        bl, br = (r + 1, c), (r + 1, c + 1)
        corner_map[vox] = [corner_ids[tl], corner_ids[tr], corner_ids[bl], corner_ids[br]]
        mass[corner_map[vox]] += VOXEL_MASS / 4.0
        k = cfg.material_stiffness(int(materials[vox]))
        add_spring(tl, tr, AXIS_HORIZONTAL, k, vox)
        add_spring(bl, br, AXIS_HORIZONTAL, k, vox)
        add_spring(tl, bl, AXIS_VERTICAL, k, vox)
        add_spring(tr, br, AXIS_VERTICAL, k, vox)
        add_spring(tl, br, AXIS_DIAGONAL, k, vox)
        add_spring(tr, bl, AXIS_DIAGONAL, k, vox)

    n_springs = len(springs)
    keys, entries = list(springs), list(springs.values())
    spring_a = np.array([a for a, _, _ in keys], dtype=np.int64)
    spring_b = np.array([b for _, b, _ in keys], dtype=np.int64)
    stiffness = np.array([entry["k"] for entry in entries])

    # damping from the post-dedup stiffness and the endpoints' reduced mass
    m_a, m_b = mass[spring_a], mass[spring_b]
    reduced = m_a * m_b / (m_a + m_b)
    damping = 2.0 * cfg.damping_ratio * np.sqrt(stiffness * reduced)

    incidence = np.zeros((n_masses, n_springs))
    incidence[spring_a, np.arange(n_springs)] += 1.0
    incidence[spring_b, np.arange(n_springs)] -= 1.0

    # actuation structure as flat indices into the (2, n_voxels + 1) scale
    # array: x scales, then y scales, each row ending in a padding slot. An
    # edge spans its own axis, a diagonal (one voxel) both; the padding slot
    # stands in for a missing second voxel and for an axis not spanned
    row = len(cells) + 1
    pad = row - 1
    voxels = np.array([e["voxels"] + [pad] * (2 - len(e["voxels"])) for e in entries])
    voxels = np.ascontiguousarray(voxels.T)  # (2 voxels, n_springs)
    axes = np.array([ax for _, _, ax in keys])
    spans = np.array([axes != AXIS_VERTICAL, axes != AXIS_HORIZONTAL])  # (2 axes, n)
    rest_scales = np.where(spans, voxels[:, None, :], pad) + np.array([[0], [row]])
    rest_count = np.where(spans, np.count_nonzero(voxels != pad, axis=0), 1.0)
    scale = np.ones((2, row))
    scale[:, -1] = 0.0  # padding slot contributes 0
    horizontal = materials[actuator_voxels] == H_ACTUATOR

    world = SimWorld(
        pos=pos,
        vel=np.zeros_like(pos),
        mass=mass,
        spring_a=spring_a,
        spring_b=spring_b,
        rest=np.empty(n_springs),
        stiffness=stiffness,
        damping=damping,
        incidence=incidence,
        cells=cells,
        materials=materials,
        actuator_voxels=actuator_voxels,
        corner_map=corner_map,
        scale=scale,
        actuator_slots=np.where(horizontal, 0, row) + actuator_voxels,
        rest_scales=rest_scales,
        rest_count=rest_count,
        total_mass=float(mass.sum()),
        physics=cfg,
    )
    _set_rest(world)
    return world


def _set_rest(world: SimWorld) -> None:
    """Rest lengths from the current scales, in place: hypot of the mean x
    and the mean y extent, in voxel edges (VOXEL_EDGE is the unit length).
    An edge's other axis sums padding to +0.0, and hypot(x, 0.0) is |x|."""
    scale = world.scale.reshape(-1)
    pair = scale[world.rest_scales]
    extent = (pair[0] + pair[1]) / world.rest_count
    np.hypot(extent[0], extent[1], out=world.rest)


def apply_actuation(world: SimWorld, actions: np.ndarray) -> None:
    """Set spring rest lengths from actions in [0, 1], one per actuator in
    `world.actuator_cells` order.

    Action a maps linearly onto scale s in [actuation_min, actuation_max].
    Horizontal actuators scale their horizontal edges, vertical actuators
    their vertical edges; shared edges take the mean of the adjacent voxels'
    scales and each voxel's diagonals become sqrt(w^2 + h^2) of its own
    per-axis extents.
    """
    actions = np.asarray(actions, dtype=np.float64)
    if actions.shape != world.actuator_voxels.shape:
        raise ValueError(
            f"expected {world.actuator_voxels.size} actions, got shape {actions.shape}")
    if not ((actions >= 0.0) & (actions <= 1.0)).all():
        raise ValueError(f"actions outside [0, 1]: {actions}")
    lo, hi = world.physics.actuation_min, world.physics.actuation_max
    scale = world.scale.reshape(-1)
    scale[world.actuator_slots] = lo + actions * (hi - lo)
    _set_rest(world)


def _spring_forces(world, z, w, px, py, scatter, forces) -> None:
    """Internal forces from complex views of the positions and velocities, per
    spring into the columns `px`, `py`, per mass into `forces` through
    `scatter`: each block's incidence with its rows of both buffers, as 2-D
    arrays for a body shape of one member, and stacked (k, rows, 2) per
    member for a shape of k > 1."""
    a, b = world.spring_a, world.spring_b
    d, dv = z[b] - z[a], w[b] - w[a]  # complex subtraction rounds each part as float64
    dx, dy = d.real, d.imag
    length = np.sqrt(dx * dx + dy * dy)
    ux = dx / length
    uy = dy / length
    v_rel = dv.real * ux + dv.imag * uy
    magnitude = world.stiffness * (length - world.rest) + world.damping * v_rel
    np.multiply(magnitude, ux, out=px)
    np.multiply(magnitude, uy, out=py)
    # the BLAS gemm of `@`, one per member: one block-diagonal gemm would
    # block its longer inner dimension differently and change the bits.
    # np.matmul over a stack makes that same gemm call once per member of a
    # body shape; a shape of one member keeps `dot`, which costs less per call
    for incidence, springs, masses in scatter:
        if masses.ndim == 2:
            incidence.dot(springs, out=masses)
        else:
            np.matmul(incidence, springs, out=masses)


# From this many touching masses on, a substep's contact is one set of numpy
# calls over them instead of the Python loop. Break-even measured on a
# 2-vCPU AVX-512 host (numpy 2.4.6, process_time, best of 15 rounds): the
# loop costs about 0.39 us per touching mass, the numpy form about 12 us
# plus 0.045 us per mass; they cross at 36 to 40 masses. A one-body world
# touches at most 6, so only a joined world of several bodies reaches it.
VECTOR_CONTACT_MIN = 36


def _contact_forces(world, touching, forces) -> None:
    """Ground contact on the masses `touching`, added into `forces`: the
    contact loop's arithmetic as numpy calls over all of them at once, in
    the numpy form the loop was written to match bit for bit."""
    contact = world.physics.contact
    pos, vel = world.pos[touching], world.vel[touching]
    vx = vel[:, 0]
    normal = contact.normal_stiffness * -pos[:, 1] - contact.normal_damping * vel[:, 1]
    np.maximum(normal, 0.0, out=normal)
    stopping = world.mass[touching] * np.abs(vx) / world.physics.physics_dt
    friction = -np.sign(vx) * np.minimum(contact.friction * normal, stopping)
    forces[touching, 1] += normal
    forces[touching, 0] += friction


def step_env(world: JoinedWorld) -> None:
    """Advance a batch of worlds one environment step (substeps_per_env_step
    physics substeps, semi-implicit Euler). Raises SimulationDivergedError
    when any member's state is non-finite.

    Each substep sums spring forces, gravity and ground contact, then updates
    velocities before positions.
    """
    physics = world.physics
    dt = physics.physics_dt
    pos, vel = world.pos, world.vel
    # views and buffers per call, not on the world, so a rebound pos or vel is seen
    z, w, y = pos.view(np.complex128)[:, 0], vel.view(np.complex128)[:, 0], pos[:, 1]
    per_spring, forces = np.empty((world.n_springs, 2)), np.empty_like(pos)
    px, py, fy = per_spring[:, 0], per_spring[:, 1], forces[:, 1]
    scatter = [(incidence, per_spring[springs], forces[masses]) if k == 1 else
               (incidence, per_spring[springs].reshape(k, -1, 2),
                forces[masses].reshape(k, -1, 2))
               for incidence, masses, springs, k in world.blocks]
    P, V, F = (memoryview(a).cast("B").cast("d") for a in (pos, vel, forces))
    weight, inv_mass, masses = world.weight, world.inv_mass, world.mass_list
    contact = physics.contact
    kn, kd, mu = contact.normal_stiffness, contact.normal_damping, contact.friction
    has_contact = kn > 0.0 or kd > 0.0 or mu > 0.0
    # divergence surfaces as the explicit finiteness check below, not as
    # floating-point warnings mid-substep
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(physics.substeps_per_env_step):
            _spring_forces(world, z, w, px, py, scatter, forces)
            fy -= weight
            if has_contact:
                touching = (y < 0.0).nonzero()[0]
                if touching.size >= VECTOR_CONTACT_MIN:
                    _contact_forces(world, touching, forces)
                else:
                    # few masses touch, too few for numpy calls to pay off;
                    # Python floats round as numpy's float64 did here
                    for i in touching.tolist():
                        j = 2 * i  # mass i's x in the flat views, its y at j + 1
                        vxi, vyi = V[j], V[j + 1]
                        normal = kn * -P[j + 1] - kd * vyi  # the ground is y = 0
                        if normal <= 0.0:  # as np.maximum(normal, 0.0): -0.0 -> 0.0, NaN kept
                            normal = 0.0
                        # Coulomb friction opposing sliding, capped so one
                        # substep cannot reverse the tangential velocity
                        limit = mu * normal
                        stopping = masses[i] * abs(vxi) / dt
                        # as np.minimum on x86: a NaN on either side wins, a
                        # tie gives the second operand
                        cap = limit if (limit < stopping or limit != limit) else stopping
                        F[j + 1] += normal
                        if vxi > 0.0:  # f - cap rounds exactly as f + (-1.0 * cap)
                            F[j] -= cap
                        elif vxi < 0.0:
                            F[j] += cap
                        else:  # as np.sign: 0.0 for either zero, NaN for NaN
                            F[j] += -(0.0 if vxi == 0.0 else vxi) * cap
            forces *= dt  # rounds as dt * forces * inv_mass
            forces *= inv_mass
            vel += forces
            pos += dt * vel
    world.env_steps += 1
    # with dt finite and positive, a non-finite velocity makes pos non-finite
    # in the same substep, and a non-finite position stays so
    if not np.isfinite(pos).all():
        raise SimulationDivergedError(world.env_steps)


def center_of_mass(world: SimWorld) -> np.ndarray:
    """Mass-weighted mean position, shape (2,)."""
    return np.add.reduce(world.mass[:, None] * world.pos, axis=0) / world.total_mass
