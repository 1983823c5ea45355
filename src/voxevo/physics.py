"""Mass-spring simulation of a voxel robot on flat terrain.

Each occupied grid cell compiles to a cross-braced unit square: four corner
masses (shared with neighboring cells), four edge springs, and two diagonal
braces. Forces are Hooke + axial damping per spring, constant gravity, and a
penalty-model contact with the ground y = 0, with Coulomb-style friction.
Every constant, the three of the contact among them, is a field of
`PhysicsConfig`, and each field is a key of a config file's [physics].
Integration is semi-implicit Euler (velocity update first), which is stable
for the default stiffness range at physics_dt = 1/600 with 6 substeps per
environment step.

Unit system: voxel edge = 1 length unit, per-voxel mass = 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .morphology import H_ACTUATOR, RIGID, SOFT, V_ACTUATOR, InvalidMorphologyError, Morphology

# the ufuncs of the substep, bound once: a call through a module-level name
# with `out` passed positionally skips the `np.` attribute lookup and the
# keyword parsing, about a fifth of a call's cost on arrays of ~100 floats
_add, _subtract, _multiply, _divide, _sqrt, _less, _absolute = (
    np.add, np.subtract, np.multiply, np.divide, np.sqrt, np.less, np.absolute)

VOXEL_EDGE = 1.0
VOXEL_MASS = 1.0

AXIS_HORIZONTAL = 0
AXIS_VERTICAL = 1
AXIS_DIAGONAL = 2


def check_fields(config, checks) -> None:
    """Refuse `config` at the first of its `(field, ok, rule)` checks that
    fails, with the message `<key> <rule>, got <value>` (the key of a field
    is its name without a trailing `_`)."""
    for name, ok, rule in checks:
        if not ok:
            raise ValueError(f"{name.rstrip('_')} {rule}, got {getattr(config, name)!r}")


class SimulationDivergedError(RuntimeError):
    """Non-finite state after an env step of some member of a batch; the
    caller counts the steps (`run_episodes` records them as `steps_used`)."""


@dataclass(frozen=True)
class PhysicsConfig:
    """Engine constants. Stiffness is per material; shared edges sum the
    contributions of both adjacent voxels."""

    rigid_stiffness: float = 6000.0
    soft_stiffness: float = 600.0
    actuator_stiffness: float = 600.0
    damping_ratio: float = 0.1
    gravity: float = 9.81
    # ground contact is on when any of the three is positive and off when
    # all are zero; a negative value is refused, not read as zero
    contact_normal_stiffness: float = 1.0e4
    contact_normal_damping: float = 10.0
    contact_friction: float = 0.8
    physics_dt: float = 1.0 / 600.0
    substeps_per_env_step: int = 6
    actuation_min: float = 0.6
    actuation_max: float = 1.6

    def __post_init__(self):
        non_negative = ("rigid_stiffness", "soft_stiffness", "actuator_stiffness",
                        "damping_ratio", "contact_normal_stiffness",
                        "contact_normal_damping", "contact_friction")
        check_fields(self, (
            *((name, math.isfinite(getattr(self, name)), "must be finite")
              for name in (*non_negative, "gravity", "physics_dt", "actuation_min",
                           "actuation_max")),
            *((name, getattr(self, name) >= 0.0, "must be >= 0") for name in non_negative),
            ("physics_dt", self.physics_dt > 0.0, "must be > 0"),
            ("substeps_per_env_step", self.substeps_per_env_step >= 1, "must be >= 1"),
            # at or below 0 an edge's rest length |scale| passes through 0
            ("actuation_min", self.actuation_min > 0.0, "must be > 0"),
            # the actuation range straddles 1.0, the unactuated rest length
            ("actuation_min", self.actuation_min < 1.0, "must be < 1.0"),
            ("actuation_max", self.actuation_max > 1.0, "must be > 1.0"),
        ))

    def material_stiffness(self, code: int) -> float:
        if code == RIGID:
            return self.rigid_stiffness
        if code == SOFT:
            return self.soft_stiffness
        return self.actuator_stiffness


# the arrays `build_world` compiles from a genome, read-only, and the state
# that each world of the body holds as its own
COMPILED = ("spring_a", "spring_b", "stiffness", "damping", "mass", "materials",
            "actuator_voxels", "corner_map", "actuator_slots", "rest_scales", "rest_count")
STATE = ("pos", "vel", "rest", "scale")


@dataclass
class SimWorld:
    """One body compiled from a genome, and its state; `step_env` steps it
    as a member of a `JoinedWorld`.

    Masses and springs are stored as flat arrays; spring s joins masses
    `spring_a[s] < spring_b[s]`. Corner order in `corner_map` is (top-left,
    top-right, bottom-left, bottom-right). `pos` and `vel` are C-contiguous.

    Every rest length is hypot(mean x-extent, mean y-extent) of the scales
    that `rest_scales` picks: an edge has extent only on its own axis, as the
    mean scale of its one or two voxels; a diagonal takes its voxel's x and y
    scales. `rest` is set from `scale` at build and by each actuation.
    The arrays `COMPILED` from the genome are read-only, so worlds of one
    body may share them; a join copies each member's `STATE` arrays.
    """

    pos: np.ndarray            # (n_masses, 2)
    vel: np.ndarray            # (n_masses, 2)
    mass: np.ndarray           # (n_masses,)
    spring_a: np.ndarray       # (n_springs,) endpoint index
    spring_b: np.ndarray       # (n_springs,)
    rest: np.ndarray           # (n_springs,) current rest length
    stiffness: np.ndarray      # (n_springs,)
    damping: np.ndarray        # (n_springs,)
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

    def __setattr__(self, name, value):
        # a rebound member would leave its batch. Not `self.__dict__`:
        # reading it materializes it, ~1% slower per step
        if name in STATE and getattr(self, name, value) is not value:
            owner = "a joined world" if isinstance(self, JoinedWorld) else "a world"
            raise AttributeError(f"{owner}'s {name} is written in place, not rebound")
        object.__setattr__(self, name, value)

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
    """Worlds of one physics, stepped as one batch by `step_env` and actuated
    as one by `apply_actuation`; a world alone is a batch of one. Members
    of one body shape (equal `cells`, so equal springs) are laid out side
    by side, shapes in order of first appearance: `members` holds the
    worlds in that order and `order` the position of each among the worlds
    given. Their masses, springs and voxels are concatenated in that order.
    Each member's `pos`, `vel`, `rest` and `scale` are rebound to views of
    the joined arrays, so stepping, actuation, observations and
    `center_of_mass` work on it as alone. Members may share any arrays, as
    the worlds of one `build_world` do, since the join copies their state,
    but a world given twice is refused (`ValueError`).

    The actuation state is joined as the state is: one flat `scale` of the
    members' scale arrays, with `actuator_slots` and `rest_scales` offset
    into it and `rest_count` concatenated, so one action array, in the
    members' `actuator_cells` order, actuates every member. `corner_map` is
    offset into the joined masses, for one observation refresh of all.

    The integration constants are derived here from the members' masses:
    the weight `mass * gravity`, a dense (n, 2) inverse mass, and the masses
    as an array and as Python floats, for the two forms of the contact.

    The join builds everything `step_env` steps through, once. `pos` and
    `vel` are the two halves of one C-contiguous (2, n_masses, 2) state
    block. `_springs` holds a flat complex128 view of the block (mass i's
    position at i, its velocity at n_masses + i), one gather index array
    (each spring's endpoint b, then b + n_masses, then its a and a +
    n_masses), the (4 n_springs,) complex buffer it gathers into and that
    buffer's two halves, so one gather and one subtract give the position
    and the velocity differences, and every per-spring buffer, with the
    columns the spring pass reads and writes: a spring pass allocates
    nothing. `_step` holds the state, the per-mass forces buffer, a
    per-mass mask of the masses below the ground, the columns the numpy
    contact gathers from and adds into, and flat memoryviews of the block
    and the forces for the contact loop (mass i's x at 2i, its vx at
    2 * n_masses + 2i). The forces buffer
    holds `dt * vel` from a substep's position update to the next scatter,
    which overwrites all of it. `blocks` is the scatter: per body shape
    `(scatter, rows, masses)`, its rows of the per-spring and of the
    per-mass buffers, stacked (k, rows, 2) for a shape of k > 1 members,
    and `scatter(rows, masses)` its incidence (derived from the shape's
    first member) times the rows, into the masses: the incidence's bound
    `dot` for one member, `np.matmul` bound to it for more. Its and
    its members' `pos`, `vel`, `rest` and `scale` are written in place,
    never rebound but by the join (`AttributeError`), and a copy or a
    pickle is refused (`TypeError`: memoryviews do not pickle)."""

    def __init__(self, worlds: tuple[SimWorld, ...]):
        if not worlds:
            raise ValueError("no worlds to join")
        first = worlds[0]
        if any(w.physics != first.physics for w in worlds):
            raise ValueError("joined worlds must share their physics")
        self.physics = first.physics
        shapes: dict[tuple, list[int]] = {}
        given: dict[int, int] = {}
        for i, w in enumerate(worlds):
            # a world given twice would be stepped in two slots, and left a
            # view of the last one only
            if given.setdefault(id(w), i) != i:
                raise ValueError(f"world {i} is world {given[id(w)]} given again")
            shapes.setdefault(tuple(w.cells), []).append(i)
        self.order = tuple(i for shape in shapes.values() for i in shape)
        self.members = members = tuple(worlds[i] for i in self.order)
        masses = np.cumsum([0] + [w.n_masses for w in members]).tolist()
        springs = np.cumsum([0] + [w.n_springs for w in members]).tolist()
        scales = np.cumsum([0] + [w.scale.size for w in members]).tolist()
        n, self.n_springs = masses[-1], springs[-1]
        state = np.empty((2, n, 2))
        for rows, name in zip(state, ("pos", "vel")):
            np.concatenate([getattr(w, name) for w in members], out=rows)
        self.pos, self.vel = pos, vel = state
        for name in ("rest", "stiffness", "damping", "mass"):
            setattr(self, name, np.concatenate([getattr(w, name) for w in members]))
        self.weight = self.mass * self.physics.gravity
        self.inv_mass = (1.0 / self.mass[:, None]).repeat(2, axis=1)
        self.mass_list = self.mass.tolist()
        self.spring_a = np.concatenate([w.spring_a + m for w, m in zip(members, masses)])
        self.spring_b = np.concatenate([w.spring_b + m for w, m in zip(members, masses)])
        self.corner_map = np.concatenate([w.corner_map + m for w, m in zip(members, masses)])
        self.scale = np.concatenate([w.scale.reshape(-1) for w in members])
        self.actuator_slots = np.concatenate(
            [w.actuator_slots + c for w, c in zip(members, scales)])
        self.rest_scales = np.concatenate(
            [w.rest_scales + c for w, c in zip(members, scales)], axis=2)
        self.rest_count = np.concatenate([w.rest_count for w in members], axis=1)
        for w, m0, m1, s0, s1, c0, c1 in zip(members, masses, masses[1:], springs,
                                             springs[1:], scales, scales[1:]):
            views = (self.pos[m0:m1], self.vel[m0:m1], self.rest[s0:s1],
                     self.scale[c0:c1].reshape(w.scale.shape))
            for name, view in zip(STATE, views):
                object.__setattr__(w, name, view)  # past the rebind guard
        k = self.n_springs
        per_spring, forces = np.empty((k, 2)), np.empty_like(pos)
        starts = np.cumsum([0] + [len(shape) for shape in shapes.values()]).tolist()
        # the BLAS gemm of `@`, one per member: one block-diagonal gemm would
        # block its longer inner dimension differently and change the bits.
        # np.matmul over a stack makes that same gemm call once per member of
        # a body shape; a shape of one member keeps `dot`, which costs less
        # per call
        blocks = []
        for shape, i, j in zip(shapes.values(), starts, starts[1:]):
            incidence = _incidence(worlds[shape[0]])
            rows, out = per_spring[springs[i]:springs[j]], forces[masses[i]:masses[j]]
            if j - i == 1:
                blocks.append((incidence.dot, rows, out))
            else:
                blocks.append((partial(np.matmul, incidence), rows.reshape(j - i, -1, 2),
                               out.reshape(j - i, -1, 2)))
        self.blocks = tuple(blocks)
        # the differences of the spring pass, (dx, dy) per spring and then
        # (dvx, dvy), as k + k complex and as two (k, 2) halves
        diff, squares = np.empty(2 * k, np.complex128), np.empty((k, 2))
        d, dv = diff.view(np.float64).reshape(2, k, 2)
        gathered = np.empty(4 * k, np.complex128)
        self._springs = (state.reshape(-1).view(np.complex128),
                         np.concatenate([self.spring_b, self.spring_b + n,
                                         self.spring_a, self.spring_a + n]),
                         gathered, *gathered.reshape(2, 2 * k),
                         diff, d, dv, *d.T, squares, *squares.T, np.empty(k), np.empty(k),
                         *per_spring.T)
        self._step = (pos, vel, forces, np.empty(n, bool),
                      (pos[:, 1], vel[:, 0], vel[:, 1], *forces.T),
                      *(memoryview(a).cast("B").cast("d") for a in (state, forces)))

    __setattr__ = SimWorld.__setattr__

    @property
    def actuator_cells(self) -> list[tuple[int, int]]:
        """The members' actuator cells in member order: the order of the
        joined action array."""
        return [cell for w in self.members for cell in w.actuator_cells]

    @property
    def substeps_per_env_step(self) -> int:  # the bench counts spring substeps
        return self.physics.substeps_per_env_step


def _incidence(world: SimWorld) -> np.ndarray:
    """The dense (n_masses, n_springs) map of per-spring forces onto the
    masses of `world`: +1 on each spring's endpoint a, -1 on its endpoint b."""
    incidence = np.zeros((world.n_masses, world.n_springs))
    incidence[world.spring_a, range(world.n_springs)] = 1.0
    incidence[world.spring_b, range(world.n_springs)] = -1.0
    return incidence


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
        # corner ids are raster-sorted and `pa` always precedes `pb`: a < b
        key = (corner_ids[pa], corner_ids[pb], axis_kind)
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
    # the worlds of one body in a batch share these (see `JoinedWorld`)
    for name in COMPILED:
        getattr(world, name).flags.writeable = False
    return world


def _set_rest(world: SimWorld | JoinedWorld) -> None:
    """Rest lengths from the current scales, in place: hypot of the mean x
    and the mean y extent, in voxel edges (VOXEL_EDGE is the unit length).
    An edge's other axis sums padding to +0.0, and hypot(x, 0.0) is |x|."""
    scale = world.scale.reshape(-1)
    pair = scale[world.rest_scales]
    extent = (pair[0] + pair[1]) / world.rest_count
    np.hypot(extent[0], extent[1], out=world.rest)


def apply_actuation(world: SimWorld | JoinedWorld, actions: np.ndarray) -> None:
    """Set spring rest lengths from actions in [0, 1], one per actuator in
    `world.actuator_cells` order: a world's own, or a joined world's, which
    sets every member's in one scatter and one `_set_rest`.

    Action a maps linearly onto scale s in [actuation_min, actuation_max].
    Horizontal actuators scale their horizontal edges, vertical actuators
    their vertical edges; shared edges take the mean of the adjacent voxels'
    scales and each voxel's diagonals become sqrt(w^2 + h^2) of its own
    per-axis extents.
    """
    actions = np.asarray(actions, dtype=np.float64)
    if actions.shape != world.actuator_slots.shape:
        raise ValueError(
            f"expected {world.actuator_slots.size} actions, got shape {actions.shape}")
    if not ((actions >= 0.0) & (actions <= 1.0)).all():
        raise ValueError(f"actions outside [0, 1]: {actions}")
    lo, hi = world.physics.actuation_min, world.physics.actuation_max
    scale = world.scale.reshape(-1)
    scale[world.actuator_slots] = lo + actions * (hi - lo)
    _set_rest(world)


def _spring_forces(world, springs, forces) -> None:
    """Internal forces, per spring into the last two columns of `springs`,
    the spring pass's buffers (see `JoinedWorld`), and per mass into
    `forces` through the scatter `world.blocks`. Every intermediate is
    written into those buffers, each rounding as in the oracle's
    `stiffness * (length - rest) + damping * v_rel` along the unit vector."""
    (zw, index, gathered, at_b, at_a, diff, d, dv, dx, dy, squares, sx, sy,
     length, v_rel, px, py) = springs
    # d = pos[b] - pos[a] and dv = vel[b] - vel[a] from one gather into a
    # buffer: complex subtraction rounds each part as the float64
    # subtraction. The indices are in range by construction; "clip" takes
    # into `gathered` directly, where "raise" would buffer the gather
    zw.take(index, 0, gathered, "clip")
    _subtract(at_b, at_a, diff)
    _multiply(d, d, squares)  # dx * dx, dy * dy
    _add(sx, sy, length)
    _sqrt(length, length)
    _divide(dx, length, dx)  # d becomes the unit vector (ux, uy)
    _divide(dy, length, dy)
    _multiply(dv, d, squares)  # dvx * ux, dvy * uy
    _add(sx, sy, v_rel)
    _subtract(length, world.rest, length)  # length becomes the magnitude
    _multiply(world.stiffness, length, length)
    _multiply(world.damping, v_rel, v_rel)
    _add(length, v_rel, length)
    _multiply(length, dx, px)
    _multiply(length, dy, py)
    for scatter, rows, masses in world.blocks:
        scatter(rows, masses)


# From this many touching masses on, a substep's contact is one set of numpy
# calls over them instead of the Python loop. Break-even measured on a
# 2-vCPU AVX-512 host (numpy 2.4.6, perf_counter, `step_env` on 24 joined
# worlds of 4-6 sunk random bodies, each form best of 11 alternated rounds):
# the loop costs about 0.33 us per touching mass, the numpy form about 7 us
# plus 0.02 us per mass. The numpy form cost 1.03-1.14x the loop at 18-22
# masses, 0.98-1.01x at 23, 0.95-0.98x at 24-27 and 0.88-0.95x at 29-35.
# A one-body world touches at most 6, so only a joined world of several
# bodies reaches it.
VECTOR_CONTACT_MIN = 24


def _contact_forces(world, touching, y, vx, vy, fx, fy) -> None:
    """Ground contact on the masses `touching`, added into the force columns
    `fx`, `fy`: the contact loop's arithmetic as numpy calls over all of them
    at once, gathered from the state columns `y`, `vx`, `vy`, in the numpy
    form the loop was written to match bit for bit."""
    physics = world.physics
    # the columns are strided views of the state, which `take` would first
    # copy whole; an index gathers only the touching masses
    vx = vx[touching]
    normal = (physics.contact_normal_stiffness * -y[touching]
              - physics.contact_normal_damping * vy[touching])
    np.maximum(normal, 0.0, out=normal)
    stopping = world.mass.take(touching) * np.abs(vx) / physics.physics_dt
    friction = -np.sign(vx) * np.minimum(physics.contact_friction * normal, stopping)
    fy[touching] += normal
    fx[touching] += friction


def step_env(world: JoinedWorld) -> float:
    """Advance a batch of worlds one environment step (substeps_per_env_step
    physics substeps, semi-implicit Euler) and return the largest |x| or |y|
    of any mass after it. Raises SimulationDivergedError when any member's
    state is non-finite.

    Each substep sums spring forces, gravity and ground contact, then updates
    velocities before positions, through the step state that the join built
    (see `JoinedWorld`).
    """
    pos, vel, forces, below, columns, S, F = world._step
    y, *_, fy = columns
    v = pos.size  # velocities start here in S
    springs = world._springs
    physics = world.physics
    dt = physics.physics_dt
    weight, inv_mass, masses = world.weight, world.inv_mass, world.mass_list
    kn, kd, mu = (physics.contact_normal_stiffness, physics.contact_normal_damping,
                  physics.contact_friction)
    has_contact = kn > 0.0 or kd > 0.0 or mu > 0.0
    # divergence surfaces as the explicit finiteness check below, not as
    # floating-point warnings mid-substep
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(physics.substeps_per_env_step):
            _spring_forces(world, springs, forces)
            _subtract(fy, weight, fy)
            if has_contact:
                touching = _less(y, 0.0, below).nonzero()[0]
                if touching.size >= VECTOR_CONTACT_MIN:
                    _contact_forces(world, touching, *columns)
                else:
                    # few masses touch, too few for numpy calls to pay off;
                    # Python floats round as numpy's float64 did here
                    for i in touching.tolist():
                        j = 2 * i  # mass i's x in S and F, its y at j + 1
                        k = v + j  # its vx in S, its vy at k + 1
                        vxi, vyi = S[k], S[k + 1]
                        normal = kn * -S[j + 1] - kd * vyi  # the ground is y = 0
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
            _multiply(forces, dt, forces)  # rounds as dt * forces * inv_mass
            _multiply(forces, inv_mass, forces)
            _add(vel, forces, vel)
            # the forces are spent: they hold dt * vel, which rounds as
            # vel * dt, until the next spring pass overwrites them
            _multiply(vel, dt, forces)
            _add(pos, forces, pos)
        # with dt finite and positive, a non-finite velocity makes pos
        # non-finite in the same substep, and a non-finite position stays
        # so; the max of |pos| (taken in the spent forces) is NaN or inf
        # exactly when some entry is
        extent = float(_absolute(pos, forces).max())
    if not extent < math.inf:
        raise SimulationDivergedError("non-finite state after an env step")
    return extent


def center_of_mass(world: SimWorld) -> np.ndarray:
    """Mass-weighted mean position, shape (2,)."""
    return np.add.reduce(world.mass[:, None] * world.pos, axis=0) / world.total_mass
