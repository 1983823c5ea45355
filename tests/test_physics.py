import copy
import pickle
import sys

import numpy as np
import pytest

from voxevo import physics
from voxevo.experiments import CATALOG_ORDER, default_catalog
from voxevo.morphology import (
    GRID_SIZE,
    H_ACTUATOR,
    RIGID,
    SOFT,
    V_ACTUATOR,
    Morphology,
    random_morphology,
)
from voxevo.physics import (
    AXIS_DIAGONAL,
    AXIS_HORIZONTAL,
    AXIS_VERTICAL,
    VOXEL_EDGE,
    VOXEL_MASS,
    PhysicsConfig,
    SimulationDivergedError,
    SimWorld,
    apply_actuation,
    build_world,
    center_of_mass,
    join_worlds,
    step_env,
)
from voxevo.sensing import GLOBAL_KIND, ObservationBuilder

from helpers import (
    NO_CONTACT,
    base_rest_lengths,
    contact,
    mechanical_energy,
    member_inputs,
    oracle_spring_forces,
    spring_axes,
)


def body_from_rows(*rows):
    grid = np.zeros((5, 5), dtype=np.int8)
    for r, row in enumerate(rows):
        for c, ch in enumerate(row):
            grid[5 - len(rows) + r, c] = int(ch)
    return Morphology(grid)


def single_voxel():
    grid = np.zeros((5, 5), dtype=np.int8)
    grid[4, 0] = H_ACTUATOR
    return Morphology(grid)


def find_spring(world: SimWorld, pa, pb) -> int:
    """Index of the spring whose endpoints sit at positions pa and pb."""
    target = {tuple(np.round(np.asarray(pa), 9)), tuple(np.round(np.asarray(pb), 9))}
    for s in range(world.n_springs):
        ends = {
            tuple(np.round(world.pos[world.spring_a[s]], 9)),
            tuple(np.round(world.pos[world.spring_b[s]], 9)),
        }
        if ends == target:
            return s
    raise AssertionError(f"no spring between {pa} and {pb}")


class TestConfig:
    def test_defaults(self):
        cfg = PhysicsConfig()
        assert cfg.rigid_stiffness == 6000.0
        assert cfg.soft_stiffness == 600.0
        assert cfg.actuator_stiffness == 600.0
        assert cfg.physics_dt == pytest.approx(1.0 / 600.0)
        assert cfg.substeps_per_env_step == 6
        assert (cfg.actuation_min, cfg.actuation_max) == (0.6, 1.6)
        assert cfg.contact_normal_stiffness == 1e4

    def test_material_stiffness(self):
        cfg = PhysicsConfig()
        assert cfg.material_stiffness(1) == 6000.0
        assert cfg.material_stiffness(2) == 600.0
        assert cfg.material_stiffness(3) == 600.0
        assert cfg.material_stiffness(4) == 600.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PhysicsConfig(physics_dt=0.0)
        with pytest.raises(ValueError):
            PhysicsConfig(actuation_min=1.6, actuation_max=0.6)
        for name in ("rigid_stiffness", "soft_stiffness", "actuator_stiffness",
                     "damping_ratio"):
            with pytest.raises(ValueError, match=f"{name} must be >= 0"):
                PhysicsConfig(**{name: -1.0})


class TestWorldConstruction:
    def test_single_voxel_counts(self):
        world = build_world(single_voxel(), PhysicsConfig())
        assert world.n_masses == 4
        assert world.n_springs == 6
        axes = spring_axes(world)
        assert np.count_nonzero(axes == AXIS_HORIZONTAL) == 2
        assert np.count_nonzero(axes == AXIS_VERTICAL) == 2
        assert np.count_nonzero(axes == AXIS_DIAGONAL) == 2

    def test_pair_counts(self):
        world = build_world(body_from_rows("33000"), PhysicsConfig())
        assert world.n_masses == 6
        assert world.n_springs == 11

    def test_full_grid_counts(self):
        world = build_world(Morphology(np.full((5, 5), 3, dtype=np.int8)), PhysicsConfig())
        assert world.n_masses == 36
        assert world.n_springs == 110
        axes = spring_axes(world)
        assert np.count_nonzero(axes == AXIS_HORIZONTAL) == 30
        assert np.count_nonzero(axes == AXIS_VERTICAL) == 30
        assert np.count_nonzero(axes == AXIS_DIAGONAL) == 50

    # a spring's endpoint a precedes its endpoint b, and no spring of a
    # body repeats: corner ids are raster-sorted and each edge or brace is
    # added from its earlier corner, and shared edges are merged
    def test_springs_are_ordered_and_distinct(self):
        rng = np.random.default_rng(42)
        bodies = list(default_catalog().values()) + [random_morphology(rng) for _ in range(50)]
        for body in bodies:
            world = build_world(body, PhysicsConfig())
            assert (world.spring_a < world.spring_b).all()
            keys = set(zip(world.spring_a.tolist(), world.spring_b.tolist(),
                           spring_axes(world).tolist()))
            assert len(keys) == world.n_springs

    def test_total_mass_accumulates_per_voxel(self):
        for rows, n_vox in (
            (("33000",), 2),
            (("33333", "33333"), 10),
        ):
            world = build_world(body_from_rows(*rows), PhysicsConfig())
            assert world.mass.sum() == pytest.approx(n_vox * VOXEL_MASS, abs=1e-12)

    def test_corner_mass_sharing(self):
        world = build_world(Morphology(np.full((5, 5), 3, dtype=np.int8)), PhysicsConfig())
        # interior corners touch 4 voxels, edges 2, outer corners 1
        counts = {0.25: 0, 0.5: 0, 1.0: 0}
        for m in world.mass:
            counts[round(float(m), 9)] += 1
        assert counts == {0.25: 4, 0.5: 16, 1.0: 16}

    def test_placement_normalization(self):
        world = build_world(body_from_rows("00330"), PhysicsConfig())
        assert world.pos[:, 0].min() == 0.0
        assert world.pos[:, 1].min() == 0.0
        assert world.pos[:, 0].max() == 2.0 * VOXEL_EDGE

    def test_in_grid_shift_builds_identical_world(self):
        cfg = PhysicsConfig()
        w_left = build_world(body_from_rows("33000", "11000"), cfg)
        w_right = build_world(body_from_rows("00033", "00011"), cfg)
        grid_up = np.zeros((5, 5), dtype=np.int8)
        grid_up[0, 0:2] = 3
        grid_up[1, 0:2] = 1
        w_up = build_world(Morphology(grid_up), cfg)
        for other in (w_right, w_up):
            assert np.array_equal(w_left.pos, other.pos)
            assert np.array_equal(w_left.rest, other.rest)
            assert np.array_equal(w_left.stiffness, other.stiffness)
            assert np.array_equal(w_left.damping, other.damping)
            assert np.array_equal(w_left.mass, other.mass)

    def test_shared_edge_stiffness_sums(self):
        cfg = PhysicsConfig()
        world = build_world(body_from_rows("12000"), cfg)
        shared = find_spring(world, (1.0, 0.0), (1.0, 1.0))
        assert world.stiffness[shared] == 6600.0
        outer = find_spring(world, (0.0, 0.0), (0.0, 1.0))
        assert world.stiffness[outer] == 6000.0

    def test_damping_uses_summed_stiffness_and_reduced_mass(self):
        cfg = PhysicsConfig()
        world = build_world(body_from_rows("22000"), cfg)
        shared = find_spring(world, (1.0, 0.0), (1.0, 1.0))
        # both endpoints weigh 0.5, reduced mass 0.25, k = 600 + 600
        expected = 2.0 * cfg.damping_ratio * np.sqrt(1200.0 * 0.25)
        assert world.damping[shared] == pytest.approx(expected, rel=1e-12)

    def test_diagonal_rest_length(self):
        world = build_world(single_voxel(), PhysicsConfig())
        axes = spring_axes(world)
        diag = axes == AXIS_DIAGONAL
        assert np.allclose(world.rest[diag], np.sqrt(2.0) * VOXEL_EDGE, rtol=0, atol=1e-15)
        assert np.array_equal(world.rest, base_rest_lengths(axes))


def oracle_bodies():
    catalog = default_catalog()
    bodies = [pytest.param(name, catalog[name], id=name) for name in CATALOG_ORDER]
    for i in range(4):
        body = random_morphology(np.random.default_rng([7, i]))
        bodies.append(pytest.param(f"random{i}", body, id=f"random{i}"))
    return bodies


class TestActuation:
    # build and actuation set rest through one map: scale 1.0 gives the
    # build-time bytes, which are the unactuated edge and diagonal lengths
    @pytest.mark.parametrize("name, body", oracle_bodies())
    def test_identity_action_keeps_rest_lengths(self, name, body):
        world = build_world(body, PhysicsConfig())
        before = world.rest.copy()
        assert before.tobytes() == base_rest_lengths(spring_axes(world)).tobytes()
        apply_actuation(world, np.full(len(world.actuator_cells), 0.4))
        assert world.scale[:, :-1].tolist() == [[1.0] * len(world.cells)] * 2
        assert world.rest.tobytes() == before.tobytes()

    def test_extreme_actions_hit_bounds(self):
        world = build_world(single_voxel(), PhysicsConfig())
        apply_actuation(world, np.array([0.0]))
        axes = spring_axes(world)
        h = axes == AXIS_HORIZONTAL
        v = axes == AXIS_VERTICAL
        d = axes == AXIS_DIAGONAL
        assert np.allclose(world.rest[h], 0.6, rtol=0, atol=1e-15)
        assert np.allclose(world.rest[v], 1.0, rtol=0, atol=1e-15)
        assert np.allclose(world.rest[d], np.hypot(0.6, 1.0), rtol=0, atol=1e-15)
        apply_actuation(world, np.array([1.0]))
        assert np.allclose(world.rest[h], 1.6, rtol=0, atol=1e-15)
        assert np.allclose(world.rest[d], np.hypot(1.6, 1.0), rtol=0, atol=1e-15)

    def test_shared_edge_takes_mean_scale(self):
        world = build_world(body_from_rows("3", "3"), PhysicsConfig())
        assert world.actuator_cells == sorted(world.actuator_cells)  # top first
        apply_actuation(world, np.array([0.0, 1.0]))
        shared = find_spring(world, (0.0, 1.0), (1.0, 1.0))
        assert world.rest[shared] == pytest.approx((0.6 + 1.6) / 2.0, rel=1e-12)

    def test_rest_lengths_stay_in_band(self, rng):
        world = build_world(body_from_rows("34340", "11110"), PhysicsConfig())
        base = base_rest_lengths(spring_axes(world))
        lo = 0.6 * base
        hi = 1.6 * base
        for _ in range(200):
            apply_actuation(world, rng.random(len(world.actuator_cells)))
            assert np.all(world.rest >= lo - 1e-12)
            assert np.all(world.rest <= hi + 1e-12)

    def test_actions_follow_actuator_cell_order(self):
        world = build_world(body_from_rows("34000", "11000"), PhysicsConfig())
        assert world.actuator_cells == [(3, 0), (3, 1)]
        apply_actuation(world, np.array([0.0, 1.0]))
        h_vox, v_vox = world.cells.index((3, 0)), world.cells.index((3, 1))
        scale_x, scale_y = world.scale[:, :-1].tolist()
        assert scale_x == [0.6 if v == h_vox else 1.0 for v in range(4)]
        assert scale_y == [1.6 if v == v_vox else 1.0 for v in range(4)]

    def test_rejects_bad_inputs(self):
        world = build_world(body_from_rows("34000", "11000"), PhysicsConfig())
        assert len(world.actuator_cells) == 2
        before = world.rest.copy()
        for bad in ([0.5, 1.5], [-0.1, 0.5], [0.5, np.nan]):
            with pytest.raises(ValueError):
                apply_actuation(world, np.array(bad))
        # one action per actuator: none for a missing or a rigid cell
        for bad in ([0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]]):
            with pytest.raises(ValueError):
                apply_actuation(world, np.array(bad))
        assert np.array_equal(world.rest, before)


class TestDynamics:
    def test_free_fall_matches_closed_form(self):
        cfg = PhysicsConfig(**NO_CONTACT)
        world = build_world(body_from_rows("33000", "11000"), cfg)
        batch = join_worlds([world])
        y0 = center_of_mass(world)[1]
        n_env = 50
        for _ in range(n_env):
            step_env(batch)
        n = n_env * cfg.substeps_per_env_step
        dt = cfg.physics_dt
        expected_y = y0 - cfg.gravity * dt * dt * n * (n + 1) / 2.0
        expected_v = -cfg.gravity * dt * n
        assert center_of_mass(world)[1] == pytest.approx(expected_y, rel=1e-9)
        com_v = (world.vel * world.mass[:, None]).sum(axis=0) / world.mass.sum()
        assert com_v[1] == pytest.approx(expected_v, rel=1e-9)
        assert abs(com_v[0]) < 1e-12

    def test_internal_forces_sum_to_zero(self, rng):
        world = build_world(body_from_rows("34340", "11110"), PhysicsConfig())
        world.pos += rng.normal(0.0, 0.05, size=world.pos.shape)
        world.vel += rng.normal(0.0, 1.0, size=world.vel.shape)
        total = oracle_spring_forces(world).sum(axis=0)
        assert np.abs(total).max() < 1e-9

    def test_energy_non_increasing_without_contact(self, rng):
        cfg = PhysicsConfig(substeps_per_env_step=1, **NO_CONTACT)
        world = build_world(body_from_rows("34000", "22000"), cfg)
        batch = join_worlds([world])
        world.vel += rng.normal(0.0, 2.0, size=world.vel.shape)
        energies = [mechanical_energy(world)]
        for _ in range(1000):
            step_env(batch)
            energies.append(mechanical_energy(world))
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-9)
        assert energies[-1] < energies[0]

    def test_resting_robot_stays_put(self):
        world = build_world(body_from_rows("33000", "11000"), PhysicsConfig())
        batch = join_worlds([world])
        x0 = center_of_mass(world)[0]
        for _ in range(500):
            step_env(batch)
        assert abs(center_of_mass(world)[0] - x0) < 0.05
        assert np.abs(world.vel).max() < 1e-2
        # corners sink only by the contact compliance scale
        assert world.pos[:, 1].min() > -0.01

    def test_friction_stops_sliding(self):
        world = build_world(body_from_rows("33000", "11000"), PhysicsConfig())
        batch = join_worlds([world])
        for _ in range(100):
            step_env(batch)
        world.vel[:, 0] += 2.0
        for _ in range(300):
            step_env(batch)
        com_v = (world.vel * world.mass[:, None]).sum(axis=0) / world.mass.sum()
        assert abs(com_v[0]) < 1e-2

    def test_translation_commutes_with_stepping(self):
        cfg = PhysicsConfig()
        body = body_from_rows("34000", "11000")
        w_a = build_world(body, cfg)
        w_b = build_world(body, cfg)
        w_b.pos[:, 0] += 7.0
        batches = [join_worlds([w_a]), join_worlds([w_b])]
        for i in range(100):
            acts = np.full(len(w_a.actuator_cells), 0.5 + 0.4 * np.sin(i / 5.0))
            apply_actuation(w_a, acts)
            apply_actuation(w_b, acts)
            for batch in batches:
                step_env(batch)
        w_a.pos[:, 0] += 7.0
        assert np.abs(w_a.pos - w_b.pos).max() < 1e-9
        assert np.abs(w_a.vel - w_b.vel).max() < 1e-9

    def test_step_is_deterministic(self):
        cfg = PhysicsConfig()
        body = body_from_rows("34000", "11000")
        worlds = [build_world(body, cfg) for _ in range(2)]
        batches = [join_worlds([w]) for w in worlds]
        for i in range(50):
            for w, batch in zip(worlds, batches):
                apply_actuation(w, np.full(len(w.actuator_cells), (i % 10) / 10.0))
                step_env(batch)
        assert np.array_equal(worlds[0].pos, worlds[1].pos)
        assert np.array_equal(worlds[0].vel, worlds[1].vel)

    def test_divergence_raises_with_step_index(self):
        body = body_from_rows("33000", "11000")
        fast = build_world(body, PhysicsConfig())
        fast.vel[:] = 1e154
        # far too stiff for the time step: a small offset grows until it overflows
        stiff = build_world(body, PhysicsConfig(rigid_stiffness=1e8, soft_stiffness=1e8,
                                                actuator_stiffness=1e8))
        stiff.pos[0, 0] += 0.01
        for world, expected in ((fast, 1), (stiff, 8)):
            assert oracle_divergence_step(world, limit=20) == expected
            assert steps_to_divergence(join_worlds([world]), limit=20) == expected

    def test_nan_velocity_of_a_touching_mass_raises_at_once(self):
        world = build_world(body_from_rows("33000", "11000"), PhysicsConfig())
        bottom = int(np.argmin(world.pos[:, 1]))
        world.pos[bottom, 1] = -0.01
        world.vel[bottom, 1] = np.nan
        assert oracle_divergence_step(world, limit=10) == 1
        assert steps_to_divergence(join_worlds([world]), limit=1) == 1

    # the engine's finiteness check reads pos alone: a non-finite velocity
    # must reach pos within the env step that first holds it
    @pytest.mark.parametrize("substeps", [1, 6])
    @pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_velocity_raises_at_once(self, substeps, value):
        world = build_world(body_from_rows("33000", "11000"),
                            PhysicsConfig(substeps_per_env_step=substeps))
        top = int(np.argmax(world.pos[:, 1]))
        world.vel[top, 0] = value
        assert np.isfinite(world.pos).all()
        assert steps_to_divergence(join_worlds([world]), limit=1) == 1

    def test_com_of_single_voxel(self):
        world = build_world(single_voxel(), PhysicsConfig())
        assert np.allclose(center_of_mass(world), [0.5, 0.5], rtol=0, atol=1e-15)

    def test_energy_at_rest_is_pure_gravity_potential(self):
        world = build_world(body_from_rows("33000", "11000"), PhysicsConfig())
        expected = float((world.mass * world.physics.gravity * world.pos[:, 1]).sum())
        assert mechanical_energy(world) == pytest.approx(expected, rel=1e-12)


class TestContactConfig:
    def test_frozen(self):
        cfg = PhysicsConfig()
        with pytest.raises(Exception):
            cfg.contact_friction = 0.0

    def test_defaults(self):
        cfg = PhysicsConfig()
        assert cfg.contact_normal_stiffness == 1e4
        assert cfg.contact_normal_damping == 10.0
        assert cfg.contact_friction == 0.8

    def test_rejects_negative_values(self):
        for name in ("contact_normal_stiffness", "contact_normal_damping",
                     "contact_friction"):
            with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -1.0$"):
                PhysicsConfig(**{name: -1.0})
        # a signed zero is not below zero
        assert PhysicsConfig(**contact(-0.0, -0.0, -0.0)).contact_friction == 0.0


# Oracle: the single-world step as it was written before the hot path was
# reworked (whole (n, 2) arrays, boolean-mask contact). The rewrite must match
# it bit for bit.
def oracle_total_forces(world):
    forces = oracle_spring_forces(world)
    forces[:, 1] -= world.mass * world.physics.gravity
    cfg = world.physics
    kn, kd, mu = cfg.contact_normal_stiffness, cfg.contact_normal_damping, cfg.contact_friction
    if kn > 0.0 or kd > 0.0 or mu > 0.0:
        penetration = -world.pos[:, 1]  # the ground is y = 0
        touching = penetration > 0.0
        if touching.any():
            normal = kn * penetration[touching] - kd * world.vel[touching, 1]
            normal = np.maximum(normal, 0.0)
            vx = world.vel[touching, 0]
            stopping = world.mass[touching] * np.abs(vx) / world.physics.physics_dt
            friction = -np.sign(vx) * np.minimum(mu * normal, stopping)
            forces[touching, 1] += normal
            forces[touching, 0] += friction
    return forces


def oracle_step_env(world):
    dt = world.physics.physics_dt
    inv_mass = 1.0 / world.mass[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(world.physics.substeps_per_env_step):
            forces = oracle_total_forces(world)
            world.vel += dt * forces * inv_mass
            world.pos += dt * world.vel


def oracle_divergence_step(world, limit):
    """The first env step after which the oracle's copy of `world` holds a
    non-finite position or velocity."""
    ref = copy.deepcopy(world)
    for env_steps in range(1, limit + 1):
        oracle_step_env(ref)
        if not (np.isfinite(ref.pos).all() and np.isfinite(ref.vel).all()):
            return env_steps
    raise AssertionError(f"the oracle stays finite for {limit} steps")


def steps_to_divergence(batch, limit):
    """The number of `step_env` calls on `batch` up to and including the one
    that raises SimulationDivergedError, within `limit` calls."""
    for steps in range(1, limit + 1):
        try:
            step_env(batch)
        except SimulationDivergedError:
            return steps
    raise AssertionError(f"no divergence within {limit} steps")


def spring_owners(world):
    """Voxels whose corners include both ends of each spring."""
    corners = [set(c.tolist()) for c in world.corner_map]
    return [[v for v, cs in enumerate(corners)
             if {int(world.spring_a[s]), int(world.spring_b[s])} <= cs]
            for s in range(world.n_springs)]


def oracle_rest(world, owners, axes, actions):
    """Rest lengths for `actions`, from the geometry alone: edges take the
    mean scale of their voxels on their axis, diagonals sqrt(w^2 + h^2)."""
    lo, hi = world.physics.actuation_min, world.physics.actuation_max
    sx, sy = np.ones(len(world.cells)), np.ones(len(world.cells))
    for voxel, action in zip(world.actuator_voxels, actions):
        axis_scale = sx if world.materials[voxel] == H_ACTUATOR else sy
        axis_scale[voxel] = lo + action * (hi - lo)
    rest = np.empty(world.n_springs)
    base = base_rest_lengths(axes)
    diagonal = axes == AXIS_DIAGONAL
    for s in np.flatnonzero(~diagonal):
        scale = sx if axes[s] == AXIS_HORIZONTAL else sy
        first, *other = owners[s]
        total = scale[first] + (scale[other[0]] if other else 0.0)
        rest[s] = base[s] * total / len(owners[s])
    own = np.array([owners[s][0] for s in np.flatnonzero(diagonal)], dtype=np.int64)
    rest[diagonal] = np.hypot(sx[own] * VOXEL_EDGE, sy[own] * VOXEL_EDGE)
    return rest


def oracle_features(world, clamp=10.0):
    """Per-voxel (mean corner velocity, shoelace area) as computed with rolls."""
    vel = world.vel[world.corner_map].mean(axis=1)
    np.clip(vel, -clamp, clamp, out=vel)
    ring = world.pos[world.corner_map[:, [0, 1, 3, 2]]]
    x, y = ring[..., 0], ring[..., 1]
    x_next, y_next = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
    areas = 0.5 * np.abs((x * y_next - x_next * y).sum(axis=1)) / VOXEL_EDGE ** 2
    return np.column_stack([vel, areas])


def assert_same_state(world, ref):
    """Equal values and equal bytes: array_equal alone takes -0.0 for 0.0."""
    assert np.array_equal(world.pos, ref.pos)
    assert np.array_equal(world.vel, ref.vel)
    assert world.pos.tobytes() == ref.pos.tobytes()
    assert world.vel.tobytes() == ref.vel.tobytes()


class TestMatchesOracle:
    @pytest.mark.parametrize("grounded", [True, False], ids=["contact", "no_contact"])
    @pytest.mark.parametrize("name, body", oracle_bodies())
    def test_actuated_episode_is_bit_identical(self, name, body, grounded):
        cfg = PhysicsConfig() if grounded else PhysicsConfig(**NO_CONTACT)
        world, ref = build_world(body, cfg), build_world(body, cfg)
        batch = join_worlds([world])
        builder = ObservationBuilder(batch, (GLOBAL_KIND,))
        owners, axes = spring_owners(ref), spring_axes(ref)
        raster = [r * GRID_SIZE + c for r, c in world.cells]
        rng = np.random.default_rng([11, len(name), int(grounded)])
        for step in range(500):
            if step % 4 == 0:
                actions = rng.random(len(world.actuator_cells))
                apply_actuation(world, actions)
                ref.rest[:] = oracle_rest(ref, owners, axes, actions)
                assert np.array_equal(world.rest, ref.rest), step
                blocks = member_inputs(builder, batch, step)[:-1].reshape(GRID_SIZE ** 2, -1)
                assert np.array_equal(blocks[raster, :3], oracle_features(world)), step
            step_env(batch)
            oracle_step_env(ref)
        assert_same_state(world, ref)
        com = (ref.mass[:, None] * ref.pos).sum(axis=0) / ref.mass.sum()
        assert np.array_equal(center_of_mass(world), com)

    # pos and vel are the two halves of one state block that the spring pass
    # gathers from at once: a write to one member's positions or another's
    # velocities, through its own views, is seen by the next step, and no
    # other member's state moves with it. Three bodies, two of one shape
    def test_in_place_state_writes_are_seen_by_the_next_step(self):
        catalog = default_catalog()
        bodies = [catalog["biped"], catalog["worm"], catalog["biped"]]
        worlds = [build_world(b, PhysicsConfig()) for b in bodies]
        refs = [build_world(b, PhysicsConfig()) for b in bodies]
        batch = join_worlds(worlds)

        def step_all():
            step_env(batch)
            for ref in refs:
                oracle_step_env(ref)
            for world, ref in zip(worlds, refs):
                assert_same_state(world, ref)

        for i, (world, ref) in enumerate(zip(worlds, refs)):
            for w in (world, ref):
                w.pos[:, 0] += 3.0 * (i + 1)
                w.vel[2] = [1.5, -0.5 * i]
        moved = worlds[0].pos.copy()
        step_all()
        assert not np.array_equal(worlds[0].pos, moved)
        for step in range(12):
            written = [(step % 3, "vel"), ((step + 1) % 3, "pos")]
            for i, name in written:
                for w in (worlds[i], refs[i]):
                    if name == "vel":
                        w.vel *= 0.5
                        w.vel[1] = [-0.75, 2.0]
                    else:
                        w.pos[:, 1] += 0.25
            step_all()
        for i, world in enumerate(worlds):
            assert world.pos[:, 0].min() > 3.0 * (i + 1) - 1.0  # the shifted start was kept
            assert np.shares_memory(world.pos, batch.pos)
            assert np.shares_memory(world.vel, batch.vel)

    def test_copy_and_pickle_are_refused(self):
        # the join builds the step state once, memoryviews of the joined
        # arrays among it: a copy would step members it does not view, so
        # copying and pickling raise instead, and the batch steps on
        body = default_catalog()["biped"]
        world, ref = build_world(body, PhysicsConfig()), build_world(body, PhysicsConfig())
        batch = join_worlds([world])
        for _ in range(3):  # before and after a first step
            for refuse in (copy.deepcopy, pickle.dumps):
                with pytest.raises(TypeError):
                    refuse(batch)
            step_env(batch)
            oracle_step_env(ref)
            assert_same_state(world, ref)

    def test_rebinding_the_state_is_refused(self):
        # the state is written in place, never rebound: a rebound array
        # (a strided pos among them) would detach the members and the step
        # state from it. The refused batch still steps to the oracle's bytes
        body = default_catalog()["biped"]
        world, ref = build_world(body, PhysicsConfig()), build_world(body, PhysicsConfig())
        batch = join_worlds([world])
        rng = np.random.default_rng(3)
        for _ in range(3):  # before and after a first step
            for name in ("pos", "vel", "rest", "scale"):
                bound = getattr(batch, name)
                others = [bound.copy()]
                if name == "pos":
                    others.append(np.repeat(bound, 2, axis=0)[::2])  # strided rows
                for other in others:
                    with pytest.raises(AttributeError, match=f"joined world's {name} "):
                        setattr(batch, name, other)
                    assert getattr(batch, name) is bound
            actions = rng.random(batch.actuator_slots.size)
            apply_actuation(batch, actions)
            apply_actuation(ref, actions)
            assert world.rest.tobytes() == ref.rest.tobytes()
            step_env(batch)
            oracle_step_env(ref)
            assert_same_state(world, ref)
        assert np.shares_memory(world.pos, batch.pos) and np.shares_memory(world.vel, batch.vel)

    def test_rebinding_a_member_is_refused(self):
        # a member's state is a view of the joined arrays: a rebound array
        # would detach the member from the batch. An in-place write, an
        # augmented assignment among them, reaches the batch
        body = default_catalog()["biped"]
        batch = join_worlds([build_world(body, PhysicsConfig()) for _ in range(2)])
        for member in batch.members:
            for name in ("pos", "vel", "rest", "scale"):
                bound = getattr(member, name)
                with pytest.raises(AttributeError, match=f"a world's {name} "):
                    setattr(member, name, bound.copy())
                assert getattr(member, name) is bound
                assert np.shares_memory(bound, getattr(batch, name))
        member = batch.members[1]
        member.pos += 1.0
        assert np.array_equal(batch.pos[member.n_masses:], member.pos)


# One bottom corner of a single voxel, set by hand, meets the ground in one
# substep: (contact keywords, y, vx, vy) per branch of the contact force;
# no keywords keep the default contact.
CONTACT_BRANCHES = {
    "at_ground_not_touching": ({}, 0.0, 0.3, -1.0),
    "normal_clips_to_zero": ({}, -0.001, 0.3, 50.0),
    "stopping_caps_friction": ({}, -0.01, 1e-4, 0.0),
    "mu_normal_caps_friction": ({}, -0.01, 5.0, 0.0),
    "vx_positive_zero": ({}, -0.01, 0.0, -0.5),
    "vx_negative_zero": ({}, -0.01, -0.0, -0.5),
    "no_normal_stiffness": (contact(0.0, 10.0, 0.8), -0.01, 0.5, -1.0),
    "vx_negative_mu_normal_caps_friction": ({}, -0.01, -5.0, 0.0),
    "vx_negative_stopping_caps_friction": ({}, -0.01, -1e-4, 0.0),
}


def branch_world(branch):
    """A single voxel whose bottom-left corner is set to `branch`."""
    ground, y, vx, vy = CONTACT_BRANCHES[branch]
    world = build_world(single_voxel(), PhysicsConfig(substeps_per_env_step=1, **ground))
    corner = int(world.corner_map[0, 2])  # bottom-left
    world.pos[corner, 1], world.vel[corner] = y, (vx, vy)
    return world, corner


def step_wide_batch_as_oracle(worlds):
    """Step `worlds` joined, one batch with enough touching masses for the
    numpy contact, and require each to hold the oracle's bytes alone."""
    refs = [copy.deepcopy(w) for w in worlds]
    joined = join_worlds(worlds)
    # one substep per step: the touching masses now are the substep's
    assert joined.physics.substeps_per_env_step == 1
    assert np.count_nonzero(joined.pos[:, 1] < 0.0) >= physics.VECTOR_CONTACT_MIN
    step_env(joined)
    for world, ref in zip(worlds, refs):
        oracle_step_env(ref)
        assert_same_state(world, ref)


def sinking_voxels(cfg, count):
    """`count` single voxels whose two bottom corners are 0.01 below the
    ground and slide at different speeds."""
    voxels = [build_world(single_voxel(), cfg) for _ in range(count)]
    for i, voxel in enumerate(voxels):
        voxel.pos[:, 1] -= 0.01
        voxel.vel[:, 0] = 0.5 * (i - count // 2)
    return voxels


# With the spring forces and gravity at zero and every velocity at -0.0,
# the sign of a zero contact force shows in the new velocity: -0.0 + 0.0
# is 0.0, -0.0 + -0.0 stays -0.0.
SIGNED_ZERO_CONTACTS = [
    # the normal force is -0.0 before the clip, the friction limit 0.0
    # before the cap
    pytest.param(contact(-0.0, -0.0, 0.8), id="normal_clip_of_negative_zero"),
    # the friction limit is -0.0 against a stopping force of 0.0; numpy
    # takes the second operand of a tie on x86, IEEE minimum takes -0.0
    pytest.param(contact(1e4, 10.0, -0.0), id="friction_cap_tie_of_zeros",
                 marks=pytest.mark.skipif(
                     np.signbit(np.minimum(np.array([-0.0]), 0.0))[0],
                     reason="numpy's minimum breaks ties of signed zeros the IEEE way")),
]


def zero_spring_forces(monkeypatch):
    """Spring forces of -0.0 in the engine and in the oracle."""
    def zero_springs(world, *buffers):
        forces = np.full((len(world.pos), 2), -0.0)
        if buffers:  # the engine's form fills its forces buffer in place
            buffers[-1][:] = forces
        return forces

    monkeypatch.setattr(physics, "_spring_forces", zero_springs)
    monkeypatch.setattr(sys.modules[__name__], "oracle_spring_forces", zero_springs)


class TestContactBranches:
    @pytest.mark.parametrize("branch", list(CONTACT_BRANCHES))
    def test_step_matches_oracle_bytes(self, branch):
        _, y, vx, vy = CONTACT_BRANCHES[branch]
        world, corner = branch_world(branch)
        cfg = world.physics
        kn, kd, mu = cfg.contact_normal_stiffness, cfg.contact_normal_damping, cfg.contact_friction
        normal = kn * -y - kd * vy  # the ground is y = 0
        limit = mu * max(normal, 0.0)
        stopping = world.mass[corner] * abs(vx) / world.physics.physics_dt
        reached = {
            "at_ground_not_touching": y == 0.0,
            "normal_clips_to_zero": normal < 0.0,
            "stopping_caps_friction": 0.0 < stopping < limit,
            "mu_normal_caps_friction": 0.0 < limit < stopping,
            "vx_positive_zero": vx == 0.0 and not np.signbit(vx) and limit > 0.0,
            "vx_negative_zero": vx == 0.0 and np.signbit(vx) and limit > 0.0,
            "no_normal_stiffness": kn == 0.0 and 0.0 < limit < stopping,
            "vx_negative_mu_normal_caps_friction": vx < 0.0 and 0.0 < limit < stopping,
            "vx_negative_stopping_caps_friction": vx < 0.0 and 0.0 < stopping < limit,
        }
        assert reached[branch]
        ref = copy.deepcopy(world)
        step_env(join_worlds([world]))
        oracle_step_env(ref)
        assert_same_state(world, ref)

    # contact was switched on by stiffness or friction alone, so a ground with
    # only damping let a falling body through as if there were no ground
    def test_damping_alone_slows_a_falling_voxel(self):
        def step_falling(ground):
            world = build_world(single_voxel(), PhysicsConfig(**ground))
            world.pos[:, 1] -= 0.01
            world.vel[:, 1] = -1.0
            ref = copy.deepcopy(world)
            step_env(join_worlds([world]))
            oracle_step_env(ref)
            assert_same_state(world, ref)
            return world.vel[:, 1].mean()

        no_ground = step_falling(NO_CONTACT)
        assert step_falling(contact(0.0, 10.0, 0.0)) > no_ground + 0.1

    @pytest.mark.parametrize("ground", SIGNED_ZERO_CONTACTS)
    def test_signed_zero_contact_forces_match_oracle_bytes(self, ground, monkeypatch):
        zero_spring_forces(monkeypatch)
        cfg = PhysicsConfig(substeps_per_env_step=1, gravity=0.0, **ground)
        world = build_world(single_voxel(), cfg)
        world.pos[:, 1] -= 0.01
        world.vel[:] = -0.0
        ref = copy.deepcopy(world)
        step_env(join_worlds([world]))
        oracle_step_env(ref)
        assert_same_state(world, ref)

    # The same cases through the numpy contact: the branch's voxel joined
    # with voxels that sink, enough touching masses for that form
    @pytest.mark.parametrize("branch", list(CONTACT_BRANCHES))
    def test_numpy_contact_matches_oracle_bytes(self, branch):
        world, _ = branch_world(branch)
        others = sinking_voxels(world.physics, physics.VECTOR_CONTACT_MIN // 2 + 1)
        step_wide_batch_as_oracle([world] + others)

    @pytest.mark.parametrize("ground", SIGNED_ZERO_CONTACTS)
    def test_numpy_contact_signed_zeros_match_oracle_bytes(self, ground, monkeypatch):
        zero_spring_forces(monkeypatch)
        cfg = PhysicsConfig(substeps_per_env_step=1, gravity=0.0, **ground)
        voxels = sinking_voxels(cfg, physics.VECTOR_CONTACT_MIN // 2 + 1)
        for voxel in voxels:
            voxel.vel[:] = -0.0
        step_wide_batch_as_oracle(voxels)


def step_joined_and_alone(bodies, seeds, steps, poison=None):
    """Step `bodies` as one joined world and each as a batch of one, with
    the actions of body i drawn from the stream seeded by `seeds[i]`; then
    require every member to hold the bytes of its world alone. `poison`
    makes that member's state non-finite before the first step."""
    cfg = PhysicsConfig()
    members = [build_world(b, cfg) for b in bodies]
    alone = [build_world(b, cfg) for b in bodies]
    joined = join_worlds(members)
    batches = [join_worlds([a]) for a in alone]
    if poison is not None:
        members[poison].vel[0, 0] = np.nan  # a view: the joined state changes
    streams = [np.random.default_rng(s) for s in seeds]
    for step in range(steps):
        if step % 4 == 0:
            for m, a, stream in zip(members, alone, streams):
                actions = stream.random(m.actuator_voxels.size)
                apply_actuation(m, actions)
                apply_actuation(a, actions)
        if poison is None:
            step_env(joined)
        else:
            with pytest.raises(SimulationDivergedError):
                step_env(joined)
        for i, batch in enumerate(batches):
            if i != poison:
                step_env(batch)
    for i, (m, a) in enumerate(zip(members, alone)):
        if i != poison:
            assert_same_state(m, a)
    return joined


def stacked_counts(joined):
    """Members per scatter block of `joined`, for the blocks of more than one:
    the depth of the stacked rows."""
    return [masses.shape[0] for *_, masses in joined.blocks if masses.ndim == 3]


class TestJoinedWorlds:
    # any one member steps to the bytes it reaches alone: one gemm scatter per
    # member, every other pass row by row
    @pytest.mark.parametrize("seed", range(6))
    def test_members_step_to_the_bytes_of_each_world_alone(self, seed):
        rng = np.random.default_rng([31, seed])
        bodies = [random_morphology(rng) for _ in range(1 + seed)]
        seeds = [[32, seed, i] for i in range(len(bodies))]
        step_joined_and_alone(bodies, seeds, 120)
        step_joined_and_alone(bodies[::-1], seeds[::-1], 120)

    def test_catalog_members_step_to_the_bytes_of_each_world_alone(self):
        catalog = default_catalog()
        bodies = [catalog[name] for name in CATALOG_ORDER]
        step_joined_and_alone(bodies, [[33, i] for i in range(len(bodies))], 120)

    @pytest.mark.parametrize("poison", [0, 2])
    def test_a_non_finite_member_leaves_the_others_untouched(self, poison):
        rng = np.random.default_rng(34)
        bodies = [random_morphology(rng) for _ in range(3)]
        step_joined_and_alone(bodies, [[35, i] for i in range(3)], 20, poison=poison)

    # members of one body shape share a stacked scatter block; each still
    # steps to the bytes it reaches alone, wherever it sits in the join
    def test_repeated_bodies_step_to_the_bytes_of_each_world_alone(self):
        catalog = default_catalog()
        rng = np.random.default_rng(36)
        randoms = [random_morphology(rng) for _ in range(6)]
        bodies = [catalog[name] for name in CATALOG_ORDER] * 5 + randoms * 3
        order = rng.permutation(len(bodies))
        bodies = [bodies[i] for i in order]
        joined = step_joined_and_alone(bodies, [[37, i] for i in range(len(bodies))], 200)
        assert sorted(stacked_counts(joined)) == [3] * 6 + [5] * 4

    def test_same_cells_of_other_materials_share_a_block(self):
        rng = np.random.default_rng(38)
        body = random_morphology(rng)
        swap = np.array([0, SOFT, RIGID, V_ACTUATOR, H_ACTUATOR], dtype=np.int8)
        other = Morphology(swap[body.grid])  # rigid <-> soft, actuator axes swapped
        assert other.occupied_cells == body.occupied_cells
        worlds = [build_world(b, PhysicsConfig()) for b in (body, other)]
        assert not np.array_equal(worlds[0].stiffness, worlds[1].stiffness)
        joined = step_joined_and_alone([body, other], [[39, 0], [39, 1]], 200)
        assert stacked_counts(joined) == [2] and len(joined.blocks) == 1

    @pytest.mark.parametrize("poison", [0, 1, 3])
    def test_a_non_finite_member_leaves_its_stacked_block_untouched(self, poison):
        rng = np.random.default_rng(40)
        body, other = random_morphology(rng), random_morphology(rng)
        bodies = [body, other, body, body]
        joined = step_joined_and_alone(bodies, [[41, i] for i in range(4)], 20, poison=poison)
        assert sorted(stacked_counts(joined)) == [3]

    def test_members_are_views_of_the_joined_state(self):
        # twice the catalog: the join lays each body shape's members side by side
        bodies = list(default_catalog().values()) * 2
        members = [build_world(b, PhysicsConfig()) for b in bodies]
        joined = join_worlds(members)
        assert len(joined.pos) == sum(m.n_masses for m in members)
        assert joined.n_springs == sum(m.n_springs for m in members)
        assert joined.substeps_per_env_step == PhysicsConfig().substeps_per_env_step
        def first_row(view, base):
            offset = view.__array_interface__["data"][0] - base.__array_interface__["data"][0]
            return offset // base.strides[0]

        for m in members:
            assert np.shares_memory(m.pos, joined.pos) and m.pos.flags.c_contiguous
            assert np.shares_memory(m.vel, joined.vel)
            assert np.shares_memory(m.rest, joined.rest)
            row, spring = first_row(m.pos, joined.pos), first_row(m.rest, joined.rest)
            assert first_row(m.vel, joined.vel) == row
            springs = slice(spring, spring + m.n_springs)
            assert np.array_equal(joined.spring_a[springs] - row, m.spring_a)

    # the walker's terrain-end bound: the largest |x| or |y| of the state
    # that the step leaves
    @pytest.mark.parametrize("names", [["biped"], CATALOG_ORDER], ids=["one", "catalog"])
    def test_step_returns_the_largest_coordinate_magnitude(self, names):
        catalog = default_catalog()
        batch = join_worlds([build_world(catalog[name], PhysicsConfig()) for name in names])
        rng = np.random.default_rng(42)
        for step in range(40):
            if step % 4 == 0:
                apply_actuation(batch, rng.random(batch.actuator_slots.size))
            extent = step_env(batch)
            assert type(extent) is float
            assert extent == float(np.abs(batch.pos).max()), step

    def test_refuses_an_empty_join(self):
        with pytest.raises(ValueError, match="^no worlds to join$"):
            join_worlds([])

    def test_refuses_members_of_other_physics(self):
        body = single_voxel()
        world = build_world(body, PhysicsConfig())
        other = build_world(body, PhysicsConfig(physics_dt=1.0 / 300.0))
        with pytest.raises(ValueError, match="share their physics"):
            join_worlds([world, other])
