import numpy as np
import pytest

from voxevo.morphology import H_ACTUATOR, Morphology
from voxevo.physics import (
    AXIS_DIAGONAL,
    AXIS_HORIZONTAL,
    AXIS_VERTICAL,
    VOXEL_EDGE,
    VOXEL_MASS,
    ContactParams,
    PhysicsConfig,
    SimulationDivergedError,
    SimWorld,
    apply_actuation,
    build_world,
    center_of_mass,
    mechanical_energy,
    spring_forces,
    step_env,
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
        assert cfg.contact.normal_stiffness == 1e4

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

    def test_contact_disabled_copy(self):
        cfg = PhysicsConfig().with_contact_disabled()
        assert cfg.contact.normal_stiffness == 0.0
        assert cfg.contact.friction == 0.0


class TestWorldConstruction:
    def test_single_voxel_counts(self):
        world = build_world(single_voxel(), PhysicsConfig())
        assert world.n_masses == 4
        assert world.n_springs == 6
        assert np.count_nonzero(world.axis == AXIS_HORIZONTAL) == 2
        assert np.count_nonzero(world.axis == AXIS_VERTICAL) == 2
        assert np.count_nonzero(world.axis == AXIS_DIAGONAL) == 2

    def test_pair_counts(self):
        world = build_world(body_from_rows("33000"), PhysicsConfig())
        assert world.n_masses == 6
        assert world.n_springs == 11

    def test_full_grid_counts(self):
        world = build_world(Morphology(np.full((5, 5), 3, dtype=np.int8)), PhysicsConfig())
        assert world.n_masses == 36
        assert world.n_springs == 110
        assert np.count_nonzero(world.axis == AXIS_HORIZONTAL) == 30
        assert np.count_nonzero(world.axis == AXIS_VERTICAL) == 30
        assert np.count_nonzero(world.axis == AXIS_DIAGONAL) == 50

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
        world = build_world(body_from_rows("00330"), PhysicsConfig(), ground_height=0.0)
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
        diag = world.axis == AXIS_DIAGONAL
        assert np.allclose(world.rest[diag], np.sqrt(2.0) * VOXEL_EDGE, rtol=0, atol=1e-15)
        assert np.array_equal(world.rest, world.base_rest)


class TestActuation:
    def test_identity_action_keeps_rest_lengths(self):
        world = build_world(body_from_rows("34000", "11000"), PhysicsConfig())
        before = world.rest.copy()
        apply_actuation(world, np.full(len(world.actuator_cells), 0.4))
        assert np.array_equal(world.rest, before)

    def test_extreme_actions_hit_bounds(self):
        world = build_world(single_voxel(), PhysicsConfig())
        apply_actuation(world, np.array([0.0]))
        h = world.axis == AXIS_HORIZONTAL
        v = world.axis == AXIS_VERTICAL
        d = world.axis == AXIS_DIAGONAL
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
        lo = 0.6 * world.base_rest
        hi = 1.6 * np.where(world.axis == AXIS_DIAGONAL,
                            np.sqrt(2.0) * VOXEL_EDGE, world.base_rest)
        for _ in range(200):
            apply_actuation(world, rng.random(len(world.actuator_cells)))
            assert np.all(world.rest >= lo - 1e-12)
            assert np.all(world.rest <= hi + 1e-12)

    def test_actions_follow_actuator_cell_order(self):
        world = build_world(body_from_rows("34000", "11000"), PhysicsConfig())
        assert world.actuator_cells == [(3, 0), (3, 1)]
        apply_actuation(world, np.array([0.0, 1.0]))
        h_vox, v_vox = world.cells.index((3, 0)), world.cells.index((3, 1))
        assert world.scale_x.tolist() == [0.6 if v == h_vox else 1.0 for v in range(4)]
        assert world.scale_y.tolist() == [1.6 if v == v_vox else 1.0 for v in range(4)]

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
        cfg = PhysicsConfig().with_contact_disabled()
        world = build_world(body_from_rows("33000", "11000"), cfg, ground_height=-100.0)
        y0 = center_of_mass(world)[1]
        n_env = 50
        for _ in range(n_env):
            step_env(world)
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
        total = spring_forces(world).sum(axis=0)
        assert np.abs(total).max() < 1e-9

    def test_energy_non_increasing_without_contact(self, rng):
        cfg = PhysicsConfig(substeps_per_env_step=1).with_contact_disabled()
        world = build_world(body_from_rows("34000", "22000"), cfg, ground_height=-1e6)
        world.vel += rng.normal(0.0, 2.0, size=world.vel.shape)
        energies = [mechanical_energy(world)]
        for _ in range(1000):
            step_env(world)
            energies.append(mechanical_energy(world))
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-9)
        assert energies[-1] < energies[0]

    def test_resting_robot_stays_put(self):
        world = build_world(body_from_rows("33000", "11000"), PhysicsConfig())
        x0 = center_of_mass(world)[0]
        for _ in range(500):
            step_env(world)
        assert abs(center_of_mass(world)[0] - x0) < 0.05
        assert np.abs(world.vel).max() < 1e-2
        # corners sink only by the contact compliance scale
        assert world.pos[:, 1].min() > -0.01

    def test_friction_stops_sliding(self):
        world = build_world(body_from_rows("33000", "11000"), PhysicsConfig())
        for _ in range(100):
            step_env(world)
        world.vel[:, 0] += 2.0
        for _ in range(300):
            step_env(world)
        com_v = (world.vel * world.mass[:, None]).sum(axis=0) / world.mass.sum()
        assert abs(com_v[0]) < 1e-2

    def test_translation_commutes_with_stepping(self):
        cfg = PhysicsConfig()
        body = body_from_rows("34000", "11000")
        w_a = build_world(body, cfg)
        w_b = build_world(body, cfg)
        w_b.pos[:, 0] += 7.0
        for i in range(100):
            acts = np.full(len(w_a.actuator_cells), 0.5 + 0.4 * np.sin(i / 5.0))
            apply_actuation(w_a, acts)
            apply_actuation(w_b, acts)
            step_env(w_a)
            step_env(w_b)
        w_a.pos[:, 0] += 7.0
        assert np.abs(w_a.pos - w_b.pos).max() < 1e-9
        assert np.abs(w_a.vel - w_b.vel).max() < 1e-9

    def test_step_is_deterministic(self):
        cfg = PhysicsConfig()
        body = body_from_rows("34000", "11000")
        worlds = [build_world(body, cfg) for _ in range(2)]
        for i in range(50):
            for w in worlds:
                apply_actuation(w, np.full(len(w.actuator_cells), (i % 10) / 10.0))
                step_env(w)
        assert np.array_equal(worlds[0].pos, worlds[1].pos)
        assert np.array_equal(worlds[0].vel, worlds[1].vel)

    def test_env_step_counter(self):
        world = build_world(single_voxel(), PhysicsConfig())
        assert world.env_steps == 0
        for _ in range(7):
            step_env(world)
        assert world.env_steps == 7

    def test_divergence_raises_with_step_index(self):
        world = build_world(body_from_rows("33000", "11000"), PhysicsConfig())
        world.vel[:] = 1e154
        with pytest.raises(SimulationDivergedError) as exc_info:
            for _ in range(10):
                step_env(world)
        assert exc_info.value.step_index >= 0

    def test_com_of_single_voxel(self):
        world = build_world(single_voxel(), PhysicsConfig())
        assert np.allclose(center_of_mass(world), [0.5, 0.5], rtol=0, atol=1e-15)

    def test_energy_at_rest_is_pure_gravity_potential(self):
        world = build_world(body_from_rows("33000", "11000"), PhysicsConfig())
        expected = float((world.mass * world.gravity * world.pos[:, 1]).sum())
        assert mechanical_energy(world) == pytest.approx(expected, rel=1e-12)


class TestContactParams:
    def test_frozen(self):
        params = ContactParams()
        with pytest.raises(Exception):
            params.friction = 0.0

    def test_defaults(self):
        params = ContactParams()
        assert params.normal_stiffness == 1e4
        assert params.normal_damping == 10.0
        assert params.friction == 0.8
