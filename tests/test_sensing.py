import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import pytest

from voxevo.control import ControllerBatch, act, init_controller
from voxevo.morphology import GRID_SIZE, H_ACTUATOR, N_MATERIALS, Morphology
from voxevo.physics import PhysicsConfig, apply_actuation, build_world, join_worlds, step_env
from voxevo.sensing import (
    BLOCK_SIZE,
    GLOBAL_KIND,
    KINDS,
    MISSING_BLOCK,
    MODULAR_KIND,
    ObservationBuilder,
    ObservationConfig,
    input_size,
    time_signal,
)

from helpers import member_inputs, oracle_refresh


@dataclass(frozen=True)
class VoxelObservation:
    velocity: np.ndarray  # (2,)
    volume: float
    material: np.ndarray  # (N_MATERIALS,) one-hot

    def as_block(self) -> np.ndarray:
        return np.concatenate([self.velocity, [self.volume], self.material])


def observe_voxel(world, cell, cfg=None):
    """Independent oracle for one cell's block: computed from the world state
    directly, without the builder's precomputed slots or shoelace helper."""
    cfg = cfg or ObservationConfig()
    if cell not in world.cells:
        return VoxelObservation(MISSING_BLOCK[0:2].copy(), 0.0, MISSING_BLOCK[3:].copy())
    vox = world.cells.index(cell)
    corners = world.corner_map[vox]
    vel = world.vel[corners].mean(axis=0)
    np.clip(vel, -cfg.velocity_clamp, cfg.velocity_clamp, out=vel)
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = world.pos[corners[[0, 1, 3, 2]]]
    area = 0.5 * abs((x0 * y1 - x1 * y0) + (x1 * y2 - x2 * y1)
                     + (x2 * y3 - x3 * y2) + (x3 * y0 - x0 * y3))
    onehot = np.zeros(N_MATERIALS)
    onehot[int(world.materials[vox])] = 1.0
    return VoxelObservation(vel, area, onehot)


def global_input(joined, env_step):
    """A fresh global builder's input of the one member of `joined`."""
    return member_inputs(ObservationBuilder(joined, (GLOBAL_KIND,)), joined, env_step)


def window_row(joined, cell, env_step):
    """A fresh modular builder's window row for one actuator cell of the one
    member of `joined`."""
    row = joined.actuator_cells.index(cell)
    return member_inputs(ObservationBuilder(joined, (MODULAR_KIND,)), joined, env_step)[row]


@pytest.fixture
def world(small_body):
    return build_world(small_body, PhysicsConfig())


@pytest.fixture
def joined(world):
    """`world` alone, joined: the form every builder reads."""
    return join_worlds([world])


class TestConfig:
    def test_sizes(self):
        cfg = ObservationConfig()
        assert BLOCK_SIZE == 8
        assert input_size(GLOBAL_KIND, cfg) == 201
        assert input_size(MODULAR_KIND, cfg) == 5 * 5 * BLOCK_SIZE + 1 == 201

    def test_distance_one_window(self):
        cfg = ObservationConfig(neighborhood_distance=1)
        assert input_size(MODULAR_KIND, cfg) == 3 * 3 * BLOCK_SIZE + 1
        assert input_size(GLOBAL_KIND, cfg) == 201

    # an unknown kind read as the global one
    def test_input_size_of_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown controller kind 'bogus'"):
            input_size("bogus", ObservationConfig())

    # a radius-4 window centred on any cell covers the 5x5 grid; a wider one
    # adds only missing-voxel blocks, and a huge one exhausted memory
    def test_distance_up_to_grid_size_minus_one(self):
        cfg = ObservationConfig(neighborhood_distance=GRID_SIZE - 1)
        assert input_size(MODULAR_KIND, cfg) == 9 * 9 * BLOCK_SIZE + 1
        with pytest.raises(ValueError, match=r"must be in \[0, 4\], got 5"):
            ObservationConfig(neighborhood_distance=GRID_SIZE)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ObservationConfig(neighborhood_distance=-1)
        with pytest.raises(ValueError):
            ObservationConfig(velocity_clamp=-1.0)
        with pytest.raises(ValueError):
            ObservationConfig(time_period=0)


class TestTimeSignal:
    def test_phase_values(self):
        assert time_signal(0, 25) == 0.0
        assert time_signal(1, 25) == pytest.approx(2.0 * math.pi / 25.0, rel=1e-15)
        assert time_signal(24, 25) == pytest.approx(2.0 * math.pi * 24.0 / 25.0, rel=1e-15)

    def test_wraps_at_period(self):
        assert time_signal(25, 25) == time_signal(0, 25)
        assert time_signal(26, 25) == time_signal(1, 25)
        assert time_signal(7, period=4) == time_signal(3, period=4)


class TestMissingBlock:
    def test_value(self):
        assert MISSING_BLOCK.tolist() == [0, 0, 0, 1, 0, 0, 0, 0]

    def test_frozen(self):
        with pytest.raises(ValueError):
            MISSING_BLOCK[0] = 1.0


class TestVoxelObservation:
    def test_at_rest(self, world, small_body):
        cell = small_body.occupied_cells[0]
        obs = observe_voxel(world, cell)
        assert np.allclose(obs.velocity, 0.0, atol=0)
        assert obs.volume == pytest.approx(1.0, abs=1e-12)
        material = int(small_body.grid[cell])
        assert obs.material.tolist() == [1.0 if i == material else 0.0 for i in range(5)]

    def test_missing_cell(self, world):
        obs = observe_voxel(world, (0, 0))
        assert obs.as_block().tolist() == MISSING_BLOCK.tolist()

    def test_velocity_is_corner_mean(self, world, small_body):
        cell = small_body.occupied_cells[0]
        vox = world.cells.index(cell)
        world.vel[world.corner_map[vox]] = [1.0, -2.0]
        obs = observe_voxel(world, cell)
        assert obs.velocity.tolist() == [1.0, -2.0]  # exact: 4 * 1.0 / 4 and 4 * -2.0 / 4

    def test_velocity_clamped(self, world, small_body):
        cell = small_body.occupied_cells[0]
        vox = world.cells.index(cell)
        world.vel[world.corner_map[vox]] = [100.0, -100.0]
        obs = observe_voxel(world, cell)
        assert obs.velocity.tolist() == [10.0, -10.0]

    def test_volume_tracks_deformation(self, world, small_body):
        cell = small_body.occupied_cells[0]
        vox = world.cells.index(cell)
        tl, tr, bl, br = world.corner_map[vox]
        world.pos[tl] = [0.0, 0.8]
        world.pos[tr] = [0.8, 0.8]
        world.pos[bl] = [0.0, 0.0]
        world.pos[br] = [0.8, 0.0]
        obs = observe_voxel(world, cell)
        assert obs.volume == pytest.approx(0.64, rel=1e-12)

    def test_block_layout(self, world, small_body):
        cell = small_body.occupied_cells[0]
        obs = observe_voxel(world, cell)
        block = obs.as_block()
        assert block.shape == (BLOCK_SIZE,)
        assert block[0] == obs.velocity[0]
        assert block[2] == obs.volume


class TestGlobalObservation:
    def test_shape_and_time_slot(self, joined):
        vec = global_input(joined, env_step=3)
        assert vec.shape == (201,)
        assert vec[-1] == time_signal(3, ObservationConfig().time_period)

    def test_empty_slots_hold_missing_block(self, joined, small_body):
        vec = global_input(joined, env_step=0)
        occupied = set(small_body.occupied_cells)
        for r in range(5):
            for c in range(5):
                block = vec[(r * 5 + c) * BLOCK_SIZE:(r * 5 + c + 1) * BLOCK_SIZE]
                if (r, c) in occupied:
                    assert block[3:].sum() == 1.0 and block[3] == 0.0
                else:
                    assert block.tolist() == MISSING_BLOCK.tolist()

    def test_blocks_match_per_voxel_view(self, world, joined, small_body):
        for _ in range(5):
            step_env(joined)
        vec = global_input(joined, env_step=5)
        for r, c in small_body.occupied_cells:
            start = (r * 5 + c) * BLOCK_SIZE
            block = vec[start:start + BLOCK_SIZE]
            assert np.allclose(block, observe_voxel(world, (r, c)).as_block(),
                               rtol=0, atol=1e-15)

    def test_shift_permutes_blocks(self, narrow_body):
        cfg = PhysicsConfig()
        shifted_grid = np.zeros((5, 5), dtype=np.int8)
        shifted_grid[:, 2:5] = narrow_body.grid[:, 0:3]
        shifted = Morphology(shifted_grid)
        w0 = join_worlds([build_world(narrow_body, cfg)])
        w2 = join_worlds([build_world(shifted, cfg)])
        v0 = global_input(w0, env_step=0)
        v2 = global_input(w2, env_step=0)
        for r in range(5):
            for c in range(3):
                a = v0[(r * 5 + c) * BLOCK_SIZE:(r * 5 + c + 1) * BLOCK_SIZE]
                b = v2[(r * 5 + c + 2) * BLOCK_SIZE:(r * 5 + c + 3) * BLOCK_SIZE]
                assert np.array_equal(a, b)
        assert v0[-1] == v2[-1]


class TestLocalObservation:
    def test_shape_and_center(self, world, joined):
        cell = world.actuator_cells[0]
        vec = window_row(joined, cell, env_step=0)
        assert vec.shape == (201,)
        center = (input_size(MODULAR_KIND, ObservationConfig()) - 1) // BLOCK_SIZE // 2
        block = vec[center * BLOCK_SIZE:(center + 1) * BLOCK_SIZE]
        assert np.allclose(block, observe_voxel(world, cell).as_block(),
                           rtol=0, atol=1e-15)

    def test_out_of_grid_is_missing(self, joined):
        # window rows above the grid must read as missing blocks
        cell = min(joined.actuator_cells)
        vec = window_row(joined, cell, env_step=0)
        first = vec[0:BLOCK_SIZE]
        assert first.tolist() == MISSING_BLOCK.tolist()

    def test_rows_are_actuators_only(self, joined):
        builder = ObservationBuilder(joined, (MODULAR_KIND,))
        matrix = member_inputs(builder, joined, env_step=0)
        assert matrix.shape == (len(joined.actuator_cells), 201)

    def test_translation_leaves_window_unchanged(self, narrow_body):
        cfg = PhysicsConfig()
        shifted_grid = np.zeros((5, 5), dtype=np.int8)
        shifted_grid[:, 1:4] = narrow_body.grid[:, 0:3]
        shifted = Morphology(shifted_grid)
        w0 = join_worlds([build_world(narrow_body, cfg)])
        w1 = join_worlds([build_world(shifted, cfg)])
        for (r0, c0), (r1, c1) in zip(sorted(w0.actuator_cells), sorted(w1.actuator_cells)):
            assert (r1, c1) == (r0, c0 + 1)
            v0 = window_row(w0, (r0, c0), env_step=4)
            v1 = window_row(w1, (r1, c1), env_step=4)
            assert np.array_equal(v0, v1)


class TestBuilder:
    def test_local_matrix_matches_vectors(self, world, joined):
        for _ in range(3):
            step_env(joined)
        builder = ObservationBuilder(joined, (MODULAR_KIND,))
        mat = member_inputs(builder, joined, env_step=2)
        cells = world.actuator_cells
        assert mat.shape == (len(cells), 201)
        for i, (r, c) in enumerate(cells):
            oracle = [observe_voxel(world, (wr, wc)).as_block()
                      for wr in range(r - 2, r + 3) for wc in range(c - 2, c + 3)]
            expected = np.append(np.concatenate(oracle),
                                 time_signal(2, ObservationConfig().time_period))
            assert np.allclose(mat[i], expected, rtol=0, atol=1e-15)

    def test_global_input_is_the_grid_centre_window(self, plus_body):
        # both layouts come from one window builder: the global input is the
        # modular row of an actuator at the grid centre, at d = GRID_SIZE // 2
        assert ObservationConfig().neighborhood_distance == GRID_SIZE // 2
        grid = plus_body.grid.copy()
        grid[2, 2] = H_ACTUATOR
        joined = join_worlds([build_world(Morphology(grid), PhysicsConfig())])
        for _ in range(3):
            step_env(joined)
        centre = window_row(joined, (2, 2), env_step=3)
        assert global_input(joined, env_step=3).tobytes() == centre.tobytes()

    # a builder takes its kinds from its controllers, and an unknown kind
    # is refused before any controller exists
    def test_unknown_kind_raises(self, joined):
        genome = init_controller(MODULAR_KIND, np.random.default_rng(0))
        with pytest.raises(ValueError, match="unknown controller kind 'central'"):
            ControllerBatch((dataclasses.replace(genome, kind="central"),), joined)

    def test_refresh_tracks_motion(self, joined):
        builder = ObservationBuilder(joined, (GLOBAL_KIND,))
        before = member_inputs(builder, joined, env_step=0).copy()
        for _ in range(3):
            step_env(joined)
        after = member_inputs(builder, joined, env_step=3)
        assert not np.array_equal(before, after)

    def test_reuse_equals_fresh_builder(self, joined):
        builder = ObservationBuilder(joined, (GLOBAL_KIND,))
        member_inputs(builder, joined, env_step=0)
        for _ in range(4):
            step_env(joined)
        reused = member_inputs(builder, joined, env_step=4)
        fresh = global_input(joined, env_step=4)
        assert np.array_equal(reused, fresh)

    # a builder keeps no world: built on one, it reads any joined world of
    # that body it is handed, here one joined from a member of another
    # batch, in another state
    @pytest.mark.parametrize("kind", KINDS)
    def test_builder_reads_the_world_it_is_handed(self, world, joined, small_body, kind):
        builder = ObservationBuilder(joined, (kind,))
        member_inputs(builder, joined, env_step=0)
        other = build_world(small_body, PhysicsConfig())
        batch = join_worlds([build_world(small_body, PhysicsConfig()), other])
        rng = np.random.default_rng(6)
        for step in range(50):
            if step % 4 == 0:
                apply_actuation(other, rng.random(len(other.actuator_cells)))
            step_env(batch)
        assert not np.array_equal(other.pos, world.pos)
        other_alone = join_worlds([other])
        read = member_inputs(builder, other_alone, env_step=50)
        fresh = member_inputs(ObservationBuilder(other_alone, (kind,)), other_alone,
                              env_step=50)
        assert read.tobytes() == fresh.tobytes()

    # the builder's inputs are its own buffers, refilled on each call: a
    # long-lived controller batch must act as a fresh one at every step
    @pytest.mark.parametrize("kind", KINDS)
    def test_long_lived_builder_acts_as_fresh_ones(self, joined, kind):
        controller = init_controller(kind, np.random.default_rng(5))
        batch = ControllerBatch((controller,), joined)
        for step in range(40):
            actions = act(batch, joined, step)
            fresh = act(ControllerBatch((controller,), joined), joined, step)
            assert actions.tobytes() == fresh.tobytes()
            apply_actuation(joined, actions)
            step_env(joined)


# corner velocities for the refresh's byte oracle: signed zeros, infinities
# (inf + -inf is NaN), NaNs of several payloads and signs (0x7ff4... is
# signaling), and values beyond the default clamp of 10
SPECIAL_VELOCITIES = np.concatenate([
    [0.0, -0.0, 1.5, -2.25, 37.0, -1e3, 1e308, np.inf, -np.inf],
    np.array([0x7FF8000000000001, 0xFFF8000000000002, 0x7FF4000000000003],
             dtype=np.uint64).view(np.float64),
])


class TestRefreshMatchesOracle:
    """The refresh sums the corner velocities corner-major, from +0.0; the
    oracle is the one `np.add.reduce` it replaced, which starts from its
    identity +0.0: byte for byte, four -0.0 corners give +0.0 and each NaN
    keeps the payload the reduction propagates."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("mixed", [False, True], ids=["one_body", "mixed_shapes"])
    def test_feature_matrix_bytes(self, small_body, plus_body, seed, mixed):
        cfg = PhysicsConfig()
        bodies = (small_body, plus_body, small_body) if mixed else (small_body,)
        joined = join_worlds([build_world(body, cfg) for body in bodies])
        kinds = (GLOBAL_KIND, MODULAR_KIND, GLOBAL_KIND)[:len(bodies)]
        builder = ObservationBuilder(joined, kinds)
        rng = np.random.default_rng(seed)
        shape = joined.vel.shape
        joined.vel[:] = np.where(rng.random(shape) < 0.6, rng.choice(SPECIAL_VELOCITIES, shape),
                                 rng.normal(0.0, 20.0, shape))
        # the first voxel's corners all -0.0; the last voxel's (of another
        # member when mixed) signed zeros mixed
        joined.vel[joined.corner_map[0]] = -0.0
        last = joined.corner_map[-1]
        joined.vel[last] = -0.0
        joined.vel[last[seed], seed % 2] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):  # as `act` runs it
            expected = oracle_refresh(builder, joined)
            builder.refresh(joined)
        assert builder._features.tobytes() == expected.tobytes()
        assert np.signbit(builder._features[0, 0:2]).tolist() == [False, False]
