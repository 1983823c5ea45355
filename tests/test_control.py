import numpy as np
import pytest

from voxevo.control import (
    DEFAULT_INPUT_SIZE,
    GLOBAL_KIND,
    GLOBAL_OUTPUT_SIZE,
    HIDDEN_UNITS,
    MODULAR_KIND,
    MODULAR_OUTPUT_SIZE,
    ControllerBatch,
    ControllerGenome,
    MlpParams,
    act,
    init_controller,
    mutate_controller,
    params_from_flat,
)
from voxevo.morphology import GRID_SIZE
from voxevo.physics import PhysicsConfig, apply_actuation, build_world, join_worlds, step_env
from voxevo.sensing import ObservationConfig

from helpers import member_inputs, mlp_forward


def manual_forward(params, x):
    h = np.maximum(params.W1 @ x + params.b1, 0.0)
    z = params.W2 @ h + params.b2
    return 1.0 / (1.0 + np.exp(-z))


class TestParamCounts:
    def test_global(self):
        genome = init_controller(GLOBAL_KIND, np.random.default_rng(0))
        assert genome.params.n_params == 7289

    def test_modular(self):
        genome = init_controller(MODULAR_KIND, np.random.default_rng(0))
        assert genome.params.n_params == 6497

    def test_counts_follow_architecture(self):
        n_in, h = DEFAULT_INPUT_SIZE, HIDDEN_UNITS
        assert (n_in + 1) * h + (h + 1) * GLOBAL_OUTPUT_SIZE == 7289
        assert (n_in + 1) * h + (h + 1) * MODULAR_OUTPUT_SIZE == 6497


class TestMlpParams:
    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            MlpParams(W1=np.zeros((32, 201)), b1=np.zeros(31),
                      W2=np.zeros((1, 32)), b2=np.zeros(1))

    def test_non_finite_raises(self):
        w1 = np.zeros((32, 201))
        w1[0, 0] = np.nan
        with pytest.raises(ValueError):
            MlpParams(W1=w1, b1=np.zeros(32), W2=np.zeros((1, 32)), b2=np.zeros(1))

    def test_arrays_frozen(self):
        genome = init_controller(MODULAR_KIND, np.random.default_rng(0))
        with pytest.raises(ValueError):
            genome.params.W1[0, 0] = 1.0

    def test_flat_round_trip(self):
        genome = init_controller(GLOBAL_KIND, np.random.default_rng(3))
        flat = genome.params.to_flat()
        assert flat.shape == (7289,)
        again = params_from_flat(flat, DEFAULT_INPUT_SIZE, HIDDEN_UNITS,
                                 GLOBAL_OUTPUT_SIZE)
        assert np.array_equal(again.to_flat(), flat)

    def test_flat_length_checked(self):
        with pytest.raises(ValueError):
            params_from_flat(np.zeros(10), DEFAULT_INPUT_SIZE, HIDDEN_UNITS, 1)


class TestForward:
    def test_matches_plain_formula(self, rng):
        genome = init_controller(MODULAR_KIND, np.random.default_rng(5))
        x = rng.normal(0.0, 1.0, size=DEFAULT_INPUT_SIZE)
        out = mlp_forward(genome.params, x)
        assert out.shape == (1,)
        assert np.allclose(out, manual_forward(genome.params, x), rtol=0, atol=1e-12)

    def test_outputs_in_unit_interval(self, rng):
        genome = init_controller(GLOBAL_KIND, np.random.default_rng(6))
        for scale in (1.0, 100.0, 10000.0):
            out = mlp_forward(genome.params, rng.normal(0.0, scale, DEFAULT_INPUT_SIZE))
            assert np.all(out >= 0.0) and np.all(out <= 1.0)
            assert np.all(np.isfinite(out))

    def test_extreme_logits_do_not_overflow(self):
        params = MlpParams(W1=np.eye(1) * 1.0, b1=np.zeros(1),
                           W2=np.full((1, 1), -1.0), b2=np.zeros(1))
        with np.errstate(over="raise"):
            out = mlp_forward(params, np.array([5000.0]))
        assert 0.0 <= out[0] < 1e-300 or out[0] == 0.0

    def test_zero_params_give_half(self):
        params = MlpParams(W1=np.zeros((32, 201)), b1=np.zeros(32),
                           W2=np.zeros((1, 32)), b2=np.zeros(1))
        out = mlp_forward(params, np.ones(201))
        assert out[0] == 0.5

    # the forward pass takes no input of another width: a controller that
    # does not fit its layout is refused when its batch is built
    def test_wrong_input_length_raises(self, small_body):
        genome = init_controller(MODULAR_KIND, np.random.default_rng(0), n_inputs=200)
        joined = join_worlds([build_world(small_body, PhysicsConfig())])
        with pytest.raises(ValueError, match="expected inputs of length 200, got 201"):
            ControllerBatch((genome,), joined)


class TestInit:
    def test_uniform_bounds(self):
        genome = init_controller(GLOBAL_KIND, np.random.default_rng(9))
        p = genome.params
        r1 = 1.0 / np.sqrt(DEFAULT_INPUT_SIZE)
        r2 = 1.0 / np.sqrt(HIDDEN_UNITS)
        assert np.abs(p.W1).max() <= r1 and np.abs(p.b1).max() <= r1
        assert np.abs(p.W2).max() <= r2 and np.abs(p.b2).max() <= r2

    def test_reproducible(self):
        a = init_controller(MODULAR_KIND, np.random.default_rng(42))
        b = init_controller(MODULAR_KIND, np.random.default_rng(42))
        assert np.array_equal(a.params.to_flat(), b.params.to_flat())

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            init_controller("central", np.random.default_rng(0))

    def test_kind_output_consistency_enforced(self):
        modular = init_controller(MODULAR_KIND, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ControllerGenome(GLOBAL_KIND, modular.params)


class TestMutation:
    def test_noise_statistics(self):
        genome = init_controller(MODULAR_KIND, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        deltas = []
        for _ in range(8):
            child = mutate_controller(genome, rng, 0.1)
            deltas.append(child.params.to_flat() - genome.params.to_flat())
        pooled = np.concatenate(deltas)
        assert 0.098 < pooled.std() < 0.102
        assert abs(pooled.mean()) < 0.001

    def test_custom_sigma(self):
        genome = init_controller(MODULAR_KIND, np.random.default_rng(1))
        child = mutate_controller(genome, np.random.default_rng(2), sigma=0.0)
        assert np.array_equal(child.params.to_flat(), genome.params.to_flat())

    def test_parent_untouched(self):
        genome = init_controller(GLOBAL_KIND, np.random.default_rng(1))
        before = genome.params.to_flat()
        mutate_controller(genome, np.random.default_rng(3), 0.1)
        assert np.array_equal(genome.params.to_flat(), before)

    def test_negative_sigma_raises(self):
        genome = init_controller(MODULAR_KIND, np.random.default_rng(1))
        with pytest.raises(ValueError):
            mutate_controller(genome, np.random.default_rng(0), sigma=-0.1)

    def test_kind_preserved(self):
        for kind in (GLOBAL_KIND, MODULAR_KIND):
            genome = init_controller(kind, np.random.default_rng(4))
            assert mutate_controller(genome, np.random.default_rng(5), 0.1).kind == kind


def batch_of_one(genome, world, obs_cfg=None):
    """The joined world of `world` alone and `genome`'s batch on it."""
    joined = join_worlds([world])
    return joined, ControllerBatch((genome,), joined, obs_cfg)


class TestActing:
    def test_global_uses_raster_indexed_outputs(self, small_body):
        world = build_world(small_body, PhysicsConfig())
        genome = init_controller(GLOBAL_KIND, np.random.default_rng(10))
        joined, batch = batch_of_one(genome, world)
        actions = act(batch, joined, env_step=0)
        assert actions.shape == (len(world.actuator_cells),)
        full = mlp_forward(genome.params, member_inputs(batch.builder, joined, 0))
        for (r, c), a in zip(world.actuator_cells, actions):
            assert a == full[r * 5 + c]

    def test_modular_shares_parameters_across_windows(self, small_body):
        world = build_world(small_body, PhysicsConfig())
        genome = init_controller(MODULAR_KIND, np.random.default_rng(11))
        joined, batch = batch_of_one(genome, world)
        actions = act(batch, joined, env_step=0)
        windows = member_inputs(batch.builder, joined, 0)
        assert actions.shape == (len(world.actuator_cells),)
        assert windows.shape[0] == len(world.actuator_cells)
        for window, a in zip(windows, actions):
            expected = mlp_forward(genome.params, window)
            assert a == pytest.approx(expected[0], rel=1e-12)

    def test_dispatcher_routes_by_kind(self, small_body):
        world = build_world(small_body, PhysicsConfig())
        raster = [r * GRID_SIZE + c for r, c in world.actuator_cells]
        for kind in (GLOBAL_KIND, MODULAR_KIND):
            genome = init_controller(kind, np.random.default_rng(12))
            joined, batch = batch_of_one(genome, world)
            inputs = member_inputs(batch.builder, joined, 0)
            if kind == GLOBAL_KIND:
                direct = mlp_forward(genome.params, inputs)[raster]
            else:
                direct = np.array([mlp_forward(genome.params, x)[0] for x in inputs])
            assert np.allclose(act(batch, joined, 0), direct, rtol=1e-12, atol=0)

    def test_kind_mismatch_raises(self, small_body):
        world = build_world(small_body, PhysicsConfig())
        modular = init_controller(MODULAR_KIND, np.random.default_rng(0))
        # a genome cannot carry the other kind's output layer ...
        with pytest.raises(ValueError):
            ControllerGenome(GLOBAL_KIND, modular.params)
        # ... and a window layout of another size is refused, not misread
        with pytest.raises(ValueError, match="expected inputs of length 201, got 73"):
            batch_of_one(modular, world, ObservationConfig(neighborhood_distance=1))

    # one batch holds one controller per member of its joined world
    def test_controller_count_must_match_the_members(self, small_body):
        genome = init_controller(MODULAR_KIND, np.random.default_rng(0))
        joined = join_worlds([build_world(small_body, PhysicsConfig()) for _ in range(2)])
        for controllers in ((genome,), (genome,) * 3):
            with pytest.raises(ValueError, match=f"{len(controllers)} controllers for 2 worlds"):
                ControllerBatch(controllers, joined)

    def test_actions_lie_in_unit_interval(self, small_body):
        world = build_world(small_body, PhysicsConfig())
        for kind in (GLOBAL_KIND, MODULAR_KIND):
            genome = init_controller(kind, np.random.default_rng(13))
            joined, batch = batch_of_one(genome, world)
            actions = act(batch, joined, 0)
            assert actions.dtype == np.float64
            assert np.all((actions >= 0.0) & (actions <= 1.0))

    # act observes the joined world it is given, through a batch built on
    # any joined world of that body
    def test_acts_on_the_world_it_is_given(self, small_body):
        world, other = (build_world(small_body, PhysicsConfig()) for _ in range(2))
        joined, joined_other = join_worlds([world]), join_worlds([other])
        for _ in range(30):
            apply_actuation(other, np.full(len(other.actuator_cells), 0.9))
            step_env(joined_other)
        for kind in (GLOBAL_KIND, MODULAR_KIND):
            genome = init_controller(kind, np.random.default_rng(14))
            batch = ControllerBatch((genome,), joined)
            actions = act(batch, joined_other, 30)
            fresh = act(ControllerBatch((genome,), joined_other), joined_other, 30)
            assert actions.tobytes() == fresh.tobytes()
            assert actions.tobytes() != act(batch, joined, 30).tobytes()
