import dataclasses

import numpy as np
import pytest

from voxevo.control import (
    DEFAULT_INPUT_SIZE,
    GLOBAL_OUTPUT_SIZE,
    HIDDEN_UNITS,
    MODULAR_OUTPUT_SIZE,
    ControllerBatch,
    ControllerGenome,
    act,
    genome_from_flat,
    init_controller,
    mutate_controller,
    output_size,
)
from voxevo.morphology import GRID_SIZE
from voxevo.physics import PhysicsConfig, apply_actuation, build_world, join_worlds, step_env
from voxevo.sensing import GLOBAL_KIND, MODULAR_KIND, ObservationConfig, input_size

from helpers import member_inputs, mlp_forward


def manual_forward(genome, x):
    h = np.maximum(genome.W1 @ x + genome.b1, 0.0)
    z = genome.W2 @ h + genome.b2
    return 1.0 / (1.0 + np.exp(-z))


class TestParamCounts:
    def test_global(self):
        genome = init_controller(GLOBAL_KIND, np.random.default_rng(0))
        assert genome.to_flat().size == 7289

    def test_modular(self):
        genome = init_controller(MODULAR_KIND, np.random.default_rng(0))
        assert genome.to_flat().size == 6497

    def test_counts_follow_architecture(self):
        n_in, h = DEFAULT_INPUT_SIZE, HIDDEN_UNITS
        assert (n_in + 1) * h + (h + 1) * GLOBAL_OUTPUT_SIZE == 7289
        assert (n_in + 1) * h + (h + 1) * MODULAR_OUTPUT_SIZE == 6497


def zero_genome(kind=MODULAR_KIND, hidden=HIDDEN_UNITS, n_in=DEFAULT_INPUT_SIZE, **arrays):
    """The all-zero `kind` controller of the given widths, with any layer
    replaced by the arrays given."""
    n_out = output_size(kind)
    layers = {"W1": np.zeros((hidden, n_in)), "b1": np.zeros(hidden),
              "W2": np.zeros((n_out, hidden)), "b2": np.zeros(n_out)}
    return ControllerGenome(kind, **(layers | arrays))


class TestGenome:
    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="inconsistent layer shapes"):
            zero_genome(b1=np.zeros(31))

    def test_non_finite_raises(self):
        w1 = np.zeros((32, 201))
        w1[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            zero_genome(W1=w1)

    # init, mutation and the checkpoint layout know one hidden width
    @pytest.mark.parametrize("kind", [GLOBAL_KIND, MODULAR_KIND])
    @pytest.mark.parametrize("hidden", [1, 31, 33])
    def test_other_hidden_width_raises(self, kind, hidden):
        with pytest.raises(ValueError, match="a controller has 32 hidden units, got "
                                             f"{hidden}"):
            zero_genome(kind, hidden)

    def test_arrays_frozen(self):
        genome = init_controller(MODULAR_KIND, np.random.default_rng(0))
        with pytest.raises(ValueError):
            genome.W1[0, 0] = 1.0

    # the genome froze and shared the caller's arrays, so a write to one
    # changed the controller
    def test_arrays_are_copies_of_the_callers(self):
        rng = np.random.default_rng(0)
        arrays = {"W1": rng.normal(size=(32, 201)), "b1": rng.normal(size=32),
                  "W2": rng.normal(size=(1, 32)), "b2": rng.normal(size=1)}
        genome = ControllerGenome(MODULAR_KIND, **arrays)
        before = genome.to_flat()
        for a in arrays.values():
            assert a.flags.writeable
            a[...] = 7.0
        assert genome.to_flat().tobytes() == before.tobytes()
        base = before.copy()
        again = genome_from_flat(MODULAR_KIND, base)
        base[0] = 7.0
        assert again.W1[0, 0] == before[0]

    def test_flat_round_trip(self):
        for kind in (GLOBAL_KIND, MODULAR_KIND):
            for distance in range(GRID_SIZE):
                n_in = input_size(kind, ObservationConfig(neighborhood_distance=distance))
                genome = init_controller(kind, np.random.default_rng(3), n_in)
                flat = genome.to_flat()
                n_out = output_size(kind)
                assert flat.shape == ((n_in + 1) * HIDDEN_UNITS + (HIDDEN_UNITS + 1) * n_out,)
                again = genome_from_flat(kind, flat)
                assert again.kind == kind and again.n_inputs == n_in
                for name in ("W1", "b1", "W2", "b2"):
                    a, b = getattr(genome, name), getattr(again, name)
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_flat_length_checked(self):
        # 65 parameters fit a network of no inputs; 6496 and 6498 fall
        # between the counts of 201 inputs and its neighbours
        for count in (0, 10, 65, 6496, 6498):
            with pytest.raises(ValueError, match=f"{count} parameters do not fit a modular "
                                                 "controller with 32 hidden units"):
                genome_from_flat(MODULAR_KIND, np.zeros(count))


class TestForward:
    def test_matches_plain_formula(self, rng):
        genome = init_controller(MODULAR_KIND, np.random.default_rng(5))
        x = rng.normal(0.0, 1.0, size=DEFAULT_INPUT_SIZE)
        out = mlp_forward(genome, x)
        assert out.shape == (1,)
        assert np.allclose(out, manual_forward(genome, x), rtol=0, atol=1e-12)

    def test_outputs_in_unit_interval(self, rng):
        genome = init_controller(GLOBAL_KIND, np.random.default_rng(6))
        for scale in (1.0, 100.0, 10000.0):
            out = mlp_forward(genome, rng.normal(0.0, scale, DEFAULT_INPUT_SIZE))
            assert np.all(out >= 0.0) and np.all(out <= 1.0)
            assert np.all(np.isfinite(out))

    def test_extreme_logits_do_not_overflow(self):
        # every hidden unit reads 5000, so the one logit is -32 * 5000
        genome = zero_genome(n_in=1, W1=np.ones((HIDDEN_UNITS, 1)),
                             W2=np.full((1, HIDDEN_UNITS), -1.0))
        with np.errstate(over="raise"):
            out = mlp_forward(genome, np.array([5000.0]))
        assert 0.0 <= out[0] < 1e-300 or out[0] == 0.0

    def test_zero_params_give_half(self):
        out = mlp_forward(zero_genome(), np.ones(201))
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
        r1 = 1.0 / np.sqrt(DEFAULT_INPUT_SIZE)
        r2 = 1.0 / np.sqrt(HIDDEN_UNITS)
        assert np.abs(genome.W1).max() <= r1 and np.abs(genome.b1).max() <= r1
        assert np.abs(genome.W2).max() <= r2 and np.abs(genome.b2).max() <= r2

    def test_reproducible(self):
        a = init_controller(MODULAR_KIND, np.random.default_rng(42))
        b = init_controller(MODULAR_KIND, np.random.default_rng(42))
        assert np.array_equal(a.to_flat(), b.to_flat())

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            init_controller("central", np.random.default_rng(0))

    def test_kind_output_consistency_enforced(self):
        modular = init_controller(MODULAR_KIND, np.random.default_rng(0))
        with pytest.raises(ValueError):
            dataclasses.replace(modular, kind=GLOBAL_KIND)


class TestMutation:
    def test_noise_statistics(self):
        genome = init_controller(MODULAR_KIND, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        deltas = []
        for _ in range(8):
            child = mutate_controller(genome, rng, 0.1)
            deltas.append(child.to_flat() - genome.to_flat())
        pooled = np.concatenate(deltas)
        assert 0.098 < pooled.std() < 0.102
        assert abs(pooled.mean()) < 0.001

    def test_custom_sigma(self):
        genome = init_controller(MODULAR_KIND, np.random.default_rng(1))
        child = mutate_controller(genome, np.random.default_rng(2), sigma=0.0)
        assert np.array_equal(child.to_flat(), genome.to_flat())

    def test_parent_untouched(self):
        genome = init_controller(GLOBAL_KIND, np.random.default_rng(1))
        before = genome.to_flat()
        mutate_controller(genome, np.random.default_rng(3), 0.1)
        assert np.array_equal(genome.to_flat(), before)

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
        full = mlp_forward(genome, member_inputs(batch.builder, joined, 0))
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
            expected = mlp_forward(genome, window)
            assert a == pytest.approx(expected[0], rel=1e-12)

    def test_dispatcher_routes_by_kind(self, small_body):
        world = build_world(small_body, PhysicsConfig())
        raster = [r * GRID_SIZE + c for r, c in world.actuator_cells]
        for kind in (GLOBAL_KIND, MODULAR_KIND):
            genome = init_controller(kind, np.random.default_rng(12))
            joined, batch = batch_of_one(genome, world)
            inputs = member_inputs(batch.builder, joined, 0)
            if kind == GLOBAL_KIND:
                direct = mlp_forward(genome, inputs)[raster]
            else:
                direct = np.array([mlp_forward(genome, x)[0] for x in inputs])
            assert np.allclose(act(batch, joined, 0), direct, rtol=1e-12, atol=0)

    def test_kind_mismatch_raises(self, small_body):
        world = build_world(small_body, PhysicsConfig())
        modular = init_controller(MODULAR_KIND, np.random.default_rng(0))
        # a genome cannot carry the other kind's output layer ...
        with pytest.raises(ValueError):
            dataclasses.replace(modular, kind=GLOBAL_KIND)
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
