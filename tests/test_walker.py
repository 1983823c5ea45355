
import dataclasses

import numpy as np
import pytest

import voxevo.walker
from voxevo.control import GLOBAL_KIND, MODULAR_KIND, ControllerGenome, init_controller
from voxevo.morphology import Morphology
from voxevo.physics import PhysicsConfig, build_world, center_of_mass
from voxevo.walker import (
    EpisodeConfig,
    EpisodeResult,
    episode_fitness,
    evaluate_fitness,
    run_episode,
    run_episodes,
)

from helpers import NO_CONTACT

GLIDE = PhysicsConfig(**NO_CONTACT)


def zero_controller():
    return ControllerGenome(MODULAR_KIND, W1=np.zeros((32, 201)), b1=np.zeros(32),
                            W2=np.zeros((1, 32)), b2=np.zeros(1))


class TestEpisodeConfig:
    def test_shift_constant_derived(self):
        cfg = EpisodeConfig()
        assert cfg.shift_constant == 5.0
        assert EpisodeConfig(max_steps=300).shift_constant == pytest.approx(3.0)

    def test_shift_constant_mismatch_raises(self):
        # derived only: it cannot be given, so it cannot disagree
        with pytest.raises(TypeError):
            EpisodeConfig(shift_constant=4.0)

    def test_shift_constant_is_read_only(self):
        cfg = EpisodeConfig(max_steps=200, step_penalty=0.02)
        assert cfg.shift_constant == 200 * 0.02
        with pytest.raises(AttributeError):
            cfg.shift_constant = 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EpisodeConfig(max_steps=0)
        with pytest.raises(ValueError):
            EpisodeConfig(action_repeat=0)

    # the shift must be a finite float, or every fitness is inf or nan; a
    # step count beyond the floats is refused, not raised as OverflowError
    @pytest.mark.parametrize("max_steps, step_penalty", [
        (2, -1e308), (10 ** 400, 0.01), (10 ** 400, 0.0)])
    def test_infinite_shift_constant_refused(self, max_steps, step_penalty):
        with pytest.raises(ValueError, match="^step_penalty times max_steps = "):
            EpisodeConfig(max_steps=max_steps, step_penalty=step_penalty)


class TestRewardFormula:
    def test_stationary_full_episode_scores_zero(self):
        assert episode_fitness(0.0, False, 500, EpisodeConfig()) == 0.0

    def test_reaching_end_example(self):
        assert episode_fitness(40.0, True, 300, EpisodeConfig()) == 43.0

    def test_decomposition_on_random_inputs(self, rng):
        cfg = EpisodeConfig()
        for _ in range(100):
            delta = float(rng.normal(0.0, 10.0))
            steps = int(rng.integers(1, 501))
            reached = bool(rng.random() < 0.5)
            r = episode_fitness(delta, reached, steps, cfg)
            assert r == delta + (1.0 if reached else 0.0) - 0.01 * steps + 5.0


class TestRunEpisode:
    def test_result_is_self_consistent(self, small_body, fast_episode):
        controller = init_controller(MODULAR_KIND, np.random.default_rng(0))
        result = run_episode(small_body, controller, fast_episode)
        assert not result.diverged
        assert result.steps_used == fast_episode.max_steps
        assert result.fitness == episode_fitness(
            result.delta_px, result.reached_end, result.steps_used, fast_episode)

    def test_exactly_stationary_episode_scores_zero(self, small_body):
        physics = PhysicsConfig(gravity=0.0, actuation_min=0.5, actuation_max=1.5,
                                **NO_CONTACT)
        result = run_episode(small_body, zero_controller(), physics_cfg=physics)
        assert result.delta_px == 0.0
        assert result.steps_used == 500
        assert result.fitness == 0.0

    def test_crossing_terrain_end_stops_early(self, small_body):
        start = center_of_mass(build_world(small_body, PhysicsConfig()))[0]
        cfg = EpisodeConfig(max_steps=50, terrain_end_x=float(start) - 1.0)
        controller = init_controller(MODULAR_KIND, np.random.default_rng(1))
        result = run_episode(small_body, controller, cfg)
        assert result.reached_end
        assert result.steps_used == 1
        assert result.fitness == episode_fitness(result.delta_px, True, 1, cfg)

    # the terrain check is skipped while every mass is well short of the end:
    # a batch still ends each body at the first step its centre of mass
    # reaches the end, a line at or left of the start included
    def test_batch_sees_the_terrain_end_at_the_step_it_is_reached(self, small_body,
                                                                  monkeypatch):
        real_build = voxevo.walker.build_world
        world = real_build(small_body, PhysicsConfig())

        def gliding(speeds):
            # bodies without ground contact sliding right at their own speeds
            speeds = iter(speeds)

            def build(body, cfg):
                glider = real_build(body, cfg)
                glider.vel[:, 0] = next(speeds)
                return glider
            monkeypatch.setattr(voxevo.walker, "build_world", build)

        def com_x(pos):
            world.pos[:] = pos
            return float(center_of_mass(world)[0])

        controllers = [init_controller(MODULAR_KIND, np.random.default_rng([9, i]))
                       for i in range(3)]
        bodies, speeds = (small_body,) * 3, (6.0, 8.0, 10.0)
        gliding(speeds)
        far = EpisodeConfig(max_steps=61, terrain_end_x=1e9)
        runs = run_episodes(bodies, controllers, far, physics_cfg=GLIDE, record=True)
        # centre of mass after each of 60 steps: frame t + 1 holds the state
        # after step t
        paths = [[com_x(frame) for frame in run.trajectory[1:]] for run in runs]
        for end in (6.0, 0.0, -1.0):
            gliding(speeds)
            cfg = EpisodeConfig(max_steps=60, terrain_end_x=end)
            results = run_episodes(bodies, controllers, cfg, physics_cfg=GLIDE)
            for path, result in zip(paths, results):
                reached = [step + 1 for step, x in enumerate(path) if x >= end]
                assert result.reached_end == bool(reached)
                assert result.steps_used == (reached[0] if reached else 60)
            if end > 0.0:  # the slowest body stays short, the others reach it midway
                assert [r.reached_end for r in results] == [False, True, True]
                assert 1 < results[2].steps_used < results[1].steps_used < 60

    def test_divergence_scores_floor(self, small_body, fast_episode):
        unstable = PhysicsConfig(physics_dt=0.05)
        controller = init_controller(MODULAR_KIND, np.random.default_rng(2))
        result = run_episode(small_body, controller, fast_episode, unstable)
        assert result.diverged
        assert result.fitness == -10.0
        assert result.delta_px is None
        assert 1 <= result.steps_used <= fast_episode.max_steps

    # one query per action step for the whole batch: the joined world of
    # every member, under controllers of both kinds
    def test_controller_queried_every_repeat_steps(self, small_body, monkeypatch):
        calls = []
        real_act = voxevo.walker.act

        def counting_act(batch, world, env_step):
            calls.append((env_step, len(world.members), batch.kind))
            return real_act(batch, world, env_step)

        monkeypatch.setattr(voxevo.walker, "act", counting_act)
        cfg = EpisodeConfig(max_steps=10, action_repeat=4)
        controllers = [init_controller(kind, np.random.default_rng(3))
                       for kind in (MODULAR_KIND, GLOBAL_KIND)]
        run_episodes((small_body,) * 2, controllers, cfg)
        assert calls == [(0, 2, None), (4, 2, None), (8, 2, None)]

    def test_recording(self, small_body, fast_episode):
        controller = init_controller(GLOBAL_KIND, np.random.default_rng(4))
        result = run_episode(small_body, controller, fast_episode, record=True)
        assert len(result.trajectory) == result.steps_used
        placement = build_world(small_body, PhysicsConfig()).pos
        assert np.array_equal(result.trajectory[0], placement)
        bare = run_episode(small_body, controller, fast_episode)
        assert bare.trajectory is None
        assert bare.fitness == result.fitness

    # a trajectory is a list of arrays, which == cannot compare; results
    # compare by their outcome alone
    def test_recorded_results_compare_by_outcome(self, small_body, fast_episode):
        controller = init_controller(MODULAR_KIND, np.random.default_rng(4))
        recorded = [run_episode(small_body, controller, fast_episode, record=True)
                    for _ in range(2)]
        assert recorded[0] == recorded[1]
        assert recorded[0] == run_episode(small_body, controller, fast_episode)

    def test_deterministic(self, small_body, fast_episode):
        controller = init_controller(MODULAR_KIND, np.random.default_rng(5))
        a = run_episode(small_body, controller, fast_episode)
        b = run_episode(small_body, controller, fast_episode)
        assert a.fitness == b.fitness
        assert a.delta_px == b.delta_px

    def test_both_controller_kinds_run(self, small_body, fast_episode):
        for kind in (GLOBAL_KIND, MODULAR_KIND):
            controller = init_controller(kind, np.random.default_rng(6))
            result = run_episode(small_body, controller, fast_episode)
            assert np.isfinite(result.fitness)

    def test_evaluate_fitness_matches_run(self, small_body, fast_episode):
        controller = init_controller(MODULAR_KIND, np.random.default_rng(7))
        assert evaluate_fitness(small_body, controller, fast_episode) == \
            run_episode(small_body, controller, fast_episode).fitness


def batch_body(rows):
    """A body from its grid rows {row: materials from column 0}."""
    grid = np.zeros((5, 5), dtype=np.int8)
    for r, materials in rows.items():
        grid[r, :len(materials)] = materials
    return Morphology(grid)


class TestBatchedEpisodes:
    # each member of a batch gets the bytes of its episode alone, results and
    # recorded frames, whatever shares the batch: both controller kinds (so
    # several forward-pass groups), modular bodies of 1, 2 and 3 actuators,
    # repeated body shapes, and a member that diverges and one that reaches
    # the terrain end, each making the batch join again, in either order
    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
    def test_members_have_the_bytes_of_their_episodes_alone(self, small_body, reverse):
        soft = batch_body({3: [3, 2, 4], 4: [2, 2, 2]})
        one = batch_body({3: [3], 4: [2, 2]})
        three = batch_body({3: [3, 4, 3], 4: [2, 2, 2]})
        narrow = batch_body({3: [3], 4: [4]})
        wide = batch_body({4: [2, 3, 2, 4, 2]})  # starts with its centre of mass at 2.5
        # small_body diverges under this rigid stiffness; no other body has
        # a rigid voxel
        physics = PhysicsConfig(rigid_stiffness=6e7)
        episode = EpisodeConfig(max_steps=60, terrain_end_x=2.0)
        members = [(small_body, MODULAR_KIND), (wide, GLOBAL_KIND), (soft, MODULAR_KIND),
                   (one, MODULAR_KIND), (soft, GLOBAL_KIND), (three, MODULAR_KIND),
                   (narrow, GLOBAL_KIND), (soft, MODULAR_KIND), (one, GLOBAL_KIND)]
        bodies = [body for body, _ in members]
        controllers = [init_controller(kind, np.random.default_rng([50, i]))
                       for i, (_, kind) in enumerate(members)]
        alone = [run_episode(body, controller, episode, physics, record=True)
                 for body, controller in zip(bodies, controllers)]
        assert [(r.diverged, r.reached_end, r.steps_used) for r in alone[:2]] == [
            (True, False, 8), (False, True, 1)]
        assert all(not (r.diverged or r.reached_end) for r in alone[2:])
        order = list(range(len(members)))[::-1 if reverse else 1]
        batch = run_episodes(tuple(bodies[i] for i in order),
                             tuple(controllers[i] for i in order), episode, physics, record=True)
        for i, result in zip(order, batch):
            assert result == alone[i], i
            assert [f.tobytes() for f in result.trajectory] == [
                f.tobytes() for f in alone[i].trajectory], i

    # a network that overflows gives NaN actions: its body leaves the batch
    # as diverged before the step it would act on, which it does not
    # simulate, and the others run on with the bytes of their episodes alone
    def test_an_overflowing_controller_diverges_only_its_body(self, small_body, plus_body,
                                                              fast_episode):
        bodies = (small_body, plus_body, small_body)
        controllers = [init_controller(MODULAR_KIND, np.random.default_rng([60, i]))
                       for i in range(3)]
        bad = controllers[1]
        controllers[1] = dataclasses.replace(bad, W1=bad.W1 * 1e300, W2=bad.W2 * 1e300)
        results = run_episodes(bodies, controllers, fast_episode, record=True)
        diverged = results[1]
        assert diverged == EpisodeResult(fast_episode.divergence_floor, None, False, 0, True)
        assert diverged.trajectory == []
        for i in (0, 2):
            alone = run_episode(bodies[i], controllers[i], fast_episode, record=True)
            assert results[i] == alone
            assert [f.tobytes() for f in results[i].trajectory] == [
                f.tobytes() for f in alone.trajectory]


class TestMalformedBatches:
    # one controller per body: an extra controller is not dropped and a
    # missing one is not an IndexError
    @pytest.mark.parametrize("n_bodies, n_controllers", [(1, 3), (3, 1), (0, 1)])
    def test_refuses_unequal_counts(self, small_body, fast_episode, n_bodies, n_controllers):
        controllers = [init_controller(MODULAR_KIND, np.random.default_rng([10, i]))
                       for i in range(n_controllers)]
        with pytest.raises(ValueError,
                           match=f"^{n_bodies} bodies but {n_controllers} controllers$"):
            run_episodes((small_body,) * n_bodies, tuple(controllers), fast_episode)


class TestResultType:
    def test_frozen(self, small_body, fast_episode):
        controller = init_controller(MODULAR_KIND, np.random.default_rng(8))
        result = run_episode(small_body, controller, fast_episode)
        with pytest.raises(Exception):
            result.fitness = 0.0
        assert isinstance(result, EpisodeResult)
