
import numpy as np
import pytest

import voxevo.walker
from voxevo.control import GLOBAL_KIND, MODULAR_KIND, MlpParams, ControllerGenome, init_controller
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

GLIDE = PhysicsConfig(contact=NO_CONTACT)


def zero_controller():
    return ControllerGenome(MODULAR_KIND, MlpParams(
        W1=np.zeros((32, 201)), b1=np.zeros(32),
        W2=np.zeros((1, 32)), b2=np.zeros(1)))


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
                                contact=NO_CONTACT)
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
            world.pos = pos
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

    def test_controller_queried_every_repeat_steps(self, small_body, monkeypatch):
        calls = []
        real_act = voxevo.walker.act

        def counting_act(genome, world, env_step, builder):
            calls.append(env_step)
            return real_act(genome, world, env_step, builder)

        monkeypatch.setattr(voxevo.walker, "act", counting_act)
        cfg = EpisodeConfig(max_steps=10, action_repeat=4)
        run_episode(small_body, init_controller(MODULAR_KIND, np.random.default_rng(3)), cfg)
        assert calls == [0, 4, 8]

    def test_recording(self, small_body, fast_episode):
        controller = init_controller(GLOBAL_KIND, np.random.default_rng(4))
        result = run_episode(small_body, controller, fast_episode, record=True)
        assert len(result.trajectory) == result.steps_used
        placement = build_world(small_body, PhysicsConfig()).pos
        assert np.array_equal(result.trajectory[0], placement)
        bare = run_episode(small_body, controller, fast_episode)
        assert bare.trajectory is None
        assert bare.fitness == result.fitness

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


class TestResultType:
    def test_frozen(self, small_body, fast_episode):
        controller = init_controller(MODULAR_KIND, np.random.default_rng(8))
        result = run_episode(small_body, controller, fast_episode)
        with pytest.raises(Exception):
            result.fitness = 0.0
        assert isinstance(result, EpisodeResult)
