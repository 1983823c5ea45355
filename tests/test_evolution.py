import dataclasses
import math
import re

import numpy as np
import pytest

import voxevo.evolution
import voxevo.walker
from voxevo.control import GLOBAL_KIND, MODULAR_KIND, init_controller
from voxevo.evolution import (
    KIND_BODY,
    KIND_BRAIN,
    KIND_FRESH,
    MAX_POPULATION,
    Evaluator,
    Individual,
    OffspringRecord,
    RunState,
    dominates,
    evaluation_bodies,
    evolve_generation,
    initial_population,
    make_offspring,
    pareto_rank,
    run_evolution,
    score,
    select_survivors,
)
from voxevo.experiments import CATALOG_ORDER, default_catalog
from voxevo.morphology import Morphology, MutationFailedError, random_morphology
from voxevo.physics import PhysicsConfig
from voxevo.runconfig import RunConfig
from voxevo.walker import (
    EpisodeConfig,
    EpisodeResult,
    evaluate_fitness,
    run_episode,
    run_episodes,
)

from helpers import run_to_end


def stub_individual(age, fitness, ident=0):
    """Selection operates on (age, fitness, id) only, so reuse one genome."""
    morph = random_morphology(np.random.default_rng(0))
    ctrl = init_controller(MODULAR_KIND, np.random.default_rng(0))
    return Individual(morphology=morph, controller=ctrl, age=age, id=ident,
                      parent_id=None, mutation_kind=KIND_FRESH,
                      parent_fitness_at_birth=None, fitness=fitness)


@pytest.fixture
def parent(small_body):
    ind = stub_individual(age=2, fitness=1.5, ident=7)
    return dataclasses.replace(ind, morphology=small_body)


class TestConfigValidation:
    def test_rejects_bad_values(self, small_body):
        with pytest.raises(ValueError):
            RunConfig(mu=0)
        with pytest.raises(ValueError):
            RunConfig(p_body_mutation=1.5)

    # None co-evolves the body; an empty catalog would score on no body
    def test_rejects_empty_catalog(self):
        with pytest.raises(ValueError, match="catalog"):
            RunConfig(catalog=())

    # a body named twice was scored twice
    def test_rejects_repeated_catalog_body(self, small_body, plus_body):
        with pytest.raises(ValueError, match="^catalog must be None or non-empty and distinct"):
            RunConfig(catalog=(small_body, plus_body, small_body))

    # a non-finite sigma would reach the first generation's controller mutation
    @pytest.mark.parametrize("sigma", [-1.0, math.inf, math.nan])
    def test_rejects_bad_controller_sigma(self, sigma):
        with pytest.raises(ValueError, match="controller_sigma"):
            RunConfig(controller_sigma=sigma)

    # np.random.SeedSequence rejects it only once the first generation draws
    def test_rejects_negative_master_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            RunConfig(seed=-1)

    # a file rejects each of these at its line; the dataclass rejects them too
    @pytest.mark.parametrize("field, value, message", [
        ("paradigm", "foo", "paradigm must be one of"),
        ("generations", 0, "generations must be >= 1"),
        ("checkpoint_every", -3, "checkpoint_every must be >= 0"),
        # a population checkpoint records its count in 16 bits
        ("mu", MAX_POPULATION + 1, f"mu must be >= 1 and at most {MAX_POPULATION}"),
    ])
    def test_rejects_what_a_config_file_rejects(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(**{field: value})

    def test_brain_only_property(self, small_body):
        assert not RunConfig().brain_only
        assert RunConfig(catalog=(small_body,)).brain_only


class TestDominance:
    def test_younger_and_fitter_dominates(self):
        assert dominates(stub_individual(0, 5.0), stub_individual(1, 3.0))

    def test_equal_pair_does_not_dominate(self):
        a, b = stub_individual(1, 2.0), stub_individual(1, 2.0)
        assert not dominates(a, b) and not dominates(b, a)

    def test_tradeoff_is_incomparable(self):
        a, b = stub_individual(0, 3.0), stub_individual(1, 5.0)
        assert not dominates(a, b) and not dominates(b, a)

    def test_same_age_higher_fitness_dominates(self):
        assert dominates(stub_individual(1, 5.0), stub_individual(1, 3.0))


class TestParetoRank:
    def test_three_point_example(self):
        a = stub_individual(0, 5.0, ident=0)
        b = stub_individual(1, 10.0, ident=1)
        c = stub_individual(1, 3.0, ident=2)
        fronts = pareto_rank([a, b, c])
        assert [sorted(i.id for i in front) for front in fronts] == [[0, 1], [2]]

    def test_requires_fitness(self):
        bad = stub_individual(0, None)
        with pytest.raises(ValueError):
            pareto_rank([bad])

    def test_fronts_partition_pool(self, rng):
        pool = [stub_individual(int(rng.integers(0, 6)), float(rng.normal()), i)
                for i in range(40)]
        fronts = pareto_rank(pool)
        ids = sorted(i.id for front in fronts for i in front)
        assert ids == list(range(40))

    # each front is what no member of it or of a later front dominates, and
    # each of a later front's members is dominated from the front before
    def test_fronts_are_the_non_dominated_layers_in_pool_order(self, rng):
        base = stub_individual(0, 0.0)
        for _ in range(50):
            pool = [dataclasses.replace(base, age=int(rng.integers(0, 4)),
                                        fitness=float(rng.integers(0, 5)), id=i)
                    for i in range(int(rng.integers(1, 34)))]
            fronts = pareto_rank(pool)
            for k, front in enumerate(fronts):
                assert [i.id for i in front] == sorted(i.id for i in front)
                rest = [i for later in fronts[k:] for i in later]
                assert not any(dominates(b, a) for a in front for b in rest)
                if k:
                    assert all(any(dominates(b, a) for b in fronts[k - 1]) for a in front)


class TestSurvivorSelection:
    def test_small_pool_passes_through(self):
        pool = [stub_individual(0, 1.0, 0), stub_individual(1, 2.0, 1)]
        assert select_survivors(pool, 5) == pool

    def test_last_front_ordering(self):
        # one front, mu smaller: highest fitness first, ties by age then id
        pool = [
            stub_individual(0, 1.0, 0),
            stub_individual(1, 2.0, 1),
            stub_individual(2, 3.0, 2),
            stub_individual(3, 4.0, 3),
        ]
        chosen = select_survivors(pool, 2)
        assert [i.id for i in chosen] == [3, 2]

    def test_invariants_on_random_pools(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            ages = rng.integers(0, 5, size=33)
            fits = np.round(rng.normal(0.0, 3.0, size=33), 3)
            pool = [stub_individual(int(a), float(f), i)
                    for i, (a, f) in enumerate(zip(ages, fits))]
            mu = int(rng.integers(1, 33))
            survivors = select_survivors(pool, mu)
            assert len(survivors) == mu
            best = max(pool, key=lambda ind: ind.fitness)
            youngest = min(ind.age for ind in pool)
            assert any(ind.fitness == best.fitness for ind in survivors)
            if len(set(ages.tolist())) <= mu:
                assert any(ind.age == youngest for ind in survivors)


class TestOffspring:
    def test_mutates_exactly_one_half(self, parent):
        cfg = RunConfig()
        saw = {KIND_BODY: 0, KIND_BRAIN: 0}
        for seed in range(60):
            child = make_offspring(parent, cfg, np.random.default_rng(seed), 100 + seed)
            saw[child.mutation_kind] += 1
            if child.mutation_kind == KIND_BODY:
                assert child.controller is parent.controller
                assert child.morphology != parent.morphology
            else:
                assert child.morphology is parent.morphology
                assert not np.array_equal(child.controller.to_flat(),
                                          parent.controller.to_flat())
            assert child.age == 0
            assert child.parent_id == parent.id
            assert child.parent_fitness_at_birth == parent.fitness
            assert child.fitness is None
        assert saw[KIND_BODY] > 10 and saw[KIND_BRAIN] > 10

    def test_brain_only_modes_never_touch_body(self, parent, small_body):
        cfg = RunConfig(catalog=(small_body,), p_body_mutation=1.0)
        for seed in range(30):
            child = make_offspring(parent, cfg, np.random.default_rng(seed), 1)
            assert child.mutation_kind == KIND_BRAIN
            assert child.morphology is parent.morphology

    def test_body_failure_falls_back_to_brain(self, parent, monkeypatch):
        def always_fails(*args, **kwargs):
            raise MutationFailedError("forced")

        monkeypatch.setattr(voxevo.evolution, "mutate_morphology", always_fails)
        cfg = RunConfig(p_body_mutation=1.0)
        child = make_offspring(parent, cfg, np.random.default_rng(0), 1)
        assert child.mutation_kind == KIND_BRAIN
        assert child.morphology is parent.morphology
        assert not np.array_equal(child.controller.to_flat(),
                                  parent.controller.to_flat())


class TestEvaluation:
    def test_bodies_by_mode(self, small_body, plus_body):
        ind = stub_individual(0, None)
        co = RunConfig()
        assert evaluation_bodies(co, ind) == (ind.morphology,)
        one = RunConfig(catalog=(small_body,))
        assert evaluation_bodies(one, ind) == (small_body,)
        multi = RunConfig(catalog=(small_body, plus_body))
        assert evaluation_bodies(multi, ind) == (small_body, plus_body)

    def test_min_aggregation_over_bodies(self, small_body, plus_body, fast_episode):
        ctrl = init_controller(MODULAR_KIND, np.random.default_rng(21))
        cfg = RunConfig(catalog=(small_body, plus_body), episode=fast_episode, workers=1)
        ind = dataclasses.replace(stub_individual(0, None), controller=ctrl)
        with Evaluator(cfg) as evaluator:
            (scored,) = score([ind], cfg, evaluator)
        singles = [evaluate_fitness(b, ctrl, fast_episode)
                   for b in (small_body, plus_body)]
        assert scored.fitness == min(singles)
        assert ind.fitness is None  # the given individual is not written

    # a multi-body job steps its bodies as one joined world; a body that
    # diverges or finishes early leaves the batch, and the rest run on
    def test_multi_body_job_is_each_body_alone(self, small_body, plus_body, fast_episode):
        ctrl = init_controller(MODULAR_KIND, np.random.default_rng(22))
        soft = np.zeros((5, 5), dtype=np.int8)
        soft[3, 1:4], soft[4, 1:4] = [3, 2, 4], [2, 2, 2]
        rigid = np.zeros((5, 5), dtype=np.int8)
        rigid[3, 1:4], rigid[4, 1:4] = [1, 3, 1], [1, 1, 1]
        narrow = np.zeros((5, 5), dtype=np.int8)
        narrow[3:5, 0] = [3, 4]
        soft, rigid, narrow = Morphology(soft), Morphology(rigid), Morphology(narrow)
        # each case with the (diverged, reached_end) of each body alone
        cases = {
            "all_run": ((plus_body, small_body), fast_episode, PhysicsConfig(),
                        [(False, False), (False, False)]),
            # near the time step's stability limit the rigid body diverges
            # and the all-soft one does not
            "mixed_divergence": ((rigid, soft), fast_episode,
                                 PhysicsConfig(physics_dt=1.0 / 120.0),
                                 [(True, False), (False, False)]),
            # the terrain ends between the starting centres of mass: 0.5 for
            # the one-column body, 1.5 for the three-column one
            "mixed_early_finish": ((narrow, small_body),
                                   dataclasses.replace(fast_episode, terrain_end_x=1.0),
                                   PhysicsConfig(), [(False, False), (False, True)]),
        }
        for name, (catalog, episode, physics, outcomes) in cases.items():
            alone = tuple(run_episode(b, ctrl, episode, physics) for b in catalog)
            assert [(r.diverged, r.reached_end) for r in alone] == outcomes, name
            for workers in (1, 2):
                cfg = RunConfig(catalog=catalog, episode=episode, physics=physics,
                                workers=workers)
                with Evaluator(cfg) as evaluator:
                    (joint,) = evaluator.evaluate([(catalog, ctrl)])
                assert joint == alone, (name, workers)
                assert all(r.trajectory is None for r in joint)

    # an evaluation with a multi-body job gives each worker one contiguous
    # run of the jobs' episodes, whose bodies run as one joined world, each
    # body under its own job's controller
    def test_grouped_jobs_are_each_job_alone(self, small_body, fast_episode, monkeypatch):
        soft = np.zeros((5, 5), dtype=np.int8)
        soft[3, 1:4], soft[4, 1:4] = [3, 2, 4], [2, 2, 2]
        narrow = np.zeros((5, 5), dtype=np.int8)
        narrow[3:5, 0] = [3, 4]
        soft, narrow = Morphology(soft), Morphology(narrow)
        controllers = [init_controller(kind, np.random.default_rng(30 + s))
                       for s, kind in enumerate([MODULAR_KIND, GLOBAL_KIND] * 2)]
        # each case with the (diverged, reached_end) of each job's bodies alone
        cases = {
            # small_body diverges under this rigid stiffness; the bodies
            # without rigid voxels run on
            "divergence": (
                [((small_body, soft), controllers[0]), ((soft, narrow), controllers[1]),
                 ((narrow, soft), controllers[2])],
                EpisodeConfig(max_steps=50), PhysicsConfig(rigid_stiffness=6e7),
                [[(True, False), (False, False)], [(False, False)] * 2,
                 [(False, False)] * 2]),
            # the terrain ends before the three-column bodies' starting
            # centres of mass, so the second job ends at its first step
            "early_finish": (
                [((narrow, small_body), controllers[3]), ((soft, small_body), controllers[0])],
                dataclasses.replace(fast_episode, terrain_end_x=1.0), PhysicsConfig(),
                [[(False, False), (False, True)], [(False, True)] * 2]),
        }
        for name, (jobs, episode, physics, outcomes) in cases.items():
            alone = [run_episodes(bodies, (ctrl,) * len(bodies), episode, physics)
                     for bodies, ctrl in jobs]
            assert [[(r.diverged, r.reached_end) for r in results]
                    for results in alone] == outcomes, name
            # 3 workers are more than the early_finish case's jobs
            for workers in (1, 2, 3):
                cfg = RunConfig(episode=episode, physics=physics, workers=workers)
                with Evaluator(cfg) as evaluator:
                    assert evaluator.evaluate(jobs) == alone, (name, workers)
        for workers in (1, 2):
            with Evaluator(RunConfig(workers=workers)) as evaluator:
                assert evaluator.evaluate([]) == []

        # one worker steps all five jobs' bodies in one call
        calls = []

        def spy(bodies, controllers, *args):
            calls.append(len(bodies))
            return run_episodes(bodies, controllers, *args)

        monkeypatch.setattr(voxevo.evolution, "run_episodes", spy)
        with Evaluator(RunConfig(episode=fast_episode, workers=1)) as evaluator:
            evaluator.evaluate([job for jobs, *_ in cases.values() for job in jobs])
        assert calls == [10]

    # a run of repeated bodies compiles each distinct body once, and every
    # episode keeps the bytes it has alone, a diverged and a finished one too
    def test_repeated_bodies_are_each_episode_alone(self, monkeypatch):
        catalog = tuple(default_catalog()[name] for name in CATALOG_ORDER)
        rng = np.random.default_rng(3)
        randoms = (random_morphology(rng), random_morphology(rng))
        controllers = [init_controller(kind, np.random.default_rng(50 + s))
                       for s, kind in enumerate([GLOBAL_KIND, MODULAR_KIND] * 2 + [GLOBAL_KIND])]
        # the fourth network overflows to NaN actions, so its body diverges
        huge = controllers[3]
        controllers[3] = dataclasses.replace(huge, W1=huge.W1 * 1e300, W2=huge.W2 * 1e300)
        jobs = [(catalog, controllers[0]), (catalog, controllers[1]), (catalog, controllers[2]),
                ((randoms[0],), controllers[3]), ((randoms[1],), controllers[4])]
        # a terrain end that only the second random body reaches, late
        episode = EpisodeConfig(max_steps=60, terrain_end_x=2.55)
        alone = [tuple(run_episode(body, ctrl, episode) for body in bodies)
                 for bodies, ctrl in jobs]
        outcomes = [(r.diverged, r.reached_end, r.steps_used)
                    for results in alone for r in results]
        assert outcomes[:12] == [(False, False, 60)] * 12
        (diverged, _, _), (_, reached, steps) = outcomes[12:]
        assert diverged and reached and 1 < steps < 60
        for workers in (1, 2, 3):
            with Evaluator(RunConfig(episode=episode, workers=workers)) as evaluator:
                assert evaluator.evaluate(jobs) == alone, workers

        # every run, stepped here in process, builds each of its distinct
        # bodies once
        built, distinct = [], []
        real_build = voxevo.walker.build_world

        def counting_build(body, cfg):
            built[-1].append(body)
            return real_build(body, cfg)

        def in_process(self, fn, tasks):
            runs = []
            for task in tasks:
                distinct.append(list(dict.fromkeys(body for body, _ in task[0])))
                built.append([])
                runs.append(fn(task))
            return runs

        monkeypatch.setattr(voxevo.walker, "build_world", counting_build)
        monkeypatch.setattr(Evaluator, "_map", in_process)
        # 14 episodes, cut into runs of 14; 7 and 7; 4, 5 and 5
        builds = {1: [6], 2: [4, 6], 3: [4, 4, 5]}
        for workers, counts in builds.items():
            built.clear()
            distinct.clear()
            with Evaluator(RunConfig(episode=episode, workers=workers)) as evaluator:
                assert evaluator.evaluate(jobs) == alone, workers
            assert built == distinct, workers
            assert [len(bodies) for bodies in built] == counts, workers

    # an evaluation's episodes are cut into contiguous runs: by episodes, not
    # by jobs, so a job's bodies may straddle two runs; one-body jobs run one
    # episode per run. Each run's results come back as its episodes here,
    # so the regroup by job is checked too
    def test_episodes_are_cut_into_runs(self, small_body, monkeypatch):
        handed = []

        def spy(self, fn, tasks):
            handed.append([len(episodes) for episodes, *_ in tasks])
            return [tuple(episodes) for episodes, *_ in tasks]

        monkeypatch.setattr(Evaluator, "_map", spy)
        catalog = tuple(default_catalog()[name] for name in CATALOG_ORDER)
        controllers = [init_controller(GLOBAL_KIND, np.random.default_rng(s))
                       for s in range(17)]
        multi = [(catalog, ctrl) for ctrl in controllers]
        single = [((small_body,), ctrl) for ctrl in controllers[:5]]
        cases = [(multi, 2, [34, 34]), (multi, 3, [22, 23, 23]),
                 (single, 1, [1] * 5), (single, 2, [1] * 5), ([], 2, [])]
        for jobs, workers, lengths in cases:
            handed.clear()
            with Evaluator(RunConfig(workers=workers)) as evaluator:
                results = evaluator.evaluate(jobs)
            assert handed == [lengths], workers
            assert results == [tuple((body, ctrl) for body in bodies)
                               for bodies, ctrl in jobs]

    def test_worker_pool_matches_serial(self, small_body, plus_body, fast_episode):
        controllers = [init_controller(MODULAR_KIND, np.random.default_rng(s))
                       for s in range(4)]
        jobs = [((small_body,), c) for c in controllers] + [((plus_body,), c) for c in controllers]
        jobs.append(((small_body, plus_body), controllers[0]))
        serial_cfg = RunConfig(episode=fast_episode, workers=1)
        pool_cfg = RunConfig(episode=fast_episode, workers=2)
        with Evaluator(serial_cfg) as ev:
            serial = ev.evaluate(jobs)
            assert [len(results) for results in serial] == [len(b) for b, _ in jobs]
        with Evaluator(pool_cfg) as ev:
            pooled = ev.evaluate(jobs)
        assert all(isinstance(r, EpisodeResult) and not r.diverged
                   for results in serial for r in results)
        # whole results, not only their fitness values
        assert serial == pooled
        # small_body diverges under this rigid stiffness; a diverged result
        # has no displacement, so the same job scored twice compares equal
        # whichever process scored it
        diverging = [((small_body,), controllers[0])] * 2
        by_workers = []
        for workers in (1, 2):
            cfg = RunConfig(episode=EpisodeConfig(max_steps=50), workers=workers,
                            physics=PhysicsConfig(rigid_stiffness=6e7))
            with Evaluator(cfg) as ev:
                by_workers.append(ev.evaluate(diverging))
        assert all(r.diverged and r.delta_px is None
                   for results in by_workers for (r,) in results)
        assert all(results[0] == results[1] for results in by_workers)
        assert by_workers[0] == by_workers[1]


class TestOffspringRecord:
    # a record with another kind was written to lineage.csv and then skipped
    # by the mutation accounting
    def test_unknown_mutation_kind_refused(self):
        with pytest.raises(ValueError, match="unknown mutation_kind 'bdy'"):
            OffspringRecord(1, 0, "bdy", 1.0, 0.5, True)

    # only a fresh individual has no parent; report read either mismatch
    def test_parent_id_must_match_the_mutation_kind(self):
        with pytest.raises(ValueError, match="a fresh record with parent_id 0"):
            OffspringRecord(3, 0, KIND_FRESH, 1.0, None, False)
        for kind in (KIND_BODY, KIND_BRAIN):
            with pytest.raises(ValueError, match=f"a {kind} record with no parent_id"):
                OffspringRecord(3, None, kind, 1.0, None, False)


def first_state(population, cfg):
    """The state of a run before its first generation."""
    return RunState(0, tuple(population), max(population, key=lambda ind: ind.fitness),
                    (), cfg.mu)


class TestGenerationStep:
    def test_bookkeeping(self, tiny_evolution):
        cfg = tiny_evolution
        with Evaluator(cfg) as evaluator:
            population = initial_population(cfg, evaluator)
            assert [ind.id for ind in population] == [0, 1, 2]
            assert all(ind.age == 0 and ind.fitness is not None for ind in population)
            state = first_state(population, cfg)
            after, log = evolve_generation(state, cfg, evaluator)
        # the returned survivors are one generation older, and the given
        # state is unchanged
        assert after.generation == 1 and state.generation == 0
        assert state.population == tuple(population) and state.lineage == ()
        assert all(ind.age == 0 for ind in population)
        assert len(after.population) == cfg.mu
        for ind in after.population:
            assert ind.age == (1 if ind.id < cfg.mu else 0)
        records = after.lineage
        # the best of the pool: the mu parents, lambda offspring and one fresh
        pool_fitness = [ind.fitness for ind in population] + [r.fitness for r in records]
        assert len(pool_fitness) == cfg.mu + cfg.lambda_ + 1
        assert log.best_fitness == max(pool_fitness)
        assert after.next_id == cfg.mu + cfg.lambda_ + 1
        assert [r.id for r in records] == list(range(cfg.mu, after.next_id))
        assert log.n_body_attempted + log.n_brain_attempted == cfg.lambda_
        assert log.n_body_attempted == sum(r.mutation_kind == KIND_BODY for r in records)
        assert log.n_body_success == sum(
            r.success for r in records if r.mutation_kind == KIND_BODY)
        assert log.n_brain_success == sum(
            r.success for r in records if r.mutation_kind == KIND_BRAIN)
        fresh = [r for r in records if r.mutation_kind == KIND_FRESH]
        assert len(fresh) == 1 and not fresh[0].success

    def test_success_is_strict_improvement(self, tiny_evolution):
        cfg = tiny_evolution
        with Evaluator(cfg) as evaluator:
            population = initial_population(cfg, evaluator)
            after, _ = evolve_generation(first_state(population, cfg), cfg, evaluator)
        for r in after.lineage:
            if r.parent_fitness_at_birth is None:
                assert not r.success
            else:
                assert r.success == (r.fitness > r.parent_fitness_at_birth)

    def test_wrong_population_size_raises(self, tiny_evolution):
        cfg = tiny_evolution
        with Evaluator(cfg) as evaluator:
            population = initial_population(cfg, evaluator)
            with pytest.raises(ValueError):
                evolve_generation(first_state(population[:-1], cfg), cfg, evaluator)


class TestFullRun:
    def test_artifact_shapes(self, tiny_evolution):
        run, logs = run_to_end(tiny_evolution)
        cfg = tiny_evolution
        assert len(logs) == cfg.generations
        assert len(run.population) == cfg.mu
        expected_ids = cfg.mu + cfg.generations * (cfg.lambda_ + 1)
        assert [r.id for r in run.lineage] == list(range(expected_ids))
        assert run.next_id == expected_ids
        # the running best of generations.csv's best_fitness column
        series = np.maximum.accumulate([log.best_fitness for log in logs])
        assert len(series) == cfg.generations
        assert all(b >= a for a, b in zip(series, series[1:]))
        assert run.champion.fitness == series[-1]

    def test_reproducible(self, tiny_evolution):
        a, a_logs = run_to_end(tiny_evolution)
        b, b_logs = run_to_end(tiny_evolution)
        assert [log.best_fitness for log in a_logs] == [log.best_fitness for log in b_logs]
        assert [log.mean_fitness for log in a_logs] == [log.mean_fitness for log in b_logs]
        assert a.champion.fitness == b.champion.fitness
        assert np.array_equal(a.champion.controller.to_flat(),
                              b.champion.controller.to_flat())

    def test_worker_count_does_not_change_results(self, tiny_evolution):
        serial, serial_logs = run_to_end(tiny_evolution)
        parallel, parallel_logs = run_to_end(
            dataclasses.replace(tiny_evolution, workers=2))
        assert [log.best_fitness for log in serial_logs] == \
            [log.best_fitness for log in parallel_logs]
        assert serial.champion.fitness == parallel.champion.fitness

    def test_one_body_catalog_never_draws_a_body_mutation(self, small_body, fast_episode,
                                                          monkeypatch):
        def no_body_mutation(*args, **kwargs):
            raise AssertionError("a one-body catalog drew a body mutation")

        monkeypatch.setattr(voxevo.evolution, "mutate_morphology", no_body_mutation)
        monkeypatch.setattr(voxevo.evolution, "random_morphology", no_body_mutation)
        run, _ = run_to_end(RunConfig(
            catalog=(small_body,), p_body_mutation=1.0, mu=2, lambda_=2,
            generations=2, seed=5, workers=1, episode=fast_episode))
        assert {r.mutation_kind for r in run.lineage} == {KIND_FRESH, KIND_BRAIN}
        assert all(ind.morphology == small_body for ind in run.population)

    def test_every_generation_is_yielded(self, tiny_evolution):
        with Evaluator(tiny_evolution) as evaluator:
            steps = list(run_evolution(tiny_evolution, evaluator))
        assert [state.generation for state, _ in steps] == [1, 2, 3]
        assert [log.generation for _, log in steps] == [1, 2, 3]

    def test_champion_is_best_ever_not_final_best(self, tiny_evolution):
        run, _ = run_to_end(tiny_evolution)
        final_best = max(ind.fitness for ind in run.population)
        assert run.champion.fitness >= final_best
