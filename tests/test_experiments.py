import dataclasses
import os

import numpy as np
import pytest

import voxevo.evolution
import voxevo.experiments
from voxevo.checkpoints import load_individual
from voxevo.cli import main
from voxevo.control import MODULAR_KIND, init_controller, mutate_controller
from voxevo.evolution import (
    KIND_BODY,
    KIND_BRAIN,
    KIND_FRESH,
    Evaluator,
    OffspringRecord,
)
from voxevo.experiments import (
    CATALOG_ORDER,
    ONE_SHOT_SIGMA,
    CatalogError,
    LineageIntegrityError,
    accounting_from_lineage,
    convergence_metrics,
    default_catalog,
    load_catalog,
    transfer_analysis,
    _distinct_neighbors,
)
from voxevo.morphology import MutationFailedError, validate
from voxevo.runconfig import RunConfig, load_config
from voxevo.walker import evaluate_fitness

from helpers import grid_distance, run_to_end, save_catalog


def fresh_record(ident, fitness):
    return OffspringRecord(ident, None, KIND_FRESH, fitness, None, False)


def child_record(ident, parent, kind, fitness, parent_fitness):
    return OffspringRecord(ident, parent, kind, fitness, parent_fitness,
                           fitness > parent_fitness)


class TestCatalog:
    def test_default_layouts(self):
        catalog = default_catalog()
        assert tuple(catalog) == CATALOG_ORDER
        assert catalog["biped"].to_text() == "33333\n33333\n33333\n33033\n33033"
        assert catalog["worm"].to_text() == "00000\n00000\n00000\n33333\n33333"
        assert catalog["triped"].to_text() == "33333\n33333\n30303\n30303\n30303"
        assert catalog["block"].to_text() == "33333\n33333\n33333\n33333\n33333"
        for body in catalog.values():
            assert validate(body.grid)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "catalog.txt"
        save_catalog(str(path), default_catalog())
        again = load_catalog(str(path))
        assert again == default_catalog()

    def test_missing_file(self, tmp_path):
        with pytest.raises(CatalogError):
            load_catalog(str(tmp_path / "nope.txt"))

    def test_malformed_row_reports_its_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("[stub]\n33333\n333\n33333\n33333\n33333\n")
        with pytest.raises(CatalogError) as exc_info:
            load_catalog(str(path))
        assert ":3:" in str(exc_info.value)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("[stub]\n33333\n33333\n")
        with pytest.raises(CatalogError) as exc_info:
            load_catalog(str(path))
        assert "2 rows" in str(exc_info.value)

    # a short body was named at the next body's header, and a short last
    # body at a line past the end of the file
    def test_short_body_reports_its_own_header_line(self, tmp_path):
        path = tmp_path / "cat.txt"
        full = "33333\n" * 5
        for text, line in (("[a]\n33333\n33333\n[b]\n" + full, 1),
                           ("[a]\n" + full + "[b]\n33333\n33333\n", 7)):
            path.write_text(text)
            with pytest.raises(CatalogError, match="2 rows") as exc_info:
                load_catalog(str(path))
            assert f"cat.txt:{line}: body " in str(exc_info.value)

    def test_body_must_be_valid(self, tmp_path):
        path = tmp_path / "bad.txt"
        rows = "\n".join(["11111"] * 5)  # rigid only: no actuators
        path.write_text(f"[stub]\n{rows}\n")
        with pytest.raises(CatalogError):
            load_catalog(str(path))

    def test_content_outside_section(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("33333\n")
        with pytest.raises(CatalogError):
            load_catalog(str(path))


BATTERY_CONFIG = """
[run]
seed = 10
generations = 2

[evolution]
mu = 2
lambda = 2

[episode]
max_steps = 60

[experiment]
n_runs = {n_runs}
"""


def battery(cfg, seeds):
    return [run_to_end(dataclasses.replace(cfg, seed=s, workers=1))[0] for s in seeds]


class TestBattery:
    def test_runs_use_consecutive_seeds(self, tmp_path):
        path = tmp_path / "battery.cfg"
        path.write_text(BATTERY_CONFIG.format(n_runs=2))
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(path), "--out", str(out),
                     "--workers", "1"]) == 0
        runs = battery(load_config(str(path)), [10, 11])
        for i, run in enumerate(runs):
            champion = load_individual(str(out / f"run_{i:02d}" / "champion.ckpt"))
            assert champion.fitness == run.champion.fitness

    def test_rejects_zero_runs(self, tmp_path, capsys):
        path = tmp_path / "battery.cfg"
        path.write_text(BATTERY_CONFIG.format(n_runs=0))
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 2
        assert "n_runs" in capsys.readouterr().err
        assert not os.path.exists(out)


@pytest.fixture
def fast_evaluator(fast_episode):
    with Evaluator(RunConfig(episode=fast_episode, workers=1)) as evaluator:
        yield evaluator


def scored_each_draw_in_turn(body, controller, distances, rng, samples_per_distance,
                             one_shot_lambda, episode):
    """Oracle: the serial loop the batch replaced, which scored every
    neighbor and every mutant as soon as it was drawn. (distance, neighbor,
    zero-shot, one-shot) per sample."""
    expected = []
    for distance in distances:
        for neighbor in _distinct_neighbors(body, distance, samples_per_distance, rng):
            zero = evaluate_fitness(neighbor, controller, episode)
            one = zero
            for _ in range(one_shot_lambda):
                mutant = mutate_controller(controller, rng, ONE_SHOT_SIGMA)
                one = max(one, evaluate_fitness(neighbor, mutant, episode))
            expected.append((distance, neighbor, zero, one))
    return expected


def sample_scores(samples):
    return [(s.distance, s.neighbor, s.zero_shot_fitness, s.one_shot_fitness)
            for s in samples]


@pytest.fixture
def run_lengths(monkeypatch):
    """The episode count of every run the evaluators make, with the pool's
    map run in process."""
    lengths = []

    def in_process(self, fn, tasks):
        lengths.extend(len(task[0]) for task in tasks)
        return [fn(task) for task in tasks]

    monkeypatch.setattr(Evaluator, "_map", in_process)
    return lengths


class TestTransfer:
    def test_one_shot_never_below_zero_shot(self, small_body, fast_episode, fast_evaluator):
        controller = init_controller(MODULAR_KIND, np.random.default_rng(3))
        source = evaluate_fitness(small_body, controller, fast_episode)
        samples = transfer_analysis(
            small_body, controller, source, [1, 2], np.random.default_rng(4),
            fast_evaluator, samples_per_distance=3, one_shot_lambda=2)
        assert {s.distance for s in samples} == {1, 2}
        for s in samples:
            assert s.one_shot_fitness >= s.zero_shot_fitness

    def test_neighbors_distinct_and_not_source(self, small_body, fast_evaluator):
        controller = init_controller(MODULAR_KIND, np.random.default_rng(5))
        samples = transfer_analysis(
            small_body, controller, 2.0, [1], np.random.default_rng(6),
            fast_evaluator, samples_per_distance=6, one_shot_lambda=1)
        neighbors = [s.neighbor for s in samples]
        assert len(set(neighbors)) == len(neighbors)
        assert all(n != small_body for n in neighbors)
        assert all(grid_distance(n, small_body) >= 1 for n in neighbors)

    def test_self_transfer_relative_change_is_zero(self, small_body, fast_episode):
        controller = init_controller(MODULAR_KIND, np.random.default_rng(7))
        source = evaluate_fitness(small_body, controller, fast_episode)
        assert source != 0.0
        again = evaluate_fitness(small_body, controller, fast_episode)
        assert (again - source) / abs(source) == 0.0

    def test_low_magnitude_source_guards_relative_changes(self, small_body, fast_evaluator):
        controller = init_controller(MODULAR_KIND, np.random.default_rng(8))
        samples = transfer_analysis(
            small_body, controller, 0.01, [1], np.random.default_rng(9),
            fast_evaluator, samples_per_distance=2, one_shot_lambda=1)
        for s in samples:
            assert s.relative_change_zero is None
            assert s.relative_change_one is None

    def test_relative_change_formula(self, small_body, fast_evaluator):
        controller = init_controller(MODULAR_KIND, np.random.default_rng(10))
        source = 2.0
        samples = transfer_analysis(
            small_body, controller, source, [1], np.random.default_rng(11),
            fast_evaluator, samples_per_distance=2, one_shot_lambda=1)
        for s in samples:
            assert s.relative_change_zero == (s.zero_shot_fitness - source) / abs(source)
            assert s.relative_change_one == (s.one_shot_fitness - source) / abs(source)

    def test_reproducible(self, small_body, fast_evaluator):
        controller = init_controller(MODULAR_KIND, np.random.default_rng(12))
        kwargs = dict(samples_per_distance=2, one_shot_lambda=2)
        a = transfer_analysis(small_body, controller, 2.0, [1],
                              np.random.default_rng(13), fast_evaluator, **kwargs)
        b = transfer_analysis(small_body, controller, 2.0, [1],
                              np.random.default_rng(13), fast_evaluator, **kwargs)
        assert [s.zero_shot_fitness for s in a] == [s.zero_shot_fitness for s in b]
        assert [s.one_shot_fitness for s in a] == [s.one_shot_fitness for s in b]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_matches_scoring_each_draw_in_turn(self, small_body, fast_episode, workers):
        controller = init_controller(MODULAR_KIND, np.random.default_rng(14))
        expected = scored_each_draw_in_turn(
            small_body, controller, [1, 2], np.random.default_rng(15), 3, 3, fast_episode)
        with Evaluator(RunConfig(episode=fast_episode, workers=workers)) as evaluator:
            samples = transfer_analysis(
                small_body, controller, 2.0, [1, 2], np.random.default_rng(15),
                evaluator, samples_per_distance=3, one_shot_lambda=3)
        assert sample_scores(samples) == expected
        assert any(s.one_shot_fitness > s.zero_shot_fitness for s in samples)

    # the source controller on all its neighbors is one multi-body job, so
    # the evaluation is cut into min(workers, episodes) joined runs and no
    # episode runs alone
    def test_evaluation_is_joined(self, small_body, fast_episode, monkeypatch,
                                  run_lengths):
        controller = init_controller(MODULAR_KIND, np.random.default_rng(16))
        expected = scored_each_draw_in_turn(
            small_body, controller, [1, 2], np.random.default_rng(17), 2, 1, fast_episode)
        assert len(expected) == 4  # 8 episodes

        def alone(*args):
            raise AssertionError("an episode ran alone")

        monkeypatch.setattr(voxevo.evolution, "run_episode", alone)
        for workers, lengths in {1: [8], 2: [4, 4], 3: [2, 3, 3]}.items():
            run_lengths.clear()
            with Evaluator(RunConfig(episode=fast_episode, workers=workers)) as evaluator:
                samples = transfer_analysis(
                    small_body, controller, 2.0, [1, 2], np.random.default_rng(17),
                    evaluator, samples_per_distance=2, one_shot_lambda=1)
            assert sample_scores(samples) == expected, workers
            assert run_lengths == lengths, workers

    # one neighbor in all: every job has one body, so every run is one episode
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_neighbor_runs_each_episode_alone(self, small_body, fast_episode,
                                                  run_lengths, workers):
        controller = init_controller(MODULAR_KIND, np.random.default_rng(18))
        expected = scored_each_draw_in_turn(
            small_body, controller, [1], np.random.default_rng(19), 1, 2, fast_episode)
        assert len(expected) == 1
        with Evaluator(RunConfig(episode=fast_episode, workers=workers)) as evaluator:
            samples = transfer_analysis(
                small_body, controller, 2.0, [1], np.random.default_rng(19),
                evaluator, samples_per_distance=1, one_shot_lambda=2)
        assert sample_scores(samples) == expected
        assert run_lengths == [1, 1, 1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_without_mutants_one_shot_is_zero_shot(self, small_body, fast_episode, workers):
        controller = init_controller(MODULAR_KIND, np.random.default_rng(20))
        expected = scored_each_draw_in_turn(
            small_body, controller, [1, 2], np.random.default_rng(21), 2, 0, fast_episode)
        with Evaluator(RunConfig(episode=fast_episode, workers=workers)) as evaluator:
            samples = transfer_analysis(
                small_body, controller, 2.0, [1, 2], np.random.default_rng(21),
                evaluator, samples_per_distance=2, one_shot_lambda=0)
        assert sample_scores(samples) == expected
        assert all(s.one_shot_fitness == s.zero_shot_fitness for s in samples)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_neighbor_drawn_gives_no_samples(self, small_body, fast_episode,
                                                monkeypatch, workers):
        def no_neighbor(source, distance, rng):
            raise MutationFailedError("no neighbor")

        monkeypatch.setattr(voxevo.experiments, "sample_neighbor", no_neighbor)
        controller = init_controller(MODULAR_KIND, np.random.default_rng(22))
        assert scored_each_draw_in_turn(
            small_body, controller, [1, 2], np.random.default_rng(23), 2, 1,
            fast_episode) == []
        with Evaluator(RunConfig(episode=fast_episode, workers=workers)) as evaluator:
            assert transfer_analysis(
                small_body, controller, 2.0, [1, 2], np.random.default_rng(23),
                evaluator, samples_per_distance=2, one_shot_lambda=1) == []


class TestAccounting:
    def test_chain_and_population_fractions(self):
        lineage = {
            0: fresh_record(0, 1.0),
            1: child_record(1, 0, KIND_BODY, 2.0, 1.0),
            2: child_record(2, 0, KIND_BODY, 3.0, 1.0),
            3: child_record(3, 1, KIND_BRAIN, 4.0, 2.0),
        }
        acc = accounting_from_lineage(lineage, champion_id=3)
        # chain 3 <- 1 <- 0: one body and one brain success; population-wide
        # two body successes and one brain success
        assert acc.lineage_body_fraction == 1 / 2
        assert acc.population_body_fraction == 2 / 3
        # chain 2 <- 0 holds the one body success alone
        assert accounting_from_lineage(lineage, champion_id=2).lineage_body_fraction == 1.0
        # a chain of brain successes only reads 0, not None
        lineage[4] = child_record(4, 3, KIND_BRAIN, 5.0, 4.0)
        lineage[5] = child_record(5, 0, KIND_BRAIN, 6.0, 1.0)
        assert accounting_from_lineage(lineage, champion_id=5).lineage_body_fraction == 0.0
        assert accounting_from_lineage(lineage, champion_id=4).population_body_fraction \
            == 2 / 5

    def test_unsuccessful_steps_do_not_count(self):
        lineage = {
            0: fresh_record(0, 5.0),
            1: child_record(1, 0, KIND_BODY, 4.0, 5.0),  # worse than parent
        }
        acc = accounting_from_lineage(lineage, champion_id=1)
        assert acc.lineage_body_fraction is None
        assert acc.population_body_fraction is None

    def test_cycle_detected(self):
        lineage = {
            0: OffspringRecord(0, 1, KIND_BODY, 1.0, 0.5, True),
            1: OffspringRecord(1, 0, KIND_BRAIN, 1.0, 0.5, True),
        }
        with pytest.raises(LineageIntegrityError):
            accounting_from_lineage(lineage, champion_id=0)

    def test_missing_node_detected(self):
        lineage = {5: OffspringRecord(5, 4, KIND_BODY, 1.0, 0.5, True)}
        with pytest.raises(LineageIntegrityError):
            accounting_from_lineage(lineage, champion_id=5)

    def test_wrapper_on_real_run(self, tiny_evolution):
        run, _ = run_to_end(tiny_evolution)
        acc = accounting_from_lineage({r.id: r for r in run.lineage}, run.champion.id)
        for fraction in (acc.lineage_body_fraction, acc.population_body_fraction):
            assert fraction is None or 0.0 <= fraction <= 1.0


class TestConvergence:
    def test_threshold_indices(self):
        assert convergence_metrics([0.0, 5.0, 9.0, 10.0]) == {0.8: 2, 0.9: 2, 0.95: 3,
                                                              0.99: 3}

    def test_negative_series_is_shifted(self):
        generations = convergence_metrics([-2.0, 0.0, 6.0])
        assert generations[0.8] == 2
        assert generations[0.99] == 2
        # shifted to [0, 7, 8], 0.8 of the final 8 is reached at index 1;
        # unshifted, 0.8 of the final 4 would be reached only at index 2
        assert convergence_metrics([-4.0, 3.0, 4.0]) == {0.8: 1, 0.9: 2, 0.95: 2, 0.99: 2}

    def test_flat_series(self):
        assert all(v == 0 for v in convergence_metrics([0.0, 0.0, 0.0]).values())

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            convergence_metrics([])


class TestTrainingWrappers:
    def test_multi_morph_sets_mode_and_catalog(self, small_body, plus_body, fast_episode):
        cfg = RunConfig(mu=2, lambda_=2, generations=1, seed=3, workers=1,
                        catalog=(small_body, plus_body), episode=fast_episode)
        run, _ = run_to_end(cfg)
        assert {r.mutation_kind for r in run.lineage} <= {KIND_FRESH, KIND_BRAIN}

    # one body is a one-body catalog
    def test_fixed_morph_sets_mode(self, small_body, fast_episode):
        cfg = RunConfig(paradigm="global", mu=2, lambda_=2, generations=1, seed=3,
                        workers=1, catalog=(small_body,), episode=fast_episode)
        run, _ = run_to_end(cfg)
        assert all(ind.morphology == small_body for ind in run.population)

    def test_per_body_fitness_bounds_joint_fitness(self, small_body, plus_body, fast_episode):
        cfg = RunConfig(mu=2, lambda_=2, generations=2, seed=4, workers=1,
                        catalog=(small_body, plus_body), episode=fast_episode)
        run, _ = run_to_end(cfg)
        jobs = [((body,), run.champion.controller) for body in (small_body, plus_body)]
        with Evaluator(cfg) as evaluator:
            results = evaluator.evaluate(jobs)
        per_body = [r.fitness for (r,) in results]
        assert min(per_body) == run.champion.fitness
        for fitness in per_body:
            assert fitness >= run.champion.fitness
        with Evaluator(dataclasses.replace(cfg, workers=2)) as evaluator:
            assert evaluator.evaluate(jobs) == results
