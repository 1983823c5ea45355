import csv
import dataclasses
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from voxevo.checkpoints import load_individual, load_population, save_individual
import voxevo.cli
import voxevo.evolution
from voxevo.cli import RunSummary, main
from voxevo.evolution import Evaluator, GenerationLog, OffspringRecord
from voxevo.experiments import CONVERGENCE_THRESHOLDS, TransferSample
from voxevo.runconfig import RunConfig, load_config

from helpers import INVALID_BODIES, patch_checkpoint_body, patch_checkpoint_fitness

TINY_CONFIG = """
[run]
seed = 5
generations = 3

[evolution]
mu = 2
lambda = 2

[episode]
max_steps = 30

[experiment]
distances = 1
samples_per_distance = 2
one_shot_lambda = 1
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TINY_CONFIG)
    return str(path)


def columns(record_type):
    """A record CSV's header: its dataclass's field names."""
    return [f.name for f in dataclasses.fields(record_type)]


GENERATION_COLUMNS = columns(GenerationLog)


def evolve(config_path, out, extra=()):
    return main(["evolve", "--config", config_path, "--out", out, *extra])


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def tree(root):
    """Every path under `root` with the bytes of each file."""
    found = {}
    for parent, _, files in os.walk(root):
        found[os.path.relpath(parent, root)] = None
        for name in files:
            with open(os.path.join(parent, name), "rb") as fh:
                found[os.path.relpath(os.path.join(parent, name), root)] = fh.read()
    return found


class TestEvolve:
    def test_single_run_artifacts(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert evolve(config_path, out, ["--workers", "1"]) == 0
        assert "champion fitness:" in capsys.readouterr().out

        rows = read_rows(os.path.join(out, "generations.csv"))
        assert rows[0] == GENERATION_COLUMNS
        assert len(rows) == 1 + 3
        assert [r[0] for r in rows[1:]] == ["1", "2", "3"]

        lineage = read_rows(os.path.join(out, "lineage.csv"))
        assert lineage[0] == columns(OffspringRecord)
        assert len(lineage) == 1 + 2 + 3 * 3  # header, mu, G*(lambda+1)

        champion = load_individual(os.path.join(out, "champion.ckpt"))
        best_column = [float(r[1]) for r in rows[1:]]
        assert champion.fitness >= max(best_column)
        final = load_population(os.path.join(out, "population_final.ckpt"))
        assert len(final) == 2
        assert not any(name.endswith(".partial") for name in os.listdir(out))

    def test_reruns_are_byte_identical(self, config_path, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert evolve(config_path, out_a, ["--workers", "1"]) == 0
        assert evolve(config_path, out_b, ["--workers", "1"]) == 0
        for name in ("generations.csv", "lineage.csv", "champion.ckpt"):
            with open(os.path.join(out_a, name), "rb") as fa, \
                    open(os.path.join(out_b, name), "rb") as fb:
                assert fa.read() == fb.read()

    def test_worker_count_does_not_change_output(self, config_path, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert evolve(config_path, out_a, ["--workers", "1"]) == 0
        assert evolve(config_path, out_b, ["--workers", "2"]) == 0
        for name in ("generations.csv", "lineage.csv"):
            with open(os.path.join(out_a, name), "rb") as fa, \
                    open(os.path.join(out_b, name), "rb") as fb:
                assert fa.read() == fb.read()

    def test_seed_override_changes_results(self, config_path, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert evolve(config_path, out_a, ["--workers", "1"]) == 0
        assert evolve(config_path, out_b, ["--workers", "1", "--seed", "99"]) == 0
        with open(os.path.join(out_a, "generations.csv"), "rb") as fa, \
                open(os.path.join(out_b, "generations.csv"), "rb") as fb:
            assert fa.read() != fb.read()

    def test_existing_output_directory_refused(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert evolve(config_path, str(out), ["--workers", "1"]) == 2
        assert "already exists" in capsys.readouterr().err

    def test_bad_config_reports_line_and_writes_nothing(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[run]\nseed = 1\nbogus = 2\n")
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:3" in err and "unknown key" in err
        assert not out.exists()

    # a config that is not UTF-8 raised UnicodeDecodeError, a traceback and exit 1
    def test_undecodable_config_exits_2_before_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"[run]\nseed = 1\n\xff\n")
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(bad), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: cannot read config: ")
        assert captured.out == ""
        assert not out.exists()

    # an undecodable catalog was reported against the config, not the catalog
    def test_undecodable_catalog_names_the_catalog_file(self, tmp_path, capsys):
        catalog = tmp_path / "bodies.txt"
        catalog.write_bytes(b"[stub]\n\xff3333\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[run]\nmode = multi-body\n[experiment]\ncatalog_file = {catalog}\n")
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: {cfg}:4: {catalog}: cannot read catalog: ")
        assert captured.out == ""
        assert not out.exists()

    # a multi-body run mutates no body: the key was accepted and did nothing
    def test_p_body_mutation_under_multi_body_exits_2_before_output(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\nmode = multi-body\n[evolution]\np_body_mutation = 0.9\n")
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}:4: p_body_mutation applies only to mode = co-optimize\n")
        assert not out.exists()

    # makedirs raised NotADirectoryError: a traceback and exit 1
    def test_out_under_a_regular_file_is_refused_and_writes_nothing(self, config_path,
                                                                    tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        before = tree(tmp_path)
        assert evolve(config_path, str(afile / "run"), ["--workers", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: {afile / 'run'}: cannot create output directory: Not a directory\n")
        assert tree(tmp_path) == before
        assert afile.read_text() == "kept\n"

    # a wider window reads only missing voxels beyond the grid; a huge one
    # exhausted memory in the first generation, after the output existed
    def test_neighborhood_distance_beyond_the_grid_refused_before_output(self, tmp_path,
                                                                         capsys):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("[run]\nseed = 1\n[observation]\nneighborhood_distance = 4\n")
        assert load_config(str(cfg)).observation.neighborhood_distance == 4
        cfg.write_text("[run]\nseed = 1\n[observation]\nneighborhood_distance = 5\n")
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}:4: invalid [observation] settings: "
            "neighborhood_distance must be in [0, 4], got 5\n")
        assert not out.exists()

    # shift_constant = max_steps * step_penalty overflowed to inf: the run
    # wrote nan fitnesses that report refused
    def test_infinite_shift_constant_refused_before_output(self, tmp_path, capsys):
        cfg = tmp_path / "shift.cfg"
        cfg.write_text("[run]\nseed = 1\n[episode]\nmax_steps = 500\nstep_penalty = 1e308\n")
        out = tmp_path / "out"
        before = tree(tmp_path)
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {cfg}:5: invalid [episode] settings: "
            "step_penalty times max_steps = 500 must be finite, got 1e+308\n")
        assert tree(tmp_path) == before

    # every file commits through its `.partial` sibling: a run that fails
    # mid-way raises and leaves the marker with the generations that finished
    def test_interrupted_run_leaves_only_the_partial_marker(self, config_path, tmp_path,
                                                            monkeypatch):
        evolve_generation = voxevo.evolution.evolve_generation

        def interrupted_at_generation_2(state, cfg, evaluator):
            if state.generation + 1 == 2:
                raise RuntimeError("interrupted")
            return evolve_generation(state, cfg, evaluator)

        monkeypatch.setattr(voxevo.evolution, "evolve_generation",
                            interrupted_at_generation_2)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="interrupted"):
            evolve(config_path, str(out), ["--workers", "1"])
        assert os.listdir(out) == ["generations.csv.partial"]
        rows = read_rows(out / "generations.csv.partial")
        assert rows[0] == GENERATION_COLUMNS
        assert [row[0] for row in rows[1:]] == ["1"]

    def test_battery_layout(self, tmp_path, capsys):
        cfg = tmp_path / "battery.cfg"
        cfg.write_text(TINY_CONFIG + "n_runs = 2\n")
        out = str(tmp_path / "out")
        assert main(["evolve", "--config", str(cfg), "--out", out,
                     "--workers", "1"]) == 0
        assert sorted(os.listdir(out)) == ["run_00", "run_01"]
        for name in ("run_00", "run_01"):
            assert os.path.exists(os.path.join(out, name, "generations.csv"))
        assert "battery best champion fitness:" in capsys.readouterr().out

    # the runs of a battery share the command's one evaluator and its pool
    def test_battery_opens_one_pool(self, tmp_path, monkeypatch):
        opened = []
        pool = voxevo.evolution.Pool

        def counting_pool(*args, **kwargs):
            opened.append(args)
            return pool(*args, **kwargs)

        monkeypatch.setattr(voxevo.evolution, "Pool", counting_pool)
        cfg = tmp_path / "battery.cfg"
        cfg.write_text(TINY_CONFIG + "n_runs = 3\n")
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--workers", "2"]) == 0
        assert opened == [(2,)]

    # a shared pool leaks nothing from one run into the next: run NN writes
    # the bytes of a stand-alone evolve at the battery's seed + NN
    def test_battery_runs_match_stand_alone_runs(self, config_path, tmp_path):
        cfg = tmp_path / "battery.cfg"
        cfg.write_text(TINY_CONFIG + "n_runs = 3\n")
        battery = tmp_path / "battery"
        assert main(["evolve", "--config", str(cfg), "--out", str(battery),
                     "--workers", "2"]) == 0
        for i in range(3):
            alone = tmp_path / f"alone_{i}"
            assert evolve(config_path, str(alone), ["--workers", "2", "--seed", str(5 + i)]) == 0
            for name in ("generations.csv", "lineage.csv", "champion.ckpt",
                         "population_final.ckpt"):
                assert (battery / f"run_{i:02d}" / name).read_bytes() == \
                    (alone / name).read_bytes(), (i, name)

    # a network that overflows gives NaN actions: its body diverges and
    # scores the floor, and the run goes on to whole artifacts
    def test_overflowing_controllers_diverge_instead_of_crashing(self, tmp_path, capsys):
        cfg = tmp_path / "sigma.cfg"
        cfg.write_text("[run]\nseed = 1\ngenerations = 2\n"
                       "[evolution]\nmu = 2\nlambda = 4\ncontroller_sigma = 1e200\n"
                       "[episode]\nmax_steps = 20\n")
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(cfg), "--out", str(out),
                     "--workers", "1"]) == 0
        assert sorted(os.listdir(out)) == [
            "champion.ckpt", "generations.csv", "lineage.csv", "population_final.ckpt"]
        fitness = [float(row[3]) for row in read_rows(out / "lineage.csv")[1:]]
        assert -10.0 in fitness  # the default divergence floor
        assert main(["report", str(out)]) == 0

    def test_periodic_checkpoints(self, tmp_path):
        cfg = tmp_path / "ckpt.cfg"
        cfg.write_text(TINY_CONFIG.replace(
            "lambda = 2", "lambda = 2\ncheckpoint_every = 2"))
        out = str(tmp_path / "out")
        assert main(["evolve", "--config", str(cfg), "--out", out,
                     "--workers", "1"]) == 0
        assert os.path.exists(os.path.join(out, "population_gen00002.ckpt"))
        snapshot = load_population(os.path.join(out, "population_gen00002.ckpt"))
        assert len(snapshot) == 2


class _CountingPool:
    """Stands in for multiprocessing.Pool and keeps its process count."""

    def __init__(self, processes):
        self.processes = processes

    def close(self):
        pass

    def join(self):
        pass


def pool_processes(workers):
    """The process count of the pool an Evaluator makes for `workers`, or
    None when it makes no pool."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(voxevo.evolution, "Pool", _CountingPool)
        with Evaluator(RunConfig(workers=workers)) as evaluator:
            return None if evaluator._pool is None else evaluator._pool.processes


class TestWorkersResolution:
    # VOXEVO_WORKERS was once a third source of the count; it is now ignored
    # whatever its value
    @pytest.mark.parametrize("env", ["lots", "-2", "1"])
    def test_environment_variable_is_ignored(self, env, config_path, tmp_path, monkeypatch):
        monkeypatch.setenv("VOXEVO_WORKERS", env)
        assert pool_processes(3) == 3
        assert pool_processes(2) == 2
        assert evolve(config_path, str(tmp_path / "out")) == 0

    @pytest.mark.parametrize("command", ["evolve", "transfer"])
    @pytest.mark.parametrize("flag, env, message", [
        (["--workers", "0"], None, "error: --workers: workers must be >= 1, got 0"),
        (["--workers", "0"], "-2", "error: --workers: workers must be >= 1, got 0"),
    ])
    def test_counts_below_one_rejected_before_output(self, command, flag, env, message,
                                                     trained_run, tmp_path, monkeypatch,
                                                     capsys):
        config, run_dir = trained_run
        if env is None:
            monkeypatch.delenv("VOXEVO_WORKERS", raising=False)
        else:
            monkeypatch.setenv("VOXEVO_WORKERS", env)
        out = str(tmp_path / "out")
        argv = [command, "--config", config, "--out", out, *flag]
        if command == "transfer":
            argv += ["--champion", os.path.join(run_dir, "champion.ckpt")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    # np.random.SeedSequence would reject it after the output directory exists
    @pytest.mark.parametrize("command", ["evolve", "transfer"])
    def test_negative_seed_rejected_before_output(self, command, trained_run, tmp_path,
                                                  capsys):
        config, run_dir = trained_run
        out = str(tmp_path / "out")
        argv = [command, "--config", config, "--out", out, "--seed", "-1", "--workers", "1"]
        if command == "transfer":
            argv += ["--champion", os.path.join(run_dir, "champion.ckpt")]
        assert main(argv) == 2
        assert "error: --seed: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not os.path.exists(out)

    # evolve died on makedirs(""), transfer only after scoring every episode
    @pytest.mark.parametrize("command", ["evolve", "transfer"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_out_rejected_before_output(self, command, source, trained_run, tmp_path,
                                              monkeypatch, capsys):
        config, run_dir = trained_run
        if source == "config":
            empty = tmp_path / "empty_out.cfg"
            empty.write_text(TINY_CONFIG.replace("seed = 5\n", "seed = 5\nout =\n"))
            argv = [command, "--config", str(empty)]
            message = f"error: {empty}:4: out must not be empty, got ''"
        else:
            argv = [command, "--config", config, "--out", ""]
            message = "error: --out: out must not be empty, got ''"
        argv += ["--workers", "1"]
        if command == "transfer":
            argv += ["--champion", os.path.join(run_dir, "champion.ckpt")]
        monkeypatch.chdir(tmp_path)
        before = sorted(os.listdir(tmp_path))
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before

    # the Evaluator resolves the count where it makes the pool; one worker
    # evaluates in-process
    def test_default_counts_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert pool_processes(None) is None
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert pool_processes(None) == 3
        assert pool_processes(1) is None
        assert pool_processes(4) == 4
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert pool_processes(None) == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert pool_processes(None) is None

    def test_config_count_below_one_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("[run]\nworkers = 0\n")
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:2" in err and "workers must be >= 1" in err
        assert not out.exists()


@pytest.fixture
def trained_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("trained")
    config = base / "run.cfg"
    config.write_text(TINY_CONFIG)
    out = str(base / "out")
    assert main(["evolve", "--config", str(config), "--out", out,
                 "--workers", "1"]) == 0
    return str(config), out


@pytest.fixture(scope="module")
def small_window_run(tmp_path_factory):
    """A modular champion evolved with neighborhood_distance = 1 (73 inputs)."""
    base = tmp_path_factory.mktemp("window")
    config = base / "window.cfg"
    config.write_text(TINY_CONFIG + "\n[observation]\nneighborhood_distance = 1\n")
    out = str(base / "run")
    assert main(["evolve", "--config", str(config), "--out", out,
                 "--workers", "1"]) == 0
    return str(config), os.path.join(out, "champion.ckpt")


class TestTransfer:
    def test_window_mismatch_exits_before_writing(self, small_window_run, config_path,
                                                  tmp_path, capsys):
        _, champion = small_window_run
        out = str(tmp_path / "transfer")
        assert main(["transfer", "--config", config_path, "--champion", champion,
                     "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config_path}: ")
        assert "takes 73 inputs" in err and "gives 201" in err
        assert not os.path.exists(out)

    def test_outputs(self, trained_run, tmp_path, capsys):
        config, run_dir = trained_run
        out = str(tmp_path / "transfer")
        champion = os.path.join(run_dir, "champion.ckpt")
        assert main(["transfer", "--config", config, "--champion", champion,
                     "--out", out]) == 0
        rows = read_rows(os.path.join(out, "transfer.csv"))
        assert rows[0] == columns(TransferSample)
        assert len(rows) > 1
        for row in rows[1:]:
            assert row[1] == "1"
            assert len(row[2]) == 25
            assert float(row[4]) >= float(row[3])  # one-shot >= zero-shot
        summary = pathlib.Path(out, "transfer_summary.txt").read_text(encoding="utf-8")
        assert "source fitness:" in summary
        assert "distance 1" in summary

    def test_deterministic(self, trained_run, tmp_path):
        config, run_dir = trained_run
        champion = os.path.join(run_dir, "champion.ckpt")
        outs = [str(tmp_path / name) for name in ("t1", "t2")]
        for out in outs:
            assert main(["transfer", "--config", config, "--champion", champion,
                         "--out", out]) == 0
        with open(os.path.join(outs[0], "transfer.csv"), "rb") as fa, \
                open(os.path.join(outs[1], "transfer.csv"), "rb") as fb:
            assert fa.read() == fb.read()

    def test_worker_count_does_not_change_output(self, trained_run, tmp_path):
        config, run_dir = trained_run
        champion = os.path.join(run_dir, "champion.ckpt")
        outs = [str(tmp_path / name) for name in ("w1", "w2")]
        for out, workers in zip(outs, ("1", "2")):
            assert main(["transfer", "--config", config, "--champion", champion,
                         "--out", out, "--workers", workers]) == 0
            assert not any(name.endswith(".partial") for name in os.listdir(out))
        for name in ("transfer.csv", "transfer_summary.txt"):
            with open(os.path.join(outs[0], name), "rb") as fa, \
                    open(os.path.join(outs[1], name), "rb") as fb:
                assert fa.read() == fb.read(), name

    # a champion without a fitness is scored under the config first, to the
    # fitness its run recorded
    def test_unevaluated_champion_is_scored_as_its_run_scored_it(self, trained_run,
                                                                 tmp_path):
        config, run_dir = trained_run
        scored = os.path.join(run_dir, "champion.ckpt")
        unscored = str(tmp_path / "champion.ckpt")
        champion = load_individual(scored)
        save_individual(unscored, dataclasses.replace(champion, fitness=None))
        outs = [str(tmp_path / name) for name in ("scored", "unscored")]
        for out, path in zip(outs, (scored, unscored)):
            assert main(["transfer", "--config", config, "--champion", path,
                         "--out", out, "--workers", "1"]) == 0
        for name in ("transfer.csv", "transfer_summary.txt"):
            with open(os.path.join(outs[0], name), "rb") as fa, \
                    open(os.path.join(outs[1], name), "rb") as fb:
                assert fa.read() == fb.read(), name
        summary = pathlib.Path(outs[1], "transfer_summary.txt").read_text(encoding="utf-8")
        assert summary.startswith(f"source fitness: {champion.fitness!r}\n")

    # a distance where no neighbor was sampled was labelled as omitted for a
    # source fitness below the guard, whatever the source fitness
    def test_distance_without_neighbors_says_so(self, trained_run, tmp_path, monkeypatch):
        config, run_dir = trained_run
        both = tmp_path / "both.cfg"
        both.write_text(TINY_CONFIG.replace("distances = 1\n", "distances = 1, 2\n"))
        champion = load_individual(os.path.join(run_dir, "champion.ckpt"))
        path = str(tmp_path / "champion.ckpt")
        save_individual(path, dataclasses.replace(champion, fitness=1.0))  # above the guard
        real = voxevo.experiments._distinct_neighbors

        def none_at_two(source, distance, count, rng):
            return [] if distance == 2 else real(source, distance, count, rng)

        summaries = []
        for out, patch in (("sampled", False), ("emptied", True)):
            if patch:
                monkeypatch.setattr(voxevo.experiments, "_distinct_neighbors", none_at_two)
            assert main(["transfer", "--config", str(both), "--champion", path,
                         "--out", str(tmp_path / out), "--workers", "1"]) == 0
            summaries.append((tmp_path / out / "transfer_summary.txt").read_text(encoding="utf-8"))
        sampled, emptied = (summary.splitlines() for summary in summaries)
        at_two = emptied.index("distance 2: 0 samples")
        assert sampled[at_two] == "distance 2: 2 samples"
        assert emptied[:at_two] == sampled[:at_two]
        assert emptied[at_two + 1:] == ["  relative changes omitted (no neighbor sampled)"]
        assert "below guard" not in summaries[1]

    # the champion's fitness is the source of every relative change
    @pytest.mark.parametrize("fitness", [math.inf, -math.inf])
    def test_infinite_champion_fitness_refused_before_writing(self, trained_run, tmp_path,
                                                              capsys, fitness):
        config, run_dir = trained_run
        path = str(tmp_path / "champion.ckpt")
        shutil.copyfile(os.path.join(run_dir, "champion.ckpt"), path)
        parent_fitness = load_individual(path).parent_fitness_at_birth
        patch_checkpoint_fitness(path, fitness,
                                 math.nan if parent_fitness is None else parent_fitness)
        out = tmp_path / "out"
        assert main(["transfer", "--config", config, "--champion", path,
                     "--out", str(out), "--workers", "1"]) == 2
        assert capsys.readouterr().err == f"error: {path}: infinite fitness\n"
        assert not out.exists()

    def test_missing_champion(self, trained_run, tmp_path, capsys):
        config, _ = trained_run
        assert main(["transfer", "--config", config,
                     "--champion", str(tmp_path / "nope.ckpt"),
                     "--out", str(tmp_path / "t")]) == 2
        assert "error:" in capsys.readouterr().err

    # the directory was made only after every episode had been scored
    def test_out_naming_a_file_is_refused_before_any_episode(self, trained_run, tmp_path,
                                                             monkeypatch, capsys):
        config, run_dir = trained_run
        out = tmp_path / "afile"
        out.write_text("kept\n")

        def no_episodes(*args, **kwargs):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(voxevo.cli, "transfer_analysis", no_episodes)
        assert main(["transfer", "--config", config, "--out", str(out), "--workers", "1",
                     "--champion", os.path.join(run_dir, "champion.ckpt")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_text() == "kept\n"
        assert sorted(os.listdir(tmp_path)) == ["afile"]


class TestReplay:
    def test_trajectory_stream(self, trained_run, tmp_path):
        config, run_dir = trained_run
        champion_path = os.path.join(run_dir, "champion.ckpt")
        out = str(tmp_path / "replay.jsonl")
        assert main(["replay", "--champion", champion_path, "--out", out,
                     "--config", config]) == 0
        lines = [json.loads(line)
                 for line in pathlib.Path(out).read_text(encoding="utf-8").splitlines()]
        meta, frames = lines[0], lines[1:]
        assert meta["type"] == "meta"
        assert len(frames) == meta["steps"]
        champion = load_individual(champion_path)
        assert meta["checkpoint_fitness"] == champion.fitness
        assert meta["fitness"] == champion.fitness  # same config, same episode
        assert meta["morphology"] == champion.morphology.to_text().replace("\n", "")
        for i, frame in enumerate(frames):
            assert frame == {"type": "frame", "step": i,
                             "positions": frame["positions"]}
            assert len(frame["positions"]) == meta["n_masses"]
            assert all(len(p) == 2 for p in frame["positions"])

    def test_default_config(self, trained_run, tmp_path):
        _, run_dir = trained_run
        out = str(tmp_path / "replay.jsonl")
        assert main(["replay", "--champion",
                     os.path.join(run_dir, "champion.ckpt"), "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            meta = json.loads(fh.readline())
        assert meta["steps"] <= 500


    # a network that overflows gives NaN actions at the first action step:
    # the episode diverges there, before any step, and is written as such
    def test_overflowing_controller_replays_as_diverged(self, trained_run, tmp_path, capsys):
        config, run_dir = trained_run
        champion = load_individual(os.path.join(run_dir, "champion.ckpt"))
        ctrl = champion.controller
        huge = dataclasses.replace(ctrl, W1=ctrl.W1 * 1e300, W2=ctrl.W2 * 1e300)
        path = str(tmp_path / "huge.ckpt")
        save_individual(path, dataclasses.replace(champion, controller=huge))
        out = tmp_path / "replay.jsonl"
        assert main(["replay", "--champion", path, "--out", str(out),
                     "--config", config]) == 0
        (meta,) = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert meta["diverged"] is True and meta["steps"] == 0
        assert meta["fitness"] == -10.0 and meta["delta_px"] is None
        assert meta["n_masses"] > 0

    def test_smaller_window_champion_loads_and_replays(self, small_window_run, tmp_path):
        config, champion_path = small_window_run
        champion = load_individual(champion_path)
        assert champion.controller.n_inputs == 3 * 3 * 8 + 1
        out = str(tmp_path / "replay.jsonl")
        assert main(["replay", "--champion", champion_path, "--out", out,
                     "--config", config]) == 0
        with open(out, encoding="utf-8") as fh:
            meta = json.loads(fh.readline())
        assert meta["fitness"] == champion.fitness

    def test_window_mismatch_exits_before_writing(self, small_window_run, tmp_path,
                                                  capsys):
        _, champion_path = small_window_run
        out = str(tmp_path / "replays" / "replay.jsonl")
        assert main(["replay", "--champion", champion_path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "takes 73 inputs" in err and "gives 201" in err
        assert not os.path.exists(os.path.dirname(out))

    # the episode ran first, then the rename failed and left <out>.partial
    def test_out_naming_a_directory_is_refused_before_the_episode(self, trained_run,
                                                                  tmp_path, monkeypatch,
                                                                  capsys):
        _, run_dir = trained_run
        out = tmp_path / "replays"
        out.mkdir()

        def no_episodes(*args, **kwargs):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(voxevo.cli, "run_episode", no_episodes)
        assert main(["replay", "--champion", os.path.join(run_dir, "champion.ckpt"),
                     "--out", str(out)]) == 2
        assert f"error: --out: output is a directory: {out}" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["replays"]
        assert os.listdir(out) == []


class TestInvalidChampion:
    # transfer and replay died with a traceback in the first episode's build,
    # transfer leaving its --out directory behind
    @pytest.mark.parametrize("body", list(INVALID_BODIES))
    @pytest.mark.parametrize("command", ["transfer", "replay"])
    def test_refused_before_writing(self, trained_run, tmp_path, capsys, command, body):
        config, run_dir = trained_run
        path = str(tmp_path / "champion.ckpt")
        shutil.copyfile(os.path.join(run_dir, "champion.ckpt"), path)
        patch_checkpoint_body(path, INVALID_BODIES[body])
        out = tmp_path / "out"
        argv = {"transfer": ["--out", str(out), "--workers", "1"],
                "replay": ["--out", str(out / "replay.jsonl")]}[command]
        assert main([command, "--config", config, "--champion", path, *argv]) == 2
        assert capsys.readouterr().err == f"error: {path}: the body is not a valid robot\n"
        assert not out.exists()


class TestReport:
    def test_single_run(self, trained_run, capsys):
        _, run_dir = trained_run
        assert main(["report", run_dir]) == 0
        printed = capsys.readouterr().out
        assert "runs: 1" in printed
        rows = read_rows(os.path.join(run_dir, "report.csv"))
        assert rows[0] == columns(RunSummary)
        assert len(rows) == 2
        assert os.path.exists(os.path.join(run_dir, "report.txt"))

    def test_battery_aggregate(self, tmp_path, capsys):
        cfg = tmp_path / "battery.cfg"
        cfg.write_text(TINY_CONFIG + "\nn_runs = 2\n")
        out = str(tmp_path / "out")
        assert main(["evolve", "--config", str(cfg), "--out", out,
                     "--workers", "1"]) == 0
        assert main(["report", out]) == 0
        rows = read_rows(os.path.join(out, "report.csv"))
        assert [r[0] for r in rows[1:]] == ["run_00", "run_01", "aggregate_median"]
        assert "median" in capsys.readouterr().out

    def test_convergence_columns_follow_the_thresholds(self):
        assert columns(RunSummary)[2:-2] == [
            f"gens_to_{round(t * 100)}" for t in CONVERGENCE_THRESHOLDS]

    # a champion with no fitness was reported as an empty champion_fitness
    # and exit 0, and crashed np.percentile in a battery
    @pytest.mark.parametrize("battery", [False, True], ids=["single", "battery"])
    def test_unevaluated_champion_is_refused(self, tmp_path, capsys, battery):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_CONFIG + ("n_runs = 2\n" if battery else ""))
        out = str(tmp_path / "out")
        assert main(["evolve", "--config", str(cfg), "--out", out, "--workers", "1"]) == 0
        run_dir = os.path.join(out, "run_01") if battery else out
        path = os.path.join(run_dir, "champion.ckpt")
        save_individual(path, dataclasses.replace(load_individual(path), fitness=None))
        capsys.readouterr()
        assert main(["report", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {run_dir}: champion.ckpt has no fitness\n"
        assert not os.path.exists(os.path.join(out, "report.csv"))

    def test_missing_artifacts(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", str(empty)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_incomplete_run_reports_missing_names(self, tmp_path, capsys):
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "generations.csv").write_text(
            ",".join(GENERATION_COLUMNS) + "\n1,0.1,0.1,0,1,1,1\n")
        assert main(["report", str(broken)]) == 2
        err = capsys.readouterr().err
        assert "lineage.csv" in err and "champion.ckpt" in err


    # non-numeric fields and dropped columns escaped as tracebacks, exit 1; a
    # NaN best fitness crashed convergence_metrics and an infinite one was
    # reported. A success of "yes" was read as 0, an unknown mutation kind
    # was left out of the accounting, and only two generations.csv columns
    # were read, all with exit 0
    @pytest.mark.parametrize("name, column, value, expected", [
        ("generations.csv", "best_fitness", "zz", "could not convert string to float: 'zz'"),
        ("lineage.csv", "fitness", "abc", "could not convert string to float: 'abc'"),
        ("lineage.csv", "fitness", None, "no 'fitness' column"),
        *((name, column, value, f"not a finite number: {value!r}")
          for name, column in (("generations.csv", "best_fitness"), ("lineage.csv", "fitness"))
          for value in ("nan", "inf", "-inf")),
        ("lineage.csv", "success", "yes", "not 0 or 1: 'yes'"),
        ("lineage.csv", "mutation_kind", "bdy", "unknown mutation_kind 'bdy'"),
        ("generations.csv", "mean_fitness", "zz", "could not convert string to float: 'zz'"),
        ("generations.csv", "n_body_success", "one",
         "invalid literal for int() with base 10: 'one'"),
        # an int that `int` reads but `str` does not write back was read as
        # written: generation 2_0 was generation 20, with exit 0
        *(("generations.csv", "generation", value, f"not an integer as written: {value!r}")
          for value in ("2_0", " 2", "+2", "02")),
        ("lineage.csv", "id", "+3", "not an integer as written: '+3'"),
        # and the generations were never checked to be numbered 1, 2, ...
        ("generations.csv", "generation", "3", "generation 3, expected 2"),
        ("generations.csv", "generation", "1", "generation 1, expected 2"),
        # a repeated lineage id replaced the earlier row, and a fresh record
        # with a parent was counted, both with exit 0
        ("lineage.csv", "id", "0", "repeated id 0"),
        ("lineage.csv", "parent_id", "0", "a fresh record with parent_id 0"),
    ], ids=["bad_best_fitness", "bad_fitness", "dropped_column",
            *(f"{column}_{value}" for column in ("best_fitness", "fitness")
              for value in ("nan", "inf", "-inf")),
            "bad_success", "bad_mutation_kind", "bad_mean_fitness", "bad_n_body_success",
            "underscored_generation", "spaced_generation", "signed_generation",
            "zero_padded_generation", "signed_id", "skipped_generation",
            "repeated_generation", "repeated_id", "fresh_with_parent"])
    def test_malformed_artifact_is_refused_with_file_and_line(
            self, trained_run, capsys, name, column, value, expected):
        _, run_dir = trained_run
        path = os.path.join(run_dir, name)
        rows = read_rows(path)
        at = rows[0].index(column)
        if value is None:
            rows = [row[:at] + row[at + 1:] for row in rows]
        else:
            rows[2][at] = value  # the second data row: line 3 of the file
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert main(["report", run_dir]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {path}: line {2 if value is None else 3}: {expected}"]
        assert not os.path.exists(os.path.join(run_dir, "report.csv"))


    # a success that disagrees with the row's fitness against its parent's
    # was counted as written
    def test_flipped_success_is_refused_with_file_and_line(self, trained_run, capsys):
        _, run_dir = trained_run
        path = os.path.join(run_dir, "lineage.csv")
        rows = read_rows(path)
        header, row = rows[0], rows[2]
        at = header.index("success")
        row[at] = "0" if row[at] == "1" else "1"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert main(["report", run_dir]) == 2
        captured = capsys.readouterr()
        fitness, parent = (row[header.index(name)]
                           for name in ("fitness", "parent_fitness_at_birth"))
        assert captured.err.splitlines() == [
            f"error: {path}: line 3: success {row[at] == '1'} disagrees with fitness "
            f"{float(fitness)!r} against parent_fitness_at_birth "
            f"{float(parent) if parent else None!r}"]
        assert not os.path.exists(os.path.join(run_dir, "report.csv"))


class TestOneErrorExit:
    # each command once printed its own error and returned 2, with four
    # different sets of exceptions; main now reports every refusal
    @pytest.mark.parametrize("command", ["evolve", "transfer", "replay", "report"])
    def test_input_problem_exits_2_with_one_error_line_and_no_output(
            self, command, trained_run, tmp_path, capsys):
        config, run_dir = trained_run
        bad = tmp_path / "bad.cfg"
        bad.write_text("[run]\nseed = 1\nbogus = 2\n")
        out = tmp_path / "out"
        argv = {
            "evolve": ["evolve", "--config", str(bad), "--out", str(out)],
            "transfer": ["transfer", "--config", config, "--out", str(out),
                         "--champion", str(tmp_path / "missing.ckpt")],
            "replay": ["replay", "--config", str(bad), "--out", str(out / "replay.jsonl"),
                       "--champion", os.path.join(run_dir, "champion.ckpt")],
            "report": ["report", str(out)],
        }[command]
        if command == "report":  # a run that stopped before its lineage
            out.mkdir()
            (out / "generations.csv").write_text(
                ",".join(GENERATION_COLUMNS) + "\n1,0.1,0.1,0,1,1,1\n")
        before = tree(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
        assert tree(tmp_path) == before


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "voxevo.cli", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "evolve" in proc.stdout and "replay" in proc.stdout

    def test_console_script_if_installed(self):
        exe = shutil.which("voxevo")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0

    def test_missing_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main([])
