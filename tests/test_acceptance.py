"""End-to-end acceptance gates.

Each class checks one release gate: exact structural facts, reward and
physics oracles, operator statistics, selection guarantees, determinism,
transfer invariants, the paradigm-comparison battery, and multi-body
training. The two expensive gates drive the command line (`evolve`,
`report`, `transfer`) as a user would, on every CPU the process may use.
They run at a reduced scale by default; set VOXEVO_ACCEPTANCE_FULL=1 to
run them at full scale (several core-hours). The paradigm-comparison
trends are computed from `report.csv` and `transfer.csv` and logged,
never asserted: they are directional expectations, not invariants.
"""

import csv
import dataclasses
import json
import logging
import math
import os

import numpy as np
import pytest

from voxevo.checkpoints import load_individual
from voxevo.cli import main
from voxevo.control import init_controller, mutate_controller
from voxevo.evolution import (
    Evaluator,
    Individual,
    run_evolution,
    score,
    select_survivors,
)
from voxevo.experiments import CATALOG_ORDER, default_catalog, transfer_analysis
from voxevo.morphology import (
    GRID_SIZE,
    Morphology,
    mutate_morphology,
    random_morphology,
    resample_cells,
    validate,
)
from voxevo.physics import PhysicsConfig, build_world, center_of_mass, join_worlds, step_env
from voxevo.runconfig import RunConfig, load_config
from voxevo.sensing import (
    BLOCK_SIZE,
    MISSING_BLOCK,
    ObservationBuilder,
    ObservationConfig,
    input_size,
)
from voxevo.walker import EpisodeConfig, episode_fitness, evaluate_fitness, run_episode

from helpers import (
    NO_CONTACT,
    mechanical_energy,
    member_inputs,
    oracle_spring_forces,
    run_to_end,
)

logger = logging.getLogger("voxevo.acceptance")

FULL_SCALE = os.environ.get("VOXEVO_ACCEPTANCE_FULL") == "1"

BODY = Morphology.from_text("00000\n00000\n00000\n32400\n12121")
COLUMN_BODY = Morphology.from_text("30000\n40000\n30000\n40000\n30000")
NARROW_BODY = Morphology.from_text("00000\n00000\n00000\n32400\n12100")
PLUS_BODY = Morphology.from_text("00000\n00300\n03120\n00200\n00000")


def zero_modular_controller():
    ctrl = init_controller("modular", np.random.default_rng(0))
    return dataclasses.replace(ctrl, W1=np.zeros_like(ctrl.W1), b1=np.zeros_like(ctrl.b1),
                               W2=np.zeros_like(ctrl.W2), b2=np.zeros_like(ctrl.b2))


class TestStructuralSizes:
    def test_controller_parameter_counts(self):
        rng = np.random.default_rng(0)
        assert init_controller("modular", rng).to_flat().size == 6497
        assert init_controller("global", rng).to_flat().size == 7289

    def test_observation_vector_lengths(self):
        cfg = ObservationConfig()
        assert input_size("global", cfg) == 201
        assert input_size("modular", cfg) == 201
        world = join_worlds([build_world(BODY, PhysicsConfig())])
        shapes = {kind: member_inputs(ObservationBuilder(world, (kind,), cfg), world, 0).shape
                  for kind in ("global", "modular")}
        assert shapes == {"global": (201,), "modular": (len(world.actuator_cells), 201)}


class TestRewardDefinition:
    def test_stationary_full_length_episode_scores_zero(self):
        # No gravity, a symmetric actuation range, and an all-zero
        # controller (sigmoid(0) = 0.5 maps to scale exactly 1.0) leave
        # every mass bitwise in place, so the displacement terms vanish
        # and the shift constant cancels the step penalty exactly.
        physics = PhysicsConfig(gravity=0.0, actuation_min=0.5, actuation_max=1.5,
                                **NO_CONTACT)
        result = run_episode(BODY, zero_modular_controller(),
                             EpisodeConfig(max_steps=500), physics)
        assert result.delta_px == 0.0
        assert result.fitness == 0.0
        assert result.steps_used == 500

    def test_reach_bonus_example(self):
        assert episode_fitness(40.0, True, 300, EpisodeConfig()) == 43.0

    def test_decomposition_on_random_episodes(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for i in range(100):
            body = random_morphology(rng)
            kind = "modular" if i % 2 == 0 else "global"
            ctrl = init_controller(kind, rng)
            cfg = EpisodeConfig(max_steps=int(rng.integers(20, 61)))
            result = run_episode(body, ctrl, cfg)
            if result.diverged:
                assert result.fitness == cfg.divergence_floor
            else:
                assert result.fitness == episode_fitness(
                    result.delta_px, result.reached_end, result.steps_used, cfg)
            checked += 1
        assert checked == 100


def oracle_batches(physics):
    """The batches each physics gate runs on, as (joined world, member
    worlds): BODY alone, a batch of one as every one-body job steps it, then
    the four catalog bodies joined. Each gate holds for every member."""
    catalog = default_catalog()
    for bodies in ((BODY,), tuple(catalog[name] for name in CATALOG_ORDER)):
        worlds = [build_world(body, physics) for body in bodies]
        yield join_worlds(worlds), worlds


class TestPhysicsOracles:
    def test_free_fall_com_acceleration(self):
        physics = PhysicsConfig(**NO_CONTACT)
        for batch, worlds in oracle_batches(physics):
            v0 = [center_of_mass_velocity(world) for world in worlds]
            n_env = 50
            for _ in range(n_env):
                step_env(batch)
            dt = physics.physics_dt * physics.substeps_per_env_step * n_env
            for world, v in zip(worlds, v0):
                accel = (center_of_mass_velocity(world) - v) / dt
                assert abs(accel[0]) < 1e-9
                assert abs(accel[1] + physics.gravity) / physics.gravity < 1e-6

    def test_internal_forces_sum_to_zero(self):
        # with no gravity and no contact only the springs act, so the
        # engine's step conserves momentum exactly when their forces cancel
        physics = PhysicsConfig(gravity=0.0, **NO_CONTACT)
        rng = np.random.default_rng(3)
        for batch, worlds in oracle_batches(physics):
            for world in worlds:
                world.pos += rng.normal(0.0, 0.05, world.pos.shape)
                world.vel += rng.normal(0.0, 0.5, world.vel.shape)
                assert np.abs(oracle_spring_forces(world).sum(axis=0)).max() < 1e-9
            momentum = [world.mass @ world.vel for world in worlds]
            step_env(batch)
            dt = physics.physics_dt * physics.substeps_per_env_step
            for world, p in zip(worlds, momentum):
                assert np.abs(world.mass @ world.vel - p).max() < 1e-9 * dt

    def test_energy_non_increasing_without_contact(self):
        physics = PhysicsConfig(substeps_per_env_step=1, **NO_CONTACT)
        rng = np.random.default_rng(4)
        for batch, worlds in oracle_batches(physics):
            for world in worlds:
                world.vel += rng.normal(0.0, 0.5, world.vel.shape)
            energy = [mechanical_energy(world) for world in worlds]
            for _ in range(1000):
                step_env(batch)
                nxt = [mechanical_energy(world) for world in worlds]
                assert all(n <= e + 1e-9 for n, e in zip(nxt, energy))
                energy = nxt

    def test_resting_robot_does_not_creep(self):
        for batch, worlds in oracle_batches(PhysicsConfig()):
            x0 = [center_of_mass(world)[0] for world in worlds]
            for _ in range(500):
                step_env(batch)
            for world, x in zip(worlds, x0):
                assert abs(center_of_mass(world)[0] - x) < 0.05


def center_of_mass_velocity(world):
    return world.mass @ world.vel / world.mass.sum()


def horizontal_span(morph: Morphology) -> tuple[int, int]:
    cols = np.flatnonzero(morph.grid.any(axis=0))
    return int(cols[0]), int(cols[-1])


def with_left_column_at(morph: Morphology, col: int) -> Morphology:
    lo, hi = horizontal_span(morph)
    grid = np.zeros((GRID_SIZE, GRID_SIZE), dtype=morph.grid.dtype)
    grid[:, col:col + hi - lo + 1] = morph.grid[:, lo:hi + 1]
    return Morphology(grid)


def valid_shifts(morph: Morphology) -> range:
    lo, hi = horizontal_span(morph)
    return range(GRID_SIZE - (hi - lo))


class TestTranslationEquivariance:
    """Shifting a body inside the grid box must not change what a modular
    controller experiences, while the global observation keys blocks to
    absolute grid cells and therefore permutes.

    The stock catalog bodies span the full box width and admit only the
    zero shift, so purpose-built narrow bodies carry the content here.
    """

    NARROW = {"column": COLUMN_BODY, "narrow": NARROW_BODY, "plus": PLUS_BODY}

    def test_catalog_bodies_have_no_shift_room(self):
        for name, morph in default_catalog().items():
            assert list(valid_shifts(morph)) == [0], name

    def test_modular_fitness_identical_across_shifts(self):
        cfg = EpisodeConfig(max_steps=100)
        cases = dict(self.NARROW)
        cases.update(default_catalog())
        for seed, (name, morph) in enumerate(sorted(cases.items())):
            ctrl = init_controller("modular", np.random.default_rng(40 + seed))
            results = [run_episode(with_left_column_at(morph, s), ctrl, cfg)
                       for s in valid_shifts(morph)]
            assert len(results) == len(valid_shifts(morph))
            base = results[0]
            for shifted in results[1:]:
                assert shifted.fitness == base.fitness, name
                assert shifted.delta_px == base.delta_px, name
                assert shifted.steps_used == base.steps_used, name

    def test_global_observation_permutes_blocks(self):
        obs_cfg = ObservationConfig()
        physics = PhysicsConfig()

        def block(vec, row, col):
            i = (row * GRID_SIZE + col) * BLOCK_SIZE
            return vec[i:i + BLOCK_SIZE]

        def global_vec(morph):
            world = join_worlds([build_world(morph, physics)])
            return member_inputs(ObservationBuilder(world, ("global",), obs_cfg), world, 0)

        for name, morph in self.NARROW.items():
            base_vec = global_vec(with_left_column_at(morph, 0))
            for s in valid_shifts(morph):
                if s == 0:
                    continue
                vec = global_vec(with_left_column_at(morph, s))
                assert not np.array_equal(vec, base_vec), name
                assert vec[-1] == base_vec[-1]  # time signal is shared
                for row in range(GRID_SIZE):
                    for col in range(GRID_SIZE):
                        expected = (block(base_vec, row, col - s)
                                    if col >= s else MISSING_BLOCK)
                        np.testing.assert_array_equal(
                            block(vec, row, col), expected,
                            err_msg=f"{name} shift {s} cell ({row},{col})")


class TestOperatorStatistics:
    def test_resample_event_rate(self):
        rng = np.random.default_rng(505)
        total = 0
        for _ in range(10_000):
            total += int(resample_cells(BODY.grid, rng)[1].sum())
        assert abs(total / 10_000 - 2.5) < 0.2

    def test_controller_mutation_std(self):
        base = init_controller("modular", np.random.default_rng(0))
        flat0 = base.to_flat()
        rng = np.random.default_rng(606)
        first_param = np.empty(10_000)
        sum_d = 0.0
        sum_d2 = 0.0
        count = 0
        for i in range(10_000):
            delta = mutate_controller(base, rng, 0.1).to_flat() - flat0
            first_param[i] = delta[0]
            sum_d += delta.sum()
            sum_d2 += (delta * delta).sum()
            count += delta.size
        single = float(first_param.std(ddof=1))
        pooled = math.sqrt(sum_d2 / count - (sum_d / count) ** 2)
        assert 0.098 <= single <= 0.102
        assert 0.098 <= pooled <= 0.102

    def test_every_emitted_genome_is_valid(self):
        rng = np.random.default_rng(707)
        morph = BODY
        for _ in range(10_000):
            morph = mutate_morphology(morph, rng)
            assert validate(morph)


class TestSelectionGuarantees:
    MU, LAMBDA = 16, 16

    def _pool(self, rng, shared):
        morph, ctrl = shared
        # Ages mimic live pools: small integers with many newcomers at
        # zero. With at most MU distinct ages the first front can never
        # exceed MU members, so it is never cut by the fitness fill.
        ages = rng.integers(0, 9, self.MU + self.LAMBDA + 1)
        fits = rng.normal(0.0, 1.0, ages.size)
        return [Individual(morph, ctrl, int(a), i, None, "fresh", None, float(f))
                for i, (a, f) in enumerate(zip(ages, fits))]

    def test_thousand_random_pools(self):
        rng = np.random.default_rng(808)
        shared = (BODY, init_controller("modular", np.random.default_rng(0)))
        unique_min_age_pools = 0
        for _ in range(1000):
            pool = self._pool(rng, shared)
            survivors = select_survivors(pool, self.MU)
            assert len(survivors) == self.MU
            ids = {ind.id for ind in survivors}
            best = max(pool, key=lambda ind: ind.fitness)
            assert best.id in ids
            min_age = min(ind.age for ind in pool)
            assert any(ind.age == min_age for ind in survivors)
            youngest = [ind for ind in pool if ind.age == min_age]
            if len(youngest) == 1:
                unique_min_age_pools += 1
                assert youngest[0].id in ids
        assert unique_min_age_pools > 0

    def test_pool_size_during_evolution(self):
        """Each generation picks mu survivors from a pool of mu + lambda + 1:
        the previous survivors, lambda offspring and one fresh individual."""
        cfg = RunConfig(mu=4, lambda_=4, generations=5, seed=11, workers=1,
                        episode=EpisodeConfig(max_steps=30))
        seen = []
        with Evaluator(cfg) as evaluator:
            for state, log in run_evolution(cfg, evaluator):
                seen.append((log, [ind.id for ind in state.population]))
        lineage = state.lineage  # every record, in id order from 0
        assert len(seen) == 5
        survivors = list(range(cfg.mu))  # the initial population's ids
        for log, population in seen:
            # generation g's lambda offspring and fresh individual take the
            # next lambda + 1 ids
            first = cfg.mu + (log.generation - 1) * (cfg.lambda_ + 1)
            pool = survivors + list(range(first, first + cfg.lambda_ + 1))
            assert len(set(pool)) == cfg.mu + cfg.lambda_ + 1
            assert len(population) == cfg.mu and set(population) <= set(pool)
            assert log.best_fitness == max(lineage[i].fitness for i in pool)
            survivors = population


DETERMINISM_CONFIG = """
[run]
seed = 4242
generations = 50

[evolution]
mu = 8
lambda = 8

[episode]
max_steps = 100
"""


class TestRunDeterminism:
    def test_same_seed_same_csv_any_worker_count(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(DETERMINISM_CONFIG)
        outs = {name: str(tmp_path / name) for name in ("a", "b", "c")}
        for name, workers in (("a", "1"), ("b", "1"), ("c", "2")):
            assert main(["evolve", "--config", str(config),
                         "--out", outs[name], "--workers", workers]) == 0
        for artifact in ("generations.csv", "lineage.csv"):
            blobs = {}
            for name, out in outs.items():
                with open(os.path.join(out, artifact), "rb") as fh:
                    blobs[name] = fh.read()
            assert blobs["a"] == blobs["b"], artifact
            assert blobs["a"] == blobs["c"], artifact


@pytest.fixture(scope="module")
def trained_run():
    cfg = RunConfig(mu=4, lambda_=4, generations=10, seed=909, workers=1,
                    episode=EpisodeConfig(max_steps=100))
    return run_to_end(cfg)[0], cfg


class TestTransferInvariants:
    def test_one_shot_never_below_zero_shot(self, trained_run):
        run, cfg = trained_run
        champion = run.champion
        samples = transfer_analysis(
            champion.morphology, champion.controller, champion.fitness,
            [1, 2], np.random.default_rng(910), Evaluator(cfg),
            samples_per_distance=4, one_shot_lambda=2)
        assert samples
        for sample in samples:
            assert sample.one_shot_fitness >= sample.zero_shot_fitness
            if sample.relative_change_zero is not None:
                src = abs(champion.fitness)
                assert sample.relative_change_zero == \
                    (sample.zero_shot_fitness - champion.fitness) / src
                assert sample.relative_change_one == \
                    (sample.one_shot_fitness - champion.fitness) / src

    def test_self_transfer_changes_nothing(self, trained_run):
        run, cfg = trained_run
        champion = run.champion
        assert champion.fitness != 0.0
        again = evaluate_fitness(champion.morphology, champion.controller,
                                 cfg.episode, cfg.physics, cfg.observation)
        assert again == champion.fitness
        assert (again - champion.fitness) / abs(champion.fitness) == 0.0


def read_csv(path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


BATTERY_CONFIG = """
[run]
paradigm = {paradigm}
seed = {seed}
generations = {generations}

[evolution]
mu = {mu}
lambda = {mu}

[episode]
max_steps = {max_steps}

[experiment]
n_runs = {n_runs}
distances = 1
samples_per_distance = {samples}
one_shot_lambda = {one_shot}
"""


class TestParadigmComparison:
    """Directional battery: modular vs global controllers.

    Per paradigm: an `evolve` battery, `report` on it, and `transfer` at
    distance 1 on each run's champion. The medians, transfer drops, and
    body-success fractions are read from `report.csv` and `transfer.csv`;
    whether each trend holds is logged, not asserted, since small
    batteries are noisy by nature.
    """

    def test_battery_report(self, tmp_path):
        if FULL_SCALE:
            n_runs, generations, mu, max_steps, samples, one_shot = 8, 300, 16, 300, 20, 16
        else:
            n_runs, generations, mu, max_steps, samples, one_shot = 2, 30, 8, 100, 4, 2

        paradigms = {}
        for name, base_seed in (("modular", 3000), ("global", 4000)):
            config = tmp_path / f"{name}.cfg"
            config.write_text(BATTERY_CONFIG.format(
                paradigm=name, seed=base_seed, generations=generations, mu=mu,
                max_steps=max_steps, n_runs=n_runs, samples=samples, one_shot=one_shot))
            battery = tmp_path / name
            assert main(["evolve", "--config", str(config), "--out", str(battery)]) == 0
            assert main(["report", str(battery)]) == 0
            *runs, aggregate = read_csv(battery / "report.csv")
            assert [row["run"] for row in runs] == [f"run_{i:02d}" for i in range(n_runs)]
            assert aggregate["run"] == "aggregate_median"

            rel_changes = []
            for i, row in enumerate(runs):
                out = tmp_path / f"{name}-transfer" / row["run"]
                assert main(["transfer", "--config", str(config),
                             "--seed", str(base_seed + i),
                             "--champion", str(battery / row["run"] / "champion.ckpt"),
                             "--out", str(out)]) == 0
                transfer = read_csv(out / "transfer.csv")
                assert 0 < len(transfer) <= samples
                assert {t["distance"] for t in transfer} == {"1"}
                rel_changes.extend(float(t["relative_change_zero"]) for t in transfer
                                   if t["relative_change_zero"])

            champions = [float(row["champion_fitness"]) for row in runs]
            q1, median, q3 = (float(v) for v in np.percentile(champions, [25, 50, 75]))
            assert float(aggregate["champion_fitness"]) == median
            fractions = [float(row["population_body_fraction"]) for row in runs
                         if row["population_body_fraction"]]
            paradigms[name] = {
                "n_runs": len(runs),
                "champion_median": median,
                "champion_iqr": (q1, q3),
                "mean_zero_shot_relative_change_d1":
                    float(np.mean(rel_changes)) if rel_changes else None,
                "mean_population_body_success_fraction":
                    float(np.mean(fractions)) if fractions else None,
            }

        for name in ("modular", "global"):
            paradigm = paradigms[name]
            assert paradigm is not None
            assert paradigm["n_runs"] == n_runs
            assert math.isfinite(paradigm["champion_median"])
            q1, q3 = paradigm["champion_iqr"]
            assert q1 <= paradigm["champion_median"] <= q3
            drop = paradigm["mean_zero_shot_relative_change_d1"]
            assert drop is None or math.isfinite(drop)
            fraction = paradigm["mean_population_body_success_fraction"]
            assert fraction is not None and 0.0 <= fraction <= 1.0

        mod, glo = paradigms["modular"], paradigms["global"]
        mod_drop = mod["mean_zero_shot_relative_change_d1"]
        glo_drop = glo["mean_zero_shot_relative_change_d1"]
        trends = {
            "modular_champion_ge_global":
                mod["champion_median"] >= glo["champion_median"],
            "both_zero_shot_negative_d1": (
                mod_drop is not None and glo_drop is not None
                and mod_drop < 0 and glo_drop < 0),
            "modular_drop_le_global": (
                mod_drop is not None and glo_drop is not None and mod_drop >= glo_drop),
            "modular_body_fraction_higher": (
                mod["mean_population_body_success_fraction"]
                > glo["mean_population_body_success_fraction"]),
        }
        assert set(trends) == {
            "modular_champion_ge_global",
            "both_zero_shot_negative_d1",
            "modular_drop_le_global",
            "modular_body_fraction_higher",
        }
        print("\nparadigm comparison report:")
        print(json.dumps(paradigms, indent=2))
        for key, held in trends.items():
            level = logging.INFO if held else logging.WARNING
            logger.log(level, "trend %s: %s", key, "held" if held else "NOT held")
            print(f"trend {key}: {'held' if held else 'NOT held'}")


MULTI_BODY_CONFIG = """
[run]
mode = multi-body
seed = 31
generations = {generations}

[evolution]
mu = {mu}
lambda = {mu}

[episode]
max_steps = {max_steps}
"""


class TestMultiBodyTraining:
    def test_joint_fitness_is_exact_minimum(self):
        catalog = tuple(default_catalog()[name] for name in CATALOG_ORDER)
        cfg = RunConfig(catalog=catalog, episode=EpisodeConfig(max_steps=30), workers=1)
        evaluator = Evaluator(cfg)
        ctrl = init_controller("modular", np.random.default_rng(3))
        (joint,) = evaluator.evaluate([(catalog, ctrl)])
        singles = tuple(evaluator.evaluate([((body,), ctrl)])[0][0] for body in catalog)
        assert joint == singles  # one result per catalog body, in catalog order
        ind = Individual(catalog[0], ctrl, 0, 0, None, "fresh", None)
        (scored,) = score([ind], cfg, evaluator)
        assert scored.fitness == min(r.fitness for r in singles)

    def test_joint_champion_bounded_by_each_body(self, tmp_path):
        if FULL_SCALE:
            generations, mu, max_steps = 200, 16, 300
        else:
            generations, mu, max_steps = 8, 4, 100
        config = tmp_path / "multi-body.cfg"
        config.write_text(MULTI_BODY_CONFIG.format(
            generations=generations, mu=mu, max_steps=max_steps))
        out = tmp_path / "multi-body"
        assert main(["evolve", "--config", str(config), "--out", str(out)]) == 0

        cfg = load_config(str(config))
        catalog = [default_catalog()[name] for name in CATALOG_ORDER]
        assert cfg.catalog == tuple(catalog)
        champion = load_individual(str(out / "champion.ckpt"))
        with Evaluator(cfg) as evaluator:
            per_body = [r.fitness for (r,) in evaluator.evaluate(
                [((body,), champion.controller) for body in catalog])]
        assert len(per_body) == len(catalog)
        assert min(per_body) == champion.fitness
        assert all(f >= champion.fitness for f in per_body)
