"""Study procedures built on the evolution loop.

Covers the body catalog, controller transfer onto mutated bodies (zero-shot
and one-shot), mutation success accounting along champion lineages,
convergence metrics over best-fitness series, and the comparison report of
the two controller paradigms. All procedures are pure functions of
(config, seed).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .control import ControllerGenome, mutate_controller
from .evolution import KIND_BODY, KIND_BRAIN, Evaluator, RunArtifacts
from .morphology import Morphology, MutationFailedError, sample_neighbor, validate

logger = logging.getLogger(__name__)

CONVERGENCE_THRESHOLDS = (0.8, 0.9, 0.95, 0.99)

# Fixed single-material bodies (horizontal actuator everywhere), row 0 at the
# top of the grid. Shapes are conventional placeholders; swap via catalog
# files without touching code.
_CATALOG_TEXT = {
    "biped": "33333\n33333\n33333\n33033\n33033",
    "worm": "00000\n00000\n00000\n33333\n33333",
    "triped": "33333\n33333\n30303\n30303\n30303",
    "block": "33333\n33333\n33333\n33333\n33333",
}

CATALOG_ORDER = ("biped", "worm", "triped", "block")


def default_catalog() -> dict[str, Morphology]:
    return {name: Morphology.from_text(text) for name, text in _CATALOG_TEXT.items()}


class CatalogError(Exception):
    pass


def load_catalog(path: str) -> dict[str, Morphology]:
    """Read named bodies from a text file: a [name] header followed by five
    rows of five material digits. Invalid bodies are rejected."""
    from .morphology import GRID_SIZE

    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CatalogError(f"{path}: cannot read catalog: {exc}") from exc

    catalog: dict[str, Morphology] = {}
    name: str | None = None
    rows: list[str] = []

    def finish(line_no: int):
        nonlocal name, rows
        if name is None:
            return
        if len(rows) != GRID_SIZE:
            raise CatalogError(
                f"{path}:{line_no}: body {name!r} has {len(rows)} rows, "
                f"expected {GRID_SIZE}")
        body = Morphology.from_text("\n".join(rows))
        if not validate(body):
            raise CatalogError(f"{path}:{line_no}: body {name!r} is not a valid robot")
        catalog[name] = body
        name, rows = None, []

    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            finish(line_no)
            name = line[1:-1].strip()
            if not name:
                raise CatalogError(f"{path}:{line_no}: empty body name")
            if name in catalog:
                raise CatalogError(f"{path}:{line_no}: duplicate body {name!r}")
            continue
        if name is None:
            raise CatalogError(f"{path}:{line_no}: grid row outside any [name] section")
        if len(line) != GRID_SIZE or any(ch not in "01234" for ch in line):
            raise CatalogError(
                f"{path}:{line_no}: expected {GRID_SIZE} material digits (0-4)")
        rows.append(line)
    finish(len(lines) + 1)
    if not catalog:
        raise CatalogError(f"{path}: catalog is empty")
    return catalog


def save_catalog(path: str, catalog: dict[str, Morphology]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, body in catalog.items():
            fh.write(f"[{name}]\n{body.to_text()}\n")


@dataclass(frozen=True)
class TransferSample:
    source_id: int
    distance: int
    neighbor: Morphology
    zero_shot_fitness: float
    one_shot_fitness: float
    relative_change_zero: float | None
    relative_change_one: float | None


@dataclass(frozen=True)
class MutationAccounting:
    lineage_body_fraction: float | None
    population_body_fraction: float | None
    lineage_counts: dict[str, int]
    population_counts: dict[str, int]


@dataclass(frozen=True)
class ConvergenceMetrics:
    generations_to: dict[float, int]
    shifted: bool


class LineageIntegrityError(RuntimeError):
    pass


def _distinct_neighbors(source: Morphology, distance: int, count: int,
                        rng: np.random.Generator, attempts_per_sample: int = 50
                        ) -> list[Morphology]:
    """Pairwise-distinct neighbors at the given mutation distance, none equal
    to the source. Unfillable slots are skipped with a log entry."""
    found: list[Morphology] = []
    seen = {source}
    for _ in range(count):
        for _ in range(attempts_per_sample):
            try:
                cand = sample_neighbor(source, distance, rng)
            except MutationFailedError:
                continue
            if cand not in seen:
                seen.add(cand)
                found.append(cand)
                break
        else:
            logger.warning(
                "could not sample a fresh distance-%d neighbor; slot skipped", distance)
    return found


def transfer_analysis(champion_morph: Morphology, controller: ControllerGenome,
                      source_fitness: float, distances: list[int],
                      rng: np.random.Generator, evaluator: Evaluator,
                      samples_per_distance: int = 20,
                      one_shot_lambda: int = 16,
                      one_shot_sigma: float = 0.1,
                      source_id: int = 0,
                      min_source_magnitude: float = 0.1) -> list[TransferSample]:
    """Evaluate a trained controller on mutated bodies.

    Zero-shot keeps the controller unchanged. One-shot takes the best of the
    original controller and `one_shot_lambda` Gaussian mutants evaluated on
    the new body, so one_shot >= zero_shot holds by construction. Relative
    changes are (f - f_source) / |f_source|, reported as None when the source
    fitness magnitude is below `min_source_magnitude`.

    Every neighbor and mutant is drawn before any episode runs (episodes draw
    no random numbers), and all episodes go to `evaluator` in one batch.
    """
    guarded = abs(source_fitness) < min_source_magnitude
    if guarded:
        logger.warning(
            "source fitness %.4f below magnitude guard; relative changes omitted",
            source_fitness)

    drawn: list[tuple[int, Morphology]] = []
    jobs: list[tuple[tuple[Morphology, ...], ControllerGenome]] = []
    for distance in distances:
        for neighbor in _distinct_neighbors(
                champion_morph, distance, samples_per_distance, rng):
            drawn.append((distance, neighbor))
            jobs.append(((neighbor,), controller))
            jobs.extend(((neighbor,), mutate_controller(controller, rng, one_shot_sigma))
                        for _ in range(one_shot_lambda))
    fitnesses = evaluator.evaluate(jobs)

    per_neighbor = 1 + one_shot_lambda
    samples: list[TransferSample] = []
    for i, (distance, neighbor) in enumerate(drawn):
        scores = fitnesses[i * per_neighbor:(i + 1) * per_neighbor]
        zero, one = scores[0], max(scores)
        if guarded:
            rel_zero = rel_one = None
        else:
            rel_zero = (zero - source_fitness) / abs(source_fitness)
            rel_one = (one - source_fitness) / abs(source_fitness)
        samples.append(TransferSample(
            source_id=source_id,
            distance=distance,
            neighbor=neighbor,
            zero_shot_fitness=zero,
            one_shot_fitness=one,
            relative_change_zero=rel_zero,
            relative_change_one=rel_one,
        ))
    return samples


def accounting_from_lineage(lineage: dict, champion_id: int) -> MutationAccounting:
    """Successful-mutation statistics, population-wide and along the champion
    lineage (root to champion, counting only improving steps)."""
    pop_counts = {KIND_BODY: 0, KIND_BRAIN: 0}
    for record in lineage.values():
        if record.success and record.mutation_kind in pop_counts:
            pop_counts[record.mutation_kind] += 1

    chain_counts = {KIND_BODY: 0, KIND_BRAIN: 0}
    node_id = champion_id
    visited = set()
    while node_id is not None:
        if node_id in visited:
            raise LineageIntegrityError(f"lineage cycle at individual {node_id}")
        visited.add(node_id)
        record = lineage.get(node_id)
        if record is None:
            raise LineageIntegrityError(f"individual {node_id} missing from lineage")
        if record.success and record.mutation_kind in chain_counts:
            chain_counts[record.mutation_kind] += 1
        node_id = record.parent_id

    def fraction(counts: dict[str, int]) -> float | None:
        total = counts[KIND_BODY] + counts[KIND_BRAIN]
        return counts[KIND_BODY] / total if total else None

    return MutationAccounting(
        lineage_body_fraction=fraction(chain_counts),
        population_body_fraction=fraction(pop_counts),
        lineage_counts=chain_counts,
        population_counts=pop_counts,
    )


def mutation_accounting(run: RunArtifacts) -> MutationAccounting:
    return accounting_from_lineage(run.lineage, run.champion.id)


def convergence_metrics(best_fitness_series: list[float],
                        thresholds: tuple[float, ...] = CONVERGENCE_THRESHOLDS
                        ) -> ConvergenceMetrics:
    """First index reaching each fraction of the final value.

    Series containing negative values are shifted so their minimum is zero
    before thresholding; `shifted` records that this happened.
    """
    if not best_fitness_series:
        raise ValueError("series must be non-empty")
    series = np.asarray(best_fitness_series, dtype=float)
    shifted = bool(series.min() < 0)
    if shifted:
        series = series - series.min()
    final = series[-1]
    generations: dict[float, int] = {}
    for theta in thresholds:
        reached = np.flatnonzero(series >= theta * final)
        generations[theta] = int(reached[0])
    return ConvergenceMetrics(generations_to=generations, shifted=shifted)


def per_body_fitness(run: RunArtifacts, bodies: list[Morphology]) -> list[float]:
    """Champion controller fitness on each body separately, scored with the
    run's own settings and worker count."""
    with Evaluator(run.config) as evaluator:
        return evaluator.evaluate([((body,), run.champion.controller) for body in bodies])


def _median_iqr(values: list[float]) -> tuple[float, float, float]:
    arr = np.asarray(values, dtype=float)
    q1, med, q3 = np.percentile(arr, [25, 50, 75])
    return float(med), float(q1), float(q3)


def directional_report(modular_runs: list[RunArtifacts],
                       global_runs: list[RunArtifacts],
                       transfer_samples_per_run: int = 20,
                       one_shot_lambda: int = 16,
                       transfer_seed: int = 0) -> dict:
    """Aggregate comparison of the two controller paradigms.

    Emits champion-fitness medians/IQRs, mean zero-shot relative change at
    mutation distance 1, and body-mutation success fractions. The comparisons
    are reported, not asserted; desk-scale batteries are noisy. Each run's
    transfer episodes are scored with that run's settings and worker count.
    """
    report: dict = {"paradigms": {}}
    for name, runs in (("modular", modular_runs), ("global", global_runs)):
        champs = [r.champion.fitness for r in runs]
        med, q1, q3 = _median_iqr(champs)

        rel_changes: list[float] = []
        paradigm_tag = 0 if name == "modular" else 1
        for i, run in enumerate(runs):
            rng = np.random.default_rng(
                np.random.SeedSequence([transfer_seed, paradigm_tag, i]))
            with Evaluator(run.config) as evaluator:
                samples = transfer_analysis(
                    run.champion.morphology, run.champion.controller,
                    run.champion.fitness, [1], rng, evaluator,
                    samples_per_distance=transfer_samples_per_run,
                    one_shot_lambda=one_shot_lambda,
                    source_id=run.champion.id)
            rel_changes.extend(
                s.relative_change_zero for s in samples
                if s.relative_change_zero is not None)

        body_fractions = []
        for run in runs:
            acc = mutation_accounting(run)
            if acc.population_body_fraction is not None:
                body_fractions.append(acc.population_body_fraction)

        report["paradigms"][name] = {
            "n_runs": len(runs),
            "champion_median": med,
            "champion_iqr": (q1, q3),
            "mean_zero_shot_relative_change_d1":
                float(np.mean(rel_changes)) if rel_changes else None,
            "mean_population_body_success_fraction":
                float(np.mean(body_fractions)) if body_fractions else None,
        }

    mod, glo = report["paradigms"]["modular"], report["paradigms"]["global"]
    report["trends"] = {
        "modular_champion_ge_global": mod["champion_median"] >= glo["champion_median"],
        "both_zero_shot_negative_d1": (
            mod["mean_zero_shot_relative_change_d1"] is not None
            and glo["mean_zero_shot_relative_change_d1"] is not None
            and mod["mean_zero_shot_relative_change_d1"] < 0
            and glo["mean_zero_shot_relative_change_d1"] < 0
        ),
        "modular_drop_le_global": (
            mod["mean_zero_shot_relative_change_d1"] is not None
            and glo["mean_zero_shot_relative_change_d1"] is not None
            and mod["mean_zero_shot_relative_change_d1"]
            >= glo["mean_zero_shot_relative_change_d1"]
        ),
        "modular_body_fraction_higher": (
            mod["mean_population_body_success_fraction"] is not None
            and glo["mean_population_body_success_fraction"] is not None
            and mod["mean_population_body_success_fraction"]
            > glo["mean_population_body_success_fraction"]
        ),
    }
    return report
