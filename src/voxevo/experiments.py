"""Study procedures built on the evolution loop.

Covers the body catalog, controller transfer onto mutated bodies (zero-shot
and one-shot), mutation success accounting along champion lineages, and
convergence metrics over best-fitness series. The `transfer` and `report`
commands of the CLI are their callers. All procedures are pure functions of
(config, seed).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .control import ControllerGenome, mutate_controller
from .evolution import KIND_BODY, KIND_BRAIN, Evaluator
from .morphology import Morphology, MutationFailedError, sample_neighbor, validate

logger = logging.getLogger(__name__)

CONVERGENCE_THRESHOLDS = (0.8, 0.9, 0.95, 0.99)

# one-shot transfer: standard deviation of the controller mutants
ONE_SHOT_SIGMA = 0.1
# relative transfer changes are omitted below this source fitness magnitude
MIN_SOURCE_MAGNITUDE = 0.1
# neighbour draws per transfer sample before its slot is skipped
NEIGHBOR_ATTEMPTS = 50

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
    except (OSError, UnicodeDecodeError) as exc:
        raise CatalogError(f"{path}: cannot read catalog: {exc}") from exc

    catalog: dict[str, Morphology] = {}
    name: str | None = None
    header = 0  # the [name] line of the body being read: its faults are reported there
    rows: list[str] = []

    def finish():
        if name is None:
            return
        if len(rows) != GRID_SIZE:
            raise CatalogError(
                f"{path}:{header}: body {name!r} has {len(rows)} rows, "
                f"expected {GRID_SIZE}")
        body = Morphology.from_text("\n".join(rows))
        if not validate(body):
            raise CatalogError(f"{path}:{header}: body {name!r} is not a valid robot")
        catalog[name] = body

    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            finish()
            name, header, rows = line[1:-1].strip(), line_no, []
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
    finish()
    if not catalog:
        raise CatalogError(f"{path}: catalog is empty")
    return catalog


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


class LineageIntegrityError(RuntimeError):
    pass


def _distinct_neighbors(source: Morphology, distance: int, count: int,
                        rng: np.random.Generator) -> list[Morphology]:
    """Pairwise-distinct neighbors at the given mutation distance, none equal
    to the source. Unfillable slots are skipped with a log entry."""
    found: list[Morphology] = []
    seen = {source}
    for _ in range(count):
        for _ in range(NEIGHBOR_ATTEMPTS):
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
                      samples_per_distance: int, one_shot_lambda: int,
                      source_id: int = 0) -> list[TransferSample]:
    """Evaluate a trained controller on mutated bodies.

    Zero-shot keeps the controller unchanged. One-shot takes the best of the
    original controller and `one_shot_lambda` Gaussian mutants (standard
    deviation ONE_SHOT_SIGMA) evaluated on the new body, so one_shot >=
    zero_shot holds by construction. Relative changes are
    (f - f_source) / |f_source|, reported as None when the source fitness
    magnitude is below MIN_SOURCE_MAGNITUDE.

    Every neighbor and mutant is drawn before any episode runs (episodes draw
    no random numbers), and all episodes go to `evaluator` in one batch. The
    source controller on every neighbor, in draw order, is one multi-body
    job, and each mutant is a one-body job on its neighbor: a batch that
    holds a multi-body job is cut into one joined world per worker, where
    one-body jobs alone would run one world per episode. A body keeps its
    bits in any joined world, so the layout changes no score.
    """
    guarded = abs(source_fitness) < MIN_SOURCE_MAGNITUDE
    if guarded:
        logger.warning(
            "source fitness %.4f below magnitude guard; relative changes omitted",
            source_fitness)

    drawn: list[tuple[int, Morphology]] = []
    mutants: list[tuple[tuple[Morphology, ...], ControllerGenome]] = []
    for distance in distances:
        for neighbor in _distinct_neighbors(
                champion_morph, distance, samples_per_distance, rng):
            drawn.append((distance, neighbor))
            mutants.extend(((neighbor,), mutate_controller(controller, rng, ONE_SHOT_SIGMA))
                           for _ in range(one_shot_lambda))
    zero_shot, *one_shot = evaluator.evaluate(
        [(tuple(neighbor for _, neighbor in drawn), controller), *mutants])

    samples: list[TransferSample] = []
    for i, (distance, neighbor) in enumerate(drawn):
        zero = zero_shot[i].fitness
        mutant_runs = one_shot[i * one_shot_lambda:(i + 1) * one_shot_lambda]
        one = max([zero, *(episode.fitness for (episode,) in mutant_runs)])
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
    )


def convergence_metrics(best_fitness_series: list[float]) -> dict[float, int]:
    """First index reaching each CONVERGENCE_THRESHOLDS fraction of the final
    value, by threshold.

    Series containing negative values are shifted so their minimum is zero
    before thresholding.
    """
    if not best_fitness_series:
        raise ValueError("series must be non-empty")
    series = np.asarray(best_fitness_series, dtype=float)
    if series.min() < 0:
        series = series - series.min()
    final = series[-1]
    return {theta: int(np.flatnonzero(series >= theta * final)[0])
            for theta in CONVERGENCE_THRESHOLDS}
