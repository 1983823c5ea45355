"""(mu + lambda) evolution with age-fitness Pareto survivor selection.

Each generation: survivors age by one, lambda offspring are created by
mutating exactly one half of a uniformly drawn parent (body or brain, never
both), one fresh random individual is injected, all new individuals are
evaluated, and mu survivors are selected by non-dominated sorting on
(minimize age, maximize fitness). Age resets to zero on every mutation, so
new genetic material always starts on the first Pareto front.

Every function here reads a `RunConfig`. Its body catalog says what an
individual is scored on. Without a catalog, body and brain co-evolve and
each individual is scored on its own body. With one, only the brain evolves
and each individual is scored by its minimum fitness over the catalog
bodies; a one-body catalog evolves a controller for that body.

Determinism: every random decision draws from a generator seeded by the
config's (seed, generation, slot), created in the driving process.
Evaluations are pure functions of their inputs, so the number of worker
processes cannot change any logged value.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from multiprocessing import Pool
from typing import TYPE_CHECKING

import numpy as np

from .control import ControllerGenome, init_controller, input_size, mutate_controller
from .morphology import (
    Morphology,
    MutationFailedError,
    mutate_morphology,
    random_morphology,
)
from .walker import EpisodeResult, run_episode, run_episodes

if TYPE_CHECKING:  # runconfig imports this module through experiments
    from .runconfig import RunConfig

KIND_BODY = "body"
KIND_BRAIN = "brain"
KIND_FRESH = "fresh"

# the most individuals a population checkpoint records: its count is a u16
MAX_POPULATION = 65535


@dataclass
class Individual:
    morphology: Morphology
    controller: ControllerGenome
    age: int
    id: int
    parent_id: int | None
    mutation_kind: str
    parent_fitness_at_birth: float | None
    fitness: float | None = None


@dataclass(frozen=True)
class OffspringRecord:
    id: int
    parent_id: int | None
    mutation_kind: str
    fitness: float
    parent_fitness_at_birth: float | None
    success: bool


@dataclass(frozen=True)
class GenerationLog:
    generation: int
    best_fitness: float
    mean_fitness: float
    records: tuple[OffspringRecord, ...]

    @property
    def n_body_success(self) -> int:
        return sum(1 for r in self.records if r.mutation_kind == KIND_BODY and r.success)

    @property
    def n_brain_success(self) -> int:
        return sum(1 for r in self.records if r.mutation_kind == KIND_BRAIN and r.success)

    @property
    def n_body_attempted(self) -> int:
        return sum(1 for r in self.records if r.mutation_kind == KIND_BODY)

    @property
    def n_brain_attempted(self) -> int:
        return sum(1 for r in self.records if r.mutation_kind == KIND_BRAIN)


@dataclass
class RunArtifacts:
    champion: Individual
    logs: list[GenerationLog]
    lineage: dict[int, OffspringRecord]
    final_population: list[Individual]
    config: RunConfig


def dominates(a: Individual, b: Individual) -> bool:
    """(min age, max fitness) dominance with at least one strict inequality."""
    return (a.age <= b.age and a.fitness >= b.fitness
            and (a.age < b.age or a.fitness > b.fitness))


def pareto_rank(pool: list[Individual]) -> list[list[Individual]]:
    """Non-dominated sorting; fronts ordered best-first."""
    for ind in pool:
        if ind.fitness is None:
            raise ValueError(f"individual {ind.id} has no fitness")
    n = len(pool)
    dominated_by: list[list[int]] = [[] for _ in range(n)]
    domination_count = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if dominates(pool[i], pool[j]):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif dominates(pool[j], pool[i]):
                dominated_by[j].append(i)
                domination_count[i] += 1
    fronts: list[list[Individual]] = []
    current = [i for i in range(n) if domination_count[i] == 0]
    while current:
        fronts.append([pool[i] for i in current])
        nxt = []
        for i in current:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    nxt.append(j)
        current = sorted(nxt)
    return fronts


def select_survivors(pool: list[Individual], mu: int) -> list[Individual]:
    """Fill from Pareto fronts; the last partial front is taken highest
    fitness first (ties: lower age, then lower id)."""
    if mu >= len(pool):
        return list(pool)
    survivors: list[Individual] = []
    for front in pareto_rank(pool):
        if len(survivors) + len(front) <= mu:
            survivors.extend(front)
        else:
            front = sorted(front, key=lambda ind: (-ind.fitness, ind.age, ind.id))
            survivors.extend(front[: mu - len(survivors)])
            break
    return survivors


def make_offspring(parent: Individual, cfg: RunConfig,
                   rng: np.random.Generator, new_id: int) -> Individual:
    """Mutate exactly one genome half; the other is shared with the parent.

    With a body catalog only the brain mutates, and the body/brain choice is
    not drawn. A failed body mutation falls back to a brain mutation to keep
    the offspring count unconditional.
    """
    morph, ctrl = parent.morphology, parent.controller
    kind = KIND_BRAIN
    if not cfg.brain_only and rng.random() < cfg.p_body_mutation:
        try:
            morph = mutate_morphology(parent.morphology, rng)
            kind = KIND_BODY
        except MutationFailedError:
            ctrl = mutate_controller(parent.controller, rng, cfg.controller_sigma)
    else:
        ctrl = mutate_controller(parent.controller, rng, cfg.controller_sigma)
    return Individual(
        morphology=morph,
        controller=ctrl,
        age=0,
        id=new_id,
        parent_id=parent.id,
        mutation_kind=kind,
        parent_fitness_at_birth=parent.fitness,
    )


def _generator(seed: int, generation: int, slot: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, generation, slot]))


def _fresh_individual(cfg: RunConfig, rng: np.random.Generator,
                      new_id: int) -> Individual:
    morph = random_morphology(rng) if cfg.catalog is None else cfg.catalog[0]
    n_inputs = input_size(cfg.paradigm, cfg.observation)
    return Individual(
        morphology=morph,
        controller=init_controller(cfg.paradigm, rng, n_inputs),
        age=0,
        id=new_id,
        parent_id=None,
        mutation_kind=KIND_FRESH,
        parent_fitness_at_birth=None,
    )


def evaluation_bodies(cfg: RunConfig, ind: Individual) -> tuple[Morphology, ...]:
    """Bodies an individual is scored on: its own, or the catalog in order."""
    return (ind.morphology,) if cfg.catalog is None else tuple(cfg.catalog)


def _evaluate_job(job) -> tuple[EpisodeResult, ...]:
    bodies, controller, episode_cfg, physics_cfg, obs_cfg = job
    # a one-body job runs through run_episode because the bench's tracer
    # counts episodes by its spans; ROADMAP item 1 moves that count to the
    # returned results, and then this branch goes
    if len(bodies) == 1:
        return (run_episode(bodies[0], controller, episode_cfg, physics_cfg, obs_cfg),)
    return run_episodes(bodies, controller, episode_cfg, physics_cfg, obs_cfg)


class Evaluator:
    """Evaluates batches of (bodies, controller) jobs, optionally in a worker
    pool. Each job yields one trajectory-free `EpisodeResult` per body, in
    body order; results are in job order and independent of worker count.
    A config without a worker count gets one worker per CPU this process may
    run on."""

    def __init__(self, cfg: RunConfig):
        self.episode = cfg.episode
        self.physics = cfg.physics
        self.observation = cfg.observation
        workers = cfg.workers
        if workers is None:
            # the affinity mask honours taskset and cpusets; cpu_count() does not
            if hasattr(os, "sched_getaffinity"):
                workers = len(os.sched_getaffinity(0))
            else:
                workers = os.cpu_count() or 1
        self._pool = Pool(workers) if workers > 1 else None

    def evaluate(self, jobs: list[tuple[tuple[Morphology, ...], ControllerGenome]]
                 ) -> list[tuple[EpisodeResult, ...]]:
        packed = [
            (bodies, ctrl, self.episode, self.physics, self.observation)
            for bodies, ctrl in jobs
        ]
        if self._pool is None:
            return [_evaluate_job(job) for job in packed]
        return self._pool.map(_evaluate_job, packed)

    def close(self):
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def score(individuals: list[Individual], cfg: RunConfig,
          evaluator: Evaluator) -> None:
    """Set each individual's fitness: the minimum episode fitness over its
    evaluation bodies."""
    results = evaluator.evaluate(
        [(evaluation_bodies(cfg, ind), ind.controller) for ind in individuals])
    for ind, episodes in zip(individuals, results):
        ind.fitness = float(min(r.fitness for r in episodes))


def _record(ind: Individual) -> OffspringRecord:
    """The lineage record of a scored individual; one without a parent is no
    success."""
    return OffspringRecord(
        id=ind.id,
        parent_id=ind.parent_id,
        mutation_kind=ind.mutation_kind,
        fitness=ind.fitness,
        parent_fitness_at_birth=ind.parent_fitness_at_birth,
        success=(ind.parent_fitness_at_birth is not None
                 and ind.fitness > ind.parent_fitness_at_birth),
    )


def evolve_generation(population: list[Individual], cfg: RunConfig,
                      generation: int, next_id: int,
                      evaluator: Evaluator) -> tuple[list[Individual], GenerationLog, int]:
    """One generation step; returns (survivors, log, next free id)."""
    if len(population) != cfg.mu:
        raise ValueError(f"expected a population of {cfg.mu}, got {len(population)}")
    for ind in population:
        ind.age += 1

    new: list[Individual] = []
    for slot in range(cfg.lambda_):
        rng = _generator(cfg.seed, generation, slot)
        parent = population[int(rng.integers(len(population)))]
        new.append(make_offspring(parent, cfg, rng, next_id))
        next_id += 1
    fresh_rng = _generator(cfg.seed, generation, cfg.lambda_)
    new.append(_fresh_individual(cfg, fresh_rng, next_id))
    next_id += 1

    score(new, cfg, evaluator)
    records = tuple(_record(ind) for ind in new)

    pool = population + new
    assert len(pool) == cfg.mu + cfg.lambda_ + 1
    survivors = select_survivors(pool, cfg.mu)
    log = GenerationLog(
        generation=generation,
        best_fitness=max(ind.fitness for ind in pool),
        mean_fitness=float(np.mean([ind.fitness for ind in survivors])),
        records=records,
    )
    return survivors, log, next_id


def initial_population(cfg: RunConfig, evaluator: Evaluator) -> list[Individual]:
    population = []
    for i in range(cfg.mu):
        rng = _generator(cfg.seed, 0, i)
        ind = _fresh_individual(cfg, rng, i)
        population.append(ind)
    score(population, cfg, evaluator)
    return population


def run_evolution(cfg: RunConfig, on_generation=None) -> RunArtifacts:
    """Full run: initialize, iterate generations, track the best-ever champion.

    `on_generation(generation, log, population, champion)` is called after
    every generation for logging and checkpointing.
    """
    with Evaluator(cfg) as evaluator:
        population = initial_population(cfg, evaluator)
        lineage = {ind.id: _record(ind) for ind in population}
        champion = dataclasses.replace(max(population, key=lambda i: i.fitness))
        logs: list[GenerationLog] = []
        next_id = cfg.mu
        for generation in range(1, cfg.generations + 1):
            population, log, next_id = evolve_generation(
                population, cfg, generation, next_id, evaluator)
            for record in log.records:
                lineage[record.id] = record
            logs.append(log)
            best = max(population, key=lambda i: i.fitness)
            if best.fitness > champion.fitness:
                champion = dataclasses.replace(best)
            if on_generation is not None:
                on_generation(generation, log, population, champion)
    return RunArtifacts(
        champion=champion,
        logs=logs,
        lineage=lineage,
        final_population=population,
        config=cfg,
    )
