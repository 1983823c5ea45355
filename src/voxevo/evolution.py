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

A run is frozen values that step: a generation maps one `RunState` to the
next and its `generations.csv` row, a `GenerationLog`, writing nothing in place.

Determinism: every random decision draws from a generator seeded by the
config's (seed, generation, slot), created in the driving process.
Evaluations are pure functions of their inputs, so the number of worker
processes cannot change any logged value, nor can the cut of an
evaluation's episodes into runs: a body keeps its bits in any joined world.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from multiprocessing import Pool
from typing import TYPE_CHECKING

import numpy as np

from .control import ControllerGenome, init_controller, mutate_controller
from .morphology import (
    Morphology,
    MutationFailedError,
    mutate_morphology,
    random_morphology,
)
from .sensing import input_size
from .walker import EpisodeResult, run_episode, run_episodes

if TYPE_CHECKING:  # runconfig imports this module through experiments
    from .runconfig import RunConfig

KIND_BODY = "body"
KIND_BRAIN = "brain"
KIND_FRESH = "fresh"

# the most individuals a population checkpoint records: its count is a u16
MAX_POPULATION = 65535


@dataclass(frozen=True)
class Individual:
    morphology: Morphology
    controller: ControllerGenome
    age: int
    id: int
    parent_id: int | None
    mutation_kind: str
    parent_fitness_at_birth: float | None
    fitness: float | None = None


def _beats_parent(fitness: float, parent_fitness_at_birth: float | None) -> bool:
    """A success: strictly fitter than the parent was at birth; an
    individual without a parent is no success."""
    return parent_fitness_at_birth is not None and fitness > parent_fitness_at_birth


@dataclass(frozen=True)
class OffspringRecord:
    """One `lineage.csv` row: a scored individual, and whether it beat its parent."""
    id: int
    parent_id: int | None
    mutation_kind: str
    fitness: float
    parent_fitness_at_birth: float | None
    success: bool

    def __post_init__(self):
        if self.mutation_kind not in (KIND_BODY, KIND_BRAIN, KIND_FRESH):
            raise ValueError(f"unknown mutation_kind {self.mutation_kind!r}")
        if (self.parent_id is None) != (self.mutation_kind == KIND_FRESH):
            parent = "no parent_id" if self.parent_id is None else f"parent_id {self.parent_id}"
            raise ValueError(f"a {self.mutation_kind} record with {parent}")
        if self.success != _beats_parent(self.fitness, self.parent_fitness_at_birth):
            raise ValueError(f"success {self.success} disagrees with fitness {self.fitness!r} "
                             f"against parent_fitness_at_birth "
                             f"{self.parent_fitness_at_birth!r}")


@dataclass(frozen=True)
class GenerationLog:
    """One `generations.csv` row: the pool's best fitness, the survivors'
    mean, and the offspring's body and brain mutations, successful and tried."""
    generation: int
    best_fitness: float
    mean_fitness: float
    n_body_success: int
    n_brain_success: int
    n_body_attempted: int
    n_brain_attempted: int


@dataclass(frozen=True)
class RunState:
    """A run after `generation` generations; its champion is the first fittest ever."""
    generation: int
    population: tuple[Individual, ...]
    champion: Individual
    lineage: tuple[OffspringRecord, ...]
    next_id: int


def dominates(a: Individual, b: Individual) -> bool:
    """(min age, max fitness) dominance with at least one strict inequality."""
    return (a.age <= b.age and a.fitness >= b.fitness
            and (a.age < b.age or a.fitness > b.fitness))


def pareto_rank(pool: list[Individual]) -> list[list[Individual]]:
    """Non-dominated sorting by peeling fronts, best-first, each in pool order."""
    for ind in pool:
        if ind.fitness is None:
            raise ValueError(f"individual {ind.id} has no fitness")
    fronts: list[list[Individual]] = []
    rest = list(pool)
    while rest:
        dominated = [any(dominates(b, a) for b in rest) for a in rest]
        fronts.append([a for a, d in zip(rest, dominated) if not d])
        rest = [a for a, d in zip(rest, dominated) if d]
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


def _evaluate_run(task) -> tuple[EpisodeResult, ...]:
    """A worker's contiguous run of episodes, each body under its own
    controller: one episode through `run_episode`, more as one joined world."""
    episodes, episode_cfg, physics_cfg, obs_cfg = task
    if len(episodes) == 1:
        (body, controller), = episodes
        return (run_episode(body, controller, episode_cfg, physics_cfg, obs_cfg),)
    bodies, controllers = zip(*episodes)
    return run_episodes(bodies, controllers, episode_cfg, physics_cfg, obs_cfg)


class Evaluator:
    """Evaluates batches of (bodies, controller) jobs, optionally in a worker
    pool. Each job yields one trajectory-free `EpisodeResult` per body, in
    body order; results are in job order and independent of worker count.
    The jobs' (body, controller) episodes are cut into contiguous runs: one
    episode each when every job has one body (`evolve` without a catalog),
    else one run of near-equal length per worker, stepped as one joined
    world (`evolve` on a catalog, and `transfer`, whose zero-shot job holds
    every neighbor). A config without a worker count gets one worker per
    CPU this process may run on."""

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
        self._workers = workers

    def evaluate(self, jobs: list[tuple[tuple[Morphology, ...], ControllerGenome]]
                 ) -> list[tuple[EpisodeResult, ...]]:
        episodes = [(body, ctrl) for bodies, ctrl in jobs for body in bodies]
        # one-body jobs run one episode per run, through run_episode, because
        # the bench's tracer counts their episodes by its spans: `evolve`
        # without a catalog takes this cut, and `transfer` only when it drew a
        # single neighbor. ROADMAP item 1 moves that count to the returned
        # results, and then this rule goes
        one_body = all(len(bodies) == 1 for bodies, _ in jobs)
        n = len(episodes) if one_body else min(self._workers, len(episodes))
        cuts = [len(episodes) * k // max(n, 1) for k in range(n + 1)]
        runs = self._map(_evaluate_run, [
            (episodes[a:b], self.episode, self.physics, self.observation)
            for a, b in zip(cuts, cuts[1:])])
        flat = iter(result for run in runs for result in run)
        return [tuple(next(flat) for _ in bodies) for bodies, _ in jobs]

    def _map(self, fn, tasks: list) -> list:
        return list(map(fn, tasks)) if self._pool is None else self._pool.map(fn, tasks)

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
          evaluator: Evaluator) -> list[Individual]:
    """The individuals scored, each by its minimum fitness over its evaluation bodies."""
    results = evaluator.evaluate(
        [(evaluation_bodies(cfg, ind), ind.controller) for ind in individuals])
    return [replace(ind, fitness=float(min(r.fitness for r in episodes)))
            for ind, episodes in zip(individuals, results)]


def _record(ind: Individual) -> OffspringRecord:
    """The lineage record of a scored individual."""
    return OffspringRecord(
        id=ind.id,
        parent_id=ind.parent_id,
        mutation_kind=ind.mutation_kind,
        fitness=ind.fitness,
        parent_fitness_at_birth=ind.parent_fitness_at_birth,
        success=_beats_parent(ind.fitness, ind.parent_fitness_at_birth),
    )


def evolve_generation(state: RunState, cfg: RunConfig,
                      evaluator: Evaluator) -> tuple[RunState, GenerationLog]:
    """One generation step: the next state and its log."""
    if len(state.population) != cfg.mu:
        raise ValueError(f"expected a population of {cfg.mu}, got {len(state.population)}")
    generation, next_id = state.generation + 1, state.next_id
    population = [replace(ind, age=ind.age + 1) for ind in state.population]

    new: list[Individual] = []
    for slot in range(cfg.lambda_):
        rng = _generator(cfg.seed, generation, slot)
        parent = population[int(rng.integers(len(population)))]
        new.append(make_offspring(parent, cfg, rng, next_id + slot))
    fresh_rng = _generator(cfg.seed, generation, cfg.lambda_)
    new.append(_fresh_individual(cfg, fresh_rng, next_id + cfg.lambda_))

    new = score(new, cfg, evaluator)
    records = tuple(_record(ind) for ind in new)

    pool = population + new
    assert len(pool) == cfg.mu + cfg.lambda_ + 1
    survivors = select_survivors(pool, cfg.mu)
    kinds = [r.mutation_kind for r in records]
    log = GenerationLog(
        generation=generation,
        best_fitness=max(ind.fitness for ind in pool),
        mean_fitness=float(np.mean([ind.fitness for ind in survivors])),
        n_body_success=sum(r.success for r in records if r.mutation_kind == KIND_BODY),
        n_brain_success=sum(r.success for r in records if r.mutation_kind == KIND_BRAIN),
        n_body_attempted=kinds.count(KIND_BODY),
        n_brain_attempted=kinds.count(KIND_BRAIN),
    )
    champion = max((state.champion, *survivors), key=lambda ind: ind.fitness)
    return RunState(generation, tuple(survivors), champion, state.lineage + records,
                    next_id + len(new)), log


def initial_population(cfg: RunConfig, evaluator: Evaluator) -> list[Individual]:
    return score([_fresh_individual(cfg, _generator(cfg.seed, 0, i), i)
                  for i in range(cfg.mu)], cfg, evaluator)


def run_evolution(cfg: RunConfig, evaluator: Evaluator):
    """A full run on `evaluator`: yields `(RunState, GenerationLog)` after each generation."""
    population = initial_population(cfg, evaluator)
    state = RunState(0, tuple(population), max(population, key=lambda ind: ind.fitness),
                     tuple(_record(ind) for ind in population), cfg.mu)
    for _ in range(cfg.generations):
        state, log = evolve_generation(state, cfg, evaluator)
        yield state, log
