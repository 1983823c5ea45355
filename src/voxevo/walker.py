"""Flat-terrain locomotion episodes.

The robot starts with its leftmost corners at x = 0 and runs until it either
crosses the terrain end or exhausts the step budget. Controllers are queried
every `action_repeat` steps; in between, the last rest lengths are held.

Reward for a non-diverged episode:

    R = delta_px + reached_bonus - step_penalty * T + shift_constant

where delta_px is the center-of-mass x displacement, reached_bonus is 1 if the
robot crossed terrain_end_x else 0, T is the number of environment steps
actually simulated, and shift_constant = max_steps * step_penalty so that a
robot that never moves scores exactly 0. Diverged episodes score the
configured floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .control import ControllerGenome, act
from .morphology import Morphology
from .physics import (
    PhysicsConfig,
    SimulationDivergedError,
    build_world,
    apply_actuation,
    center_of_mass,
    join_worlds,
    step_env,
)
from .sensing import ObservationBuilder, ObservationConfig


@dataclass(frozen=True)
class EpisodeConfig:
    max_steps: int = 500
    action_repeat: int = 4
    terrain_end_x: float = 40.0
    step_penalty: float = 0.01
    divergence_floor: float = -10.0

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.action_repeat < 1:
            raise ValueError("action_repeat must be >= 1")
        if not all(map(math.isfinite, (self.terrain_end_x, self.step_penalty,
                                       self.divergence_floor))):
            raise ValueError("episode config values must be finite")

    @property
    def shift_constant(self) -> float:
        """Makes a robot that never moves over a full episode score 0."""
        return self.max_steps * self.step_penalty


@dataclass(frozen=True)
class EpisodeResult:
    fitness: float
    delta_px: float | None  # None when diverged: the robot has no final position
    reached_end: bool
    steps_used: int
    diverged: bool
    trajectory: list[np.ndarray] | None = field(default=None, repr=False)


def episode_fitness(delta_px: float, reached_end: bool, steps_used: int,
                    cfg: EpisodeConfig) -> float:
    """The reward formula on its own, for oracle checks and result assembly."""
    bonus = 1.0 if reached_end else 0.0
    return delta_px + bonus - cfg.step_penalty * steps_used + cfg.shift_constant


def run_episode(morph: Morphology, controller: ControllerGenome,
                episode_cfg: EpisodeConfig | None = None,
                physics_cfg: PhysicsConfig | None = None,
                obs_cfg: ObservationConfig | None = None,
                record: bool = False) -> EpisodeResult:
    """Simulate one locomotion episode.

    Recording keeps one frame per simulated step, captured at the step's
    entry, so frame 0 is the build placement and the frame count equals the
    number of steps simulated.
    """
    return run_episodes((morph,), (controller,), episode_cfg, physics_cfg, obs_cfg, record)[0]


def run_episodes(bodies: tuple[Morphology, ...], controllers: tuple[ControllerGenome, ...],
                 episode_cfg: EpisodeConfig | None = None,
                 physics_cfg: PhysicsConfig | None = None,
                 obs_cfg: ObservationConfig | None = None,
                 record: bool = False) -> tuple[EpisodeResult, ...]:
    """One episode per body, body i under `controllers[i]` (the bodies may
    come from several jobs), the worlds joined and stepped in lockstep; each
    result is the body's `run_episode` result. A body that diverges or
    crosses the terrain end leaves the batch at that step, and the bodies
    still running are joined again without it.
    """
    episode_cfg = episode_cfg or EpisodeConfig()
    physics_cfg = physics_cfg or PhysicsConfig()
    worlds = [build_world(body, physics_cfg) for body in bodies]
    builders = [ObservationBuilder(w, c.kind, obs_cfg) for w, c in zip(worlds, controllers)]
    start_x = [float(center_of_mass(w)[0]) for w in worlds]
    frames = [[] if record else None for _ in worlds]
    results: list[EpisodeResult | None] = [None] * len(worlds)

    def finish(i: int, steps_used: int, reached_end: bool, diverged: bool = False) -> None:
        delta_px = None if diverged else float(center_of_mass(worlds[i])[0]) - start_x[i]
        fitness = (episode_cfg.divergence_floor if diverged
                   else episode_fitness(delta_px, reached_end, steps_used, episode_cfg))
        results[i] = EpisodeResult(fitness, delta_px, reached_end, steps_used, diverged,
                                   trajectory=frames[i])

    near_end = episode_cfg.terrain_end_x * (1.0 - 1e-9)  # <= 0: every step checks
    live = list(range(len(worlds)))
    joined = join_worlds(worlds)
    for step in range(episode_cfg.max_steps):
        for i in live:
            if step % episode_cfg.action_repeat == 0:
                apply_actuation(worlds[i], act(controllers[i], worlds[i], step, builders[i]))
            if record:
                frames[i].append(worlds[i].pos.copy())
        try:
            step_env(joined)
        except SimulationDivergedError:
            for i in live:
                if not np.isfinite(worlds[i].pos).all():
                    finish(i, step + 1, False, diverged=True)
        # a centre of mass is a mean of at most 36 masses' x, rounded by far
        # less than 1e-9 of their largest |x|: while every |x| is that much
        # below the terrain end, no body has reached it. A NaN is never
        # below, so a diverged batch is checked body by body
        if not np.abs(joined.pos[:, 0]).max() < near_end:
            for i in live:
                if (results[i] is None
                        and float(center_of_mass(worlds[i])[0]) >= episode_cfg.terrain_end_x):
                    finish(i, step + 1, True)
        if results.count(None) < len(live):  # a body left the batch this step
            live = [i for i in live if results[i] is None]
            if not live:
                break
            joined = join_worlds(worlds[i] for i in live)
    for i in live:
        finish(i, episode_cfg.max_steps, False)
    return tuple(results)


def evaluate_fitness(morph: Morphology, controller: ControllerGenome,
                     episode_cfg: EpisodeConfig | None = None,
                     physics_cfg: PhysicsConfig | None = None,
                     obs_cfg: ObservationConfig | None = None) -> float:
    """Episode fitness without trajectory recording: the benchmark's entry
    point for re-scoring. The package scores through `Evaluator.evaluate`."""
    return run_episode(morph, controller, episode_cfg, physics_cfg, obs_cfg).fitness
