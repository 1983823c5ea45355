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
    episode_cfg = episode_cfg or EpisodeConfig()
    physics_cfg = physics_cfg or PhysicsConfig()
    world = build_world(morph, physics_cfg)
    builder = ObservationBuilder(world, controller.kind, obs_cfg)
    start_x = float(center_of_mass(world)[0])

    frames: list[np.ndarray] | None = [] if record else None
    steps_used = 0
    reached_end = False
    for step in range(episode_cfg.max_steps):
        if step % episode_cfg.action_repeat == 0:
            apply_actuation(world, act(controller, world, step, builder))
        if frames is not None:
            frames.append(world.pos.copy())
        try:
            step_env(world)
        except SimulationDivergedError:
            return EpisodeResult(
                fitness=episode_cfg.divergence_floor,
                delta_px=None,
                reached_end=False,
                steps_used=step + 1,
                diverged=True,
                trajectory=frames,
            )
        steps_used = step + 1
        if float(center_of_mass(world)[0]) >= episode_cfg.terrain_end_x:
            reached_end = True
            break

    delta_px = float(center_of_mass(world)[0]) - start_x
    return EpisodeResult(
        fitness=episode_fitness(delta_px, reached_end, steps_used, episode_cfg),
        delta_px=delta_px,
        reached_end=reached_end,
        steps_used=steps_used,
        diverged=False,
        trajectory=frames,
    )


def evaluate_fitness(morph: Morphology, controller: ControllerGenome,
                     episode_cfg: EpisodeConfig | None = None,
                     physics_cfg: PhysicsConfig | None = None,
                     obs_cfg: ObservationConfig | None = None) -> float:
    """Episode fitness without trajectory recording: the benchmark's entry
    point for re-scoring. The package scores through `Evaluator.evaluate`."""
    return run_episode(morph, controller, episode_cfg, physics_cfg, obs_cfg).fitness
