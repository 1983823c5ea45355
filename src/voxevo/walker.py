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
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .control import ControllerBatch, ControllerGenome, act
from .morphology import Morphology
from .physics import (
    PhysicsConfig,
    SimulationDivergedError,
    build_world,
    apply_actuation,
    center_of_mass,
    check_fields,
    join_worlds,
    step_env,
)
from .sensing import ObservationConfig


@dataclass(frozen=True)
class EpisodeConfig:
    max_steps: int = 500
    action_repeat: int = 4
    terrain_end_x: float = 40.0
    step_penalty: float = 0.01
    divergence_floor: float = -10.0

    def __post_init__(self):
        # a step count beyond the floats would raise OverflowError here
        shift = (self.max_steps * self.step_penalty if self.max_steps <= sys.float_info.max
                 else math.inf)
        check_fields(self, (
            ("max_steps", self.max_steps >= 1, "must be >= 1"),
            ("action_repeat", self.action_repeat >= 1, "must be >= 1"),
            *((name, math.isfinite(getattr(self, name)), "must be finite")
              for name in ("terrain_end_x", "step_penalty", "divergence_floor")),
            # an infinite shift_constant makes every fitness inf or nan
            ("step_penalty", math.isfinite(shift),
             f"times max_steps = {self.max_steps} must be finite"),
            # from 2**53 on, 2**53 + 1.0 == 2**53: the shift swallows a
            # displacement of one voxel edge, and fitnesses tie
            ("step_penalty", abs(shift) < 2.0 ** 53,
             f"times max_steps = {self.max_steps} must be below 2**53 in magnitude "
             "(from there on a displacement of one voxel edge is lost)"),
        ))

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
    # a recording, not an outcome: results compare equal with or without one
    trajectory: list[np.ndarray] | None = field(default=None, repr=False, compare=False)


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
    come from several jobs; unequal counts raise ValueError), the worlds
    joined and stepped in lockstep; each result is the body's `run_episode`
    result. Each action step is one `act` and one `apply_actuation` on the
    joined world: one observation refresh, one stacked forward pass per
    group of members and one actuation for the whole batch. Each distinct
    body is compiled once per call: the worlds of a repeated body share its
    `build_world` arrays, and the join gives each its own state. A body that
    diverges or crosses the terrain end leaves the batch at that step, and
    the bodies still running are joined again without it, with a new
    controller batch; a NaN action diverges its body before the step.
    """
    if len(bodies) != len(controllers):
        raise ValueError(f"{len(bodies)} bodies but {len(controllers)} controllers")
    episode_cfg = episode_cfg or EpisodeConfig()
    physics_cfg = physics_cfg or PhysicsConfig()
    # one build per distinct body: its worlds share all its arrays until the
    # join copies each world's state into its own block
    compiled = {body: build_world(body, physics_cfg) for body in dict.fromkeys(bodies)}
    worlds = [replace(w) for w in map(compiled.get, bodies)]
    start_x = [float(center_of_mass(w)[0]) for w in worlds]
    frames = [[] if record else None for _ in worlds]
    results: list[EpisodeResult | None] = [None] * len(worlds)

    def finish(i: int, steps_used: int, reached_end: bool, diverged: bool = False) -> None:
        delta_px = None if diverged else float(center_of_mass(worlds[i])[0]) - start_x[i]
        fitness = (episode_cfg.divergence_floor if diverged
                   else episode_fitness(delta_px, reached_end, steps_used, episode_cfg))
        results[i] = EpisodeResult(fitness, delta_px, reached_end, steps_used, diverged,
                                   trajectory=frames[i])

    def join(live: list[int]):
        """The joined world of the bodies `live` and its controllers,
        stacked in its member order."""
        joined = join_worlds(worlds[i] for i in live)
        return joined, ControllerBatch([controllers[live[j]] for j in joined.order],
                                       joined, obs_cfg)

    near_end = episode_cfg.terrain_end_x * (1.0 - 1e-9)  # <= 0: every step checks
    live = list(range(len(worlds)))
    joined, batch = join(live)
    for step in range(episode_cfg.max_steps):
        if step % episode_cfg.action_repeat == 0:
            actions = act(batch, joined, step)
            if not math.isfinite(actions.sum()):  # NaN from an overflowed network
                ends = np.cumsum([w.actuator_voxels.size for w in joined.members])
                for j, member in zip(joined.order, np.split(actions, ends[:-1])):
                    if not np.isfinite(member).all():
                        finish(live[j], step, False, diverged=True)
                live = [i for i in live if results[i] is None]
                if not live:
                    break
                joined, batch = join(live)
                actions = act(batch, joined, step)
            apply_actuation(joined, actions)
        if record:
            for i in live:
                frames[i].append(worlds[i].pos.copy())
        try:
            extent = step_env(joined)
        except SimulationDivergedError:
            extent = math.nan
            for i in live:
                if not np.isfinite(worlds[i].pos).all():
                    finish(i, step + 1, False, diverged=True)
        # a centre of mass is a mean of at most 36 masses' x, rounded by far
        # less than 1e-9 of their largest |x|: while the largest |x| or |y|
        # that step_env returns is that much below the terrain end, no body
        # has reached it. A NaN is never below, so a diverged batch is
        # checked body by body
        if not extent < near_end:
            for i in live:
                if (results[i] is None
                        and float(center_of_mass(worlds[i])[0]) >= episode_cfg.terrain_end_x):
                    finish(i, step + 1, True)
        if results.count(None) < len(live):  # a body left the batch this step
            live = [i for i in live if results[i] is None]
            if not live:
                break
            joined, batch = join(live)
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
