"""In-memory spans around voxevo's layer boundaries, and their analysis.

The wrappers are installed from outside the package: every module of
`voxevo` that binds a traced function (by definition or by `from ... import`)
gets the wrapper in its namespace, and traced methods are replaced on their
class. Spans are kept in a list while the command runs and written out once
at the end.

A span is `(name, parent, episode, start, end)`: `parent` is the index of
the enclosing span (-1 for a root) and `episode` the id shared by every span
of one `run_episode` call (-1 outside episodes). The analysis half of this
module uses only the standard library, so run.py can read a
span file without importing numpy or voxevo.
"""

from __future__ import annotations

from array import array
import functools
import json
import os
import sys
import time

# Traced functions: (module, attribute, span name). Methods are written
# `Class.method`. Save functions share one span name, as one layer.
PARENT_SIDE = [
    ("cli", "main", "cli.main"),
    ("runconfig", "load_config", "runconfig.load_config"),
    ("checkpoints", "load_individual", "checkpoints.load"),
    ("checkpoints", "save_individual", "checkpoints.save"),
    ("checkpoints", "save_population", "checkpoints.save"),
    ("evolution", "run_evolution", "evolution.run_evolution"),
    ("evolution", "initial_population", "evolution.initial_population"),
    ("evolution", "evolve_generation", "evolution.evolve_generation"),
    ("evolution", "select_survivors", "evolution.select_survivors"),
    ("evolution", "Evaluator.evaluate", "evolution.Evaluator.evaluate"),
    ("experiments", "transfer_analysis", "experiments.transfer_analysis"),
]
LAYERS = [
    ("walker", "run_episode", "walker.run_episode"),
    ("physics", "build_world", "physics.build_world"),
    ("physics", "apply_actuation", "physics.apply_actuation"),
    ("physics", "center_of_mass", "physics.center_of_mass"),
    ("physics", "step_env", "physics.step_env"),
    ("sensing", "ObservationBuilder.__init__", "sensing.ObservationBuilder"),
    ("sensing", "ObservationBuilder.refresh", "sensing.refresh"),
    ("control", "act", "control.act"),
    ("control", "init_controller", "control.init_controller"),
    ("control", "mutate_controller", "control.mutate_controller"),
    ("morphology", "mutate_morphology", "morphology.mutate_morphology"),
    ("morphology", "random_morphology", "morphology.random_morphology"),
    ("morphology", "sample_neighbor", "morphology.sample_neighbor"),
    ("morphology", "resample_cells", "morphology.resample_cells"),
]
EPISODE_SPAN = "walker.run_episode"
ROOT_SPAN = "cli.main"


def _count_springs(counters, args, result):
    world = args[0]
    counters["physics.spring_substeps"] += world.n_springs * world.substeps_per_env_step


def _count_rows(counters, args, result):
    genome, world = args[0], args[1]
    counters["control.act.rows"] += (
        1 if genome.kind == "global" else len(world.actuator_cells))


def _count_episode(counters, args, result):
    counters["walker.env_steps"] += result.steps_used
    counters["walker.diverged"] += int(result.diverged)
    counters["walker.reached_end"] += int(result.reached_end)


def _count_genome(counters, args, result):
    counters["morphology.accepted_genomes"] += 1


def _count_draw(counters, args, result):
    counters["morphology.resample_draws"] += 1


def _count_bytes(counters, args, result):
    counters["checkpoints.bytes_written"] += os.path.getsize(args[0])


# Work counted at the boundary where it happens, after a call returns.
HOOKS = {
    "physics.step_env": _count_springs,
    "control.act": _count_rows,
    "walker.run_episode": _count_episode,
    "morphology.mutate_morphology": _count_genome,
    "morphology.random_morphology": _count_genome,
    "morphology.resample_cells": _count_draw,
    "checkpoints.save": _count_bytes,
}
COUNTERS = ("physics.spring_substeps", "control.act.rows", "walker.env_steps",
            "walker.diverged", "walker.reached_end", "morphology.accepted_genomes",
            "morphology.resample_draws", "checkpoints.bytes_written")


class Tracer:
    """Span recorder for one process; not thread-safe (voxevo is not threaded).

    Spans are held in flat arrays rather than one object each, so that a long
    traced run does not feed the cyclic garbage collector.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.episode = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._episode = -1
        self._n_episodes = 0

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        hook = HOOKS.get(name)
        starts_episode = name == EPISODE_SPAN
        names, parents, episodes = self.name, self.parent, self.episode
        starts, ends, stack, counters = self.start, self.end, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_episode = self._episode
            if starts_episode:
                self._episode = self._n_episodes
                self._n_episodes += 1
            index = len(starts)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            episodes.append(self._episode)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                self._episode = outer_episode
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Replace each target in every loaded voxevo module that binds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "voxevo" or n.startswith("voxevo.")]
        for module_name, attr, span_name in targets:
            home = sys.modules[f"voxevo.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, method, self.wrap(span_name, getattr(cls, method)))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def spans(self) -> list[tuple]:
        return [(self.names[n], p, e, s, t) for n, p, e, s, t in
                zip(self.name, self.parent, self.episode, self.start, self.end)]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans(), "counters": self.counters}, fh)


# ---- analysis ---------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (they come from one call stack), so
    their summed durations are the part of the parent's interval they cover.
    """
    covered = [0.0] * len(spans)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(s[4] - s[3]) - covered[i] for i, s in enumerate(spans)]


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class SpanSummary:
    """Per-name durations and self times of one span list."""

    def __init__(self, spans):
        selfs = self_times(spans)
        self.duration: dict[str, list[float]] = {}
        self.self_time: dict[str, list[float]] = {}
        for span, own in zip(spans, selfs):
            self.duration.setdefault(span[0], []).append(span[4] - span[3])
            self.self_time.setdefault(span[0], []).append(own)
        roots = [s[4] - s[3] for s in spans if s[1] < 0 and s[0] == ROOT_SPAN]
        self.root_s = sum(roots)
        self.self_sum_s = sum(selfs)

    def calls(self, name: str) -> int:
        return len(self.duration.get(name, []))

    def total(self, name: str) -> float:
        return sum(self.duration.get(name, []))

    def self_total(self, name: str) -> float:
        return sum(self.self_time.get(name, []))

    def p(self, name: str, q: float, own: bool = False) -> float:
        table = self.self_time if own else self.duration
        return percentile(table.get(name, []), q)

    def share(self, name: str) -> float:
        """Self time of `name` as a share of the root span."""
        return self.self_total(name) / self.root_s if self.root_s else 0.0


def nested_total(spans, outer: str, inner: str) -> float:
    """Summed duration of `inner` spans that sit anywhere below an `outer` span."""
    inside = [False] * len(spans)
    total = 0.0
    for i, (name, parent, _, start, end) in enumerate(spans):
        inside[i] = name == outer or (parent >= 0 and inside[parent])
        if name == inner and parent >= 0 and inside[parent]:
            total += end - start
    return total


def load(path: str):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return data["spans"], data["counters"]
