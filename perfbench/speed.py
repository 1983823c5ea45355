"""Machine-speed probe: how fast the CPU under a process runs right now.

The benchmark shares a few vCPUs of a host with other tenants, and a vCPU's
speed changes by up to ~1.8x within seconds when a neighbour loads it (a
fixed loop runs at one of two speeds, and wall and CPU time move together).
A run's times are therefore scaled to a fixed nominal speed. A `Speedometer`
runs a fixed probe kernel (small numpy operations and Python bytecode, the
mix the simulator spends its time in) on a wall-clock timer, every
`INTERVAL_S`, in the process that starts it and in every process that
process forks afterwards (the CLI's pool workers). Each probe gives a speed
factor `NOMINAL_PROBE_S / probe seconds`, 1.0 when the probe runs at the
nominal speed. A time multiplied by the mean factor of the probes taken
during it reads as if the machine had run at nominal speed throughout.

The probe is the benchmark's own code, so a change to voxevo cannot speed
it up. It does see contention the program makes itself: with more busy
processes than vCPUs, or on two SMT siblings, the probes slow down too.
"""

from __future__ import annotations

import json
import os
import signal
import time
from multiprocessing import util

import numpy as np

# Probe seconds at the nominal speed: about the uncontended time of the probe
# on the 2-vCPU Xeon host the benchmark was written on.
NOMINAL_PROBE_S = 60e-6
INTERVAL_S = 0.01

_A = np.linspace(0.0, 1.0, 128).reshape(64, 2)


def probe() -> float:
    """Seconds taken by the fixed probe kernel."""
    a = _A
    start = time.perf_counter()
    for _ in range(16):
        b = (a * a).sum(axis=1)
        b = a[:, 0] + b
    return time.perf_counter() - start


def burst_speed(n: int = 50) -> float:
    """Mean speed factor of `n` back-to-back probes."""
    return sum(NOMINAL_PROBE_S / probe() for _ in range(n)) / n


class Speedometer:
    """Probes on a SIGALRM timer in this process and its forked children.

    Children (multiprocessing workers) write their probe totals to
    `<path_prefix>.<pid>` when they exit; `collect` adds them to this
    process's own.
    """

    def __init__(self, path_prefix: str):
        self.path_prefix = path_prefix
        self.factor_sum = 0.0
        self.samples = 0
        self.probe_s = 0.0

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.factor_sum += NOMINAL_PROBE_S / probe()
        self.samples += 1
        self.probe_s += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        # runs in a forked multiprocessing child once it starts bootstrapping
        util.register_after_fork(self, Speedometer._in_child)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def _in_child(self) -> None:
        self.factor_sum, self.samples, self.probe_s = 0.0, 0, 0.0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        util.Finalize(self, self._dump, exitpriority=100)

    def _dump(self) -> None:
        self.stop()
        with open(f"{self.path_prefix}.{os.getpid()}", "w", encoding="utf-8") as fh:
            json.dump(self._totals(), fh)

    def _totals(self) -> dict:
        return {"factor_sum": self.factor_sum, "samples": self.samples,
                "probe_s": self.probe_s}

    def collect(self) -> dict:
        """This process's totals, the children's, and the mean factor over
        all of their probes. Removes the children's files."""
        own = self._totals()
        children = []
        directory, prefix = os.path.split(self.path_prefix)
        for name in sorted(os.listdir(directory or ".")):
            if name.startswith(prefix + "."):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as fh:
                    children.append(json.load(fh))
                os.remove(path)
        factor_sum = own["factor_sum"] + sum(c["factor_sum"] for c in children)
        samples = own["samples"] + sum(c["samples"] for c in children)
        return {
            "speed": factor_sum / samples if samples else 0.0,
            "probe_samples": samples,
            "probe_s": own["probe_s"],
            "probe_cpu_s": own["probe_s"] + sum(c["probe_s"] for c in children),
            "probed_children": len(children),
        }
