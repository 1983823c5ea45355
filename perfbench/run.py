"""voxevo benchmark: drive the real CLI on seeded workloads and check its outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout; voxevo is imported from its `src/` tree.
Each CLI invocation runs in a fresh interpreter (see child.py). With
`--trace 0` the run repeats the workload's command until `--seconds` are
used and reports the end-to-end metrics, with times scaled to a nominal
machine speed measured while they run (see speed.py); with `--trace 1` it makes one
fully traced pass at 1 worker and two parent-side passes (1 worker and
nproc workers) and reports the per-layer metrics. Both print a metric table,
a `details` JSON line (machine, digests, samples, failures) and, last, the
result object. Metric names and units come from BENCHMARK.json. See
README.md for the workload rationale and the layer -> metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_PER_INVOCATION = 2
# Every subprocess must end before this many seconds after start, so that
# the whole run stays inside its 180 s limit.
RUN_BUDGET_S = 170.0

# Workload inputs. `{seed}` is the benchmark seed; nothing else varies.
EVOLVE_DEFAULT = """\
[run]
seed = {seed}
mode = co-optimize
paradigm = modular
generations = 1

[evolution]
mu = 16
lambda = 16
checkpoint_every = 1

[episode]
max_steps = 500
"""
EVOLVE_MULTIBODY_GLOBAL = """\
[run]
seed = {seed}
mode = multi-body
paradigm = global
generations = 1

[evolution]
mu = 4
lambda = 16

[episode]
max_steps = 250
"""
TRANSFER_SERIAL = """\
[run]
seed = {seed}

[experiment]
distances = 1, 2, 3
samples_per_distance = 2
one_shot_lambda = 2
"""


class Workload:
    def __init__(self, command: str, config: str, **shape):
        self.command = command
        self.config = config
        self.shape = shape

    def outputs(self, out_dir: str) -> tuple[int, list[str]]:
        """(episodes counted from the outputs, problems with them)."""
        if self.command == "evolve":
            return self._evolve_outputs(out_dir)
        return self._transfer_outputs(out_dir)

    def _evolve_outputs(self, out_dir):
        s = self.shape
        problems = []
        generations = _csv_rows(out_dir, "generations.csv")
        lineage = _csv_rows(out_dir, "lineage.csv")
        if generations is None or len(generations) != s["generations"]:
            problems.append(f"generations.csv: expected {s['generations']} rows")
        want = s["mu"] + s["generations"] * (s["lambda_"] + 1)
        if lineage is None or len(lineage) != want:
            problems.append(f"lineage.csv: expected {want} rows")
        if not os.path.exists(os.path.join(out_dir, "champion.ckpt")):
            problems.append("champion.ckpt missing")
        return len(lineage or []) * s["bodies"], problems

    def _transfer_outputs(self, out_dir):
        s = self.shape
        problems = []
        rows = _csv_rows(out_dir, "transfer.csv")
        want = s["distances"] * s["samples_per_distance"]
        if rows is None or len(rows) != want:
            problems.append(f"transfer.csv: expected {want} rows")
        for row in rows or []:
            if float(row["one_shot_fitness"]) < float(row["zero_shot_fitness"]):
                problems.append("transfer.csv: one-shot below zero-shot")
            if not row["relative_change_zero"] or not row["relative_change_one"]:
                problems.append("transfer.csv: relative change missing")
        return len(rows or []) * (1 + s["one_shot_lambda"]), problems


WORKLOADS = {
    # README defaults plus a checkpoint every generation: varied random
    # bodies, one generation of 17 worlds on the pool, mutation, selection
    # and checkpoint writes serial in the parent.
    "evolve-default": Workload(
        "evolve", EVOLVE_DEFAULT, generations=1, mu=16, lambda_=16, bodies=1),
    # Controller-only, 4 large all-actuator catalog bodies per evaluation
    # (68 worlds per generation), global controller, no body mutation.
    "evolve-multibody-global": Workload(
        "evolve", EVOLVE_MULTIBODY_GLOBAL, generations=1, mu=4, lambda_=16, bodies=4),
    # One world at a time, latency bound, no pool.
    "transfer-serial": Workload(
        "transfer", TRANSFER_SERIAL, distances=3, samples_per_distance=2,
        one_shot_lambda=2),
}


def _csv_rows(out_dir: str, name: str):
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def digests(out_dir: str) -> dict[str, str]:
    found = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            found[name] = hashlib.sha256(fh.read()).hexdigest()
    return found


def combined_digest(per_file: dict[str, str]) -> str:
    text = "".join(f"{name}:{digest}\n" for name, digest in sorted(per_file.items()))
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """Starts child processes with a shared deadline; kills a child's whole
    process group (the CLI and its pool workers) if it overruns."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("VOXEVO_WORKERS", None)

    def run(self, args: list[str]) -> subprocess.CompletedProcess:
        proc = subprocess.Popen([sys.executable, CHILD, *args], cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"child.py {args[0]} overran the run's time budget") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        return subprocess.CompletedProcess(args, proc.returncode, out.decode(), err.decode())


class Bench:
    def __init__(self, name: str, seed: int, work: str, runner: Runner, nproc: int):
        self.workload = WORKLOADS[name]
        self.runner = runner
        self.nproc = nproc
        self.work = work
        os.makedirs(self.work)
        self.config = os.path.join(self.work, "run.cfg")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(self.workload.config.format(seed=seed))
        self.champion = None
        if self.workload.command == "transfer":
            self.champion = os.path.join(self.work, "champion.ckpt")
            self._check(self.runner.run(
                ["champion", "--seed", str(seed), "--out", self.champion]))
        self.invocations: list[dict] = []

    @staticmethod
    def _check(proc):
        if proc.returncode != 0:
            raise RuntimeError(f"child.py {proc.args[0]} failed:\n{proc.stderr}")

    def setup_sample(self) -> tuple[float, float]:
        """(seconds from process start through imports, load_config and
        checkpoint load; the speed factor measured right after them)."""
        args = ["setup", "--config", self.config]
        if self.champion:
            args += ["--champion", self.champion]
        start = time.perf_counter()
        proc = self.runner.run(args)
        elapsed = time.perf_counter() - start
        self._check(proc)
        return elapsed, json.loads(proc.stdout)["speed"]

    def invoke(self, tag: str, trace: str, workers: int) -> dict:
        """One CLI invocation in a fresh process, checked."""
        out = os.path.join(self.work, f"out-{tag}")
        result = os.path.join(self.work, f"result-{tag}.json")
        spans = os.path.join(self.work, f"spans-{tag}.json")
        args = ["cli", "--trace", trace, "--result", result]
        if trace != "none":
            args += ["--spans", spans]
        args += ["--", self.workload.command, "--config", self.config,
                 "--out", out, "--workers", str(workers)]
        if self.champion:
            args += ["--champion", self.champion]
        start = time.perf_counter()
        proc = self.runner.run(args)
        inv = {"tag": tag, "trace": trace, "workers": workers,
               "elapsed_s": time.perf_counter() - start, "problems": []}
        self.invocations.append(inv)
        if proc.returncode == 0 and os.path.exists(result):
            with open(result, encoding="utf-8") as fh:
                inv.update(json.load(fh))
        if inv.get("rc") != 0:
            inv["problems"].append(f"exit code {inv.get('rc', proc.returncode)}: "
                                   f"{proc.stderr.strip()[-500:]}")
            return inv
        partials = [n for n in os.listdir(out) if n.endswith(".partial")]
        if partials:
            inv["problems"].append(f"leftover partial files: {partials}")
        if trace == "none" and not inv.get("probe_samples"):
            inv["problems"].append("no speed probe ran during the command")
        inv["episodes"], problems = self.workload.outputs(out)
        inv["problems"] += problems
        inv["digests"] = digests(out)
        inv["digest"] = combined_digest(inv["digests"])
        first = self.invocations[0]
        if inv["digest"] != first.get("digest", inv["digest"]):
            inv["problems"].append(f"artifact digests differ from invocation {first['tag']}")
        if trace != "none":
            inv["spans_path"] = spans
        return inv

    def verify(self) -> dict:
        """Reference episodes, and a re-score of the first invocation's
        outputs when it produced them (all others match its digests)."""
        first = self.invocations[0]
        args = ["verify", "--config", self.config, "--reference", REFERENCE]
        if not first["problems"]:
            args += ["--out", os.path.join(self.work, f"out-{first['tag']}")]
            if self.champion:
                args += ["--champion", self.champion]
        proc = self.runner.run(args)
        self._check(proc)
        return json.loads(proc.stdout)

    def drop_outputs(self, inv: dict) -> None:
        shutil.rmtree(os.path.join(self.work, f"out-{inv['tag']}"), ignore_errors=True)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def nominal(inv: dict) -> tuple[float, float]:
    """(wall, CPU) seconds of an untraced invocation at nominal machine
    speed: probe time taken out, the rest scaled by the run's speed factor."""
    return ((inv["wall_s"] - inv["probe_s"]) * inv["speed"],
            (inv["cpu_s"] - inv["probe_cpu_s"]) * inv["speed"])


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    bench.setup_sample()  # warm-up: bytecode caches
    setup = []
    start = time.perf_counter()
    while True:
        # Set-up samples are spread over the run, so that their median sees
        # the same machine load as the invocations do.
        setup += [bench.setup_sample() for _ in range(SETUP_PER_INVOCATION)]
        inv = bench.invoke(str(len(bench.invocations)), "none", bench.nproc)
        if len(bench.invocations) > 1:
            bench.drop_outputs(inv)
        if inv["problems"]:
            break
        elapsed = time.perf_counter() - start
        typical = median([i["elapsed_s"] for i in bench.invocations])
        if elapsed + typical > seconds:
            break
    good = [i for i in bench.invocations if "episodes" in i]
    times = [nominal(i) for i in good]
    metrics = {
        "setup_s": median([elapsed * factor for elapsed, factor in setup]),
        "wall_s": median([wall for wall, _ in times]),
        "episodes_per_s": median([i["episodes"] / wall for i, (wall, _) in zip(good, times)]),
        "episodes_per_cpu_s": median([i["episodes"] / cpu for i, (_, cpu) in zip(good, times)]),
        "peak_rss_mb": median([i["peak_rss_mb"] for i in good]),
    }
    # the same medians before scaling, for comparison with the machine's clock
    raw = {
        "setup_s": median([elapsed for elapsed, _ in setup]),
        "wall_s": median([i["wall_s"] for i in good]),
        "speed": median([i["speed"] for i in good]),
    }
    return metrics, {"raw": raw, "setup_samples": setup,
                     "measured_s": time.perf_counter() - start}


def per_layer(full: dict, serial: dict, pooled: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the fully traced pass and the two parent-side
    passes (1 worker and nproc workers), and the self-time totals that the
    shares divide by the root span."""
    a_spans, counters = tracing.load(full["spans_path"])
    b_spans, _ = tracing.load(serial["spans_path"])
    c_spans, c_counters = tracing.load(pooled["spans_path"])
    A, B, C = (tracing.SpanSummary(s) for s in (a_spans, b_spans, c_spans))
    us, m = 1e6, {}

    def calls_p50(summary, name):
        m[f"{name}.calls"] = summary.calls(name)
        m[f"{name}.us_p50"] = summary.p(name, 50) * us

    m["physics.step_env.calls"] = A.calls("physics.step_env")
    m["physics.step_env.self_us_p50"] = A.p("physics.step_env", 50, own=True) * us
    m["physics.step_env.self_us_p99"] = A.p("physics.step_env", 99, own=True) * us
    m["physics.step_env.share"] = A.share("physics.step_env")
    for name in ("physics.apply_actuation", "physics.center_of_mass", "physics.build_world",
                 "sensing.ObservationBuilder", "sensing.refresh",
                 "control.mutate_controller", "control.init_controller",
                 "morphology.mutate_morphology", "morphology.random_morphology",
                 "morphology.sample_neighbor", "morphology.resample_cells"):
        calls_p50(A, name)
    m["sensing.refresh.share"] = A.share("sensing.refresh")
    m["control.act.calls"] = A.calls("control.act")
    m["control.act.self_us_p50"] = A.p("control.act", 50, own=True) * us
    m["control.act.share"] = A.share("control.act")
    m["walker.run_episode.calls"] = A.calls("walker.run_episode")
    m["walker.run_episode.s_p50"] = A.p("walker.run_episode", 50)
    m["walker.run_episode.s_p90"] = A.p("walker.run_episode", 90)
    m["walker.run_episode.self_share"] = A.share("walker.run_episode")
    for key in ("physics.spring_substeps", "control.act.rows", "walker.env_steps",
                "walker.diverged", "walker.reached_end",
                "morphology.accepted_genomes", "morphology.resample_draws"):
        m[key] = counters[key]
    draws = counters["morphology.resample_draws"]
    m["morphology.draw_acceptance"] = (
        counters["morphology.accepted_genomes"] / draws if draws else 0.0)

    m["evolution.evolve_generation.s_p50"] = C.p("evolution.evolve_generation", 50)
    m["evolution.parent_serial_s"] = (
        C.total("evolution.evolve_generation")
        - tracing.nested_total(c_spans, "evolution.evolve_generation",
                               "evolution.Evaluator.evaluate"))
    m["evolution.select_survivors.us_p50"] = C.p("evolution.select_survivors", 50) * us
    serial_s = B.total("evolution.Evaluator.evaluate")
    pooled_s = C.total("evolution.Evaluator.evaluate")
    m["evolution.evaluate_s_1w"] = serial_s
    m["evolution.evaluate_s_nproc"] = pooled_s
    m["evolution.pool_speedup"] = serial_s / pooled_s if pooled_s else 0.0
    calls_p50(C, "checkpoints.save")
    m["checkpoints.bytes_written"] = c_counters["checkpoints.bytes_written"]
    m["cli.self_s"] = C.self_total("cli.main")
    m["runconfig.load_config.ms"] = C.p("runconfig.load_config", 50) * 1e3
    m["trace.wall_s"] = full["wall_s"]
    m["trace.untraced_wall_s"] = serial["wall_s"]
    m["trace.self_sum_s"] = A.self_sum_s
    m["trace.overhead_share"] = full["wall_s"] / serial["wall_s"] - 1.0
    totals = {"root_s": A.root_s, "self_s": {n: A.self_total(n) for n in A.self_time}}
    return m, totals


def traced(bench: Bench) -> tuple[dict, dict]:
    full = bench.invoke("full", "full", 1)
    serial = bench.invoke("serial", "parent", 1)
    pooled = bench.invoke("pooled", "parent", bench.nproc)
    if any(i["problems"] for i in (full, serial, pooled)):
        return {}, {}
    return per_layer(full, serial, pooled)


def tally(invocations: list[dict], checks: dict) -> tuple[int, int]:
    """(failed, attempted). Each CLI invocation and each reference episode is
    one checked unit. The re-scored artifacts belong to the first invocation."""
    invocations[0]["problems"] += checks["artifact_problems"]
    failed = sum(1 for i in invocations if i["problems"])
    failed += len(checks["reference_misses"])
    return failed, len(invocations) + checks["reference_checked"]


def machine(load_start) -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "loadavg_start": load_start, "loadavg_end": list(os.getloadavg())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "voxevo", "cli.py")):
        print(f"error: no voxevo source tree at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    load_start = list(os.getloadavg())
    runner = Runner(time.monotonic() + RUN_BUDGET_S)
    work = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    try:
        bench = Bench(args.workload, args.seed, work, runner, len(os.sched_getaffinity(0)))
        if args.trace:
            values, extra = traced(bench)
        else:
            values, extra = end_to_end(bench, args.seconds)
        checks = bench.verify()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)  # only when no other run is using it

    failed, attempted = tally(bench.invocations, checks)
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}

    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'failed_share':40s} {failed / attempted:>16.6g} share")
    for name, value in extra.get("raw", {}).items():
        unit = "x nominal" if name == "speed" else "s, unscaled"
        print(f"{'raw.' + name:40s} {value:>16.6g} {unit}")
    first = next((i for i in bench.invocations if "python" in i), {})
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": {**machine(load_start), "python": first.get("python"),
                    "numpy": first.get("numpy")},
        "digests": sorted({i["digest"] for i in bench.invocations if "digest" in i}),
        "invocations": [{k: v for k, v in i.items() if k not in ("digests", "spans_path")}
                        for i in bench.invocations],
        "reference_misses": checks["reference_misses"],
        "failed_share": {"failed": failed, "attempted": attempted},
        **extra,
    }
    print("details " + json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
