"""Subprocess side of the benchmark: one fresh interpreter per command.

Every voxevo import comes from the `src/` tree of the checkout this file sits
in, never from an installed copy.

    child.py setup --config CFG [--champion CKPT]
        imports, load_config and checkpoint load (timed by run.py), then
        prints the machine speed factor (see speed.py) and exits
    child.py cli --trace {none,parent,full} --result OUT.json [--spans S.json] -- ARGS
        runs voxevo.cli.main(ARGS) and writes wall, CPU and peak RSS; untraced,
        also the mean speed factor of the probes taken during the command
    child.py champion --seed N --out CKPT
        builds the transfer source: a seeded random body with
        SOURCE_SPRINGS springs and a modular controller with |fitness| >= 0.1
    child.py verify --config CFG --reference REF.json [--out DIR [--champion CKPT]]
        re-runs the reference episodes (on nproc spawned workers) and
        re-scores the run's outputs
    child.py make-reference OUT.json
        writes the reference episodes of the current source tree
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.realpath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

TOLERANCE = 1e-9
REFERENCE_SEED = 20230613
TRANSFER_SEED_TAG = 7
MIN_SOURCE_FITNESS = 0.1
# The transfer source's spring count is fixed (the mode of random bodies), so
# that the seed changes which body is simulated but hardly how much work it is.
SOURCE_SPRINGS = 88


def _import_voxevo():
    import voxevo.cli  # noqa: F401  (imports every module of the package)
    if not os.path.realpath(sys.modules["voxevo"].__file__).startswith(SRC + os.sep):
        raise SystemExit(f"voxevo imported from outside {SRC}")
    return sys.modules["voxevo"]


def cmd_setup(args) -> int:
    _import_voxevo()
    from voxevo.checkpoints import load_individual
    from voxevo.runconfig import load_config
    load_config(args.config)
    if args.champion:
        load_individual(args.champion)
    import speed
    print(json.dumps({"speed": speed.burst_speed()}))
    return 0


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def cmd_cli(args) -> int:
    voxevo = _import_voxevo()
    import numpy
    import tracing
    tracer = meter = None
    if args.trace == "none":
        import speed
        meter = speed.Speedometer(args.result + ".probe")
        meter.start()
    else:
        tracer = tracing.Tracer()
        targets = tracing.PARENT_SIDE
        if args.trace == "full":
            targets = targets + tracing.LAYERS
        tracer.install(targets)
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    rc = voxevo.cli.main(args.argv)
    wall = time.perf_counter() - start
    if meter is not None:
        meter.stop()
    own = resource.getrusage(resource.RUSAGE_SELF)
    # pool workers are joined by Evaluator.close, so they are reaped here
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        tracer.dump(args.spans)
    result = {
        "rc": rc,
        "wall_s": wall,
        "cpu_s": _cpu_s(own) - _cpu_s(before) + _cpu_s(workers),
        "peak_rss_mb": max(own.ru_maxrss, workers.ru_maxrss) / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if meter is not None:
        result.update(meter.collect())
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def cmd_champion(args) -> int:
    _import_voxevo()
    import numpy as np
    from voxevo.checkpoints import save_individual
    from voxevo.control import init_controller
    from voxevo.evolution import KIND_FRESH, Individual
    from voxevo.morphology import random_morphology
    from voxevo.physics import PhysicsConfig, build_world
    from voxevo.walker import evaluate_fitness
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, TRANSFER_SEED_TAG]))
    while True:
        morph = random_morphology(rng)
        if len(build_world(morph, PhysicsConfig()).rest) != SOURCE_SPRINGS:
            continue
        ctrl = init_controller("modular", rng)
        fitness = evaluate_fitness(morph, ctrl)
        if abs(fitness) >= MIN_SOURCE_FITNESS:
            break
    save_individual(args.out, Individual(
        morphology=morph, controller=ctrl, age=0, id=0, parent_id=None,
        mutation_kind=KIND_FRESH, parent_fitness_at_birth=None, fitness=fitness))
    return 0


def _reference_cases():
    """The 4 catalog bodies and 4 seeded random bodies, each under both
    controller kinds, with seeded controllers."""
    import numpy as np
    from voxevo.control import init_controller
    from voxevo.experiments import CATALOG_ORDER, default_catalog
    from voxevo.morphology import random_morphology
    catalog = default_catalog()
    bodies = [(name, catalog[name]) for name in CATALOG_ORDER]
    for i in range(4):
        rng = np.random.default_rng(np.random.SeedSequence([REFERENCE_SEED, 1, i]))
        bodies.append((f"random{i}", random_morphology(rng)))
    for b, (name, body) in enumerate(bodies):
        for k, kind in enumerate(("global", "modular")):
            rng = np.random.default_rng(np.random.SeedSequence([REFERENCE_SEED, 2, b, k]))
            yield f"{name}/{kind}", body, init_controller(kind, rng)


def _reference_episode(body, controller) -> dict:
    """Fitness and final centre of mass of one default episode.

    run_episode's last centre-of-mass call is on the final state, so the
    value is captured from a stand-in bound in the walker module.
    """
    from voxevo import walker
    original = walker.center_of_mass
    last = []

    def capture(world):
        value = original(world)
        last[:] = [float(value[0]), float(value[1])]
        return value

    walker.center_of_mass = capture
    try:
        result = walker.run_episode(body, controller)
    finally:
        walker.center_of_mass = original
    return {"fitness": result.fitness, "steps": result.steps_used, "com": last}


def cmd_make_reference(args) -> int:
    _import_voxevo()
    cases = [
        {"case": name, "body": body.to_text(), **_reference_episode(body, ctrl)}
        for name, body, ctrl in _reference_cases()
    ]
    with open(args.path, "w", encoding="utf-8") as fh:
        json.dump({"tolerance": TOLERANCE, "cases": cases}, fh, indent=1)
        fh.write("\n")
    return 0


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE


def _reference_misses(path: str) -> tuple[int, list[str]]:
    with open(path, encoding="utf-8") as fh:
        stored = {c["case"]: c for c in json.load(fh)["cases"]}
    cases = list(_reference_cases())
    with multiprocessing.get_context("spawn").Pool(len(os.sched_getaffinity(0))) as pool:
        results = pool.starmap(_reference_episode, [(b, c) for _, b, c in cases])
    misses = []
    for (name, body, _), got in zip(cases, results):
        want = stored.get(name)
        if want is None or want["body"] != body.to_text():
            misses.append(f"{name}: no stored reference for this body")
        elif not (_close(got["fitness"], want["fitness"])
                  and got["steps"] == want["steps"]
                  and len(got["com"]) == len(want["com"])
                  and all(_close(g, w) for g, w in zip(got["com"], want["com"]))):
            misses.append(f"{name}: got {got}, stored {want}")
    return len(cases), misses


def _champion_problems(cfg, out_dir: str) -> list[str]:
    from voxevo.checkpoints import load_individual
    from voxevo.evolution import evaluation_bodies
    from voxevo.walker import evaluate_fitness
    champion = load_individual(os.path.join(out_dir, "champion.ckpt"))
    bodies = evaluation_bodies(cfg.evolution_config(workers=1), champion)
    rescored = min(evaluate_fitness(b, champion.controller, cfg.episode,
                                    cfg.physics, cfg.observation) for b in bodies)
    if champion.fitness is None or not _close(rescored, champion.fitness):
        return [f"champion.ckpt fitness {champion.fitness!r}, re-scored {rescored!r}"]
    return []


def _transfer_problems(cfg, out_dir: str, champion_path: str) -> list[str]:
    import csv
    from voxevo.checkpoints import load_individual
    from voxevo.morphology import Morphology
    from voxevo.walker import evaluate_fitness
    champion = load_individual(champion_path)
    with open(os.path.join(out_dir, "transfer.csv"), encoding="utf-8", newline="") as fh:
        first = next(csv.DictReader(fh))
    digits = first["neighbor"]
    body = Morphology.from_text("\n".join(digits[i:i + 5] for i in range(0, 25, 5)))
    rescored = evaluate_fitness(body, champion.controller, cfg.episode,
                                cfg.physics, cfg.observation)
    stored = float(first["zero_shot_fitness"])
    if not _close(rescored, stored):
        return [f"transfer.csv zero-shot {stored!r}, re-scored {rescored!r}"]
    return []


def cmd_verify(args) -> int:
    _import_voxevo()
    from voxevo.runconfig import load_config
    cfg = load_config(args.config)
    problems = []
    if args.out and args.champion:
        problems = _transfer_problems(cfg, args.out, args.champion)
    elif args.out:
        problems = _champion_problems(cfg, args.out)
    checked, misses = _reference_misses(args.reference)
    json.dump({"artifact_problems": problems, "reference_checked": checked,
               "reference_misses": misses}, sys.stdout)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--config", required=True)
    p.add_argument("--champion")
    p.set_defaults(func=cmd_setup)
    p = sub.add_parser("cli")
    p.add_argument("--trace", choices=("none", "parent", "full"), default="none")
    p.add_argument("--result", required=True)
    p.add_argument("--spans")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_cli)
    p = sub.add_parser("champion")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_champion)
    p = sub.add_parser("verify")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--champion")
    p.add_argument("--reference", required=True)
    p.set_defaults(func=cmd_verify)
    p = sub.add_parser("make-reference")
    p.add_argument("path")
    p.set_defaults(func=cmd_make_reference)
    args = parser.parse_args(argv)
    if args.command == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        if args.trace != "none" and not args.spans:
            parser.error("--spans is required with --trace parent|full")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
