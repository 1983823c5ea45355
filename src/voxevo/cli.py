"""Command-line entry point.

Subcommands: evolve (run the EA, single run or seeded battery), transfer
(evaluate a trained champion on mutated bodies), replay (export one recorded
episode as line-delimited JSON frames), and report (summarize a finished run
directory). All randomness flows from the configured master seed; re-running
any command with the same inputs reproduces its output files byte for byte.

Files are written through `.partial` siblings and renamed when complete, so
a file without the suffix is always whole.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys

import numpy as np

from .checkpoints import (
    CheckpointIntegrityError,
    atomic_write_bytes,
    load_individual,
    save_individual,
    save_population,
)
from .control import input_size
from .evolution import Evaluator, Individual, OffspringRecord, run_evolution
from .experiments import (
    accounting_from_lineage,
    convergence_metrics,
    CONVERGENCE_THRESHOLDS,
    LineageIntegrityError,
    transfer_analysis,
)
from .runconfig import ConfigError, RunConfig, load_config, override
from .walker import run_episode

GENERATIONS_CSV = "generations.csv"
LINEAGE_CSV = "lineage.csv"
CHAMPION_CKPT = "champion.ckpt"

GENERATION_COLUMNS = [
    "generation", "best_fitness", "mean_fitness",
    "n_body_success", "n_brain_success", "n_body_attempted", "n_brain_attempted",
]
LINEAGE_COLUMNS = [f.name for f in dataclasses.fields(OffspringRecord)]

TRANSFER_STREAM_TAG = 1001


class ReportIntegrityError(RuntimeError):
    pass


# A command refuses its input by raising one of these before its first write,
# the claim of its output; `main` alone reports it, as one `error:` line and
# exit status 2. Any other error escapes as a traceback.
REJECTIONS = (ConfigError, CheckpointIntegrityError, ReportIntegrityError,
              LineageIntegrityError)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv_atomic(path: str, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    atomic_write_bytes(path, buf.getvalue().encode("utf-8"))


def _execute_run(run_dir: str, cfg: RunConfig):
    """One evolution run with streaming CSV logging and checkpoints."""
    os.makedirs(run_dir, exist_ok=True)
    gen_path = os.path.join(run_dir, GENERATIONS_CSV)
    partial = f"{gen_path}.partial"
    fh = open(partial, "w", encoding="utf-8", newline="")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(GENERATION_COLUMNS)

    def on_generation(generation, log, population, champion):
        writer.writerow([_fmt(getattr(log, column)) for column in GENERATION_COLUMNS])
        fh.flush()
        if cfg.checkpoint_every and generation % cfg.checkpoint_every == 0:
            save_population(
                os.path.join(run_dir, f"population_gen{generation:05d}.ckpt"),
                population)
            save_individual(os.path.join(run_dir, CHAMPION_CKPT), champion)

    try:
        artifacts = run_evolution(cfg, on_generation=on_generation)
    except Exception:
        fh.close()  # leaves the .partial marker behind
        raise
    fh.close()
    os.replace(partial, gen_path)

    lineage_rows = [[getattr(r, column) for column in LINEAGE_COLUMNS]
                    for r in sorted(artifacts.lineage.values(), key=lambda r: r.id)]
    _write_csv_atomic(os.path.join(run_dir, LINEAGE_CSV), LINEAGE_COLUMNS, lineage_rows)
    save_individual(os.path.join(run_dir, CHAMPION_CKPT), artifacts.champion)
    save_population(os.path.join(run_dir, "population_final.ckpt"),
                    artifacts.final_population)
    return artifacts


def _prologue(args) -> RunConfig:
    """The config of `evolve` and `transfer` with --seed, --workers and --out
    written in."""
    cfg = override(load_config(args.config),
                   seed=args.seed, workers=args.workers, out=args.out)
    if cfg.out is None:
        raise ConfigError("no output directory: set [run] out or pass --out", args.config)
    return cfg


def _load_champion(path: str, cfg: RunConfig, config_path: str) -> Individual:
    """The champion checkpoint at `path`, which replays only under the
    observation layout it evolved with."""
    champion = load_individual(path)
    kind = champion.controller.kind
    got = champion.controller.params.n_inputs
    want = input_size(kind, cfg.observation)
    if got != want:
        raise ConfigError(
            f"the {kind} champion's controller takes {got} inputs, but the "
            f"observation layout of this config gives {want} "
            f"(neighborhood_distance = {cfg.observation.neighborhood_distance})",
            config_path)
    return champion


def _claim_output(directory: str, fresh: bool = False) -> None:
    """Make `directory`, the one a command writes into, and its parents: every
    command's first write. A `fresh` claim refuses a directory that exists;
    a path that cannot be made (a file in the way, no permission) is refused."""
    try:
        os.makedirs(directory, exist_ok=not fresh)
    except OSError as exc:
        message = ("output directory already exists" if os.path.isdir(directory)
                   else f"cannot create output directory: {exc.strerror}")
        raise ConfigError(message, directory) from exc


def cmd_evolve(args) -> int:
    cfg = _prologue(args)
    _claim_output(cfg.out, fresh=True)
    # a single run is a battery of one, written in place
    battery = cfg.n_runs > 1
    fitnesses = []
    for i in range(cfg.n_runs):
        run_cfg = dataclasses.replace(cfg, seed=cfg.seed + i)
        run = f"run {i:02d} (seed {run_cfg.seed}) " if battery else ""
        run_dir = os.path.join(cfg.out, f"run_{i:02d}") if battery else cfg.out
        fitnesses.append(_execute_run(run_dir, run_cfg).champion.fitness)
        print(f"{run}champion fitness: {fitnesses[-1]!r}")
    if battery:
        print(f"battery best champion fitness: {max(fitnesses)!r}")
    return 0


def cmd_transfer(args) -> int:
    cfg = _prologue(args)
    champion = _load_champion(args.champion, cfg, args.config)
    _claim_output(cfg.out)

    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, TRANSFER_STREAM_TAG]))
    with Evaluator(cfg) as evaluator:
        source_fitness = champion.fitness
        if source_fitness is None:
            source_fitness = evaluator.evaluate(
                [((champion.morphology,), champion.controller)])[0][0].fitness
        samples = transfer_analysis(
            champion.morphology, champion.controller, source_fitness,
            list(cfg.distances), rng, evaluator,
            samples_per_distance=cfg.samples_per_distance,
            one_shot_lambda=cfg.one_shot_lambda,
            source_id=champion.id)

    rows = [
        [s.source_id, s.distance, s.neighbor.to_text().replace("\n", ""),
         s.zero_shot_fitness, s.one_shot_fitness,
         s.relative_change_zero, s.relative_change_one]
        for s in samples
    ]
    _write_csv_atomic(
        os.path.join(cfg.out, "transfer.csv"),
        ["source_id", "distance", "neighbor", "zero_shot_fitness",
         "one_shot_fitness", "relative_change_zero", "relative_change_one"],
        rows)

    lines = [f"source fitness: {source_fitness!r}", ""]
    for distance in cfg.distances:
        at_d = [s for s in samples if s.distance == distance]
        zeros = [s.relative_change_zero for s in at_d
                 if s.relative_change_zero is not None]
        ones = [s.relative_change_one for s in at_d
                if s.relative_change_one is not None]
        lines.append(f"distance {distance}: {len(at_d)} samples")
        if zeros:
            lines.append(
                f"  zero-shot relative change: mean {float(np.mean(zeros))!r} "
                f"median {float(np.median(zeros))!r}")
            lines.append(
                f"  one-shot relative change:  mean {float(np.mean(ones))!r} "
                f"median {float(np.median(ones))!r}")
        else:
            lines.append("  relative changes omitted (source fitness below guard)")
    atomic_write_bytes(os.path.join(cfg.out, "transfer_summary.txt"),
                       ("\n".join(lines) + "\n").encode("utf-8"))
    print(f"wrote {len(rows)} transfer samples to {cfg.out}")
    return 0


def cmd_replay(args) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    champion = _load_champion(args.champion, cfg, args.config or "default config")
    if os.path.isdir(args.out):
        raise ConfigError(f"output is a directory: {args.out}", "--out")
    _claim_output(os.path.dirname(os.path.abspath(args.out)))

    result = run_episode(champion.morphology, champion.controller,
                         cfg.episode, cfg.physics, cfg.observation, record=True)
    meta = {
        "type": "meta",
        "fitness": result.fitness,
        "delta_px": result.delta_px,
        "reached_end": result.reached_end,
        "steps": result.steps_used,
        "diverged": result.diverged,
        "checkpoint_fitness": champion.fitness,
        "n_masses": int(result.trajectory[0].shape[0]),
        "morphology": champion.morphology.to_text().replace("\n", ""),
    }
    lines = [json.dumps(meta)]
    for step, frame in enumerate(result.trajectory):
        lines.append(json.dumps(
            {"type": "frame", "step": step, "positions": frame.tolist()}))
    atomic_write_bytes(args.out, ("\n".join(lines) + "\n").encode("utf-8"))
    print(f"replay fitness: {result.fitness!r} ({result.steps_used} steps) -> {args.out}")
    return 0


def _read_csv(path: str, types: dict) -> list[dict]:
    """Each row of a run's CSV as {column: types[column](field)}; a missing
    column or a field that does not parse is refused, naming the file and
    its line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for row in reader:
            try:
                rows.append({name: convert(row[name]) for name, convert in types.items()})
            except (KeyError, TypeError, ValueError) as exc:  # TypeError: a short row's None
                problem = f"no {exc} column" if isinstance(exc, KeyError) else exc
                raise ReportIntegrityError(f"{path}: line {reader.line_num}: {problem}") from exc
    return rows


def _optional(convert):
    return lambda text: convert(text) if text else None


# lineage.csv's columns are OffspringRecord's fields
LINEAGE_TYPES = {"id": int, "parent_id": _optional(int), "mutation_kind": str,
                 "fitness": float, "parent_fitness_at_birth": _optional(float),
                 "success": lambda text: text == "1"}


def _summarize_run(run_dir: str) -> dict:
    missing = [name for name in (GENERATIONS_CSV, LINEAGE_CSV, CHAMPION_CKPT)
               if not os.path.exists(os.path.join(run_dir, name))]
    if missing:
        raise ReportIntegrityError(
            f"{run_dir}: missing artifacts: {', '.join(missing)}")

    rows = _read_csv(os.path.join(run_dir, GENERATIONS_CSV),
                     {"generation": int, "best_fitness": float})
    if not rows:
        raise ReportIntegrityError(f"{run_dir}: {GENERATIONS_CSV} has no rows")
    generations = [r["generation"] for r in rows]
    best_so_far = list(np.maximum.accumulate([r["best_fitness"] for r in rows]))

    champion = load_individual(os.path.join(run_dir, CHAMPION_CKPT))
    lineage = {r["id"]: OffspringRecord(**r)
               for r in _read_csv(os.path.join(run_dir, LINEAGE_CSV), LINEAGE_TYPES)}
    accounting = accounting_from_lineage(lineage, champion.id)

    return {
        "run_dir": run_dir,
        "champion_fitness": champion.fitness,
        "convergence": {theta: generations[idx]
                        for theta, idx in convergence_metrics(best_so_far).items()},
        "lineage_body_fraction": accounting.lineage_body_fraction,
        "population_body_fraction": accounting.population_body_fraction,
    }


def cmd_report(args) -> int:
    run_dir = args.run_dir
    try:
        if os.path.exists(os.path.join(run_dir, GENERATIONS_CSV)):
            run_dirs = [run_dir]
        else:
            run_dirs = sorted(
                os.path.join(run_dir, name) for name in os.listdir(run_dir)
                if name.startswith("run_")
                and os.path.isdir(os.path.join(run_dir, name)))
            if not run_dirs:
                raise ReportIntegrityError(
                    f"{run_dir}: no {GENERATIONS_CSV} and no run_* subdirectories")
        summaries = [_summarize_run(d) for d in run_dirs]
    except OSError as exc:
        raise ReportIntegrityError(f"cannot read run: {exc}") from exc
    _claim_output(run_dir)

    header = (["run", "champion_fitness"]
              + [f"gens_to_{int(t * 100)}" for t in CONVERGENCE_THRESHOLDS]
              + ["lineage_body_fraction", "population_body_fraction"])
    rows = []
    for s in summaries:
        rows.append([os.path.basename(s["run_dir"]) or s["run_dir"],
                     s["champion_fitness"]]
                    + [s["convergence"][t] for t in CONVERGENCE_THRESHOLDS]
                    + [s["lineage_body_fraction"], s["population_body_fraction"]])
    if len(summaries) > 1:
        champs = [s["champion_fitness"] for s in summaries]
        q1, med, q3 = (float(v) for v in np.percentile(champs, [25, 50, 75]))
        aggregate = ["aggregate_median", med]
        for t in CONVERGENCE_THRESHOLDS:
            aggregate.append(float(np.median([s["convergence"][t] for s in summaries])))
        for key in ("lineage_body_fraction", "population_body_fraction"):
            vals = [s[key] for s in summaries if s[key] is not None]
            aggregate.append(float(np.median(vals)) if vals else None)
        rows.append(aggregate)

    report_csv = os.path.join(run_dir, "report.csv")
    _write_csv_atomic(report_csv, header, rows)

    lines = [f"runs: {len(summaries)}"]
    for s in summaries:
        conv = ", ".join(f"{int(t*100)}%@gen {s['convergence'][t]}"
                         for t in CONVERGENCE_THRESHOLDS)
        lines.append(f"{s['run_dir']}: champion {s['champion_fitness']!r} ({conv})")
    if len(summaries) > 1:
        lines.append(f"champion fitness median {med!r} IQR [{q1!r}, {q3!r}]")
    text = "\n".join(lines) + "\n"
    atomic_write_bytes(os.path.join(run_dir, "report.txt"), text.encode("utf-8"))
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxevo",
        description="Evolve voxel soft robots and analyze the results.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required: bool):
        p.add_argument("--config", required=config_required,
                       help="path to a run configuration file")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--workers", type=int,
                       help="parallel evaluation processes "
                            "(falls back to [run] workers, then CPU count)")
        p.add_argument("--out", help="override the output directory")

    p_evolve = sub.add_parser("evolve", help="run the evolutionary algorithm")
    common(p_evolve, config_required=True)
    p_evolve.set_defaults(func=cmd_evolve)

    p_transfer = sub.add_parser(
        "transfer", help="evaluate a champion controller on mutated bodies")
    common(p_transfer, config_required=True)
    p_transfer.add_argument("--champion", required=True,
                            help="champion checkpoint file")
    p_transfer.set_defaults(func=cmd_transfer)

    p_replay = sub.add_parser(
        "replay", help="export one recorded episode as JSON lines")
    p_replay.add_argument("--champion", required=True,
                          help="champion checkpoint file")
    p_replay.add_argument("--out", required=True, help="output trajectory file")
    p_replay.add_argument("--config", help="optional run configuration file")
    p_replay.set_defaults(func=cmd_replay)

    p_report = sub.add_parser(
        "report", help="summarize a finished run or battery directory")
    p_report.add_argument("run_dir", help="run directory to summarize")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except REJECTIONS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
