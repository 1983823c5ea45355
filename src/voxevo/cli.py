"""Command-line entry point.

Subcommands: evolve (run the EA, single run or seeded battery), transfer
(evaluate a trained champion on mutated bodies), replay (export one recorded
episode as line-delimited JSON frames), and report (summarize a finished run
directory). All randomness flows from the configured master seed; re-running
any command with the same inputs reproduces its output files byte for byte.

Every file is written through `checkpoints.atomic_open`, to a `.partial`
sibling renamed when complete, so a file without the suffix is always whole.
Each CSV's rows are the records of one dataclass, its header their field
names; `report` parses each field by its annotation and builds the record,
refusing at file:line a field that does not parse or check.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import typing

import numpy as np

from .checkpoints import (
    CheckpointIntegrityError,
    atomic_open,
    atomic_write_bytes,
    load_individual,
    save_individual,
    save_population,
)
from .evolution import Evaluator, GenerationLog, Individual, OffspringRecord, run_evolution
from .experiments import (
    accounting_from_lineage,
    convergence_metrics,
    CONVERGENCE_THRESHOLDS,
    LineageIntegrityError,
    TransferSample,
    transfer_analysis,
)
from .morphology import Morphology
from .physics import build_world
from .runconfig import ConfigError, RunConfig, load_config, override
from .sensing import input_size
from .walker import run_episode

GENERATIONS_CSV = "generations.csv"
LINEAGE_CSV = "lineage.csv"
CHAMPION_CKPT = "champion.ckpt"

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
    if isinstance(value, Morphology):
        return value.to_text().replace("\n", "")  # 25 digits, row-major
    return str(value)


def _columns(record_type) -> list[str]:
    return [f.name for f in dataclasses.fields(record_type)]


def _row(record) -> list[str]:
    return [_fmt(getattr(record, name)) for name in _columns(record)]


def _write_records(path: str, cls, records) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_columns(cls))
        writer.writerows(map(_row, records))


def _execute_run(run_dir: str, cfg: RunConfig, evaluator: Evaluator):
    """One evolution run on `evaluator`, written as it yields; returns its last `RunState`."""
    os.makedirs(run_dir, exist_ok=True)
    with atomic_open(os.path.join(run_dir, GENERATIONS_CSV)) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_columns(GenerationLog))
        for state, log in run_evolution(cfg, evaluator):
            writer.writerow(_row(log))
            fh.flush()
            if cfg.checkpoint_every and state.generation % cfg.checkpoint_every == 0:
                save_population(
                    os.path.join(run_dir, f"population_gen{state.generation:05d}.ckpt"),
                    state.population)
                save_individual(os.path.join(run_dir, CHAMPION_CKPT), state.champion)

    _write_records(os.path.join(run_dir, LINEAGE_CSV), OffspringRecord, state.lineage)
    save_individual(os.path.join(run_dir, CHAMPION_CKPT), state.champion)
    save_population(os.path.join(run_dir, "population_final.ckpt"), state.population)
    return state


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
    got = champion.controller.n_inputs
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
    # the runs differ only in their seed: they share one evaluator, one pool
    with Evaluator(cfg) as evaluator:
        for i in range(cfg.n_runs):
            run_cfg = dataclasses.replace(cfg, seed=cfg.seed + i)
            run = f"run {i:02d} (seed {run_cfg.seed}) " if battery else ""
            run_dir = os.path.join(cfg.out, f"run_{i:02d}") if battery else cfg.out
            fitnesses.append(_execute_run(run_dir, run_cfg, evaluator).champion.fitness)
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

    _write_records(os.path.join(cfg.out, "transfer.csv"), TransferSample, samples)

    lines = [f"source fitness: {source_fitness!r}", ""]
    for distance in cfg.distances:
        at_d = [s for s in samples if s.distance == distance]
        zeros = [s.relative_change_zero for s in at_d
                 if s.relative_change_zero is not None]
        ones = [s.relative_change_one for s in at_d
                if s.relative_change_one is not None]
        lines.append(f"distance {distance}: {len(at_d)} samples")
        if not at_d:
            lines.append("  relative changes omitted (no neighbor sampled)")
        elif zeros:
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
    print(f"wrote {len(samples)} transfer samples to {cfg.out}")
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
        "n_masses": build_world(champion.morphology, cfg.physics).n_masses,
        "morphology": champion.morphology.to_text().replace("\n", ""),
    }
    lines = [json.dumps(meta)]
    for step, frame in enumerate(result.trajectory):
        lines.append(json.dumps(
            {"type": "frame", "step": step, "positions": frame.tolist()}))
    atomic_write_bytes(args.out, ("\n".join(lines) + "\n").encode("utf-8"))
    print(f"replay fitness: {result.fitness!r} ({result.steps_used} steps) -> {args.out}")
    return 0


def _finite(text: str) -> float:
    """A float field: every fitness and mean a run records is finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"not 0 or 1: {text!r}")
    return text == "1"


def _integer(text: str) -> int:
    """An int field as `str(int)` writes it: no sign, space, underscore or
    leading zero that `int` would accept."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"not an integer as written: {text!r}")
    return value


_PARSERS = {int: _integer, float: _finite, str: str, bool: _flag}


def _parser(annotation):
    """The parser of a field annotated `X`, or `X | None` with None as ''."""
    inner = [a for a in typing.get_args(annotation) if a is not type(None)]
    if not inner:
        return _PARSERS[annotation]
    return lambda text: _PARSERS[inner[0]](text) if text else None


def _read_records(path: str, cls) -> list:
    """The `cls` records of a CSV; a missing column, or a field that does not
    parse by its annotation or check in `cls`, is refused at file:line."""
    hints = typing.get_type_hints(cls)
    parsers = {name: _parser(hints[name]) for name in _columns(cls)}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        records = []
        for row in reader:
            try:
                records.append(cls(**{name: parse(row[name])
                                      for name, parse in parsers.items()}))
            except (KeyError, TypeError, ValueError) as exc:  # TypeError: a short row's None
                problem = f"no {exc} column" if isinstance(exc, KeyError) else exc
                raise ReportIntegrityError(f"{path}: line {reader.line_num}: {problem}") from exc
    return records


@dataclasses.dataclass(frozen=True)
class RunSummary:
    """One `report.csv` row; `gens_to_80` is the first generation whose best
    fitness so far reaches 80% of the final one (see CONVERGENCE_THRESHOLDS)."""
    run: str
    champion_fitness: float
    gens_to_80: float
    gens_to_90: float
    gens_to_95: float
    gens_to_99: float
    lineage_body_fraction: float | None
    population_body_fraction: float | None


def _summarize_run(run_dir: str) -> RunSummary:
    missing = [name for name in (GENERATIONS_CSV, LINEAGE_CSV, CHAMPION_CKPT)
               if not os.path.exists(os.path.join(run_dir, name))]
    if missing:
        raise ReportIntegrityError(
            f"{run_dir}: missing artifacts: {', '.join(missing)}")

    generations = os.path.join(run_dir, GENERATIONS_CSV)
    logs = _read_records(generations, GenerationLog)
    if not logs:
        raise ReportIntegrityError(f"{run_dir}: {GENERATIONS_CSV} has no rows")
    for number, log in enumerate(logs, start=1):
        if log.generation != number:  # row n is line n + 1: no field spans lines
            raise ReportIntegrityError(f"{generations}: line {number + 1}: generation "
                                       f"{log.generation}, expected {number}")
    best_so_far = list(np.maximum.accumulate([log.best_fitness for log in logs]))

    champion = load_individual(os.path.join(run_dir, CHAMPION_CKPT))
    if champion.fitness is None:
        raise ReportIntegrityError(f"{run_dir}: {CHAMPION_CKPT} has no fitness")
    lineage_csv = os.path.join(run_dir, LINEAGE_CSV)
    lineage = {}
    for line, record in enumerate(_read_records(lineage_csv, OffspringRecord), start=2):
        if record.id in lineage:  # row n is line n + 1: no field spans lines
            raise ReportIntegrityError(f"{lineage_csv}: line {line}: repeated id {record.id}")
        lineage[record.id] = record
    accounting = accounting_from_lineage(lineage, champion.id)
    return RunSummary(
        os.path.basename(run_dir) or run_dir, champion.fitness,
        *(logs[i].generation for i in convergence_metrics(best_so_far).values()),
        accounting.lineage_body_fraction, accounting.population_body_fraction)


def _median(values: list) -> float | None:
    values = [v for v in values if v is not None]
    return float(np.median(values)) if values else None


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

    rows = list(summaries)
    if len(summaries) > 1:
        q1, med, q3 = (float(v) for v in np.percentile(
            [s.champion_fitness for s in summaries], [25, 50, 75]))
        rows.append(RunSummary("aggregate_median", med, *(
            _median([getattr(s, name) for s in summaries])
            for name in _columns(RunSummary)[2:])))
    _write_records(os.path.join(run_dir, "report.csv"), RunSummary, rows)

    lines = [f"runs: {len(summaries)}"]
    for d, s in zip(run_dirs, summaries):
        conv = ", ".join(f"{int(t * 100)}%@gen {getattr(s, f'gens_to_{int(t * 100)}')}"
                         for t in CONVERGENCE_THRESHOLDS)
        lines.append(f"{d}: champion {s.champion_fitness!r} ({conv})")
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
