"""Run configuration files.

The format is plain sectioned key=value text:

    # comment
    [run]
    seed = 42
    out = runs/demo

    [evolution]
    mu = 16
    lambda = 16

Sections and keys come from the configuration dataclasses: [run],
[evolution] and [experiment] from the `RunConfig` fields tagged with that
section, [physics] from `PhysicsConfig` plus `contact_*` keys from
`ContactParams`, [observation] from `ObservationConfig` and [episode] from
`EpisodeConfig`. Unknown names, duplicate keys, and malformed values are
rejected with the offending line number. Every default lives in its
dataclass, so the empty file is a valid configuration.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from .checkpoints import MAX_POPULATION
from .control import KINDS
from .evolution import EvolutionConfig
from .experiments import CATALOG_ORDER, CatalogError, default_catalog, load_catalog
from .morphology import Morphology
from .physics import ContactParams, PhysicsConfig
from .sensing import ObservationConfig
from .walker import EpisodeConfig


class ConfigError(Exception):
    """A config problem; `key` names the [experiment] key at fault when the
    error is raised before the file's line numbers are known."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None,
                 key: str | None = None):
        self.path = path
        self.line = line
        self.message = message
        self.key = key
        where = path or "<config>"
        if line is not None:
            where = f"{where}:{line}"
        super().__init__(f"{where}: {message}")


def _parse_int_list(raw: str) -> tuple[int, ...]:
    if not raw.strip():
        return ()
    return tuple(int(part.strip()) for part in raw.split(","))


def _parse_str_list(raw: str) -> tuple[str, ...]:
    if not raw.strip():
        return ()
    return tuple(part.strip() for part in raw.split(","))


# value parser by annotation (all config modules use postponed annotations)
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "tuple[int, ...]": _parse_int_list,
    "tuple[str, ...]": _parse_str_list,
}


# co-optimize evolves body and brain; multi-body evolves one controller on
# the catalog_bodies, scored by its minimum fitness over them
MODES = ("co-optimize", "multi-body")


def _in(section: str, default):
    """A RunConfig field set by one key of the given file section."""
    return field(default=default, metadata={"section": section})


@dataclass(frozen=True)
class RunConfig:
    seed: int = _in("run", EvolutionConfig.master_seed)
    out: str | None = _in("run", None)
    workers: int | None = _in("run", None)
    mode: str = _in("run", MODES[0])
    paradigm: str = _in("run", EvolutionConfig.controller_kind)
    generations: int = _in("run", EvolutionConfig.generations)
    mu: int = _in("evolution", EvolutionConfig.mu)
    lambda_: int = _in("evolution", EvolutionConfig.lambda_)
    p_body_mutation: float = _in("evolution", EvolutionConfig.p_body_mutation)
    controller_sigma: float = _in("evolution", EvolutionConfig.controller_sigma)
    checkpoint_every: int = _in("evolution", EvolutionConfig.checkpoint_every)
    physics: PhysicsConfig = field(default_factory=PhysicsConfig)
    observation: ObservationConfig = field(default_factory=ObservationConfig)
    episode: EpisodeConfig = field(default_factory=EpisodeConfig)
    n_runs: int = _in("experiment", 1)
    distances: tuple[int, ...] = _in("experiment", (1, 2, 3))
    samples_per_distance: int = _in("experiment", 20)
    one_shot_lambda: int = _in("experiment", 16)
    catalog_file: str | None = _in("experiment", None)
    catalog_bodies: tuple[str, ...] = _in("experiment", CATALOG_ORDER)

    def catalog(self) -> dict[str, Morphology]:
        if self.catalog_file is not None:
            return load_catalog(self.catalog_file)
        return default_catalog()

    def evolution_config(self, workers: int, seed: int | None = None) -> EvolutionConfig:
        bodies = None
        if self.mode == "multi-body":
            catalog = self.catalog()
            missing = [b for b in self.catalog_bodies if b not in catalog]
            if missing:
                raise ConfigError(f"catalog_bodies not in catalog: {missing}",
                                  key="catalog_bodies")
            bodies = tuple(catalog[b] for b in self.catalog_bodies)
        return EvolutionConfig(
            controller_kind=self.paradigm,
            mu=self.mu,
            lambda_=self.lambda_,
            generations=self.generations,
            p_body_mutation=self.p_body_mutation,
            controller_sigma=self.controller_sigma,
            catalog=bodies,
            master_seed=seed if seed is not None else self.seed,
            workers=workers,
            checkpoint_every=self.checkpoint_every,
            episode=self.episode,
            physics=self.physics,
            observation=self.observation,
        )


def _key(f: dataclasses.Field) -> str:
    return f.name.rstrip("_")  # the field lambda_ is the key `lambda`


# Configurable fields by file section; the contact parameters are keys of
# their own.
_RUN_FIELDS = {
    section: [f for f in dataclasses.fields(RunConfig) if f.metadata.get("section") == section]
    for section in ("run", "evolution", "experiment")
}
_PHYSICS_FIELDS = [f for f in dataclasses.fields(PhysicsConfig) if f.name != "contact"]
_CONTACT_FIELDS = dataclasses.fields(ContactParams)
_CONTACT_PREFIX = "contact_"
_OBSERVATION_FIELDS = dataclasses.fields(ObservationConfig)
_EPISODE_FIELDS = dataclasses.fields(EpisodeConfig)


def _parsers(fields, prefix: str = "") -> dict[str, object]:
    return {prefix + _key(f): _PARSERS[f.type.removesuffix(" | None")] for f in fields}


_SCHEMA: dict[str, dict[str, object]] = {
    **{section: _parsers(fields) for section, fields in _RUN_FIELDS.items()},
    "physics": {**_parsers(_PHYSICS_FIELDS), **_parsers(_CONTACT_FIELDS, _CONTACT_PREFIX)},
    "observation": _parsers(_OBSERVATION_FIELDS),
    "episode": _parsers(_EPISODE_FIELDS),
}

# checks that no dataclass makes on construction, made here to name the line
_CHECKS = {
    ("run", "mode"): (lambda v: v in MODES, f"mode must be one of {MODES}"),
    ("run", "paradigm"): (lambda v: v in KINDS, f"paradigm must be one of {KINDS}"),
    ("run", "seed"): (lambda v: v >= 0, "seed must be >= 0"),
    ("run", "out"): (lambda v: v != "", "out must not be empty"),
    ("run", "generations"): (lambda v: v >= 1, "generations must be >= 1"),
    ("run", "workers"): (lambda v: v >= 1, "workers must be >= 1"),
    ("evolution", "mu"): (lambda v: 1 <= v <= MAX_POPULATION, "mu must be >= 1 and at most "
                          f"{MAX_POPULATION}, the most a population checkpoint holds"),
    ("evolution", "lambda"): (lambda v: v >= 1, "lambda must be >= 1"),
    ("evolution", "p_body_mutation"): (lambda v: 0.0 <= v <= 1.0,
                                       "p_body_mutation must be in [0, 1]"),
    ("evolution", "controller_sigma"): (lambda v: 0.0 <= v < math.inf,
                                        "controller_sigma must be >= 0 and finite"),
    ("evolution", "checkpoint_every"): (lambda v: v >= 0, "checkpoint_every must be >= 0"),
    ("experiment", "distances"): (lambda v: len(v) > 0 and all(d >= 1 for d in v),
                                  "distances must be >= 1 and non-empty"),
    ("experiment", "samples_per_distance"): (lambda v: v >= 1,
                                             "samples_per_distance must be >= 1"),
    ("experiment", "one_shot_lambda"): (lambda v: v >= 0, "one_shot_lambda must be >= 0"),
    ("experiment", "n_runs"): (lambda v: v >= 1, "n_runs must be >= 1"),
    ("experiment", "catalog_file"): (lambda v: v != "", "catalog_file must not be empty"),
    ("experiment", "catalog_bodies"): (lambda v: len(v) > 0,
                                       "catalog_bodies must not be empty"),
}


def _read(text: str, path: str) -> tuple[dict[str, dict[str, object]],
                                          dict[str, dict[str, int]]]:
    """Typed values and their line numbers, by section and key."""
    values: dict[str, dict[str, object]] = {}
    lines: dict[str, dict[str, int]] = {}
    current: str | None = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(f"unknown section [{name}]", path, line_no)
            current = name
            values.setdefault(name, {})
            lines.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value' or '[section]'", path, line_no)
        if current is None:
            raise ConfigError("key outside any section", path, line_no)
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _SCHEMA[current]:
            raise ConfigError(f"unknown key {key!r} in section [{current}]", path, line_no)
        if key in values[current]:
            raise ConfigError(f"duplicate key {key!r}", path, line_no)
        try:
            value = _SCHEMA[current][key](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", path, line_no) from exc
        check = _CHECKS.get((current, key))
        if check is not None and not check[0](value):
            raise ConfigError(f"{check[1]}, got {value!r}", path, line_no)
        values[current][key] = value
        lines[current][key] = line_no
    return values, lines


def parse_config(text: str, path: str = "<config>") -> RunConfig:
    """Build a RunConfig from the keys present in `text`; every other field
    keeps the default its dataclass declares."""
    return _parse(text, path)[0]


def _parse(text: str, path: str) -> tuple[RunConfig, dict[str, dict[str, int]]]:
    """The RunConfig and the line number of each key present."""
    values, lines = _read(text, path)
    # the catalog keys name the bodies of a multi-body run and nothing else
    if values.get("run", {}).get("mode", MODES[0]) != "multi-body":
        for key in values.get("experiment", {}):
            if key in ("catalog_file", "catalog_bodies"):
                raise ConfigError(f"{key} applies only to mode = multi-body", path,
                                  lines["experiment"][key])

    def given(present: dict[str, object], fields, prefix: str = "") -> dict[str, object]:
        return {f.name: present[prefix + _key(f)] for f in fields
                if prefix + _key(f) in present}

    def build(section: str, cls, fields, prefix: str = "", **extra):
        present = values.get(section, {})
        try:
            return cls(**given(present, fields, prefix), **extra)
        except ValueError as exc:
            # blame the first key, in file order, whose addition makes the
            # section fail; `present` keeps the file order
            keys = list(present)
            for n, key in enumerate(keys, start=1):
                try:
                    cls(**given({k: present[k] for k in keys[:n]}, fields, prefix), **extra)
                except ValueError:
                    break
            raise ConfigError(f"invalid [{section}] settings: {exc}", path,
                              lines[section][key]) from exc

    contact = build("physics", ContactParams, _CONTACT_FIELDS, _CONTACT_PREFIX)
    run_values = {}
    for section, fields in _RUN_FIELDS.items():
        run_values.update(given(values.get(section, {}), fields))
    cfg = RunConfig(
        physics=build("physics", PhysicsConfig, _PHYSICS_FIELDS, contact=contact),
        observation=build("observation", ObservationConfig, _OBSERVATION_FIELDS),
        episode=build("episode", EpisodeConfig, _EPISODE_FIELDS),
        **run_values,
    )
    return cfg, lines


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}", path) from exc
    cfg, lines = _parse(text, path)
    # dry-run the evolution config so semantic errors surface before any output;
    # catalog errors point at their key, else at the catalog file's line
    experiment = lines.get("experiment", {})
    try:
        cfg.evolution_config(workers=1)
    except ConfigError as exc:
        line = experiment.get(exc.key, experiment.get("catalog_file"))
        raise ConfigError(exc.message, path, line) from exc
    except CatalogError as exc:
        raise ConfigError(str(exc), path, experiment.get("catalog_file")) from exc
    except ValueError as exc:
        raise ConfigError(str(exc), path) from exc
    return cfg


def override(cfg: RunConfig, seed: int | None = None, workers: int | None = None,
             out: str | None = None) -> RunConfig:
    updates = {}
    if seed is not None:
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}", "--seed")
        updates["seed"] = seed
    if workers is not None:
        updates["workers"] = workers
    if out is not None:
        if out == "":
            raise ConfigError("out must not be empty, got ''", "--out")
        updates["out"] = out
    return dataclasses.replace(cfg, **updates) if updates else cfg
