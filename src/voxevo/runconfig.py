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
`EpisodeConfig`. Three keys are the file's syntax for `RunConfig.catalog`:
[run] mode, and [experiment] catalog_file and catalog_bodies, name the
bodies of a multi-body run. Every default lives in its dataclass, so the
empty file is a valid configuration.

The parser rejects unknown names, duplicate keys and malformed values at
their line. Every bound on a value is checked once, in the `__post_init__`
of the dataclass that declares the field, so a config built in code is
rejected as a file is, with the same message. The parser only names the
line: it blames the first key, in file order, whose addition makes the
construction fail; the values of the three catalog keys are checked in the
same pass. `override` names the flag. The catalog is resolved last: its keys
apply only to `mode = multi-body`, and the catalog must hold every body
they name.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from .control import KINDS
from .evolution import MAX_POPULATION
from .experiments import CATALOG_ORDER, CatalogError, default_catalog, load_catalog
from .morphology import Morphology
from .physics import ContactParams, PhysicsConfig
from .sensing import ObservationConfig
from .walker import EpisodeConfig


class ConfigError(Exception):
    """A config problem, located by its file or flag and, in a file, its line."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        self.message = message
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
    seed: int = _in("run", 0)
    out: str | None = _in("run", None)
    workers: int | None = _in("run", None)  # None: every CPU the process may run on
    paradigm: str = _in("run", "modular")
    generations: int = _in("run", 100)
    mu: int = _in("evolution", 16)
    lambda_: int = _in("evolution", 16)
    p_body_mutation: float = _in("evolution", 0.5)
    controller_sigma: float = _in("evolution", 0.1)
    checkpoint_every: int = _in("evolution", 0)  # 0 disables periodic checkpoints
    physics: PhysicsConfig = field(default_factory=PhysicsConfig)
    observation: ObservationConfig = field(default_factory=ObservationConfig)
    episode: EpisodeConfig = field(default_factory=EpisodeConfig)
    n_runs: int = _in("experiment", 1)
    distances: tuple[int, ...] = _in("experiment", (1, 2, 3))
    samples_per_distance: int = _in("experiment", 20)
    one_shot_lambda: int = _in("experiment", 16)
    # the bodies every individual is scored on, when only the brain evolves;
    # None co-evolves body and brain
    catalog: tuple[Morphology, ...] | None = None

    def __post_init__(self):
        for name, ok, rule in (
            ("seed", self.seed >= 0, "must be >= 0"),
            ("out", self.out != "", "must not be empty"),
            ("workers", self.workers is None or self.workers >= 1, "must be >= 1"),
            ("paradigm", self.paradigm in KINDS, f"must be one of {KINDS}"),
            ("generations", self.generations >= 1, "must be >= 1"),
            ("mu", 1 <= self.mu <= MAX_POPULATION, f"must be >= 1 and at most "
             f"{MAX_POPULATION}, the most a population checkpoint holds"),
            ("lambda_", self.lambda_ >= 1, "must be >= 1"),
            ("p_body_mutation", 0.0 <= self.p_body_mutation <= 1.0, "must be in [0, 1]"),
            ("controller_sigma", 0.0 <= self.controller_sigma < math.inf,
             "must be >= 0 and finite"),
            ("checkpoint_every", self.checkpoint_every >= 0, "must be >= 0"),
            ("n_runs", self.n_runs >= 1, "must be >= 1"),
            ("distances", len(self.distances) > 0 and all(d >= 1 for d in self.distances),
             "must be >= 1 and non-empty"),
            ("samples_per_distance", self.samples_per_distance >= 1, "must be >= 1"),
            ("one_shot_lambda", self.one_shot_lambda >= 0, "must be >= 0"),
            ("catalog", self.catalog is None or len(self.catalog) > 0,
             "must be None or non-empty"),
        ):
            if not ok:
                raise ValueError(f"{name.rstrip('_')} {rule}, got {getattr(self, name)!r}")

    @property
    def brain_only(self) -> bool:
        return self.catalog is not None

    def evolution_config(self, workers: int, seed: int | None = None) -> RunConfig:
        """This config with `workers` and `seed` set; kept only because
        perfbench/child.py calls it."""
        return dataclasses.replace(self, workers=workers,
                                   seed=self.seed if seed is None else seed)


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


# the keys that name RunConfig.catalog, by section, with their parsers
_CATALOG_KEYS = {"run": {"mode": str},
                 "experiment": {"catalog_file": str, "catalog_bodies": _parse_str_list}}

_SCHEMA: dict[str, dict[str, object]] = {
    **{section: _parsers(fields) | _CATALOG_KEYS.get(section, {})
       for section, fields in _RUN_FIELDS.items()},
    "physics": {**_parsers(_PHYSICS_FIELDS), **_parsers(_CONTACT_FIELDS, _CONTACT_PREFIX)},
    "observation": _parsers(_OBSERVATION_FIELDS),
    "episode": _parsers(_EPISODE_FIELDS),
}


def _read(text: str, path: str) -> dict[str, dict[str, tuple[int, object]]]:
    """Each key's line number and typed value, by section, in file order."""
    entries: dict[str, dict[str, tuple[int, object]]] = {}
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
            entries.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value' or '[section]'", path, line_no)
        if current is None:
            raise ConfigError("key outside any section", path, line_no)
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _SCHEMA[current]:
            raise ConfigError(f"unknown key {key!r} in section [{current}]", path, line_no)
        if key in entries[current]:
            raise ConfigError(f"duplicate key {key!r}", path, line_no)
        try:
            entries[current][key] = (line_no, _SCHEMA[current][key](raw))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", path, line_no) from exc
    return entries


def _run_config(mode: str = MODES[0], catalog_file: str | None = None,
                catalog_bodies: tuple[str, ...] | None = None, **fields) -> RunConfig:
    """A RunConfig from its fields' keys, once the values of the catalog keys
    pass checks of their own; the catalog is resolved from the whole file."""
    for key, value, ok, rule in (
        ("mode", mode, mode in MODES, f"must be one of {MODES}"),
        ("catalog_file", catalog_file, catalog_file != "", "must not be empty"),
        ("catalog_bodies", catalog_bodies, catalog_bodies != (), "must not be empty"),
    ):
        if not ok:
            raise ValueError(f"{key} {rule}, got {value!r}")
    return RunConfig(**fields)


def _catalog(given: dict[int, tuple[str, object]], path: str) -> tuple[Morphology, ...] | None:
    """The bodies that the catalog keys given (each key and value, by line)
    name, or None without `mode = multi-body`."""
    keys = {key: (line, value) for line, (key, value) in sorted(given.items())}
    if keys.get("mode", (None, None))[1] != "multi-body":
        for key, (line, _) in keys.items():
            if key != "mode":
                raise ConfigError(f"{key} applies only to mode = multi-body", path, line)
        return None
    file_line, file = keys.get("catalog_file", (None, None))
    try:
        catalog = default_catalog() if file is None else load_catalog(file)
    except CatalogError as exc:
        raise ConfigError(str(exc), path, file_line) from exc
    line, names = keys.get("catalog_bodies", (file_line, CATALOG_ORDER))
    missing = [name for name in names if name not in catalog]
    if missing:
        raise ConfigError(f"catalog_bodies not in catalog: {missing}", path, line)
    return tuple(catalog[name] for name in names)


def parse_config(text: str, path: str = "<config>") -> RunConfig:
    """Build a RunConfig from the keys present in `text`; every other field
    keeps the default its dataclass declares."""
    entries = _read(text, path)

    def given(section: str, fields, prefix: str = "") -> dict[int, tuple[str, object]]:
        """The field name and value of each key present, by line."""
        present = entries.get(section, {})
        return {present[k][0]: (f.name, present[k][1]) for f in fields
                if (k := prefix + _key(f)) in present}

    def build(make, keys: dict[int, tuple[str, object]], section: str | None = None,
              **extra):
        """`make` from the keys given; RunConfig's messages name the key, the
        other dataclasses' are prefixed with their section."""
        try:
            return make(**dict(keys.values()), **extra)
        except ValueError:
            # blame the first key, in file order, whose addition makes the
            # construction fail
            lines = sorted(keys)
            for n, line in enumerate(lines, start=1):
                try:
                    make(**dict(keys[k] for k in lines[:n]), **extra)
                except ValueError as exc:
                    where = f"invalid [{section}] settings: " if section else ""
                    raise ConfigError(f"{where}{exc}", path, line) from exc
            raise

    contact = build(ContactParams, given("physics", _CONTACT_FIELDS, _CONTACT_PREFIX),
                    "physics")
    # the catalog keys are checked with the fields and resolved after them
    catalog_keys = {line: (key, value) for section, keys in _CATALOG_KEYS.items()
                    for key, (line, value) in entries.get(section, {}).items() if key in keys}
    run_keys = dict(catalog_keys)
    for section, fields in _RUN_FIELDS.items():
        run_keys.update(given(section, fields))
    cfg = build(
        _run_config, run_keys,
        physics=build(PhysicsConfig, given("physics", _PHYSICS_FIELDS), "physics",
                      contact=contact),
        observation=build(ObservationConfig, given("observation", _OBSERVATION_FIELDS),
                          "observation"),
        episode=build(EpisodeConfig, given("episode", _EPISODE_FIELDS), "episode"),
    )
    catalog = _catalog(catalog_keys, path)
    return cfg if catalog is None else dataclasses.replace(cfg, catalog=catalog)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}", path) from exc
    return parse_config(text, path)


def override(cfg: RunConfig, seed: int | None = None, workers: int | None = None,
             out: str | None = None) -> RunConfig:
    """`cfg` with each given command-line flag written into its field."""
    for flag, name, value in (("--seed", "seed", seed), ("--workers", "workers", workers),
                              ("--out", "out", out)):
        if value is not None:
            try:
                cfg = dataclasses.replace(cfg, **{name: value})
            except ValueError as exc:
                raise ConfigError(str(exc), flag) from exc
    return cfg
