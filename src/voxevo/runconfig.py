"""Run configuration files, and the catalog files they name.

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
section, and [physics], [observation] and [episode] each from one dataclass,
`PhysicsConfig`, `ObservationConfig` and `EpisodeConfig`, whose field names
are the section's keys. [run] mode, and [experiment] catalog_file and
catalog_bodies, name the bodies of a multi-body run, `RunConfig.catalog`.
Every default lives in its dataclass, so the empty file is a valid
configuration. A catalog file holds `[name]` headers, each over five rows of
five material digits. Either kind of file may begin with a UTF-8 BOM.

A config is refused with a `ConfigError` at its file:line, at the first
failure of: (1) syntax and types; (2) each of [physics], [observation] and
[episode]; (3) the `RunConfig` fields; (4) each catalog key's value, then
the mode each applies to (catalog_file and catalog_bodies only to
multi-body, [evolution] p_body_mutation only to co-optimize); (5) the
catalog file, which must load and hold every body named. Every bound on a
field is checked once, in the `__post_init__` of the dataclass that
declares it (a bound across sections in `RunConfig`), so a config built in
code is refused as a file is, with the same message; in (2) and (3) the
parser only blames the first key, in file order, whose addition makes the
construction fail. `override` names the flag. The rules of (4) live here:
a `RunConfig` built in code cannot tell a value given from its default.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import partial

from .evolution import MAX_POPULATION
from .experiments import CATALOG_ORDER, default_catalog
from .morphology import GRID_SIZE, Morphology, validate
from .physics import PhysicsConfig, check_fields
from .sensing import KINDS, ObservationConfig
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


def _parse_list(raw: str, item=str) -> tuple:
    """A comma-separated list, each part stripped and parsed by `item`."""
    if not raw.strip():
        return ()
    return tuple(item(part.strip()) for part in raw.split(","))


# value parser by annotation (all config modules use postponed annotations)
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "tuple[int, ...]": partial(_parse_list, item=int),
    "tuple[str, ...]": _parse_list,
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
        check_fields(self, (
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
            # a repeated distance was sampled twice
            ("distances", 0 < len(self.distances) == len(set(self.distances))
             and all(d >= 1 for d in self.distances), "must be >= 1, non-empty and distinct"),
            ("samples_per_distance", self.samples_per_distance >= 1, "must be >= 1"),
            ("one_shot_lambda", self.one_shot_lambda >= 0, "must be >= 0"),
            # a repeated body was scored twice
            ("catalog", self.catalog is None or 0 < len(self.catalog) == len(set(self.catalog)),
             "must be None or non-empty and distinct"),
        ))
        # a generation logs the mean fitness of its mu survivors, and all of
        # them may have diverged: their sum must be a finite float, or the
        # run logs an inf (with an overflow warning) that report refuses
        floor = self.episode.divergence_floor
        if not math.isfinite(self.mu * floor):
            raise ValueError(f"divergence_floor times mu = {self.mu} must be finite, "
                             f"got {floor!r}")

    @property
    def brain_only(self) -> bool:
        return self.catalog is not None

    def evolution_config(self, workers: int) -> RunConfig:
        """This config with `workers` set; kept only because perfbench/child.py
        calls it."""
        return dataclasses.replace(self, workers=workers)


def _key(f: dataclasses.Field) -> str:
    return f.name.rstrip("_")  # the field lambda_ is the key `lambda`


# The sections that are each one dataclass, the keys their field names
_SECTIONS = {"physics": PhysicsConfig, "observation": ObservationConfig,
             "episode": EpisodeConfig}
_RUN_SECTIONS = ("run", "evolution", "experiment")
# Configurable fields by file section: RunConfig's by their section tag, then
# each section dataclass's
_FIELDS = {
    **{section: [f for f in dataclasses.fields(RunConfig)
                 if f.metadata.get("section") == section] for section in _RUN_SECTIONS},
    **{section: dataclasses.fields(make) for section, make in _SECTIONS.items()},
}

# The keys that name RunConfig.catalog or apply to one mode only, each
# declared once: (section, parser, the rule on its value as `(ok, rule)`, the
# one mode it applies to or None). p_body_mutation's parser and rule are its
# RunConfig field's; a multi-body run mutates no body.
_MODE_KEYS = {
    "mode": ("run", str, (lambda mode: mode in MODES, f"must be one of {MODES}"), None),
    "catalog_file": ("experiment", str, (lambda file: file != "", "must not be empty"),
                     "multi-body"),
    "catalog_bodies": ("experiment", _parse_list,
                       (lambda names: names != (), "must not be empty"), "multi-body"),
    "p_body_mutation": ("evolution", None, None, "co-optimize"),
}

_SCHEMA: dict[str, dict[str, object]] = {
    section: {_key(f): _PARSERS[f.type.removesuffix(" | None")] for f in fields}
    | {key: parse for key, (where, parse, *_) in _MODE_KEYS.items()
       if where == section and parse}
    for section, fields in _FIELDS.items()
}


def _lines(text: str):
    """(line number, the name of a `[name]` header or None, the stripped
    line) for each line that is neither blank nor a `#` comment."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            header = line.startswith("[") and line.endswith("]")
            yield line_no, line[1:-1].strip() if header else None, line


def _text(path: str, what: str) -> str:
    """The file at `path`, without a UTF-8 byte-order mark if it has one."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what}: {exc}", path) from exc


def _read(text: str, path: str) -> dict[str, dict[str, tuple[int, object]]]:
    """Each key's line number and typed value, by section, in file order."""
    entries: dict[str, dict[str, tuple[int, object]]] = {}
    current: str | None = None
    for line_no, name, line in _lines(text):
        if name is not None:
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


def load_catalog(path: str) -> dict[str, Morphology]:
    """The named bodies of a catalog file: each a `[name]` header followed by
    five rows of five material digits. A body's faults are refused at its
    header, and so is a body that is not a valid robot."""
    catalog: dict[str, Morphology] = {}
    name: str | None = None
    header = 0  # the line of the body being read
    rows: list[str] = []

    def finish():
        if name is None:
            return
        if len(rows) != GRID_SIZE:
            raise ConfigError(f"body {name!r} has {len(rows)} rows, expected {GRID_SIZE}",
                              path, header)
        body = Morphology.from_text("\n".join(rows))
        if not validate(body):
            raise ConfigError(f"body {name!r} is not a valid robot", path, header)
        catalog[name] = body

    for line_no, section, line in _lines(_text(path, "catalog")):
        if section is not None:
            finish()
            name, header, rows = section, line_no, []
            if not name:
                raise ConfigError("empty body name", path, line_no)
            if name in catalog:
                raise ConfigError(f"duplicate body {name!r}", path, line_no)
        elif name is None:
            raise ConfigError("grid row outside any [name] section", path, line_no)
        elif len(line) != GRID_SIZE or any(ch not in "01234" for ch in line):
            raise ConfigError(f"expected {GRID_SIZE} material digits (0-4)", path, line_no)
        else:
            rows.append(line)
    finish()
    if not catalog:
        raise ConfigError("catalog is empty", path)
    return catalog


def _catalog(entries: dict[str, dict[str, tuple[int, object]]],
             path: str) -> tuple[Morphology, ...] | None:
    """The bodies that the catalog keys of `entries` name, or None without
    `mode = multi-body`, once each key of `_MODE_KEYS` given passes the rule
    on its value and then applies to the mode."""
    given = {key: entries[section][key] for key, (section, *_) in _MODE_KEYS.items()
             if key in entries.get(section, {})}
    in_order = sorted(given, key=lambda key: given[key][0])
    for key in in_order:
        line, value = given[key]
        check = _MODE_KEYS[key][2]
        if check and not check[0](value):
            raise ConfigError(f"{key} {check[1]}, got {value!r}", path, line)
    mode = given.get("mode", (None, MODES[0]))[1]
    for key in in_order:
        only = _MODE_KEYS[key][3]
        if only not in (None, mode):
            raise ConfigError(f"{key} applies only to mode = {only}", path, given[key][0])
    if mode != "multi-body":
        return None
    file_line, file = given.get("catalog_file", (None, None))
    try:
        catalog = default_catalog() if file is None else load_catalog(file)
    except ConfigError as exc:
        raise ConfigError(str(exc), path, file_line) from exc
    line, names = given.get("catalog_bodies", (file_line, CATALOG_ORDER))
    missing = [name for name in names if name not in catalog]
    if missing:
        raise ConfigError(f"catalog_bodies not in catalog: {missing}", path, line)
    bodies = tuple(catalog[name] for name in names)
    if len(set(bodies)) < len(bodies):
        raise ConfigError(f"catalog_bodies must name distinct bodies, got {names!r}",
                          path, line)
    return bodies


def parse_config(text: str, path: str = "<config>") -> RunConfig:
    """Build a RunConfig from the keys present in `text`; every other field
    keeps the default its dataclass declares."""
    entries = _read(text, path)

    def given(section: str) -> dict[int, tuple[str, object]]:
        """The field name and value of each key of `section` present, by line."""
        present = entries.get(section, {})
        return {present[k][0]: (f.name, present[k][1]) for f in _FIELDS[section]
                if (k := _key(f)) in present}

    def build(make, keys: dict[int, tuple[str, object]], section: str | None = None,
              **parts):
        """`make` from the keys given, and from each field of `parts`, a
        section's `(dataclass, keys)`, built from its keys. RunConfig's
        messages name the key, the other dataclasses' are prefixed with
        their section."""
        def fields(lines):
            return {name: part(**dict(given[k] for k in lines if k in given))
                    for name, (part, given) in parts.items()}

        lines = sorted({*keys, *(k for _, given in parts.values() for k in given)})
        try:
            return make(**dict(keys.values()), **fields(lines))
        except ValueError:
            # blame the first key, in file order, whose addition makes the
            # construction fail; the keys of a section that hold only with
            # its later keys make no construction
            for n, line in enumerate(lines, start=1):
                try:
                    prefix = fields(lines[:n])
                except ValueError:
                    continue
                try:
                    make(**dict(keys[k] for k in lines[:n] if k in keys), **prefix)
                except ValueError as exc:
                    where = f"invalid [{section}] settings: " if section else ""
                    raise ConfigError(f"{where}{exc}", path, line) from exc
            raise

    for section, make in _SECTIONS.items():
        build(make, given(section), section)
    # RunConfig's rules may read a section's field: their blame spans its keys
    run_keys = {line: item for section in _RUN_SECTIONS for line, item in given(section).items()}
    cfg = build(RunConfig, run_keys, **{section: (make, given(section))
                                        for section, make in _SECTIONS.items()})
    catalog = _catalog(entries, path)
    return cfg if catalog is None else dataclasses.replace(cfg, catalog=catalog)


def load_config(path: str) -> RunConfig:
    return parse_config(_text(path, "config"), path)


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
