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
`EpisodeConfig`. Every default lives in its dataclass, so the empty file is
a valid configuration.

The parser rejects unknown names, duplicate keys and malformed values at
their line. Every bound on a value is checked once, in the `__post_init__`
of the dataclass that declares the field: `RunConfig` checks its own run and
experiment fields and builds an `EvolutionConfig` from the fields that
class declares too (seed, workers, paradigm, generations and the
[evolution] keys). So a config built in code is rejected as a file is, with
the same message. The parser only names the line: it blames the first key,
in file order, whose addition makes the construction fail. `override` names
the flag. The one check of the file itself comes last: the catalog keys
apply only to `mode = multi-body`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

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

    def __post_init__(self):
        for name, ok, rule in (
            ("out", self.out != "", "must not be empty"),
            ("mode", self.mode in MODES, f"must be one of {MODES}"),
            ("n_runs", self.n_runs >= 1, "must be >= 1"),
            ("distances", len(self.distances) > 0 and all(d >= 1 for d in self.distances),
             "must be >= 1 and non-empty"),
            ("samples_per_distance", self.samples_per_distance >= 1, "must be >= 1"),
            ("one_shot_lambda", self.one_shot_lambda >= 0, "must be >= 0"),
            ("catalog_file", self.catalog_file != "", "must not be empty"),
            ("catalog_bodies", len(self.catalog_bodies) > 0, "must not be empty"),
        ):
            if not ok:
                raise ValueError(f"{name} {rule}, got {getattr(self, name)!r}")
        # the fields EvolutionConfig declares too are checked there
        self._evolution(None, 1 if self.workers is None else self.workers, self.seed)

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
        return self._evolution(bodies, workers, self.seed if seed is None else seed)

    def _evolution(self, catalog: tuple[Morphology, ...] | None, workers: int,
                   seed: int) -> EvolutionConfig:
        return EvolutionConfig(
            controller_kind=self.paradigm,
            mu=self.mu,
            lambda_=self.lambda_,
            generations=self.generations,
            p_body_mutation=self.p_body_mutation,
            controller_sigma=self.controller_sigma,
            catalog=catalog,
            master_seed=seed,
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


def parse_config(text: str, path: str = "<config>") -> RunConfig:
    """Build a RunConfig from the keys present in `text`; every other field
    keeps the default its dataclass declares."""
    return _parse(text, path)[0]


def _parse(text: str, path: str) -> tuple[RunConfig, dict[str, dict[str, tuple[int, object]]]]:
    """The RunConfig and each key's line number and value."""
    entries = _read(text, path)

    def given(section: str, fields, prefix: str = "") -> dict[int, tuple[str, object]]:
        """The field name and value of each key present, by line."""
        present = entries.get(section, {})
        return {present[k][0]: (f.name, present[k][1]) for f in fields
                if (k := prefix + _key(f)) in present}

    def build(cls, keys: dict[int, tuple[str, object]], section: str | None = None,
              **extra):
        """`cls` from the keys given; RunConfig's messages name the key, the
        other dataclasses' are prefixed with their section."""
        try:
            return cls(**dict(keys.values()), **extra)
        except ValueError:
            # blame the first key, in file order, whose addition makes the
            # construction fail
            lines = sorted(keys)
            for n, line in enumerate(lines, start=1):
                try:
                    cls(**dict(keys[k] for k in lines[:n]), **extra)
                except ValueError as exc:
                    where = f"invalid [{section}] settings: " if section else ""
                    raise ConfigError(f"{where}{exc}", path, line) from exc
            raise

    contact = build(ContactParams, given("physics", _CONTACT_FIELDS, _CONTACT_PREFIX),
                    "physics")
    run_keys: dict[int, tuple[str, object]] = {}
    for section, fields in _RUN_FIELDS.items():
        run_keys.update(given(section, fields))
    cfg = build(
        RunConfig, run_keys,
        physics=build(PhysicsConfig, given("physics", _PHYSICS_FIELDS), "physics",
                      contact=contact),
        observation=build(ObservationConfig, given("observation", _OBSERVATION_FIELDS),
                          "observation"),
        episode=build(EpisodeConfig, given("episode", _EPISODE_FIELDS), "episode"),
    )
    # the catalog keys name the bodies of a multi-body run and nothing else
    if cfg.mode != "multi-body":
        for key, (line, _) in entries.get("experiment", {}).items():
            if key in ("catalog_file", "catalog_bodies"):
                raise ConfigError(f"{key} applies only to mode = multi-body", path, line)
    return cfg, entries


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}", path) from exc
    cfg, entries = _parse(text, path)
    # dry-run the catalog so a missing body surfaces before any output;
    # catalog errors point at their key, else at the catalog file's line
    experiment = {key: line for key, (line, _) in entries.get("experiment", {}).items()}
    try:
        cfg.evolution_config(workers=1)
    except ConfigError as exc:
        line = experiment.get(exc.key, experiment.get("catalog_file"))
        raise ConfigError(exc.message, path, line) from exc
    except CatalogError as exc:
        raise ConfigError(str(exc), path, experiment.get("catalog_file")) from exc
    return cfg


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
