"""Versioned binary checkpoints for individuals and populations.

Layout (all integers and floats little-endian):

    magic "VXCK" | version u16 | payload kind u8

Payload kind 1 is a single individual, kind 2 a population (count u16, then
that many individual records). Each individual record:

    id i64 | parent_id i64 (-1 = none) | age u32 | mutation kind u8 |
    fitness f64 (NaN = unevaluated) | parent fitness f64 (NaN = none) |
    morphology: 25 material digits (bytes, row-major) |
    controller kind u8 | parameter count u32 | parameters f64[count]

Neither id may be negative, neither fitness infinite, and the body must be a
valid robot: saving checks every individual before anything is written, so a
refused one leaves no file and no `.partial`, and loading refuses any other
record.

Controller parameters are `ControllerGenome.to_flat`'s layout: W1 row-major,
b1, W2 row-major, b2. The hidden width is always `control.HIDDEN_UNITS` and
the output count follows from the controller kind, so neither is stored, nor
is the input size: `control.genome_from_flat`, the one reader of the layout,
infers it from the parameter count.

Every file a command writes, checkpoint or not, goes through `atomic_open`:
it is written to a `.partial` sibling and renamed into place, so a finished
file is never half-written. A writer holds one record or one line of its
file at a time: a population is written record by record, never packed
whole. A reader does the same: `_load` reads each record's pieces straight
from the open file, and refuses a piece longer than the bytes left before
it reads, so a corrupt count cannot make it allocate.
"""

from __future__ import annotations

from contextlib import contextmanager
import math
import os
import struct

import numpy as np

from .control import genome_from_flat
from .evolution import KIND_BODY, KIND_BRAIN, KIND_FRESH, Individual
from .morphology import GRID_SIZE, Morphology, validate
from .sensing import GLOBAL_KIND, MODULAR_KIND

MAGIC = b"VXCK"
VERSION = 1
PAYLOAD_INDIVIDUAL = 1
PAYLOAD_POPULATION = 2

_HEADER = struct.Struct("<4sHB")
_RECORD_FIXED = struct.Struct("<qqIBdd")
_COUNT = struct.Struct("<H")  # records up to evolution.MAX_POPULATION individuals
_CTRL_HEAD = struct.Struct("<BI")

_KIND_CODES = {KIND_FRESH: 0, KIND_BODY: 1, KIND_BRAIN: 2}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}
_CTRL_CODES = {GLOBAL_KIND: 0, MODULAR_KIND: 1}
_CTRL_NAMES = {v: k for k, v in _CTRL_CODES.items()}


class CheckpointIntegrityError(RuntimeError):
    pass


def _check_individual(ind: Individual) -> None:
    """Refuse what loading would refuse: a negative id or parent id (-1
    encodes "none"), an infinite fitness, or a body that is not a valid
    robot."""
    for name, value in (("id", ind.id), ("parent id", ind.parent_id)):
        if value is not None and value < 0:
            raise ValueError(f"individual {ind.id}: negative {name} {value} "
                             f"cannot be checkpointed")
    for value in (ind.fitness, ind.parent_fitness_at_birth):
        if value is not None and math.isinf(value):
            raise ValueError(f"individual {ind.id}: infinite fitness cannot be checkpointed")
    if not validate(ind.morphology):
        raise ValueError(f"individual {ind.id}: the body is not a valid robot")


def _write_individual(fh, ind: Individual) -> None:
    """Write the record of `ind`, which `_check_individual` has passed."""
    fitness = math.nan if ind.fitness is None else float(ind.fitness)
    parent_fitness = (math.nan if ind.parent_fitness_at_birth is None
                      else float(ind.parent_fitness_at_birth))
    parent_id = -1 if ind.parent_id is None else int(ind.parent_id)
    fh.write(_RECORD_FIXED.pack(int(ind.id), parent_id, int(ind.age),
                                _KIND_CODES[ind.mutation_kind], fitness, parent_fitness))
    fh.write(ind.morphology.to_text().replace("\n", "").encode("ascii"))
    flat = ind.controller.to_flat()
    fh.write(_CTRL_HEAD.pack(_CTRL_CODES[ind.controller.kind], flat.size))
    fh.write(np.ascontiguousarray(flat, dtype="<f8"))  # its buffer, not a bytes copy


def _read(fh, n: int, path: str) -> bytes:
    """The next `n` bytes of `fh`, refused as truncated when fewer are left:
    checked before the read, which would allocate all `n` bytes first."""
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise CheckpointIntegrityError(f"{path}: truncated checkpoint")
    return fh.read(n)


def _unpack_individual(fh, path: str) -> Individual:
    (ind_id, parent_id, age, kind_code, fitness,
     parent_fitness) = _RECORD_FIXED.unpack(_read(fh, _RECORD_FIXED.size, path))
    if kind_code not in _KIND_NAMES:
        raise CheckpointIntegrityError(f"{path}: unknown mutation kind {kind_code}")
    if math.isinf(fitness) or math.isinf(parent_fitness):  # NaN encodes "none"
        raise CheckpointIntegrityError(f"{path}: infinite fitness")
    if ind_id < 0:
        raise CheckpointIntegrityError(f"{path}: negative id {ind_id}")
    if parent_id < -1:  # -1 encodes "none"
        raise CheckpointIntegrityError(f"{path}: negative parent id {parent_id}")
    digits = _read(fh, GRID_SIZE * GRID_SIZE, path).decode("ascii", errors="replace")
    rows = [digits[i * GRID_SIZE:(i + 1) * GRID_SIZE] for i in range(GRID_SIZE)]
    try:
        morph = Morphology.from_text("\n".join(rows))
    except ValueError as exc:
        raise CheckpointIntegrityError(f"{path}: bad morphology: {exc}") from exc
    if not validate(morph):
        raise CheckpointIntegrityError(f"{path}: the body is not a valid robot")
    ctrl_code, count = _CTRL_HEAD.unpack(_read(fh, _CTRL_HEAD.size, path))
    if ctrl_code not in _CTRL_NAMES:
        raise CheckpointIntegrityError(f"{path}: unknown controller kind {ctrl_code}")
    flat = np.frombuffer(_read(fh, count * 8, path), dtype="<f8")
    try:
        controller = genome_from_flat(_CTRL_NAMES[ctrl_code], flat)
    except ValueError as exc:
        raise CheckpointIntegrityError(f"{path}: {exc}") from exc
    return Individual(
        morphology=morph,
        controller=controller,
        age=int(age),
        id=int(ind_id),
        parent_id=None if parent_id == -1 else int(parent_id),
        mutation_kind=_KIND_NAMES[kind_code],
        parent_fitness_at_birth=None if math.isnan(parent_fitness) else parent_fitness,
        fitness=None if math.isnan(fitness) else fitness,
    )


@contextmanager
def atomic_open(path: str, binary: bool = False):
    """A file open on `path`'s `.partial` sibling (text: UTF-8, newlines
    untranslated), renamed onto `path` only when the block exits cleanly; an
    error leaves the `.partial` behind as the marker of an unfinished write."""
    partial = f"{path}.partial"
    with (open(partial, "wb") if binary
          else open(partial, "w", encoding="utf-8", newline="")) as fh:
        yield fh
    os.replace(partial, path)


def _save(path: str, head: bytes, individuals: list[Individual]) -> None:
    """Check every individual, then write `head` and their records one at a
    time: a refused individual leaves no file and no `.partial`."""
    for ind in individuals:
        _check_individual(ind)
    with atomic_open(path, binary=True) as fh:
        fh.write(head)
        for ind in individuals:
            _write_individual(fh, ind)


def save_individual(path: str, ind: Individual) -> None:
    _save(path, _HEADER.pack(MAGIC, VERSION, PAYLOAD_INDIVIDUAL), [ind])


def save_population(path: str, population: list[Individual]) -> None:
    _save(path, _HEADER.pack(MAGIC, VERSION, PAYLOAD_POPULATION)
          + _COUNT.pack(len(population)), population)


def _load(path: str, payload: int) -> list[Individual]:
    """The individuals of the checkpoint at `path`, whose payload kind must
    be `payload`, read from the open file one record at a time."""
    try:
        with open(path, "rb") as fh:
            magic, version, found = _HEADER.unpack(_read(fh, _HEADER.size, path))
            if magic != MAGIC:
                raise CheckpointIntegrityError(f"{path}: not a checkpoint file")
            if version != VERSION:
                raise CheckpointIntegrityError(
                    f"{path}: unsupported checkpoint version {version}")
            if found != payload:
                raise CheckpointIntegrityError(
                    f"{path}: expected payload kind {payload}, found {found}")
            count, records = 1, "record"
            if payload == PAYLOAD_POPULATION:
                (count,), records = _COUNT.unpack(_read(fh, _COUNT.size, path)), "records"
            individuals = [_unpack_individual(fh, path) for _ in range(count)]
            if fh.read(1):
                raise CheckpointIntegrityError(f"{path}: trailing bytes after {records}")
    except OSError as exc:
        raise CheckpointIntegrityError(f"{path}: cannot read checkpoint: {exc}") from exc
    return individuals


def load_individual(path: str) -> Individual:
    return _load(path, PAYLOAD_INDIVIDUAL)[0]


def load_population(path: str) -> list[Individual]:
    return _load(path, PAYLOAD_POPULATION)
