"""Versioned binary checkpoints for individuals and populations.

Layout (all integers and floats little-endian):

    magic "VXCK" | version u16 | payload kind u8

Payload kind 1 is a single individual, kind 2 a population (count u16, then
that many individual records). Each individual record:

    id i64 | parent_id i64 (-1 = none) | age u32 | mutation kind u8 |
    fitness f64 (NaN = unevaluated) | parent fitness f64 (NaN = none) |
    morphology: 25 material digits (bytes, row-major) |
    controller kind u8 | parameter count u32 | parameters f64[count]

Neither fitness may be infinite, and the body must be a valid robot: saving
refuses any other individual before any byte is written, and loading refuses
any other record.

Controller parameters are `ControllerGenome.to_flat`'s layout: W1 row-major,
b1, W2 row-major, b2. The hidden width is always `control.HIDDEN_UNITS` and
the output count follows from the controller kind, so neither is stored, nor
is the input size: `control.genome_from_flat`, the one reader of the layout,
infers it from the parameter count.

Every file a command writes, checkpoint or not, goes through `atomic_open`:
it is written to a `.partial` sibling and renamed into place, so a finished
file is never half-written.
"""

from __future__ import annotations

from contextlib import contextmanager
import math
import os
import struct

import numpy as np

from .control import GLOBAL_KIND, MODULAR_KIND, genome_from_flat
from .evolution import KIND_BODY, KIND_BRAIN, KIND_FRESH, Individual
from .morphology import GRID_SIZE, Morphology, validate

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


def _pack_individual(ind: Individual) -> bytes:
    fitness = math.nan if ind.fitness is None else float(ind.fitness)
    parent_fitness = (math.nan if ind.parent_fitness_at_birth is None
                      else float(ind.parent_fitness_at_birth))
    if math.isinf(fitness) or math.isinf(parent_fitness):  # refused on load as well
        raise ValueError(f"individual {ind.id}: infinite fitness cannot be checkpointed")
    if not validate(ind.morphology):  # refused on load as well
        raise ValueError(f"individual {ind.id}: the body is not a valid robot")
    parent_id = -1 if ind.parent_id is None else int(ind.parent_id)
    chunks = [
        _RECORD_FIXED.pack(int(ind.id), parent_id, int(ind.age),
                           _KIND_CODES[ind.mutation_kind], fitness, parent_fitness),
        ind.morphology.to_text().replace("\n", "").encode("ascii"),
    ]
    flat = ind.controller.to_flat()
    chunks.append(_CTRL_HEAD.pack(_CTRL_CODES[ind.controller.kind], flat.size))
    chunks.append(np.ascontiguousarray(flat, dtype="<f8").tobytes())
    return b"".join(chunks)


class _Reader:
    def __init__(self, blob: bytes, path: str):
        self.blob = blob
        self.path = path
        self.offset = 0

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.blob):
            raise CheckpointIntegrityError(f"{self.path}: truncated checkpoint")
        out = self.blob[self.offset:self.offset + n]
        self.offset += n
        return out

    def done(self) -> bool:
        return self.offset == len(self.blob)


def _unpack_individual(reader: _Reader) -> Individual:
    (ind_id, parent_id, age, kind_code, fitness,
     parent_fitness) = _RECORD_FIXED.unpack(reader.take(_RECORD_FIXED.size))
    if kind_code not in _KIND_NAMES:
        raise CheckpointIntegrityError(
            f"{reader.path}: unknown mutation kind {kind_code}")
    if math.isinf(fitness) or math.isinf(parent_fitness):  # NaN encodes "none"
        raise CheckpointIntegrityError(f"{reader.path}: infinite fitness")
    digits = reader.take(GRID_SIZE * GRID_SIZE).decode("ascii", errors="replace")
    rows = [digits[i * GRID_SIZE:(i + 1) * GRID_SIZE] for i in range(GRID_SIZE)]
    try:
        morph = Morphology.from_text("\n".join(rows))
    except ValueError as exc:
        raise CheckpointIntegrityError(f"{reader.path}: bad morphology: {exc}") from exc
    if not validate(morph):
        raise CheckpointIntegrityError(f"{reader.path}: the body is not a valid robot")
    ctrl_code, count = _CTRL_HEAD.unpack(reader.take(_CTRL_HEAD.size))
    if ctrl_code not in _CTRL_NAMES:
        raise CheckpointIntegrityError(
            f"{reader.path}: unknown controller kind {ctrl_code}")
    flat = np.frombuffer(reader.take(count * 8), dtype="<f8")
    try:
        controller = genome_from_flat(_CTRL_NAMES[ctrl_code], flat)
    except ValueError as exc:
        raise CheckpointIntegrityError(f"{reader.path}: {exc}") from exc
    return Individual(
        morphology=morph,
        controller=controller,
        age=int(age),
        id=int(ind_id),
        parent_id=None if parent_id < 0 else int(parent_id),
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


def atomic_write_bytes(path: str, blob: bytes) -> None:
    with atomic_open(path, binary=True) as fh:
        fh.write(blob)


def save_individual(path: str, ind: Individual) -> None:
    blob = _HEADER.pack(MAGIC, VERSION, PAYLOAD_INDIVIDUAL) + _pack_individual(ind)
    atomic_write_bytes(path, blob)


def save_population(path: str, population: list[Individual]) -> None:
    blob = b"".join([
        _HEADER.pack(MAGIC, VERSION, PAYLOAD_POPULATION),
        _COUNT.pack(len(population)),
        *[_pack_individual(ind) for ind in population],
    ])
    atomic_write_bytes(path, blob)


def _open(path: str, expected_payload: int) -> _Reader:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointIntegrityError(f"{path}: cannot read checkpoint: {exc}") from exc
    reader = _Reader(blob, path)
    magic, version, payload = _HEADER.unpack(reader.take(_HEADER.size))
    if magic != MAGIC:
        raise CheckpointIntegrityError(f"{path}: not a checkpoint file")
    if version != VERSION:
        raise CheckpointIntegrityError(
            f"{path}: unsupported checkpoint version {version}")
    if payload != expected_payload:
        raise CheckpointIntegrityError(
            f"{path}: expected payload kind {expected_payload}, found {payload}")
    return reader


def load_individual(path: str) -> Individual:
    reader = _open(path, PAYLOAD_INDIVIDUAL)
    ind = _unpack_individual(reader)
    if not reader.done():
        raise CheckpointIntegrityError(f"{path}: trailing bytes after record")
    return ind


def load_population(path: str) -> list[Individual]:
    reader = _open(path, PAYLOAD_POPULATION)
    (count,) = _COUNT.unpack(reader.take(_COUNT.size))
    population = [_unpack_individual(reader) for _ in range(count)]
    if not reader.done():
        raise CheckpointIntegrityError(f"{path}: trailing bytes after records")
    return population
