import math
import os
import pathlib
import struct

import numpy as np
import pytest

from voxevo.checkpoints import (
    _COUNT,
    MAGIC,
    CheckpointIntegrityError,
    atomic_write_bytes,
    load_individual,
    load_population,
    save_individual,
    save_population,
)
from voxevo.control import GLOBAL_KIND, MODULAR_KIND, init_controller
from voxevo.evolution import KIND_BODY, KIND_FRESH, MAX_POPULATION, Individual
from voxevo.morphology import random_morphology

from helpers import INVALID_BODIES, patch_checkpoint_body, patch_checkpoint_fitness

INFINITE_FITNESSES = [(math.inf, 0.5), (-math.inf, 0.5), (1.25, math.inf), (1.25, -math.inf)]


def make_individual(ident=3, kind=KIND_BODY, controller_kind=MODULAR_KIND,
                    fitness=1.25, parent=1, parent_fitness=0.5, age=2):
    return Individual(
        morphology=random_morphology(np.random.default_rng(ident)),
        controller=init_controller(controller_kind, np.random.default_rng(ident)),
        age=age,
        id=ident,
        parent_id=parent,
        mutation_kind=kind,
        parent_fitness_at_birth=parent_fitness,
        fitness=fitness,
    )


def assert_same_individual(a, b):
    assert a.id == b.id
    assert a.parent_id == b.parent_id
    assert a.age == b.age
    assert a.mutation_kind == b.mutation_kind
    assert a.morphology == b.morphology
    assert a.controller.kind == b.controller.kind
    assert np.array_equal(a.controller.to_flat(), b.controller.to_flat())
    for x, y in ((a.fitness, b.fitness),
                 (a.parent_fitness_at_birth, b.parent_fitness_at_birth)):
        assert x == y or (x is None and y is None)


class TestIndividualRoundTrip:
    def test_modular(self, tmp_path):
        path = str(tmp_path / "ind.ckpt")
        ind = make_individual()
        save_individual(path, ind)
        assert_same_individual(load_individual(path), ind)

    def test_global(self, tmp_path):
        path = str(tmp_path / "ind.ckpt")
        ind = make_individual(controller_kind=GLOBAL_KIND)
        save_individual(path, ind)
        loaded = load_individual(path)
        assert loaded.controller.kind == GLOBAL_KIND
        assert_same_individual(loaded, ind)

    def test_none_fields(self, tmp_path):
        path = str(tmp_path / "ind.ckpt")
        ind = make_individual(kind=KIND_FRESH, fitness=None, parent=None,
                              parent_fitness=None, age=0)
        save_individual(path, ind)
        loaded = load_individual(path)
        assert loaded.fitness is None
        assert loaded.parent_id is None
        assert loaded.parent_fitness_at_birth is None

    def test_fitness_bits_preserved(self, tmp_path):
        path = str(tmp_path / "ind.ckpt")
        ind = make_individual(fitness=0.1 + 0.2)
        save_individual(path, ind)
        assert load_individual(path).fitness == 0.1 + 0.2


    @pytest.mark.parametrize("kind, n_inputs", [(MODULAR_KIND, 73), (MODULAR_KIND, 9),
                                                 (GLOBAL_KIND, 201)])
    def test_input_size_follows_parameter_count(self, tmp_path, kind, n_inputs):
        ind = make_individual(controller_kind=kind)
        ind.controller = init_controller(kind, np.random.default_rng(5), n_inputs)
        path = str(tmp_path / "ind.ckpt")
        save_individual(path, ind)
        loaded = load_individual(path)
        assert loaded.controller.n_inputs == n_inputs
        assert_same_individual(ind, loaded)


class TestPopulationRoundTrip:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "pop.ckpt")
        population = [make_individual(i) for i in range(5)]
        save_population(path, population)
        loaded = load_population(path)
        assert len(loaded) == 5
        for a, b in zip(loaded, population):
            assert_same_individual(a, b)

    def test_empty_population(self, tmp_path):
        path = str(tmp_path / "pop.ckpt")
        save_population(path, [])
        assert load_population(path) == []

    # RunConfig bounds mu by the largest count the header records
    def test_count_holds_the_largest_population(self):
        assert _COUNT.unpack(_COUNT.pack(MAX_POPULATION)) == (MAX_POPULATION,)
        with pytest.raises(struct.error):
            _COUNT.pack(MAX_POPULATION + 1)

    def test_kind_confusion_rejected(self, tmp_path):
        ind_path = str(tmp_path / "ind.ckpt")
        save_individual(ind_path, make_individual())
        with pytest.raises(CheckpointIntegrityError):
            load_population(ind_path)
        pop_path = str(tmp_path / "pop.ckpt")
        save_population(pop_path, [make_individual()])
        with pytest.raises(CheckpointIntegrityError):
            load_individual(pop_path)


class TestIntegrity:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointIntegrityError):
            load_individual(str(path))

    def test_truncated_file(self, tmp_path):
        path = str(tmp_path / "ind.ckpt")
        save_individual(path, make_individual())
        blob = pathlib.Path(path).read_bytes()
        truncated = tmp_path / "trunc.ckpt"
        truncated.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointIntegrityError):
            load_individual(str(truncated))

    def test_trailing_garbage(self, tmp_path):
        path = str(tmp_path / "ind.ckpt")
        save_individual(path, make_individual())
        blob = pathlib.Path(path).read_bytes()
        padded = tmp_path / "padded.ckpt"
        padded.write_bytes(blob + b"\x00\x01")
        with pytest.raises(CheckpointIntegrityError):
            load_individual(str(padded))

    def test_corrupt_morphology_digit(self, tmp_path):
        path = str(tmp_path / "ind.ckpt")
        save_individual(path, make_individual())
        blob = bytearray(pathlib.Path(path).read_bytes())
        assert blob.startswith(MAGIC)
        # morphology digits sit right after header + fixed record
        offset = 7 + 37
        blob[offset] = 9
        corrupt = tmp_path / "corrupt.ckpt"
        corrupt.write_bytes(bytes(blob))
        with pytest.raises(CheckpointIntegrityError):
            load_individual(str(corrupt))

    def test_non_finite_parameter_rejected(self, tmp_path):
        path = str(tmp_path / "ind.ckpt")
        save_individual(path, make_individual())
        blob = bytearray(pathlib.Path(path).read_bytes())
        nan = np.float64(math.nan).tobytes()
        blob[-8:] = nan
        corrupt = tmp_path / "corrupt.ckpt"
        corrupt.write_bytes(bytes(blob))
        with pytest.raises(CheckpointIntegrityError):
            load_individual(str(corrupt))

    @pytest.mark.parametrize("delta", [1, -1, 31])
    def test_parameter_count_must_fit_the_kind(self, tmp_path, delta):
        path = str(tmp_path / "ind.ckpt")
        save_individual(path, make_individual())
        blob = bytearray(pathlib.Path(path).read_bytes())
        # parameter count u32 follows header, fixed record, 25 digits, kind byte
        offset = 7 + 37 + 25 + 1
        count = int.from_bytes(blob[offset:offset + 4], "little")
        blob[offset:offset + 4] = (count + delta).to_bytes(4, "little")
        blob += bytes(8 * max(delta, 0))
        corrupt = tmp_path / "corrupt.ckpt"
        corrupt.write_bytes(bytes(blob))
        with pytest.raises(CheckpointIntegrityError, match="do not fit"):
            load_individual(str(corrupt))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointIntegrityError):
            load_individual(str(tmp_path / "nope.ckpt"))

    # NaN is "unevaluated"; an infinite champion fitness loaded, and transfer
    # then wrote NaN relative changes. Saving refuses such an individual, so
    # the infinities are patched into a finite file
    @pytest.mark.parametrize("fitness, parent_fitness", INFINITE_FITNESSES)
    def test_infinite_fitness_rejected(self, tmp_path, fitness, parent_fitness):
        path = str(tmp_path / "ind.ckpt")
        save_individual(path, make_individual())
        patch_checkpoint_fitness(path, fitness, parent_fitness)
        with pytest.raises(CheckpointIntegrityError) as exc_info:
            load_individual(path)
        assert str(exc_info.value) == f"{path}: infinite fitness"

    # a checkpoint with an infinite fitness was written and then refused on load
    @pytest.mark.parametrize("fitness, parent_fitness", INFINITE_FITNESSES)
    def test_infinite_fitness_is_not_saved(self, tmp_path, fitness, parent_fitness):
        ind = make_individual(fitness=fitness, parent_fitness=parent_fitness)
        with pytest.raises(ValueError, match="infinite fitness"):
            save_individual(str(tmp_path / "ind.ckpt"), ind)
        with pytest.raises(ValueError, match="infinite fitness"):
            save_population(str(tmp_path / "pop.ckpt"), [make_individual(ident=4), ind])
        assert os.listdir(tmp_path) == []

    # such a body loaded, then failed to build in the first episode. Saving
    # refuses it, so the body is patched into a valid file
    @pytest.mark.parametrize("body", list(INVALID_BODIES))
    def test_body_that_is_not_a_robot_rejected(self, tmp_path, body):
        path = str(tmp_path / "ind.ckpt")
        save_individual(path, make_individual())
        patch_checkpoint_body(path, INVALID_BODIES[body])
        with pytest.raises(CheckpointIntegrityError, match="not a valid robot") as exc_info:
            load_individual(path)
        assert str(exc_info.value).startswith(path)

    # a checkpoint with such a body was written and then refused on load
    @pytest.mark.parametrize("body", list(INVALID_BODIES))
    def test_body_that_is_not_a_robot_is_not_saved(self, tmp_path, body):
        ind = make_individual()
        ind.morphology = INVALID_BODIES[body]
        with pytest.raises(ValueError, match="individual 3: the body is not a valid robot"):
            save_individual(str(tmp_path / "ind.ckpt"), ind)
        with pytest.raises(ValueError, match="the body is not a valid robot"):
            save_population(str(tmp_path / "pop.ckpt"), [make_individual(ident=4), ind])
        assert os.listdir(tmp_path) == []


class TestAtomicWrite:
    def test_no_partial_left_behind(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(str(path), b"payload")
        assert path.read_bytes() == b"payload"
        assert os.listdir(tmp_path) == ["blob.bin"]

    def test_overwrites_existing(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"old")
        atomic_write_bytes(str(path), b"new")
        assert path.read_bytes() == b"new"
