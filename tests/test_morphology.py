import numpy as np
import pytest
from scipy import stats

from voxevo import morphology
from voxevo.morphology import (
    CELL_MUTATION_RATE,
    EMPTY,
    GRID_SIZE,
    H_ACTUATOR,
    MIN_ACTUATORS,
    MIN_FILLED,
    N_MATERIALS,
    RIGID,
    SOFT,
    V_ACTUATOR,
    InvalidMorphologyError,
    Morphology,
    MutationFailedError,
    mutate_morphology,
    random_morphology,
    resample_cells,
    sample_neighbor,
    validate,
)

from helpers import grid_distance


def grid_from_rows(*rows):
    return np.array([[int(ch) for ch in row] for row in rows], dtype=np.int8)


def actuator_cells(morph):
    """Row-major (row, col) cells of actuator material, read off the grid."""
    return [tuple(rc) for rc in
            np.argwhere(np.isin(morph.grid, (H_ACTUATOR, V_ACTUATOR))).tolist()]


class TestValidity:
    def test_full_grid_is_valid(self):
        assert validate(np.full((5, 5), H_ACTUATOR, dtype=np.int8))

    def test_all_soft_lacks_actuators(self):
        assert not validate(np.full((5, 5), SOFT, dtype=np.int8))

    def test_empty_grid_is_invalid(self):
        assert not validate(np.zeros((5, 5), dtype=np.int8))

    def test_four_cells_is_too_few(self):
        grid = grid_from_rows("00000", "00000", "00000", "00000", "33330")
        assert not validate(grid)

    def test_five_cell_row_is_valid(self):
        grid = grid_from_rows("00000", "00000", "00000", "00000", "33333")
        assert validate(grid)

    def test_single_actuator_is_invalid(self):
        grid = grid_from_rows("00000", "00000", "00000", "00000", "31111")
        assert not validate(grid)

    def test_two_actuators_of_different_kinds_count(self):
        grid = grid_from_rows("00000", "00000", "00000", "00000", "34111")
        assert validate(grid)

    def test_disconnected_components_are_invalid(self):
        grid = grid_from_rows("33000", "33000", "00000", "00033", "00033")
        assert not validate(grid)

    def test_diagonal_touch_is_not_connected(self):
        grid = grid_from_rows("00000", "00000", "00330", "03000", "33000")
        assert not validate(grid)

    def test_out_of_range_material_raises(self):
        grid = np.full((5, 5), SOFT, dtype=np.int8)
        grid[0, 0] = 5
        with pytest.raises(InvalidMorphologyError):
            validate(grid)

    def test_wrong_shape_raises(self):
        with pytest.raises(InvalidMorphologyError):
            validate(np.full((4, 5), SOFT, dtype=np.int8))


class TestMorphologyValue:
    def test_constructor_rejects_malformed(self):
        with pytest.raises(InvalidMorphologyError):
            Morphology(np.zeros((4, 5), dtype=np.int8))
        bad_code = np.full((5, 5), SOFT, dtype=np.int8)
        bad_code[0, 0] = 9
        with pytest.raises(InvalidMorphologyError):
            Morphology(bad_code)

    def test_mutation_rejects_invalid_parent(self):
        hollow = Morphology(np.zeros((5, 5), dtype=np.int8))
        with pytest.raises(InvalidMorphologyError):
            mutate_morphology(hollow, np.random.default_rng(0))

    def test_text_round_trip(self, small_body):
        again = Morphology.from_text(small_body.to_text())
        assert again == small_body
        assert hash(again) == hash(small_body)

    def test_grid_is_immutable(self, small_body):
        with pytest.raises(ValueError):
            small_body.grid[0, 0] = SOFT
        assert small_body.grid[0, 0] == EMPTY

    # the body froze and shared the caller's grid, so a write through another
    # view of it changed the body and its hash while it sat in a set
    def test_grid_is_a_copy_of_the_callers(self, small_body):
        grid = small_body.grid.copy()
        body = Morphology(grid)
        seen = {body}
        grid[0, 0] = SOFT
        assert grid.flags.writeable
        assert body == small_body and hash(body) == hash(small_body)
        assert body.grid[0, 0] == EMPTY and body in seen

    # the grid was cast to int8 before its codes were checked: 259 and -253
    # wrapped to code 3, 2.7 truncated to 2 and NaN read as 0, all accepted
    @pytest.mark.parametrize("code", [259, -253, 2.7, np.nan])
    def test_codes_are_checked_before_the_cast(self, small_body, code):
        grid = small_body.grid.astype(np.asarray(code).dtype)
        grid[3, 1] = code
        for build in (Morphology, validate):
            with pytest.raises(InvalidMorphologyError):
                build(grid)

    def test_int8_arrays_and_lists_of_ints_build(self, small_body):
        assert Morphology(small_body.grid.copy()) == small_body
        assert Morphology(small_body.grid.tolist()) == small_body
        assert Morphology(small_body.grid.tolist()).grid.dtype == np.int8

    def test_counts(self, small_body):
        assert small_body.n_filled == 6
        assert actuator_cells(small_body) == [(3, 1), (3, 3)]
        assert set(small_body.occupied_cells) >= set(actuator_cells(small_body))

    def test_equality_vs_distinct(self, small_body, plus_body):
        assert small_body != plus_body
        assert grid_distance(small_body, plus_body) > 0


class TestResampleStatistics:
    """Raw per-cell resampling, before any validity rejection."""

    N_DRAWS = 10_000

    def _draw(self):
        rng = np.random.default_rng(2024)
        base = np.full((5, 5), SOFT, dtype=np.int8)
        events = np.zeros(self.N_DRAWS, dtype=np.int64)
        changed = np.zeros(self.N_DRAWS, dtype=np.int64)
        cell_events = np.zeros((5, 5), dtype=np.int64)
        for i in range(self.N_DRAWS):
            new_grid, mask = resample_cells(base, rng)
            events[i] = int(mask.sum())
            changed[i] = int((new_grid != base).sum())
            cell_events += mask
        return events, changed, cell_events

    def test_event_count_mean(self):
        events, changed, _ = self._draw()
        # 25 cells * 0.1 resample probability.
        assert abs(events.mean() - 2.5) < 0.2
        # A resample draws uniformly over 5 materials, so 1 in 5 events
        # redraws the current value and leaves the cell unchanged.
        assert 1.8 < changed.mean() < 2.2
        assert np.all(changed <= events)

    def test_per_cell_events_are_uniform_bernoulli(self):
        _, _, cell_events = self._draw()
        counts = cell_events.ravel()
        # Uniformity across cells, then the overall rate against 0.1.
        uniform = stats.chisquare(counts, f_exp=counts.sum() / counts.size)
        assert uniform.pvalue > 0.001
        rate = stats.binomtest(int(counts.sum()), n=self.N_DRAWS * counts.size,
                               p=CELL_MUTATION_RATE)
        assert rate.pvalue > 0.001

    def test_resampled_values_cover_all_materials(self):
        rng = np.random.default_rng(7)
        base = np.full((5, 5), SOFT, dtype=np.int8)
        seen = set()
        for _ in range(2000):
            new_grid, mask = resample_cells(base, rng)
            seen.update(np.asarray(new_grid)[mask].tolist())
        assert seen == set(range(N_MATERIALS))


class TestMutation:
    def test_outputs_always_valid_and_different(self, rng):
        parent = random_morphology(rng)
        for _ in range(2000):
            child = mutate_morphology(parent, rng)
            assert validate(child.grid)
            assert child != parent
            parent = child

    def test_seeded_reproducibility(self, small_body):
        a = mutate_morphology(small_body, np.random.default_rng(5))
        b = mutate_morphology(small_body, np.random.default_rng(5))
        assert a == b

    def test_retry_cap_raises(self, small_body, monkeypatch):
        monkeypatch.setattr(morphology, "RETRY_CAP", 0)
        with pytest.raises(MutationFailedError):
            mutate_morphology(small_body, np.random.default_rng(0))


class TestRandomMorphology:
    def test_valid_for_many_seeds(self):
        for seed in range(200):
            morph = random_morphology(np.random.default_rng(seed))
            assert validate(morph.grid)

    def test_distinct_across_seeds(self):
        morphs = [random_morphology(np.random.default_rng(s)) for s in range(100)]
        distinct = 0
        for i in range(0, 100, 2):
            if morphs[i] != morphs[i + 1]:
                distinct += 1
        assert distinct >= 48  # at least 95 of 100 pairwise draws differ

    def test_minimums_hold(self, rng):
        for _ in range(50):
            morph = random_morphology(rng)
            assert morph.n_filled >= MIN_FILLED
            assert len(actuator_cells(morph)) >= MIN_ACTUATORS


class TestNeighbors:
    def test_distance_semantics(self, rng):
        base = random_morphology(rng)
        for d in (1, 2, 3):
            neighbor = sample_neighbor(base, d, rng)
            assert validate(neighbor.grid)
            assert neighbor != base

    def test_distance_one_is_single_mutation_step(self, small_body):
        rng = np.random.default_rng(11)
        direct = mutate_morphology(small_body, np.random.default_rng(11))
        stepped = sample_neighbor(small_body, 1, rng)
        assert stepped == direct


class TestGridDistance:
    def test_zero_for_identical(self, small_body):
        assert grid_distance(small_body, small_body) == 0

    def test_counts_differing_cells(self):
        a = np.full((5, 5), SOFT, dtype=np.int8)
        b = a.copy()
        b[0, 0] = RIGID
        b[4, 4] = H_ACTUATOR
        b[2, 2] = V_ACTUATOR
        assert grid_distance(Morphology(a), Morphology(b)) == 3

    def test_symmetry(self, small_body, plus_body):
        assert grid_distance(small_body, plus_body) == grid_distance(plus_body, small_body)


def test_grid_size_constant():
    assert GRID_SIZE == 5
    assert N_MATERIALS == 5
