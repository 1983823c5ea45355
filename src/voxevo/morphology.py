"""Body genome: a 5x5 grid of material codes with validation and mutation.

Material codes: 0 empty, 1 rigid, 2 soft, 3 horizontal actuator,
4 vertical actuator. A genome is valid when it has at least MIN_FILLED
non-empty cells, at least MIN_ACTUATORS actuator cells, and its non-empty
cells form a single 4-connected component.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

EMPTY = 0
RIGID = 1
SOFT = 2
H_ACTUATOR = 3
V_ACTUATOR = 4
N_MATERIALS = 5

GRID_SIZE = 5
MIN_FILLED = 5          # 20% of 25 cells
MIN_ACTUATORS = 2
CELL_MUTATION_RATE = 0.1
RETRY_CAP = 1000  # draws before a mutation or a growth gives up


class InvalidMorphologyError(ValueError):
    """Raised when a grid is malformed or an operation requires a valid genome."""


class MutationFailedError(RuntimeError):
    """Raised when rejection sampling exhausts its retry budget."""


def _as_grid(grid) -> np.ndarray:
    arr = np.asarray(grid, dtype=np.int8)
    if arr.shape != (GRID_SIZE, GRID_SIZE):
        raise InvalidMorphologyError(f"grid must be {GRID_SIZE}x{GRID_SIZE}, got shape {arr.shape}")
    if arr.min() < 0 or arr.max() >= N_MATERIALS:
        raise InvalidMorphologyError("material codes must lie in [0..4]")
    return arr


@dataclass(frozen=True)
class Morphology:
    """Immutable 5x5 material grid, row 0 at the top."""

    grid: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = _as_grid(self.grid)
        arr.setflags(write=False)
        object.__setattr__(self, "grid", arr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Morphology):
            return NotImplemented
        return bool(np.array_equal(self.grid, other.grid))

    def __hash__(self) -> int:
        return hash(self.grid.tobytes())

    def __repr__(self) -> str:
        return f"Morphology({self.to_text()!r})"

    @property
    def occupied_cells(self) -> list[tuple[int, int]]:
        """Row-major (row, col) list of non-empty cells."""
        rows, cols = np.nonzero(self.grid)
        return list(zip(rows.tolist(), cols.tolist()))

    @property
    def n_filled(self) -> int:
        return int(np.count_nonzero(self.grid))

    def to_text(self) -> str:
        """Serialize as 5 lines of 5 digits, row-major."""
        return "\n".join("".join(str(int(c)) for c in row) for row in self.grid)

    @classmethod
    def from_text(cls, text: str) -> "Morphology":
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if len(lines) != GRID_SIZE or any(len(ln) != GRID_SIZE for ln in lines):
            raise InvalidMorphologyError("expected 5 lines of 5 digits")
        if any(ch not in "01234" for ln in lines for ch in ln):
            raise InvalidMorphologyError("digits must be in 0..4")
        return cls(np.array([[int(ch) for ch in ln] for ln in lines], dtype=np.int8))


def _connected(grid: np.ndarray) -> bool:
    """True when all non-empty cells form one 4-connected component."""
    occupied = np.argwhere(grid != EMPTY)
    if len(occupied) == 0:
        return False
    seen = np.zeros_like(grid, dtype=bool)
    start = tuple(occupied[0])
    seen[start] = True
    queue = deque([start])
    count = 1
    while queue:
        r, c = queue.popleft()
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nr, nc = r + dr, c + dc
            if 0 <= nr < GRID_SIZE and 0 <= nc < GRID_SIZE:
                if grid[nr, nc] != EMPTY and not seen[nr, nc]:
                    seen[nr, nc] = True
                    count += 1
                    queue.append((nr, nc))
    return count == len(occupied)


def validate(morph) -> bool:
    """Check the three validity constraints on a genome or raw grid.

    Raises InvalidMorphologyError on malformed shapes or codes; returns
    False (not an error) when a well-formed grid violates the fill,
    actuator, or connectivity constraints.
    """
    grid = morph.grid if isinstance(morph, Morphology) else _as_grid(morph)
    n_filled = int(np.count_nonzero(grid))
    if n_filled < MIN_FILLED:
        return False
    n_act = int(np.count_nonzero((grid == H_ACTUATOR) | (grid == V_ACTUATOR)))
    if n_act < MIN_ACTUATORS:
        return False
    return _connected(grid)


def resample_cells(grid: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One raw mutation round: each cell is resampled uniformly over [0..4]
    with probability CELL_MUTATION_RATE.

    Returns (new_grid, event_mask). A resample event may redraw the cell's
    current code; the event mask records the draw, not whether the value
    changed.
    """
    events = rng.random(grid.shape) < CELL_MUTATION_RATE
    new_grid = grid.copy()
    n_events = int(events.sum())
    if n_events:
        new_grid[events] = rng.integers(0, N_MATERIALS, size=n_events, dtype=np.int8)
    return new_grid, events


def mutate_morphology(morph: Morphology, rng: np.random.Generator) -> Morphology:
    """Stochastic body mutation with reject-and-retry.

    Each retry re-draws the whole per-cell operator from the same parent;
    a draw is accepted only if the result is valid and differs from the
    parent (all-unchanged draws retry too).
    """
    if not validate(morph):
        raise InvalidMorphologyError("parent genome is invalid")
    parent = morph.grid
    for _ in range(RETRY_CAP):
        child, _ = resample_cells(parent, rng)
        if np.array_equal(child, parent):
            continue
        if validate(child):
            return Morphology(child)
    raise MutationFailedError(f"no valid mutation found in {RETRY_CAP} draws")


def random_morphology(rng: np.random.Generator) -> Morphology:
    """Grow a random genome by repeatedly resampling cells of the empty grid
    until the accumulated grid is valid."""
    grid = np.zeros((GRID_SIZE, GRID_SIZE), dtype=np.int8)
    for _ in range(RETRY_CAP):
        grid, _ = resample_cells(grid, rng)
        if validate(grid):
            return Morphology(grid)
    raise MutationFailedError(f"no valid genome grown in {RETRY_CAP} rounds")


def sample_neighbor(morph: Morphology, distance: int,
                    rng: np.random.Generator) -> Morphology:
    """Apply the body mutation `distance` times; every intermediate is valid."""
    if distance < 1:
        raise ValueError("distance must be >= 1")
    current = morph
    for _ in range(distance):
        current = mutate_morphology(current, rng)
    return current
