"""MLP controllers: one shared network per robot.

Two kinds exist. The global controller reads the full-box observation and
emits one output per grid cell (raster order); outputs at non-actuator cells
are discarded. The modular controller is a single parameter set shared by
every actuator, mapping that actuator's neighborhood observation to its own
action. Both are one-hidden-layer MLPs: 32 ReLU units, sigmoid outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .morphology import GRID_SIZE
from .physics import JoinedWorld
from .sensing import (GLOBAL_KIND, KINDS, MODULAR_KIND, ObservationBuilder, ObservationConfig,
                      input_size)

HIDDEN_UNITS = 32  # the one hidden width that init, mutation and checkpoints know

DEFAULT_INPUT_SIZE = input_size(GLOBAL_KIND, ObservationConfig())  # == the modular one, 201
GLOBAL_OUTPUT_SIZE = GRID_SIZE * GRID_SIZE
MODULAR_OUTPUT_SIZE = 1


def output_size(kind: str) -> int:
    """Controller output length of `kind`: one per grid cell or per actuator."""
    if kind not in KINDS:
        raise ValueError(f"unknown controller kind {kind!r}")
    return GLOBAL_OUTPUT_SIZE if kind == GLOBAL_KIND else MODULAR_OUTPUT_SIZE


@dataclass(frozen=True)
class ControllerGenome:
    """One `kind` controller: `W1` (HIDDEN_UNITS, n_inputs), `b1`
    (HIDDEN_UNITS,), `W2` (n_out, HIDDEN_UNITS) and `b2` (n_out,), with
    n_out the kind's output count. Each array is a read-only float64 copy
    of the one it is given, so the caller's array stays its own."""

    kind: str
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        for name in ("W1", "b1", "W2", "b2"):
            a = np.array(getattr(self, name), dtype=np.float64, order="C")
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        hidden, _ = self.W1.shape
        if hidden != HIDDEN_UNITS:
            raise ValueError(f"a controller has {HIDDEN_UNITS} hidden units, got {hidden}")
        n_out = output_size(self.kind)
        if len(self.W2) != n_out:
            raise ValueError(f"{self.kind} controller needs {n_out} outputs, got {len(self.W2)}")
        if (self.b1.shape, self.W2.shape, self.b2.shape) != ((hidden,), (n_out, hidden), (n_out,)):
            raise ValueError("inconsistent layer shapes")
        if not all(np.isfinite(a).all() for a in (self.W1, self.b1, self.W2, self.b2)):
            raise ValueError("controller parameters must be finite")

    @property
    def n_inputs(self) -> int:
        return self.W1.shape[1]

    def to_flat(self) -> np.ndarray:
        """Row-major W1, then b1, W2, b2; the serialization layout."""
        return np.concatenate([self.W1.ravel(), self.b1, self.W2.ravel(), self.b2])


def genome_from_flat(kind: str, flat: np.ndarray) -> ControllerGenome:
    """The `kind` controller with the parameters `flat`, in `to_flat`'s
    layout; the hidden width and the kind's output count are fixed, so the
    parameter count gives the input size."""
    n_out = output_size(kind)
    # count = HIDDEN_UNITS * (n_in + 1) + n_out * (HIDDEN_UNITS + 1)
    n_in, rest = divmod(len(flat) - HIDDEN_UNITS - n_out * (HIDDEN_UNITS + 1), HIDDEN_UNITS)
    if rest or n_in < 1:
        raise ValueError(f"{len(flat)} parameters do not fit a {kind} controller "
                         f"with {HIDDEN_UNITS} hidden units")
    W1, b1, W2, b2 = np.split(flat, np.cumsum([HIDDEN_UNITS * n_in, HIDDEN_UNITS,
                                                n_out * HIDDEN_UNITS]))
    return ControllerGenome(kind, W1.reshape(HIDDEN_UNITS, n_in), b1,
                            W2.reshape(n_out, HIDDEN_UNITS), b2)


def _forward(xs: np.ndarray, W1T: np.ndarray, b1: np.ndarray, W2T: np.ndarray,
             b2: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sigmoid(relu(xs @ W1T + b1) @ W2T + b2), outputs in (0, 1), into
    `out` if given: one network on its inputs, or a stack of networks on a
    stack of inputs, one gemm (or gemv) per item of the stack."""
    h = xs @ W1T
    h += b1
    np.maximum(h, 0.0, out=h)
    z = h @ W2T
    z += b2
    # exp-safe formulation: sigmoid(z) = exp(-logaddexp(0, -z))
    np.negative(z, out=z)
    np.logaddexp(0.0, z, out=z)
    np.negative(z, out=z)
    return np.exp(z, out=out)


class ControllerBatch:
    """The controllers of `world`'s members, in member order, and the
    `ObservationBuilder` of `world` that they read; `kind` is the members'
    one kind, None when the batch holds both.

    The controller output layout lives here. Per group of the builder
    (members of one kind and one input row count) the weights are stacked
    once: `W1` as `np.stack(W1s).transpose(0, 2, 1)`, so each member's
    matrix keeps the memory layout of its own `W1.T`, `W2` likewise, and
    the biases as `(k, 1, width)`, each group's beside its `(k, rows,
    outputs)` output stack, a view of one flat `output` in group order.
    `pick` reads the actions from `output`, in `world.actuator_cells`
    order: the global network emits one output per grid cell, read at each
    actuator's raster index, the modular one output per row."""

    def __init__(self, controllers, world: JoinedWorld,
                 obs_cfg: ObservationConfig | None = None):
        members = world.members
        if len(controllers) != len(members):
            raise ValueError(f"{len(controllers)} controllers for {len(members)} worlds")
        kinds = tuple(genome.kind for genome in controllers)
        self.builder = builder = ObservationBuilder(world, kinds, obs_cfg)
        for genome in controllers:
            if genome.n_inputs != input_size(genome.kind, builder.cfg):
                raise ValueError(f"expected inputs of length {genome.n_inputs}, "
                                 f"got {input_size(genome.kind, builder.cfg)}")
        self.kind = kinds[0] if len(set(kinds)) == 1 else None
        shapes = [(len(group), rows, output_size(kind)) for kind, rows, group in builder.groups]
        ends = np.cumsum([0] + [math.prod(shape) for shape in shapes])
        self.output, positions = np.empty(ends[-1]), np.arange(ends[-1])
        self.layers = []  # each group's (W1T, b1, W2T, b2, output stack)
        picks = [None] * len(members)
        for (kind, _, group), shape, a, b in zip(builder.groups, shapes, ends, ends[1:]):
            at = positions[a:b].reshape(shape)
            for j, i in enumerate(group):
                cells = members[i].actuator_cells
                picks[i] = (at[j, 0, [r * GRID_SIZE + c for r, c in cells]]
                            if kind == GLOBAL_KIND else at[j, :, 0])
            W1, b1, W2, b2 = (np.stack([getattr(controllers[i], name) for i in group])
                              for name in ("W1", "b1", "W2", "b2"))
            self.layers.append((W1.transpose(0, 2, 1), b1[:, None], W2.transpose(0, 2, 1),
                                b2[:, None], self.output[a:b].reshape(shape)))
        self.pick = np.concatenate(picks)


def act(batch: ControllerBatch, world: JoinedWorld, env_step: int) -> np.ndarray:
    """Actions in (0, 1), one per actuator in `world.actuator_cells` order,
    for `apply_actuation` on `world`, a joined world of the bodies `batch`
    was built for. One refresh and gather of the inputs that the batch's
    builder assembles from `world`'s state, then one stacked forward pass
    per group into the batch's output stacks, never rows of several members
    in one gemm, so each member gets the bytes of its own network alone;
    the actions are read from `output` at `pick`."""
    for xs, layers in zip(batch.builder.stacked_inputs(world, env_step), batch.layers):
        _forward(xs, *layers)
    return batch.output[batch.pick]


def init_controller(kind: str, rng: np.random.Generator,
                    n_inputs: int = DEFAULT_INPUT_SIZE) -> ControllerGenome:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer."""
    n_out = output_size(kind)
    r1 = 1.0 / np.sqrt(n_inputs)
    r2 = 1.0 / np.sqrt(HIDDEN_UNITS)
    return ControllerGenome(
        kind,
        W1=rng.uniform(-r1, r1, size=(HIDDEN_UNITS, n_inputs)),
        b1=rng.uniform(-r1, r1, size=HIDDEN_UNITS),
        W2=rng.uniform(-r2, r2, size=(n_out, HIDDEN_UNITS)),
        b2=rng.uniform(-r2, r2, size=n_out),
    )


def mutate_controller(genome: ControllerGenome, rng: np.random.Generator,
                      sigma: float) -> ControllerGenome:
    """Add independent N(0, sigma) noise to every parameter (sigma is the
    standard deviation). The parent is untouched."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    flat = genome.to_flat()
    return genome_from_flat(genome.kind, flat + rng.normal(0.0, sigma, size=flat.size))
