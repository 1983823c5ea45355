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
from .sensing import GLOBAL_KIND, KINDS, MODULAR_KIND, ObservationBuilder, ObservationConfig

HIDDEN_UNITS = 32

DEFAULT_INPUT_SIZE = ObservationConfig().global_size  # == local_size == 201
GLOBAL_OUTPUT_SIZE = GRID_SIZE * GRID_SIZE
MODULAR_OUTPUT_SIZE = 1


def input_size(kind: str, obs: ObservationConfig) -> int:
    """Controller input length of `kind` under the observation layout `obs`."""
    return obs.local_size if kind == MODULAR_KIND else obs.global_size


def output_size(kind: str) -> int:
    """Controller output length of `kind`: one per grid cell or per actuator."""
    if kind not in KINDS:
        raise ValueError(f"unknown controller kind {kind!r}")
    return GLOBAL_OUTPUT_SIZE if kind == GLOBAL_KIND else MODULAR_OUTPUT_SIZE


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class MlpParams:
    W1: np.ndarray  # (hidden, n_in)
    b1: np.ndarray  # (hidden,)
    W2: np.ndarray  # (n_out, hidden)
    b2: np.ndarray  # (n_out,)

    def __post_init__(self):
        object.__setattr__(self, "W1", _frozen(self.W1))
        object.__setattr__(self, "b1", _frozen(self.b1))
        object.__setattr__(self, "W2", _frozen(self.W2))
        object.__setattr__(self, "b2", _frozen(self.b2))
        hidden, n_in = self.W1.shape
        n_out = self.W2.shape[0]
        if self.b1.shape != (hidden,) or self.W2.shape != (n_out, hidden) \
                or self.b2.shape != (n_out,):
            raise ValueError("inconsistent layer shapes")
        for a in (self.W1, self.b1, self.W2, self.b2):
            if not np.isfinite(a).all():
                raise ValueError("controller parameters must be finite")

    @property
    def n_inputs(self) -> int:
        return self.W1.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.W2.shape[0]

    @property
    def n_params(self) -> int:
        return self.W1.size + self.b1.size + self.W2.size + self.b2.size

    def to_flat(self) -> np.ndarray:
        """Row-major W1, then b1, W2, b2; the serialization layout."""
        return np.concatenate([self.W1.ravel(), self.b1, self.W2.ravel(), self.b2])


def params_from_flat(flat: np.ndarray, n_in: int, hidden: int, n_out: int) -> MlpParams:
    flat = np.asarray(flat, dtype=np.float64)
    expected = hidden * n_in + hidden + n_out * hidden + n_out
    if flat.shape != (expected,):
        raise ValueError(f"expected {expected} parameters, got {flat.shape}")
    i = 0
    W1 = flat[i:i + hidden * n_in].reshape(hidden, n_in); i += hidden * n_in
    b1 = flat[i:i + hidden]; i += hidden
    W2 = flat[i:i + n_out * hidden].reshape(n_out, hidden); i += n_out * hidden
    b2 = flat[i:]
    return MlpParams(W1, b1, W2, b2)


@dataclass(frozen=True)
class ControllerGenome:
    kind: str
    params: MlpParams

    def __post_init__(self):
        expected_out = output_size(self.kind)
        if self.params.n_outputs != expected_out:
            raise ValueError(
                f"{self.kind} controller needs {expected_out} outputs, "
                f"got {self.params.n_outputs}")


def genome_from_flat(kind: str, flat: np.ndarray) -> ControllerGenome:
    """The `kind` controller with the parameters `flat` (`MlpParams.to_flat`'s
    layout); the hidden width and the kind's output count are fixed, so the
    parameter count gives the input size."""
    n_out = output_size(kind)
    # count = hidden * n_in + hidden + n_out * (hidden + 1)
    n_in, rest = divmod(len(flat) - HIDDEN_UNITS - n_out * (HIDDEN_UNITS + 1), HIDDEN_UNITS)
    if rest or n_in < 1:
        raise ValueError(f"{len(flat)} parameters do not fit a {kind} controller "
                         f"with {HIDDEN_UNITS} hidden units")
    return ControllerGenome(kind, params_from_flat(flat, n_in, HIDDEN_UNITS, n_out))


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
            if genome.params.n_inputs != input_size(genome.kind, builder.cfg):
                raise ValueError(f"expected inputs of length {genome.params.n_inputs}, "
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
            W1, b1, W2, b2 = (np.stack([getattr(controllers[i].params, name) for i in group])
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
    params = MlpParams(
        W1=rng.uniform(-r1, r1, size=(HIDDEN_UNITS, n_inputs)),
        b1=rng.uniform(-r1, r1, size=HIDDEN_UNITS),
        W2=rng.uniform(-r2, r2, size=(n_out, HIDDEN_UNITS)),
        b2=rng.uniform(-r2, r2, size=n_out),
    )
    return ControllerGenome(kind, params)


def mutate_controller(genome: ControllerGenome, rng: np.random.Generator,
                      sigma: float) -> ControllerGenome:
    """Add independent N(0, sigma) noise to every parameter (sigma is the
    standard deviation). The parent is untouched."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    p = genome.params
    flat = p.to_flat() + rng.normal(0.0, sigma, size=p.n_params)
    return ControllerGenome(
        genome.kind, params_from_flat(flat, p.n_inputs, p.W1.shape[0], p.n_outputs))
