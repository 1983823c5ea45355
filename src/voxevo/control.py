"""MLP controllers: one shared network per robot.

Two kinds exist. The global controller reads the full-box observation and
emits one output per grid cell (raster order); outputs at non-actuator cells
are discarded. The modular controller is a single parameter set shared by
every actuator, mapping that actuator's neighborhood observation to its own
action. Both are one-hidden-layer MLPs: 32 ReLU units, sigmoid outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .morphology import GRID_SIZE
from .physics import JoinedWorld, SimWorld
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


def mlp_forward(params: MlpParams, xs: np.ndarray) -> np.ndarray:
    """One network's forward pass on one input vector or a matrix of input
    rows; `act` gives each member of a batch these bytes."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim not in (1, 2) or xs.shape[-1] != params.n_inputs:
        raise ValueError(f"expected inputs of length {params.n_inputs}, got {xs.shape}")
    return _forward(xs, params.W1.T, params.b1, params.W2.T, params.b2)


class ControllerBatch:
    """The controllers of `builder`'s members, in member order, with their
    weights stacked once per group of the builder (members of one kind and
    one input row count): `W1` as `np.stack(W1s).transpose(0, 2, 1)`, so
    each member's matrix keeps the memory layout of its own `W1.T`, `W2`
    likewise, and the biases as `(k, 1, width)`, each group's beside the
    builder's output stack that its forward pass fills. `kind` is the
    members' one kind, None when the batch holds both."""

    def __init__(self, controllers, builder: ObservationBuilder):
        if len(controllers) != len(builder.kinds):
            raise ValueError(f"{len(controllers)} controllers for a builder of "
                             f"{len(builder.kinds)} worlds")
        for genome, kind in zip(controllers, builder.kinds):
            if genome.kind != kind:
                raise ValueError(f"a {genome.kind} controller cannot read a {kind} "
                                 "observation builder")
            if genome.params.n_inputs != input_size(kind, builder.cfg):
                raise ValueError(f"expected inputs of length {genome.params.n_inputs}, "
                                 f"got {input_size(kind, builder.cfg)}")
        self.kind = builder.kinds[0] if len(set(builder.kinds)) == 1 else None
        self.builder = builder
        self.layers = []  # each group's (W1T, b1, W2T, b2, output stack)
        for (_, group), out in zip(builder.groups, builder.output_stacks):
            W1, b1, W2, b2 = (np.stack([getattr(controllers[i].params, name) for i in group])
                              for name in ("W1", "b1", "W2", "b2"))
            self.layers.append((W1.transpose(0, 2, 1), b1[:, None], W2.transpose(0, 2, 1),
                                b2[:, None], out))


def act(controllers: ControllerGenome | ControllerBatch, world: SimWorld | JoinedWorld,
        env_step: int, builder: ObservationBuilder) -> np.ndarray:
    """Actions in (0, 1), one per actuator in `world.actuator_cells` order,
    for `apply_actuation` on `world`: a world alone under one genome (a
    batch of one), or a joined world's members under the `ControllerBatch`
    stacked for `builder`. One refresh and gather of the inputs that
    `builder` assembles from `world`'s state, then one stacked forward pass
    per group into the builder's output stacks, never rows of several
    members in one gemm, so each member gets the bytes of its own
    `mlp_forward`; the actions are read from the builder's `output` at its
    `pick`. The builder must be built for `world`'s bodies."""
    if isinstance(controllers, ControllerGenome):
        controllers = ControllerBatch((controllers,), builder)
    elif controllers.builder is not builder:
        raise ValueError("the controllers are stacked for another builder")
    for xs, layers in zip(builder.stacked_inputs(world, env_step), controllers.layers):
        _forward(xs, *layers)
    return builder.output[builder.pick]


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
