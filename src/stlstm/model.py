"""The two 2-layer architectures and the scalar regression head.

``stacked``: one layer-1 cell consumes the concatenated per-location
input x_t; its hidden states feed a layer-2 cell; the head reads only
the final layer-2 hidden state (sequence-to-one).

``st_stacked``: an independent layer-1 cell per location consumes that
location's slice of x_t; the per-location hidden states, concatenated
in manifest order, feed the shared layer-2 cell. With the same total
layer-1 width the second variant is the first with block-diagonal
layer-1 weights, which ``block_diagonal_embed`` makes literal.

Both kinds therefore share one code path: layer 1 is ``loc_cells``
cells, cell k reading input slice k and producing hidden slice k, and
``stacked`` is the single-cell case.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .cell import (
    CELL_TENSOR_NAMES,
    CellParams,
    StepTrace,
    cell_backward,
    check_activation,
    init_cell_params,
    sequence_forward,
)
from .errors import ConfigError, ShapeError

KINDS = ("stacked", "st_stacked")


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


# one text parser per field type; with postponed annotations a dataclass
# Field.type is the annotation's text
_PARSERS = {"int": (int, "an integer"), "float": (float, "a number"),
            "bool": (_parse_bool, "a boolean"), "str": (str, "a string")}


def field_types(cls) -> dict[str, str]:
    """A dataclass's field table: {field name: type name}, in field order."""
    return {f.name: f.type for f in fields(cls)}


def parse_field(types: dict[str, str], key: str, text: str):
    """Parse ``text`` as the type the table gives ``key``; ConfigError names both."""
    parse, expected = _PARSERS[types[key]]
    try:
        return parse(text)
    except ValueError:
        raise ConfigError(f"{key}: expected {expected}, got {text!r}") from None


@dataclass
class ModelSpec:
    """Architecture description shared by construction, training, and checkpoints."""

    kind: str
    locations: int
    vars_per_location: int
    n1: int
    n2: int
    activation: str = "tanh"
    seq_len: int = 10
    horizon: int = 1

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}; expected one of {KINDS}")
        check_activation(self.activation)
        for name, type_name in SPEC_FIELDS.items():
            if type_name == "int" and getattr(self, name) < 1:
                raise ConfigError(f"spec field {name} must be >= 1, got {getattr(self, name)}")
        if self.kind == "st_stacked" and self.n1 % self.locations != 0:
            raise ConfigError(
                f"st_stacked needs n1 divisible by locations, got n1={self.n1}, "
                f"locations={self.locations}"
            )

    @property
    def input_dim(self) -> int:
        return self.locations * self.vars_per_location

    @property
    def loc_cells(self) -> int:
        """Layer-1 cells: one per location for st_stacked, a single one for stacked."""
        return self.locations if self.kind == "st_stacked" else 1

    @property
    def loc_inputs(self) -> int:
        """Input width of each layer-1 cell (its slice of x_t)."""
        return self.input_dim // self.loc_cells

    @property
    def loc_neurons(self) -> int:
        """Neurons of each layer-1 cell (its slice of the n1-wide hidden state)."""
        return self.n1 // self.loc_cells


SPEC_FIELDS = field_types(ModelSpec)


@dataclass
class ModelParams:
    """Full trainable parameter set for either kind.

    ``layer1`` holds ``spec.loc_cells`` cells (one for stacked, one per
    location for st_stacked); layer 2 always consumes an n1-wide input.
    """

    layer1: list[CellParams]
    layer2: CellParams
    w_dense: np.ndarray
    b_dense: np.ndarray  # shape (1,), kept as an array so optimizers update in place

    def tensors(self):
        """Yield (name, array) in canonical order: layer-1 cells, layer 2, head."""
        if len(self.layer1) == 1:
            for name, arr in self.layer1[0].tensors():
                yield f"layer1.{name}", arr
        else:
            for k, cell in enumerate(self.layer1):
                for name, arr in cell.tensors():
                    yield f"layer1.loc{k}.{name}", arr
        for name, arr in self.layer2.tensors():
            yield f"layer2.{name}", arr
        yield "head.w_dense", self.w_dense
        yield "head.b_dense", self.b_dense

    def copy(self) -> "ModelParams":
        return ModelParams(
            layer1=[c.copy() for c in self.layer1],
            layer2=self.layer2.copy(),
            w_dense=self.w_dense.copy(),
            b_dense=self.b_dense.copy(),
        )


def is_penalized(name: str) -> bool:
    """L2 regularization covers weight matrices and peepholes, never biases."""
    leaf = name.rsplit(".", 1)[-1]
    return not leaf.startswith("b_")


def check_params(spec: ModelSpec, params: ModelParams) -> None:
    """Validate a caller's model once, where it enters (not on every batch)."""
    spec.validate()
    if len(params.layer1) != spec.loc_cells:
        raise ShapeError(
            f"spec expects {spec.loc_cells} layer-1 cell(s), params carry {len(params.layer1)}"
        )
    for k, cell in enumerate(params.layer1):
        if cell.n != spec.loc_neurons or cell.d != spec.loc_inputs:
            raise ShapeError(
                f"layer-1 cell {k} is ({cell.n} x {cell.d}), spec expects "
                f"({spec.loc_neurons} x {spec.loc_inputs})"
            )
        cell.validate()
    if params.layer2.n != spec.n2 or params.layer2.d != spec.n1:
        raise ShapeError(
            f"layer-2 cell is ({params.layer2.n} x {params.layer2.d}), spec expects "
            f"({spec.n2} x {spec.n1})"
        )
    params.layer2.validate()
    if params.w_dense.shape != (spec.n2,):
        raise ShapeError(f"w_dense has shape {params.w_dense.shape}, expected ({spec.n2},)")
    if params.b_dense.shape != (1,):
        raise ShapeError(f"b_dense has shape {params.b_dense.shape}, expected (1,)")


def init_model_params(spec: ModelSpec, rng: np.random.Generator,
                      forget_bias_init: bool = False) -> ModelParams:
    """Draw fresh parameters in canonical tensor order (reproducible per rng)."""
    fb = 1.0 if forget_bias_init else 0.0
    layer1 = [init_cell_params(spec.loc_neurons, spec.loc_inputs, rng, fb)
              for _ in range(spec.loc_cells)]
    layer2 = init_cell_params(spec.n2, spec.n1, rng, fb)
    r = 1.0 / np.sqrt(spec.n2)
    w_dense = rng.uniform(-r, r, size=spec.n2)
    return ModelParams(layer1=layer1, layer2=layer2, w_dense=w_dense, b_dense=np.zeros(1))


def zero_model_params(spec: ModelSpec) -> ModelParams:
    """All-zero parameters (gradient accumulators, degenerate models)."""
    layer1 = [CellParams.zeros(spec.loc_neurons, spec.loc_inputs) for _ in range(spec.loc_cells)]
    return ModelParams(layer1=layer1, layer2=CellParams.zeros(spec.n2, spec.n1),
                       w_dense=np.zeros(spec.n2), b_dense=np.zeros(1))


def random_model_params(spec: ModelSpec, rng: np.random.Generator,
                        scale: float = 0.5) -> ModelParams:
    """Every tensor uniform on [-scale, scale]; used by oracles and tests."""
    params = zero_model_params(spec)
    for _, arr in params.tensors():
        arr[...] = rng.uniform(-scale, scale, size=arr.shape)
    return params


def dense_head(h: np.ndarray, w_dense: np.ndarray, b_dense: np.ndarray):
    """yhat = w_dense . h + b_dense on the final hidden state."""
    return h @ w_dense + b_dense[0]


@dataclass
class ModelTrace:
    """Memoized intermediates of model_forward, consumed by model_backward."""

    layer1: list[list[StepTrace]]  # one trace list per layer-1 cell
    layer2: list[StepTrace]


def _split_window(spec: ModelSpec, window) -> list[np.ndarray]:
    xs = [np.asarray(x, dtype=np.float64) for x in window]
    if len(xs) != spec.seq_len:
        raise ShapeError(f"window has {len(xs)} steps, spec.seq_len is {spec.seq_len}")
    for x in xs:
        if x.shape[-1] != spec.input_dim:
            raise ShapeError(
                f"window step has length {x.shape[-1]}, expected "
                f"locations*vars_per_location = {spec.input_dim}"
            )
    return xs


def model_forward(spec: ModelSpec, params: ModelParams, window
                  ) -> tuple[np.ndarray | float, ModelTrace]:
    """Run a T-step window through layer 1, layer 2, and the head.

    ``window`` is a sequence of T input vectors of length
    locations*vars_per_location (or (B, .) batches of them). Returns the
    raw-scale prediction(s) and the full trace. Only the final layer-2
    hidden state reaches the head. ``params`` are trusted to match
    ``spec``; ``check_params`` validates a model where it comes in.
    """
    xs = _split_window(spec, window)
    d = spec.loc_inputs
    l1_traces = []
    for k, cell in enumerate(params.layer1):
        traces, _ = sequence_forward(cell, [x[..., k * d:(k + 1) * d] for x in xs],
                                     spec.activation)
        l1_traces.append(traces)
    # concatenate hidden states in manifest order at every step
    h1_seq = [np.concatenate([traces[t].h for traces in l1_traces], axis=-1)
              for t in range(spec.seq_len)]

    l2_traces, l2_final = sequence_forward(params.layer2, h1_seq, spec.activation)
    pred = dense_head(l2_final.h, params.w_dense, params.b_dense)
    if np.ndim(pred) == 0:
        pred = float(pred)
    return pred, ModelTrace(layer1=l1_traces, layer2=l2_traces)


def model_backward(spec: ModelSpec, params: ModelParams, trace: ModelTrace,
                   dy) -> ModelParams:
    """Gradients of a scalar loss w.r.t. every parameter.

    ``dy`` is the loss gradient on the prediction(s): a scalar for a
    single window, shape (B,) for a batch. Returns a ModelParams-shaped
    container of gradients.
    """
    if len(trace.layer2) != spec.seq_len:
        raise ShapeError(
            f"trace has {len(trace.layer2)} layer-2 steps, spec.seq_len is {spec.seq_len}"
        )
    dy = np.asarray(dy, dtype=np.float64)
    h2_final = trace.layer2[-1].h
    if dy.shape != h2_final.shape[:-1]:
        raise ShapeError(
            f"loss gradient has shape {dy.shape}, predictions have shape {h2_final.shape[:-1]}"
        )

    g_w_dense = dy * h2_final if dy.ndim == 0 else h2_final.T @ dy
    g_b_dense = np.atleast_1d(np.sum(dy))
    dh2_final = np.multiply.outer(dy, params.w_dense)

    # head touches only the final step; earlier layer-2 h-grads are zero
    dh2_seq = [np.zeros_like(tr.h) for tr in trace.layer2]
    dh2_seq[-1] = dh2_seq[-1] + dh2_final
    l2_grads, dh1_seq, _ = cell_backward(params.layer2, trace.layer2, dh2_seq,
                                         spec.activation)

    n = spec.loc_neurons
    l1_grads = []
    for k, cell in enumerate(params.layer1):
        dh_k = [dh1[..., k * n:(k + 1) * n] for dh1 in dh1_seq]
        gk, _, _ = cell_backward(cell, trace.layer1[k], dh_k, spec.activation)
        l1_grads.append(gk)

    return ModelParams(layer1=l1_grads, layer2=l2_grads,
                       w_dense=g_w_dense, b_dense=g_b_dense)


def block_diagonal_embed(spec: ModelSpec, params: ModelParams
                         ) -> tuple[ModelSpec, ModelParams]:
    """Rewrite an st_stacked model as an exactly equivalent stacked one.

    Layer-1 input matrices become block-diagonal (n1 x c*m) with block k
    the location-k cell's matrix; recurrent matrices block-diagonal
    (n1 x n1); peepholes and biases are concatenated in location order.
    Layer 2 and the head are copied verbatim, so the two models agree on
    every input.
    """
    check_params(spec, params)
    if spec.kind != "st_stacked":
        raise ConfigError("block_diagonal_embed expects an st_stacked model")
    c, m, nc = spec.locations, spec.vars_per_location, spec.loc_neurons

    big = CellParams.zeros(spec.n1, spec.input_dim)
    for name in CELL_TENSOR_NAMES:
        target = getattr(big, name)
        for k, cell in enumerate(params.layer1):
            block = getattr(cell, name)
            rows = slice(k * nc, (k + 1) * nc)
            if name.startswith("W_x"):
                target[rows, k * m:(k + 1) * m] = block
            elif name.startswith("W_h"):
                target[rows, k * nc:(k + 1) * nc] = block
            else:
                target[rows] = block

    out_spec = ModelSpec(kind="stacked", locations=c, vars_per_location=m,
                         n1=spec.n1, n2=spec.n2, activation=spec.activation,
                         seq_len=spec.seq_len, horizon=spec.horizon)
    out_params = ModelParams(layer1=[big], layer2=params.layer2.copy(),
                             w_dense=params.w_dense.copy(), b_dense=params.b_dense.copy())
    return out_spec, out_params


def param_count(spec: ModelSpec) -> dict:
    """Closed-form parameter counts per component.

    Per cell with n neurons and input width d: 4 input matrices (n*d),
    4 recurrent matrices (n*n), 3 peepholes (n), 4 biases (n).
    """
    c, m, n1, n2 = spec.locations, spec.vars_per_location, spec.n1, spec.n2
    if spec.kind == "st_stacked":
        layer1 = 4 * n1 * m + 4 * n1 * n1 // c + 3 * n1 + 4 * n1
    else:
        layer1 = 4 * n1 * (c * m) + 4 * n1 * n1 + 3 * n1 + 4 * n1
    layer2 = 4 * n2 * n1 + 4 * n2 * n2 + 3 * n2 + 4 * n2
    head = n2 + 1
    return {"layer1": layer1, "layer2": layer2, "head": head,
            "total": layer1 + layer2 + head}
