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
``stacked`` is the single-cell case. The layer engine in ``cell`` runs
all of a layer's cells at once, on tensors packed into the model's one
flat parameter buffer (``ModelParams``).
The model runs B windows at once, time-major (T, B, c*m); ``model_forward``,
``predict_batch`` and ``train_once`` check that shape once, where it enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .cell import (
    CellParams,
    LayerParams,
    LayerTrace,
    Workspace,
    as_layer_input,
    check_activation,
    init_cell_into,
    layer_backward,
    layer_forward,
    # not called here: benchmarks/workloads.py:instrument wraps model.sequence_forward by name
    sequence_forward,  # noqa: F401
)
from .errors import ConfigError, ShapeError, check_indexable

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


@dataclass(frozen=True)
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


class ModelParams:
    """Full trainable parameter set for either kind, in one flat float64 buffer.

    ``flat`` holds the penalized tensors first -- layer 1's and layer 2's
    input matrices, recurrent matrices and peepholes, then ``w_dense`` --
    and the biases after them, so ``penalized`` (``flat[:n_penalized]``)
    is exactly what the L2 term covers. ``l1`` (``spec.loc_cells`` cells)
    and ``l2`` (one cell) are the packed layers the engine runs;
    ``layer1`` (one CellParams per layer-1 cell), ``layer2``, ``w_dense``
    and ``b_dense`` (shape (1,)) are per-gate views into the same buffer,
    so a write through any of them is a write to the model. Built from
    loose cells, the model copies their values into a buffer of its own.
    """

    def __init__(self, layer1: list[CellParams], layer2: CellParams,
                 w_dense: np.ndarray, b_dense: np.ndarray):
        l1, l2 = LayerParams.pack(list(layer1)), LayerParams.pack([layer2])
        for name, arr, want in (("w_dense", w_dense, (l2.n,)), ("b_dense", b_dense, (1,))):
            if np.shape(arr) != want:
                raise ShapeError(f"{name} has shape {np.shape(arr)}, expected {want}")
        self._carve((l1.K, l1.n, l1.d, l2.n, l2.d))
        for dst, src in zip(self.l1.arrays() + self.l2.arrays(), l1.arrays() + l2.arrays()):
            dst[...] = src
        self.w_dense[...] = w_dense
        self.b_dense[...] = b_dense

    @classmethod
    def from_flat(cls, layout: tuple, flat: np.ndarray | None = None) -> "ModelParams":
        """A model whose tensors are views into ``flat`` (zeros by default).

        ``layout`` is (K, n, d, n2, d2): K layer-1 cells of n neurons
        reading d inputs each, and a layer 2 of n2 neurons reading d2.
        """
        params = cls.__new__(cls)
        params._carve(layout, flat)
        return params

    def _carve(self, layout: tuple, flat: np.ndarray | None = None) -> None:
        K, n, d, n2, d2 = layout
        shapes = [(K, 4 * n, d), (K, 4 * n, n), (K, 3, n),         # penalized
                  (1, 4 * n2, d2), (1, 4 * n2, n2), (1, 3, n2), (n2,),
                  (K, 4 * n), (1, 4 * n2), (1,)]                     # biases
        sizes = [math.prod(shape) for shape in shapes]
        if flat is None:
            flat = np.zeros(sum(sizes))
        parts, end = [], 0
        for shape, size in zip(shapes, sizes):
            parts.append(flat[end:end + size].reshape(shape))
            end += size
        self.flat, self.layout = flat, layout
        self.n_penalized = sum(sizes[:7])
        self.penalized = flat[:self.n_penalized]
        self.l1 = LayerParams(Wx=parts[0], Wh=parts[1], wc=parts[2], b=parts[7])
        self.l2 = LayerParams(Wx=parts[3], Wh=parts[4], wc=parts[5], b=parts[8])
        self.w_dense, self.b_dense = parts[6], parts[9]

    # per-gate views, built on first use: gradient models rarely need them
    @cached_property
    def layer1(self) -> list[CellParams]:
        return [self.l1.cell(k) for k in range(self.l1.K)]

    @cached_property
    def layer2(self) -> CellParams:
        return self.l2.cell(0)

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

    def first_non_finite(self) -> tuple[str, int, float] | None:
        """The first NaN or infinity in ``tensors()`` order, as (tensor name, flat
        index within that tensor, value), or None if every value is finite."""
        # min and max show any NaN or infinity without allocating
        if math.isfinite(self.flat.min()) and math.isfinite(self.flat.max()):
            return None
        for name, arr in self.tensors():
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                return name, int(bad[0]), float(arr.flat[bad[0]])

    def copy(self) -> "ModelParams":
        return ModelParams.from_flat(self.layout, self.flat.copy())


def is_penalized(name: str) -> bool:
    """L2 regularization covers weight matrices and peepholes, never biases."""
    leaf = name.rsplit(".", 1)[-1]
    return not leaf.startswith("b_")


def check_params(spec: ModelSpec, params: ModelParams) -> None:
    """Validate a caller's model once, where it enters (a frozen spec is checked when built)."""
    K, n, d, n2, d2 = params.layout
    if K != spec.loc_cells:
        raise ShapeError(f"spec expects {spec.loc_cells} layer-1 cell(s), params carry {K}")
    if (n, d) != (spec.loc_neurons, spec.loc_inputs):
        raise ShapeError(
            f"layer-1 cells are ({n} x {d}), spec expects "
            f"({spec.loc_neurons} x {spec.loc_inputs})"
        )
    if (n2, d2) != (spec.n2, spec.n1):
        raise ShapeError(f"layer-2 cell is ({n2} x {d2}), spec expects ({spec.n2} x {spec.n1})")


def init_model_params(spec: ModelSpec, rng: np.random.Generator,
                      forget_bias_init: bool = False) -> ModelParams:
    """Draw fresh parameters in canonical tensor order (reproducible per rng)."""
    fb = 1.0 if forget_bias_init else 0.0
    params = zero_model_params(spec)
    for cell in params.layer1 + [params.layer2]:
        init_cell_into(cell, rng, fb)
    r = 1.0 / np.sqrt(spec.n2)
    params.w_dense[...] = rng.uniform(-r, r, size=spec.n2)
    return params


def zero_model_params(spec: ModelSpec) -> ModelParams:
    """All-zero parameters (gradient accumulators, degenerate models)."""
    total = param_count(spec)["total"]
    check_indexable(total, ConfigError, f"locations={spec.locations}, vars_per_location="
                    f"{spec.vars_per_location}, n1={spec.n1} and n2={spec.n2} give {total} "
                    "parameters, more than numpy can index")
    return ModelParams.from_flat(
        (spec.loc_cells, spec.loc_neurons, spec.loc_inputs, spec.n2, spec.n1))


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

    layer1: LayerTrace  # all spec.loc_cells layer-1 cells, stacked
    layer2: LayerTrace
    ws: Workspace       # the forward's workspace, which model_backward then uses

    @property
    def final_hidden(self) -> np.ndarray:
        """The last layer-2 hidden state of each window, (B, n2)."""
        return self.layer2.h[-1, 0]


def _forward(spec: ModelSpec, params: ModelParams, X: np.ndarray, keep_trace: bool, ws: Workspace):
    """The model on a (T, B, input_dim) float64 batch, whose shape its caller has checked."""
    T, B = X.shape[:2]
    # layer-1 cell k reads input slice k: (T, B, K*d) -> (K, T, B, d). Only a
    # trace needs it contiguous; a view lets the engine see windows that share rows
    X1 = X.reshape(T, B, spec.loc_cells, spec.loc_inputs).transpose(2, 0, 1, 3)
    if keep_trace:
        X1 = ws.contiguous("x1", X1)
    h1, _, trace1 = layer_forward(params.l1, X1, spec.activation, keep_trace=keep_trace,
                                  ws=Workspace(ws.buffers, "l1"))
    # layer 2 reads the cells' hidden states side by side, in manifest order:
    # (T, K, B, n) -> (1, T, B, K*n)
    X2 = ws.contiguous("x2", h1.transpose(0, 2, 1, 3)).reshape(1, T, B, spec.n1)
    _, final, trace2 = layer_forward(params.l2, X2, spec.activation, keep_trace=keep_trace,
                                     ws=Workspace(ws.buffers, "l2"))
    pred = dense_head(final.h[0], params.w_dense, params.b_dense)
    return pred, (ModelTrace(trace1, trace2, ws) if keep_trace else None)


def model_forward(spec: ModelSpec, params: ModelParams, window) -> tuple[np.ndarray, ModelTrace]:
    """Run a batch of B T-step windows through layer 1, layer 2, and the head.

    ``window`` is a (T, B, locations*vars_per_location) array or a list
    of its T (B, .) steps, checked here (ShapeError). Returns the B
    raw-scale predictions and the full trace, which owns the fresh
    workspace the forward ran in. Only the final layer-2 hidden state
    reaches the head. ``params`` are trusted to match ``spec``;
    ``check_params`` validates a model where it comes in.
    """
    X = as_layer_input(window, spec.input_dim)[0]
    if X.shape[0] != spec.seq_len:
        raise ShapeError(f"window has {X.shape[0]} steps, spec.seq_len is {spec.seq_len}")
    return _forward(spec, params, X, keep_trace=True, ws=Workspace())


def model_backward(spec: ModelSpec, params: ModelParams, trace: ModelTrace, dy) -> ModelParams:
    """Gradients of a scalar loss w.r.t. every parameter.

    ``dy`` is the loss gradient on the trace's B predictions, shape (B,).
    Returns a ModelParams of gradients, laid out like ``params``, written
    into the trace's workspace, where they live until that workspace's
    next pass.
    """
    T, B = trace.layer2.x.shape[1:3]
    if T != spec.seq_len:
        raise ShapeError(f"trace has {T} layer-2 steps, spec.seq_len is {spec.seq_len}")
    dy = np.asarray(dy, dtype=np.float64)
    if dy.shape != (B,):
        raise ShapeError(f"loss gradient has shape {dy.shape}, predictions have shape {(B,)}")

    # every gradient is written below, so the buffer needs no zeroing
    grads = ModelParams.from_flat(params.layout, trace.ws.take("grads", params.flat.shape))
    grads.w_dense[...] = trace.final_hidden.T @ dy
    grads.b_dense[0] = np.sum(dy)
    # head touches only the final step; earlier layer-2 h-grads are zero
    dH2 = trace.ws.take("dH2", (T, 1, B, spec.n2))
    dH2[:-1] = 0.0
    dH2[-1, 0] = np.multiply.outer(dy, params.w_dense)
    _, dX2, _ = layer_backward(params.l2, trace.layer2, dH2, spec.activation, grads=grads.l2,
                               ws=trace.ws)
    # (1, T, B, K*n) -> (T, K, B, n): each layer-1 cell's slice of layer 2's input gradient
    dH1 = dX2[0].reshape(T, B, spec.loc_cells, spec.loc_neurons).transpose(0, 2, 1, 3)
    layer_backward(params.l1, trace.layer1, dH1, spec.activation, grads=grads.l1,
                   need_dx=False, ws=trace.ws)
    return grads


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

    src = params.l1
    big = LayerParams.zeros(1, spec.n1, spec.input_dim)
    # gate rows g*n1 + k*nc .. : (4n1, .) seen as (4, c, nc, .)
    Wx = big.Wx[0].reshape(4, c, nc, c, m)
    Wh = big.Wh[0].reshape(4, c, nc, c, nc)
    for k in range(c):
        Wx[:, k, :, k, :] = src.Wx[k].reshape(4, nc, m)
        Wh[:, k, :, k, :] = src.Wh[k].reshape(4, nc, nc)
    big.b[0].reshape(4, c, nc)[...] = src.b.reshape(c, 4, nc).transpose(1, 0, 2)
    big.wc[0].reshape(3, c, nc)[...] = src.wc.transpose(1, 0, 2)

    out_spec = replace(spec, kind="stacked")
    out_params = ModelParams(layer1=[big.cell(0)], layer2=params.layer2,
                             w_dense=params.w_dense, b_dense=params.b_dense)
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
