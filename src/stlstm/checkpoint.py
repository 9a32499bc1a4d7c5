"""Text checkpoint format with bit-exact round trips.

Layout:

    stlstm-checkpoint v1
    kind=stacked locations=5 vars_per_location=3 n1=20 n2=32 activation=tanh seq_len=10 horizon=1
    layer1.W_xi 20 15
    <one decimal value per line, rows*cols of them, row-major>
    ...

Vectors are written as (len x 1) records, the head bias as (1 x 1).
Values use Python's shortest round-trip decimal repr, so
save -> load -> save is byte-identical.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import (
    CheckpointFormatError,
    CheckpointShapeError,
    CheckpointVersionError,
    ConfigError,
    NonFiniteModelError,
)
from .cell import CELL_TENSOR_NAMES
from .model import SPEC_FIELDS, ModelParams, ModelSpec, param_count, parse_field, zero_model_params

HEADER = "stlstm-checkpoint v1"


def _spec_line(spec: ModelSpec) -> str:
    return " ".join(f"{name}={getattr(spec, name)}" for name in SPEC_FIELDS)


def _parse_spec_line(line: str) -> ModelSpec:
    kv = {}
    for token in line.split():
        if "=" not in token:
            raise CheckpointFormatError(f"bad spec token {token!r} in checkpoint")
        key, value = token.split("=", 1)
        kv[key] = value
    missing = [name for name in SPEC_FIELDS if name not in kv]
    if missing:
        raise CheckpointFormatError(f"checkpoint spec line is missing {missing}")
    extra = [key for key in kv if key not in SPEC_FIELDS]
    if extra:
        raise CheckpointFormatError(f"checkpoint spec line has unknown keys {extra}")
    try:
        return ModelSpec(**{k: parse_field(SPEC_FIELDS, k, v) for k, v in kv.items()})
    except ConfigError as exc:
        raise CheckpointFormatError(f"checkpoint spec is invalid: {exc}") from exc


def save_checkpoint(spec: ModelSpec, params: ModelParams, path) -> None:
    """Write ``path`` atomically; a non-finite value is refused before any file is opened."""
    lines = [HEADER, _spec_line(spec)]
    for name, arr in params.tensors():
        if arr.ndim == 1:
            rows, cols = arr.shape[0], 1
        else:
            rows, cols = arr.shape
        values = arr.ravel()
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise NonFiniteModelError(
                f"{path}: refusing to save non-finite value {float(values[bad[0]])!r} "
                f"at flat index {bad[0]} of tensor {name}"
            )
        lines.append(f"{name} {rows} {cols}")
        lines.extend(repr(float(v)) for v in values)
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    os.replace(tmp, path)


def load_checkpoint(path) -> tuple[ModelSpec, ModelParams]:
    """Parse and validate a checkpoint; never returns a partial model."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise CheckpointFormatError(f"{path}: not a text checkpoint ({exc.reason})") from exc
    if not lines:
        raise CheckpointFormatError(f"{path}: empty checkpoint file")
    if lines[0] != HEADER:
        if lines[0].startswith("stlstm-checkpoint"):
            raise CheckpointVersionError(
                f"{path}: unsupported checkpoint version {lines[0]!r}, expected {HEADER!r}"
            )
        raise CheckpointFormatError(f"{path}: not a checkpoint (first line {lines[0]!r})")
    if len(lines) < 2:
        raise CheckpointFormatError(f"{path}: truncated before the spec line")
    spec = _parse_spec_line(lines[1])
    # a header line per tensor (layer-1 cells, layer 2, the two head tensors)
    # and a line per value; checked before allocating, so a corrupt spec
    # line cannot request a huge model
    n_tensors = len(CELL_TENSOR_NAMES) * (spec.loc_cells + 1) + 2
    needed = 2 + n_tensors + param_count(spec)["total"]
    if len(lines) < needed:
        raise CheckpointFormatError(
            f"{path}: truncated: the spec implies {needed} lines, the file has {len(lines)}"
        )

    params = zero_model_params(spec)
    pos = 2
    for name, arr in params.tensors():
        fields = lines[pos].split()
        if len(fields) != 3:
            raise CheckpointFormatError(
                f"{path}:{pos + 1}: expected 'name rows cols', got {lines[pos]!r}"
            )
        got_name, rows_s, cols_s = fields
        if got_name != name:
            raise CheckpointShapeError(
                f"{path}:{pos + 1}: tensor {got_name!r} out of order, expected {name!r}"
            )
        try:
            rows, cols = int(rows_s), int(cols_s)
        except ValueError as exc:
            raise CheckpointFormatError(f"{path}:{pos + 1}: bad tensor header: {exc}") from exc
        want = (arr.shape[0], 1) if arr.ndim == 1 else arr.shape
        if (rows, cols) != want:
            raise CheckpointShapeError(
                f"{path}:{pos + 1}: tensor {name} is {rows}x{cols}, spec implies "
                f"{want[0]}x{want[1]}"
            )
        count = rows * cols
        pos += 1
        try:
            values = np.array(lines[pos:pos + count], dtype=np.float64)
        except ValueError as exc:
            raise CheckpointFormatError(f"{path}: bad value in tensor {name}: {exc}") from exc
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise CheckpointFormatError(
                f"{path}:{pos + bad[0] + 1}: non-finite value {lines[pos + bad[0]]!r} "
                f"in tensor {name}"
            )
        arr[...] = values.reshape(arr.shape)
        pos += count
    if any(line.strip() for line in lines[pos:]):
        raise CheckpointFormatError(f"{path}: trailing data after the last tensor")
    return spec, params
