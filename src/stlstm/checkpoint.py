"""Checkpoint files: a readable header, binary values, bit-exact round trips.

Format v2, the one ``save_checkpoint`` writes and ``load_checkpoint`` reads:

    stlstm-checkpoint v2
    kind=stacked locations=5 vars_per_location=3 n1=20 n2=32 activation=tanh seq_len=10 horizon=1
    layer1.W_xi 20 15
    <one 'name rows cols' line per tensor, in canonical order>
    values 78824 <crc32 as 8 hex digits>
    <the values: little-endian float64, to the end of the file>

The ``values`` line gives the byte count of the values, which must be
8 times the spec's parameter count, and their CRC-32 as 8 hex digits.
The values follow it directly, tensor after tensor in header order, each
tensor row-major, with nothing after them. Vectors are written as
(len x 1) tensors, the head bias as (1 x 1). A v2 file is text up to the
end of the ``values`` line and binary after it.

A file whose first line is any other ``stlstm-checkpoint vN``, such as
v1 (the text format written before v2), is a ``CheckpointVersionError``;
any other first line is not a checkpoint.

save -> load -> save is byte-identical, and a non-finite value is refused
on save (before any file is opened) and on load, named by its tensor and
flat index (``ModelParams.first_non_finite``).
"""

from __future__ import annotations

import os
import re
import zlib

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

HEADER = "stlstm-checkpoint v2"
VALUE_DTYPE = np.dtype("<f8")


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


def _n_tensors(spec: ModelSpec) -> int:
    """A tensor per cell tensor (layer-1 cells, layer 2) and the two head tensors."""
    return len(CELL_TENSOR_NAMES) * (spec.loc_cells + 1) + 2


def _record_shape(arr: np.ndarray) -> tuple[int, int]:
    return (arr.shape[0], 1) if arr.ndim == 1 else arr.shape


def save_checkpoint(spec: ModelSpec, params: ModelParams, path) -> None:
    """Write ``path`` atomically; a non-finite value is refused before any file is opened."""
    bad = params.first_non_finite()
    if bad:
        name, index, value = bad
        raise NonFiniteModelError(
            f"{path}: refusing to save non-finite value {value!r} "
            f"at flat index {index} of tensor {name}"
        )
    tensors = list(params.tensors())
    values = np.concatenate([arr.ravel() for _, arr in tensors])
    blob = values.astype(VALUE_DTYPE, copy=False).tobytes()
    lines = [HEADER, _spec_line(spec)]
    lines.extend("{} {} {}".format(name, *_record_shape(arr)) for name, arr in tensors)
    lines.append(f"values {len(blob)} {zlib.crc32(blob):08x}")
    tmp = f"{path}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(("\n".join(lines) + "\n").encode("ascii"))
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def load_checkpoint(path) -> tuple[ModelSpec, ModelParams]:
    """Parse and validate a checkpoint; never returns a partial model."""
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.find(b"\n")
    first = data[:end] if end >= 0 else data
    if first != HEADER.encode():
        shown = first.decode("utf-8", "replace")
        if first.startswith(b"stlstm-checkpoint"):
            raise CheckpointVersionError(
                f"{path}: unsupported checkpoint version {shown!r}, only {HEADER!r} is read"
            )
        raise CheckpointFormatError(f"{path}: not a checkpoint (first line {shown!r})")
    pos = len(first) + 1

    def lines(count: int, lineno: int) -> list[str]:
        # ``count`` header lines from ``pos``; stops at the end of the file,
        # so a corrupt spec cannot make this loop run long
        nonlocal pos
        out = []
        for _ in range(count):
            end = data.find(b"\n", pos)
            if end < 0:
                raise CheckpointFormatError(
                    f"{path}: truncated in the header at line {lineno + len(out)}"
                )
            try:
                out.append(data[pos:end].decode("ascii"))
            except UnicodeDecodeError as exc:
                raise CheckpointFormatError(
                    f"{path}:{lineno + len(out)}: header line is not ASCII ({exc.reason})"
                ) from exc
            pos = end + 1
        return out

    spec = _parse_spec_line(lines(1, 2)[0])
    n_tensors = _n_tensors(spec)
    records = lines(n_tensors + 1, 3)
    values_lineno = 3 + n_tensors
    line = records.pop()
    match = re.fullmatch(r"values ([0-9]{1,18}) ([0-9a-f]{8})", line.strip())
    if match is None:
        raise CheckpointFormatError(
            f"{path}:{values_lineno}: expected 'values <byte count> <crc32 as 8 hex digits>' "
            f"after {n_tensors} tensor headers, got {line!r}"
        )
    n_bytes, crc = int(match[1]), int(match[2], 16)
    # checked before allocating, so a corrupt spec line cannot request a huge model
    want = VALUE_DTYPE.itemsize * param_count(spec)["total"]
    if n_bytes != want:
        raise CheckpointFormatError(
            f"{path}:{values_lineno}: the spec implies {want} value bytes, "
            f"the header declares {n_bytes}"
        )
    blob = memoryview(data)[pos:]
    if len(blob) < n_bytes:
        raise CheckpointFormatError(
            f"{path}: truncated: {n_bytes} value bytes declared, the file holds {len(blob)}"
        )
    if len(blob) > n_bytes:
        raise CheckpointFormatError(
            f"{path}: trailing data: {len(blob) - n_bytes} bytes after the last value"
        )
    got_crc = zlib.crc32(blob)
    if got_crc != crc:
        raise CheckpointFormatError(
            f"{path}: the values fail their CRC-32 check (header {crc:08x}, "
            f"values {got_crc:08x})"
        )

    params = zero_model_params(spec)
    values = np.frombuffer(blob, dtype=VALUE_DTYPE)
    start = 0
    for lineno, line, (name, arr) in zip(range(3, values_lineno), records, params.tensors()):
        _check_record(path, lineno, line, name, arr)
        arr[...] = values[start:start + arr.size].reshape(arr.shape)
        start += arr.size
    bad = params.first_non_finite()
    if bad:
        name, index, value = bad
        raise CheckpointFormatError(
            f"{path}: non-finite value {value!r} at flat index {index} of tensor {name}"
        )
    return spec, params


def _check_record(path, lineno: int, line: str, name: str, arr: np.ndarray) -> None:
    """A ``name rows cols`` tensor header must match the spec's next tensor."""
    fields = line.split()
    if len(fields) != 3:
        raise CheckpointFormatError(f"{path}:{lineno}: expected 'name rows cols', got {line!r}")
    got_name, rows_s, cols_s = fields
    if got_name != name:
        raise CheckpointShapeError(
            f"{path}:{lineno}: tensor {got_name!r} out of order, expected {name!r}"
        )
    try:
        rows, cols = int(rows_s), int(cols_s)
    except ValueError as exc:
        raise CheckpointFormatError(f"{path}:{lineno}: bad tensor header: {exc}") from exc
    want = _record_shape(arr)
    if (rows, cols) != want:
        raise CheckpointShapeError(
            f"{path}:{lineno}: tensor {name} is {rows}x{cols}, spec implies "
            f"{want[0]}x{want[1]}"
        )
