"""Checkpoint files: a readable header, binary values, one CRC, bit-exact round trips.

Format v3, the one ``save_checkpoint`` writes and ``load_checkpoint`` reads:

    stlstm-checkpoint v3
    kind=stacked locations=5 vars_per_location=3 n1=20 n2=32 activation=tanh seq_len=10 horizon=1
    values 78824 <crc32 as 8 hex digits>
    <ModelParams.flat as little-endian float64, to the end of the file>

The byte count must be 8 times the spec's parameter count. The CRC-32
covers every byte before the ``values`` line, then the values, so a
change to any one bit of the file is refused. A first line naming
another version (v2 checked only the values; v1 was text) is a
``CheckpointVersionError``; any other first line is not a checkpoint.

save -> load -> save is byte-identical. A model that does not match its
spec, or that holds a non-finite value, is refused on save before any
file is opened; a non-finite value is also refused on load, named by its
tensor and flat index (``ModelParams.first_non_finite``).
"""

from __future__ import annotations

import re
import zlib

import numpy as np

from .errors import (
    CheckpointFormatError,
    CheckpointVersionError,
    ConfigError,
    NonFiniteModelError,
    write_file,
)
from .model import (
    SPEC_FIELDS,
    ModelParams,
    ModelSpec,
    check_params,
    param_count,
    parse_field,
    zero_model_params,
)

HEADER = "stlstm-checkpoint v3"
VALUE_DTYPE = np.dtype("<f8")


def _parse_spec_line(line: str) -> ModelSpec:
    kv = {}
    for token in line.split():
        if "=" not in token:
            raise CheckpointFormatError(f"bad spec token {token!r} in checkpoint")
        key, value = token.split("=", 1)
        if key in kv:
            raise CheckpointFormatError(f"checkpoint spec line repeats key {key!r}")
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
    """Write ``path`` atomically; a model that does not match ``spec`` or is not finite is
    refused before any file is opened."""
    check_params(spec, params)
    bad = params.first_non_finite()
    if bad:
        name, index, value = bad
        raise NonFiniteModelError(
            f"{path}: refusing to save non-finite value {value!r} "
            f"at flat index {index} of tensor {name}"
        )
    values = np.ascontiguousarray(params.flat, dtype=VALUE_DTYPE)
    spec_line = " ".join(f"{name}={getattr(spec, name)}" for name in SPEC_FIELDS)
    head = f"{HEADER}\n{spec_line}\n".encode("ascii")
    crc = zlib.crc32(values, zlib.crc32(head))
    write_file(path, head + f"values {values.nbytes} {crc:08x}\n".encode("ascii"), values)


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
    spec_end = data.find(b"\n", end + 1)
    values_end = data.find(b"\n", spec_end + 1) if spec_end >= 0 else -1
    if values_end < 0:
        raise CheckpointFormatError(f"{path}: truncated in the header")
    line = data[spec_end + 1:values_end]
    match = re.fullmatch(rb"values ([0-9]{1,18}) ([0-9a-f]{8})", line)
    if match is None:
        raise CheckpointFormatError(
            f"{path}:3: expected 'values <byte count> <crc32 as 8 hex digits>', got {line!r}"
        )
    n_bytes, crc = int(match[1]), int(match[2], 16)
    blob = memoryview(data)[values_end + 1:]
    if len(blob) < n_bytes:
        raise CheckpointFormatError(
            f"{path}: truncated: {n_bytes} value bytes declared, the file holds {len(blob)}"
        )
    if len(blob) > n_bytes:
        raise CheckpointFormatError(
            f"{path}: trailing data: {len(blob) - n_bytes} bytes after the last value"
        )
    got_crc = zlib.crc32(blob, zlib.crc32(memoryview(data)[:spec_end + 1]))
    if got_crc != crc:
        raise CheckpointFormatError(
            f"{path}: the header and values fail their CRC-32 check "
            f"(values line {crc:08x}, file {got_crc:08x})"
        )

    # any non-ASCII byte becomes U+FFFD, which no spec field accepts
    spec = _parse_spec_line(data[end + 1:spec_end].decode("ascii", "replace"))
    # checked before allocating: a spec line sealed under a fresh CRC may name any size
    want = VALUE_DTYPE.itemsize * param_count(spec)["total"]
    if n_bytes != want:
        raise CheckpointFormatError(
            f"{path}:3: the spec implies {want} value bytes, the header declares {n_bytes}"
        )
    params = zero_model_params(spec)
    params.flat[...] = np.frombuffer(blob, dtype=VALUE_DTYPE)
    bad = params.first_non_finite()
    if bad:
        name, index, value = bad
        raise CheckpointFormatError(
            f"{path}: non-finite value {value!r} at flat index {index} of tensor {name}"
        )
    return spec, params
