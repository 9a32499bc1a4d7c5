"""Build checkpoint files by hand: the old v1 text format, and edited v2 files."""

import zlib

from stlstm.model import SPEC_FIELDS


def write_v1(spec, params, path) -> None:
    """Write ``params`` in format v1: a header line per tensor, then one decimal value per line."""
    lines = ["stlstm-checkpoint v1", " ".join(f"{k}={getattr(spec, k)}" for k in SPEC_FIELDS)]
    for name, arr in params.tensors():
        rows, cols = (arr.shape[0], 1) if arr.ndim == 1 else arr.shape
        lines.append(f"{name} {rows} {cols}")
        lines.extend(repr(float(v)) for v in arr.ravel())
    path.write_text("\n".join(lines) + "\n")


def split_v2(raw: bytes) -> tuple[bytes, bytes]:
    """A v2 file's lines before its ``values`` line, and the value bytes after it."""
    at = raw.index(b"\nvalues ") + 1
    return raw[:at], raw[raw.index(b"\n", at) + 1:]


def join_v2(head: bytes, values: bytes) -> bytes:
    """The inverse of ``split_v2``, with a ``values`` line that fits ``values``."""
    return head + f"values {len(values)} {zlib.crc32(values):08x}\n".encode() + values
