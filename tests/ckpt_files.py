"""Take a checkpoint file apart and put it back together, to damage it by hand."""

import zlib


def split_v2(raw: bytes) -> tuple[bytes, bytes]:
    """A v2 file's lines before its ``values`` line, and the value bytes after it."""
    at = raw.index(b"\nvalues ") + 1
    return raw[:at], raw[raw.index(b"\n", at) + 1:]


def join_v2(head: bytes, values: bytes) -> bytes:
    """The inverse of ``split_v2``, with a ``values`` line that fits ``values``."""
    return head + f"values {len(values)} {zlib.crc32(values):08x}\n".encode() + values
