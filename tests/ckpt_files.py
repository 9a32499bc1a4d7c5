"""Take a checkpoint file apart and put it back together, to damage it by hand."""

import zlib


def split_v3(raw: bytes) -> tuple[bytes, bytes]:
    """A v3 file's lines before its ``values`` line, and the value bytes after it."""
    at = raw.index(b"\nvalues ") + 1
    return raw[:at], raw[raw.index(b"\n", at) + 1:]


def join_v3(head: bytes, values: bytes) -> bytes:
    """The inverse of ``split_v3``, with a ``values`` line whose CRC covers ``head`` and
    ``values``, so that an edit made to either still passes the CRC check."""
    crc = zlib.crc32(values, zlib.crc32(head))
    return head + f"values {len(values)} {crc:08x}\n".encode() + values
