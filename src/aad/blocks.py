"""Checksummed named-block container shared by model files and frame archives.

Payload layout, little-endian: u32 CRC32 of the file header that precedes
the payload followed by the block table, then the table:
u32 block count, and per block a u8 name length, a 3-byte dtype code
("<f8", "<f4" or "<i8"), a u8 ndim, ndim u64 dims, the ASCII name, zero
padding to an 8-byte table offset, and the row-major values. Integer and
bool values are stored as "<i8" so counts stay integers, float32 arrays as
"<f4", everything else as "<f8".
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .errors import CorruptModelFileError

_DTYPES = {np.dtype(code).str.encode(): np.dtype(code) for code in ("<f8", "<f4", "<i8")}
_ENTRY = struct.Struct("<B3sB")


def _as_block(value) -> np.ndarray:
    arr = np.asarray(value)
    if arr.dtype.kind in "biu":
        return arr.astype("<i8")
    return arr.astype("<f4" if arr.dtype == np.float32 else "<f8", copy=False)


def encode_blocks(blocks: dict, header: bytes = b"") -> bytes:
    """Serialize name -> array-like as one payload checksummed with header."""
    parts = [struct.pack("<I", len(blocks))]
    offset = 4
    for name, value in blocks.items():
        arr = _as_block(value)
        key = name.encode("ascii")
        head = _ENTRY.pack(len(key), arr.dtype.str.encode(), arr.ndim)
        head += struct.pack(f"<{arr.ndim}Q", *arr.shape) + key
        head += b"\x00" * (-(offset + len(head)) % 8)
        parts += [head, memoryview(np.ascontiguousarray(arr).reshape(-1)).cast("B")]
        offset += len(head) + arr.nbytes
    crc = zlib.crc32(header)
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join([struct.pack("<I", crc), *parts])


def decode_blocks(payload, path, header: bytes = b"") -> dict[str, np.ndarray]:
    """Read-only views of every block; any inconsistency is CorruptModelFileError."""
    view = memoryview(payload).cast("B")
    table = view[4:]
    if len(view) < 8 or struct.unpack_from("<I", view)[0] != zlib.crc32(table, zlib.crc32(header)):
        raise CorruptModelFileError(f"{path}: checksum mismatch")

    def take(offset: int, size: int) -> int:
        if offset + size > len(table):
            raise CorruptModelFileError(f"{path}: truncated block table")
        return offset + size

    (count,) = struct.unpack_from("<I", table)
    offset = 4
    blocks: dict[str, np.ndarray] = {}
    for _ in range(count):
        start, offset = offset, take(offset, _ENTRY.size)
        name_len, code, ndim = _ENTRY.unpack_from(table, start)
        start, offset = offset, take(offset, 8 * ndim + name_len)
        shape = struct.unpack_from(f"<{ndim}Q", table, start)
        try:
            name = bytes(table[start + 8 * ndim : offset]).decode("ascii")
        except UnicodeDecodeError as exc:
            raise CorruptModelFileError(f"{path}: block name is not ASCII") from exc
        if code not in _DTYPES or name in blocks:
            raise CorruptModelFileError(f"{path}: block {name!r} has an unknown dtype or repeats")
        dtype = _DTYPES[code]
        start = take(offset, -offset % 8)
        offset = take(start, math.prod(shape) * dtype.itemsize)
        blocks[name] = np.frombuffer(table, dtype=dtype, count=math.prod(shape), offset=start).reshape(shape)
    if offset != len(table):
        raise CorruptModelFileError(f"{path}: {len(table) - offset} trailing bytes")
    return blocks


def block(blocks: dict, name: str, path, dtype: str = "<f8", ndim: int | None = None) -> np.ndarray:
    """The named block, checked for presence, dtype and (optionally) ndim."""
    arr = blocks.get(name)
    if arr is None:
        raise CorruptModelFileError(f"{path}: missing block {name!r}")
    if arr.dtype != np.dtype(dtype) or (ndim is not None and arr.ndim != ndim):
        raise CorruptModelFileError(f"{path}: block {name!r} is {arr.dtype.str} {arr.shape}")
    return arr
