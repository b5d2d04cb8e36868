"""Byte-level codec for quantized updates.

Layout, in order:

* magic ``b"QU"`` (2 bytes)
* format version (1 byte, currently 1)
* ``s`` as an unsigned 32-bit little-endian integer
* ``d`` as an unsigned 32-bit little-endian integer
* the norm as a little-endian IEEE 754 float32
* ``d`` sign bits (1 = negative), then ``d * bit_length(s)`` level bits,
  each level little-endian, the whole plane packed LSB-first and padded
  with zero bits to a byte boundary

Decoding is strict: any deviation (bad magic, wrong version, mismatched
``d``, levels above ``s``, nonzero padding, truncated or oversized input)
raises :class:`DecodeError` rather than guessing.
"""

from __future__ import annotations

import struct

import numpy as np

from .quantizer import NORM_BITS, QuantizedUpdate, bits_per_update

__all__ = ["MAGIC", "VERSION", "DecodeError", "encode", "decode", "encoded_size_bytes"]

MAGIC = b"QU"
VERSION = 1
_HEADER = struct.Struct("<2sBII")
_NORM = struct.Struct("<f")
_U32_MAX = 0xFFFFFFFF


class DecodeError(ValueError):
    """Raised when a byte string is not a valid encoded update."""


def encoded_size_bytes(d: int, s: int) -> int:
    """Exact size in bytes of an encoded update with these dimensions."""
    if d < 1 or s < 1:
        raise ValueError("d and s must be at least 1")
    payload_bits = bits_per_update(d, s).total_bits - NORM_BITS
    return _HEADER.size + _NORM.size + (payload_bits + 7) // 8


def _level_width(element_bits: int) -> int:
    """Bytes of the narrowest unsigned integer that holds a level."""
    return next(width for width in (1, 2, 4) if 8 * width >= element_bits)


def encode(q: QuantizedUpdate) -> bytes:
    if q.s > _U32_MAX or q.d > _U32_MAX:
        raise ValueError("s and d must fit in 32 bits")
    cost = bits_per_update(q.d, q.s)
    eb = cost.element_bits
    width = _level_width(eb)
    # Each level's bits, LSB first, read off its little-endian bytes; one
    # flat unpackbits over the whole array, not one per row.
    level_bits = np.unpackbits(
        q.levels.astype(f"<u{width}").view(np.uint8), bitorder="little"
    ).reshape(q.d, 8 * width)
    plane = np.empty(cost.total_bits - NORM_BITS, dtype=np.uint8)
    plane[: q.d] = q.signs < 0
    plane[q.d :].reshape(q.d, eb)[...] = level_bits[:, :eb]
    payload = np.packbits(plane, bitorder="little").tobytes()
    return (
        _HEADER.pack(MAGIC, VERSION, q.s, q.d) + _NORM.pack(q.norm) + payload
    )


def decode(blob: bytes, d: int) -> QuantizedUpdate:
    """Parse ``blob`` into a :class:`QuantizedUpdate` of dimension ``d``."""
    if d < 1:
        raise ValueError("d must be at least 1")
    prefix = _HEADER.size + _NORM.size
    if len(blob) < prefix:
        raise DecodeError(f"truncated input: {len(blob)} bytes, need at least {prefix}")
    magic, version, s, d_wire = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise DecodeError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise DecodeError(f"unsupported format version {version}")
    if s < 1:
        raise DecodeError(f"invalid quantization level s={s}")
    if d_wire != d:
        raise DecodeError(f"dimension mismatch: header says {d_wire}, expected {d}")
    expected = encoded_size_bytes(d, s)
    if len(blob) != expected:
        raise DecodeError(f"wrong length: {len(blob)} bytes, expected {expected}")
    (norm,) = _NORM.unpack_from(blob, _HEADER.size)
    if not np.isfinite(norm) or norm < 0.0:
        raise DecodeError(f"invalid norm {norm}")
    cost = bits_per_update(d, s)
    eb = cost.element_bits
    width = _level_width(eb)
    bits = np.unpackbits(
        np.frombuffer(blob, dtype=np.uint8, offset=prefix), bitorder="little"
    )
    used = cost.total_bits - NORM_BITS
    if np.any(bits[used:]):
        raise DecodeError("nonzero padding bits")
    signs = 1 - 2 * bits[:d].view(np.int8)
    # Widen each level to whole little-endian bytes with zero high bits,
    # then pack the flat array once and read it back as integers.
    level_bits = np.zeros((d, 8 * width), dtype=np.uint8)
    level_bits[:, :eb] = bits[d:used].reshape(d, eb)
    levels = np.packbits(level_bits, bitorder="little").view(f"<u{width}")
    if np.any(levels > s):
        raise DecodeError("level exceeds s")
    if norm == 0.0 and np.any(levels != 0):
        raise DecodeError("zero norm with nonzero levels")
    # Every field is checked above; the fresh arrays are handed over as is.
    return QuantizedUpdate._adopt(norm, signs, levels.astype(np.int64), s, d)
