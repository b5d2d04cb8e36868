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

import functools
import math
import struct

import numpy as np

from . import _checks
from .quantizer import NORM_BITS, QuantizedUpdate, _level_dtype, bits_per_update

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
    payload_bits = bits_per_update(d, s).total_bits - NORM_BITS
    return _HEADER.size + _NORM.size + (payload_bits + 7) // 8


@functools.cache
def _fields(eb: int) -> tuple:
    """The schedule of ``eb``-bit levels: ``g`` of them end on a byte, in
    ``nbytes`` bytes held in ``count`` little-endian words of ``word``; level
    ``j`` of a group sits at (word, shift, carry shift into the next word)."""
    g = 8 // math.gcd(eb, 8)
    nbytes = g * eb // 8
    size = next((w for w in (1, 2, 4) if w >= nbytes), 8)
    places = [divmod(j * eb, 8 * size) for j in range(g)]
    schedule = tuple((k, sh, 8 * size - sh if sh + eb > 8 * size else 0) for k, sh in places)
    return g, nbytes, np.dtype(f"<u{size}"), -(-nbytes // size), schedule


def encode(q: QuantizedUpdate) -> bytes:
    if q.s > _U32_MAX or q.d > _U32_MAX:
        raise ValueError("s and d must fit in 32 bits")
    cost = bits_per_update(q.d, q.s)
    g, nbytes, word, count, schedule = _fields(cost.element_bits)
    n = -(-q.d // g)
    fields = np.zeros((n, g), word)
    fields.reshape(-1)[: q.d] = q.levels
    if g > 1:
        words = np.zeros((n, count), word)
        for j, (k, shift, carry) in enumerate(schedule):
            words[:, k] |= fields[:, j] << shift
            if carry:
                words[:, k + 1] |= fields[:, j] >> carry
        fields = words
    # Each group's bytes, cut from its words, then shifted r bits up across
    # byte boundaries to start after the last sign bit; one spare byte.
    plane = np.zeros(n * nbytes + 1, np.uint8)
    plane[:-1].reshape(n, nbytes)[...] = fields.view(np.uint8)[:, :nbytes]
    r = q.d % 8
    if r:
        high = plane[:-1] >> (8 - r)
        plane <<= r
        plane[1:] |= high
    payload = np.zeros((cost.total_bits - NORM_BITS + 7) // 8, np.uint8)
    signs = np.packbits(q.signs < 0, bitorder="little")
    payload[: len(signs)] = signs
    tail = payload[len(signs) - (r > 0) :]
    tail |= plane[: len(tail)]
    return (
        _HEADER.pack(MAGIC, VERSION, q.s, q.d) + _NORM.pack(q.norm) + payload.tobytes()
    )


def decode(blob: bytes, d: int) -> QuantizedUpdate:
    """Parse ``blob`` into a :class:`QuantizedUpdate` of dimension ``d``."""
    _checks.integer("d", d, 1)
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
    d = d_wire  # a Python int: a NumPy integer d would not shift the uint8 plane below
    cost = bits_per_update(d, s)
    used = cost.total_bits - NORM_BITS
    expected = prefix + (used + 7) // 8
    if len(blob) != expected:
        raise DecodeError(f"wrong length: {len(blob)} bytes, expected {expected}")
    (norm,) = _NORM.unpack_from(blob, _HEADER.size)
    if not np.isfinite(norm) or norm < 0.0:
        raise DecodeError(f"invalid norm {norm}")
    # padding is the high bits of the last byte; with none, the shift is 8
    if blob[-1] >> (8 - -used % 8):
        raise DecodeError("nonzero padding bits")
    payload = np.frombuffer(blob, dtype=np.uint8, offset=prefix)
    ns, r = (d + 7) // 8, d % 8
    signs = np.unpackbits(payload[:ns], count=d, bitorder="little").view(np.int8)
    signs *= -2
    signs += 1
    eb = cost.element_bits
    g, nbytes, word, count, schedule = _fields(eb)
    n = -(-d // g)
    # encode's steps in reverse: shift the level bytes r bits down, spread
    # each group's bytes over its words, cut the fields out
    plane = np.zeros(n * nbytes + 1, np.uint8)
    body = payload[ns - (r > 0) :]
    plane[: len(body)] = body
    if r:
        high = plane[1:] << (8 - r)
        plane >>= r
        plane[:-1] |= high
    grid = np.zeros((n, count * word.itemsize), np.uint8)
    grid[:, :nbytes] = plane[:-1].reshape(n, nbytes)
    words = grid.view(word)
    levels = np.empty((n, g), _level_dtype(s))
    for j, (k, shift, carry) in enumerate(schedule):
        field = words[:, k] >> shift
        if carry:
            field |= words[:, k + 1] << carry
        np.bitwise_and(field, (1 << eb) - 1, out=levels[:, j], casting="unsafe")
    levels = levels.reshape(-1)[:d]
    if np.any(levels > s):
        raise DecodeError("level exceeds s")
    if norm == 0.0 and np.any(levels != 0):
        raise DecodeError("zero norm with nonzero levels")
    # Every field is checked above; the fresh arrays are handed over as is.
    fields = {"norm": norm, "signs": signs, "levels": levels, "s": s, "d": d}
    return _checks.adopt(QuantizedUpdate, fields)
