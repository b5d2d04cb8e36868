"""Stochastic uniform quantization of parameter vectors.

A vector ``w`` is encoded as its Euclidean norm, one sign per coordinate,
and one integer level per coordinate drawn from ``{0, ..., s}``.  The level
for coordinate ``i`` is randomized between the two integers bracketing
``|w_i| / ||w|| * s`` so that dequantization is unbiased but for the norm:
the lattice uses the float64 norm and the reconstruction the float32 one
the wire carries, so ``E[Q(w)] = w * norm32 / norm``, a relative bias of at
most about 2**-24.  Raising ``s`` tightens the lattice and costs more bits
per coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _checks

__all__ = [
    "QuantizedUpdate",
    "BitCost",
    "quantize",
    "dequantize",
    "sample_dequantized",
    "bits_per_update",
    "variance_upper_bound",
    "exact_variance",
]

NORM_BITS = 32  # the norm travels as a little-endian IEEE 754 float32
# Levels are formed in float64, which holds every integer up to 2**53
# exactly, so quantization rejects a larger s; they are then cast to the
# unsigned dtype of _level_dtype(s), which holds [0, s] exactly.
_MAX_EXACT_LEVEL = 2**53


@dataclass(frozen=True, eq=False)
class QuantizedUpdate:
    """Lossy encoding of one client update.

    ``norm`` is stored at float32 precision because that is what crosses the
    wire; keeping the in-memory value identical to the decoded value makes
    encode/decode an exact round trip.  ``signs`` (int8) and ``levels`` are
    read-only; the constructor checks the arrays it is given and copies them.
    ``levels`` is held in the narrowest unsigned dtype that holds ``s``
    (uint8 up to 255, then uint16, uint32, and uint64 beyond), so cast it
    before signed arithmetic: ``q.levels - 1`` wraps around at 0.
    """

    norm: float
    signs: np.ndarray
    levels: np.ndarray
    s: int
    d: int

    def __post_init__(self) -> None:
        _checks.at_least("d", self.d, 1)
        _check_level(self.s)
        _checks.finite("norm", self.norm, "non-negative")
        signs, levels = np.asarray(self.signs), np.asarray(self.levels)
        if signs.shape != (self.d,) or levels.shape != (self.d,):
            raise ValueError("signs and levels must be 1-D arrays of length d")
        # values are checked as given, before any cast can truncate or wrap them
        if not np.all((signs == 1) | (signs == -1)):
            raise ValueError("signs must contain only +1 and -1")
        if levels.dtype.kind == "f":
            whole = np.all((levels == np.trunc(levels)) & (levels < 2.0**64))
        else:
            whole = levels.dtype.kind in "biu"
        if not whole:
            raise ValueError("levels must be integers of at most 64 bits")
        if np.any(levels < 0) or np.any(levels > self.s):
            raise ValueError("levels must lie in [0, s]")
        if self.norm == 0.0 and np.any(levels != 0):
            raise ValueError("zero norm requires all-zero levels")
        signs, levels = signs.astype(np.int8), levels.astype(_level_dtype(self.s))
        signs.setflags(write=False)
        levels.setflags(write=False)
        object.__setattr__(self, "norm", float(self.norm))
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "s", int(self.s))
        object.__setattr__(self, "d", int(self.d))

    @classmethod
    def _adopt(
        cls, norm: float, signs: np.ndarray, levels: np.ndarray, s: int, d: int
    ) -> QuantizedUpdate:
        """Wrap arrays that ``quantize`` or ``wire.decode`` just built and checked.

        ``signs`` (int8, +1/-1) and ``levels`` (``_level_dtype(s)``, in
        ``[0, s]``, all zero when ``norm`` is) are fresh and referenced nowhere
        else, so they are frozen in place rather than copied and checked again.
        """
        signs.setflags(write=False)
        levels.setflags(write=False)
        q = object.__new__(cls)
        q.__dict__.update(norm=float(norm), signs=signs, levels=levels, s=int(s), d=int(d))
        return q

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantizedUpdate):
            return NotImplemented
        return (
            self.norm == other.norm
            and self.s == other.s
            and self.d == other.d
            and np.array_equal(self.signs, other.signs)
            and np.array_equal(self.levels, other.levels)
        )


@dataclass(frozen=True)
class BitCost:
    """Exact uplink size of one encoded update, split by component."""

    total_bits: int
    element_bits: int
    sign_bits: int
    norm_bits: int


def _check_level(s: int) -> None:
    """The level ``s`` must be an integer (not a bool) of at least 1."""
    if not isinstance(s, (int, np.integer)) or isinstance(s, bool):
        raise ValueError(f"s must be an integer, got {s!r}")
    if s < 1:  # on the round path: the checker only raises
        _checks.at_least("quantization level s", s, 1)


def _level_dtype(s: int) -> np.dtype:
    """The narrowest of uint8, uint16, uint32 and uint64 that holds ``s``;
    uint64 for any larger ``s``."""
    return np.min_scalar_type(min(int(s), 2**64 - 1))


def _check_input(plane: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``plane``, a stack of vectors ``w`` one per row, as C-contiguous
    float64, with each row's norm and the norm's float32 wire value.

    Every ``w`` must have finite entries and a norm within the float32 range.  A
    finite norm means every entry of its row is finite, so the entries are
    scanned only when some norm is not.  :func:`_check_vector` checks one
    vector as the one row of a plane.
    """
    plane = np.ascontiguousarray(plane, dtype=np.float64)
    if plane.ndim != 2 or plane.shape[1] < 1:
        raise ValueError("w must be a non-empty 1-D vector")
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.vecdot(plane, plane))  # np.linalg.norm's BLAS dot, row by row
        norms32 = norms.astype(np.float32).astype(np.float64)
    in_range = all(map(math.isfinite, norms32.tolist()))
    if not in_range and not np.isfinite(plane).all():
        raise ValueError("w must contain only finite values")
    _check_level(s)
    if s > _MAX_EXACT_LEVEL:  # on the round path: the checker only raises
        _checks.in_range("quantization level s", s, 1, _MAX_EXACT_LEVEL)
    if not in_range:
        raise ValueError(
            "the norm of w exceeds the wire's float32 range "
            f"(largest finite value {float(np.finfo(np.float32).max):.6g})"
        )
    return plane, norms, norms32


def _check_vector(w: np.ndarray, s: int) -> tuple[np.ndarray, float, float]:
    """:func:`_check_input` on the one vector ``w``: ``w`` as float64, its
    norm and the norm's float32 wire value."""
    w = np.asarray(w, dtype=np.float64)
    _, norms, norms32 = _check_input(w[None], s)
    return w, float(norms[0]), float(norms32[0])


def _signs(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """+1 or -1 per coordinate as int8, in the bool buffer ``out`` when
    given; zeros (and -0.0) count as positive."""
    signs = np.less(w, 0.0, out=out).view(np.int8)
    signs *= -2
    signs += 1
    return signs


def _lattice(w: np.ndarray, s: int, norm, frac=None, lower=None) -> tuple[np.ndarray, np.ndarray]:
    """Lower lattice level and carry probability per coordinate, in
    ``lower`` and ``frac`` when given; ``norm > 0``, a float, or a column
    of one norm per row of ``w``."""
    # Multiply before dividing so ratios that are exact in float (e.g. 3/5)
    # land on their lattice point instead of a hair below it.
    frac = np.abs(w, out=frac)
    frac *= s
    frac /= norm
    np.minimum(frac, float(s), out=frac)
    lower = np.floor(frac, out=lower)
    frac -= lower
    return lower, frac


def _carry(levels: np.ndarray, frac: np.ndarray, u: np.ndarray, carry=None) -> None:
    """Add 1 to the lower ``levels`` in place where the uniform draw in
    ``u`` falls below ``frac``, comparing into ``carry`` when given.
    ``frac`` is 0 where a level is s, so levels stay in [0, s], and float
    levels are exact integers since s <= 2**53."""
    levels += np.less(u, frac, out=carry)


def _scale(levels: np.ndarray, norm, s: int, signs: np.ndarray) -> np.ndarray:
    """The real values that float ``levels`` stand for, in place; ``norm``
    as in :func:`_lattice`."""
    levels *= norm
    levels /= s
    levels *= signs
    return levels


def quantize(w: np.ndarray, s: int, rng: np.random.Generator) -> QuantizedUpdate:
    """Randomly round ``w`` onto the level lattice; unbiased up to the
    float32 norm, ``E[dequantize(quantize(w))] = w * norm32 / norm``.

    A vector whose norm is zero at the wire's float32 precision (a zero
    vector, or one so small its norm underflows) encodes as all-zero
    levels, deterministically, and consumes no randomness.  A norm above
    the float32 range raises ``ValueError``.
    """
    w, norm, norm32 = _check_vector(w, s)
    signs = _signs(w)
    if norm32 == 0.0:
        levels = np.zeros(w.size, dtype=_level_dtype(s))
    else:
        lower, frac = _lattice(w, s, norm)
        levels = lower.astype(_level_dtype(s))
        _carry(levels, frac, rng.random(out=lower))  # the draws reuse lower's buffer
    return QuantizedUpdate._adopt(norm32, signs, levels, s, w.size)


def dequantize(q: QuantizedUpdate) -> np.ndarray:
    """Reconstruct the real vector a ``QuantizedUpdate`` stands for."""
    return _scale(q.levels.astype(np.float64), q.norm, q.s, q.signs)


def sample_dequantized(
    w: np.ndarray, s: int, rng: np.random.Generator, n_draws: int
) -> np.ndarray:
    """Stack ``n_draws`` independent quantize/dequantize passes over ``w``.

    Row ``i`` equals ``dequantize(quantize(w, s, rng))`` on the i-th use of
    the same generator, just computed in one shot.
    """
    _checks.at_least("n_draws", n_draws, 1)
    w, norm, norm32 = _check_vector(w, s)
    levels = np.zeros((n_draws, w.size))
    if norm32 != 0.0:
        lower, frac = _lattice(w, s, norm)
        levels += lower
        _carry(levels, frac, rng.random(levels.shape))
    return _scale(levels, norm32, s, _signs(w))


def bits_per_update(d: int, s: int) -> BitCost:
    """Wire size of an update: levels, then signs, then the float32 norm."""
    if d < 1:  # on the round path: the checker only raises
        _checks.at_least("d", d, 1)
    _check_level(s)
    # ceil(log2(s + 1)) bits index the s + 1 levels; for integers that is
    # exactly the bit length of s.
    per_element = int(s).bit_length()
    return BitCost(
        total_bits=d * per_element + d + NORM_BITS,
        element_bits=per_element,
        sign_bits=d,
        norm_bits=NORM_BITS,
    )


def variance_upper_bound(d: int, s: int, norm_sq: float) -> float:
    """Worst-case quantization variance: ``d / s**2`` times the squared norm."""
    _checks.at_least("d", d, 1)
    _check_level(s)
    _checks.non_negative("norm_sq", norm_sq)
    return (d / (s * s)) * norm_sq


def exact_variance(w: np.ndarray, s: int) -> float:
    """Exact quantization variance of ``w`` at level ``s``.

    Each coordinate rounds independently with Bernoulli carry probability
    ``p_i``, contributing ``p_i * (1 - p_i)`` lattice-cell variances.  Always
    at most :func:`variance_upper_bound` because ``p (1 - p) <= 1/4``.
    Like :func:`quantize`, it rejects a norm beyond the float32 range, and
    a norm that is zero in float32 (all-zero levels) has variance 0.
    """
    w, norm, norm32 = _check_vector(w, s)
    if norm32 == 0.0:
        return 0.0
    _, frac = _lattice(w, s, norm)
    return float((norm * norm) * np.sum(frac * (1.0 - frac)) / (s * s))
