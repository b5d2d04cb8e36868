"""Stochastic uniform quantization of parameter vectors.

A vector ``w`` is encoded as its Euclidean norm, one sign per coordinate,
and one integer level per coordinate drawn from ``{0, ..., s}``.  The level
for coordinate ``i`` is randomized between the two integers bracketing
``|w_i| / ||w|| * s`` so that dequantization is unbiased.  Raising ``s``
tightens the lattice and costs more bits per coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True, eq=False)
class QuantizedUpdate:
    """Lossy encoding of one client update.

    ``norm`` is stored at float32 precision because that is what crosses the
    wire; keeping the in-memory value identical to the decoded value makes
    encode/decode an exact round trip.
    """

    norm: float
    signs: np.ndarray
    levels: np.ndarray
    s: int
    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.s < 1:
            raise ValueError(f"quantization level s must be >= 1, got {self.s}")
        if not np.isfinite(self.norm) or self.norm < 0.0:
            raise ValueError(f"norm must be finite and non-negative, got {self.norm}")
        signs = np.asarray(self.signs, dtype=np.int8).copy()
        levels = np.asarray(self.levels, dtype=np.int64).copy()
        if signs.shape != (self.d,) or levels.shape != (self.d,):
            raise ValueError("signs and levels must be 1-D arrays of length d")
        if not np.all((signs == 1) | (signs == -1)):
            raise ValueError("signs must contain only +1 and -1")
        if np.any(levels < 0) or np.any(levels > self.s):
            raise ValueError("levels must lie in [0, s]")
        if self.norm == 0.0 and np.any(levels != 0):
            raise ValueError("zero norm requires all-zero levels")
        signs.setflags(write=False)
        levels.setflags(write=False)
        object.__setattr__(self, "norm", float(self.norm))
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "s", int(self.s))
        object.__setattr__(self, "d", int(self.d))

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


def _check_input(w: np.ndarray, s: int) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("w must be a non-empty 1-D vector")
    if not np.all(np.isfinite(w)):
        raise ValueError("w must contain only finite values")
    if not isinstance(s, (int, np.integer)) or isinstance(s, bool):
        raise ValueError(f"s must be an integer, got {s!r}")
    if s < 1:
        raise ValueError(f"quantization level s must be >= 1, got {s}")
    return w


def _lattice(w: np.ndarray, s: int) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Shared prep: norm, signs, lower lattice level, and carry probability."""
    norm = float(np.linalg.norm(w))
    signs = 1 - 2 * (w < 0.0).view(np.int8)
    if norm == 0.0:
        zeros = np.zeros(w.size)
        return 0.0, signs, zeros, zeros
    # Multiply before dividing so ratios that are exact in float (e.g. 3/5)
    # land on their lattice point instead of a hair below it.
    scaled = np.abs(w) * s / norm
    np.minimum(scaled, float(s), out=scaled)
    lower = np.floor(scaled)
    frac = scaled - lower
    return norm, signs, lower, frac


def quantize(w: np.ndarray, s: int, rng: np.random.Generator) -> QuantizedUpdate:
    """Randomly round ``w`` onto the level lattice; unbiased by construction.

    A vector whose norm is zero at the wire's float32 precision (a zero
    vector, or one so small its norm underflows) encodes as all-zero
    levels, deterministically, and consumes no randomness.
    """
    w = _check_input(w, s)
    norm, signs, lower, frac = _lattice(w, s)
    if np.float32(norm) == 0.0:
        levels = np.zeros(w.size, dtype=np.int64)
    else:
        carry = rng.random(w.size) < frac
        levels = (lower + carry).astype(np.int64)
    return QuantizedUpdate(
        norm=float(np.float32(norm)), signs=signs, levels=levels, s=int(s), d=w.size
    )


def dequantize(q: QuantizedUpdate) -> np.ndarray:
    """Reconstruct the real vector a ``QuantizedUpdate`` stands for."""
    return q.signs * ((q.norm * q.levels) / q.s)


def sample_dequantized(
    w: np.ndarray, s: int, rng: np.random.Generator, n_draws: int
) -> np.ndarray:
    """Stack ``n_draws`` independent quantize/dequantize passes over ``w``.

    Row ``i`` equals ``dequantize(quantize(w, s, rng))`` on the i-th use of
    the same generator, just computed in one shot.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be at least 1")
    w = _check_input(w, s)
    norm, signs, lower, frac = _lattice(w, s)
    norm32 = float(np.float32(norm))
    if norm32 == 0.0:
        return np.zeros((n_draws, w.size))
    carry = rng.random((n_draws, w.size)) < frac
    levels = lower + carry
    return signs * ((norm32 * levels) / s)


def bits_per_update(d: int, s: int) -> BitCost:
    """Wire size of an update: levels, then signs, then the float32 norm."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if s < 1:
        raise ValueError(f"quantization level s must be >= 1, got {s}")
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
    if d < 1:
        raise ValueError("d must be at least 1")
    if s < 1:
        raise ValueError(f"quantization level s must be >= 1, got {s}")
    if norm_sq < 0.0:
        raise ValueError("norm_sq must be non-negative")
    return (d / (s * s)) * norm_sq


def exact_variance(w: np.ndarray, s: int) -> float:
    """Exact quantization variance of ``w`` at level ``s``.

    Each coordinate rounds independently with Bernoulli carry probability
    ``p_i``, contributing ``p_i * (1 - p_i)`` lattice-cell variances.  Always
    at most :func:`variance_upper_bound` because ``p (1 - p) <= 1/4``.
    """
    w = _check_input(w, s)
    norm, _, _, frac = _lattice(w, s)
    if norm == 0.0:
        return 0.0
    return float((norm * norm) * np.sum(frac * (1.0 - frac)) / (s * s))
