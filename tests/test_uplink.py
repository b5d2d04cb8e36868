"""The uplink path against its reference formulas, and who owns its arrays.

``quantize`` and ``wire.decode`` hand the arrays they build to their
``QuantizedUpdate`` without a copy, and ``dequantize`` and ``aggregate``
work in place.  The straightforward formulas kept below as ``reference_*``
are the specification: the production code must match them byte for byte
(``tobytes``, so signed zeros count), and every update must own read-only
arrays that the public constructor would accept unchanged.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedquant.fedsim import _uplink, aggregate
from fedquant.quantizer import QuantizedUpdate, dequantize, exact_variance, quantize
from fedquant.wire import decode, encode

# Coordinates from subnormal to 1e37; thirty of them keep the norm inside
# the float32 range the wire carries.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-300, 1e-46, 3e37, -1e37]
coordinate = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(min_value=-1e37, max_value=1e37, allow_nan=False),
)
vectors = st.lists(coordinate, min_size=1, max_size=30).map(
    lambda xs: np.array(xs, dtype=np.float64)
)
levels = st.integers(1, 2**32 - 1)
seeds = st.integers(0, 2**32 - 1)


def reference_quantize(w: np.ndarray, s: int, rng: np.random.Generator):
    """Norm, signs and levels by the unfused formulas, one temporary each."""
    norm = float(np.linalg.norm(w))
    norm32 = float(np.float32(norm))
    signs = np.where(w < 0.0, -1, 1).astype(np.int8)
    if norm32 == 0.0:
        return norm32, signs, np.zeros(w.size, dtype=np.int64)
    scaled = np.abs(w) * s / norm
    np.minimum(scaled, float(s), out=scaled)
    lower = np.floor(scaled)
    carry = rng.random(w.size) < scaled - lower
    return norm32, signs, (lower + carry).astype(np.int64)


def reference_dequantize(q: QuantizedUpdate) -> np.ndarray:
    return q.signs * ((q.norm * q.levels) / q.s)


def reference_aggregate(w: np.ndarray, updates, weights) -> np.ndarray:
    out = np.asarray(w, dtype=np.float64).copy()
    for q, p in zip(updates, weights):
        out += p * reference_dequantize(q)
    return out


def reference_exact_variance(w: np.ndarray, s: int) -> float:
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        return 0.0
    scaled = np.abs(w) * s / norm
    np.minimum(scaled, float(s), out=scaled)
    frac = scaled - np.floor(scaled)
    return float((norm * norm) * np.sum(frac * (1.0 - frac)) / (s * s))


def snapshot(q: QuantizedUpdate) -> tuple:
    return (q.norm, q.s, q.d, q.signs.tobytes(), q.levels.tobytes())


def assert_owned_and_valid(q: QuantizedUpdate, *foreign: np.ndarray) -> None:
    """Read-only arrays of the constructor's dtypes, sharing no memory with
    ``foreign``, that the public constructor accepts and equals."""
    for arr in (q.signs, q.levels):
        assert not arr.flags.writeable
        for other in foreign:
            assert not np.shares_memory(arr, other)
    rebuilt = QuantizedUpdate(norm=q.norm, signs=q.signs, levels=q.levels, s=q.s, d=q.d)
    assert rebuilt == q
    assert snapshot(rebuilt) == snapshot(q)
    assert rebuilt.signs.dtype == q.signs.dtype and rebuilt.levels.dtype == q.levels.dtype
    assert type(q.norm) is float and type(q.s) is int and type(q.d) is int


class TestHandover:
    @given(w=vectors, s=levels, seed=seeds)
    @settings(max_examples=300, deadline=None)
    def test_quantize_output_is_owned(self, w, s, seed):
        q = quantize(w, s, np.random.default_rng(seed))
        assert_owned_and_valid(q, w)
        before = snapshot(q)
        w[...] = 1.0
        assert snapshot(q) == before

    @given(w=vectors, s=levels, seed=seeds)
    @settings(max_examples=300, deadline=None)
    def test_decode_output_is_owned(self, w, s, seed):
        q = quantize(w, s, np.random.default_rng(seed))
        blob = bytearray(encode(q))
        q2 = decode(blob, q.d)
        assert q2 == q
        assert_owned_and_valid(q2, np.frombuffer(blob, dtype=np.uint8))
        before = snapshot(q2)
        blob[:] = bytes(len(blob))
        assert snapshot(q2) == before


class TestAgainstReference:
    @given(w=vectors, s=levels, seed=seeds)
    @settings(max_examples=300, deadline=None)
    def test_quantize(self, w, s, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        q = quantize(w, s, rng)
        norm, signs, lv = reference_quantize(w, s, ref_rng)
        assert q.norm == norm
        assert q.signs.tobytes() == signs.tobytes()
        assert q.levels.tobytes() == lv.tobytes()
        # the same draws were taken from the stream
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @given(w=vectors, s=levels, seed=seeds)
    @settings(max_examples=300, deadline=None)
    def test_dequantize(self, w, s, seed):
        q = quantize(w, s, np.random.default_rng(seed))
        assert dequantize(q).tobytes() == reference_dequantize(q).tobytes()

    @given(
        ws=st.lists(vectors, min_size=1, max_size=5),
        s=levels,
        seed=seeds,
        raw_weights=st.lists(st.integers(1, 1000), min_size=5, max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_aggregate(self, ws, s, seed, raw_weights):
        d = ws[0].size
        rng = np.random.default_rng(seed)
        updates = [quantize(np.resize(w, d), s, rng) for w in ws]
        weights = [k / sum(raw_weights[: len(ws)]) for k in raw_weights[: len(ws)]]
        base = rng.standard_normal(d)
        got = aggregate(base, updates, weights)
        assert got.tobytes() == reference_aggregate(base, updates, weights).tobytes()

    @given(w=vectors, s=levels)
    @settings(max_examples=300, deadline=None)
    def test_exact_variance(self, w, s):
        assert exact_variance(w, s) == reference_exact_variance(w, s)

    def test_signed_zeros_survive(self):
        w = np.array([-0.0, -1e-9, 0.0, 3.0])
        q = quantize(w, 2, np.random.default_rng(0))
        out = dequantize(q)
        assert out.tobytes() == reference_dequantize(q).tobytes()
        assert np.signbit(out[1]) and not np.signbit(out[0])


def client_delta(kind: str, d: int, rng: np.random.Generator) -> np.ndarray:
    """A delta of one of the shapes the uplink treats apart: ``-0.0``
    entries, all zeros of both signs, or a norm that is 0 in float32."""
    if kind == "zero":
        return np.where(rng.random(d) < 0.5, -0.0, 0.0)
    if kind == "underflow":
        return rng.choice([-1e-47, 0.0, -0.0, 1e-47], size=d)  # norm < 1e-45
    delta = rng.standard_normal(d) * 10.0 ** rng.uniform(-30, 30)
    delta[rng.random(d) < 0.2] = -0.0
    return delta


class TestRoundUplink:
    @given(
        d=st.integers(1, 3000),
        s=st.sampled_from([1, 2, 3, 255, 256, 65535, 2**32 - 1]),
        kinds=st.lists(st.sampled_from(["normal", "zero", "underflow"]), min_size=1, max_size=5),
        raw_weights=st.lists(st.integers(1, 1000), min_size=5, max_size=5),
        seed=seeds,
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_quantize_then_aggregate(self, d, s, kinds, raw_weights, seed):
        rng = np.random.default_rng(seed)
        deltas = [client_delta(kind, d, rng) for kind in kinds]
        weights = [k / sum(raw_weights[: len(kinds)]) for k in raw_weights[: len(kinds)]]
        base = rng.standard_normal(d)
        base[rng.random(d) < 0.1] = -0.0
        ref_rngs = [np.random.default_rng([seed, i]) for i in range(len(kinds))]
        rngs = [np.random.default_rng([seed, i]) for i in range(len(kinds))]
        updates = [quantize(delta, s, r) for delta, r in zip(deltas, ref_rngs)]
        want = reference_aggregate(base, updates, weights)
        got = _uplink(base, deltas, s, rngs, weights)
        assert got.tobytes() == want.tobytes()
        assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in ref_rngs]

    def test_inputs_are_left_alone(self):
        w = np.array([0.5, -0.0, 2.0])
        w.setflags(write=False)
        deltas = [np.array([1.0, -2.0, 0.0]), np.array([-0.0, 3.0, 1e-46])]
        before = [delta.copy() for delta in deltas]
        rngs = [np.random.default_rng(i) for i in range(2)]
        _uplink(w, deltas, 3, rngs, [0.25, 0.75])
        assert all(a.tobytes() == b.tobytes() for a, b in zip(deltas, before))
