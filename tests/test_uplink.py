"""The uplink path against its reference formulas, and who owns its arrays.

``quantize`` and ``wire.decode`` hand the arrays they build to their
``QuantizedUpdate`` without a copy, and ``dequantize`` and ``aggregate``
work in place.  The straightforward formulas kept below as ``reference_*``
are the specification: the production code must match them byte for byte
(``tobytes``, so signed zeros count), and every update must own read-only
arrays that the public constructor would accept unchanged.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedquant import fedsim
from fedquant.fedsim import _uplink, _UplinkWorkspace, aggregate
from fedquant.quantizer import QuantizedUpdate, _check_input, dequantize, exact_variance, quantize
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
    """Norm, signs and levels by the unfused formulas, one temporary each;
    levels in the narrowest unsigned dtype that holds ``s``."""
    norm = float(np.linalg.norm(w))
    norm32 = float(np.float32(norm))
    signs = np.where(w < 0.0, -1, 1).astype(np.int8)
    if norm32 == 0.0:
        return norm32, signs, np.zeros(w.size, dtype=np.min_scalar_type(s))
    scaled = np.abs(w) * s / norm
    np.minimum(scaled, float(s), out=scaled)
    lower = np.floor(scaled)
    carry = rng.random(w.size) < scaled - lower
    return norm32, signs, (lower + carry).astype(np.min_scalar_type(s))


def reference_dequantize(q: QuantizedUpdate) -> np.ndarray:
    return q.signs * ((q.norm * q.levels) / q.s)


def reference_aggregate(w: np.ndarray, updates, weights) -> np.ndarray:
    out = np.asarray(w, dtype=np.float64).copy()
    for q, p in zip(updates, weights):
        out += p * reference_dequantize(q)
    return out


def reference_exact_variance(w: np.ndarray, s: int) -> float:
    norm = float(np.linalg.norm(w))
    if np.float32(norm) == 0.0:  # quantize's all-zero levels: no variance
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


# s at each edge of the level dtype, with the dtype that holds its levels
WIDTH_EDGES = [
    (1, np.uint8),
    (255, np.uint8),
    (256, np.uint16),
    (65_535, np.uint16),
    (65_536, np.uint32),
    (2**32 - 1, np.uint32),
    (2**32, np.uint64),
    (2**53, np.uint64),
]


def as_int64(q: QuantizedUpdate) -> QuantizedUpdate:
    """``q`` with its levels held as int64, as every update once held them."""
    return QuantizedUpdate._adopt(q.norm, q.signs.copy(), q.levels.astype(np.int64), q.s, q.d)


class TestLevelDtype:
    """Levels are held in the narrowest unsigned dtype that holds ``s``,
    whoever builds them; the bytes and values are those of int64 levels."""

    @pytest.mark.parametrize("s, dtype", WIDTH_EDGES)
    def test_quantize(self, s, dtype):
        rng = np.random.default_rng(s)
        for w in (rng.standard_normal(1000), np.zeros(3), np.array([0.6, -0.8, 0.0])):
            q = quantize(w, s, rng)
            assert q.levels.dtype == dtype
            assert dequantize(q).tobytes() == dequantize(as_int64(q)).tobytes()
        # the largest level, s itself, is held exactly
        assert quantize(np.array([-3.0]), s, rng).levels.tolist() == [s]

    @pytest.mark.parametrize("s, dtype", WIDTH_EDGES)
    def test_constructor(self, s, dtype):
        for levels in ([0, s], np.array([0, s], np.uint64), np.array([0.0, 1.0])):
            q = QuantizedUpdate(norm=1.0, signs=[1, -1], levels=levels, s=s, d=2)
            assert q.levels.dtype == dtype
            assert q.levels.tolist() == [0, int(levels[1])]

    @pytest.mark.parametrize("s, dtype", WIDTH_EDGES)
    def test_wire(self, s, dtype):
        rng = np.random.default_rng(s)
        for d in (1, 20, 1027):
            levels = rng.integers(0, s, size=d, endpoint=True, dtype=np.uint64)
            levels[0] = s
            signs = rng.choice(np.array([-1, 1], np.int8), size=d)
            q = QuantizedUpdate(norm=1.5, signs=signs, levels=levels, s=s, d=d)
            if s > 2**32 - 1:
                # the wire carries s in 32 bits
                with pytest.raises(ValueError, match="32 bits"):
                    encode(q)
                continue
            blob = encode(q)
            assert blob == encode(as_int64(q))
            q2 = decode(blob, d)
            assert q2 == q and q2.levels.dtype == dtype


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


def assert_uplink_matches(d, s, kinds, raw_weights, seed, group=None):
    """``_uplink`` against quantize-then-aggregate on the reference
    formulas; with ``group``, the budget holds that many rows of ``d``."""
    rng = np.random.default_rng(seed)
    deltas = [client_delta(kind, d, rng) for kind in kinds]
    weights = [k / sum(raw_weights[: len(kinds)]) for k in raw_weights[: len(kinds)]]
    base = rng.standard_normal(d)
    base[rng.random(d) < 0.1] = -0.0
    ref_rngs = [np.random.default_rng([seed, i]) for i in range(len(kinds))]
    rngs = [np.random.default_rng([seed, i]) for i in range(len(kinds))]
    updates = [quantize(delta, s, r) for delta, r in zip(deltas, ref_rngs)]
    want = reference_aggregate(base, updates, weights)
    budget = fedsim._UPLINK_BYTES if group is None else 8 * d * group
    with mock.patch.object(fedsim, "_UPLINK_BYTES", budget):
        got = _uplink(base, np.array(deltas), s, rngs, _UplinkWorkspace(weights, d))
    assert got.tobytes() == want.tobytes()
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in ref_rngs]


class TestRoundUplink:
    @pytest.mark.parametrize("group", [None, 1, 2, 3])
    @given(
        d=st.integers(1, 3000),
        s=st.sampled_from([1, 2, 3, 255, 256, 65535, 2**32 - 1]),
        kinds=st.lists(st.sampled_from(["normal", "zero", "underflow"]), min_size=1, max_size=5),
        raw_weights=st.lists(st.integers(1, 1000), min_size=5, max_size=5),
        seed=seeds,
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_quantize_then_aggregate(self, group, d, s, kinds, raw_weights, seed):
        # group None is the default budget: every client in one group up to
        # d = 4096 over 5 clients
        assert_uplink_matches(d, s, kinds, raw_weights, seed, group)

    @pytest.mark.parametrize("group", [1, 2, 3])
    def test_zero_norm_clients_inside_a_group(self, group):
        # groups of 2 and 3 over 5 clients each hold a zero and an
        # underflowing client beside clients that draw
        kinds = ["normal", "zero", "normal", "underflow", "normal"]
        for seed in range(20):
            assert_uplink_matches(37, 5, kinds, [3, 1, 4, 1, 5], seed, group)

    @given(
        rows=st.lists(vectors, min_size=1, max_size=6),
        layout=st.sampled_from(["plane", "strided", "reversed"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_plane_norms_are_each_rows_linalg_norm(self, rows, layout):
        d = rows[0].size
        plane = np.array([np.resize(w, d) for w in rows])
        if layout == "strided":
            plane = np.repeat(plane, 2, axis=1)[:, ::2]
        elif layout == "reversed":
            plane = plane[::-1, ::-1]
        _, norms, norms32 = _check_input(plane, 3)
        for w, norm, norm32 in zip(plane, norms, norms32):
            want = float(np.linalg.norm(w))
            assert norm.tobytes() == np.float64(want).tobytes()
            assert norm32 == float(np.float32(want))

    @given(w=vectors, s=levels, seed=seeds, layout=st.sampled_from(["strided", "reversed"]))
    @settings(max_examples=200, deadline=None)
    def test_quantize_of_a_view_is_quantize_of_its_copy(self, w, s, seed, layout):
        view = np.repeat(w, 2)[::2] if layout == "strided" else w[::-1]
        assert not view.flags.c_contiguous or view.size == 1
        rng_view, rng_copy = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = quantize(view, s, rng_view), quantize(view.copy(), s, rng_copy)
        assert np.float64(got.norm).tobytes() == np.float64(want.norm).tobytes()
        assert got.signs.tobytes() == want.signs.tobytes()
        assert got.levels.dtype == want.levels.dtype
        assert got.levels.tobytes() == want.levels.tobytes()
        assert rng_view.bit_generator.state == rng_copy.bit_generator.state

    def test_workspace_serves_consecutive_rounds(self):
        # 8 clients in groups of 3, 3 and 2, client 4 at zero norm: one
        # workspace quantizes two rounds, and the short last group leaves
        # its buffers whole for the next round's full groups
        d, s = 29, 7
        weights = [k / 36 for k in range(1, 9)]
        rng = np.random.default_rng(5)
        rngs = [np.random.default_rng([5, i]) for i in range(8)]
        ref_rngs = [np.random.default_rng([5, i]) for i in range(8)]
        with mock.patch.object(fedsim, "_UPLINK_BYTES", 8 * d * 3):
            workspace = _UplinkWorkspace(weights, d)
        assert workspace.group == 3
        buffers = (workspace.frac, workspace.lower, workspace.u, workspace.carry)
        w = rng.standard_normal(d)
        for _ in range(2):
            deltas = np.array([client_delta("zero" if i == 4 else "normal", d, rng) for i in range(8)])
            want = aggregate(w, [quantize(delta, s, r) for delta, r in zip(deltas, ref_rngs)], weights)
            got = _uplink(w, deltas, s, rngs, workspace)
            assert got.tobytes() == want.tobytes()
            assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in ref_rngs]
            kept = (workspace.frac, workspace.lower, workspace.u, workspace.carry)
            assert all(a is b and a.shape[0] == 3 for a, b in zip(kept, buffers))
            assert [len(rows) for rows in (workspace.lower_rows, workspace.u_rows)] == [3, 3]
            w = got

    def test_inputs_are_left_alone(self):
        w = np.array([0.5, -0.0, 2.0])
        w.setflags(write=False)
        deltas = [np.array([1.0, -2.0, 0.0]), np.array([-0.0, 3.0, 1e-46])]
        before = [delta.copy() for delta in deltas]
        rngs = [np.random.default_rng(i) for i in range(2)]
        _uplink(w, deltas, 3, rngs, _UplinkWorkspace([0.25, 0.75], 3))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(deltas, before))
