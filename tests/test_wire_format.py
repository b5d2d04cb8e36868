"""The wire format pinned byte for byte, and the strict decoder fuzzed.

The known answers were computed with the shift-and-sum codec kept below as
``reference_encode`` / ``reference_decode``; the production codec must
reproduce them and agree with the reference on every input, valid or not.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedquant.quantizer import QuantizedUpdate, quantize
from fedquant.wire import MAGIC, VERSION, DecodeError, decode, encode

_HEADER = struct.Struct("<2sBII")
_NORM = struct.Struct("<f")

# every level width: 1, 2, 8, 9, 16, 17 and 32 bits
LEVELS = (1, 2, 255, 256, 65_535, 65_536, 2**32 - 1)
WIDE_D = 102_538

# encode(quantize(w, s, rng)) with rng = default_rng([d, s]) and
# w = rng.standard_normal(d); d = 1, 7, 9, 20 leave the sign plane short
# of a whole byte
KNOWN_HEX = {
    (1, 1): "5155010100000001000000e189083f02",
    (7, 1): "5155010100000007000000fe675a404e09",
    (9, 1): "5155010100000009000000b2339640921001",
    (20, 1): "5155010100000014000000152c9a40ce57089000",
    (1, 2): "515501020000000100000005b4993f05",
    (7, 2): "515501020000000700000055580940a6b008",
    (9, 2): "51550102000000090000004cbd6f40a9838002",
    (20, 2): "515501020000001400000065246a40434e5a0505110000",
    (1, 255): "515501ff00000001000000e203743ffe01",
    (7, 255): "515501ff00000007000000c58e474050ca239aceb20b06",
    (9, 255): "515501ff00000009000000d0270a405291163a72f02c57b6b800",
    (20, 255): "515501ff00000014000000b3cc8b40d36ca111e2c540f3936331f0e23524424145401351c207",
    (1, 256): "51550100010000010000006ddb7b3e0102",
    (7, 256): "51550100010000070000000c5b3e408d32063edc6073cc01",
    (9, 256): "5155010001000009000000e6f97d40d772d82972c84208029a0600",
    (20, 256): "51550100010000140000002daf70401e8158658a90042c263cba7043808c074a4c240811e5c28418",
    (1, 65535): "515501ffff000001000000b883a23efeff01",
    (7, 65535): "515501ffff0000070000000b5833404812acab2e20422d85464e73a1dc18",
    (9, 65535): "515501ffff000009000000c7aa2140074e6b3c49bd971075ba8ae45b66a722bd687600",
    (20, 65535): "515501ffff000014000000ffc98e40f03baed7f3f4f0b261c9529e01e4e62ff613a147f06652d776e2e161110c1373371c826bc122231ae0f500",
    (1, 65536): "5155010000010001000000121ee13f000002",
    (7, 65536): "515501000001000700000022210d401a5949c8571856a5c00036a1ff20d206",
    (9, 65536): "5155010000010009000000f166c43f37de62609a205c80dc4249c130149b0f1cd8648e00",
    (20, 65536): "51550100000100140000000d9bbe408cf2698083ec48b108791d4c21dc0ea84658a4d195e31e80e89ce00a385f442b54c8a081d1d422014eea818a17",
    (1, 4294967295): "515501ffffffff010000001dfaa63ffeffffff01",
    (7, 4294967295): "515501ffffffff07000000e3a670404548bdf3b7237cafaf542419b5e03199cad64c258e393195ad3b8acf11",
    (9, 4294967295): "515501ffffffff09000000c0bb30401fe1f6ff76d8485205fe147331b27c36dad059d58d3a64a1cff460dbb2b0de4859d874bd3301",
    (20, 4294967295): "515501ffffffff14000000ef3c9640c792506e81afa1053b2d8613a240823be178729fb77832923fb351caf585031ac2eb2038305f00a22642361b2e14a54173b736cd3cd4939a2109a24982cee34b0d25e1c76d2741ff27e5655be1c39088704400",
}

# sha256 of the same encoding at d = 102,538, keyed by s
KNOWN_SHA256 = {
    1: "b5a891bf52472c32f3ba574fa268b35b60a477cc643170d7201ae9d396cdd7e7",
    2: "981faad372c6b1d55332dcdbae2de89b48c034759a3ecd703399680d7bd99eef",
    255: "1b952c3d5024369abba47f5e0d2df1ccdf1b491237c17e9893eb52efacc2dc63",
    256: "d16c0ac693eab8f6e7d722a4cda675a6e8db69cd0964032b6e9c223161ccccee",
    65535: "dc77f8a3472d1926e4aae7cee4640f4f224d29fac7b07c57813f07a07c33fe4b",
    65536: "4d247cc8d0cb763b8e7e0f0c0e3d15b8ef8b0267a23a5b2d93349381257ffcdd",
    4294967295: "aa2ee9b8d7f06b16c0c7766fe5a3eca6b78485236589b36c16245f701d3ab4da",
}

ZERO_HEX = "515501ff00000009000000000000000000000000000000000000"  # d = 9, s = 255
ZERO_WIDE_SHA256 = "b9f9593ea051457a2e227b6b12f5397ff252adf24547880276633726195b5fdb"  # d = 102,538, s = 65,536


def reference_encode(q: QuantizedUpdate) -> bytes:
    """The codec's encoder as first written: one int64 shift per level bit."""
    eb = q.s.bit_length()
    sign_bits = (q.signs < 0).astype(np.uint8)
    level_bits = (
        (q.levels[:, None] >> np.arange(eb, dtype=np.int64)) & 1
    ).astype(np.uint8)
    plane = np.concatenate([sign_bits, level_bits.ravel()])
    payload = np.packbits(plane, bitorder="little").tobytes()
    return _HEADER.pack(MAGIC, VERSION, q.s, q.d) + _NORM.pack(q.norm) + payload


def reference_decode(blob: bytes, d: int) -> QuantizedUpdate:
    """The codec's decoder as first written: levels rebuilt by shift and sum."""
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
    eb = int(s).bit_length()
    expected = prefix + (d + d * eb + 7) // 8
    if len(blob) != expected:
        raise DecodeError(f"wrong length: {len(blob)} bytes, expected {expected}")
    (norm,) = _NORM.unpack_from(blob, _HEADER.size)
    if not np.isfinite(norm) or norm < 0.0:
        raise DecodeError(f"invalid norm {norm}")
    bits = np.unpackbits(
        np.frombuffer(blob, dtype=np.uint8, offset=prefix), bitorder="little"
    )
    used = d + d * eb
    if np.any(bits[used:]):
        raise DecodeError("nonzero padding bits")
    signs = (1 - 2 * bits[:d].astype(np.int8)).astype(np.int8)
    levels = (
        (bits[d:used].reshape(d, eb).astype(np.int64) << np.arange(eb, dtype=np.int64))
        .sum(axis=1)
    )
    if np.any(levels > s):
        raise DecodeError("level exceeds s")
    if norm == 0.0 and np.any(levels != 0):
        raise DecodeError("zero norm with nonzero levels")
    return QuantizedUpdate(norm=float(norm), signs=signs, levels=levels, s=int(s), d=d)


def pinned_update(d: int, s: int, zero: bool = False) -> QuantizedUpdate:
    rng = np.random.default_rng([d, s])
    w = np.zeros(d) if zero else rng.standard_normal(d)
    return quantize(w, s, rng)


def outcome(decoder, blob: bytes, d: int):
    """What a decoder makes of ``blob``: the update, or the error it raised."""
    try:
        return decoder(blob, d)
    except DecodeError as exc:
        return type(exc), str(exc)


def same_fields(a: QuantizedUpdate, b: QuantizedUpdate) -> bool:
    return (
        a == b
        and np.signbit(a.norm) == np.signbit(b.norm)
        and a.signs.dtype == b.signs.dtype
        and a.levels.dtype == b.levels.dtype
    )


class TestKnownAnswers:
    def test_cases_cover_every_level_width(self):
        assert {s.bit_length() for s in LEVELS} == {1, 2, 8, 9, 16, 17, 32}
        assert set(KNOWN_HEX) == {(d, s) for d in (1, 7, 9, 20) for s in LEVELS}
        assert set(KNOWN_SHA256) == set(LEVELS)

    def test_small_d_bytes(self):
        for (d, s), expected in KNOWN_HEX.items():
            q = pinned_update(d, s)
            blob = encode(q)
            assert blob.hex() == expected, (d, s)
            assert decode(blob, d) == q

    def test_wide_d_digest(self):
        for s, expected in KNOWN_SHA256.items():
            q = pinned_update(WIDE_D, s)
            blob = encode(q)
            assert hashlib.sha256(blob).hexdigest() == expected, s
            assert decode(blob, WIDE_D) == q

    def test_zero_vector(self):
        q = pinned_update(9, 255, zero=True)
        assert encode(q).hex() == ZERO_HEX
        assert decode(bytes.fromhex(ZERO_HEX), 9) == q
        wide = encode(pinned_update(WIDE_D, 65_536, zero=True))
        assert hashlib.sha256(wide).hexdigest() == ZERO_WIDE_SHA256

    def test_reference_codec_reproduces_the_known_answers(self):
        for (d, s), expected in KNOWN_HEX.items():
            q = pinned_update(d, s)
            assert reference_encode(q).hex() == expected, (d, s)
            assert same_fields(reference_decode(bytes.fromhex(expected), d), q)


class TestAgainstReference:
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 70),
        s=st.one_of(st.sampled_from(LEVELS), st.integers(1, 2**32 - 1)),
        scale=st.sampled_from((0.0, 1e-50, 1e-30, 1.0, 1e30)),
    )
    @settings(max_examples=300, deadline=None)
    def test_bytes_and_fields_equal_reference(self, seed, d, s, scale):
        rng = np.random.default_rng(seed)
        q = quantize(rng.standard_normal(d) * scale, s, rng)
        blob = encode(q)
        assert blob == reference_encode(q)
        assert same_fields(decode(blob, d), reference_decode(blob, d))


@st.composite
def valid_encodings(draw):
    d = draw(st.integers(1, 40))
    s = draw(st.one_of(st.sampled_from(LEVELS), st.integers(1, 2**32 - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return encode(quantize(rng.standard_normal(d), s, rng)), d


@st.composite
def mutated_encodings(draw):
    blob, d = draw(valid_encodings())
    blob = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    return bytes(blob), d


@st.composite
def random_payloads(draw):
    """A header that passes every check but the payload's, then random bytes."""
    d = draw(st.integers(1, 40))
    s = draw(st.one_of(st.sampled_from(LEVELS), st.integers(1, 2**32 - 1)))
    size = (d + d * s.bit_length() + 7) // 8 + draw(st.sampled_from((0, 0, 0, -1, 1)))
    norm = draw(st.sampled_from((0.0, -0.0, 1.5, 3e38)))
    tail = draw(st.binary(min_size=size, max_size=size))
    return _HEADER.pack(MAGIC, VERSION, s, d) + _NORM.pack(norm) + tail, d


class TestStrictDecoderFuzz:
    @given(
        case=st.one_of(
            st.tuples(st.binary(max_size=64), st.integers(1, 40)),
            mutated_encodings(),
            random_payloads(),
        )
    )
    @settings(max_examples=1000, deadline=None)
    def test_rejects_or_round_trips(self, case):
        blob, d = case
        result = outcome(decode, blob, d)  # any error but DecodeError fails here
        expected = outcome(reference_decode, blob, d)
        if isinstance(result, QuantizedUpdate):
            assert encode(result) == blob
            assert same_fields(result, expected)
        else:
            assert result == expected


class TestEveryWidth:
    """Every level width 1-32, each d % 8 and d % g, against the reference.

    The fields are drawn uniformly from [0, s] so that every bit of every
    field is exercised, which Gaussian updates at a large s rarely do.
    """

    @staticmethod
    def uniform_update(d: int, s: int, rng: np.random.Generator) -> QuantizedUpdate:
        return QuantizedUpdate(
            norm=1.5,
            signs=rng.choice(np.array([-1, 1], dtype=np.int8), size=d),
            levels=rng.integers(0, s, size=d, endpoint=True),
            s=s,
            d=d,
        )

    @staticmethod
    def raise_last_field(blob: bytes, d: int, eb: int) -> bytes:
        """``blob`` with the last level field set to all ones."""
        prefix = _HEADER.size + _NORM.size
        bits = np.unpackbits(np.frombuffer(blob, np.uint8, offset=prefix), bitorder="little")
        end = d + d * eb
        bits[end - eb : end] = 1
        return blob[:prefix] + np.packbits(bits, bitorder="little").tobytes()

    def check(self, d: int, s: int, rng: np.random.Generator) -> None:
        q = self.uniform_update(d, s, rng)
        blob = encode(q)
        assert blob == reference_encode(q), (d, s)
        assert same_fields(decode(blob, d), reference_decode(blob, d)), (d, s)
        assert same_fields(decode(blob, d), q), (d, s)
        eb = s.bit_length()
        if s < 2**eb - 1:
            raised = self.raise_last_field(blob, d, eb)
            expected = (DecodeError, "level exceeds s")
            assert outcome(reference_decode, raised, d) == expected, (d, s)
            assert outcome(decode, raised, d) == expected, (d, s)

    def test_small_d(self):
        rng = np.random.default_rng(20_251)
        for eb in range(1, 33):
            for s in (2 ** (eb - 1), 2**eb - 1):
                for d in range(1, 25):
                    self.check(d, s, rng)

    def test_wide_d(self):
        rng = np.random.default_rng(102_538)
        for eb in range(1, 33):
            self.check(WIDE_D, 2 ** (eb - 1), rng)
