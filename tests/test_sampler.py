"""The batched minibatch sampler against ``Generator.choice``, its reference.

``objectives._draw_batches`` must return, for each stream, exactly what
successive ``rng.choice(m, b, replace=False)`` calls return, and leave each
``Generator`` in the state those calls leave.  NumPy's ``choice`` samples
with Floyd's algorithm unless ``m > 10000`` and ``b > m // 50``, where it
shuffles the tail of ``arange(m)``; both regimes and the switch are covered.
The equality rests on NumPy's ``choice`` algorithm, which CI pins with
``numpy==2.4.6``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedquant.objectives import Dataset, _choice_plan, _draw_batches, sample_batch


def generators(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng([seed, i]) for i in range(n)]


def assert_matches_choice(ms, b, count, seed):
    got_rngs, ref_rngs = generators(seed, len(ms)), generators(seed, len(ms))
    got = _draw_batches(got_rngs, ms, b, count)
    assert got.shape == (len(ms), count, b)
    assert got.dtype == np.int64
    for i, (m, ref) in enumerate(zip(ms, ref_rngs)):
        for t in range(count):
            assert np.array_equal(got[i, t], ref.choice(m, b, replace=False)), (i, t)
    for used, ref in zip(got_rngs, ref_rngs):
        assert used.bit_generator.state == ref.bit_generator.state
    # a bit generator no Generator has read is read as a fresh one would be
    fresh = [g.bit_generator for g in generators(seed, len(ms))]
    assert np.array_equal(_draw_batches(fresh, ms, b, count), got)


@st.composite
def floyd_shapes(draw):
    b = draw(st.integers(1, 64))
    ms = draw(st.lists(st.integers(b + 1, 400), min_size=1, max_size=4))
    return ms, b


@settings(max_examples=300, deadline=None)
@given(floyd_shapes(), st.sampled_from([1, 2, 10]), st.integers(0, 2**32))
def test_floyd_regime_matches_choice(shape, count, seed):
    ms, b = shape
    assert_matches_choice(ms, b, count, seed)


@st.composite
def tail_shapes(draw):
    m = draw(st.integers(10_001, 30_000))
    b = draw(st.integers(m // 50 + 1, m - 1))
    return [m], b


@settings(max_examples=40, deadline=None)
@given(tail_shapes(), st.sampled_from([1, 3]), st.integers(0, 2**32))
def test_tail_regime_matches_choice(shape, count, seed):
    ms, b = shape
    assert_matches_choice(ms, b, count, seed)


@settings(max_examples=60, deadline=None)
@given(st.integers(2**31, 2**32), st.integers(1, 6), st.integers(0, 2**32))
def test_rejected_words_are_redrawn(m, b, seed):
    # bounds near 2**31 reject about half of Lemire's words, so the redraw
    # path runs on nearly every call
    assert_matches_choice([m, m - 1], b, 3, seed)


@pytest.mark.parametrize(
    "m, b",
    [
        # the switch between the regimes: b = m // 50 and one above it
        (10_000, 200),
        (10_000, 201),
        (10_001, 200),
        (10_001, 201),
        # one row, and all rows but one
        (2, 1),
        (300, 1),
        (300, 299),
        (10_001, 1),
        (10_001, 10_000),
        (20_000, 19_999),
    ],
)
@pytest.mark.parametrize("count", [1, 10])
def test_boundaries_match_choice(m, b, count):
    assert_matches_choice([m], b, count, seed=m + b)


@pytest.mark.parametrize(
    "ms, b",
    [
        # one row per call, and all rows but one, on streams of unequal rows
        ([2, 3, 300, 10_000, 2], 1),
        ([300, 300, 300], 299),
        ([10_000, 10_000], 9_999),
    ],
)
def test_lockstep_extremes_match_choice(ms, b):
    assert_matches_choice(ms, b, 3, seed=b)


def test_plan_holds_one_row_of_bounds_per_row_count():
    # a reference block, 8 clients over 16 rounds, holds the same plan
    # whatever the local steps: its size grows with neither
    floyd, tail = _choice_plan((250,) * 128, 32)
    held = [v for v in vars(floyd).values() if isinstance(v, np.ndarray)]
    assert tail is None and sum(a.nbytes for a in held) < 64 * 1024


@pytest.mark.parametrize("count", [1, 10, 16])
def test_unequal_rows_in_one_call(count):
    # Floyd, tail, Floyd (10049 // 50 = 200 < 201: tail), Floyd
    assert_matches_choice([300, 10_001, 20_000, 10_049, 250], 201, count, seed=7)
    assert_matches_choice([250, 251, 4000, 33], 32, count, seed=8)


def test_rejects_batches_that_cover_the_rows():
    with pytest.raises(ValueError, match="batch_size < m"):
        _draw_batches(generators(0, 2), [10, 5], 5)
    with pytest.raises(ValueError, match="batch_size < m"):
        _draw_batches(generators(0, 1), [2**32 + 1], 3)


def test_any_bit_generator_and_state_match_choice():
    # 32-bit native words (MT19937), another 64-bit generator (Philox), and
    # a PCG64 holding the spare half of a word it has already drawn
    def streams():
        half = np.random.default_rng(3)
        half.integers(0, 2**32, 1, dtype=np.uint32)
        bits = (np.random.MT19937(1), np.random.Philox(2))
        return [np.random.Generator(bg) for bg in bits] + [half]

    got_rngs, ref_rngs = streams(), streams()
    got = _draw_batches(got_rngs, [250, 251, 97], 32, 3)
    for i, (m, ref) in enumerate(zip([250, 251, 97], ref_rngs)):
        for t in range(3):
            assert np.array_equal(got[i, t], ref.choice(m, 32, replace=False)), (i, t)
    for used, ref in zip(got_rngs, ref_rngs):
        np.testing.assert_equal(used.bit_generator.state, ref.bit_generator.state)


def test_sample_batch_is_choice_subset():
    x = np.arange(60.0).reshape(30, 2)
    data = Dataset(features=x, labels=np.arange(30) % 2)
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    batch = sample_batch(data, 7, rng)
    rows = ref.choice(30, 7, replace=False)
    assert np.array_equal(batch.features, x[rows])
    assert np.array_equal(batch.labels, data.labels[rows])
    assert rng.bit_generator.state == ref.bit_generator.state
    # a batch covering the data returns it as is and draws nothing
    assert sample_batch(data, 30, rng) is data
    assert rng.bit_generator.state == ref.bit_generator.state
