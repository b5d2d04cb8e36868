"""The minibatch sampler against a one-row partial Fisher-Yates shuffle.

``objectives._draw_batches`` specifies each minibatch of ``b`` of ``m``
rows by its ``b`` doubles ``u`` from its stream: the first ``b`` entries
of ``arange(m)`` after step ``i`` swaps positions ``i`` and
``i + floor(u[i] * (m - i))``, for ``i < b``.  ``fisher_yates`` below is
that specification, one minibatch at a time; the sampler runs it in
lockstep over many minibatches, in row chunks of a bounded index plane,
and must return exactly its rows and leave each stream where successive
one-row draws leave it.  The other tests' reference loops draw their
minibatches through ``fisher_yates`` and ``reference_batch``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedquant import objectives
from fedquant.objectives import Dataset, _draw_batches, sample_batch


def fisher_yates(rng: np.random.Generator, m: int, b: int) -> np.ndarray:
    """One minibatch of ``b`` of ``m`` rows, step by step."""
    u = rng.random(b)
    rows = list(range(m))
    for i in range(b):
        j = i + int(u[i] * (m - i))
        rows[i], rows[j] = rows[j], rows[i]
    return np.array(rows[:b])


def reference_batch(data: Dataset, batch_size: int, rng: np.random.Generator) -> Dataset:
    """``sample_batch`` by the specification: all rows, drawing nothing,
    when the batch covers them."""
    if batch_size >= data.m:
        return data
    return data.subset(fisher_yates(rng, data.m, batch_size))


def generators(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng([seed, i]) for i in range(n)]


def assert_matches_one_row_draws(ms, b, count, seed):
    got_rngs, row_rngs, ref_rngs = (generators(seed, len(ms)) for _ in range(3))
    got = _draw_batches(got_rngs, ms, b, count)
    assert got.shape == (len(ms), count, b)
    assert got.dtype == np.min_scalar_type(max(ms))
    for i, m in enumerate(ms):
        for t in range(count):
            want = fisher_yates(ref_rngs[i], m, b)
            assert np.array_equal(got[i, t], want), (i, t)
            assert np.array_equal(_draw_batches([row_rngs[i]], [m], b)[0, 0], want), (i, t)
    for used, row, ref in zip(got_rngs, row_rngs, ref_rngs):
        assert used.bit_generator.state == row.bit_generator.state == ref.bit_generator.state


@st.composite
def shapes(draw):
    b = draw(st.integers(1, 40))
    ms = draw(st.lists(st.integers(b + 1, 400), min_size=1, max_size=4))
    return ms, b


@settings(max_examples=200, deadline=None)
@given(shapes(), st.sampled_from([1, 2, 10]), st.integers(0, 2**32))
def test_block_equals_successive_one_row_draws(shape, count, seed):
    ms, b = shape
    assert_matches_one_row_draws(ms, b, count, seed)


@pytest.mark.parametrize(
    "ms, b",
    [
        # one row per minibatch, and all rows but one; a uint32 plane
        ([2, 3, 300, 70_000, 2], 1),
        ([300, 300, 2, 300], 1),
        ([300, 299, 300], 298),
        ([250, 251, 4000, 33], 32),
    ],
)
@pytest.mark.parametrize("count", [1, 16])
def test_unequal_rows_in_one_call(ms, b, count):
    assert_matches_one_row_draws(ms, b, count, seed=b)


@pytest.mark.parametrize(
    "m, b",
    [
        # the fewest rows, and the last of uint8 and first of uint16 rows
        (2, 1),
        (255, 254),
        (256, 1),
        (256, 255),
        # one row, and all rows but one, of the largest uint16 plane
        (65_535, 1),
        (65_535, 65_534),
        # around a batch of 200 at 10,000 rows
        (10_000, 200),
        (10_000, 201),
        (10_001, 200),
        (10_001, 10_000),
    ],
)
@pytest.mark.parametrize("count", [1, 3])
def test_boundaries_match_one_row_draws(m, b, count):
    assert_matches_one_row_draws([m], b, count, seed=m + b)


def test_plane_in_several_row_chunks(monkeypatch):
    # 100,000 rows in uint32 are 400,000 bytes a plane row, so 1 MiB holds
    # two: the 5 minibatches below take three chunks
    assert 2 * 100_000 * 4 <= objectives._GATHER_BYTES < 3 * 100_000 * 4
    assert_matches_one_row_draws([100_000], 7, 5, seed=3)
    # and one row a chunk, the least a chunk holds
    monkeypatch.setattr(objectives, "_GATHER_BYTES", 0)
    assert_matches_one_row_draws([250, 9, 251], 8, 3, seed=4)


@pytest.mark.parametrize("m, dtype", [(255, np.uint8), (256, np.uint16), (65_536, np.uint32)])
def test_narrowest_dtype_that_holds_the_rows(m, dtype):
    assert _draw_batches(generators(0, 2), [m, 2], 1, 3).dtype == dtype


def test_largest_draw_stays_inside_the_rows():
    class Highest:
        """Every double just below 1, the largest ``random`` returns."""

        def random(self, shape):
            return np.full(shape, np.nextafter(1.0, 0.0))

    # every step swaps its position with the last, m - 1, which then
    # holds what the step before it moved there
    got = _draw_batches([Highest()], [10], 4, 2)
    assert got.tolist() == [[[9, 0, 1, 2]] * 2]
    assert np.array_equal(got[0, 0], fisher_yates(Highest(), 10, 4))


def test_rejects_batches_that_cover_the_rows():
    with pytest.raises(ValueError, match="batch_size < m"):
        _draw_batches(generators(0, 2), [10, 5], 5)
    with pytest.raises(ValueError, match="batch_size < m"):
        _draw_batches(generators(0, 1), [3], 4)


def test_ordered_pairs_are_uniform():
    # every ordered pair of 2 of 5 rows, 20 in all, is equally likely; at
    # 20,000 draws from one seed the chi-square statistic, 19 degrees of
    # freedom, stays below 43.82, its 0.999 quantile
    draws = _draw_batches([np.random.default_rng(2026)], [5], 2, 20_000)[0].astype(np.intp)
    counts = np.bincount(draws[:, 0] * 5 + draws[:, 1], minlength=25).reshape(5, 5)
    assert np.all(np.diag(counts) == 0)
    observed = counts[~np.eye(5, dtype=bool)]
    expected = 20_000 / 20
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2 < 43.82


def test_sample_batch_is_the_specified_subset():
    x = np.arange(60.0).reshape(30, 2)
    data = Dataset(features=x, labels=np.arange(30) % 2)
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    batch = sample_batch(data, 7, rng)
    rows = fisher_yates(ref, 30, 7)
    assert np.array_equal(batch.features, x[rows])
    assert np.array_equal(batch.labels, data.labels[rows])
    assert rng.bit_generator.state == ref.bit_generator.state
    # a batch covering the data returns it as is and draws nothing
    assert sample_batch(data, 30, rng) is data
    assert rng.bit_generator.state == ref.bit_generator.state
