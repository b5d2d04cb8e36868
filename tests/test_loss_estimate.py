"""The per-round training-loss estimate, stacked over shards.

A run's loss estimate evaluates every group of shards with the same row
count in one stacked kernel call, and the public ``loss`` is that kernel
on one block.  These tests hold both to the code they replaced, kept here
as the reference: the unstacked loss formulas, applied to each shard alone
(for the minibatch estimate, on a minibatch drawn by the sampler's one-row
specification from the shard's ``ROLE_LOSS`` stream of the run, read in
round order), weighted and summed in shard order.  The values must match
exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from test_sampler import reference_batch

from fedquant.fedsim import ROLE_LOSS, _loss_estimate, _Rows, derive_rng, global_loss
from fedquant.objectives import (
    ClientShard,
    ModelSpec,
    _labels,
    _losses,
    generate_synthetic,
    init_params,
    loss,
)

MODELS = {
    "quadratic": ModelSpec("quadratic", 3),
    "logistic": ModelSpec("logistic", 4),
    "logistic_one_feature": ModelSpec("logistic", 1),
    "mlp": ModelSpec("mlp", 4, 6, 3),
    "mlp10": ModelSpec("mlp", 5, 7, 10),
}
# shard sizes: equal, unequal, one shard, and groups that interleave
LAYOUTS = [(6, 6, 6), (9, 4, 4, 9, 7), (13,), (3, 40, 3, 40, 200)]


def make_shards(model: ModelSpec, sizes) -> list[ClientShard]:
    if model.kind == "quadratic":
        kind, classes = "regression", 2
    else:
        kind, classes = "classification", max(model.n_classes, 2)
    data = generate_synthetic(
        kind, sum(sizes), model.n_features, noise=0.1, seed=3, n_classes=classes
    )
    shards, start = [], 0
    for i, m in enumerate(sizes):
        rows = np.arange(start, start + m)
        shards.append(ClientShard(client_id=i, data=data.subset(rows), weight=m / data.m))
        start += m
    return shards


def start_point(model: ModelSpec) -> np.ndarray:
    rng = np.random.default_rng(1)
    return init_params(model, rng) + 0.3 * rng.standard_normal(model.dim)


def estimator(model, shards, batch_size, master_seed, rounds):
    """A run's loss estimate, read as ``estimate(w, k)`` in round order:
    ``batch_size`` None is the full loss."""
    rows = _Rows(model, shards, batch_size, 1, loss_streams(shards, master_seed).__getitem__, rounds)
    return lambda w, k: _loss_estimate(rows, w, k)


def unstacked_loss(model, w, x, y) -> float:
    """The loss formulas for one block of rows on 2-D arrays, written out."""
    if model.kind == "quadratic":
        r = x @ w - np.asarray(y, dtype=np.float64)
        return float(0.5 * (r @ r) / x.shape[0])
    if model.kind == "logistic":
        z = x @ w[:-1] + w[-1]
        y = np.asarray(y, dtype=np.float64)
        return float(np.mean(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - y * z))
    f, h, c = model.n_features, model.hidden, model.n_classes
    w1, b1 = w[: f * h].reshape(f, h), w[f * h : f * h + h]
    w2, b2 = w[f * h + h : f * h + h + h * c].reshape(h, c), w[f * h + h + h * c :]
    logits = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return float(-np.mean(log_p[np.arange(x.shape[0]), np.asarray(y, dtype=np.int64)]))


def loss_streams(shards, master_seed):
    return [derive_rng(master_seed, ROLE_LOSS, sh.client_id) for sh in shards]


def reference_estimate(model, shards, w, batch_size, rngs) -> float:
    """The next round's estimate; ``rngs`` are the shards' ``ROLE_LOSS``
    streams, None for the full loss."""
    total = 0.0
    for i, sh in enumerate(shards):
        data = sh.data
        if batch_size is not None:
            data = reference_batch(data, batch_size, rngs[i])
        total += sh.weight * unstacked_loss(model, w, data.features, data.labels)
    return total


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("kind", sorted(MODELS))
def test_full_estimate_equals_global_loss(kind, layout):
    model = MODELS[kind]
    shards = make_shards(model, layout)
    estimate = estimator(model, shards, None, 0, 3)
    for k in range(3):
        w = start_point(model) * (k + 1)
        expected = reference_estimate(model, shards, w, None, None)
        assert estimate(w, k) == expected == global_loss(model, shards, w)


@pytest.mark.parametrize("batch_size", [1, 4, 9, 1000])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("kind", sorted(MODELS))
def test_minibatch_estimate_equals_reference_loop(kind, layout, batch_size):
    model = MODELS[kind]
    shards = make_shards(model, layout)
    estimate = estimator(model, shards, batch_size, 17, 3)
    rngs = loss_streams(shards, 17)
    for k in range(3):
        w = start_point(model) * (k + 1)
        assert estimate(w, k) == reference_estimate(model, shards, w, batch_size, rngs)


def test_minibatches_drawn_for_blocks_of_rounds():
    # the minibatches of several rounds come from one sampler call; rounds
    # across a block's end, twice, and in a short last block draw what the
    # streams read round by round give
    model = MODELS["logistic"]
    shards = make_shards(model, (9, 4, 4, 9, 7))
    estimate = estimator(model, shards, 5, 17, 42)
    rngs = loss_streams(shards, 17)
    for k in range(42):
        w = start_point(model) * (k + 1)
        assert estimate(w, k) == reference_estimate(model, shards, w, 5, rngs)
        assert estimate(w, k) == estimate(w, k)  # a round asked for again
    # the streams are read in round order: a round skipped, or one asked
    # for again once its block is gone, is refused
    estimate = estimator(model, shards, 5, 17, 42)
    estimate(w, 0)
    with pytest.raises(ValueError, match="round 17 asked for after round 15"):
        estimate(w, 17)
    estimate(w, 16)
    with pytest.raises(ValueError, match="round 3 asked for after round 31"):
        estimate(w, 3)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_stacked_kernel_matches_one_block_at_a_time(kind):
    model = MODELS[kind]
    shards = make_shards(model, (8, 8, 8, 8))
    w = start_point(model)
    x = np.stack([sh.data.features for sh in shards])
    y = np.stack([_labels(model, sh.data.labels) for sh in shards])
    got = _losses(model, w, x, y)
    expected = [unstacked_loss(model, w, sh.data.features, sh.data.labels) for sh in shards]
    assert got.tolist() == expected
    assert [loss(model, w, sh.data) for sh in shards] == expected

