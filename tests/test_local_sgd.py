"""Local SGD with all clients of a round stepped together.

The simulator advances every client of a round in lockstep and gets their
gradients from one stacked kernel.  These tests hold it to the loop it
replaced, kept here as the reference: each client alone, per step a
minibatch drawn by the sampler's one-row specification
(``test_sampler.reference_batch``) then ``gradient``, then
``w -= eta * g``.  The deltas, the random streams and the divergence
errors must match exactly.
"""

from __future__ import annotations

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from test_sampler import fisher_yates, reference_batch
from test_training_loop import reference_training

from fedquant import fedsim, objectives
from fedquant.config import FixedMode, SyntheticData, TrainingConfig
from fedquant.controller import LrSchedule
from fedquant.fedsim import (
    ROLE_SGD,
    GlobalState,
    Problem,
    TrainingDiverged,
    derive_rng,
    local_round,
    run_round,
    run_training,
)
from fedquant.objectives import (
    ClientShard,
    Dataset,
    ModelSpec,
    generate_synthetic,
    gradient,
    init_params,
    sample_batch,
)

MODELS = {
    "quadratic": ModelSpec.quadratic(3),
    "logistic": ModelSpec.logistic(4),
    # one feature: products over a length-1 axis skip BLAS
    "logistic_one_feature": ModelSpec.logistic(1),
    "mlp": ModelSpec.mlp(4, 6, 3),
    # ten classes: the output-layer sums run past the 8-way blocks of
    # NumPy's pairwise summation
    "mlp10": ModelSpec.mlp(5, 7, 10),
}


def reference_local_sgd(model, shards, w_start, local_steps, eta, batch_size, rngs):
    """The client-by-client loop, step by step."""
    deltas = []
    for shard, rng in zip(shards, rngs):
        w = np.array(w_start, dtype=np.float64)
        for t in range(local_steps):
            batch = reference_batch(shard.data, batch_size, rng)
            g = gradient(model, w, batch)
            w -= eta * g
            if not np.all(np.isfinite(w)) or float(np.max(np.abs(w))) > 1e18:
                raise TrainingDiverged(
                    f"client {shard.client_id}: parameters blew up at local step {t}",
                    step=t,
                    client_id=shard.client_id,
                )
        deltas.append(w - w_start)
    return deltas


def stacked_local_sgd(model, shards, w_start, local_steps, eta, batch_size, rngs):
    """One round of the simulator's local SGD, with shard ``i``'s
    minibatches drawn from ``rngs[i]``, all clients stepped together."""
    rows = fedsim._Rows(model, shards, batch_size, local_steps, rngs.__getitem__)
    return fedsim._sgd(rows, w_start, 0, eta)


def masked_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def unstacked_gradient(model, w, data):
    """The gradient formulas for one client on 2-D arrays, written out."""
    x, m = data.features, data.m
    if model.kind == "quadratic":
        r = x @ w - np.asarray(data.labels, dtype=np.float64)
        return (x.T @ r) / m
    if model.kind == "logistic":
        z = x @ w[:-1] + w[-1]
        resid = masked_sigmoid(z) - np.asarray(data.labels, dtype=np.float64)
        g = np.empty(model.dim)
        g[:-1] = (x.T @ resid) / m
        g[-1] = resid.mean()
        return g
    f, h, c = model.n_features, model.hidden, model.n_classes
    w1, b1 = w[: f * h].reshape(f, h), w[f * h : f * h + h]
    w2, b2 = w[f * h + h : f * h + h + h * c].reshape(h, c), w[f * h + h + h * c :]
    pre = x @ w1 + b1
    hidden = np.maximum(pre, 0.0)
    logits = hidden @ w2 + b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)))
    probs[np.arange(m), np.asarray(data.labels, dtype=np.int64)] -= 1.0
    probs /= m
    back = (probs @ w2.T) * (pre > 0.0)
    return np.concatenate(
        [(x.T @ back).ravel(), back.sum(axis=0), (hidden.T @ probs).ravel(), probs.sum(axis=0)]
    )


def make_shards(model: ModelSpec, sizes, seed: int = 0) -> list[ClientShard]:
    """Consecutive slices of one synthetic dataset, of the given sizes."""
    rows = sum(sizes)
    if model.kind == "quadratic":
        data = generate_synthetic("regression", rows, model.n_features, noise=0.1, seed=seed)
    else:
        data = generate_synthetic(
            "classification", rows, model.n_features, noise=0.1, seed=seed,
            n_classes=max(model.n_classes, 2),
        )
    bounds = np.cumsum([0, *sizes])
    return [
        ClientShard(client_id=i, data=data.subset(np.arange(a, b)), weight=(b - a) / rows)
        for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]


def start_point(model: ModelSpec, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    w = init_params(model, rng)
    return w + 0.1 * rng.standard_normal(model.dim)


def streams(n: int, seed: int = 5):
    return [np.random.default_rng([seed, i]) for i in range(n)]


# (shard sizes, batch_size, local_steps); clients are stacked in groups
# that share the effective batch size min(batch_size, m)
LAYOUTS = {
    # 10 rows over 3 clients, as partition() splits them
    "unequal": ([4, 3, 3], 2, 4),
    "batch_one": ([4, 3, 3], 1, 5),
    # client 0 samples 3 of 4 rows; clients 1 and 2 step full-batch
    "mixed_full_batch": ([4, 3, 3], 3, 4),
    # two groups, neither samples
    "all_full_batch": ([4, 3, 3], 4, 3),
    "equal": ([10, 10, 10, 10], 8, 5),
    # one group of batch 6: clients 0 and 1 sample, client 2 is full-batch
    "shared_batch_full_and_sampled": ([7, 7, 6], 6, 3),
    # groups {0, 2} (sampling), {1} and {3} (full-batch): not in shard order
    "interleaved": ([6, 3, 6, 2], 4, 3),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("kind", sorted(MODELS))
def test_stacked_deltas_equal_reference_loop(kind, layout):
    model = MODELS[kind]
    sizes, batch_size, steps = LAYOUTS[layout]
    shards = make_shards(model, sizes)
    w0 = start_point(model)
    ref_rngs, new_rngs = streams(len(sizes)), streams(len(sizes))
    expected = reference_local_sgd(model, shards, w0, steps, 0.3, batch_size, ref_rngs)
    got = stacked_local_sgd(model, shards, w0, steps, 0.3, batch_size, new_rngs)
    assert len(got) == len(sizes)
    for want, have in zip(expected, got):
        assert np.array_equal(want, have)
    # every client consumed exactly the draws of the reference loop
    for a, b in zip(ref_rngs, new_rngs):
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("sizes", [[6, 3, 6, 3], [3, 6, 6, 3, 6]])
def test_deltas_are_one_plane_in_shard_order(sizes):
    # batch 4 puts the shards of 6 rows and those of 3 in two groups that
    # interleave in shard order; the uplink takes the rows as one plane
    model = MODELS["logistic"]
    shards = make_shards(model, sizes)
    w0 = start_point(model)
    expected = reference_local_sgd(model, shards, w0, 3, 0.3, 4, streams(len(sizes)))
    got = stacked_local_sgd(model, shards, w0, 3, 0.3, 4, streams(len(sizes)))
    assert isinstance(got, np.ndarray) and got.flags.c_contiguous
    assert got.shape == (len(sizes), model.dim)
    assert got.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("gather_bytes", [0, 2048, 3072])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_rows_gathered_a_few_steps_at_a_time(monkeypatch, layout, gather_bytes):
    # a stack gathers its clients' rows for as many steps as fit in
    # _GATHER_BYTES, at least one: "equal" steps 4 clients of batch 8 in
    # 1024 bytes, so its 5 steps are gathered 1, 2 or 3 at a time; the
    # sampler's index plane is cut into as many chunks
    monkeypatch.setattr(objectives, "_GATHER_BYTES", gather_bytes)
    model = MODELS["logistic"]
    sizes, batch_size, steps = LAYOUTS[layout]
    shards = make_shards(model, sizes)
    w0 = start_point(model)
    expected = reference_local_sgd(model, shards, w0, steps, 0.3, batch_size, streams(len(sizes)))
    got = stacked_local_sgd(model, shards, w0, steps, 0.3, batch_size, streams(len(sizes)))
    for want, have in zip(expected, got):
        assert np.array_equal(want, have)


@pytest.mark.parametrize("layout", ["equal", "interleaved"])
def test_later_rounds_step_in_the_run_planes(layout):
    # the planes, their gradient buffer and the deltas are made in the first
    # round through a row source; a later round copies its start point in
    # and allocates no (clients, dim) plane; dim is past NumPy's 8192-element
    # ufunc buffer, which a broadcast in a smaller plane allocates
    model = ModelSpec.quadratic(20_000)
    sizes, batch_size, steps = LAYOUTS[layout]
    shards = make_shards(model, sizes)
    rows = fedsim._Rows(model, shards, batch_size, steps, streams(len(sizes)).__getitem__, rounds=3)
    ref_rngs = streams(len(sizes))
    plane_bytes = len(sizes) * model.dim * 8
    for k in range(3):
        w0 = start_point(model, seed=k)
        expected = reference_local_sgd(model, shards, w0, steps, 0.3, batch_size, ref_rngs)
        tracemalloc.start()
        try:
            got = fedsim._sgd(rows, w0, k, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == np.array(expected).tobytes()
        if k == 0:
            first = got
            assert peak >= plane_bytes
        else:
            assert got is first
            assert peak < plane_bytes / 4


@pytest.mark.parametrize("given_block", [False, True])
@pytest.mark.parametrize("gather_bytes", [0, 2048])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_rounds_across_small_blocks_equal_reference_loop(monkeypatch, layout, gather_bytes, given_block):
    # blocks of two rounds and spans of one step or a few: every round, on
    # either side of a block's end, is the client-by-client loop on streams
    # read in round order, whether the row source builds its block or is
    # given one
    monkeypatch.setattr(fedsim, "_STREAM_ROUNDS", 2)
    monkeypatch.setattr(objectives, "_GATHER_BYTES", gather_bytes)
    model = MODELS["logistic"]
    sizes, batch_size, steps = LAYOUTS[layout]
    shards = make_shards(model, sizes)
    block = None
    if given_block:
        block = Dataset(
            features=np.concatenate([sh.data.features for sh in shards]),
            labels=np.concatenate([sh.data.labels for sh in shards]),
        )
    rngs, ref_rngs = streams(len(sizes)), streams(len(sizes))
    rows = fedsim._Rows(model, shards, batch_size, steps, rngs.__getitem__, rounds=5, block=block)
    for k in range(5):
        w0 = start_point(model, seed=k)
        expected = reference_local_sgd(model, shards, w0, steps, 0.3, batch_size, ref_rngs)
        assert fedsim._sgd(rows, w0, k, 0.3).tobytes() == np.array(expected).tobytes(), k
    for a, b in zip(ref_rngs, rngs):
        assert a.bit_generator.state == b.bit_generator.state


def test_later_rounds_gather_without_allocating():
    # 16 shards of 300 rows, 64 steps of batch 64 a round, gathered as one
    # span: after the first round, the rounds across the draws of the
    # second and third blocks allocate nothing the size of the index
    # workspace or of a gather buffer.  The sizes put every one of those
    # past the buffers NumPy's ufunc iterator takes for each broadcast or
    # strided operand in a block draw (8192 elements), which do not grow
    # with the rows
    model = ModelSpec.logistic(2)
    shards = make_shards(model, [300] * 16)
    rounds = 3 * fedsim._STREAM_ROUNDS
    rows = fedsim._Rows(model, shards, 64, 64, streams(16).__getitem__, rounds=rounds)
    assert rows.span == 64 and rows.x.shape == (64, 16, 64, 2) and rows.y.shape == (64, 16, 64)
    for _ in rows(0):
        pass
    tracemalloc.start()
    try:
        for k in range(1, rounds):
            for _ in rows(k):
                pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < min(rows.index.nbytes, rows.x.nbytes, rows.y.nbytes) / 2


def test_full_batch_clients_draw_nothing():
    model = MODELS["logistic"]
    shards = make_shards(model, [4, 3, 3])
    rngs = streams(3)
    stacked_local_sgd(model, shards, start_point(model), 4, 0.3, 3, rngs)
    fresh = streams(3)
    assert rngs[0].bit_generator.state != fresh[0].bit_generator.state
    for used, unused in zip(rngs[1:], fresh[1:]):
        assert used.bit_generator.state == unused.bit_generator.state


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_gradient_matches_unstacked_formulas(kind):
    model = MODELS[kind]
    shard = make_shards(model, [17], seed=3)[0]
    w = start_point(model, seed=4)
    for batch in (1, 5, 17):
        data = sample_batch(shard.data, batch, np.random.default_rng(batch))
        assert np.array_equal(gradient(model, w, data), unstacked_gradient(model, w, data))


def test_inputs_are_checked_before_stepping():
    model = MODELS["logistic"]
    shards = make_shards(model, [4, 3, 3])
    bad = ClientShard(
        client_id=3, data=Dataset(features=np.zeros((2, 4)), labels=np.array([0, 2])), weight=0.1
    )
    # the shards are checked by the public entries; the training loop
    # checks them once per run and steps on checked shards
    rngs = streams(1)
    before = rngs[0].bit_generator.state
    with pytest.raises(ValueError, match="labels"):
        local_round(model, bad, start_point(model), 2, 0.1, 2, rngs[0])
    assert rngs[0].bit_generator.state == before
    state = GlobalState(w=start_point(model), round_index=0, cumulative_bits=0)
    with pytest.raises(ValueError, match="labels"):
        run_round(
            model, [*shards, bad], state, 2, 0.1, local_steps=2, batch_size=2, master_seed=0
        )
    with pytest.raises(ValueError, match="length"):
        stacked_local_sgd(model, shards, np.zeros(3), 2, 0.1, 2, streams(3))
    with pytest.raises(ValueError, match="batch_size"):
        stacked_local_sgd(model, shards, start_point(model), 2, 0.1, 0, streams(3))


QUAD2 = ModelSpec.quadratic(2)


def scaled_shard(client_id: int, scale: float) -> ClientShard:
    x = np.random.default_rng(client_id).standard_normal((4, 2)) * scale
    return ClientShard(
        client_id=client_id, data=Dataset(features=x, labels=np.zeros(4)), weight=0.25
    )


@pytest.mark.parametrize("eta", [math.nan, 0.0, -0.5])
def test_step_size_is_checked_before_stepping(eta):
    # a nan step size passed the round path's inline test, and the client
    # diverged at its first step
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"eta must be positive, got {eta}"):
        local_round(QUAD2, scaled_shard(0, 1.0), np.ones(2), 2, eta, 2, rng)
    assert rng.bit_generator.state == before


def test_divergence_names_first_client_in_shard_order():
    # full-batch quadratic steps at eta = 1: client 0 stays put, client 1
    # blows up at step 24, clients 2 and 3 already at step 1.  The
    # client-by-client loop stops at client 1, so that is the error.
    shards = [scaled_shard(0, 0.1), scaled_shard(1, 3.0), scaled_shard(2, 1e8), scaled_shard(3, 1e8)]
    with pytest.raises(TrainingDiverged) as ref:
        reference_local_sgd(QUAD2, shards, np.ones(2), 40, 1.0, 4, streams(4))
    assert (ref.value.client_id, ref.value.step) == (1, 24)
    state = GlobalState(w=np.ones(2), round_index=7, cumulative_bits=0)
    with warnings.catch_warnings():
        # clients 2 and 3 grow 1e16-fold per step: left stepping, they
        # would overflow to inf and NaN long before step 24
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged) as got:
            run_round(
                QUAD2, shards, state, 3, 1.0, local_steps=40, batch_size=4, master_seed=0,
                train_loss=1.0,
            )
    assert str(got.value) == str(ref.value)
    assert (got.value.client_id, got.value.step, got.value.round_index) == (1, 24, 7)
    assert got.value.records == ()


def test_divergence_in_a_later_round_keeps_its_context():
    # at eta = 2.5 this run diverges in round 18, at client 3's last local
    # step (tests/test_training_loop.py holds such a run to the
    # client-by-client loop)
    config = TrainingConfig(
        model=QUAD2,
        data=SyntheticData(kind="regression", samples=64, n_features=2, noise=0.1),
        n_clients=4,
        local_steps=3,
        batch_size=8,
        lr=LrSchedule.constant(2.5),
        quantization=FixedMode(bits=4),
        rounds=200,
        master_seed=11,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged) as info:
            run_training(config)
    exc = info.value
    assert str(exc) == "client 3: parameters blew up at local step 2"
    assert (exc.client_id, exc.step, exc.round_index) == (3, 2, 18)
    complete = run_training(replace(config, rounds=18))
    assert exc.records == complete.records


def test_diverging_round_drawn_ahead_keeps_its_error():
    # every client samples 2 of its 4 rows; clients 2 and 3 blow up at
    # once, client 1 later, and all minibatches of the round are drawn
    # before the first step
    shards = [scaled_shard(i, scale) for i, scale in enumerate((0.1, 3.0, 1e8, 1e8))]
    state = GlobalState(w=np.ones(2), round_index=3, cumulative_bits=0)
    sgd_streams = [derive_rng(0, ROLE_SGD, sh.client_id, 3) for sh in shards]
    with pytest.raises(TrainingDiverged) as ref:
        reference_local_sgd(QUAD2, shards, np.ones(2), 40, 1.0, 2, sgd_streams)
    assert ref.value.client_id == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged) as got:
            run_round(
                QUAD2, shards, state, 3, 1.0, local_steps=40, batch_size=2, master_seed=0,
                train_loss=1.0,
            )
    assert str(got.value) == str(ref.value)
    assert (got.value.client_id, got.value.step, got.value.round_index) == (
        ref.value.client_id, ref.value.step, 3,
    )
    # the clients before the diverging one are unaffected
    first = shards[:1]
    kept = stacked_local_sgd(QUAD2, first, np.ones(2), 40, 1.0, 2, [derive_rng(0, ROLE_SGD, 0, 3)])
    want = reference_local_sgd(QUAD2, first, np.ones(2), 40, 1.0, 2, [derive_rng(0, ROLE_SGD, 0, 3)])
    assert np.array_equal(kept[0], want[0])


@pytest.mark.parametrize("gather_bytes", [0, 384])
def test_divergence_inside_a_gathered_span_keeps_its_error(monkeypatch, gather_bytes):
    # a step of 4 clients of batch 2 on 2 features is 128 bytes: the rows
    # of 1 or 3 steps are gathered at once.  Clients 2 and 3 blow up at
    # step 1, so step 2, the first span's last, runs without them; client
    # 1 blows up at step 29
    monkeypatch.setattr(objectives, "_GATHER_BYTES", gather_bytes)
    shards = [scaled_shard(i, scale) for i, scale in enumerate((0.1, 3.0, 1e8, 1e8))]
    with pytest.raises(TrainingDiverged) as ref:
        reference_local_sgd(QUAD2, shards, np.ones(2), 40, 1.0, 2, streams(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged) as got:
            stacked_local_sgd(QUAD2, shards, np.ones(2), 40, 1.0, 2, streams(4))
    assert str(got.value) == str(ref.value)
    kept = stacked_local_sgd(QUAD2, shards[:2], np.ones(2), 20, 1.0, 2, streams(2))
    want = reference_local_sgd(QUAD2, shards[:2], np.ones(2), 20, 1.0, 2, streams(2))
    assert all(np.array_equal(a, b) for a, b in zip(kept, want))


def sized_shard(client_id: int, rows: int, scale: float, total: int) -> ClientShard:
    rng = np.random.default_rng(client_id)
    x = rng.standard_normal((rows, 2)) * scale
    data = Dataset(features=x, labels=rng.standard_normal(rows))
    return ClientShard(client_id=client_id, data=data, weight=rows / total)


# at batch 3 the shards of 4 rows sample 3 of them, as one group, and those
# of 2 rows, clients 1 and 2, step on their whole shard in a group of their
# own.  Clients 0, 1 and 5 stay put; 3 and 4, in the larger group, diverge,
# and so does client 2, the first in shard order, in the smaller group
TWO_GROUPS = [
    sized_shard(i, rows, scale, 20)
    for i, (rows, scale) in enumerate(zip([4, 2, 2, 4, 4, 4], [0.3, 0.3, 6.0, 8.0, 10.0, 0.3]))
]


def test_divergence_across_two_interleaved_batch_groups():
    shards = TWO_GROUPS
    state = GlobalState(w=np.ones(2), round_index=5, cumulative_bits=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged) as ref:
            reference_local_sgd(QUAD2, shards, np.ones(2), 40, 0.05, 3, streams(6))
        with pytest.raises(TrainingDiverged) as got:
            stacked_local_sgd(QUAD2, shards, np.ones(2), 40, 0.05, 3, streams(6))
        round_streams = [derive_rng(0, ROLE_SGD, sh.client_id, 5) for sh in shards]
        with pytest.raises(TrainingDiverged) as ref_round:
            reference_local_sgd(QUAD2, shards, np.ones(2), 40, 0.05, 3, round_streams)
        with pytest.raises(TrainingDiverged) as got_round:
            run_round(
                QUAD2, shards, state, 3, 0.05, local_steps=40, batch_size=3, master_seed=0,
                train_loss=1.0,
            )
        # the clients before client 2, one in each group, keep their deltas
        kept = stacked_local_sgd(QUAD2, shards[:2], np.ones(2), 40, 0.05, 3, streams(2))
        want = reference_local_sgd(QUAD2, shards[:2], np.ones(2), 40, 0.05, 3, streams(2))
    assert (ref.value.client_id, ref.value.step) == (2, 26)
    assert str(got.value) == str(ref.value)
    assert (got.value.client_id, got.value.step) == (2, 26)
    assert str(got_round.value) == str(ref_round.value)
    assert (got_round.value.client_id, got_round.value.step, got_round.value.round_index) == (
        ref_round.value.client_id, ref_round.value.step, 5,
    )
    assert all(np.array_equal(a, b) for a, b in zip(kept, want))


def test_run_diverging_across_two_interleaved_batch_groups(monkeypatch):
    # in round 9 client 4 blows up at step 0, client 3 at step 1 and client
    # 2 at step 2; the error names client 2, as the client-by-client loop does
    data = Dataset(
        features=np.concatenate([sh.data.features for sh in TWO_GROUPS]),
        labels=np.concatenate([sh.data.labels for sh in TWO_GROUPS]),
    )
    problem = Problem(model=QUAD2, shards=tuple(TWO_GROUPS), train_data=data, eval_data=None)
    monkeypatch.setattr(fedsim, "build_problem", lambda config: problem)
    config = TrainingConfig(
        model=QUAD2,
        data=SyntheticData(kind="regression", samples=20, n_features=2, noise=0.1),
        n_clients=6,
        local_steps=3,
        batch_size=3,
        lr=LrSchedule.constant(0.05),
        quantization=FixedMode(bits=4),
        rounds=60,
        master_seed=3,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged) as got:
            run_training(config)
        with pytest.raises(TrainingDiverged) as want:
            reference_training(config)
    assert str(got.value) == str(want.value) == "client 2: parameters blew up at local step 2"
    assert (got.value.round_index, got.value.client_id, got.value.step) == (9, 2, 2)
    assert (want.value.round_index, want.value.client_id, want.value.step) == (9, 2, 2)
    assert got.value.records == want.value.records
    assert len(got.value.records) == 9


def test_local_round_stream_gives_all_draws_even_when_diverging():
    shard = scaled_shard(2, 1e8)
    rng, ref = np.random.default_rng(12), np.random.default_rng(12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged) as info:
            local_round(QUAD2, shard, np.ones(2), 5, 1.0, 2, rng)
    assert info.value.step < 4
    for _ in range(5):
        fisher_yates(ref, 4, 2)
    assert rng.bit_generator.state == ref.bit_generator.state
