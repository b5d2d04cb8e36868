"""``run_training`` against the round loop it replaced, kept here as the
reference.

A run draws every client's SGD minibatches, and the loss estimate's, for
blocks of rounds in one sampler call each.  The reference loop derives the
run's streams, one per (role, client) from ``derive_rng(master_seed, role,
client)``, and reads them in round order: it steps each client alone
through the public API, drawing each minibatch at its step by the
sampler's one-row specification (``test_sampler.fisher_yates``) on the
client's ``ROLE_SGD`` stream, quantizes each delta on its ``ROLE_QUANT``
stream and aggregates.  Records, the parameter trail and the divergence
errors must match exactly, across block ends and at stops inside a block.
"""

from __future__ import annotations

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from test_sampler import reference_batch

from fedquant import fedsim, objectives
from fedquant.config import AdaquantMode, FixedMode, SyntheticData, TrainingConfig
from fedquant.controller import LrSchedule, QuantSchedule, interval_tick
from fedquant.fedsim import (
    ROLE_INIT,
    ROLE_LOSS,
    ROLE_QUANT,
    ROLE_SGD,
    Problem,
    RoundRecord,
    TrainingDiverged,
    aggregate,
    derive_rng,
    run_training,
)
from fedquant.objectives import (
    ClientShard,
    ModelSpec,
    accuracy,
    generate_synthetic,
    gradient,
    init_params,
    loss,
)
from fedquant.quantizer import bits_per_update, quantize


def reference_training(config: TrainingConfig):
    """The records and parameter trail of ``config``, client by client."""
    problem = fedsim.build_problem(config)
    model, shards, seed = problem.model, problem.shards, config.master_seed
    w = init_params(model, derive_rng(seed, ROLE_INIT))
    sgd, quant, losses = (
        {sh.client_id: derive_rng(seed, role, sh.client_id) for sh in shards}
        for role in (ROLE_SGD, ROLE_QUANT, ROLE_LOSS)
    )
    bits, records, trail = 0, [], []
    schedule = None
    if isinstance(config.quantization, AdaquantMode):
        q = config.quantization
        schedule = QuantSchedule(q.s0, config.interval_bits, q.s_max, config.lr.eta0, q.f_star)
    for k in range(config.rounds):
        f_wk = 0.0
        for sh in shards:
            data = sh.data
            if config.loss_estimate == "minibatch":
                data = reference_batch(data, config.batch_size, losses[sh.client_id])
            f_wk += sh.weight * loss(model, w, data)
        if not np.isfinite(f_wk):
            raise TrainingDiverged("non-finite training loss", round_index=k, records=tuple(records))
        eta = config.lr.eta_for_round(k)
        if schedule is not None:
            s, schedule = interval_tick(schedule, bits, f_wk, eta)
            interval = schedule.interval_index
        else:
            s, interval = config.quantization.s, None
        cost = bits_per_update(model.dim, s)
        if config.bit_budget is not None and bits + cost.total_bits > config.bit_budget:
            break
        metric = None
        if k % config.eval_every == 0 and problem.eval_data is not None and model.kind != "quadratic":
            metric = accuracy(model, w, problem.eval_data)
        updates = []
        for sh in shards:
            w_i = w.copy()
            for t in range(config.local_steps):
                data = reference_batch(sh.data, config.batch_size, sgd[sh.client_id])
                w_i -= eta * gradient(model, w_i, data)
                if not np.all(np.isfinite(w_i)) or float(np.max(np.abs(w_i))) > 1e18:
                    raise TrainingDiverged(
                        f"client {sh.client_id}: parameters blew up at local step {t}",
                        step=t, client_id=sh.client_id, round_index=k, records=tuple(records),
                    )
            updates.append(quantize(w_i - w, s, quant[sh.client_id]))
        w = aggregate(w, updates, [sh.weight for sh in shards])
        bits += cost.total_bits
        records.append(RoundRecord(
            round_index=k, s=s, element_bits=cost.element_bits, eta=eta,
            bits_this_round=cost.total_bits, cumulative_bits=bits, train_loss=f_wk,
            eval_metric=metric, interval=interval, feasible=None,
        ))
        trail.append(w)
        if config.loss_threshold is not None and f_wk <= config.loss_threshold:
            break
    return records, trail


MODELS = {
    "quadratic": (ModelSpec.quadratic(3), "regression", 2),
    "logistic": (ModelSpec.logistic(4), "classification", 2),
    "mlp": (ModelSpec.mlp(4, 5, 3), "classification", 3),
}


def make_config(kind="logistic", **kw) -> TrainingConfig:
    model, data_kind, classes = MODELS[kind]
    base = dict(
        model=model,
        data=SyntheticData(
            kind=data_kind, samples=90, n_features=model.n_features, noise=0.1,
            eval_samples=20, n_classes=classes,
        ),
        n_clients=4,
        local_steps=3,
        batch_size=8,
        lr=LrSchedule.constant(0.1),
        quantization=FixedMode(bits=3),
        rounds=40,
        master_seed=7,
        eval_every=5,
    )
    base.update(kw)
    return TrainingConfig(**base)


def assert_matches_reference(config: TrainingConfig) -> tuple[RoundRecord, ...]:
    run = run_training(config, keep_parameters=True)
    records, trail = reference_training(config)
    assert run.records == tuple(records)
    assert len(run.parameter_trail) == len(trail)
    for got, want in zip(run.parameter_trail, trail):
        assert got.tobytes() == want.tobytes()
    return run.records


@pytest.mark.parametrize("loss_estimate", ["full", "minibatch"])
@pytest.mark.parametrize("kind", sorted(MODELS))
def test_forty_rounds_cross_two_block_ends(kind, loss_estimate):
    records = assert_matches_reference(make_config(kind, loss_estimate=loss_estimate))
    assert len(records) == 40


def test_adaptive_level_and_one_local_step():
    config = make_config(quantization=AdaquantMode(s0=2, interval_bits=400), local_steps=1)
    assert assert_matches_reference(config)[-1].interval > 1


def test_blocks_stop_at_the_last_round(monkeypatch):
    # 5 rounds: the SGD and loss-estimate minibatches of rounds 0-4 come
    # from one call each, none for a round the run never reaches
    calls = []

    def recording(workspace, rngs, count):
        calls.append((len(workspace.ms), count))
        return draw(workspace, rngs, count)

    draw = objectives._draw_batches
    monkeypatch.setattr(objectives, "_draw_batches", recording)
    config = make_config(rounds=5, loss_estimate="minibatch")
    assert len(assert_matches_reference(config)) == 5
    assert sorted(calls[:2]) == [(4, 5 * 1), (4, 5 * 3)]


def test_labels_converted_once_per_role(monkeypatch):
    # the SGD and loss-estimate row sources each convert the labels of the
    # whole training block once per run, not once per shard or round
    calls = []

    def counting(model, labels):
        calls.append(len(labels))
        return convert(model, labels)

    convert = objectives._labels
    monkeypatch.setattr(objectives, "_labels", counting)
    config = make_config(rounds=20, loss_estimate="minibatch")
    assert len(run_training(config).records) == 20
    assert calls == [config.data.samples] * 2


@pytest.mark.parametrize("kind", ["logistic", "mlp"])
def test_row_sources_read_the_training_block_in_place(monkeypatch, kind):
    # a run's SGD and minibatch-loss row sources read the rows of
    # Problem.train_data itself, and build nothing near its size; the
    # labels are the block's own where they already have the kernels'
    # dtype (the mlp's class ids), else converted once
    made = []

    class Recording(fedsim._Rows):
        def __init__(self, *args, **kwargs):
            tracemalloc.start()
            try:
                super().__init__(*args, **kwargs)
                self.built_bytes = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            made.append(self)

    monkeypatch.setattr(fedsim, "_Rows", Recording)
    _, data_kind, classes = MODELS[kind]
    model = ModelSpec.logistic(64) if kind == "logistic" else ModelSpec.mlp(64, 5, 3)
    data = SyntheticData(kind=data_kind, samples=8000, n_features=64, eval_samples=20, n_classes=classes)
    run = run_training(make_config(kind, model=model, data=data, rounds=3, loss_estimate="minibatch"))
    block = run.problem.train_data
    assert len(made) == 2
    for rows in made:
        assert rows.features is block.features
        assert np.shares_memory(rows.features, run.problem.shards[-1].data.features)
        assert (rows.labels is block.labels) == (kind == "mlp")
        assert rows.built_bytes < block.features.nbytes / 2


def test_loss_threshold_stops_inside_a_block():
    losses = [r.train_loss for r in run_training(make_config()).records]
    # the first round after the first block whose loss is a new low
    k = next(k for k in range(17, 40) if losses[k] < min(losses[:k]))
    records = assert_matches_reference(make_config(loss_threshold=losses[k]))
    assert len(records) == k + 1


def test_bit_budget_stops_inside_a_block():
    per_round = run_training(make_config(rounds=1)).records[0].bits_this_round
    records = assert_matches_reference(make_config(bit_budget=21 * per_round + 5))
    assert len(records) == 21


def test_divergence_inside_a_block_keeps_its_context():
    # at eta = 2.5 this quadratic run diverges in round 22, in the second
    # block, at client 1's last local step
    config = make_config("quadratic", lr=LrSchedule.constant(2.5), rounds=200, batch_size=8)
    config = replace(config, data=replace(config.data, samples=64, eval_samples=0), master_seed=13,
                     quantization=FixedMode(bits=4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged) as got:
            run_training(config)
        with pytest.raises(TrainingDiverged) as want:
            reference_training(config)
    assert str(got.value) == str(want.value)
    assert (got.value.round_index, got.value.client_id, got.value.step) == (
        want.value.round_index, want.value.client_id, want.value.step,
    )
    assert got.value.round_index > fedsim._STREAM_ROUNDS
    assert got.value.records == want.value.records
    assert len(got.value.records) == got.value.round_index


def test_unequal_shards_in_two_batch_groups(monkeypatch):
    # batch 8: the shards of 12 and 10 rows sample and the one of 8 rows
    # steps on all of them, in one group; the one of 5 rows is a group of
    # its own, between them in shard order.  Each row source draws its
    # blocks for the two sampling shards alone, one call a block
    calls = []

    def recording(workspace, rngs, count):
        calls.append((list(workspace.ms), workspace.batch_size, count))
        return draw(workspace, rngs, count)

    draw = objectives._draw_batches
    monkeypatch.setattr(objectives, "_draw_batches", recording)
    model = MODELS["logistic"][0]
    data = generate_synthetic("classification", 35, model.n_features, noise=0.1, seed=4)
    bounds = np.cumsum([0, 12, 5, 10, 8])
    shards = tuple(
        ClientShard(client_id=i, data=data.subset(np.arange(a, b)), weight=(b - a) / 35)
        for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))
    )
    problem = Problem(model=model, shards=shards, train_data=data, eval_data=None)
    monkeypatch.setattr(fedsim, "build_problem", lambda config: problem)
    records = assert_matches_reference(make_config(rounds=34, loss_estimate="minibatch"))
    assert len(records) == 34
    # rounds 0-15, 16-31 and 32-33, the loss estimate's block (one row set
    # a round) before local SGD's (three)
    assert calls == [([12, 10], 8, n * count) for n in (16, 16, 2) for count in (1, 3)]
