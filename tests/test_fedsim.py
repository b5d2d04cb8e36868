"""Simulator tests: local steps, aggregation, rounds, full runs, determinism."""

from __future__ import annotations

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_local_sgd import reference_local_sgd
from test_sampler import fisher_yates

from fedquant import fedsim
from fedquant.config import AdaquantMode, FileData, FixedMode, SyntheticData, TrainingConfig
from fedquant.controller import LrSchedule
from fedquant.fedsim import (
    GlobalState,
    TrainingDiverged,
    aggregate,
    build_problem,
    derive_rng,
    global_loss,
    local_round,
    run_round,
    run_training,
    run_unquantized,
)
from fedquant.objectives import ClientShard, Dataset, ModelSpec, generate_synthetic, gradient, partition
from fedquant.quantizer import bits_per_update, quantize
from fedquant.wire import decode, encode

QUAD = ModelSpec.quadratic(3)


def quad_shard(seed=0, m=12, client_id=0, weight=1.0) -> ClientShard:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, 3))
    w_true = rng.standard_normal(3)
    return ClientShard(
        client_id=client_id, data=Dataset(features=x, labels=x @ w_true), weight=weight
    )


def quad_config(**kw) -> TrainingConfig:
    base = dict(
        model=QUAD,
        data=SyntheticData(kind="regression", samples=64, n_features=3, noise=0.1),
        n_clients=4,
        local_steps=3,
        batch_size=8,
        lr=LrSchedule.constant(0.05),
        quantization=FixedMode(bits=4),
        rounds=6,
        master_seed=11,
    )
    base.update(kw)
    return TrainingConfig(**base)


class TestDeriveRng:
    def test_reproducible(self):
        a = derive_rng(42, 3, 1, 7).random(5)
        b = derive_rng(42, 3, 1, 7).random(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_slots_distinct_streams(self):
        base = derive_rng(42, 3, 1, 7).random(5)
        for key in [(3, 1, 8), (3, 2, 7), (4, 1, 7)]:
            assert not np.array_equal(base, derive_rng(42, *key).random(5))

    def test_rejects_negative_components(self):
        with pytest.raises(ValueError):
            derive_rng(-1, 0)
        for key in [(-1, 0, 0), (3, -1, 0), (3, 1, -1)]:
            with pytest.raises(ValueError, match="non-negative"):
                derive_rng(42, *key)

    @pytest.mark.parametrize(
        "master, key",
        [
            (0, (fedsim.ROLE_INIT,)),
            (2**128, (fedsim.ROLE_INIT,)),
            (2**128 + 7, (fedsim.ROLE_SGD, 2**32, 5)),
            (9, (fedsim.ROLE_QUANT, 3, 2**32)),
            (2**32 - 1, (fedsim.ROLE_LOSS, 2**64 + 1, 2**96 + 3)),
            (5, ()),
            (2**200, ()),
        ],
    )
    def test_equals_seed_sequence_at_word_edges(self, master, key):
        want = np.random.default_rng(np.random.SeedSequence(master, spawn_key=key))
        got = derive_rng(master, *key)
        assert got.bit_generator.state == want.bit_generator.state
        assert np.array_equal(got.standard_normal(5), want.standard_normal(5))

    def test_numpy_integers_and_bad_types(self):
        parts = (np.uint64(2**63 + 5), np.int64(3), np.uint32(7), np.int8(1))
        want = np.random.default_rng(np.random.SeedSequence(int(parts[0]), spawn_key=parts[1:]))
        assert derive_rng(*parts).bit_generator.state == want.bit_generator.state
        for bad in [(1.0, 3), (1, 3.0), (1, 2.0, 3)]:
            with pytest.raises(TypeError):
                derive_rng(*bad)


class TestBatches:
    """A run's minibatches, asked for round by round from a row source's
    block, are its per-client streams read in round order through the
    one-row sampler, each offset by its shard's first row in the block."""

    SHARDS = [quad_shard(seed=1, m=12, client_id=4), quad_shard(seed=2, m=300, client_id=9)]
    FIRST = (0, 12)  # the shards' first rows in the block of both

    def rows(self, rounds, b=5, count=3):
        def rngs(p):
            return derive_rng(11, fedsim.ROLE_SGD, self.SHARDS[p].client_id)

        return fedsim._Rows(QUAD, self.SHARDS, b, count, rngs, rounds)

    @pytest.mark.parametrize("rounds", [1, fedsim._STREAM_ROUNDS, fedsim._STREAM_ROUNDS + 1, 40])
    def test_rounds_are_the_streams_read_in_order(self, rounds):
        rows = self.rows(rounds)
        refs = [derive_rng(11, fedsim.ROLE_SGD, sh.client_id) for sh in self.SHARDS]
        for k in range(rounds):
            got = rows.batches(k)
            # step-major, then client-major
            assert got.shape == (3, 2, 5)
            for j, (shard, ref, first) in enumerate(zip(self.SHARDS, refs, self.FIRST)):
                for t in range(3):
                    want = first + fisher_yates(ref, shard.data.m, 5)
                    assert np.array_equal(got[t, j], want), (k, t)
        # the last block stops at the last round: nothing is drawn past it
        for used, ref in zip(rows.streams, refs):
            assert used.bit_generator.state == ref.bit_generator.state

    def test_any_round_of_the_current_block_can_be_asked_again(self):
        rows, fresh = self.rows(20), self.rows(20)
        want = [fresh.batches(k).copy() for k in range(6)]
        assert np.array_equal(rows.batches(0), want[0])
        assert np.array_equal(rows.batches(5), want[5])
        assert np.array_equal(rows.batches(2), want[2])

    def test_later_blocks_reuse_the_first_blocks_buffers(self):
        # 40 rounds: two full blocks and a short one of 8 rounds, all drawn
        # into the buffers the row source allocated for the first
        rows = self.rows(40)
        first = rows.batches(0)
        for k in (fedsim._STREAM_ROUNDS, 2 * fedsim._STREAM_ROUNDS):
            assert np.shares_memory(first, rows.batches(k)), k

    @pytest.mark.parametrize(
        "read, asked",
        [
            # the first round asked for is not round 0
            ((), 1),
            # a round of a block already left behind
            (range(fedsim._STREAM_ROUNDS + 1), fedsim._STREAM_ROUNDS - 1),
            # a round past the block that follows the current one
            (range(fedsim._STREAM_ROUNDS + 1), 2 * fedsim._STREAM_ROUNDS + 1),
        ],
    )
    def test_rounds_out_of_order_rejected(self, read, asked):
        rows = self.rows(40)
        for k in read:
            rows.batches(k)
        with pytest.raises(ValueError, match=f"round {asked} asked for"):
            rows.batches(asked)

    @pytest.mark.parametrize("rounds, read", [(1, 1), (3, 3), (40, 40), (17, 3)])
    def test_rounds_past_the_last_rejected(self, rounds, read):
        # the round after the last, once every round is read, or a round
        # past the last before it
        rows = self.rows(rounds)
        for k in range(read):
            rows.batches(k)
        for asked in (rounds, rounds + 5):
            message = f"round {asked} asked for past the run's last round {rounds - 1}"
            with pytest.raises(ValueError, match=message):
                rows.batches(asked)


def blown_up_reference(w: np.ndarray, positions: list[int]) -> list[int]:
    """The positions of the rows with an entry past 1e18 in magnitude, or
    not finite."""
    return [p for p, row in zip(positions, w) if not np.all(np.abs(row) <= 1e18)]


class TestDivergenceCertificate:
    """``fedsim._blown_up`` clears a plane whose sum of squares, read from
    the raveled plane, is at most 1e35 at once; any other plane is decided
    row by row."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_sum_of_squares_with_no_entry_past_the_limit(self):
        # twenty entries of 1e17: the sum of squares, 2e35, fails the
        # certificate, and the rows decide
        assert np.vecdot(np.full(20, 1e17), np.full(20, 1e17)) > 1e35
        w = np.full((1, 20), 1e17)
        assert fedsim._blown_up(w, [0], w.ravel()) == []
        w = np.full((3, 20), -1e18)
        w[1] = 1e18
        assert fedsim._blown_up(w, [0, 2, 5], w.ravel()) == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_just_under_the_certificate(self):
        w = np.zeros((2, 20))
        w[1, 7] = 3.16e17  # a square of 9.99e34
        assert fedsim._blown_up(w, [0, 1], w.ravel()) == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "value",
        [np.nextafter(1e18, np.inf), -np.nextafter(1e18, np.inf), np.nan, np.inf, -np.inf, 1e160, -1e300],
        ids=["past_limit", "past_negative_limit", "nan", "inf", "-inf", "square_overflows", "-1e300"],
    )
    def test_one_entry_reported(self, value):
        for row in range(3):
            w = np.full((3, 20), 1e-3)
            w[row, 19 - row] = value
            assert fedsim._blown_up(w, [1, 4, 6], w.ravel()) == [[1, 4, 6][row]]
        w = np.full((3, 20), 1e17)
        w[0, 0] = w[2, 5] = value
        assert fedsim._blown_up(w, [1, 4, 6], w.ravel()) == [1, 6]

    @settings(max_examples=300, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(1, 25)),
            elements=st.one_of(
                st.floats(width=64),
                st.floats(-2e18, 2e18),
                st.sampled_from([1e18, -1e18, float(np.nextafter(1e18, np.inf)), 3.16e17, 1e17]),
            ),
        )
    )
    def test_equals_the_row_by_row_rule(self, w):
        positions = list(range(0, 3 * len(w), 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = fedsim._blown_up(w, positions, w.ravel())
        assert got == blown_up_reference(w, positions)

    def test_huge_step_size_diverges_at_step_zero_without_warnings(self):
        # the first step's parameters are near 1e200, whose squares overflow
        config = quad_config(lr=LrSchedule.constant(1e200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged) as info:
                run_training(config)
        exc = info.value
        assert str(exc) == "client 0: parameters blew up at local step 0"
        assert (exc.client_id, exc.step, exc.round_index, exc.records) == (0, 0, 0, ())


class TestLocalRound:
    def test_single_step_is_one_gradient(self):
        shard = quad_shard()
        w = np.array([0.5, -0.2, 1.0])
        rng = np.random.default_rng(3)
        delta = local_round(QUAD, shard, w, 1, 0.1, shard.data.m, rng)
        g = gradient(QUAD, w, shard.data)
        # delta is (w - eta*g) - w, which differs from -eta*g by rounding
        np.testing.assert_array_equal(delta, (w - 0.1 * g) - w)
        np.testing.assert_allclose(delta, -0.1 * g, rtol=1e-12, atol=1e-16)

    def test_two_steps_match_hand_unroll(self):
        shard = quad_shard(seed=5)
        w0 = np.zeros(3)
        delta = local_round(QUAD, shard, w0, 2, 0.1, shard.data.m, np.random.default_rng(0))
        w = w0 - 0.1 * gradient(QUAD, w0, shard.data)
        w = w - 0.1 * gradient(QUAD, w, shard.data)
        np.testing.assert_allclose(delta, w - w0, atol=1e-12)

    def test_zero_gradient_zero_delta(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10, 3))
        w_true = rng.standard_normal(3)
        shard = ClientShard(
            client_id=0, data=Dataset(features=x, labels=x @ w_true), weight=1.0
        )
        delta = local_round(QUAD, shard, w_true, 4, 0.1, 10, np.random.default_rng(0))
        np.testing.assert_allclose(delta, np.zeros(3), atol=1e-14)

    def test_input_not_mutated(self):
        shard = quad_shard()
        w = np.ones(3)
        before = w.copy()
        local_round(QUAD, shard, w, 3, 0.05, 4, np.random.default_rng(1))
        np.testing.assert_array_equal(w, before)

    def test_divergence_carries_step_and_client(self):
        shard = quad_shard(client_id=3)
        with pytest.raises(TrainingDiverged) as info:
            local_round(QUAD, shard, np.zeros(3), 50, 1e12, shard.data.m, np.random.default_rng(0))
        assert info.value.client_id == 3
        assert info.value.step is not None


class TestAggregate:
    def test_zero_updates_keep_w(self):
        w = np.array([1.0, 2.0])
        zero = quantize(np.zeros(2), 3, np.random.default_rng(0))
        np.testing.assert_array_equal(aggregate(w, [zero, zero], [0.5, 0.5]), w)

    def test_single_client_full_weight(self):
        w = np.array([1.0, 1.0])
        q = quantize(np.array([3.0, -4.0]), 5, np.random.default_rng(0))
        np.testing.assert_array_equal(aggregate(w, [q], [1.0]), w + np.array([3.0, -4.0]))

    def test_equal_weights_hand_case(self):
        w = np.array([10.0, 10.0])
        a = quantize(np.array([2.0, 0.0]), 2, np.random.default_rng(0))
        b = quantize(np.array([0.0, 2.0]), 2, np.random.default_rng(1))
        np.testing.assert_array_equal(aggregate(w, [a, b], [0.5, 0.5]), [11.0, 11.0])

    def test_weight_sum_enforced(self):
        q = quantize(np.ones(2), 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            aggregate(np.zeros(2), [q, q], [0.5, 0.6])

    def test_dimension_mismatch(self):
        q = quantize(np.ones(3), 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            aggregate(np.zeros(2), [q], [1.0])

    @pytest.mark.parametrize(
        "weights", [[float("nan")], [0.5, float("nan")], [float("inf"), 1.0]]
    )
    def test_non_finite_weight_rejected(self, weights):
        q = quantize(np.ones(2), 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="finite"):
            aggregate(np.zeros(2), [q] * len(weights), weights)


def quad_problem(n=4, m=64, seed=9):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, 3))
    w_true = rng.standard_normal(3)
    data = Dataset(features=x, labels=x @ w_true + 0.05 * rng.standard_normal(m))
    return partition(data, n, mode="iid", seed=1)


class TestRunRound:
    def test_bit_accounting_d10_s3(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((30, 10))
        data = Dataset(features=x, labels=x @ rng.standard_normal(10))
        shards = partition(data, 3, mode="iid", seed=0)
        model = ModelSpec.quadratic(10)
        state = GlobalState(w=np.zeros(10), round_index=0, cumulative_bits=0)
        new_state, record = run_round(
            model, shards, state, 3, 0.05, local_steps=2, batch_size=5, master_seed=0
        )
        assert new_state.cumulative_bits == 62
        assert record.bits_this_round == 62
        assert record.element_bits == 2

    def test_deterministic(self):
        shards = quad_problem()
        state = GlobalState(w=np.zeros(3), round_index=0, cumulative_bits=0)
        results = [
            run_round(QUAD, shards, state, 7, 0.05, local_steps=3, batch_size=8, master_seed=5)
            for _ in range(2)
        ]
        np.testing.assert_array_equal(results[0][0].w, results[1][0].w)
        assert results[0][1] == results[1][1]

    def test_huge_s_matches_unquantized_aggregation(self):
        shards = quad_problem()
        w0 = np.full(3, 0.3)
        state = GlobalState(w=w0, round_index=0, cumulative_bits=0)
        new_state, _ = run_round(
            QUAD, shards, state, 2**31 - 1, 0.05, local_steps=3, batch_size=8, master_seed=5
        )
        exact = w0.copy()
        for shard in shards:
            rng = derive_rng(5, fedsim.ROLE_SGD, shard.client_id, 0)
            exact += shard.weight * local_round(QUAD, shard, w0, 3, 0.05, 8, rng)
        err = np.linalg.norm(new_state.w - exact) / np.linalg.norm(exact)
        assert err < 1e-4

    def test_wire_format_crosses_boundary(self):
        """Encoding each update and decoding on the server side reproduces
        the in-memory round exactly."""
        shards = quad_problem()
        w0 = np.zeros(3)
        state = GlobalState(w=w0, round_index=0, cumulative_bits=0)
        new_state, _ = run_round(
            QUAD, shards, state, 9, 0.05, local_steps=3, batch_size=8, master_seed=7
        )
        transported = []
        for shard in shards:
            rng = derive_rng(7, fedsim.ROLE_SGD, shard.client_id, 0)
            delta = local_round(QUAD, shard, w0, 3, 0.05, 8, rng)
            qrng = derive_rng(7, fedsim.ROLE_QUANT, shard.client_id, 0)
            blob = encode(quantize(delta, 9, qrng))
            transported.append(decode(blob, 3))
        w_next = aggregate(w0, transported, [s.weight for s in shards])
        np.testing.assert_array_equal(w_next, new_state.w)


class TestQuantizationTransparency:
    def test_rerun_mean_approaches_unquantized(self):
        """Fresh quantizer randomness, fixed batches: the mean aggregated
        step over 5,000 reruns matches the exact aggregate within 4 SE."""
        from fedquant.quantizer import sample_dequantized

        shards = quad_problem()
        w0 = np.full(3, 0.2)
        n_reruns = 5000
        deltas = []
        for shard in shards:
            rng = derive_rng(13, fedsim.ROLE_SGD, shard.client_id, 0)
            deltas.append(local_round(QUAD, shard, w0, 3, 0.05, 8, rng))
        samples = np.zeros((n_reruns, 3))
        exact = w0.copy()
        for shard, delta in zip(shards, deltas):
            qrng = derive_rng(13, fedsim.ROLE_QUANT, shard.client_id, 0)
            samples += shard.weight * sample_dequantized(delta, 3, qrng, n_reruns)
            exact += shard.weight * delta
        means = w0 + samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / math.sqrt(n_reruns)
        assert np.all(np.abs(means - exact) <= 4.0 * se + 1e-9 * np.abs(exact))


class TestRunTraining:
    def test_zero_rounds(self):
        run = run_training(quad_config(rounds=0))
        assert run.records == ()
        assert run.final_state.round_index == 0

    def test_loss_eventually_nonincreasing(self):
        run = run_training(quad_config(rounds=40))
        losses = [r.train_loss for r in run.records]
        quarter = len(losses) // 4
        assert np.median(losses[-quarter:]) <= np.median(losses[:quarter])

    def test_cumulative_bits_identity(self):
        run = run_training(quad_config(rounds=8))
        total = 0
        for record in run.records:
            total += record.bits_this_round
            assert record.cumulative_bits == total
            assert record.bits_this_round == bits_per_update(3, record.s).total_bits

    def test_initial_loss_recorded_before_update(self):
        config = quad_config(rounds=3)
        run = run_training(config)
        problem = build_problem(config)
        w0 = np.zeros(3)
        np.testing.assert_allclose(
            run.records[0].train_loss, global_loss(QUAD, problem.shards, w0), rtol=1e-12
        )

    def test_bit_budget_stops_before_overrun(self):
        cost = bits_per_update(3, 15).total_bits
        run = run_training(quad_config(rounds=100, bit_budget=cost * 4 + 10))
        assert len(run.records) == 4
        assert run.final_state.cumulative_bits <= cost * 4 + 10

    def test_loss_threshold_stops_after_crossing(self):
        probe = run_training(quad_config(rounds=30))
        target = probe.records[5].train_loss
        run = run_training(quad_config(rounds=30, loss_threshold=target))
        assert run.records[-1].train_loss <= target
        assert all(r.train_loss > target for r in run.records[:-1])

    def test_eval_every_gates_metric(self):
        config = quad_config(
            model=ModelSpec.logistic(3),
            data=SyntheticData(
                kind="classification", samples=60, n_features=3, eval_samples=20
            ),
            rounds=5,
            eval_every=2,
        )
        run = run_training(config)
        metrics = [r.eval_metric for r in run.records]
        assert metrics[0] is not None and metrics[1] is None and metrics[2] is not None

    def test_quadratic_has_no_eval_metric(self):
        config = quad_config(
            rounds=2,
            data=SyntheticData(
                kind="regression", samples=64, n_features=3, noise=0.1, eval_samples=16
            ),
        )
        run = run_training(config)
        assert all(r.eval_metric is None for r in run.records)

    def test_minibatch_loss_estimate(self):
        run_full = run_training(quad_config(rounds=4))
        run_mb = run_training(quad_config(rounds=4, loss_estimate="minibatch"))
        # same trajectory (loss estimation must not touch SGD streams)
        np.testing.assert_array_equal(run_full.final_state.w, run_mb.final_state.w)
        assert run_full.records[2].train_loss != run_mb.records[2].train_loss

    def test_adaptive_mode_reports_interval(self):
        run = run_training(quad_config(quantization=AdaquantMode(), rounds=6))
        assert all(r.interval is not None for r in run.records)
        assert run.records[0].s == 2

    def test_step_size_decayed_to_zero_stops_the_run(self):
        # 0.05 * 1e-200 ** 2 underflows to 0.0 in round 2: an adaptive run
        # stops at its level tick, a fixed-level one at local SGD
        lr = LrSchedule(eta0=0.05, decay_factor=1e-200, decay_every=1)
        assert lr.eta_for_round(1) > 0.0 == lr.eta_for_round(2)
        with pytest.raises(ValueError, match="eta_k must be finite and positive, got 0.0"):
            run_training(quad_config(lr=lr, quantization=AdaquantMode()))
        with pytest.raises(ValueError, match="eta must be positive"):
            run_training(quad_config(lr=lr))

    def test_feasibility_reported_when_smoothness_given(self):
        run = run_training(quad_config(rounds=3, smoothness=1.0))
        assert all(isinstance(r.feasible, bool) for r in run.records)
        none_run = run_training(quad_config(rounds=3))
        assert all(r.feasible is None for r in none_run.records)

    def test_divergence_carries_partial_records(self):
        config = quad_config(lr=LrSchedule.constant(1e9), rounds=50)
        with pytest.raises(TrainingDiverged) as info:
            run_training(config)
        assert info.value.round_index is not None
        assert isinstance(info.value.records, tuple)

    def test_full_determinism(self):
        a = run_training(quad_config(rounds=7))
        b = run_training(quad_config(rounds=7))
        assert a.records == b.records
        np.testing.assert_array_equal(a.final_state.w, b.final_state.w)


class TestRunUnquantized:
    def test_matches_manual_aggregation(self):
        # the run's SGD streams, one per client, read in round order
        config = quad_config(rounds=2)
        trail = run_unquantized(config)
        problem = build_problem(config)
        rngs = [derive_rng(11, fedsim.ROLE_SGD, shard.client_id) for shard in problem.shards]
        w = np.zeros(3)
        for k in range(2):
            step = np.zeros(3)
            deltas = reference_local_sgd(QUAD, problem.shards, w, 3, 0.05, 8, rngs)
            for shard, delta in zip(problem.shards, deltas):
                step += shard.weight * delta
            w = w + step
            np.testing.assert_array_equal(trail[k], w)

    def test_unquantized_run_derives_no_quantization_stream(self, monkeypatch):
        keys = []
        derive = fedsim.derive_rng

        def recording_derive(master_seed, *key):
            keys.append(key)
            return derive(master_seed, *key)

        monkeypatch.setattr(fedsim, "derive_rng", recording_derive)
        config = quad_config(loss_estimate="minibatch")
        clients = range(config.n_clients)
        setup = [(fedsim.ROLE_DATA,), (fedsim.ROLE_PARTITION,), (fedsim.ROLE_INIT,)]
        # once per run, one stream per (role, client), none for quantization
        for run, roles in (
            (run_unquantized, (fedsim.ROLE_SGD, fedsim.ROLE_LOSS)),
            (run_training, (fedsim.ROLE_SGD, fedsim.ROLE_QUANT, fedsim.ROLE_LOSS)),
        ):
            keys.clear()
            run(config)
            assert sorted(keys) == sorted(setup + [(role, c) for role in roles for c in clients])

    def test_budget_and_threshold_do_not_stop_it(self):
        first = run_training(quad_config(rounds=6)).records[0]
        for stop in (
            {"bit_budget": 2 * first.bits_this_round},
            {"loss_threshold": first.train_loss},
        ):
            config = quad_config(rounds=6, **stop)
            assert len(run_training(config).records) < 6
            trail = run_unquantized(config)
            assert len(trail) == 6 and not trail[0].flags.writeable
            np.testing.assert_array_equal(trail[-1], run_unquantized(quad_config(rounds=6))[-1])

    def test_divergence_carries_round_and_partial_records(self):
        config = quad_config(lr=LrSchedule.constant(10.0), rounds=50)
        with pytest.raises(TrainingDiverged) as info:
            run_unquantized(config)
        k = info.value.round_index
        assert k is not None and k > 0
        assert [r.round_index for r in info.value.records] == list(range(k))


def mismatched_shard(client_id=1, weight=0.5) -> ClientShard:
    """A shard with four features, for the three-feature QUAD model."""
    x = np.random.default_rng(client_id).standard_normal((6, 4))
    return ClientShard(client_id=client_id, data=Dataset(features=x, labels=x[:, 0]), weight=weight)


class TestShardChecks:
    def test_run_training_rejects_data_the_model_does_not_fit(self, tmp_path):
        path = tmp_path / "rows.txt"
        x = np.random.default_rng(0).standard_normal((20, 4))
        np.savetxt(path, np.column_stack([x, x @ np.ones(4)]))
        config = quad_config(data=FileData(path=str(path), kind="regression"), n_clients=2)
        seen = []
        for loss_estimate in ("full", "minibatch"):
            with pytest.raises(ValueError, match="data has 4 features, model expects 3"):
                run_training(replace(config, loss_estimate=loss_estimate), on_record=seen.append)
        assert seen == []
        with pytest.raises(ValueError, match="data has 4 features, model expects 3"):
            run_unquantized(config)

    def test_run_training_rejects_labels_the_model_does_not_take(self, tmp_path):
        path = tmp_path / "rows.txt"
        x = np.random.default_rng(0).standard_normal((20, 3))
        np.savetxt(path, np.column_stack([x, np.arange(20) % 3]))
        config = quad_config(
            model=ModelSpec.logistic(3),
            data=FileData(path=str(path), kind="classification"),
            n_clients=2,
        )
        with pytest.raises(ValueError, match="logistic labels must be 0 or 1"):
            run_training(config)

    def test_public_round_rejects_weights_that_do_not_sum_to_one(self):
        shards = [quad_shard(client_id=0, weight=0.5), quad_shard(seed=1, client_id=1, weight=0.75)]
        state = GlobalState(w=np.zeros(3), round_index=0, cumulative_bits=0)
        with pytest.raises(ValueError, match="weights must sum to 1"):
            run_round(QUAD, shards, state, 3, 0.1, local_steps=2, batch_size=4, master_seed=0)

    def test_public_round_and_loss_reject_a_mismatched_shard(self):
        shards = [quad_shard(client_id=0, weight=0.5), mismatched_shard()]
        state = GlobalState(w=np.zeros(3), round_index=0, cumulative_bits=0)
        match = "data has 4 features, model expects 3"
        with pytest.raises(ValueError, match=match):
            global_loss(QUAD, shards, np.zeros(3))
        for train_loss in (None, 1.0):
            with pytest.raises(ValueError, match=match):
                run_round(
                    QUAD,
                    shards,
                    state,
                    3,
                    0.1,
                    local_steps=2,
                    batch_size=4,
                    master_seed=0,
                    train_loss=train_loss,
                )
        with pytest.raises(ValueError, match=match):
            local_round(QUAD, mismatched_shard(), np.zeros(3), 2, 0.1, 4, np.random.default_rng(0))


class TestBuildProblem:
    def test_synthetic_split_sizes(self):
        config = quad_config(
            data=SyntheticData(
                kind="regression", samples=64, n_features=3, noise=0.1, eval_samples=16
            )
        )
        problem = build_problem(config)
        assert problem.train_data.m == 64
        assert problem.eval_data.m == 16
        assert sum(s.data.m for s in problem.shards) == 64
        assert abs(sum(s.weight for s in problem.shards) - 1.0) < 1e-12

    def test_file_data(self, tmp_path):
        path = tmp_path / "rows.txt"
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 3))
        np.savetxt(path, np.column_stack([x, x @ np.ones(3)]))
        config = quad_config(
            data=FileData(path=str(path), kind="regression", eval_samples=4),
            n_clients=2,
        )
        problem = build_problem(config)
        assert problem.train_data.m == 16
        assert problem.eval_data.m == 4

    def test_oversized_eval_split_rejected(self, tmp_path):
        path = tmp_path / "rows.txt"
        np.savetxt(path, np.ones((3, 4)))
        config = quad_config(
            data=FileData(path=str(path), kind="regression", eval_samples=3),
            n_clients=1,
        )
        with pytest.raises(ValueError):
            build_problem(config)

    @pytest.mark.parametrize("mode", ["iid", "sorted_label"])
    def test_shards_are_views_of_the_train_rows(self, mode):
        # train_data holds the training rows in partition order, and each
        # shard is a view of its consecutive rows there
        data = SyntheticData(kind="classification", samples=61, n_features=3, noise=0.1, eval_samples=9)
        config = quad_config(model=ModelSpec.logistic(3), data=data, n_clients=5, partition_mode=mode)
        problem = build_problem(config)
        train = problem.train_data
        for name in ("features", "labels"):
            parts = [getattr(shard.data, name) for shard in problem.shards]
            assert np.concatenate(parts).tobytes() == getattr(train, name).tobytes()
            assert all(np.shares_memory(part, getattr(train, name)) for part in parts)
        generated = generate_synthetic(
            "classification", 70, 3, noise=0.1, seed=derive_rng(config.master_seed, fedsim.ROLE_DATA)
        )
        head = generated.labels[:61]
        if mode == "iid":
            order = derive_rng(config.master_seed, fedsim.ROLE_PARTITION).permutation(61)
        else:
            order = np.argsort(head, kind="stable")
        np.testing.assert_array_equal(train.features, generated.features[order])
        np.testing.assert_array_equal(train.labels, head[order])
        # the eval rows are the generated tail, in their own array
        np.testing.assert_array_equal(problem.eval_data.features, generated.features[61:])
        np.testing.assert_array_equal(problem.eval_data.labels, generated.labels[61:])
        assert not np.shares_memory(problem.eval_data.features, train.features)

    def test_rows_are_held_once(self):
        # each training row was held twice, in train_data and in a shard, and
        # each row set was copied two or three times on the way: 1.8 times the
        # generated rows held here, and a peak of 2.9 times
        f = 64
        data = SyntheticData(kind="regression", samples=2000, n_features=f, noise=0.1, eval_samples=500)
        config = quad_config(model=ModelSpec.quadratic(f), data=data, n_clients=8)
        rows = 2500 * (f + 1) * 8  # the features and the float labels
        build_problem(config)  # one-time import caches are not the rows'
        tracemalloc.start()
        try:
            problem = build_problem(config)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert problem.train_data.m == 2000
        assert held < 1.2 * rows
        assert peak < 2.4 * rows

    def test_global_state_copies_what_it_is_given(self):
        w = np.array([1.0, 2.0])
        state = GlobalState(w=w, round_index=0, cumulative_bits=0)
        assert not np.shares_memory(state.w, w) and not state.w.flags.writeable
        w[0] = 5.0
        assert state.w[0] == 1.0 and w.flags.writeable

    def test_round_loop_adopts_the_uplink_result(self, monkeypatch):
        shards = [quad_shard(seed=i, client_id=i, weight=0.5) for i in range(2)]
        state = GlobalState(w=np.zeros(3), round_index=4, cumulative_bits=10)
        built = []

        def uplink(w, deltas, s, rngs, workspace):
            built.append(fedsim._exact_uplink(w, deltas, s, rngs, [sh.weight for sh in shards]))
            return built[-1]

        monkeypatch.setattr(fedsim, "_uplink", uplink)
        new_state, _ = run_round(
            QUAD, shards, state, 3, 0.05, local_steps=2, batch_size=4, master_seed=0, train_loss=1.0
        )
        rngs = [derive_rng(0, fedsim.ROLE_SGD, sh.client_id, 4) for sh in shards]
        deltas = reference_local_sgd(QUAD, shards, state.w, 2, 0.05, 4, rngs)
        assert built[0].tobytes() == fedsim._exact_uplink(state.w, deltas, 3, (), [0.5, 0.5]).tobytes()
        cost = bits_per_update(3, 3)
        assert new_state.w is built[0] and not built[0].flags.writeable
        assert (new_state.round_index, new_state.cumulative_bits) == (5, 10 + cost.total_bits)

    def test_global_state_validation(self):
        with pytest.raises(ValueError):
            GlobalState(w=np.zeros(2), round_index=-1, cumulative_bits=0)
        with pytest.raises(ValueError):
            GlobalState(w=np.zeros((2, 2)), round_index=0, cumulative_bits=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_global_state_refuses_non_finite_parameters(self, value):
        # the caller's mistake, not a divergence of the first round's client 0
        with pytest.raises(ValueError, match=f"w must be finite, got {value}"):
            GlobalState(w=[0.0, value, 0.0], round_index=0, cumulative_bits=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("round_index", 1.5), ("round_index", 1.0), ("round_index", True), ("round_index", np.True_),
            ("round_index", "1"), ("cumulative_bits", 2.5), ("cumulative_bits", False),
            ("cumulative_bits", np.float64(3.0)),
        ],
    )
    def test_global_state_refuses_non_integers(self, field, value):
        fields = {"round_index": 0, "cumulative_bits": 0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            GlobalState(w=np.zeros(2), **fields)

    def test_global_state_takes_numpy_integers(self):
        state = GlobalState(w=np.zeros(2), round_index=np.int64(3), cumulative_bits=np.uint32(7))
        assert (state.round_index, state.cumulative_bits) == (3, 7)
