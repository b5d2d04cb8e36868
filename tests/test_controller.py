"""Controller tests: bound arithmetic, closed-form optimum, schedule rule,
feasibility conditions."""

from __future__ import annotations

import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from fedquant.controller import (
    BoundConstants,
    LrSchedule,
    QuantSchedule,
    adaptive_bound_terms,
    adaquant_level,
    bound_value,
    interval_tick,
    lr_condition_fixed,
    optimal_s_closed_form,
)
from fedquant.fedsim import run_training
from fedquant.harness import reference_config


def constants(**kw) -> BoundConstants:
    base = dict(
        eta=0.05,
        smoothness=2.0,
        grad_variance=3.0,
        local_steps=10,
        n_clients=8,
        dim=20,
        bit_budget=1e6,
        initial_loss=1.0,
        optimal_loss=0.0,
    )
    base.update(kw)
    return BoundConstants(**base)


class TestBoundConstants:
    def test_coefficients_match_formulas(self):
        c = constants()
        eta, l, var, tau, n, d, budget = 0.05, 2.0, 3.0, 10, 8, 20, 1e6
        a1 = 2.0 * (1.0 - 0.0) * d / (eta * budget * tau)
        a2 = eta * l * d * var / n
        a3 = eta**2 * var * (tau - 1) * l**2 * (n + 1) / n + eta * l * var / n + a1 * (d + 32) / d
        np.testing.assert_allclose(c.log2_coefficient, a1, rtol=1e-15)
        np.testing.assert_allclose(c.inv_square_coefficient, a2, rtol=1e-15)
        np.testing.assert_allclose(c.constant_term, a3, rtol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            constants(eta=0.0)
        with pytest.raises(ValueError):
            constants(grad_variance=-1.0)
        with pytest.raises(ValueError):
            constants(initial_loss=0.3, optimal_loss=0.5)
        with pytest.raises(ValueError):
            constants(local_steps=0)
        # noiseless problems are legal
        assert constants(grad_variance=0.0).inv_square_coefficient == 0.0


class TestBoundValue:
    def test_hand_curve_value(self):
        # A1 = 2 * 1 * 32 / (0.5 * 128 * 1) = 1 and A2 = 0.5 * 1 * 32 * 1 / 16
        # = 1; A3 = 0.5 * 1 / 16 (tau = 1: no drift) + A1 * 64 / 32 = 2.03125.
        # At s = 2: log2(8) + 1/4 + A3
        c = BoundConstants(
            eta=0.5, smoothness=1.0, grad_variance=1.0, local_steps=1, n_clients=16,
            dim=32, bit_budget=128.0, initial_loss=1.0,
        )
        coefficients = (c.log2_coefficient, c.inv_square_coefficient, c.constant_term)
        assert coefficients == (1.0, 1.0, 2.03125)
        assert bound_value(2, c) == 5.28125

    def test_matches_coefficient_expansion(self):
        c = constants()
        for s in (1, 2, 7, 100):
            expected = (
                c.log2_coefficient * math.log2(4 * s)
                + c.inv_square_coefficient / s**2
                + c.constant_term
            )
            np.testing.assert_allclose(bound_value(s, c), expected, rtol=1e-15)

    def test_noiseless_bound_increasing(self):
        c = constants(grad_variance=0.0)
        assert bound_value(2, c) > bound_value(1, c)
        values = bound_value(np.arange(1, 50, dtype=float), c)
        assert np.all(np.diff(values) > 0)

    def test_vectorized_agrees_with_scalar(self):
        c = constants()
        grid = np.array([1.0, 2.5, 33.0])
        np.testing.assert_array_equal(
            bound_value(grid, c), [bound_value(float(s), c) for s in grid]
        )

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError):
            bound_value(0, constants())


class TestOptimalS:
    def test_algebraic_identity_case(self):
        # pick raw constants so 2 A2 / (A1 log2 e) = 4
        c = BoundConstants(
            eta=1.0,
            smoothness=1.0,
            grad_variance=2.0,
            local_steps=1,
            n_clients=1,
            dim=1,
            bit_budget=2.0 * math.log2(math.e),
            initial_loss=1.0,
        )
        ratio = 2.0 * c.inv_square_coefficient / (c.log2_coefficient * math.log2(math.e))
        np.testing.assert_allclose(ratio, 4.0, rtol=1e-12)
        np.testing.assert_allclose(optimal_s_closed_form(c), 2.0, rtol=1e-12)

    def test_quadrupling_budget_doubles_optimum(self):
        c = constants()
        c4 = constants(bit_budget=4e6)
        np.testing.assert_allclose(
            optimal_s_closed_form(c4), 2.0 * optimal_s_closed_form(c), rtol=1e-12
        )

    def test_integer_grid_optimality(self):
        c = constants(bit_budget=5e5, grad_variance=40.0)
        s_star = optimal_s_closed_form(c)
        assert 1.0 < s_star < 1e4
        grid = np.arange(1, 10**4 + 1, dtype=float)
        values = bound_value(grid, c)
        assert bound_value(s_star, c) <= float(values.min()) + 1e-12

    def test_undefined_without_noise(self):
        with pytest.raises(ValueError):
            optimal_s_closed_form(constants(grad_variance=0.0))


def schedule(**kw) -> QuantSchedule:
    base = dict(s0=2, interval_bits=100, s_max=2**16 - 1, eta0=0.1, f_w0=1.0)
    base.update(kw)
    return QuantSchedule(**base)


class TestAdaquantLevel:
    def test_ratio_one_returns_s0(self):
        assert adaquant_level(1.0, 0.1, schedule()) == 2

    def test_loss_ratio_four_doubles(self):
        assert adaquant_level(0.25, 0.1, schedule()) == 4

    def test_lr_halving_cancels_loss_ratio_four(self):
        assert adaquant_level(0.25, 0.05, schedule()) == 2

    def test_rounding_is_half_up(self):
        # raw value 2.5 exactly: sqrt(6.25) * 1
        sched = schedule(s0=1, f_w0=6.25)
        assert adaquant_level(1.0, 0.1, sched) == 3
        sched = schedule(s0=1, f_w0=6.2)
        assert adaquant_level(1.0, 0.1, sched) == 2

    def test_clamped_to_bounds(self):
        assert adaquant_level(1e-12, 0.1, schedule(s_max=31)) == 31
        assert adaquant_level(400.0, 0.1, schedule()) == 1

    def test_nonpositive_loss_saturates_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="fedquant.controller"):
            assert adaquant_level(0.0, 0.1, schedule(s_max=99)) == 99
        assert any("s_max" in msg for msg in caplog.messages)

    def test_uninitialized_baseline_rejected(self):
        with pytest.raises(ValueError):
            adaquant_level(0.5, 0.1, schedule(f_w0=None))

    def test_validation(self):
        with pytest.raises(ValueError):
            schedule(s0=0)
        with pytest.raises(ValueError):
            schedule(s0=8, s_max=4)
        with pytest.raises(ValueError):
            adaquant_level(0.5, 0.0, schedule())


class TestNonFiniteInputs:
    """The schedule and the level rule refuse non-finite inputs by name,
    before any recomputation could turn them into a level."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_schedule_refuses_non_finite_f_star_and_f_w0(self, value):
        with pytest.raises(ValueError, match=f"f_star must be finite, got {value}"):
            schedule(f_star=value)
        with pytest.raises(ValueError, match=f"f_w0 must be finite, got {value}"):
            schedule(f_w0=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -0.1])
    def test_schedule_refuses_eta0(self, value):
        with pytest.raises(ValueError, match=f"eta0 must be finite and positive, got {value}"):
            schedule(eta0=value)
        with pytest.raises(ValueError, match=f"eta0 must be finite and positive, got {value}"):
            LrSchedule(eta0=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_level_refuses_non_finite_loss(self, value):
        # nan raised "cannot convert float NaN to integer" once the raw
        # level was rounded; inf gave level 1, and -inf saturated at s_max
        with pytest.raises(ValueError, match=f"f_wk must be finite, got {value}"):
            adaquant_level(value, 0.1, schedule())

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    def test_level_refuses_step_size(self, value):
        # inf raised an OverflowError once the raw level was rounded, and
        # nan "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match=f"eta_k must be finite and positive, got {value}"):
            adaquant_level(0.5, value, schedule())

    def test_recomputation_cannot_meet_a_nan_f_star(self):
        # the schedule used to tick once at s0, then fail at its first
        # recomputation; now it is never built, and a finite one still ticks
        with pytest.raises(ValueError, match="f_star"):
            QuantSchedule(s0=2, interval_bits=10, s_max=64, eta0=0.1, f_star=math.nan)
        sched = QuantSchedule(s0=2, interval_bits=10, s_max=64, eta0=0.1, f_star=-1e300)
        s1, sched = interval_tick(sched, 0, 1.0, 0.1)
        s2, sched = interval_tick(sched, 10, 0.25, 0.1)
        assert (s1, s2) == (2, 2)

    def test_infinite_first_loss_refused_at_the_first_tick(self):
        # the loss is checked before it is captured as f_w0
        with pytest.raises(ValueError, match="f_wk must be finite, got inf"):
            interval_tick(schedule(f_w0=None), 0, math.inf, 0.1)

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_first_tick_names_the_loss_not_f_w0(self, value):
        # the loss was copied into f_w0 first, so the error named f_w0
        with pytest.raises(ValueError, match=f"f_wk must be finite, got {value}"):
            interval_tick(schedule(f_w0=None), 0, value, 0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_tick_inside_an_interval_refuses_non_finite_loss(self, value):
        # a tick that did not recompute returned the current level
        sched = QuantSchedule(s0=2, interval_bits=10, s_max=64, eta0=0.1, f_w0=1.0)
        with pytest.raises(ValueError, match=f"f_wk must be finite, got {value}"):
            interval_tick(sched, 5, value, 0.1)

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("bits", [0, 5])
    def test_every_tick_refuses_step_size(self, value, bits):
        sched = QuantSchedule(s0=2, interval_bits=10, s_max=64, eta0=0.1)
        with pytest.raises(ValueError, match=f"eta_k must be finite and positive, got {value}"):
            interval_tick(sched, bits, 1.0, value)
        _, sched = interval_tick(sched, 0, 1.0, 0.1)
        with pytest.raises(ValueError, match=f"eta_k must be finite and positive, got {value}"):
            interval_tick(sched, bits, 1.0, value)


class TestIntervalTick:
    def test_same_interval_same_level(self):
        sched = schedule(f_w0=None)
        s1, sched = interval_tick(sched, 0, 1.0, 0.1)
        s2, sched = interval_tick(sched, 62, 0.5, 0.1)
        assert s1 == s2 == 2
        assert sched.f_w0 == 1.0  # captured at the first tick

    def test_recomputation_fires_on_crossing(self):
        sched = schedule(f_w0=None)
        _, sched = interval_tick(sched, 0, 1.0, 0.1)
        _, sched = interval_tick(sched, 62, 1.0, 0.1)
        assert sched.interval_index == 0
        s3, sched = interval_tick(sched, 124, 0.25, 0.1)
        assert sched.interval_index == 1
        assert s3 == 4

    def test_levels_nondecreasing_under_decreasing_loss(self):
        sched = schedule(f_w0=None)
        losses = [1.0 / (1 + 0.15 * k) for k in range(60)]
        bits = 0
        emitted = []
        for f in losses:
            s, sched = interval_tick(sched, bits, f, 0.1)
            emitted.append(s)
            bits += 92
        assert emitted[0] == 2
        assert all(a <= b for a, b in zip(emitted, emitted[1:]))
        assert emitted[-1] > emitted[0]

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            interval_tick(schedule(), -1, 1.0, 0.1)

    @pytest.mark.parametrize("first", [0.5, 0.25, -3.0])
    def test_first_loss_at_or_below_f_star_refused(self, first):
        # the schedule used to hold the coarsest level, s = 1, at every
        # recomputation; now the first tick, which captures f_w0, refuses it
        message = f"initial loss {first} is at or below f_star 0.5"
        with pytest.raises(ValueError, match=message):
            interval_tick(schedule(f_w0=None, f_star=0.5), 0, first, 0.1)
        with pytest.raises(ValueError, match=message):
            schedule(f_w0=first, f_star=0.5)
        _, sched = interval_tick(schedule(f_w0=None, f_star=0.5), 0, 0.5000001, 0.1)
        assert sched.f_w0 == 0.5000001

    def test_saturation_warned_once_on_entering(self, caplog):
        sched = schedule(f_w0=None, s_max=99, f_star=0.5)
        levels = []
        with caplog.at_level(logging.WARNING, logger="fedquant.controller"):
            # two intervals above f_star, five at or below it, one above,
            # then below again: one warning per entry into saturation
            losses = [1.0, 0.8, 0.5, 0.4, 0.3, 0.2, 0.1, 0.6, 0.45]
            for i, f in enumerate(losses):
                s, sched = interval_tick(sched, 100 * i, f, 0.1)
                levels.append(s)
                if i == 6:
                    assert sum("saturating" in m for m in caplog.messages) == 1
        assert levels[2:7] == [99] * 5 and levels[7] < 99 and levels[8] == 99
        assert sum("saturating" in m for m in caplog.messages) == 2

    def test_reference_run_warns_once(self, caplog):
        config = reference_config()
        config = replace(config, quantization=replace(config.quantization, f_star=0.45))
        with caplog.at_level(logging.WARNING, logger="fedquant.controller"):
            run = run_training(config)
        saturated = [r for r in run.records if r.s == config.quantization.s_max]
        assert len(saturated) > 100
        assert sum("saturating" in m for m in caplog.messages) == 1
        # the run counts every recorded round that recomputed its level at
        # a loss at or below f_star
        recomputed = [
            r for r, before in zip(run.records[1:], run.records)
            if r.interval != before.interval and r.train_loss <= 0.45
        ]
        assert run.saturated_recomputations == len(recomputed) > 100


class TestLrConditions:
    def test_hand_case_infeasible(self):
        # 1 - 0.1*(1 + 100/16) - 2*0.01*90 = -1.525
        value = 1.0 - 0.1 * (1.0 + 10 * 10 / (2 * 2 * 4)) - 2.0 * 0.1**2 * 10 * 9
        np.testing.assert_allclose(value, -1.525, rtol=1e-12)
        assert lr_condition_fixed(0.1, 1.0, 10, 10, 2, 4) is False

    def test_vanishing_eta_feasible(self):
        assert lr_condition_fixed(1e-6, 1.0, 10, 1, 2, 4) is True

    def test_monotone_in_s(self):
        results = [lr_condition_fixed(0.02, 1.0, 50, 5, s, 4) for s in range(1, 65)]
        # once true, stays true as s grows
        first_true = results.index(True)
        assert all(results[first_true:])

    def test_large_s_limit(self):
        eta, l, tau = 0.01, 1.0, 10
        limit = 1.0 - eta * l - 2.0 * eta**2 * l**2 * tau * (tau - 1) >= 0.0
        assert lr_condition_fixed(eta, l, 10**6, tau, 10**9, 1) == limit

    def test_decaying_eta_crosses_feasibility(self):
        lr = LrSchedule(eta0=0.4, decay_factor=0.5, decay_every=1)
        verdicts = [
            lr_condition_fixed(lr.eta_for_round(k), 1.0, 10, 10, 4, 4)
            for k in range(12)
        ]
        assert verdicts[0] is False
        assert verdicts[-1] is True
        transition = verdicts.index(True)
        assert all(verdicts[transition:])

    def test_validation(self):
        with pytest.raises(ValueError):
            lr_condition_fixed(0.0, 1.0, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            lr_condition_fixed(0.1, 1.0, 1, 1, 0, 1)


class TestAdaptiveBoundTerms:
    def test_single_round_hand_values(self):
        c = constants(eta=0.1, smoothness=2.0, grad_variance=3.0, local_steps=4, n_clients=5, dim=10)
        eta, l, var, tau, n, d, s = 0.1, 2.0, 3.0, 4, 5, 10, 2
        t = adaptive_bound_terms([eta], [s], c)
        np.testing.assert_allclose(t[0], 2.0 * 1.0 / eta, rtol=1e-15)
        np.testing.assert_allclose(t[1], l * tau * var * eta / n, rtol=1e-15)
        np.testing.assert_allclose(t[2], var * (n + 1) * tau * (tau - 1) * l**2 * eta**2 / n, rtol=1e-15)
        np.testing.assert_allclose(t[3], l * tau * var * eta * d / (n * s**2), rtol=1e-15)

    def test_tau_one_zeroes_drift_term(self):
        c = constants(local_steps=1)
        terms = adaptive_bound_terms([0.1, 0.05], [2, 4], c)
        assert terms[2] == 0.0

    def test_huge_levels_kill_quantization_term(self):
        c = constants()
        etas = [0.1] * 5
        small = adaptive_bound_terms(etas, [10**9] * 5, c)[3]
        normal = adaptive_bound_terms(etas, [2] * 5, c)[3]
        assert small < 1e-15 * normal

    def test_validation(self):
        c = constants()
        with pytest.raises(ValueError):
            adaptive_bound_terms([], [], c)
        with pytest.raises(ValueError):
            adaptive_bound_terms([0.1, 0.2], [2], c)
        with pytest.raises(ValueError):
            adaptive_bound_terms([0.1, -0.1], [2, 2], c)
        with pytest.raises(ValueError):
            adaptive_bound_terms([0.1], [0], c)


class TestLrSchedule:
    def test_constant(self):
        lr = LrSchedule.constant(0.05)
        assert lr.eta_for_round(0) == lr.eta_for_round(10**6) == 0.05

    def test_step_decay(self):
        lr = LrSchedule(eta0=0.1, decay_factor=0.9, decay_every=100)
        assert lr.eta_for_round(0) == 0.1
        assert lr.eta_for_round(99) == 0.1
        np.testing.assert_allclose(lr.eta_for_round(100), 0.09, rtol=1e-15)
        np.testing.assert_allclose(lr.eta_for_round(250), 0.1 * 0.9**2, rtol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            LrSchedule(eta0=0.0)
        with pytest.raises(ValueError):
            LrSchedule(eta0=0.1, decay_factor=1.5)
        with pytest.raises(ValueError):
            LrSchedule(eta0=0.1, decay_factor=0.9, decay_every=0)
        with pytest.raises(ValueError):
            LrSchedule.constant(0.1).eta_for_round(-1)
