"""Quantizer unit tests: hand-derived values, invariants, stream equivalence."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from fedquant.quantizer import (
    QuantizedUpdate,
    bits_per_update,
    dequantize,
    exact_variance,
    quantize,
    sample_dequantized,
    variance_upper_bound,
)


class TestQuantizeBasics:
    def test_zero_vector_is_deterministic(self):
        rng = np.random.default_rng(0)
        q = quantize(np.zeros(4), 3, rng)
        assert q.norm == 0.0
        assert np.array_equal(q.levels, np.zeros(4, dtype=np.int64))
        np.testing.assert_array_equal(dequantize(q), np.zeros(4))

    def test_norm_underflowing_float32_takes_zero_path(self):
        # the float64 norm is 1e-46, which is 0 in float32: the update must
        # encode as zero, like a zero vector, and draw nothing
        rng = np.random.default_rng(0)
        q = quantize(np.array([1e-46, 0.0]), 2, rng)
        assert q.norm == 0.0
        assert np.array_equal(q.levels, np.zeros(2, dtype=np.int64))
        assert rng.random() == np.random.default_rng(0).random()

    def test_exact_lattice_point_is_deterministic(self):
        # norm 5, ratios 0.6 and 0.8: scaled levels land exactly on 3 and 4
        w = np.array([3.0, -4.0])
        for seed in range(20):
            q = quantize(w, 5, np.random.default_rng(seed))
            assert q.norm == 5.0
            assert list(q.levels) == [3, 4]
            assert list(q.signs) == [1, -1]
            np.testing.assert_array_equal(dequantize(q), w)

    def test_two_point_mixture_probability(self):
        # [1, 1] at s=1: each level is 1 with probability 1/sqrt(2)
        w = np.array([1.0, 1.0])
        rng = np.random.default_rng(7)
        n = 20000
        hits = np.zeros(2)
        draws = sample_dequantized(w, 1, rng, n)
        hits = (draws > 0).mean(axis=0)
        p = 1.0 / math.sqrt(2.0)
        se = math.sqrt(p * (1.0 - p) / n)
        assert np.all(np.abs(hits - p) < 4.0 * se)

    def test_full_norm_coordinate_saturates(self):
        q = quantize(np.array([7.0]), 4, np.random.default_rng(3))
        assert q.levels[0] == 4
        np.testing.assert_allclose(dequantize(q), [np.float32(7.0)])

    def test_dequantized_magnitudes_bounded_by_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            w = rng.standard_normal(16)
            q = quantize(w, int(rng.integers(1, 40)), rng)
            assert np.all(np.abs(dequantize(q)) <= q.norm * (1.0 + 1e-12))

    def test_norm_carried_at_wire_precision(self):
        w = np.array([0.1, 0.2, -0.7])
        q = quantize(w, 9, np.random.default_rng(0))
        assert q.norm == float(np.float32(np.linalg.norm(w)))

    def test_sign_convention(self):
        q = quantize(np.array([1.0, -1.0, 0.0]), 2, np.random.default_rng(1))
        assert list(q.signs) == [1, -1, 1]

    @pytest.mark.parametrize("bad_s", [0, -1, 2.5, "3"])
    def test_invalid_s_rejected(self, bad_s):
        with pytest.raises(ValueError):
            quantize(np.ones(3), bad_s, np.random.default_rng(0))

    @pytest.mark.parametrize("bad_w", [[np.nan, 1.0], [np.inf, 0.0], []])
    def test_invalid_vector_rejected(self, bad_w):
        with pytest.raises(ValueError):
            quantize(np.array(bad_w, dtype=float), 2, np.random.default_rng(0))

    def test_matrix_input_rejected(self):
        with pytest.raises(ValueError):
            quantize(np.ones((2, 2)), 2, np.random.default_rng(0))

    @pytest.mark.parametrize("big_w", [[1e300, 1.0], [1e39]])
    def test_norm_beyond_float32_rejected_quietly(self, big_w):
        # [1e300, 1] overflows the float64 norm, [1e39] only its float32
        # wire value; both get one clear error and no NumPy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="float32 range"):
                quantize(np.array(big_w), 2, np.random.default_rng(0))
            with pytest.raises(ValueError, match="float32 range"):
                sample_dequantized(np.array(big_w), 2, np.random.default_rng(0), 3)


    @pytest.mark.parametrize("s", [2**53 + 1, 2**63, 2**70])
    def test_level_past_exact_float_range_rejected(self, s):
        # at s = 2**70 the levels used to wrap to -2**63 with only a
        # RuntimeWarning, and dequantize gave -0.0078 for the 0.6 entry
        w = np.array([0.6, -0.8, 0.0])
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (
                lambda: quantize(w, s, rng),
                lambda: sample_dequantized(w, s, rng, 3),
                lambda: exact_variance(w, s),
            ):
                with pytest.raises(ValueError, match=f"s must lie in \\[1, {2**53}\\], got {s}"):
                    call()
        assert rng.bit_generator.state == before
        # the update record itself takes any integer level; the wire refuses it
        QuantizedUpdate(norm=1.0, signs=np.array([1]), levels=np.array([1]), s=s, d=1)

    def test_largest_exact_level_is_exact(self):
        w = np.array([0.6, -0.8, 0.0])
        q = quantize(w, 2**53, np.random.default_rng(0))
        assert q.levels.tolist() == [int(0.6 * 2**53), int(0.8 * 2**53), 0]
        np.testing.assert_allclose(dequantize(q), w, rtol=1e-7)

    @pytest.mark.parametrize(
        "bad_w", [[np.nan, 1.0], [np.inf, 0.0], [1e300, np.nan], [np.inf, -np.inf], [1e300, np.inf]]
    )
    def test_non_finite_entries_named_quietly(self, bad_w):
        # the entries are scanned only when the norm is not finite; the
        # error names them whatever the norm is, and NumPy stays silent
        w = np.array(bad_w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="only finite values"):
                quantize(w, 2, np.random.default_rng(0))
            with pytest.raises(ValueError, match="only finite values"):
                sample_dequantized(w, 2, np.random.default_rng(0), 3)
            with pytest.raises(ValueError, match="only finite values"):
                exact_variance(w, 2)


class TestQuantizedUpdate:
    def test_arrays_are_read_only(self):
        q = quantize(np.array([1.0, 2.0]), 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            q.levels[0] = 1
        with pytest.raises(ValueError):
            q.signs[0] = -1

    def test_value_equality(self):
        a = quantize(np.array([3.0, -4.0]), 5, np.random.default_rng(0))
        b = quantize(np.array([3.0, -4.0]), 5, np.random.default_rng(99))
        assert a == b
        c = quantize(np.array([3.0, -4.0]), 10, np.random.default_rng(0))
        assert a != c
        assert a != "not an update"

    def test_level_range_enforced(self):
        with pytest.raises(ValueError):
            QuantizedUpdate(norm=1.0, signs=np.array([1]), levels=np.array([5]), s=4, d=1)
        with pytest.raises(ValueError):
            QuantizedUpdate(norm=1.0, signs=np.array([1]), levels=np.array([-1]), s=4, d=1)

    def test_zero_norm_requires_zero_levels(self):
        with pytest.raises(ValueError):
            QuantizedUpdate(norm=0.0, signs=np.array([1]), levels=np.array([1]), s=2, d=1)

    def test_sign_values_enforced(self):
        with pytest.raises(ValueError):
            QuantizedUpdate(norm=1.0, signs=np.array([0]), levels=np.array([1]), s=2, d=1)

    @pytest.mark.parametrize("signs", [[1.5], [-1.0000001], np.array([257]), np.array([255], np.uint8)])
    def test_signs_checked_before_the_int8_cast(self, signs):
        # 1.5 used to truncate to 1, and 257 and 255 to wrap to 1 and -1
        with pytest.raises(ValueError, match="only \\+1 and -1"):
            QuantizedUpdate(norm=1.0, signs=signs, levels=[1], s=2, d=1)

    @pytest.mark.parametrize("levels", [[1.5], [np.nan], np.array([2.0**64]), np.array(["1"])])
    def test_levels_must_be_integers(self, levels):
        # 1.5 used to truncate to 1 without a word
        with pytest.raises(ValueError, match="levels must be integers of at most 64 bits"):
            QuantizedUpdate(norm=1.0, signs=[1], levels=levels, s=2**70, d=1)

    def test_whole_float_levels_accepted(self):
        q = QuantizedUpdate(norm=1.0, signs=[1.0, -1.0], levels=[2.0, 0.0], s=255, d=2)
        assert q.levels.tolist() == [2, 0] and q.levels.dtype == np.uint8
        assert q.signs.tolist() == [1, -1] and q.signs.dtype == np.int8

    @pytest.mark.parametrize(
        "levels",
        [[-1], [256], np.array([-1.0]), np.array([256], np.uint16), np.array([-1], np.int8)],
    )
    def test_levels_checked_before_narrowing(self, levels):
        # at s = 255 the levels are uint8: -1 must not wrap to 255, nor 256 to 0
        with pytest.raises(ValueError, match="levels must lie in \\[0, s\\]"):
            QuantizedUpdate(norm=1.0, signs=[1], levels=levels, s=255, d=1)

    def test_levels_past_int64_are_value_errors(self):
        # 2**63 used to raise OverflowError from the int64 cast
        with pytest.raises(ValueError, match="levels must lie in \\[0, s\\]"):
            QuantizedUpdate(norm=1.0, signs=[1], levels=[2**63], s=4, d=1)
        with pytest.raises(ValueError, match="levels must be integers of at most 64 bits"):
            QuantizedUpdate(norm=1.0, signs=[1], levels=[2**64], s=2**70, d=1)
        q = QuantizedUpdate(norm=1.0, signs=[1], levels=[2**64 - 1], s=2**70, d=1)
        assert q.levels.tolist() == [2**64 - 1] and q.levels.dtype == np.uint64


class TestLevelCheck:
    """Every entry that takes a level rejects a non-integer one as quantize does."""

    def test_non_integer_levels_rejected_everywhere(self):
        with pytest.raises(ValueError, match="s must be an integer, got 2.5"):
            bits_per_update(10, 2.5)
        with pytest.raises(ValueError, match="s must be an integer, got True"):
            bits_per_update(10, True)
        with pytest.raises(ValueError, match="s must be an integer, got 2.5"):
            variance_upper_bound(10, 2.5, 1.0)
        with pytest.raises(ValueError, match="s must be an integer, got 2.5"):
            QuantizedUpdate(norm=1.0, signs=[1, 1], levels=[0, 0], s=2.5, d=2)
        with pytest.raises(ValueError, match="s must be an integer, got 2.5"):
            quantize(np.ones(2), 2.5, np.random.default_rng(0))

    def test_numpy_integer_levels_accepted(self):
        assert bits_per_update(10, np.int64(3)) == bits_per_update(10, 3)
        assert variance_upper_bound(10, np.int32(2), 1.0) == 2.5
        q = QuantizedUpdate(norm=1.0, signs=[1, 1], levels=[0, 2], s=np.int64(2), d=2)
        assert q.s == 2 and type(q.s) is int


class TestDequantize:
    def test_hand_cases(self):
        q = QuantizedUpdate(
            norm=5.0, signs=np.array([1, -1]), levels=np.array([3, 4]), s=5, d=2
        )
        np.testing.assert_array_equal(dequantize(q), [3.0, -4.0])
        q2 = QuantizedUpdate(norm=2.0, signs=np.array([1]), levels=np.array([1]), s=2, d=1)
        np.testing.assert_array_equal(dequantize(q2), [1.0])


class TestBitCost:
    def test_hand_cases(self):
        assert bits_per_update(1, 1).total_bits == 34
        assert bits_per_update(10, 3).total_bits == 62
        cost = bits_per_update(10, 15)
        assert cost.element_bits == 4
        assert cost.total_bits == 82

    def test_identity_on_sweep(self):
        for d in (1, 5, 64):
            for s in list(range(1, 18)) + [255, 65535, 2**31 - 1]:
                cost = bits_per_update(d, s)
                expected_eb = math.ceil(math.log2(s + 1))
                assert cost.element_bits == expected_eb
                assert cost.sign_bits == d
                assert cost.norm_bits == 32
                assert cost.total_bits == d * expected_eb + d + 32

    def test_power_of_two_minus_one_levels(self):
        for b in (2, 4, 8, 16):
            assert bits_per_update(20, 2**b - 1).element_bits == b

    def test_monotone_in_s(self):
        costs = [bits_per_update(7, s).total_bits for s in range(1, 200)]
        assert all(a <= b for a, b in zip(costs, costs[1:]))

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            bits_per_update(0, 1)
        with pytest.raises(ValueError):
            bits_per_update(1, 0)


class TestVariance:
    def test_upper_bound_hand_cases(self):
        assert variance_upper_bound(4, 2, 1.0) == 1.0
        assert variance_upper_bound(1, 1, 0.0) == 0.0
        assert variance_upper_bound(8, 4, 2.0) == 1.0

    def test_upper_bound_strictly_decreasing_in_s(self):
        values = [variance_upper_bound(6, s, 3.0) for s in range(1, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_exact_variance_hand_cases(self):
        assert exact_variance(np.array([3.0, -4.0]), 5) == 0.0
        assert exact_variance(np.zeros(3), 4) == 0.0
        # a norm that is zero in float32 quantizes to all-zero levels, as
        # quantize does, so its variance is 0 (it was 2.45e-93)
        tiny = np.array([1e-46, 2e-46, 0.0])
        assert not quantize(tiny, 3, np.random.default_rng(0)).levels.any()
        assert exact_variance(tiny, 3) == 0.0
        p = 1.0 / math.sqrt(2.0)
        expected = 2.0 * 2.0 * p * (1.0 - p)
        np.testing.assert_allclose(exact_variance(np.array([1.0, 1.0]), 1), expected, rtol=1e-12)

    @pytest.mark.parametrize("big_w", [[1e300, 1.0], [1e39]])
    def test_exact_variance_rejects_norm_beyond_float32_quietly(self, big_w):
        # [1e300, 1] used to give nan and a RuntimeWarning: the float64
        # norm overflowed and every carry probability became 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="float32 range"):
                exact_variance(np.array(big_w), 2)

    def test_exact_never_exceeds_upper_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            d = int(rng.integers(1, 30))
            s = int(rng.integers(1, 300))
            w = rng.standard_normal(d) * float(rng.uniform(0.1, 10))
            exact = exact_variance(w, s)
            bound = variance_upper_bound(d, s, float(w @ w))
            assert exact <= bound * (1.0 + 1e-12)

    def test_exact_variance_matches_monte_carlo(self):
        rng = np.random.default_rng(21)
        w = rng.standard_normal(8)
        draws = sample_dequantized(w, 3, np.random.default_rng(42), 20000)
        mc = float(draws.var(axis=0, ddof=1).sum())
        np.testing.assert_allclose(mc, exact_variance(w, 3), rtol=0.05)


class TestSampleDequantized:
    def test_matches_sequential_quantize_stream(self):
        """Row i of the batched sampler must equal the i-th sequential call
        on an identically seeded generator."""
        w = np.random.default_rng(1).standard_normal(12)
        batched = sample_dequantized(w, 7, np.random.default_rng(123), 50)
        rng = np.random.default_rng(123)
        sequential = np.stack([dequantize(quantize(w, 7, rng)) for _ in range(50)])
        np.testing.assert_array_equal(batched, sequential)

    def test_zero_vector(self):
        out = sample_dequantized(np.zeros(3), 2, np.random.default_rng(0), 5)
        assert out.shape == (5, 3)
        assert not out.any()

    def test_underflowing_norm_matches_quantize(self):
        w = np.array([1e-46, -3e-47, 0.0])
        out = sample_dequantized(w, 2, np.random.default_rng(0), 4)
        assert not out.any()
        # signed zeros included: the -3e-47 entry is -0.0 in both
        want = dequantize(quantize(w, 2, np.random.default_rng(0))).tobytes()
        assert all(row.tobytes() == want for row in out)

    def test_rejects_bad_draw_count(self):
        with pytest.raises(ValueError):
            sample_dequantized(np.ones(2), 2, np.random.default_rng(0), 0)

    def test_unbiased_mean_quick(self):
        w = np.array([0.3, -1.2, 0.05, 2.0])
        draws = sample_dequantized(w, 2, np.random.default_rng(9), 20000)
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        # wire-precision norm rounding adds a relative 1e-7-scale offset
        tol = 4.0 * se + 1e-6 * float(np.linalg.norm(w))
        assert np.all(np.abs(mean - w) <= tol)
