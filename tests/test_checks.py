"""The shared checkers: every count is refused by ``_checks.integer`` and
every real number by ``_checks.finite`` or ``_checks.positive``, a checker
gives one verdict on a scalar and on an array, and ``_checks.adopt``
builds what the checked constructors build."""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedquant import _checks
from fedquant.config import AdaquantMode, SyntheticData
from fedquant.controller import (
    BoundConstants,
    LrSchedule,
    QuantSchedule,
    adaptive_bound_terms,
    adaquant_level,
    bound_value,
    interval_tick,
    lr_condition_fixed,
)
from fedquant.fedsim import GlobalState, aggregate, local_round, run_round
from fedquant.harness import bits_to_threshold, reference_config
from fedquant.objectives import ClientShard, Dataset, ModelSpec, generate_synthetic, partition, sample_batch
from fedquant.quantizer import (
    QuantizedUpdate,
    bits_per_update,
    quantize,
    sample_dequantized,
    variance_upper_bound,
)
from fedquant.wire import decode, encode, encoded_size_bytes

DATA = Dataset(features=np.arange(8.0).reshape(4, 2), labels=np.arange(4.0))
QUAD = ModelSpec("quadratic", 2)
SHARD = ClientShard(client_id=0, data=DATA, weight=1.0)
SCHEDULE = QuantSchedule(s0=2, interval_bits=10, s_max=8, eta0=0.1)
STARTED = QuantSchedule(s0=2, interval_bits=10, s_max=8, eta0=0.1, f_w0=2.0)
CONSTANT_FIELDS = dict(
    eta=0.1, smoothness=1.0, grad_variance=1.0, local_steps=2, n_clients=4, dim=10,
    bit_budget=1e4, initial_loss=2.0,
)
CONSTANTS = BoundConstants(**CONSTANT_FIELDS)
UPDATE = quantize(np.array([0.6, -0.8, 0.0]), 2, np.random.default_rng(0))
BLOB = encode(UPDATE)


def rng() -> np.random.Generator:
    return np.random.default_rng(0)


# entry -> (argument, lowest value or (lowest, highest), call with the argument set to v)
COUNTS = {
    "bits_per_update.d": ("d", 1, lambda v: bits_per_update(v, 2)),
    "bits_per_update.s": ("s", 1, lambda v: bits_per_update(10, v)),
    "variance_upper_bound.d": ("d", 1, lambda v: variance_upper_bound(v, 2, 1.0)),
    "variance_upper_bound.s": ("s", 1, lambda v: variance_upper_bound(10, v, 1.0)),
    "encoded_size_bytes.d": ("d", 1, lambda v: encoded_size_bytes(v, 2)),
    "encoded_size_bytes.s": ("s", 1, lambda v: encoded_size_bytes(10, v)),
    "decode.d": ("d", 1, lambda v: decode(BLOB, v)),
    "sample_dequantized.s": ("s", (1, 2**53), lambda v: sample_dequantized(np.ones(3), v, rng(), 2)),
    "sample_dequantized.n_draws": ("n_draws", 1, lambda v: sample_dequantized(np.ones(3), 2, rng(), v)),
    "sample_batch.batch_size": ("batch_size", 1, lambda v: sample_batch(DATA, v, rng())),
    "local_round.local_steps": (
        "local_steps", 1, lambda v: local_round(QUAD, SHARD, np.zeros(2), v, 0.1, 2, rng())
    ),
    "local_round.batch_size": (
        "batch_size", 1, lambda v: local_round(QUAD, SHARD, np.zeros(2), 2, 0.1, v, rng())
    ),
    "ClientShard.client_id": ("client_id", 0, lambda v: ClientShard(client_id=v, data=DATA, weight=1.0)),
    "QuantizedUpdate.d": ("d", 1, lambda v: QuantizedUpdate(norm=1.0, signs=[1] * 3, levels=[0] * 3, s=2, d=v)),
    "QuantizedUpdate.s": ("s", 1, lambda v: QuantizedUpdate(norm=1.0, signs=[1], levels=[0], s=v, d=1)),
    "interval_tick.cumulative_bits": ("cumulative_bits", 0, lambda v: interval_tick(SCHEDULE, v, 1.0, 0.1)),
    "LrSchedule.eta_for_round.k": ("k", 0, lambda v: LrSchedule(eta0=0.1).eta_for_round(v)),
    "lr_condition_fixed.dim": ("dim", 1, lambda v: lr_condition_fixed(0.1, 1.0, v, 2, 2, 4)),
    "lr_condition_fixed.local_steps": ("local_steps", 1, lambda v: lr_condition_fixed(0.1, 1.0, 10, v, 2, 4)),
    "lr_condition_fixed.s": ("s", 1, lambda v: lr_condition_fixed(0.1, 1.0, 10, 2, v, 4)),
    "lr_condition_fixed.n_clients": ("n_clients", 1, lambda v: lr_condition_fixed(0.1, 1.0, 10, 2, 2, v)),
    "adaptive_bound_terms.levels": ("levels", 1, lambda v: adaptive_bound_terms([0.1, 0.1], [2, v], CONSTANTS)),
    "partition.n": ("clients", (1, 4), lambda v: partition(DATA, v)),
}


class TestCounts:
    """Every public entry that takes a count refuses a fraction, a whole
    float, a bool, NaN and a negative number with one message naming the
    argument, rather than computing with it or failing inside NumPy."""

    @pytest.mark.parametrize("value", [2.5, 2.0, True, math.nan, -1])
    @pytest.mark.parametrize("entry", COUNTS)
    def test_refused(self, entry, value):
        name, lo, call = COUNTS[entry]
        span = f"in \\[{lo[0]}, {lo[1]}\\]" if isinstance(lo, tuple) else f"of at least {lo}"
        message = f"^{name} must be an integer {span}, got {re.escape(str(value))}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                call(value)

    @pytest.mark.parametrize("entry", COUNTS)
    def test_numpy_integers_pass(self, entry):
        _, _, call = COUNTS[entry]
        call(np.int64(3))

    def test_levels_checked_as_given(self):
        # a float cast would turn True into 1.0 and pass it
        with pytest.raises(ValueError, match="^levels must be an integer of at least 1, got True$"):
            adaptive_bound_terms([0.1], np.array([True]), CONSTANTS)
        with pytest.raises(ValueError, match="^levels must match etas in length$"):
            adaptive_bound_terms([0.1, 0.1], [[2, 2]], CONSTANTS)
        assert adaptive_bound_terms([0.1], np.array([4], np.uint8), CONSTANTS) == adaptive_bound_terms(
            [0.1], [4], CONSTANTS
        )


def bound_constants(name):
    return lambda v: BoundConstants(**dict(CONSTANT_FIELDS, **{name: v}))


def state():
    return GlobalState(w=np.zeros(2), round_index=0, cumulative_bits=0)


# entry -> (argument, call with the argument set to v)
REALS = {
    "SyntheticData.noise": ("noise", lambda v: SyntheticData(kind="regression", samples=4, noise=v)),
    "AdaquantMode.f_star": ("f_star", lambda v: AdaquantMode(f_star=v)),
    "TrainingConfig.loss_threshold": ("loss_threshold", lambda v: reference_config(loss_threshold=v)),
    "TrainingConfig.smoothness": ("smoothness", lambda v: reference_config(smoothness=v)),
    "LrSchedule.eta0": ("eta0", lambda v: LrSchedule(eta0=v)),
    "LrSchedule.decay_factor": ("decay_factor", lambda v: LrSchedule(eta0=0.1, decay_factor=v)),
    "QuantSchedule.eta0": ("eta0", lambda v: QuantSchedule(s0=2, interval_bits=10, s_max=8, eta0=v)),
    "QuantSchedule.f_star": ("f_star", lambda v: QuantSchedule(s0=2, interval_bits=10, s_max=8, eta0=0.1, f_star=v)),
    "QuantSchedule.f_w0": ("f_w0", lambda v: QuantSchedule(s0=2, interval_bits=10, s_max=8, eta0=0.1, f_w0=v)),
    **{f"BoundConstants.{name}": (name, bound_constants(name)) for name in (
        "eta", "smoothness", "grad_variance", "bit_budget", "initial_loss", "optimal_loss"
    )},
    "bound_value.s": ("s", lambda v: bound_value(v, CONSTANTS)),
    "adaquant_level.f_wk": ("f_wk", lambda v: adaquant_level(v, 0.1, STARTED)),
    "adaquant_level.eta_k": ("eta_k", lambda v: adaquant_level(1.0, v, STARTED)),
    "interval_tick.f_wk": ("f_wk", lambda v: interval_tick(SCHEDULE, 0, v, 0.1)),
    "interval_tick.eta_k": ("eta_k", lambda v: interval_tick(SCHEDULE, 0, 1.0, v)),
    "lr_condition_fixed.eta": ("eta", lambda v: lr_condition_fixed(v, 1.0, 10, 2, 2, 4)),
    "lr_condition_fixed.smoothness": ("smoothness", lambda v: lr_condition_fixed(0.1, v, 10, 2, 2, 4)),
    "adaptive_bound_terms.etas": ("etas", lambda v: adaptive_bound_terms([v], [2], CONSTANTS)),
    "ClientShard.weight": ("weight", lambda v: ClientShard(client_id=0, data=DATA, weight=v)),
    "generate_synthetic.noise (regression)": ("noise", lambda v: generate_synthetic("regression", 4, 2, v)),
    "generate_synthetic.noise (classification)": ("noise", lambda v: generate_synthetic("classification", 4, 2, v)),
    "QuantizedUpdate.norm": ("norm", lambda v: QuantizedUpdate(norm=v, signs=[1], levels=[1], s=2, d=1)),
    "variance_upper_bound.norm_sq": ("norm_sq", lambda v: variance_upper_bound(10, 2, v)),
    "local_round.eta": ("eta", lambda v: local_round(QUAD, SHARD, np.zeros(2), 2, v, 2, rng())),
    "run_round.eta": (
        "eta", lambda v: run_round(QUAD, [SHARD], state(), 2, v, local_steps=2, batch_size=2, master_seed=0)
    ),
    "aggregate.weights": ("weights", lambda v: aggregate(np.zeros(3), [UPDATE], [v])),
    "run_round.train_loss": (
        "train_loss",
        lambda v: run_round(QUAD, [SHARD], state(), 2, 0.1, local_steps=2, batch_size=2, master_seed=0, train_loss=v),
    ),
    "bits_to_threshold.threshold": ("threshold", lambda v: bits_to_threshold([], v)),
}


class TestReals:
    """Every public real-valued field or argument refuses a bool, NaN,
    ±inf and an int beyond the float range with one message naming it,
    rather than running on it as 1.0 or raising ``OverflowError``."""

    @pytest.mark.parametrize(
        "value", [True, math.nan, math.inf, -math.inf, 10**400], ids=["True", "nan", "inf", "-inf", "10**400"]
    )
    @pytest.mark.parametrize("entry", REALS)
    def test_refused(self, entry, value):
        name, call = REALS[entry]
        message = f"^{name} must be [^,]+, got {re.escape(str(value))}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                call(value)

    @pytest.mark.parametrize("entry", REALS)
    def test_numpy_floats_pass(self, entry):
        _, call = REALS[entry]
        call(np.float64(1.0))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: aggregate(np.zeros(3), [UPDATE, UPDATE], [True, 1e-16]),
            lambda: bound_value([True, 2.0], CONSTANTS),
            lambda: bound_value((2.0, np.True_), CONSTANTS),
            lambda: _checks.finite("x", [[0.5], [True]]),
        ],
        ids=["aggregate.weights", "bound_value.s", "bound_value.s (tuple)", "finite (nested)"],
    )
    def test_a_bool_in_a_list_is_refused(self, call):
        # NumPy reads a list of floats with a bool in it as floats, 1.0 for True
        with pytest.raises(ValueError, match="must be [^,]+, got True$"):
            call()

    def test_only_the_three_checkers_and_adopt(self):
        public = {
            name for name, value in vars(_checks).items()
            if callable(value) and getattr(value, "__module__", None) == _checks.__name__ and name[0] != "_"
        }
        assert public == {"integer", "finite", "positive", "adopt"}


CHECKERS = {
    "finite": _checks.finite,
    "finite in [0, inf)": lambda name, value: _checks.finite(name, value, 0),
    "finite in [-1, 1]": lambda name, value: _checks.finite(name, value, -1, 1),
    "positive": _checks.positive,
    "positive in (0, 1]": lambda name, value: _checks.positive(name, value, 1),
}

SCALARS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
    st.integers(-(2**63), 2**63 - 1),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.floats(allow_nan=True, allow_infinity=True, width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.sampled_from([10**400, -(10**400)]),
)


def verdict(check, value) -> str | None:
    try:
        check("x", value)
    except ValueError as exc:
        return str(exc)
    return None


class TestScalarFastPath:
    """A passing plain float skips the type tests; the verdict and message
    are those of the same value as a 0-d and a 1-element array, and the
    array is left as it was."""

    @given(value=SCALARS)
    def test_scalar_and_arrays_agree(self, value):
        for name, check in CHECKERS.items():
            expected = verdict(check, value)
            for array in (np.array(value), np.array([value])):
                before = array.tobytes()
                assert verdict(check, array) == expected, name
                assert array.tobytes() == before, name

    def test_a_refused_entry_is_shown(self):
        with pytest.raises(ValueError, match="^x must be finite and positive, got -0.0$"):
            _checks.positive("x", np.array([1.0, -0.0, -2.0]))
        with pytest.raises(ValueError, match="^x must be finite and at least 0, got inf$"):
            _checks.finite("x", math.inf, 0)
        with pytest.raises(ValueError, match="^x must be finite and at least -1 and at most 1, got 1.5$"):
            _checks.finite("x", [0.5, 1.5], -1, 1)
        with pytest.raises(ValueError, match="^x must be positive and at most 1, got True$"):
            _checks.positive("x", np.array([True, False]), 1)
        with pytest.raises(ValueError, match="^x must be an integer in \\[1, 3\\], got 4$"):
            _checks.integer("x", 4, 1, 3)


def same_record(adopted, built) -> None:
    assert type(adopted) is type(built)
    assert vars(adopted).keys() == vars(built).keys()
    for name, value in vars(built).items():
        other = vars(adopted)[name]
        if isinstance(value, np.ndarray):
            assert other.dtype == value.dtype and np.array_equal(other, value), name
            assert not other.flags.writeable and not value.flags.writeable, name
        else:
            assert type(other) is type(value) and other == value, name


class TestAdopt:
    """``_checks.adopt`` skips the constructor, and builds what it builds
    from the same valid values, with the arrays frozen in place."""

    def test_dataset(self):
        x, y, planted = np.arange(6.0).reshape(3, 2), np.array([0, 1, 1]), np.array([0.5, -0.5])
        built = Dataset(features=x, labels=y, planted_params=planted)
        adopted = _checks.adopt(Dataset, {"features": x, "labels": y, "planted_params": planted})
        same_record(adopted, built)
        assert adopted.features is x  # frozen in place, not copied
        none = _checks.adopt(Dataset, {"features": x, "labels": y, "planted_params": None})
        same_record(none, Dataset(features=x, labels=y))

    def test_quantized_update(self):
        signs, levels = np.array([1, -1, 1], np.int8), np.array([0, 3, 1], np.uint8)
        built = QuantizedUpdate(norm=2.0, signs=[1, -1, 1], levels=[0, 3, 1], s=3, d=3)
        fields = {"norm": 2.0, "signs": signs, "levels": levels, "s": 3, "d": 3}
        adopted = _checks.adopt(QuantizedUpdate, fields)
        same_record(adopted, built)
        assert adopted == built and adopted.levels is levels

    def test_global_state(self):
        w = np.array([1.0, -2.0])
        built = GlobalState(w=w, round_index=3, cumulative_bits=40)
        adopted = _checks.adopt(GlobalState, {"w": w, "round_index": 3, "cumulative_bits": 40})
        same_record(adopted, built)
        assert adopted.w is w

    def test_quant_schedule(self):
        built = QuantSchedule(s0=2, interval_bits=10, s_max=8, eta0=0.1, f_w0=1.0, interval_index=2)
        adopted = _checks.adopt(QuantSchedule, dict(vars(built)))
        same_record(adopted, built)
        assert adopted == built

    def test_the_constructor_is_not_run(self):
        # the caller vouches for the fields: adopt refuses nothing
        state = _checks.adopt(GlobalState, {"w": np.array([math.nan]), "round_index": -1, "cumulative_bits": 0})
        assert state.round_index == -1
