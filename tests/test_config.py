"""Configuration record validation."""

from __future__ import annotations

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from fedquant.config import (
    AdaquantMode,
    FileData,
    FixedMode,
    SyntheticData,
    TrainingConfig,
)
from fedquant.controller import BoundConstants, LrSchedule, QuantSchedule
from fedquant.fedsim import GlobalState
from fedquant.harness import ConfigError, grid_search_s0, load_config
from fedquant.objectives import ModelSpec


def make_config(**kw) -> TrainingConfig:
    base = dict(
        model=ModelSpec("logistic", 4),
        data=SyntheticData(kind="classification", samples=100),
        n_clients=4,
        local_steps=5,
        batch_size=8,
        lr=LrSchedule(0.1),
        quantization=FixedMode(bits=4),
        rounds=3,
    )
    base.update(kw)
    return TrainingConfig(**base)


class TestModes:
    def test_fixed_bits_to_level(self):
        assert FixedMode(bits=4).s == 15
        assert FixedMode(bits=2).s == 3
        assert FixedMode(bits=16).s == 2**16 - 1

    def test_fixed_bits_range(self):
        with pytest.raises(ValueError):
            FixedMode(bits=0)
        with pytest.raises(ValueError):
            FixedMode(bits=32)

    def test_adaquant_defaults(self):
        mode = AdaquantMode()
        assert mode.s0 == 2
        assert mode.s_max == 2**16 - 1
        assert mode.interval_bits is None
        assert mode.f_star == 0.0

    def test_adaquant_validation(self):
        with pytest.raises(ValueError):
            AdaquantMode(s0=0)
        with pytest.raises(ValueError):
            AdaquantMode(s0=10, s_max=5)
        with pytest.raises(ValueError, match=f"s_max must be an integer in \\[2, {2**53}\\], got {2**53 + 1}"):
            AdaquantMode(s_max=2**53 + 1)
        assert AdaquantMode(s_max=2**53).s_max == 2**53
        with pytest.raises(ValueError):
            AdaquantMode(interval_bits=0)

    @pytest.mark.parametrize("f_star", [math.nan, -math.inf, math.inf])
    def test_adaquant_rejects_non_finite_f_star(self, f_star):
        # before, nan and -inf ran and died mid-run converting the level
        with pytest.raises(ValueError, match="f_star must be finite"):
            AdaquantMode(f_star=f_star)
        assert AdaquantMode(f_star=-1e300).f_star == -1e300


class TestNonFiniteFloats:
    """Every float field of a config must be finite when it is built, not
    fail late or mean something else at run time."""

    @pytest.mark.parametrize("eta0", [math.nan, math.inf, -math.inf, 0.0])
    def test_lr_eta0(self, eta0):
        # nan and inf used to run and be reported as TrainingDiverged
        with pytest.raises(ValueError, match="eta0 must be finite and positive"):
            LrSchedule(eta0=eta0)
        assert LrSchedule(eta0=1e300).eta0 == 1e300

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_loss_threshold(self, threshold):
        # nan used to be a threshold that no loss ever reaches
        with pytest.raises(ValueError, match="loss_threshold must be finite"):
            make_config(loss_threshold=threshold)
        assert make_config(loss_threshold=-1.0).loss_threshold == -1.0

    @pytest.mark.parametrize("smoothness", [math.nan, math.inf, -math.inf, -1.0, 0.0])
    def test_smoothness(self, smoothness):
        # nan and inf used to pass the "<= 0.0" check
        with pytest.raises(ValueError, match="smoothness must be finite and positive"):
            make_config(smoothness=smoothness)
        assert make_config(smoothness=5e-324).smoothness == 5e-324

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -math.inf, -0.5])
    def test_synthetic_noise(self, noise):
        # nan used to be refused only when the data were generated
        with pytest.raises(ValueError, match="noise must be finite and at least 0"):
            SyntheticData(kind="regression", samples=10, noise=noise)
        assert SyntheticData(kind="regression", samples=10, noise=0.0).noise == 0.0

    @pytest.mark.parametrize(
        "field, build",
        [
            ("s0", lambda: QuantSchedule(s0=math.nan, interval_bits=64, s_max=8, eta0=0.1)),
            ("s_max", lambda: QuantSchedule(s0=2, interval_bits=64, s_max=math.nan, eta0=0.1)),
            ("samples", lambda: SyntheticData(kind="classification", samples=math.nan)),
            ("s0", lambda: AdaquantMode(s0=math.nan)),
            ("rounds", lambda: make_config(rounds=math.nan)),
            ("n_features", lambda: ModelSpec("logistic", math.nan)),
            ("decay_every", lambda: LrSchedule(eta0=0.1, decay_factor=0.5, decay_every=math.nan)),
        ],
        ids=[
            "QuantSchedule.s0", "QuantSchedule.s_max", "SyntheticData.samples", "AdaquantMode.s0",
            "TrainingConfig.rounds", "ModelSpec.n_features", "LrSchedule.decay_every",
        ],
    )
    def test_nan_integer_field(self, field, build):
        # NaN compares below no bound, so a compare-only check let it through
        with pytest.raises(ValueError, match=f"^{field} must be [a-z -]+[0-9]*, got nan$"):
            build()

    def test_ini_f_star_nan_is_a_config_error(self, tmp_path):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(here, "configs", "reference.ini"), encoding="utf-8") as fh:
            text = fh.read()
        assert "f_star = 0.40" in text
        path = tmp_path / "nan.ini"
        path.write_text(text.replace("f_star = 0.40", "f_star = nan"))
        with pytest.raises(ConfigError, match="f_star must be finite, got nan"):
            load_config(str(path))


INTEGER_FIELDS = {
    "ModelSpec.n_features": ("n_features", 1, lambda v: ModelSpec("logistic", v)),
    "ModelSpec.hidden": ("mlp hidden", 1, lambda v: ModelSpec("mlp", 4, v, 3)),
    "ModelSpec.n_classes": ("mlp n_classes", 2, lambda v: ModelSpec("mlp", 4, 3, v)),
    "SyntheticData.samples": (
        "samples", 1, lambda v: SyntheticData(kind="classification", samples=v)
    ),
    "FileData.eval_samples": ("eval_samples", 0, lambda v: FileData(path="rows.csv", eval_samples=v)),
    "FixedMode.bits": ("bits", (1, 31), lambda v: FixedMode(bits=v)),
    "AdaquantMode.s0": ("s0", 1, lambda v: AdaquantMode(s0=v)),
    "AdaquantMode.interval_bits": ("interval_bits", 1, lambda v: AdaquantMode(interval_bits=v)),
    "TrainingConfig.local_steps": ("local_steps", 1, lambda v: make_config(local_steps=v)),
    "TrainingConfig.rounds": ("rounds", 0, lambda v: make_config(rounds=v)),
    "TrainingConfig.master_seed": ("master_seed", 0, lambda v: make_config(master_seed=v)),
    "LrSchedule.decay_every": (
        "decay_every", 1, lambda v: LrSchedule(eta0=0.1, decay_factor=0.5, decay_every=v)
    ),
    "QuantSchedule.s0": (
        "s0", 1, lambda v: QuantSchedule(s0=v, interval_bits=64, s_max=8, eta0=0.1)
    ),
    "BoundConstants.local_steps": (
        "local_steps",
        1,
        lambda v: BoundConstants(
            eta=0.1, smoothness=1.0, grad_variance=0.1, local_steps=v, n_clients=4, dim=10,
            bit_budget=1e5, initial_loss=1.0,
        ),
    ),
    "GlobalState.round_index": (
        "round_index", 0, lambda v: GlobalState(w=np.zeros(2), round_index=v, cumulative_bits=0)
    ),
    "grid_search_s0.candidates": ("candidates", 1, lambda v: grid_search_s0(make_config(), [4, v])),
}


class TestIntegerFields:
    """An integer field refuses a bool or a non-integer when it is built,
    rather than failing mid-run or running on a truncated value."""

    @pytest.mark.parametrize("value", [2.7, True, 2.0])
    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    def test_refuses_bools_and_non_integers(self, field, value):
        name, lo, build = INTEGER_FIELDS[field]
        span = f"in \\[{lo[0]}, {lo[1]}\\]" if isinstance(lo, tuple) else f"of at least {lo}"
        message = f"^{name} must be an integer {span}, got {value}$"
        with pytest.raises(ValueError, match=message):
            build(value)

    def test_numpy_integers_pass(self):
        assert AdaquantMode(s0=np.int64(3), s_max=np.uint16(9)).s0 == 3
        assert FixedMode(bits=np.int32(4)).s == 15


class TestTrainingConfig:
    def test_interval_default_is_sixteen_per_dimension(self):
        config = make_config(quantization=AdaquantMode())
        assert config.interval_bits == 16 * 5  # logistic dim = features + 1

    def test_explicit_interval_respected(self):
        config = make_config(quantization=AdaquantMode(interval_bits=777))
        assert config.interval_bits == 777

    def test_interval_absent_in_fixed_mode(self):
        assert make_config().interval_bits is None

    def test_zero_rounds_allowed(self):
        assert make_config(rounds=0).rounds == 0

    def test_model_data_consistency(self):
        # the model fixes the data's shape, and its kind when the data leave
        # it out; synthetic data of the other kind is refused
        with pytest.raises(ValueError, match="^quadratic models train on regression data$"):
            make_config(model=ModelSpec("quadratic", 4))
        with pytest.raises(ValueError, match="^logistic models train on classification data$"):
            make_config(data=SyntheticData(kind="regression", samples=100))
        with pytest.raises(ValueError, match="^mlp models train on classification data$"):
            make_config(model=ModelSpec("mlp", 4, 3, 5), data=SyntheticData(kind="regression", samples=100))
        for model, kind in [
            (ModelSpec("quadratic", 4), "regression"),
            (ModelSpec("logistic", 4), "classification"),
            (ModelSpec("mlp", 4, 3, 5), "classification"),
        ]:
            for data in (SyntheticData(samples=100, noise=0.5), FileData(path="rows.csv")):
                config = make_config(model=model, data=data)
                assert config.data == replace(data, kind=kind)
                assert config == make_config(model=model, data=replace(data, kind=kind))

    def test_classification_noise_is_a_probability(self):
        # a label-flip probability above 1 used to build a config whose
        # run then failed in build_problem
        message = "^noise must be finite and at least 0 and at most 1, got 1.5$"
        with pytest.raises(ValueError, match=message):
            make_config(data=SyntheticData(samples=100, noise=1.5))
        with pytest.raises(ValueError, match=message):
            SyntheticData(kind="classification", samples=100, noise=1.5)
        quadratic = make_config(model=ModelSpec("quadratic", 4), data=SyntheticData(samples=100, noise=1.5))
        assert quadratic.data.noise == 1.5

    def test_more_clients_than_samples(self):
        with pytest.raises(ValueError):
            make_config(
                data=SyntheticData(kind="classification", samples=3)
            )

    def test_scalar_validation(self):
        for bad in (
            dict(n_clients=0),
            dict(local_steps=0),
            dict(batch_size=0),
            dict(rounds=-1),
            dict(partition_mode="fancy"),
            dict(bit_budget=0),
            dict(eval_every=0),
            dict(loss_estimate="guess"),
            dict(smoothness=0.0),
            dict(master_seed=-1),
        ):
            with pytest.raises(ValueError):
                make_config(**bad)

    def test_file_data_accepted(self):
        config = make_config(
            data=FileData(path="/tmp/somewhere.txt", kind="classification")
        )
        assert config.data.path == "/tmp/somewhere.txt"
