"""Configuration record validation."""

from __future__ import annotations

import math
import os

import pytest

from fedquant.config import (
    AdaquantMode,
    FileData,
    FixedMode,
    SyntheticData,
    TrainingConfig,
)
from fedquant.controller import LrSchedule
from fedquant.harness import ConfigError, load_config
from fedquant.objectives import ModelSpec


def make_config(**kw) -> TrainingConfig:
    base = dict(
        model=ModelSpec.logistic(4),
        data=SyntheticData(kind="classification", samples=100, n_features=4),
        n_clients=4,
        local_steps=5,
        batch_size=8,
        lr=LrSchedule.constant(0.1),
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
        with pytest.raises(ValueError, match="at most 2\\*\\*53"):
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
        with pytest.raises(ValueError, match="noise must be finite and non-negative"):
            SyntheticData(kind="regression", samples=10, n_features=2, noise=noise)
        assert SyntheticData(kind="regression", samples=10, n_features=2, noise=0.0).noise == 0.0

    def test_ini_f_star_nan_is_a_config_error(self, tmp_path):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(here, "configs", "reference.ini"), encoding="utf-8") as fh:
            text = fh.read()
        assert "f_star = 0.40" in text
        path = tmp_path / "nan.ini"
        path.write_text(text.replace("f_star = 0.40", "f_star = nan"))
        with pytest.raises(ConfigError, match="f_star must be finite, got nan"):
            load_config(str(path))


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
        with pytest.raises(ValueError):
            make_config(model=ModelSpec.quadratic(4))
        with pytest.raises(ValueError):
            make_config(
                data=SyntheticData(kind="regression", samples=100, n_features=4)
            )
        with pytest.raises(ValueError):
            make_config(
                data=SyntheticData(kind="classification", samples=100, n_features=9)
            )
        with pytest.raises(ValueError):
            make_config(
                model=ModelSpec.mlp(4, 3, 5),
                data=SyntheticData(
                    kind="classification", samples=100, n_features=4, n_classes=3
                ),
            )

    def test_more_clients_than_samples(self):
        with pytest.raises(ValueError):
            make_config(
                data=SyntheticData(kind="classification", samples=3, n_features=4)
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
