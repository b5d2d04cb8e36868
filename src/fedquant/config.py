"""Experiment configuration records.

A :class:`TrainingConfig` fully determines a run: the model, the data
source, the federation layout, the step-size and quantization schedules,
and the stopping rules.  Two configs that compare equal produce bit-exact
identical runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .controller import LrSchedule
from .objectives import _DATA_KINDS, _PARTITION_MODES, ModelSpec
from .quantizer import _MAX_EXACT_LEVEL

__all__ = [
    "SyntheticData",
    "FileData",
    "FixedMode",
    "AdaquantMode",
    "TrainingConfig",
]

DEFAULT_S_MAX = 2**16 - 1
_LOSS_ESTIMATES = ("full", "minibatch")


@dataclass(frozen=True)
class SyntheticData:
    """Generate the task on the fly from the run's master seed."""

    kind: str
    samples: int
    n_features: int
    noise: float = 0.0
    n_classes: int = 2
    eval_samples: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _DATA_KINDS:
            raise ValueError(f"unknown synthetic kind {self.kind!r}")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.n_features < 1:
            raise ValueError("n_features must be at least 1")
        if self.eval_samples < 0:
            raise ValueError("eval_samples must be non-negative")
        if not 0.0 <= self.noise < math.inf:
            raise ValueError(f"noise must be finite and non-negative, got {self.noise}")
        if self.n_classes < 2:
            raise ValueError("n_classes must be at least 2")


@dataclass(frozen=True)
class FileData:
    """Load the task from a delimited numeric file (last column = label)."""

    path: str
    kind: str = "classification"
    eval_samples: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _DATA_KINDS:
            raise ValueError(f"unknown data kind {self.kind!r}")
        if self.eval_samples < 0:
            raise ValueError("eval_samples must be non-negative")


@dataclass(frozen=True)
class FixedMode:
    """Quantize every round with the same ``b``-bit level budget."""

    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 31:
            raise ValueError(f"bits must lie in [1, 31], got {self.bits}")

    @property
    def s(self) -> int:
        return 2**self.bits - 1


@dataclass(frozen=True)
class AdaquantMode:
    """Adapt the level as the loss falls.

    ``interval_bits`` of None means "16 bits per model dimension", resolved
    once the model is known.  ``f_star`` is the assumed optimal loss.
    """

    s0: int = 2
    interval_bits: int | None = None
    s_max: int = DEFAULT_S_MAX
    f_star: float = 0.0

    def __post_init__(self) -> None:
        if self.s0 < 1:
            raise ValueError("s0 must be at least 1")
        if self.s_max < self.s0:
            raise ValueError("s_max must be at least s0")
        if self.s_max > _MAX_EXACT_LEVEL:
            raise ValueError(f"s_max must be at most 2**53, got {self.s_max}")
        if self.interval_bits is not None and self.interval_bits < 1:
            raise ValueError("interval_bits must be at least 1")
        if not math.isfinite(self.f_star):
            raise ValueError(f"f_star must be finite, got {self.f_star}")


@dataclass(frozen=True)
class TrainingConfig:
    model: ModelSpec
    data: SyntheticData | FileData
    n_clients: int
    local_steps: int
    batch_size: int
    lr: LrSchedule
    quantization: FixedMode | AdaquantMode
    rounds: int
    partition_mode: str = "iid"
    bit_budget: int | None = None
    loss_threshold: float | None = None
    master_seed: int = 0
    eval_every: int = 1
    loss_estimate: str = "full"
    smoothness: float | None = None
    output: str | None = None

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ValueError("n_clients must be at least 1")
        if self.local_steps < 1:
            raise ValueError("local_steps must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.rounds < 0:
            raise ValueError("rounds must be non-negative")
        if self.partition_mode not in _PARTITION_MODES:
            raise ValueError(f"unknown partition mode {self.partition_mode!r}")
        if self.bit_budget is not None and self.bit_budget < 1:
            raise ValueError("bit_budget must be at least 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be at least 1")
        if self.loss_estimate not in _LOSS_ESTIMATES:
            raise ValueError(f"loss_estimate must be 'full' or 'minibatch', got {self.loss_estimate!r}")
        if self.loss_threshold is not None and not math.isfinite(self.loss_threshold):
            raise ValueError(f"loss_threshold must be finite, got {self.loss_threshold}")
        if self.smoothness is not None and not 0.0 < self.smoothness < math.inf:
            raise ValueError(f"smoothness must be finite and positive, got {self.smoothness}")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        self._check_model_data()

    def _check_model_data(self) -> None:
        model, data = self.model, self.data
        if isinstance(data, SyntheticData):
            if data.n_features != model.n_features:
                raise ValueError(
                    f"data has {data.n_features} features but the model expects {model.n_features}"
                )
            if model.kind == "quadratic" and data.kind != "regression":
                raise ValueError("quadratic models train on regression data")
            if model.kind == "logistic":
                if data.kind != "classification" or data.n_classes != 2:
                    raise ValueError("logistic models train on binary classification data")
            if model.kind == "mlp":
                if data.kind != "classification" or data.n_classes != model.n_classes:
                    raise ValueError(
                        "mlp models train on classification data with matching n_classes"
                    )
            if self.n_clients > data.samples:
                raise ValueError("more clients than training samples")

    @property
    def interval_bits(self) -> int | None:
        """Resolved recomputation interval, or None in fixed mode."""
        if not isinstance(self.quantization, AdaquantMode):
            return None
        if self.quantization.interval_bits is not None:
            return self.quantization.interval_bits
        return 16 * self.model.dim
