"""Experiment configuration records.

A :class:`TrainingConfig` fully determines a run: the model, the data
source, the federation layout, the step-size and quantization schedules,
and the stopping rules.  Two configs that compare equal produce bit-exact
identical runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import _checks
from .controller import LrSchedule
from .objectives import _DATA_KINDS, _MAX_NOISE, _PARTITION_MODES, ModelSpec
from .quantizer import _MAX_EXACT_LEVEL

__all__ = [
    "SyntheticData",
    "FileData",
    "FixedMode",
    "AdaquantMode",
    "TrainingConfig",
]

_LOSS_ESTIMATES = ("full", "minibatch")


@dataclass(frozen=True)
class SyntheticData:
    """Generate the task on the fly from the run's master seed, in the
    shape of the run's model.  A ``kind`` of None is the model's kind."""

    samples: int
    noise: float = 0.0
    eval_samples: int = 0
    kind: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in (None, *_DATA_KINDS):
            raise ValueError(f"unknown synthetic kind {self.kind!r}")
        _checks.integer("samples", self.samples, 1)
        _checks.integer("eval_samples", self.eval_samples, 0)
        _checks.finite("noise", self.noise, 0, _MAX_NOISE.get(self.kind))


@dataclass(frozen=True)
class FileData:
    """Load the task from a delimited numeric file (last column = label).
    A ``kind`` of None is the model's kind."""

    path: str
    kind: str | None = None
    eval_samples: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (None, *_DATA_KINDS):
            raise ValueError(f"unknown data kind {self.kind!r}")
        _checks.integer("eval_samples", self.eval_samples, 0)


@dataclass(frozen=True)
class FixedMode:
    """Quantize every round with the same ``b``-bit level budget."""

    bits: int

    def __post_init__(self) -> None:
        _checks.integer("bits", self.bits, 1, 31)

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
    s_max: int = 2**16 - 1
    f_star: float = 0.0

    def __post_init__(self) -> None:
        _checks.integer("s0", self.s0, 1)
        _checks.integer("s_max", self.s_max, self.s0, _MAX_EXACT_LEVEL)
        if self.interval_bits is not None:
            _checks.integer("interval_bits", self.interval_bits, 1)
        _checks.finite("f_star", self.f_star)


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
        for name in ("n_clients", "local_steps", "batch_size", "eval_every"):
            _checks.integer(name, getattr(self, name), 1)
        _checks.integer("rounds", self.rounds, 0)
        if self.partition_mode not in _PARTITION_MODES:
            raise ValueError(f"unknown partition mode {self.partition_mode!r}")
        if self.bit_budget is not None:
            _checks.integer("bit_budget", self.bit_budget, 1)
        if self.loss_estimate not in _LOSS_ESTIMATES:
            raise ValueError(f"loss_estimate must be 'full' or 'minibatch', got {self.loss_estimate!r}")
        if self.loss_threshold is not None:
            _checks.finite("loss_threshold", self.loss_threshold)
        if self.smoothness is not None:
            _checks.positive("smoothness", self.smoothness)
        _checks.integer("master_seed", self.master_seed, 0)
        # the model fixes the data's kind: None takes it, and the record is
        # built again so that its checks see it; synthetic data must match it
        kind = "regression" if self.model.kind == "quadratic" else "classification"
        if self.data.kind is None:
            object.__setattr__(self, "data", replace(self.data, kind=kind))
        if isinstance(self.data, SyntheticData):
            if self.data.kind != kind:
                raise ValueError(f"{self.model.kind} models train on {kind} data")
            if self.n_clients > self.data.samples:
                raise ValueError("more clients than training samples")

    @property
    def interval_bits(self) -> int | None:
        """Resolved recomputation interval, or None in fixed mode."""
        if not isinstance(self.quantization, AdaquantMode):
            return None
        if self.quantization.interval_bits is not None:
            return self.quantization.interval_bits
        return 16 * self.model.dim
