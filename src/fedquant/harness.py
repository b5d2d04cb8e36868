"""Experiment harness: config files, CSV output, metrics, and sweeps.

Configs are INI files with sections ``[model]``, ``[data]``,
``[federation]``, ``[lr]``, ``[quantization]``, and ``[run]``; the full
grammar is documented in the README.  Every run is reproducible from its
config alone, and baseline sweeps reuse one master seed so that all legs
share the dataset, the partition, the initial weights, and the minibatch
draws.
"""

from __future__ import annotations

import configparser
import csv
import os
from dataclasses import dataclass, replace
from typing import Iterable, Sequence, TypeVar

from . import fedsim
from .config import (
    _LOSS_ESTIMATES,
    DEFAULT_S_MAX,
    AdaquantMode,
    FileData,
    FixedMode,
    SyntheticData,
    TrainingConfig,
)
from .controller import LrSchedule
from .fedsim import RoundRecord, TrainingRun
from .objectives import _DATA_KINDS, _MODEL_KINDS, _PARTITION_MODES, ModelSpec

__all__ = [
    "ConfigError",
    "ExperimentSummary",
    "CSV_COLUMNS",
    "parse_config",
    "load_config",
    "run_experiment",
    "bits_to_threshold",
    "grid_search_s0",
    "emit_csv",
    "sweep",
    "reference_config",
    "format_summary_table",
]

CSV_COLUMNS = (
    "round",
    "cumulative_bits",
    "train_loss",
    "eval_metric",
    "s",
    "b",
    "eta",
    "interval",
    "feasibility",
)

SWEEP_FIXED_BITS = (2, 4, 8, 16)

_Name = TypeVar("_Name")


class ConfigError(ValueError):
    """A config document that cannot be turned into a TrainingConfig."""


@dataclass(frozen=True)
class ExperimentSummary:
    """Per-run results, one row of a comparison table.

    ``bits_to_threshold`` is None when the run never reached the
    configured loss threshold (or no threshold was set).
    ``infeasible_rounds`` counts the rounds whose step size failed the
    feasibility check (``smoothness`` set), and
    ``saturated_recomputations`` the adaptive level's recomputations that
    met a loss at or below ``f_star``.
    """

    rounds: int
    final_loss: float
    final_eval_metric: float | None
    cumulative_bits: int
    bits_to_threshold: int | None
    s_trajectory: tuple[int, ...]
    infeasible_rounds: int = 0
    saturated_recomputations: int = 0


# ---------------------------------------------------------------------------
# config parsing


_SCHEMA = {
    "model": ("kind", "features", "hidden", "classes"),
    "data": ("source", "kind", "samples", "noise", "eval_samples", "path"),
    "federation": ("clients", "partition", "local_steps", "batch_size"),
    "lr": ("eta0", "decay_factor", "decay_every"),
    "quantization": ("mode", "bits", "s0", "interval_bits", "s_max", "f_star"),
    "run": (
        "rounds",
        "bit_budget",
        "loss_threshold",
        "seed",
        "eval_every",
        "loss_estimate",
        "smoothness",
        "output",
    ),
}

_MISSING = object()


class _Doc:
    """Typed view over a parsed INI document."""

    def __init__(self, parser: configparser.ConfigParser) -> None:
        self.sections = {name: dict(parser.items(name)) for name in parser.sections()}

    def raw(self, section: str, key: str, default=_MISSING):
        values = self.sections.get(section, {})
        if key in values:
            return values[key].strip()
        if default is _MISSING:
            raise ConfigError(f"missing required key {section}.{key}")
        return default

    def choice(self, section: str, key: str, choices: tuple[str, ...], default=_MISSING):
        value = self.raw(section, key, default)
        value = str(value).lower()
        if value not in choices:
            raise ConfigError(
                f"{section}.{key}: expected one of {', '.join(choices)}, got {value!r}"
            )
        return value

    def integer(self, section: str, key: str, default=_MISSING):
        value = self.raw(section, key, default)
        if not isinstance(value, str):
            return value
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{section}.{key}: expected an integer, got {value!r}") from None

    def number(self, section: str, key: str, default=_MISSING):
        value = self.raw(section, key, default)
        if not isinstance(value, str):
            return value
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"{section}.{key}: expected a number, got {value!r}") from None

    def forbid(self, section: str, keys: Iterable[str], reason: str) -> None:
        present = [k for k in keys if k in self.sections.get(section, {})]
        if present:
            raise ConfigError(f"{section}.{present[0]} is not allowed {reason}")

    def check_exhausted(self) -> None:
        for name, values in self.sections.items():
            if name not in _SCHEMA:
                raise ConfigError(f"unknown section [{name}]")
            for key in values:
                if key not in _SCHEMA[name]:
                    raise ConfigError(f"unknown key {name}.{key}")


def parse_config(text: str) -> TrainingConfig:
    """Parse an INI config document into a validated TrainingConfig."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    doc = _Doc(parser)
    doc.check_exhausted()
    for required in ("model", "data", "federation", "lr", "quantization", "run"):
        if required not in doc.sections:
            raise ConfigError(f"missing required section [{required}]")
    try:
        return _build(doc)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _build(doc: _Doc) -> TrainingConfig:
    kind = doc.choice("model", "kind", _MODEL_KINDS)
    features = doc.integer("model", "features")
    if kind == "mlp":
        model = ModelSpec.mlp(
            features, doc.integer("model", "hidden"), doc.integer("model", "classes")
        )
    else:
        doc.forbid("model", ("hidden", "classes"), f"for kind={kind}")
        model = ModelSpec(kind=kind, n_features=features)

    source = doc.choice("data", "source", ("synthetic", "file"), default="synthetic")
    data_kind = doc.choice(
        "data", "kind", _DATA_KINDS, default="regression" if kind == "quadratic" else "classification"
    )
    if source == "synthetic":
        doc.forbid("data", ("path",), "for synthetic data")
        data = SyntheticData(
            kind=data_kind,
            samples=doc.integer("data", "samples"),
            n_features=features,
            noise=doc.number("data", "noise", 0.0),
            n_classes=model.n_classes if kind == "mlp" else 2,
            eval_samples=doc.integer("data", "eval_samples", 0),
        )
    else:
        doc.forbid("data", ("samples", "noise"), "for file data")
        data = FileData(
            path=doc.raw("data", "path"),
            kind=data_kind,
            eval_samples=doc.integer("data", "eval_samples", 0),
        )

    lr = LrSchedule(
        eta0=doc.number("lr", "eta0"),
        decay_factor=doc.number("lr", "decay_factor", 1.0),
        decay_every=doc.integer("lr", "decay_every", None),
    )

    mode = doc.choice("quantization", "mode", ("fixed", "adaquant"))
    if mode == "fixed":
        doc.forbid(
            "quantization", ("s0", "interval_bits", "s_max", "f_star"), "with mode=fixed"
        )
        quant: FixedMode | AdaquantMode = FixedMode(bits=doc.integer("quantization", "bits"))
    else:
        doc.forbid("quantization", ("bits",), "with mode=adaquant")
        quant = AdaquantMode(
            s0=doc.integer("quantization", "s0", 2),
            interval_bits=doc.integer("quantization", "interval_bits", None),
            s_max=doc.integer("quantization", "s_max", DEFAULT_S_MAX),
            f_star=doc.number("quantization", "f_star", 0.0),
        )

    return TrainingConfig(
        model=model,
        data=data,
        n_clients=doc.integer("federation", "clients"),
        partition_mode=doc.choice("federation", "partition", _PARTITION_MODES, default="iid"),
        local_steps=doc.integer("federation", "local_steps"),
        batch_size=doc.integer("federation", "batch_size"),
        lr=lr,
        quantization=quant,
        rounds=doc.integer("run", "rounds"),
        bit_budget=doc.integer("run", "bit_budget", None),
        loss_threshold=doc.number("run", "loss_threshold", None),
        master_seed=doc.integer("run", "seed", 0),
        eval_every=doc.integer("run", "eval_every", 1),
        loss_estimate=doc.choice("run", "loss_estimate", _LOSS_ESTIMATES, default="full"),
        smoothness=doc.number("run", "smoothness", None),
        output=doc.raw("run", "output", None),
    )


def load_config(path: str) -> TrainingConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# CSV emission


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_row(record: RoundRecord) -> list[str]:
    return [
        _csv_cell(record.round_index),
        _csv_cell(record.cumulative_bits),
        _csv_cell(record.train_loss),
        _csv_cell(record.eval_metric),
        _csv_cell(record.s),
        _csv_cell(record.element_bits),
        _csv_cell(record.eta),
        _csv_cell(record.interval),
        _csv_cell(record.feasible),
    ]


class _CsvStream:
    """Streaming CSV writer, flushed per row so partial runs stay valid."""

    def __init__(self, path: str) -> None:
        self._fh = open(path, "w", newline="", encoding="utf-8")
        self._writer = csv.writer(self._fh, lineterminator="\n")
        self._writer.writerow(CSV_COLUMNS)
        self._fh.flush()

    def write(self, record: RoundRecord) -> None:
        self._writer.writerow(_csv_row(record))
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def emit_csv(records: Sequence[RoundRecord], path: str) -> None:
    """Write the standard per-round CSV (header row even when empty)."""
    stream = _CsvStream(path)
    try:
        for record in records:
            stream.write(record)
    finally:
        stream.close()


# ---------------------------------------------------------------------------
# metrics and runs


def bits_to_threshold(records: Sequence[RoundRecord], threshold: float) -> int | None:
    """Uplink bits sent before the first round that starts at or below ``threshold``.

    That round's own uplink is not counted, so a run that starts there costs 0.
    """
    for record in records:
        if record.train_loss <= threshold:
            return record.cumulative_bits - record.bits_this_round
    return None


def _summarize(config: TrainingConfig, run: TrainingRun) -> ExperimentSummary:
    problem = run.problem
    final_w = run.final_state.w
    final_loss = fedsim.global_loss(problem.model, problem.shards, final_w)
    threshold = config.loss_threshold
    crossed = None if threshold is None else bits_to_threshold(run.records, threshold)
    return ExperimentSummary(
        rounds=len(run.records),
        final_loss=final_loss,
        final_eval_metric=fedsim._eval_metric(problem, final_w),
        cumulative_bits=run.final_state.cumulative_bits,
        bits_to_threshold=crossed,
        s_trajectory=tuple(r.s for r in run.records),
        infeasible_rounds=sum(r.feasible is False for r in run.records),
        saturated_recomputations=run.saturated_recomputations,
    )


def run_experiment(config: TrainingConfig) -> tuple[ExperimentSummary, tuple[RoundRecord, ...]]:
    """Run one configured experiment, streaming CSV to ``config.output``
    if it is set.

    On divergence the rows written so far remain on disk as a valid CSV
    prefix, and the error propagates.
    """
    stream = _CsvStream(config.output) if config.output is not None else None
    try:
        run = fedsim.run_training(config, on_record=None if stream is None else stream.write)
    finally:
        if stream is not None:
            stream.close()
    return _summarize(config, run), run.records


def _adaptive(config: TrainingConfig) -> AdaquantMode:
    """The config's adaptive mode, else the default one."""
    quant = config.quantization
    return quant if isinstance(quant, AdaquantMode) else AdaquantMode()


def _run_legs(
    config: TrainingConfig, legs: dict[_Name, FixedMode | AdaquantMode], out_dir: str | None = None
) -> dict[_Name, ExperimentSummary]:
    """Run ``config`` once per named quantization mode, on its one master
    seed; with ``out_dir``, leg ``name`` writes ``<out_dir>/<name>.csv``."""
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    summaries: dict[_Name, ExperimentSummary] = {}
    for name, quant in legs.items():
        output = os.path.join(out_dir, f"{name}.csv") if out_dir is not None else None
        summaries[name], _ = run_experiment(replace(config, quantization=quant, output=output))
    return summaries


def grid_search_s0(
    config: TrainingConfig, candidates: Sequence[int]
) -> tuple[int, dict[int, ExperimentSummary]]:
    """Try each starting level with shared seeds; rank by bits-to-threshold,
    then final loss, with smaller candidates winning ties."""
    cands = sorted(set(int(c) for c in candidates))
    if not cands:
        raise ValueError("candidates must be non-empty")
    if cands[0] < 1:
        raise ValueError("candidates must be at least 1")
    base = _adaptive(config)
    summaries = _run_legs(
        config, {s0: replace(base, s0=s0, s_max=max(base.s_max, s0)) for s0 in cands}
    )

    def rank(c: int) -> tuple[float, float, int]:
        crossed = summaries[c].bits_to_threshold
        return (float("inf") if crossed is None else crossed, summaries[c].final_loss, c)

    return min(cands, key=rank), summaries


def sweep(config: TrainingConfig, out_dir: str) -> dict[str, ExperimentSummary]:
    """Fixed-level baselines (2, 4, 8, 16 bits) plus the adaptive run.

    All legs share ``config.master_seed``, hence the same dataset,
    partition, initial weights, and minibatch order.  Each leg writes
    ``<out_dir>/<name>.csv``.
    """
    legs: dict[str, FixedMode | AdaquantMode] = {
        f"fixed_b{b}": FixedMode(bits=b) for b in SWEEP_FIXED_BITS
    }
    legs["adaquant"] = _adaptive(config)
    return _run_legs(config, legs, out_dir)


def reference_config(**overrides) -> TrainingConfig:
    """The in-repo desk-scale task: logistic regression, 20 parameters
    (19 features plus bias), 2,000 training rows over 8 clients.

    The adaptive schedule's loss floor (``f_star = 0.40``) was calibrated
    offline: long fine-quantization runs on this task plateau between
    0.405 and 0.425 across seeds, and 0.40 keeps the measured gap small
    enough that the level schedule climbs as the run approaches its floor.
    It is not below every achievable training loss: some seeds train under
    it (seed 9 of the benchmark's ``reference`` workload reaches 0.3885),
    and from then on every recomputation saturates at ``s_max``.  The
    bit budget is deep enough that every fixed-width baseline reaches its
    stationary loss before the budget expires, which makes budget-matched
    comparisons measure variance floors rather than descent speed.
    """
    config = TrainingConfig(
        model=ModelSpec.logistic(19),
        data=SyntheticData(
            kind="classification",
            samples=2000,
            n_features=19,
            noise=0.1,
            n_classes=2,
            eval_samples=400,
        ),
        n_clients=8,
        local_steps=10,
        batch_size=32,
        lr=LrSchedule.constant(0.05),
        quantization=AdaquantMode(s0=2, s_max=64, f_star=0.40),
        rounds=1600,
        partition_mode="iid",
        bit_budget=128_000,
        master_seed=0,
        eval_every=10,
    )
    return replace(config, **overrides) if overrides else config


def format_summary_table(summaries: dict[str, ExperimentSummary]) -> str:
    """Fixed-width comparison table for terminal output."""
    header = (
        f"{'run':<12} {'rounds':>6} {'final_loss':>12} {'eval':>8} {'bits':>12} {'bits_to_thr':>12}"
        f" {'infeasible':>10} {'saturated':>9}"
    )
    lines = [header, "-" * len(header)]
    for name, s in summaries.items():
        metric = f"{s.final_eval_metric:.4f}" if s.final_eval_metric is not None else "-"
        crossed = str(s.bits_to_threshold) if s.bits_to_threshold is not None else "-"
        lines.append(
            f"{name:<12} {s.rounds:>6} {s.final_loss:>12.6f} {metric:>8} "
            f"{s.cumulative_bits:>12} {crossed:>12} {s.infeasible_rounds:>10} "
            f"{s.saturated_recomputations:>9}"
        )
    return "\n".join(lines)
