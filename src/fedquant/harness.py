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
from typing import Sequence, TypeVar

from . import _checks, fedsim
from .config import AdaquantMode, FileData, FixedMode, SyntheticData, TrainingConfig
from .controller import LrSchedule
from .fedsim import RoundRecord, TrainingRun
from .objectives import ModelSpec

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


_SECTIONS = ("model", "data", "federation", "lr", "quantization", "run")


class _Doc:
    """Typed view over a parsed INI document that records each key it reads."""

    def __init__(self, parser: configparser.ConfigParser) -> None:
        self.sections = {name: dict(parser.items(name)) for name in parser.sections()}
        self.read: set[tuple[str, str]] = set()

    def get(self, section: str, key: str, convert=str, required: bool = False, default=None):
        """The key's value through ``convert`` (``str``, ``str.lower``,
        ``int`` or ``float``), or ``default`` when the document leaves it out."""
        self.read.add((section, key))
        value = self.sections[section].get(key)
        if value is None:
            if required:
                raise ConfigError(f"missing required key {section}.{key}")
            return default
        try:
            return convert(value.strip())
        except ValueError:
            expected = "an integer" if convert is int else "a number"
            raise ConfigError(f"{section}.{key}: expected {expected}, got {value.strip()!r}") from None

    def choice(self, section: str, key: str, choices: tuple[str, ...], default: str | None = None):
        """A lower-cased key that picks which record is built."""
        value = self.get(section, key, str.lower, required=default is None, default=default)
        if value not in choices:
            raise ConfigError(f"{section}.{key}: expected one of {', '.join(choices)}, got {value!r}")
        return value


def parse_config(text: str) -> TrainingConfig:
    """Parse an INI config document into a validated TrainingConfig: only
    the keys it gives are passed on, and the config records hold every
    default and every range or choice rule."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    doc = _Doc(parser)
    for required in _SECTIONS:
        if required not in doc.sections:
            raise ConfigError(f"missing required section [{required}]")
    try:
        config = _build(doc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # the keys the build read are the grammar: any other is unknown or
    # does not apply to this config
    for name, values in doc.sections.items():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]")
        for key in values:
            if (name, key) not in doc.read:
                raise ConfigError(f"key {name}.{key} is unknown or does not apply to this config")
    return config


def _given(record, **fields):
    """``record`` built from the ``fields`` that are not None: a key the
    document leaves out takes the record's own default."""
    return record(**{name: value for name, value in fields.items() if value is not None})


def _build(doc: _Doc) -> TrainingConfig:
    kind = doc.get("model", "kind", str.lower, required=True)
    mlp = kind == "mlp"
    model = _given(
        ModelSpec,
        kind=kind,
        n_features=doc.get("model", "features", int, required=True),
        hidden=doc.get("model", "hidden", int, required=True) if mlp else None,
        n_classes=doc.get("model", "classes", int, required=True) if mlp else None,
    )

    source = doc.choice("data", "source", ("synthetic", "file"), default="synthetic")
    data_kind = doc.get("data", "kind", str.lower)
    eval_samples = doc.get("data", "eval_samples", int)
    if source == "synthetic":
        data = _given(
            SyntheticData,
            kind=data_kind,
            samples=doc.get("data", "samples", int, required=True),
            noise=doc.get("data", "noise", float),
            eval_samples=eval_samples,
        )
    else:
        path = doc.get("data", "path", required=True)
        data = _given(FileData, path=path, kind=data_kind, eval_samples=eval_samples)

    lr = _given(
        LrSchedule,
        eta0=doc.get("lr", "eta0", float, required=True),
        decay_factor=doc.get("lr", "decay_factor", float),
        decay_every=doc.get("lr", "decay_every", int),
    )

    if doc.choice("quantization", "mode", ("fixed", "adaquant")) == "fixed":
        quant = FixedMode(bits=doc.get("quantization", "bits", int, required=True))
    else:
        quant = _given(
            AdaquantMode,
            s0=doc.get("quantization", "s0", int),
            interval_bits=doc.get("quantization", "interval_bits", int),
            s_max=doc.get("quantization", "s_max", int),
            f_star=doc.get("quantization", "f_star", float),
        )

    return _given(
        TrainingConfig,
        model=model,
        data=data,
        n_clients=doc.get("federation", "clients", int, required=True),
        partition_mode=doc.get("federation", "partition", str.lower),
        local_steps=doc.get("federation", "local_steps", int, required=True),
        batch_size=doc.get("federation", "batch_size", int, required=True),
        lr=lr,
        quantization=quant,
        rounds=doc.get("run", "rounds", int, required=True),
        bit_budget=doc.get("run", "bit_budget", int),
        loss_threshold=doc.get("run", "loss_threshold", float),
        master_seed=doc.get("run", "seed", int),
        eval_every=doc.get("run", "eval_every", int),
        loss_estimate=doc.get("run", "loss_estimate", str.lower),
        smoothness=doc.get("run", "smoothness", float),
        output=doc.get("run", "output"),
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
    _checks.finite("threshold", threshold)
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
    if len(candidates) == 0:
        raise ValueError("candidates must be non-empty")
    for c in candidates:
        _checks.integer("candidates", c, 1)
    cands = sorted(set(map(int, candidates)))
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
        model=ModelSpec("logistic", 19),
        data=SyntheticData(samples=2000, noise=0.1, eval_samples=400),
        n_clients=8,
        local_steps=10,
        batch_size=32,
        lr=LrSchedule(0.05),
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
