"""Harness tests: INI parsing, CSV output, metrics, sweeps, grid search."""

from __future__ import annotations

import csv
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from fedquant.config import AdaquantMode, FixedMode, SyntheticData, TrainingConfig
from fedquant.controller import LrSchedule
from fedquant.fedsim import RoundRecord, TrainingDiverged, build_problem
from fedquant.harness import (
    CSV_COLUMNS,
    ConfigError,
    bits_to_threshold,
    emit_csv,
    format_summary_table,
    grid_search_s0,
    load_config,
    parse_config,
    reference_config,
    run_experiment,
    sweep,
)
from fedquant.objectives import ModelSpec
from fedquant.quantizer import bits_per_update

MINIMAL = """
[model]
kind = quadratic
features = 3

[data]
samples = 48

[federation]
clients = 3
local_steps = 2
batch_size = 8

[lr]
eta0 = 0.05

[quantization]
mode = adaquant

[run]
rounds = 12
"""


def small_quad(**kw) -> TrainingConfig:
    base = dict(
        model=ModelSpec("quadratic", 3),
        data=SyntheticData(kind="regression", samples=48, noise=0.05),
        n_clients=3,
        local_steps=2,
        batch_size=8,
        lr=LrSchedule(0.05),
        quantization=FixedMode(bits=4),
        rounds=12,
        master_seed=7,
    )
    base.update(kw)
    return TrainingConfig(**base)


SECTIONS = ("model", "data", "federation", "lr", "quantization", "run")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def ini(**overrides) -> str:
    """MINIMAL with whole [section] bodies replaced, or left out when None."""
    sections = {}
    current = None
    for line in MINIMAL.strip().splitlines():
        if line.startswith("["):
            current = line.strip("[]")
            sections[current] = []
        elif line.strip():
            sections[current].append(line)
    for name, body in overrides.items():
        if body is None:
            del sections[name]
        else:
            sections[name] = body.strip().splitlines()
    return "\n".join(f"[{name}]\n" + "\n".join(body) for name, body in sections.items())


class TestParseConfig:
    def test_minimal_defaults(self):
        config = parse_config(MINIMAL)
        assert config.model.kind == "quadratic"
        assert config.data.kind == "regression"
        assert config.quantization == AdaquantMode()
        assert config.quantization.s0 == 2
        assert config.quantization.s_max == 2**16 - 1
        assert config.interval_bits == 16 * 3
        assert config.lr == LrSchedule(0.05)
        assert config.partition_mode == "iid"
        assert config.eval_every == 1
        assert config.loss_estimate == "full"
        assert config.bit_budget is None
        assert config.master_seed == 0

    def test_minimal_takes_the_records_defaults(self):
        # the parser passes only the keys a document gives, so every other
        # field is the record's own default
        assert parse_config(MINIMAL) == TrainingConfig(
            model=ModelSpec(kind="quadratic", n_features=3),
            data=SyntheticData(kind="regression", samples=48),
            n_clients=3,
            local_steps=2,
            batch_size=8,
            lr=LrSchedule(eta0=0.05),
            quantization=AdaquantMode(),
            rounds=12,
        )

    def test_wide_benchmark_config(self):
        config = load_config(os.path.join(ROOT, "perfbench", "wide.ini"))
        assert config == TrainingConfig(
            model=ModelSpec("mlp", 256, 384, 10),
            data=SyntheticData(kind="classification", samples=4000, noise=0.1, eval_samples=1000),
            n_clients=8,
            local_steps=1,
            batch_size=32,
            lr=LrSchedule(eta0=0.1),
            quantization=AdaquantMode(s0=64, s_max=65535, f_star=0.0),
            rounds=60,
            eval_every=20,
            loss_estimate="minibatch",
        )

    def test_config_file_without_s_max_gets_the_default(self, tmp_path):
        path = tmp_path / "adaquant.ini"
        path.write_text(ini(quantization="mode = adaquant\ns0 = 3"))
        quant = load_config(str(path)).quantization
        assert quant.s0 == 3
        assert quant.s_max == AdaquantMode().s_max

    def test_fixed_bits_to_levels(self):
        config = parse_config(ini(quantization="mode = fixed\nbits = 4"))
        assert config.quantization == FixedMode(bits=4)
        assert config.quantization.s == 15

    @pytest.mark.parametrize("key", ["s0 = 2", "interval_bits = 64", "s_max = 8", "f_star = 0.1"])
    def test_fixed_mode_rejects_adaptive_keys(self, key):
        name = key.split(" = ")[0]
        with pytest.raises(ConfigError, match=re.escape(f"quantization.{name}")):
            parse_config(ini(quantization=f"mode = fixed\nbits = 4\n{key}"))

    def test_adaptive_mode_rejects_bits(self):
        with pytest.raises(ConfigError, match=re.escape("quantization.bits")):
            parse_config(ini(quantization="mode = adaquant\nbits = 4"))

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="run.turbo"):
            parse_config(ini(run="rounds = 12\nturbo = 1"))

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match=r"\[plotting\]"):
            parse_config(MINIMAL + "\n[plotting]\nstyle = dark\n")

    def test_missing_required_key_named(self):
        with pytest.raises(ConfigError, match="lr.eta0"):
            parse_config(ini(lr="decay_factor = 0.9"))

    @pytest.mark.parametrize("section", SECTIONS)
    def test_missing_section_named(self, section):
        with pytest.raises(ConfigError, match=re.escape(f"missing required section [{section}]")):
            parse_config(ini(**{section: None}))

    def test_bad_integer(self):
        with pytest.raises(ConfigError, match="data.samples"):
            parse_config(ini(data="samples = many"))

    def test_bad_choice(self):
        with pytest.raises(ConfigError, match="model.kind"):
            parse_config(ini(model="kind = perceptron\nfeatures = 3"))

    def test_malformed_document(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("rounds = 12 without any section header")

    def test_out_of_range_value_reported_as_config_error(self):
        with pytest.raises(ConfigError):
            parse_config(ini(federation="clients = 0\nlocal_steps = 2\nbatch_size = 8"))

    def test_mlp_requires_architecture_keys(self):
        with pytest.raises(ConfigError, match="model.hidden"):
            parse_config(ini(model="kind = mlp\nfeatures = 4"))
        config = parse_config(
            ini(
                model="kind = mlp\nfeatures = 4\nhidden = 5\nclasses = 3",
                data="samples = 60\nkind = classification",
            )
        )
        assert config.model.dim == 4 * 5 + 5 + 5 * 3 + 3

    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    @pytest.mark.parametrize("key", ["hidden = 5", "classes = 2"])
    def test_non_mlp_rejects_architecture_keys(self, kind, key):
        name = key.split(" = ")[0]
        with pytest.raises(ConfigError, match=re.escape(f"model.{name}")):
            parse_config(ini(model=f"kind = {kind}\nfeatures = 3\n{key}"))

    def test_file_source(self):
        config = parse_config(ini(data="source = file\npath = rows.csv"))
        assert config.data.path == "rows.csv"

    @pytest.mark.parametrize("key", ["samples = 10", "noise = 0.1"])
    def test_file_source_rejects_synthetic_keys(self, key):
        name = key.split(" = ")[0]
        with pytest.raises(ConfigError, match=re.escape(f"data.{name}")):
            parse_config(ini(data=f"source = file\npath = rows.csv\n{key}"))

    def test_synthetic_rejects_path(self):
        with pytest.raises(ConfigError, match=re.escape("data.path")):
            parse_config(ini(data="samples = 48\npath = rows.csv"))

    def test_file_source_reads_comma_and_whitespace_alike(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = [[*map(repr, rng.normal(size=3).tolist()), str(int(rng.integers(2)))] for _ in range(12)]
        problems = []
        for name, sep in (("rows.csv", ","), ("rows.txt", " ")):
            path = tmp_path / name
            text = "# three features, then the label\n" + "".join(sep.join(r) + "\n" for r in rows)
            path.write_text(text)
            data = f"source = file\npath = {path}\neval_samples = 3"
            problems.append(build_problem(parse_config(ini(model="kind = logistic\nfeatures = 3", data=data))))
        comma, spaced = problems
        assert len(comma.shards) == len(spaced.shards) == 3
        for a, b in zip(
            [comma.train_data, comma.eval_data, *(s.data for s in comma.shards)],
            [spaced.train_data, spaced.eval_data, *(s.data for s in spaced.shards)],
        ):
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.labels, b.labels)
        assert comma.eval_data.m == 3 and comma.train_data.m == 9


class TestReferenceConfig:
    def test_shipped_ini_matches_factory(self):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        assert load_config(os.path.join(here, "configs", "reference.ini")) == reference_config()

    def test_overrides(self):
        config = reference_config(rounds=5, master_seed=3)
        assert config.rounds == 5
        assert config.master_seed == 3
        assert config.model.dim == 20


class TestRunExperiment:
    def test_single_round_accounting(self):
        summary, records = run_experiment(small_quad(rounds=1))
        assert summary.rounds == 1 and len(records) == 1
        assert summary.cumulative_bits == bits_per_update(3, 15).total_bits
        assert summary.s_trajectory == (15,)

    def test_csv_written_and_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(replace(small_quad(), output=str(a)))
        run_experiment(replace(small_quad(), output=str(b)))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().startswith(",".join(CSV_COLUMNS).encode())

    def test_csv_lands_at_config_output(self, tmp_path):
        out = tmp_path / "via_config.csv"
        _, records = run_experiment(small_quad(output=str(out)))
        # the one file written, holding a row per returned record
        assert list(tmp_path.iterdir()) == [out]
        emit_csv(records, str(tmp_path / "expected.csv"))
        assert out.read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_divergence_leaves_valid_csv_prefix(self, tmp_path):
        out = tmp_path / "partial.csv"
        bad = small_quad(lr=LrSchedule(1e9), rounds=50)
        with pytest.raises(TrainingDiverged):
            run_experiment(replace(bad, output=str(out)))
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)

    def test_summary_counts_infeasible_rounds_and_saturations(self):
        # at smoothness 1.2 the coarse levels fail the step-size condition
        # and the fine ones pass; f_star = 0.45 saturates the level
        config = reference_config(
            rounds=300, smoothness=1.2, quantization=AdaquantMode(s0=2, s_max=64, f_star=0.45)
        )
        summary, records = run_experiment(config)
        infeasible = sum(r.feasible is False for r in records)
        assert summary.infeasible_rounds == infeasible
        assert 0 < infeasible < len(records)
        assert summary.saturated_recomputations == sum(
            r.interval != before.interval and r.train_loss <= 0.45
            for r, before in zip(records[1:], records)
        ) > 0
        table = format_summary_table({"run": summary}).splitlines()
        assert table[0].split()[-2:] == ["infeasible", "saturated"]
        assert table[2].split()[-2:] == [str(infeasible), str(summary.saturated_recomputations)]
        plain = run_experiment(reference_config(rounds=30))[0]
        assert (plain.infeasible_rounds, plain.saturated_recomputations) == (0, 0)

    def test_final_loss_is_fresh_evaluation(self):
        summary, records = run_experiment(small_quad(rounds=8))
        # final loss belongs to the post-update parameters, so it is not
        # simply the last record's round-start loss
        assert summary.final_loss <= records[0].train_loss

    def test_adaptive_levels_nondecreasing_on_quadratic(self):
        config = small_quad(
            quantization=AdaquantMode(s0=2, s_max=512),
            data=SyntheticData(kind="regression", samples=48, noise=0.0),
            rounds=30,
        )
        summary, _ = run_experiment(config)
        traj = summary.s_trajectory
        assert traj[0] == 2
        assert all(a <= b for a, b in zip(traj, traj[1:]))
        assert traj[-1] > 2


class TestBitsToThreshold:
    @staticmethod
    def fake_records(losses):
        rows = []
        bits = 0
        for k, loss in enumerate(losses):
            bits += 62
            rows.append(
                RoundRecord(
                    round_index=k,
                    s=3,
                    element_bits=2,
                    eta=0.05,
                    bits_this_round=62,
                    cumulative_bits=bits,
                    train_loss=loss,
                )
            )
        return rows

    def test_first_crossing(self):
        records = self.fake_records([1.0, 0.5, 0.1, 0.01])
        assert bits_to_threshold(records, 0.1) == 124

    def test_threshold_above_initial(self):
        records = self.fake_records([1.0, 0.5])
        assert bits_to_threshold(records, 2.0) == 0

    def test_run_starting_at_threshold_costs_nothing(self):
        _, records = run_experiment(reference_config(rounds=3))
        assert bits_to_threshold(records, records[0].train_loss) == 0
        assert bits_to_threshold(records, records[1].train_loss) == records[0].bits_this_round

    def test_never_crossed(self):
        records = self.fake_records([1.0, 0.5])
        assert bits_to_threshold(records, 0.0) is None

    def test_empty(self):
        assert bits_to_threshold([], 1.0) is None


class TestEmitCsv:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], str(path))
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_row_count_and_exact_reload(self, tmp_path):
        _, records = run_experiment(small_quad(rounds=6))
        path = tmp_path / "rows.csv"
        emit_csv(records, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        for row, record in zip(rows, records):
            assert int(row["cumulative_bits"]) == record.cumulative_bits
            assert float(row["train_loss"]) == record.train_loss
            assert int(row["s"]) == record.s
            assert row["eval_metric"] == ""
            assert row["feasibility"] == ""


class TestGridSearch:
    def test_single_candidate(self):
        best, summaries = grid_search_s0(small_quad(rounds=4), [3])
        assert best == 3 and set(summaries) == {3}

    def test_duplicates_collapse(self):
        best, summaries = grid_search_s0(small_quad(rounds=4), [2, 2, 2])
        assert best == 2 and set(summaries) == {2}

    def test_deterministic(self):
        a = grid_search_s0(small_quad(rounds=6), [1, 2, 4])
        b = grid_search_s0(small_quad(rounds=6), [1, 2, 4])
        assert a[0] == b[0] and a[1] == b[1]

    def test_best_matches_documented_ranking(self):
        config = small_quad(rounds=20, loss_threshold=None)
        probe, _ = run_experiment(config)
        config = replace(config, loss_threshold=probe.final_loss * 4)
        best, summaries = grid_search_s0(config, [1, 2, 4])
        def key(c):
            s = summaries[c]
            crossed = s.bits_to_threshold if s.bits_to_threshold is not None else float("inf")
            return (crossed, s.final_loss, c)
        assert best == min(summaries, key=key)

    def test_empty_candidates(self):
        with pytest.raises(ValueError):
            grid_search_s0(small_quad(), [])

    def test_nonpositive_candidate(self):
        with pytest.raises(ValueError):
            grid_search_s0(small_quad(), [0, 2])


class TestSweep:
    def test_writes_all_legs(self, tmp_path):
        results = sweep(small_quad(rounds=3), str(tmp_path))
        names = {"fixed_b2", "fixed_b4", "fixed_b8", "fixed_b16", "adaquant"}
        assert set(results) == names
        assert {p.name for p in tmp_path.iterdir()} == {f"{n}.csv" for n in names}

    def test_legs_share_initial_loss(self, tmp_path):
        sweep(small_quad(rounds=2), str(tmp_path))
        first_losses = set()
        for name in ("fixed_b2", "fixed_b16", "adaquant"):
            with open(tmp_path / f"{name}.csv", newline="") as fh:
                first_losses.add(next(csv.DictReader(fh))["train_loss"])
        assert len(first_losses) == 1

    def test_pinned_adaptive_mode_equals_fixed_baseline(self):
        """With s0 = s_max = 2^b - 1 the adaptive schedule can never move,
        so its records match the fixed-width run on everything except the
        interval column."""
        base = small_quad(rounds=10)
        _, fixed_records = run_experiment(replace(base, quantization=FixedMode(bits=4)))
        pinned = AdaquantMode(s0=15, s_max=15)
        _, ada_records = run_experiment(replace(base, quantization=pinned))
        assert len(fixed_records) == len(ada_records)
        for f, a in zip(fixed_records, ada_records):
            assert f.interval is None and a.interval is not None
            assert replace(f, interval=None, feasible=None) == replace(
                a, interval=None, feasible=None
            )


class TestSummaryEvalMetric:
    def test_classifier_reports_accuracy(self):
        config = small_quad(
            model=ModelSpec("logistic", 3),
            data=SyntheticData(
                kind="classification", samples=60, eval_samples=20
            ),
            rounds=4,
        )
        summary, _ = run_experiment(config)
        assert 0.0 <= summary.final_eval_metric <= 1.0

    def test_regression_has_none(self):
        summary, _ = run_experiment(small_quad(rounds=2))
        assert summary.final_eval_metric is None
