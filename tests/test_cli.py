"""CLI tests: subcommands, exit codes, file outputs."""

from __future__ import annotations

import csv

import pytest

from fedquant.cli import main

SMALL = """
[model]
kind = quadratic
features = 3

[data]
samples = 48
noise = 0.05

[federation]
clients = 3
local_steps = 2
batch_size = 8

[lr]
eta0 = 0.05

[quantization]
mode = fixed
bits = 4

[run]
rounds = 6
seed = 7
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL)
    return str(path)


class TestRun:
    def test_success_writes_csv(self, config_path, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert main(["run", "-c", config_path, "-o", str(out)]) == 0
        with open(out, newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 6
        assert "final_loss" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "-c", str(tmp_path / "absent.ini")]) == 1

    def test_invalid_config(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(SMALL + "\n[plotting]\nstyle = dark\n")
        assert main(["run", "-c", str(path)]) == 1

    def test_divergence_exit_code(self, tmp_path):
        path = tmp_path / "diverge.ini"
        path.write_text(SMALL.replace("eta0 = 0.05", "eta0 = 1e9"))
        assert main(["run", "-c", str(path)]) == 2

    @pytest.mark.parametrize("eta0", ["nan", "inf"])
    def test_non_finite_step_size_is_a_config_error(self, tmp_path, eta0):
        # not a divergence (exit 2): the config is refused before any round
        path = tmp_path / "nan.ini"
        path.write_text(SMALL.replace("eta0 = 0.05", f"eta0 = {eta0}"))
        assert main(["run", "-c", str(path)]) == 1

    def test_seed_override_changes_run(self, config_path, tmp_path):
        outs = []
        for name, seed in (("a.csv", "7"), ("b.csv", "8"), ("c.csv", "8")):
            out = tmp_path / name
            assert main(["run", "-c", config_path, "-o", str(out), "--seed", seed]) == 0
            outs.append(out.read_bytes())
        assert outs[0] != outs[1]
        assert outs[1] == outs[2]


class TestSweep:
    def test_writes_leg_files(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "legs"
        assert main(["sweep", "-c", config_path, "-o", str(out_dir)]) == 0
        names = {p.name for p in out_dir.iterdir()}
        assert names == {
            "fixed_b2.csv",
            "fixed_b4.csv",
            "fixed_b8.csv",
            "fixed_b16.csv",
            "adaquant.csv",
        }
        assert "adaquant" in capsys.readouterr().out


class TestGridS0:
    def test_reports_best(self, config_path, capsys):
        assert main(["grid-s0", "-c", config_path, "--candidates", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "best starting level:" in out
        assert "s0=1" in out and "s0=2" in out

    def test_bad_candidates(self, config_path):
        assert main(["grid-s0", "-c", config_path, "--candidates", "one,two"]) == 1
