"""CLI tests: subcommands, exit codes, file outputs."""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import pytest

from fedquant.cli import main

ROOT = Path(__file__).resolve().parent.parent

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


class TestLoudMistakes:
    """``configs/reference.ini`` cut to 40 rounds, with one mistake each."""

    @staticmethod
    def reference(tmp_path, *edits):
        text = (ROOT / "configs" / "reference.ini").read_text()
        for old, new in (("rounds = 1600", "rounds = 40"), *edits):
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "mistake.ini"
        path.write_text(text)
        return str(path)

    def test_f_star_above_the_first_loss_is_refused(self, tmp_path, capsys):
        # the run used to hold s = 1 for all 40 rounds and exit 0
        path = self.reference(tmp_path, ("f_star = 0.40", "f_star = 1e26"))
        assert main(["run", "-c", path, "-o", str(tmp_path / "run.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: initial loss 0.693147")
        assert "at or below f_star 1e+26" in err

    def test_infeasible_step_size_warns_and_keeps_the_csv(self, tmp_path, capsys):
        # every round fails the feasibility check; the run still exits 0,
        # with one warning line, and its CSV bytes are what they were
        # before the warning existed
        path = self.reference(tmp_path, ("eval_every = 10", "eval_every = 10\nsmoothness = 1000"))
        out = tmp_path / "run.csv"
        assert main(["run", "-c", path, "-o", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: run has 40 infeasible rounds and 0 saturated recomputations\n"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "d0e25e9e738d7b08d40ac052b7175bc91d7916a0a0252af22c27458d1bede25f"
        )
        assert captured.out.splitlines()[0].split()[-2:] == ["infeasible", "saturated"]
        assert captured.out.splitlines()[2].split()[-2:] == ["40", "0"]

    def test_no_mistake_no_warning(self, tmp_path, capsys):
        assert main(["run", "-c", self.reference(tmp_path)]) == 0
        assert capsys.readouterr().err == ""


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
