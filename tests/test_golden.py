"""Golden outputs: pinned CSV digests that guard bit identity across changes.

Each test runs a fixed config at seed 0, writes the standard per-round CSV
with ``harness.emit_csv`` and compares its sha256 with a pinned value.
The values were pinned when the run's streams became one NumPy generator
per (role, client), read in round order, with minibatches from a partial
Fisher-Yates shuffle of ``b`` doubles each, after the old and new streams
were compared over 20 seeds of the five ``sweep`` legs (CHANGES.md).
Since then every stream, summation order and CSV byte has been held.  Any
change to an RNG stream, a summation order or the CSV format moves these
digests; such a change must be declared, not absorbed by re-pinning.
"""

from __future__ import annotations

import hashlib

from fedquant.config import AdaquantMode, SyntheticData, TrainingConfig
from fedquant.controller import LrSchedule
from fedquant.fedsim import run_training
from fedquant.harness import emit_csv, reference_config
from fedquant.objectives import ModelSpec


def csv_sha256(config: TrainingConfig, tmp_path) -> str:
    path = tmp_path / "run.csv"
    emit_csv(run_training(config).records, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tiny_mlp_config() -> TrainingConfig:
    # 50 rows over 4 clients gives shards of 13, 13, 12 and 12 rows, so at
    # batch 13 the first two clients step full-batch and the others sample.
    return TrainingConfig(
        model=ModelSpec.mlp(5, 8, 3),
        data=SyntheticData(
            kind="classification", samples=50, n_features=5, noise=0.1, n_classes=3,
            eval_samples=20,
        ),
        n_clients=4,
        local_steps=3,
        batch_size=13,
        lr=LrSchedule.constant(0.1),
        quantization=AdaquantMode(s0=4, s_max=256, f_star=0.2),
        rounds=25,
        master_seed=0,
        eval_every=5,
        loss_estimate="minibatch",
    )


def test_reference_adaquant_csv_is_pinned(tmp_path):
    digest = csv_sha256(reference_config(rounds=60), tmp_path)
    assert digest == "ee89941b90ffc0caa7f08e19f826407a256e89dd66cbe7c6804e6a43a80d2f7b"


def test_tiny_mlp_minibatch_csv_is_pinned(tmp_path):
    digest = csv_sha256(tiny_mlp_config(), tmp_path)
    assert digest == "caeb4a7e2a6e5eb9e6b45634a6d7437f940ca3e0b5d0af5cce69fcd2c78a4bf3"
