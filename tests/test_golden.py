"""Golden outputs: pinned CSV digests that guard bit identity across changes.

Each test runs a fixed config at seed 0, writes the standard per-round CSV
with ``harness.emit_csv`` and compares its sha256 with a value pinned from
the commit before local SGD stepped all clients of a round together (the
per-client, per-step loop).  Any change to an RNG stream, a summation
order or the CSV format moves these digests; such a change must be
declared, not absorbed by re-pinning.
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
    assert digest == "18d9cdd86149c334902e93a5ebc588bd2b283bdd4f4a1dbaefc23736b258a5bc"


def test_tiny_mlp_minibatch_csv_is_pinned(tmp_path):
    digest = csv_sha256(tiny_mlp_config(), tmp_path)
    assert digest == "b7406665f749b6306c56aaa070a0b0f03e153c6822cc41b05b30127d52b4e4a3"
