"""The three workloads: set-up, warm-up and the measured loop.

``reference`` and ``wide`` train with ``fedsim.run_training``; one operation
is one communication round, timed from one round record to the next, so it
covers the round's loss estimate, level update, evaluation and
``run_round``.  The first round of each training run also builds the
problem, so it is run but neither timed nor counted.  ``codec`` runs the
uplink path alone; one operation is one quantize -> encode -> decode ->
dequantize pass over a fixed list of (d, s) cases.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
import time

import numpy as np

import checks

MIN_OPS = 100  # at least ten samples beyond the 90th percentile
MAX_RUNS = 256  # distinct master seeds for the measured phase's training runs


class _Stop(Exception):
    """Raised from the round hook to end the measured phase."""


@dataclasses.dataclass
class Measured:
    op_ms: list[float] = dataclasses.field(default_factory=list)
    canary_ms: list[float] = dataclasses.field(default_factory=list)
    errors: list[str] = dataclasses.field(default_factory=list)
    metered_bits: list[int] = dataclasses.field(default_factory=list)
    wire_bytes: int = 0
    quality: dict = dataclasses.field(default_factory=dict)
    digest: str | None = None


class Training:
    """A training workload.  The measured phase is a sequence of seeded
    training runs.  The first ``threshold_runs`` stop at the target loss
    (cheap samples for ``bits_to_target``); the next ``full_runs`` run to
    their round cap or budget and also give ``final_loss``.  These quality
    runs always complete, so the quality metrics depend on the seed and not
    on host speed.  Further full runs only add timed rounds.
    """

    def __init__(self, name, config, target_loss, threshold_runs, full_runs, warmup_rounds, canary):
        self.name = name
        self.config = config
        self.target_loss = target_loss
        self.threshold_runs = threshold_runs
        self.full_runs = full_runs
        self.warmup_rounds = warmup_rounds
        self.canary = canary

    def setup(self, fq, root: str, seed: int):
        config = fq.harness.load_config(os.path.join(root, self.config))
        # master seeds: the first for set-up and warm-up, then one per
        # training run of the measured phase
        seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(MAX_RUNS + 1)]
        config = dataclasses.replace(config, master_seed=seeds[0])
        # what a run does before its first round; run_training repeats it
        # for each training run, where it is not timed
        problem = fq.fedsim.build_problem(config)
        w0 = fq.objectives.init_params(
            problem.model, fq.fedsim.derive_rng(config.master_seed, fq.fedsim.ROLE_INIT)
        )
        return config, seeds, problem, w0

    def warmup(self, fq, state, canary) -> None:
        config = state[0]
        fq.fedsim.run_training(
            dataclasses.replace(config, rounds=self.warmup_rounds),
            on_record=lambda r: canary.time_ms(),
        )

    def _run_config(self, config, seeds, j):
        threshold = self.target_loss if j < self.threshold_runs else None
        seed = seeds[1 + j % MAX_RUNS]
        return dataclasses.replace(config, master_seed=seed, loss_threshold=threshold)

    def measure(self, fq, state, seconds: float, canary, tracer, out_dir: str) -> Measured:
        config, seeds, _, _ = state
        required = self.threshold_runs + self.full_runs
        result = Measured()
        deadline = time.perf_counter() + seconds
        clock = time.perf_counter
        to_target, finals, payload, changes, csvs = [], [], [], [], []
        j = 0
        while True:
            run_config = self._run_config(config, seeds, j)
            records = []
            resume, op_end = [None], [tracer.mark() if tracer is not None else 0]

            def hook(record):
                now = clock()
                if tracer is not None:
                    tracer.recording = False
                    op_end[0] = tracer.mark()
                if resume[0] is not None:
                    result.op_ms.append((now - resume[0]) * 1e3)
                    result.canary_ms.append(canary.time_ms())
                    result.metered_bits.append(record.bits_this_round)
                records.append(record)
                if j >= required and len(result.op_ms) >= MIN_OPS and clock() >= deadline:
                    raise _Stop
                if tracer is not None:
                    tracer.recording = True
                resume[0] = clock()

            try:
                run = fq.fedsim.run_training(run_config, on_record=hook)
            except _Stop:
                run = None
            finally:
                if tracer is not None:
                    # a run that stops on its budget starts one more round
                    # after the last record; that round is not timed
                    tracer.recording = False
                    tracer.truncate(op_end[0])
            result.errors += self._check_records(run_config, records)
            if run is None:
                break
            if j < required:
                # the rounds sent before the first one that starts at or
                # below the target; a run that never reaches it counts all
                before = list(
                    itertools.takewhile(lambda r: r.train_loss > self.target_loss, records)
                )
                to_target.append(before[-1].cumulative_bits if before else 0)
                payload += [r.bits_this_round / 8.0 for r in before]
            if self.threshold_runs <= j < required:
                finals.append(self._final_loss(fq, run_config, run, result.errors))
                changes.append(sum(a.s != b.s for a, b in zip(records, records[1:])))
                path = os.path.join(out_dir, f"{self.name}-seed{run_config.master_seed}.csv")
                fq.harness.emit_csv(records, path)
                with open(path, "rb") as fh:
                    csvs.append(fh.read())
            j += 1
        result.quality = {
            "final_loss": float(np.mean(finals)),
            "bits_to_target": float(np.mean(to_target)),
            "payload_bytes": float(np.mean(payload)),
            "level_changes": float(np.mean(changes)),
        }
        result.digest = hashlib.sha256(b"".join(csvs)).hexdigest()
        return result

    def _check_records(self, config, records) -> list[str]:
        quant = config.quantization
        errors = checks.round_bits(records, config.model.dim, config.bit_budget)
        errors += checks.adaquant_levels(
            records, quant.s0, quant.s_max, config.lr.eta0, quant.f_star, config.interval_bits
        )
        return errors

    def _final_loss(self, fq, config, run, errors) -> float:
        problem = run.problem
        model = problem.model
        program = fq.fedsim.global_loss(model, problem.shards, run.final_state.w)
        x = np.asarray(problem.train_data.features)
        y = np.asarray(problem.train_data.labels)
        shape = (model.n_features, model.hidden, model.n_classes)
        w0 = fq.objectives.init_params(
            model, fq.fedsim.derive_rng(config.master_seed, fq.fedsim.ROLE_INIT)
        )
        own = checks.full_loss(model.kind, shape, np.asarray(run.final_state.w), x, y)
        errors += checks.final_loss(program, own, checks.full_loss(model.kind, shape, w0, x, y))
        return program


# d from the paper's task (20) to the wide MLP (102,538); s from 1 to the
# 16-bit sweep level 65,535.  (20, 2) is the reference task's first level.
CODEC_CASES = (
    (20, 1),
    (20, 2),
    (20, 64),
    (1_000, 3),
    (1_000, 255),
    (10_000, 15),
    (10_000, 4_095),
    (102_538, 2),
    (102_538, 255),
    (102_538, 65_535),
)
DISTORTION_OPS = 50  # final_loss on codec averages the first passes only


class Codec:
    name = "codec"
    canary = ("quantize", "mlp")

    def setup(self, fq, root: str, seed: int):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        # Gaussian coordinates at a random scale, with a few exact zeros
        vectors = []
        for d, _ in CODEC_CASES:
            w = rng.standard_normal(d) * 10.0 ** rng.uniform(-4, 0)
            w[rng.integers(0, d, size=max(1, d // 50))] = 0.0
            vectors.append(w)
        metered = sum(fq.quantizer.bits_per_update(d, s).total_bits for d, s in CODEC_CASES)
        return vectors, metered, rng

    def _pass(self, fq, vectors, rng):
        out = []
        for (d, s), w in zip(CODEC_CASES, vectors):
            q = fq.quantizer.quantize(w, s, rng)
            blob = fq.wire.encode(q)
            q2 = fq.wire.decode(blob, d)
            out.append((q, blob, q2, fq.quantizer.dequantize(q2)))
        return out

    def warmup(self, fq, state, canary) -> None:
        for _ in range(3):
            self._pass(fq, state[0], state[2])
            canary.time_ms()

    def measure(self, fq, state, seconds: float, canary, tracer, out_dir: str) -> Measured:
        vectors, metered, rng = state
        result = Measured()
        distortion = []
        clock = time.perf_counter
        deadline = clock() + seconds
        while len(result.op_ms) < MIN_OPS or clock() < deadline:
            if tracer is not None:
                tracer.recording = True
            t0 = clock()
            out = self._pass(fq, vectors, rng)
            t1 = clock()
            if tracer is not None:
                tracer.recording = False
            result.op_ms.append((t1 - t0) * 1e3)
            result.canary_ms.append(canary.time_ms())
            result.metered_bits.append(metered)
            result.wire_bytes = sum(len(blob) for _, blob, _, _ in out)
            for (_, s), w, (q, blob, q2, v) in zip(CODEC_CASES, vectors, out):
                result.errors += checks.codec_case(w, s, q, blob, q2, v)
                if len(result.op_ms) <= DISTORTION_OPS:
                    distortion.append(float(np.sum((v - w) ** 2) / np.sum(w * w)))
        result.quality = {
            "final_loss": float(np.mean(distortion)),
            "bits_to_target": float(metered),
            "payload_bytes": float(result.wire_bytes),
            "level_changes": 0.0,
        }
        return result


WORKLOADS = {
    "reference": Training(
        "reference",
        config="configs/reference.ini",
        target_loss=0.5,
        threshold_runs=32,
        full_runs=2,
        warmup_rounds=100,
        canary=("local", "matmul"),
    ),
    "wide": Training(
        "wide",
        config="perfbench/wide.ini",
        target_loss=2.0,
        threshold_runs=0,
        full_runs=10,
        warmup_rounds=8,
        canary=("quantize", "mlp"),
    ),
    "codec": Codec(),
}
