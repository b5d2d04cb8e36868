"""Correction for host speed drift.

On a shared host the same round can take 6 ms or 11 ms, depending on load
the process cannot see.  The slow and fast phases alternate within a run,
often from one round to the next, as well as between runs.  The benchmark
therefore times a fixed canary computation, owned by the benchmark and
never by fedquant, right after every operation, and scales the operation's
time by ``ref_ms / canary_ms``.  The scaled figure reads as the time the
operation would take on a host where the canary takes ``ref_ms``.  A
change to fedquant moves the operation time and leaves the canary alone,
so it shows in the ratio.

Host load slows interpreter-bound code, small NumPy calls, long vector
passes and dense arithmetic by different factors, so each workload's
canary is built from kernels shaped like its own operations:

* ``local``: one client's local round on the reference task (ten steps of
  minibatch logistic SGD through a validated, frozen row container),
  written here so that it never changes with fedquant;
* ``matmul``: a 32 x 256 by 256 x 384 matrix product;
* ``quantize``: stochastic rounding of a 50k-element vector onto 255
  levels, with its bit planes packed and unpacked;
* ``mlp``: one gradient of a 256-384-10 MLP at batch 32.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# Kernel times in ms on an unloaded 2-vCPU x86-64 host (Python 3.11,
# NumPy 2.4, OpenBLAS on one thread).  Fixed constants, so corrected
# figures compare across runs and commits.
REF_MS = {"local": 0.75, "matmul": 0.35, "quantize": 2.0, "mlp": 0.7}


@dataclass(frozen=True, eq=False)
class _Rows:
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float64).copy()
        labels = np.asarray(self.labels).copy()
        if features.ndim != 2 or labels.shape != (features.shape[0],):
            raise ValueError("rows and labels disagree")
        if not (np.all(np.isfinite(features)) and np.all(np.isfinite(labels.astype(np.float64)))):
            raise ValueError("non-finite rows")
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)


class Canary:
    def __init__(self, kernels: tuple[str, ...]) -> None:
        rng = np.random.default_rng(20210208)
        self._rows = _Rows(rng.standard_normal((250, 20)), (rng.random(250) < 0.5).astype(np.int64))
        self._a = rng.standard_normal((32, 256))
        self._w1 = rng.standard_normal((256, 384)) * 0.06
        self._w2 = rng.standard_normal((384, 10)) * 0.07
        self._classes = rng.integers(0, 10, size=32)
        self._vec = rng.standard_normal(50_000)
        self._kernels = [getattr(self, "_" + k) for k in kernels]
        self.ref_ms = sum(REF_MS[k] for k in kernels)
        self.sink = 0.0

    def _local(self) -> float:
        rng = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(3, 1, 7)))
        w = np.zeros(21)
        for _ in range(10):
            idx = rng.choice(250, size=32, replace=False)
            batch = _Rows(self._rows.features[idx], self._rows.labels[idx])
            if not np.all((batch.labels == 0) | (batch.labels == 1)):
                raise ValueError("labels must be 0 or 1")
            z = batch.features @ w[:-1] + w[-1]
            p = np.empty_like(z)
            pos = z >= 0
            p[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            p[~pos] = ez / (1.0 + ez)
            resid = p - batch.labels.astype(np.float64)
            g = np.empty(21)
            g[:-1] = (batch.features.T @ resid) / 32
            g[-1] = resid.mean()
            w -= 0.05 * g
            if not np.all(np.isfinite(w)) or float(np.max(np.abs(w))) > 1e18:
                raise ValueError("diverged")
        return float(w.sum())

    def _matmul(self) -> float:
        return float((self._a @ self._w1).sum())

    def _quantize(self) -> float:
        rng = np.random.default_rng(5)
        scaled = np.abs(self._vec) * 255 / float(np.linalg.norm(self._vec))
        lower = np.floor(scaled)
        levels = (lower + (rng.random(scaled.size) < scaled - lower)).astype(np.int64)
        bits = ((levels[:, None] >> np.arange(8)) & 1).astype(np.uint8)
        packed = np.packbits(bits.ravel(), bitorder="little")
        unpacked = np.unpackbits(packed, bitorder="little")
        return float(levels.sum()) + float(np.count_nonzero(unpacked))

    def _mlp(self) -> float:
        pre = self._a @ self._w1
        hidden = np.maximum(pre, 0.0)
        logits = hidden @ self._w2
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(32), self._classes] -= 1.0
        back = (p @ self._w2.T) * (pre > 0.0)
        return float((self._a.T @ back).sum() + (hidden.T @ p).sum())

    def time_ms(self) -> float:
        t0 = time.perf_counter()
        for kernel in self._kernels:
            self.sink += kernel()
        return (time.perf_counter() - t0) * 1e3

    def median_ms(self, repeats: int) -> float:
        return float(np.median([self.time_ms() for _ in range(repeats)]))

    def correct(self, op_ms, canary_ms) -> np.ndarray:
        """Each operation's time at the reference canary speed, using the
        canary timed right after it."""
        return np.asarray(op_ms) * (self.ref_ms / np.asarray(canary_ms))
