"""In-memory span recorder that times calls into fedquant from outside.

Each traced function is replaced, at the module attribute its caller looks
up, by a wrapper that appends one span (name, parent span, start, end) to
flat arrays.  Nothing inside the package changes.  Spans are recorded only
while ``recording`` is true, so operations can be timed alone, and the
whole trace is written out once, when the benchmark ends.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# (span name, module that holds the looked-up name, attribute).  fedsim
# imports quantize, dequantize and interval_tick by name, so the training
# loop finds them in fedsim; the codec workload calls them through their
# own modules.  Every other name is looked up where it is defined.
TRACED = (
    ("objectives.sample_batch", "objectives", "sample_batch"),
    ("objectives.gradient", "objectives", "gradient"),
    ("objectives.loss", "objectives", "loss"),
    ("objectives.accuracy", "objectives", "accuracy"),
    ("objectives.generate_synthetic", "objectives", "generate_synthetic"),
    ("objectives.partition", "objectives", "partition"),
    ("fedsim.derive_rng", "fedsim", "derive_rng"),
    ("fedsim.local_round", "fedsim", "local_round"),
    ("fedsim.aggregate", "fedsim", "aggregate"),
    ("fedsim.run_round", "fedsim", "run_round"),
    ("fedsim.build_problem", "fedsim", "build_problem"),
    ("quantizer.quantize", "fedsim", "quantize"),
    ("quantizer.quantize", "quantizer", "quantize"),
    ("quantizer.dequantize", "fedsim", "dequantize"),
    ("quantizer.dequantize", "quantizer", "dequantize"),
    ("controller.interval_tick", "fedsim", "interval_tick"),
    ("wire.encode", "wire", "encode"),
    ("wire.decode", "wire", "decode"),
    ("harness.load_config", "harness", "load_config"),
)

# Functions reported per operation; the rest run during set-up.
PER_OP = (
    "objectives.sample_batch",
    "objectives.gradient",
    "objectives.loss",
    "objectives.accuracy",
    "fedsim.derive_rng",
    "fedsim.local_round",
    "fedsim.aggregate",
    "fedsim.run_round",
    "quantizer.quantize",
    "quantizer.dequantize",
    "controller.interval_tick",
    "wire.encode",
    "wire.decode",
)
SETUP = (
    "fedsim.build_problem",
    "objectives.generate_synthetic",
    "objectives.partition",
    "harness.load_config",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.recording = False

    def install(self, modules) -> None:
        """Wrap every traced name in freshly imported fedquant modules."""
        for name, module_name, attr in TRACED:
            module = getattr(modules, module_name)
            setattr(module, attr, self._wrap(name, getattr(module, attr)))

    def _wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def mark(self) -> int:
        return len(self.start)

    def truncate(self, mark: int) -> None:
        """Drop the spans recorded after ``mark``."""
        for values in (self.name_id, self.parent, self.start, self.end):
            del values[mark:]

    def totals(self, lo: int, hi: int) -> dict[str, tuple[int, float]]:
        """Per name: span count and self time in ms over spans [lo, hi).

        Self time is a span's duration minus the durations of the traced
        spans it directly caused.
        """
        ids = _copy(self.name_id, lo, hi)
        parent = _copy(self.parent, lo, hi)
        dur = _copy(self.end, lo, hi) - _copy(self.start, lo, hi)
        inside = parent >= lo
        child = np.bincount(parent[inside] - lo, weights=dur[inside], minlength=hi - lo)
        self_ms = (dur - child) * 1e3
        counts = np.bincount(ids, minlength=len(self.names))
        sums = np.bincount(ids, weights=self_ms, minlength=len(self.names))
        return {n: (int(counts[i]), float(sums[i])) for i, n in enumerate(self.names)}

    def write(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=_copy(self.name_id, 0, self.mark()),
            parent=_copy(self.parent, 0, self.mark()),
            start=_copy(self.start, 0, self.mark()),
            end=_copy(self.end, 0, self.mark()),
        )


def _copy(values: array, lo: int, hi: int) -> np.ndarray:
    # a copy, so no view keeps the array from growing
    return np.frombuffer(values, dtype=np.int32 if values.typecode == "i" else np.float64)[lo:hi].copy()
