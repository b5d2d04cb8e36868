"""Run one benchmark workload against the fedquant source tree beside it.

    python3 perfbench/run.py --workload {reference,wide,codec} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which
holds the end-to-end metrics with ``--trace 0`` and the per-layer metrics
with ``--trace 1``.  Earlier lines starting with ``#`` carry reference
figures: raw wall-clock times beside the drift-corrected ones, and the
sha256 of the quality runs' per-round records.  See perfbench/README.md.
"""

import os

# Before NumPy loads: one BLAS / OpenMP thread, and no transparent huge
# pages for large arrays, so peak RSS does not depend on whether the host
# has huge pages free.
for _var, _value in (
    ("OMP_NUM_THREADS", "1"),
    ("OPENBLAS_NUM_THREADS", "1"),
    ("MKL_NUM_THREADS", "1"),
    ("NUMPY_MADVISE_HUGEPAGE", "0"),
):
    os.environ[_var] = _value

import argparse
import gc
import importlib
import json
import resource
import sys
import time
import types

import numpy as np

import drift
import spans
from workloads import WORKLOADS

SETUPS = 9  # set-up repeats; setup_s is their median
CANARY_REPEATS = 5  # canary timings on each side of a set-up
MODULES = ("objectives", "quantizer", "wire", "fedsim", "harness")


def import_fedquant(src: str) -> types.SimpleNamespace:
    """Import fedquant afresh, so every set-up pays for its imports."""
    for name in [m for m in sys.modules if m == "fedquant" or m.startswith("fedquant.")]:
        del sys.modules[name]
    fq = types.SimpleNamespace(
        **{m: importlib.import_module("fedquant." + m) for m in MODULES}
    )
    if not os.path.abspath(fq.fedsim.__file__).startswith(src + os.sep):
        raise ImportError(f"fedquant was imported from {fq.fedsim.__file__}, not {src}")
    return fq


def set_up(workload, root, src, seed, canary, tracer):
    """Set up SETUPS times; return the last set-up and the corrected times."""
    seconds, layers = [], []
    for _ in range(SETUPS):
        # the same heap state before every set-up, and the canary timed on
        # both sides of it
        gc.collect()
        before = canary.median_ms(CANARY_REPEATS)
        lo = tracer.mark() if tracer else 0
        t0 = time.perf_counter()
        fq = import_fedquant(src)
        if tracer:
            tracer.install(fq)
            tracer.recording = True
        state = workload.setup(fq, root, seed)
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.recording = False
        scale = canary.ref_ms / ((before + canary.median_ms(CANARY_REPEATS)) / 2.0)
        seconds.append((elapsed, elapsed * scale))
        if tracer:
            totals = tracer.totals(lo, tracer.mark())
            layers.append({n: totals.get(n, (0, 0.0))[1] * scale for n in spans.SETUP})
    return fq, state, np.array(seconds), layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fedquant", "__init__.py")):
        print(f"perfbench: no fedquant source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)

    workload = WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    canary = drift.Canary(workload.canary)
    fq, state, setup_s, setup_layers = set_up(workload, root, src, args.seed, canary, tracer)
    workload.warmup(fq, state, canary)
    gc.collect()
    measured_from = tracer.mark() if tracer else 0
    result = workload.measure(fq, state, args.seconds, canary, tracer, out_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    op_raw = np.array(result.op_ms)
    canary_ms = np.array(result.canary_ms)
    op = canary.correct(op_raw, canary_ms)
    n = len(op)
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} ops={n} "
        f"raw: op_ms_p50={np.median(op_raw):.4f} op_ms_p90={np.percentile(op_raw, 90):.4f} "
        f"ops_per_s={n / op_raw.sum() * 1e3:.3f} setup_s={np.median(setup_s[:, 0]):.5f} "
        f"canary_ms_p50={np.median(canary_ms):.4f} | corrected: "
        f"op_ms_p50={np.median(op):.4f} ops_per_s={n / op.sum() * 1e3:.3f} "
        f"(canary ref {canary.ref_ms:.2f} ms)"
    )
    if result.digest is not None:
        print(f"# records_sha256 {result.digest}")
    for message in result.errors[:20]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (float(np.median(setup_s[:, 1])), "s"),
            "ops_per_s": (n / op.sum() * 1e3, "1/s"),
            "op_ms_p50": (float(np.median(op)), "ms"),
            "op_ms_p90": (float(np.percentile(op, 90)), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "final_loss": (result.quality["final_loss"], "loss"),
            "bits_to_target": (result.quality["bits_to_target"], "bits"),
            "payload_bytes": (result.quality["payload_bytes"], "bytes"),
        }
    else:
        tracer.write(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.npz"))
        totals = tracer.totals(measured_from, tracer.mark())
        scale = canary.ref_ms / float(np.median(canary_ms))
        metrics = {}
        for name in spans.PER_OP:
            calls, self_ms = totals.get(name, (0, 0.0))
            metrics[name + ".calls"] = (calls / n, "count")
            metrics[name + ".self_ms"] = (self_ms * scale / n, "ms")
        for name in spans.SETUP:
            metrics[name + ".ms"] = (float(np.median([s[name] for s in setup_layers])), "ms")
        metrics["quantizer.metered_bits"] = (float(np.mean(result.metered_bits)), "bits")
        metrics["wire.bytes"] = (float(result.wire_bytes), "bytes")
        metrics["controller.level_changes"] = (result.quality["level_changes"], "count")
    print(
        json.dumps(
            {
                "correct": not result.errors,
                "attempted": n,
                "failed": 0,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
