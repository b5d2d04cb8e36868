"""Command-line front end.

Three subcommands: ``run`` executes one configured experiment, ``sweep``
compares the fixed 2/4/8/16-bit baselines against the adaptive schedule,
and ``grid-s0`` searches over starting levels.  Exit code 0 on success,
1 on a config problem (a size too large to allocate among them), 2 when
training diverges.  A run with infeasible step sizes or saturated level
recomputations still exits 0, with one warning line on standard error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import harness
from .fedsim import TrainingDiverged
from .harness import ConfigError


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-c", "--config", required=True, help="path to an INI config file")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedquant",
        description="Federated training with quantized uplinks: run, compare, tune.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment and print its summary")
    _add_common(run_p)
    run_p.add_argument("-o", "--output", default=None, help="CSV path (overrides config)")

    sweep_p = sub.add_parser(
        "sweep", help="fixed-level baselines (2/4/8/16 bits) plus the adaptive run"
    )
    _add_common(sweep_p)
    sweep_p.add_argument(
        "-o", "--out-dir", default=".", help="directory for per-leg CSV files"
    )

    grid_p = sub.add_parser("grid-s0", help="search over starting quantization levels")
    _add_common(grid_p)
    grid_p.add_argument(
        "--candidates",
        default="1,2,4,8",
        help="comma-separated starting levels (default 1,2,4,8)",
    )
    return parser


def _load(args: argparse.Namespace):
    config = harness.load_config(args.config)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    return config


def _parse_candidates(raw: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"candidates must be integers, got {raw!r}") from None
    return values


def _report(summaries: dict[str, harness.ExperimentSummary]) -> None:
    """Print the summary table, and one warning line on standard error
    naming the runs with infeasible rounds or saturated recomputations."""
    print(harness.format_summary_table(summaries))
    flagged = [
        f"{name} has {s.infeasible_rounds} infeasible rounds and "
        f"{s.saturated_recomputations} saturated recomputations"
        for name, s in summaries.items()
        if s.infeasible_rounds or s.saturated_recomputations
    ]
    if flagged:
        print(f"warning: {'; '.join(flagged)}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load(args)
        if args.command == "run":
            if args.output is not None:
                config = replace(config, output=args.output)
            summary, _ = harness.run_experiment(config)
            _report({"run": summary})
        elif args.command == "sweep":
            _report(harness.sweep(config, args.out_dir))
        else:
            best, summaries = harness.grid_search_s0(
                config, _parse_candidates(args.candidates)
            )
            _report({f"s0={s0}": summary for s0, summary in summaries.items()})
            print(f"best starting level: {best}")
    except (ConfigError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
