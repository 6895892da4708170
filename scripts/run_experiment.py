#!/usr/bin/env python3
"""Run the full defender comparison on synthetic graphs and print the table.

Strategies run per seed (each seed draws its own graph unless a graph file
pins the instance), then the persisted runs are tabulated side by side.
The defaults are sized for a workstation; pass --preset paper for the
full-size campaign (hours).
"""
import argparse
import sys
import time
from dataclasses import replace

from adgame.config import ConfigError, ExperimentConfig, load_config
from adgame.defense import DefenseConfigError
from adgame.mdp import StateSpaceLimitError
from adgame.pipeline import STRATEGIES, report, run_baseline, run_dir_for

DESK = ExperimentConfig(
    n_computers=40,
    entry_pool_size=8,
    entry_count=4,
    budget=2,
    mu=16,
    iterations=300,
    rounds=4,
    depth=2,
    width=32,
    epochs_per_round=60,
    mc_runs=20000,
    seeds=(0, 1, 2),
    out_dir="runs/desk",
)

PAPER = ExperimentConfig(seeds=tuple(range(10)), out_dir="runs/paper")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--preset", choices=("desk", "paper"), default="desk")
    ap.add_argument("--config", help="config file; overrides the preset")
    ap.add_argument(
        "--strategies", default=",".join(STRATEGIES),
        help="comma-separated subset to run",
    )
    ap.add_argument("--out", help="output directory")
    args = ap.parse_args(argv)
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        ap.error(
            f"unknown strategies {', '.join(unknown)}; "
            f"choose from {', '.join(STRATEGIES)}"
        )

    if args.config:
        try:
            config = load_config(args.config)
        except ConfigError as exc:
            ap.error(str(exc))
    else:
        config = DESK if args.preset == "desk" else PAPER
    if args.out:
        config = replace(config, out_dir=args.out)

    run_dirs = []
    for seed in config.seeds:
        for strategy in strategies:
            started = time.perf_counter()
            try:
                record = run_baseline(config, strategy, seed)
            except (StateSpaceLimitError, DefenseConfigError) as exc:
                # the exact baselines only exist where the DP fits and the
                # exhaustive search where its plans can be enumerated
                print(f"{strategy:<10} seed {seed}: skipped, {exc}", file=sys.stderr)
                continue
            run_dirs.append(run_dir_for(config, record.strategy, seed))
            print(
                f"{record.strategy:<10} seed {seed}: best {record.best_fitness:.4f}"
                f" exact {record.exact_value}"
                f" ({time.perf_counter() - started:.1f}s)",
                file=sys.stderr,
            )
    if not run_dirs:
        print("every run was skipped; nothing left to report", file=sys.stderr)
        return 1
    print(report(run_dirs), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
