"""Command line front end.

Every subcommand but `report` accepts `--config FILE`, repeated `--set
key=value` overrides, `--seed N` and `--out DIR` (replacing the output
directory).  A config file sets each key at most once; a `--set` wins
over the file and over an earlier `--set`.  A subcommand plays the
config's first seed, or `N` when `--seed` is given; `simulate` plays
`mc_runs` runs under a run's Monte Carlo seed
(`pipeline.simulation_seed`), writing `simulation.csv` and, beside it,
its wall times in `timings.json`; it refuses an `--out` that holds a
run's `record.json`, whose files are that run's own.  `report` reads no
config: it takes the run directories and an optional `--out DIR` for
`report.csv`.
Success exits 0; any failure prints a single JSON line `{"error": ...,
"message": ...}` on stderr and exits nonzero (2 for command line or
config mistakes, 1 for everything else).  A file that cannot be read or
is not UTF-8 fails with its reader's error, which names the file:
`ConfigError` for a config file, `GraphFormatError` for a graph file,
`CheckpointFormatError` for a checkpoint and `PipelineError` for a run
record.  Warnings raised before a failure go into that line as a
`"warnings"` list of their messages.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings
from dataclasses import replace

from . import pipeline
from .config import ConfigError, ExperimentConfig, load_config
from .defense import ExactFitness, format_plan
from .graph import save_graph
from .simulate import DpPolicy, simulate, simulate_on_original
from .valuenet import BackupTable, NetGreedyPolicy, load_checkpoint


class CommandLineError(Exception):
    """The command line itself is malformed."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise CommandLineError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file of key = value lines")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override one config field; repeatable",
    )
    parser.add_argument("--seed", type=int, help="use this single seed")
    parser.add_argument("--out", help="output directory; overrides the config")


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config, args.set)
    if args.seed is not None:
        config = replace(config, seeds=(args.seed,))
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    return config


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _parse_plan(text: str | None, n_bits: int) -> tuple[int, ...]:
    if text is None:
        return (0,) * n_bits
    if set(text) - {"0", "1"}:
        raise CommandLineError(f"plan must be a string of 0s and 1s, got {text!r}")
    if len(text) != n_bits:
        raise CommandLineError(
            f"plan has {len(text)} bits but the instance has {n_bits} "
            "block-worthy edges"
        )
    return tuple(int(c) for c in text)


def _cmd_generate(args: argparse.Namespace) -> None:
    config = _config_from(args)
    seed = config.seeds[0]
    g = pipeline.build_source_graph(config, seed)
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "graph.txt")
    save_graph(g, path)
    _emit(
        {
            "graph": path,
            "nodes": len(g.nodes),
            "edges": len(g.edges),
            "entry_nodes": len(g.entry_nodes),
            "seed": seed,
        }
    )


def _cmd_kernelize(args: argparse.Namespace) -> None:
    config = _config_from(args)
    info = pipeline.write_kernel_artifacts(config, config.seeds[0], config.out_dir)
    _emit(info)


def _cmd_solve_exact(args: argparse.Namespace) -> None:
    config = _config_from(args)
    inst = pipeline.prepare_instance(config, config.seeds[0])
    plan = _parse_plan(args.plan, len(inst.cg.bw_edges))
    value = ExactFitness(inst.cg, memo_limit=config.memo_limit)(plan)
    _emit(
        {
            "instance_key": inst.instance_key,
            "plan": format_plan(plan),
            "value": value,
            "nsps": inst.cg.n_nsps,
        }
    )


def _cmd_defend(args: argparse.Namespace) -> None:
    config = _config_from(args)
    seed = config.seeds[0]
    record = pipeline.run_baseline(config, args.strategy, seed)
    _emit(
        {
            "run_dir": pipeline.run_dir_for(config, record.strategy, seed),
            "strategy": record.strategy,
            "seed": seed,
            "best_plan": format_plan(record.best_plan),
            "best_fitness": record.best_fitness,
            "exact_value": record.exact_value,
            "success_rate": record.simulation["success_rate"],
        }
    )


def _cmd_simulate(args: argparse.Namespace) -> None:
    started = time.perf_counter()
    config = _config_from(args)
    # a run's own timings.json holds its phases, which report reads
    if os.path.exists(os.path.join(config.out_dir, "record.json")):
        raise CommandLineError(
            f"{config.out_dir} holds a run's record.json; simulate into another "
            "directory"
        )
    seed = config.seeds[0]
    inst = pipeline.prepare_instance(config, seed)
    plan = _parse_plan(args.plan, len(inst.cg.bw_edges))
    if args.checkpoint:
        net, _ = load_checkpoint(args.checkpoint, inst.cg.n_nsps)
        policy = NetGreedyPolicy(BackupTable(inst.cg, net))
        evaluator = "net-greedy"
    else:
        policy = DpPolicy(inst.cg, memo_limit=config.memo_limit)
        evaluator = "exact-dp"
    runner = simulate_on_original if args.original else simulate
    simulating = time.perf_counter()
    report = runner(
        inst.cg, plan, policy, config.mc_runs, seed=pipeline.simulation_seed(seed)
    )
    done = time.perf_counter()
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "simulation.csv")
    pipeline.write_simulation_csv(path, report, plan, evaluator)
    timings = {"simulate_s": done - simulating, "total_s": done - started}
    pipeline.write_json(os.path.join(config.out_dir, "timings.json"), timings)
    _emit(
        {
            "csv": path,
            "runs": report.runs,
            "success_rate": report.success_rate,
            "std_error": report.std_error,
        }
    )


def _cmd_report(args: argparse.Namespace) -> None:
    table = pipeline.report(args.run_dirs)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "report.csv")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(table)
    sys.stdout.write(table)


def build_parser() -> _Parser:
    parser = _Parser(prog="adgame", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", help="write a playable synthetic graph")
    _add_common(p)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("kernelize", help="prune and condense an instance")
    _add_common(p)
    p.set_defaults(handler=_cmd_kernelize)

    p = sub.add_parser("solve-exact", help="exact attack value of a plan")
    _add_common(p)
    p.add_argument("--plan", help="bit string over block-worthy edges")
    p.set_defaults(handler=_cmd_solve_exact)

    p = sub.add_parser("defend", help="search for a blocking plan")
    p.add_argument(
        "strategy", choices=pipeline.STRATEGIES,
        help="defender search strategy",
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_defend)

    p = sub.add_parser("simulate", help="Monte Carlo evaluation of a plan")
    _add_common(p)
    p.add_argument("--plan", help="bit string over block-worthy edges")
    p.add_argument(
        "--checkpoint", help="value net checkpoint to drive the attacker"
    )
    p.add_argument(
        "--original", action="store_true",
        help="walk the raw graph edges instead of the condensed game",
    )
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("report", help="tabulate persisted runs")
    p.add_argument("--out", help="directory to write report.csv into")
    p.add_argument("run_dirs", nargs="+", help="run directories to compare")
    p.set_defaults(handler=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    # recorded under the filters in force, so ``-W error`` still raises
    with warnings.catch_warnings(record=True) as caught:
        try:
            args = build_parser().parse_args(argv)
            args.handler(args)
        except Exception as exc:
            error = {"error": type(exc).__name__, "message": str(exc)}
            if caught:
                error["warnings"] = [str(w.message) for w in caught]
            print(json.dumps(error), file=sys.stderr)
            return 2 if isinstance(exc, (CommandLineError, ConfigError)) else 1
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return 0


if __name__ == "__main__":
    sys.exit(main())
