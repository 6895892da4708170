"""Offline benchmark for adgame: one workload per invocation.

    python3 perfbench/run.py --workload exact-baselines --seed 0 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
run sets the workload up several times (the median is ``setup_s``), then
repeats the workload's operation until ``--seconds`` have passed and at
least the workload's minimum number of operations ran.  Every operation's
output is checked; a failed check or an exception counts as a failed
operation.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced operations with operations on a second, traced set-up, where every
layer function is wrapped by the tracer, and reports the per-layer metrics
and the tracing overhead.  See ``perfbench/README.md`` for the metric map.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results, the
environment block and (traced) spans also go to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def _import_adgame():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import adgame  # noqa: F401  (registers the adgame.* modules)

    where = os.path.dirname(os.path.abspath(adgame.__file__))
    if os.path.dirname(where) != src:
        raise ImportError(f"adgame was imported from {where}, not from {src}")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny instances, for the benchmark's own self-test",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    try:
        _import_adgame()
    except ImportError as exc:
        print(f"perfbench: cannot import adgame from the checkout: {exc}", file=sys.stderr)
        return 2
    # imported only once adgame is importable: they bind its modules
    from environment import environment
    from measure import run_traced, run_untraced
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    spec = _spec()
    env = environment()
    print(json.dumps({"environment": env}, sort_keys=True))
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work_dir = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    try:
        if args.trace:
            outcome = run_traced(workload, args.seconds, work_dir)
            names = spec["per_layer"]
            tracer = outcome.pop("tracer")
            tracer.write_spans(os.path.join(OUT_DIR, f"{tag}-spans.jsonl"))
        else:
            outcome = run_untraced(workload, args.seconds, work_dir)
            names = spec["end_to_end"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    values = outcome["metrics"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    for note in outcome["notes"]:
        print(note)
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": env, "result": result,
            "detail": outcome["detail"],
        }, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
