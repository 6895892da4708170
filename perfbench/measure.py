"""Timing loops for one workload, untraced and traced, and the metrics."""
from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback

from tracer import LAYERS, Tracer

clock = time.perf_counter


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setups(workload, repeats: int, work_dir: str):
    """Set the workload up ``repeats`` times; returns the last context and times.

    Every set-up writes the same graph file, so operations of any set-up
    see the same config and write the same records.
    """
    times = []
    ctx = None
    for i in range(repeats):
        ctx = None  # let the previous context go before building the next
        t0 = clock()
        ctx = workload.setup(os.path.join(work_dir, "instance"))
        times.append(clock() - t0)
    return ctx, times


def _run_op(call, ctx, index: int, work_dir: str):
    """One operation; returns (seconds, result or None, failure text or None)."""
    t0 = clock()
    try:
        result = call(ctx, index, work_dir)
    except Exception as exc:  # a failed operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return clock() - t0, None, f"op{index} raised {type(exc).__name__}: {exc}"
    return clock() - t0, result, None


def _check(workload, ctx, result, index: int, error: str | None) -> list[str]:
    if error is not None:
        return [error]
    try:
        return [f"op{index}: {f}" for f in workload.check(ctx, result, index)]
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return [f"op{index} check raised {type(exc).__name__}: {exc}"]


def _op_dir_stats(op_dir: str) -> tuple[int, list[float]]:
    """Bytes the pipeline persisted, and each timings.json's phase coverage."""
    total = 0
    coverage = []
    for dirpath, _, files in os.walk(op_dir):
        for name in files:
            path = os.path.join(dirpath, name)
            total += os.path.getsize(path)
            if name == "timings.json":
                with open(path, encoding="utf-8") as fh:
                    timings = json.load(fh)
                phases = sum(v for k, v in timings.items() if k != "total_s")
                coverage.append(phases / timings["total_s"])
    return total, coverage


class Ops:
    """Operations run so far: times, results, failed checks, persisted runs."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.results: list = []
        self.failures: list[str] = []
        self.failed = 0
        self.persist_bytes: list[int] = []
        self.coverage: list[float] = []

    def keep_going(self, seconds: float, min_ops: int) -> bool:
        return len(self.times) < min_ops or sum(self.times) < seconds

    def run(self, workload, ctx, index: int, work_dir: str, tracer=None) -> None:
        """Run, then check, one operation; only the operation is traced."""
        if tracer is None:
            dt, result, error = _run_op(workload.operation, ctx, index, work_dir)
        else:
            tracer.install()
            try:
                dt, result, error = _run_op(
                    lambda *args: tracer.run(
                        "bench.op", "op", f"op{index}", workload.operation, *args
                    ),
                    ctx, index, work_dir,
                )
            finally:
                tracer.uninstall()
        fails = _check(workload, ctx, result, index, error)
        self.times.append(dt)
        self.results.append(result)
        if fails:
            self.failed += 1
            self.failures += fails
        # operations overwrite one run directory; read it before the next
        size, coverage = _op_dir_stats(os.path.join(work_dir, "runs"))
        self.persist_bytes.append(size)
        self.coverage += coverage


def run_untraced(workload, seconds: float, work_dir: str) -> dict:
    ctx, setup_times = _setups(workload, workload.setup_repeats, work_dir)
    ops = Ops()
    while ops.keep_going(seconds, workload.min_ops):
        ops.run(workload, ctx, len(ops.times), work_dir)
    metrics = {
        "wall_s": statistics.median(ops.times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return {
        "metrics": metrics,
        "attempted": len(ops.times),
        "failed": ops.failed,
        "notes": [f"failed check: {f}" for f in ops.failures],
        "detail": {
            "op_s": ops.times, "setup_s": setup_times,
            "failures": ops.failures, "fingerprint": ctx.fingerprint,
        },
    }


def run_traced(workload, seconds: float, work_dir: str) -> dict:
    """Untraced and traced operations, alternating, each kind on its own
    set-up (only the second is traced).  The untraced ones follow the
    untraced run's rule; as many traced ones run.

    The per-layer metrics come from the traced set-up and operations; the
    tracing overhead is the ratio of the two kinds' median times.
    Alternating keeps slow spells of the machine, and the first
    operation's warm-up, from landing on one side only.
    """
    ref_ctx, _ = _setups(workload, 1, work_dir)
    tracer = Tracer()
    tracer.install()
    try:
        ctx = tracer.run("bench.setup", "setup", "setup", workload.setup,
                         os.path.join(work_dir, "instance"))
    finally:
        tracer.uninstall()
    ref, traced = Ops(), Ops()
    while ref.keep_going(seconds, workload.min_ops):
        ref.run(workload, ref_ctx, 2 * len(ref.times), work_dir)
        traced.run(workload, ctx, 2 * len(traced.times) + 1, work_dir, tracer)

    metrics = layer_metrics(tracer, ctx)
    metrics.update(workload.untraced_rates(ref.results))
    metrics["pipeline.persist_bytes"] = statistics.median(traced.persist_bytes)
    metrics["pipeline.timings_coverage"] = (
        statistics.median(traced.coverage) if traced.coverage else 0.0
    )
    metrics["trace.overhead"] = statistics.median(traced.times) / statistics.median(ref.times)
    metrics["trace.wall_s"] = statistics.median(traced.times)
    metrics["trace.spans"] = sum(1 for s in tracer.spans if s is not None)
    metrics["trace.calls"] = sum(st.calls for st in tracer.stats.values())
    notes, ok = rationale(tracer, workload)
    metrics["trace.rationale_ok"] = 1 if ok else 0
    failures = ref.failures + traced.failures
    notes += [f"failed check: {f}" for f in failures]
    return {
        "metrics": metrics,
        "attempted": len(ref.times) + len(traced.times),
        "failed": ref.failed + traced.failed,
        "notes": notes,
        "tracer": tracer,
        "detail": {
            "untraced_op_s": ref.times, "traced_op_s": traced.times,
            "failures": failures, "fingerprint": ctx.fingerprint,
            "layer_self_s": {f"{k[0]}/{k[1]}": v for k, v in tracer.layer_self.items()},
        },
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, ctx) -> dict:
    st = tr.stat
    m = {}

    solver = st("mdp.ExactSolver.value_and_action")
    m["mdp.states_solved"] = solver.work
    m["mdp.solve_s"] = solver.layer_s
    m["mdp.states_per_s"] = _ratio(solver.work, solver.layer_s)
    for short, name in (
        ("transition", "mdp.transition"),
        ("admissible", "mdp.admissible_actions"),
        ("terminal", "mdp.terminal_value"),
    ):
        s = st(name)
        m[f"mdp.{short}.calls"] = s.calls
        m[f"mdp.{short}.us_per_call"] = _ratio(s.total_s, s.calls) * 1e6
    m["mdp.admissible_per_state"] = _ratio(
        st("mdp.admissible_actions").calls, solver.work
    )
    m["mdp.limit_errors"] = solver.errors

    fwd = st("valuenet.ValueNet.forward")
    policy = st("valuenet.NetGreedyPolicy.__call__")
    misses, _ = tr.edge("valuenet.NetGreedyPolicy.__call__", "valuenet.greedy_action")
    m["valuenet.forward.calls"] = fwd.calls
    m["valuenet.forward.rows"] = fwd.work
    m["valuenet.rows_per_forward"] = _ratio(fwd.work, fwd.calls)
    m["valuenet.forward.us_per_row"] = _ratio(fwd.total_s, fwd.work) * 1e6
    m["valuenet.backprop_s"] = st("valuenet.ValueNet.loss_and_grads").total_s
    m["valuenet.adam_s"] = st("valuenet.Adam.step").total_s
    m["valuenet.bellman_s"] = st("valuenet.bellman_targets").total_s
    m["valuenet.rollout.calls"] = st("valuenet.rollout").calls
    m["valuenet.rollout_s"] = st("valuenet.rollout").total_s
    m["valuenet.train_round_s"] = st("valuenet.train_round").total_s
    m["valuenet.policy.calls"] = policy.calls
    m["valuenet.policy.cache_hits"] = policy.calls - misses

    searches = [st(f"defense.{f}") for f in ("edo_run", "vec_run", "greedy_run", "exhaustive_run")]
    evolve = searches[:2]
    fitness = [
        st(f"defense.{c}.__call__")
        for c in ("ExactFitness", "NetFitness", "MonteCarloFitness")
    ]
    removal = st("defense.diversity_select_removal")
    m["defense.search_s"] = sum(s.total_s for s in searches)
    m["defense.ea_iterations_per_s"] = _ratio(
        sum(s.work for s in evolve), sum(s.total_s for s in evolve)
    )
    m["defense.fitness.calls"] = sum(s.calls for s in fitness)
    m["defense.fitness_s"] = sum(s.total_s for s in fitness)
    m["defense.removal.calls"] = removal.calls
    m["defense.removal_s"] = removal.total_s

    kernel, raw = st("simulate.simulate"), st("simulate.simulate_on_original")
    m["simulate.kernel.runs"] = kernel.work
    m["simulate.kernel_s"] = kernel.layer_s
    m["simulate.raw.runs"] = raw.work
    m["simulate.raw_s"] = raw.layer_s
    waits = [
        tr.edge(runner, pol)
        for runner in ("simulate.simulate", "simulate.simulate_on_original")
        for pol in ("simulate.DpPolicy.__call__", "valuenet.NetGreedyPolicy.__call__")
    ]
    m["simulate.policy.calls"] = sum(c for c, _ in waits)
    m["simulate.policy_s"] = sum(t for _, t in waits)

    runs = [st("pipeline.run_baseline"), st("pipeline.run_nndp_edo")]
    m["pipeline.prepare_s"] = st("pipeline.prepare_instance").total_s
    m["pipeline.exact_attempt_s"] = st("pipeline._exact_value_or_none").total_s
    m["pipeline.persist_s"] = st("pipeline._persist").total_s
    m["pipeline.unaccounted_s"] = sum(s.own_s for s in runs)

    m["generator.generate_s"] = st("generator.generate_synthetic").total_s
    m["graph.prune_s"] = st("graph.prune").total_s
    m["graph.sample_s"] = sum(
        st(f"graph.{f}").total_s
        for f in ("sample_edge_probabilities", "assign_blockable", "select_entry_nodes")
    )
    m["kernel.condense_s"] = st("kernel.condense").total_s
    fp = ctx.fingerprint
    m["kernel.nsps"] = fp["nsps"]
    m["kernel.bw_edges"] = fp["bw_edges"]

    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(tr.layer_time(layer))
    return m


def rationale(tr: Tracer, workload) -> tuple[list[str], bool]:
    """Compare the traced operations with the reason the workload exists."""
    op = {layer: tr.layer_time(layer, "op") for layer in LAYERS}
    setup = {layer: tr.layer_time(layer, "setup") for layer in LAYERS}
    total = sum(op.values()) or 1.0
    notes = ["layer self time (operations | set-up):"]
    for layer in LAYERS:
        notes.append(
            f"  {layer:10s} {op[layer]:10.4f} s {100 * op[layer] / total:5.1f}%"
            f" | {setup[layer]:10.4f} s"
        )
    net_calls = sum(
        s.calls for name, s in tr.stats.items() if name.startswith("valuenet.")
    )
    problems = []
    if workload.uses_valuenet != (net_calls > 0):
        problems.append(f"valuenet calls = {net_calls}, expected "
                        f"{'some' if workload.uses_valuenet else 'none'}")
    top = max(op, key=op.get)
    if workload.dominant_layer and top != workload.dominant_layer:
        problems.append(
            f"{top} self time dominates the operations, expected {workload.dominant_layer}"
        )
    if problems:
        notes += [f"rationale mismatch: {p}" for p in problems]
    else:
        notes.append("rationale: trace agrees with the workload's reason")
    return notes, not problems
