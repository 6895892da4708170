"""Experiment orchestration: from a config to persisted, comparable runs.

One run = prepare an instance (generate or load a graph, draw probabilities,
blockable flags and entry nodes, prune, condense), execute a defender
strategy, evaluate its best plan, and persist everything needed to re-verify
the numbers: the instance graph, the final population, the value-net
checkpoint, the simulation row, and a JSON record.

Every artifact is bit-reproducible for a given config and seed but the wall
times in ``timings.json`` and ``simulation.csv``'s ``wall_time_s``.
``timings.json`` holds ``total_s`` and one ``<phase>_s`` per phase of the
run; the phases are disjoint, so they sum to at most ``total_s``.  Every run
also writes ``counters.json``.  Search-and-train runs record the work their
backup table did or saved, the rollouts and batch updates of their training
rounds, and the keys their exact attempt stored: none exactly when
``mdp.key_floor_log2`` skipped it.  Greedy and exhaustive runs record the
keys and edge walks of their exact solver.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, is_dataclass, replace
from types import UnionType
from typing import (
    Sequence, TypedDict, get_args, get_origin, get_type_hints, is_typeddict,
)

import numpy as np

from .config import ConfigError, ExperimentConfig
from .defense import (
    ExactFitness,
    Member,
    NetFitness,
    Population,
    best_member,
    edo_run,
    exhaustive_run,
    format_plan,
    greedy_run,
    save_population,
    vec_run,
)
from .graph import (
    AttackGraph,
    assign_blockable,
    graph_to_text,
    load_graph,
    prune,
    sample_edge_probabilities,
    save_graph,
    select_entry_nodes,
)
from .generator import generate_synthetic
from .kernel import CondensedGraph, condense, kernel_report
from .mdp import StateSpaceLimitError
from .simulate import Policy, SimulationReport, simulate
from .valuenet import (
    Adam,
    BackupTable,
    NetGreedyPolicy,
    ValueNet,
    save_checkpoint,
    train_round,
)

# independent random streams per purpose, derived from the instance seed
_S_GENERATE, _S_PROBS, _S_BLOCKABLE, _S_ENTRIES = 0, 1, 2, 3
_S_NET, _S_SEARCH, _S_TRAIN, _S_SIM = 4, 5, 6, 7

# the search-and-train strategies: defend name -> record name
_SEARCH_AND_TRAIN = {"edo": "nndp-edo", "vec": "nndp-vec"}

# the strategies of ``adgame defend``; run_baseline maps each to its runner
STRATEGIES = (*_SEARCH_AND_TRAIN, "greedy", "exhaustive")


class PipelineError(Exception):
    """The requested run cannot be assembled from the given config."""


class ReportCompatibilityError(Exception):
    """Records under comparison come from incompatible experiment setups."""


@contextmanager
def _phase(phases: dict[str, float], name: str):
    """Add the wall time of the ``with`` block to ``phases[name]``."""
    t = time.perf_counter()
    yield
    phases[name] = phases.get(name, 0.0) + time.perf_counter() - t


def _child_seed(seed: int, stream: int) -> int:
    ss = np.random.SeedSequence((seed, stream, 0))
    return int(ss.generate_state(1, np.uint32)[0])


def simulation_seed(seed: int) -> int:
    """The Monte Carlo seed of a run with instance seed ``seed``; ``adgame
    simulate`` uses it too, so it replays a run's simulation."""
    return _child_seed(seed, _S_SIM)


def _rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream, index)))


@dataclass(frozen=True)
class PreparedInstance:
    cg: CondensedGraph  # ``cg.graph`` is the pruned graph
    dropped_entries: tuple[str, ...]
    instance_key: str


def build_source_graph(config: ExperimentConfig, seed: int) -> AttackGraph:
    """The playable graph before final pruning: probabilities, blockable
    flags and entry nodes all assigned.

    When the config names a graph file, that file is authoritative and must
    already carry entry nodes.
    """
    if config.graph_file:
        g = load_graph(config.graph_file)
        if not g.entry_nodes:
            raise PipelineError(
                f"graph file {config.graph_file} has no entry nodes; "
                "produce one with the generate command first"
            )
        return g
    raw = generate_synthetic(config.n_computers, seed=_child_seed(seed, _S_GENERATE))
    base = prune(raw)
    base = sample_edge_probabilities(
        base, config.distribution, _child_seed(seed, _S_PROBS)
    )
    base = assign_blockable(base, _child_seed(seed, _S_BLOCKABLE))
    entries = select_entry_nodes(
        base, config.entry_pool_size, config.entry_count, _child_seed(seed, _S_ENTRIES)
    )
    return replace(base, entry_nodes=entries)


def prepare_instance(config: ExperimentConfig, seed: int) -> PreparedInstance:
    g = build_source_graph(config, seed)
    pruned = prune(g)
    dropped = tuple(sorted(g.entry_nodes - pruned.entry_nodes))
    key = hashlib.sha256(graph_to_text(pruned).encode("utf-8")).hexdigest()[:16]
    return PreparedInstance(condense(pruned), dropped, key)


class SimulationRow(TypedDict):
    """A record's ``simulation``, as ``_finish_run`` writes it."""

    plan_id: str
    evaluator: str
    runs: int
    successes: int
    success_rate: float
    std_error: float


def _from_json(value, kind, name: str):
    """``value``, parsed from JSON, as ``kind``: a dataclass or ``TypedDict``
    from an object holding all of its fields, ``tuple[X, ...]`` from an
    array, ``X | None`` from null or an ``X``, and any other type from a
    value of exactly that type, or an int for a float.  A float must be
    finite: JSON's ``NaN`` and ``Infinity``, and literals beyond the float
    range such as ``1e999`` or a 400-digit int, are refused."""
    if is_dataclass(kind) or is_typeddict(kind):
        if not isinstance(value, dict):
            raise TypeError(f"{name} is {value!r}, not an object")
        hints = get_type_hints(kind)
        missing = [key for key in hints if key not in value]
        if missing:
            raise KeyError(f"{name} lacks {', '.join(missing)}")
        return kind(**{k: _from_json(value[k], t, k) for k, t in hints.items()})
    if get_origin(kind) is tuple and isinstance(value, list):
        return tuple(_from_json(v, get_args(kind)[0], name) for v in value)
    if get_origin(kind) is UnionType:  # X | None
        return None if value is None else _from_json(value, get_args(kind)[0], name)
    if type(value) is kind or kind is float and type(value) is int:
        if kind is float and not abs(value) <= sys.float_info.max:
            raise ValueError(f"{name} is {value!r}, not a finite float")
        return value
    raise TypeError(f"{name} is {value!r}, not {kind.__name__}")


@dataclass(frozen=True)
class RunRecord:
    strategy: str
    seed: int
    config: ExperimentConfig
    instance_key: str
    dropped_entries: tuple[str, ...]
    n_nsps: int
    n_bw_edges: int
    round_best_fitness: tuple[float, ...]
    loss_curves: tuple[tuple[float, ...], ...]
    training_flag: bool
    best_plan: tuple[int, ...]
    best_fitness: float
    exact_value: float | None
    simulation: SimulationRow

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        return _from_json(json.loads(text), cls, "record")


def _exact_value_or_none(
    cg: CondensedGraph, plan: tuple[int, ...], memo_limit: int
) -> tuple[float | None, int, int]:
    """The plan's exact value, or None past ``memo_limit``; the keys the
    attempt stored: 0 when ``key_floor_log2`` refused the root, and
    ``memo_limit`` when the memo overflowed; and that root's floor, as the
    solver computed it."""
    ev = ExactFitness(cg, memo_limit=memo_limit)
    try:
        value = ev(plan)
    except StateSpaceLimitError:
        value = None
    return value, ev.policy.states_solved, ev.policy.root_floor_log2


def run_dir_for(config: ExperimentConfig, strategy: str, seed: int) -> str:
    return os.path.join(config.out_dir, f"{strategy}-seed{seed}")


def _plan_id(plan: Sequence[int]) -> str:
    return "plan-" + format_plan(plan)


def write_simulation_csv(
    path: str, report: SimulationReport, plan: Sequence[int], evaluator: str
) -> None:
    """Write ``simulation.csv``: the header and the row of one plan."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("plan_id,evaluator,runs,success_rate,std_error,wall_time_s\n")
        fh.write(
            f"{_plan_id(plan)},{evaluator},{report.runs},"
            f"{report.success_rate!r},{report.std_error!r},{report.wall_time:.3f}\n"
        )


def _persist(
    record: RunRecord,
    inst: PreparedInstance,
    pop: Population,
    report: SimulationReport,
    net: ValueNet | None,
    timings: dict,
    counters: dict,
) -> str:
    run_dir = run_dir_for(record.config, record.strategy, record.seed)
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "record.json"), "w", encoding="utf-8") as fh:
        fh.write(record.to_json() + "\n")
    save_graph(inst.cg.graph, os.path.join(run_dir, "graph.txt"))
    save_population(os.path.join(run_dir, "population.txt"), pop)
    write_simulation_csv(
        os.path.join(run_dir, "simulation.csv"),
        report, record.best_plan, record.simulation["evaluator"],
    )
    if net is not None:
        save_checkpoint(os.path.join(run_dir, "net.ckpt"), net, record.config.rounds)
    sidecars = {"timings.json": timings, "counters.json": counters}
    for name, data in sidecars.items():
        with open(os.path.join(run_dir, name), "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return run_dir


def _finish_run(
    config: ExperimentConfig, seed: int, inst: PreparedInstance, started: float,
    pop: Population, net: ValueNet | None, policy: Policy, evaluator: str,
    phases: dict, counters: dict, **outcome,
) -> RunRecord:
    """The end of every run: simulate the best plan, record and persist.

    ``outcome`` holds the record fields the strategy decides; the config
    and the instance supply the rest.  ``total_s`` runs from ``started``;
    ``phases`` gains ``simulate_s``.  ``counters`` is written as it stands
    after the simulation.
    """
    plan = outcome["best_plan"]
    with _phase(phases, "simulate_s"):
        report = simulate(
            inst.cg, plan, policy, config.mc_runs, seed=simulation_seed(seed)
        )
    record = RunRecord(
        seed=seed,
        config=config,
        instance_key=inst.instance_key,
        dropped_entries=inst.dropped_entries,
        n_nsps=inst.cg.n_nsps,
        n_bw_edges=len(inst.cg.bw_edges),
        simulation={
            "plan_id": _plan_id(plan),
            "evaluator": evaluator,
            "runs": report.runs,
            "successes": report.successes,
            "success_rate": report.success_rate,
            "std_error": report.std_error,
        },
        **outcome,
    )
    timings = {"total_s": time.perf_counter() - started, **phases}
    _persist(record, inst, pop, report, net, timings, counters)
    return record


def run_nndp_edo(
    config: ExperimentConfig,
    seed: int,
    strategy: str = "edo",
) -> RunRecord:
    """Alternate the ``edo`` or ``vec`` search with net training, then score
    the winner.

    Each round runs a fresh evolutionary search with the current net as the
    fitness function, then trains the net on rollouts from the resulting
    population; one extra training round follows the last search.  The best
    final plan is re-scored by Monte Carlo under the net's greedy policy,
    and exactly when the state space allows it.  Training and the final
    policy share one backup table, which is dropped when the run returns.
    Training that drives the net to nan ends the run with
    ``TrainingDivergedError``.
    """
    if strategy not in _SEARCH_AND_TRAIN:
        raise PipelineError(f"unknown search-and-train strategy {strategy!r}")
    started = time.perf_counter()
    phases = dict.fromkeys(
        ("prepare_s", "search_s", "train_s", "rescore_s", "exact_s"), 0.0
    )
    search = edo_run if strategy == "edo" else vec_run
    with _phase(phases, "prepare_s"):
        inst = prepare_instance(config, seed)
    cg = inst.cg
    net = ValueNet(
        cg.n_nsps, depth=config.depth, width=config.width,
        seed=_child_seed(seed, _S_NET),
    )
    optimizer = Adam(net, learning_rate=config.learning_rate)
    evaluator = NetFitness(net, cg)
    table = BackupTable(cg, net)
    round_best: list[float] = []
    curves: list[tuple[float, ...]] = []
    rollouts = 0
    if config.rounds == 0:
        with _phase(phases, "search_s"):
            pop = search(
                cg, evaluator, config.budget, config.mu, 0,
                rng=_rng(seed, _S_SEARCH, 0),
            )
    else:
        # one training round more than searches: the last one follows the
        # last search
        for r in range(config.rounds + 1):
            if r < config.rounds:
                with _phase(phases, "search_s"):
                    pop = search(
                        cg, evaluator, config.budget, config.mu, config.iterations,
                        rng=_rng(seed, _S_SEARCH, r),
                    )
                round_best.append(best_member(pop).fitness)
            with _phase(phases, "train_s"):
                stats = train_round(
                    net, cg, [m.bits for m in pop], config,
                    rng=_rng(seed, _S_TRAIN, r), optimizer=optimizer,
                    table=table,
                )
            curves.append(stats.epoch_losses)
            rollouts += stats.rollouts
    plateaued = bool(
        curves and curves[-1] and float(np.mean(curves[-1])) > 0.1
    )
    # the final training round sharpened the net after the last search, so
    # re-score the surviving plans before picking the winner
    with _phase(phases, "rescore_s"):
        best = best_member([replace(m, fitness=evaluator(m.bits)) for m in pop])
    with _phase(phases, "exact_s"):
        exact_value, keys, m = _exact_value_or_none(
            cg, best.bits, config.memo_limit
        )
    counters = {
        "backup_table": table.counts,
        "training": {"rollouts": rollouts, "batches": optimizer.t},
        "exact_attempt": {
            "key_floor_log2": m, "keys": keys, "skipped_by_bound": keys == 0,
        },
    }
    return _finish_run(
        config, seed, inst, started, pop, net, NetGreedyPolicy(table),
        "net-greedy", phases, counters,
        strategy=_SEARCH_AND_TRAIN[strategy],
        round_best_fitness=tuple(round_best),
        loss_curves=tuple(curves),
        training_flag=plateaued,
        best_plan=best.bits,
        best_fitness=best.fitness,
        exact_value=exact_value,
    )


def run_baseline(config: ExperimentConfig, strategy: str, seed: int) -> RunRecord:
    """Run the ``defend`` strategy of that name on one instance and persist it.

    This is the one map from a name in ``STRATEGIES`` to its runner.
    ``edo`` and ``vec`` run the alternating search-and-train loop with
    diversity and worst-drop survivor selection.  Greedy and exhaustive are
    exact-evaluator searches, so they need a solvable state space.
    """
    if strategy not in STRATEGIES:
        raise PipelineError(f"unknown strategy {strategy!r}")
    if strategy in _SEARCH_AND_TRAIN:
        return run_nndp_edo(config, seed, strategy)
    started = time.perf_counter()
    phases = dict.fromkeys(("prepare_s", "search_s"), 0.0)
    with _phase(phases, "prepare_s"):
        inst = prepare_instance(config, seed)
    with _phase(phases, "search_s"):
        ev = ExactFitness(inst.cg, memo_limit=config.memo_limit)
        if strategy == "greedy":
            plan = greedy_run(inst.cg, ev, config.budget)
        else:
            plan = exhaustive_run(
                inst.cg, ev, config.budget,
                enumeration_budget=config.enumeration_budget,
            )
        fitness = ev(plan)
    # the simulation plays from keys the search solved, so it adds none
    counters = {
        "exact_solver": {
            "keys": ev.policy.states_solved, "step_walks": ev.policy.step_walks,
        },
    }
    return _finish_run(
        config, seed, inst, started, [Member(plan, fitness, 0)], None,
        ev.policy, "exact-dp", phases, counters,
        strategy=strategy,
        round_best_fitness=(),
        loss_curves=(),
        training_flag=False,
        best_plan=plan,
        best_fitness=fitness,
        exact_value=fitness,
    )


def write_kernel_artifacts(config: ExperimentConfig, seed: int, out_dir: str) -> dict:
    """Prune and condense an instance, persisting the pruned graph and a
    human-readable kernel summary; returns the headline counts."""
    inst = prepare_instance(config, seed)
    g = inst.cg.graph
    os.makedirs(out_dir, exist_ok=True)
    save_graph(g, os.path.join(out_dir, "pruned.txt"))
    with open(os.path.join(out_dir, "kernel.txt"), "w", encoding="utf-8") as fh:
        fh.write(kernel_report(inst.cg))
    return {
        "instance_key": inst.instance_key,
        "nodes": len(g.nodes),
        "edges": len(g.edges),
        "nsps": inst.cg.n_nsps,
        "bw_edges": len(inst.cg.bw_edges),
        "dropped_entries": list(inst.dropped_entries),
    }


def _load_record(run_dir: str) -> RunRecord:
    path = os.path.join(run_dir, "record.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return RunRecord.from_json(fh.read())
    except OSError as exc:
        raise PipelineError(f"cannot read run record {path}: {exc}") from exc
    except (
        KeyError, TypeError, ValueError, ConfigError,
        RecursionError,  # brackets nested past the parser's depth
    ) as exc:
        raise PipelineError(f"malformed run record {path}: {exc}") from exc


def _wall_time(run_dir: str) -> float | None:
    try:
        with open(os.path.join(run_dir, "timings.json"), "r", encoding="utf-8") as fh:
            return _from_json(json.load(fh)["total_s"], float, "total_s")
    except (OSError, KeyError, TypeError, ValueError, RecursionError):
        return None


_COMPAT_KEYS = ("graph_file", "n_computers", "budget", "mc_runs")


def report(run_dirs: list[str]) -> str:
    """Comparison table across runs: strategy and distribution versus rate.

    Seeds average within each (strategy, distribution) cell, mirroring how
    multi-seed results are usually tabulated.  Records must come from the
    same experiment family; mixing graph sources or budgets is refused, and
    so is a cell holding the same seed twice.
    """
    if not run_dirs:
        raise PipelineError("no run directories given")
    records = [(d, _load_record(d)) for d in run_dirs]
    base = records[0][1].config
    for d, rec in records:
        for key in _COMPAT_KEYS:
            if getattr(rec.config, key) != getattr(base, key):
                raise ReportCompatibilityError(
                    f"run {d} disagrees on {key}: "
                    f"{getattr(rec.config, key)!r} vs {getattr(base, key)!r}"
                )
    cells: dict[tuple[str, str], dict[int, tuple[str, RunRecord]]] = {}
    for d, rec in records:
        cell_key = (rec.strategy, rec.config.distribution)
        cell = cells.setdefault(cell_key, {})
        if rec.seed in cell:
            raise ReportCompatibilityError(
                f"runs {cell[rec.seed][0]} and {d} both hold seed {rec.seed} "
                f"of {cell_key[0]} on {cell_key[1]}"
            )
        cell[rec.seed] = (d, rec)
    all_seeds = sorted({rec.seed for _, rec in records})
    head = ["strategy", "distribution", "seeds", "mean_success_rate", "mean_wall_s"]
    head += [f"seed{ix}_rate" for ix in all_seeds]
    lines = [",".join(head)]
    for (strategy, distribution) in sorted(cells):
        cell = cells[(strategy, distribution)]
        rows = [cell[ix] for ix in sorted(cell)]
        rates = {rec.seed: rec.simulation["success_rate"] for _, rec in rows}
        mean_rate = f"{np.mean(list(rates.values())):.6f}"
        walls = [w for w in (_wall_time(d) for d, _ in rows) if w is not None]
        mean_wall = f"{np.mean(walls):.3f}" if walls else ""
        row = [strategy, distribution, str(len(rows)), mean_rate, mean_wall]
        for ix in all_seeds:
            row.append(f"{rates[ix]:.6f}" if ix in rates else "")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
