"""The benchmark's three workloads: set-up, one operation, and its checks.

Each workload builds its instance the way ``adgame generate`` does: the
graph comes from a fixed generator seed and is saved to a graph file, and
the operations load that file.  A per-seed graph would change exact cost by
orders of magnitude and leave wall times incomparable.  The benchmark seed
drives the Monte Carlo streams, which change no workload's cost; the paper
round keeps one run seed (see ``PaperRound.RUN_SEED``).

Operations call the public API through module attributes, so the traced
run sees every call.
"""
from __future__ import annotations

import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from adgame.config import ExperimentConfig

# modules by name: ``adgame.simulate`` the attribute is the function
pipeline = sys.modules["adgame.pipeline"]
defense = sys.modules["adgame.defense"]
mdp = sys.modules["adgame.mdp"]
sim = sys.modules["adgame.simulate"]
graph = sys.modules["adgame.graph"]

Z_CHECK = 4.0  # a Monte Carlo rate may sit this many standard errors off


@dataclass
class Instance:
    config: ExperimentConfig  # reads the saved graph file
    cg: object

    @property
    def fingerprint(self) -> dict:
        return {"nsps": self.cg.n_nsps, "bw_edges": len(self.cg.bw_edges)}


def prepare(base: ExperimentConfig, instance_seed: int, work_dir: str) -> Instance:
    """Generate the instance, save it as a graph file, and load it back."""
    g = pipeline.build_source_graph(base, instance_seed)
    os.makedirs(work_dir, exist_ok=True)
    path = os.path.join(work_dir, "graph.txt")
    graph.save_graph(g, path)
    config = replace(base, graph_file=path)
    return Instance(config, pipeline.prepare_instance(config, instance_seed).cg)


def _popcount(bits) -> int:
    return sum(1 for b in bits if b)


def _within(rate: float, se: float, value: float) -> bool:
    return abs(rate - value) <= Z_CHECK * se + 1e-12


def _sub_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


class Workload:
    """One workload; ``BENCHMARK.json`` records why it exists."""

    name = ""
    setup_repeats = 3
    min_ops = 1
    uses_valuenet = False
    dominant_layer: str | None = None  # expected top layer by operation self time

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke

    def setup(self, work_dir: str):
        raise NotImplementedError

    def operation(self, ctx, index: int, work_dir: str):
        raise NotImplementedError

    def check(self, ctx, result, index: int) -> list[str]:
        """Failed checks of one operation's result, empty when it is correct."""
        raise NotImplementedError

    def untraced_rates(self, results: list) -> dict:
        """Throughputs measured by untraced operations, where they apply."""
        return {"mc_kernel_runs_per_s": 0.0, "mc_raw_runs_per_s": 0.0}


class ExactBaselines(Workload):
    """Greedy, then exhaustive, each with a fresh exact evaluator."""

    name = "exact-baselines"
    setup_repeats = 15
    dominant_layer = "mdp"

    def setup(self, work_dir: str) -> Instance:
        if self.smoke:
            base = ExperimentConfig(
                n_computers=16, entry_pool_size=4, entry_count=2, budget=2,
                mc_runs=2000,
            )
            return prepare(base, 1, work_dir)
        base = ExperimentConfig(
            n_computers=30, entry_pool_size=6, entry_count=3, budget=2,
            mc_runs=20000,
        )
        return prepare(base, 0, work_dir)

    def operation(self, inst: Instance, index: int, work_dir: str):
        config = replace(inst.config, out_dir=os.path.join(work_dir, "runs"))
        greedy = pipeline.run_baseline(config, "greedy", self.seed)
        exhaustive = pipeline.run_baseline(config, "exhaustive", self.seed)
        return greedy, exhaustive

    def check(self, inst: Instance, result, index: int) -> list[str]:
        greedy, exhaustive = result
        k = inst.config.budget
        fails = []
        fresh = defense.ExactFitness(inst.cg, memo_limit=inst.config.memo_limit)
        for rec in (greedy, exhaustive):
            if _popcount(rec.best_plan) != k:
                fails.append(f"{rec.strategy} plan has popcount != {k}")
            if fresh(rec.best_plan) != rec.best_fitness:
                fails.append(f"{rec.strategy} fitness disagrees with a fresh solve")
            simr = rec.simulation
            if simr["runs"] != inst.config.mc_runs or not _within(
                simr["success_rate"], simr["std_error"], rec.best_fitness
            ):
                fails.append(f"{rec.strategy} Monte Carlo rate off its exact value")
        if exhaustive.best_fitness > greedy.best_fitness:
            fails.append("exhaustive plan is worse than the greedy plan")
        return fails


def _warm_numpy(n_inputs: int, width: int) -> None:
    """Allocate and free net-sized arrays once, as a process's first round does.

    The first round in a process runs about a second slower than the next
    ones: its large temporaries are mapped and unmapped until the allocator
    raises its threshold, and the BLAS threads start.  That is a one-time
    cost, so it belongs to set-up rather than to every operation.
    """
    rng = np.random.default_rng(0)
    x = rng.random((4 * width, n_inputs))
    w1, w2 = rng.random((n_inputs, width)), rng.random((width, width))
    for _ in range(3):
        np.maximum(x @ w1, 0.0) @ w2


@dataclass
class RoundResult:
    record: object
    run_dir: str


class PaperRound(Workload):
    """One search-and-train round on the 173-NSP paper-scale graph."""

    name = "paper-round"
    setup_repeats = 15
    min_ops = 5  # each repeats the first with the same seed: checked byte for byte
    uses_valuenet = True
    ARTIFACTS = ("record.json", "population.txt", "net.ckpt")
    # The round's cost depends on its seed: across seeds 500-505 the best
    # plan's 30 Monte Carlo runs met 61 to 182 distinct states, and rounds
    # took 1.9 to 3.2 s.  Runs with different benchmark seeds must cost the
    # same, so every run plays the round with one run seed.
    RUN_SEED = 0

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.first_artifacts: dict | None = None

    def setup(self, work_dir: str) -> Instance:
        if self.smoke:
            base = ExperimentConfig(
                n_computers=16, entry_pool_size=4, entry_count=2, budget=2,
                rounds=1, mu=8, iterations=20, depth=2, width=16,
                epochs_per_round=3, mc_runs=200, memo_limit=2000,
            )
            return prepare(base, 1, work_dir)
        base = ExperimentConfig(
            n_computers=500, budget=5, rounds=1, iterations=50,
            epochs_per_round=2, mc_runs=30, memo_limit=500,
        )
        inst = prepare(base, 0, work_dir)
        _warm_numpy(inst.cg.n_nsps, base.width)
        return inst

    def operation(self, inst: Instance, index: int, work_dir: str) -> RoundResult:
        config = replace(inst.config, out_dir=os.path.join(work_dir, "runs"))
        record = pipeline.run_nndp_edo(config, self.RUN_SEED)
        return RoundResult(record, pipeline.run_dir_for(config, record.strategy, self.RUN_SEED))

    def check(self, inst: Instance, result: RoundResult, index: int) -> list[str]:
        rec = result.record
        k = inst.config.budget
        fails = []
        pop = defense.load_population(os.path.join(result.run_dir, "population.txt"))
        if _popcount(rec.best_plan) != k or any(_popcount(m.bits) != k for m in pop):
            fails.append(f"a plan has popcount != {k}")
        if rec.n_nsps != inst.cg.n_nsps or not 0.0 <= rec.best_fitness <= 1.0:
            fails.append("record disagrees with the instance or has a bad fitness")
        if not all(math.isfinite(x) for curve in rec.loss_curves for x in curve):
            fails.append("non-finite training loss")
        simr = rec.simulation
        if simr is None or simr["runs"] != inst.config.mc_runs:
            fails.append("simulation missing or of the wrong size")
        elif rec.exact_value is not None and (
            simr["success_rate"] > rec.exact_value + Z_CHECK * simr["std_error"] + 1e-12
        ):
            fails.append("net policy beats the exact optimum")
        artifacts = {}
        for name in self.ARTIFACTS:
            with open(os.path.join(result.run_dir, name), "rb") as fh:
                artifacts[name] = fh.read()
        if self.first_artifacts is None:
            self.first_artifacts = artifacts
        else:
            fails += [
                f"{name} differs between same-seed operations"
                for name in self.ARTIFACTS
                if artifacts[name] != self.first_artifacts[name]
            ]
        return fails


@dataclass
class McContext:
    inst: Instance
    plans: list
    values: list  # exact value of each plan
    policy: object

    @property
    def fingerprint(self) -> dict:
        return self.inst.fingerprint


@dataclass
class McResult:
    kernel: list
    raw: list
    kernel_s: float
    raw_s: float


class McEval(Workload):
    """Monte Carlo of three fixed plans under one warmed DpPolicy."""

    name = "mc-eval"
    setup_repeats = 2
    dominant_layer = "simulate"

    def setup(self, work_dir: str) -> McContext:
        if self.smoke:
            base = ExperimentConfig(n_computers=16, entry_pool_size=4, entry_count=2)
        else:
            base = ExperimentConfig(n_computers=40, entry_pool_size=8, entry_count=4)
        inst = prepare(base, 1, work_dir)
        cg = inst.cg
        ev = defense.ExactFitness(cg, memo_limit=inst.config.memo_limit)
        plans = [(0,) * len(cg.bw_edges)]
        plans += [defense.exhaustive_run(cg, ev, k) for k in (1, 2)]
        policy = sim.DpPolicy(cg, memo_limit=inst.config.memo_limit)
        for plan in plans:
            policy(mdp.initial_state(cg, plan))
        return McContext(inst, plans, [ev(p) for p in plans], policy)

    @property
    def runs(self) -> int:
        return 5000 if self.smoke else 200_000

    def operation(self, ctx: McContext, index: int, work_dir: str) -> McResult:
        cg = ctx.inst.cg
        seed = _sub_seed(self.seed, index)
        t0 = time.perf_counter()
        kernel = [sim.simulate(cg, p, ctx.policy, self.runs, seed) for p in ctx.plans]
        t1 = time.perf_counter()
        raw = [
            sim.simulate_on_original(cg, p, ctx.policy, self.runs, seed)
            for p in ctx.plans
        ]
        return McResult(kernel, raw, t1 - t0, time.perf_counter() - t1)

    def untraced_rates(self, results: list) -> dict:
        done = [r for r in results if r is not None]
        if not done:
            return super().untraced_rates(results)
        per_op = self.runs * len(done[0].kernel)
        return {
            "mc_kernel_runs_per_s": statistics.median(per_op / r.kernel_s for r in done),
            "mc_raw_runs_per_s": statistics.median(per_op / r.raw_s for r in done),
        }

    def check(self, ctx: McContext, result: McResult, index: int) -> list[str]:
        fails = []
        for plan, value, k, r in zip(ctx.plans, ctx.values, result.kernel, result.raw):
            label = "".join(map(str, plan))
            for kind, rep in (("kernel", k), ("raw", r)):
                if rep.runs != self.runs or not _within(
                    rep.success_rate, rep.std_error, value
                ):
                    fails.append(f"{kind} rate of plan {label} off its exact value")
            if abs(k.success_rate - r.success_rate) > Z_CHECK * math.hypot(
                k.std_error, r.std_error
            ) + 1e-12:
                fails.append(f"kernel and raw rates of plan {label} disagree")
        if index == 0:
            fails += self._check_chunking(ctx)
        return fails

    def _check_chunking(self, ctx: McContext) -> list[str]:
        """Two ``first_run`` halves reproduce the unsplit run's successes."""
        cg = ctx.inst.cg
        plan = ctx.plans[-1]
        seed = _sub_seed(self.seed, 2**31 - 1)  # a stream no operation uses
        half = self.runs // 4
        fails = []
        for runner in (sim.simulate, sim.simulate_on_original):
            whole = runner(cg, plan, ctx.policy, 2 * half, seed)
            a = runner(cg, plan, ctx.policy, half, seed, first_run=0)
            b = runner(cg, plan, ctx.policy, half, seed, first_run=half)
            if a.successes + b.successes != whole.successes:
                fails.append(f"{runner.__name__}: split run changes the successes")
        return fails


WORKLOADS = {w.name: w for w in (ExactBaselines, PaperRound, McEval)}
