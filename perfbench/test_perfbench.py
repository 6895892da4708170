"""Self-test of the benchmark: tracer accounting, counts against the
program's own counters, and smoke runs of every workload.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import adgame  # noqa: E402,F401
from adgame.config import ExperimentConfig  # noqa: E402
from tracer import Tracer  # noqa: E402

mdp = sys.modules["adgame.mdp"]
sim = sys.modules["adgame.simulate"]
valuenet = sys.modules["adgame.valuenet"]
defense = sys.modules["adgame.defense"]
pipeline = sys.modules["adgame.pipeline"]


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def tiny():
    """A 10-NSP graph whose whole state space the solver covers in a second."""
    config = ExperimentConfig(n_computers=16, entry_pool_size=4, entry_count=2)
    return pipeline.prepare_instance(config, 1).cg


def test_layer_self_time_with_a_fake_clock():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: next(ticks))
    inner = tr.wrap(lambda: None, "b.inner", "b", keep=True, track_parent=True)
    same = tr.wrap(lambda: inner(), "a.same", "a", keep=False)
    outer = tr.wrap(lambda: (same(), inner()), "a.outer", "a", keep=True)
    tr.run("bench.op", "op", "op0", outer)
    # ticks: op 0..9, outer 1..8, same 2..5, inner 3..4 and 6..7
    assert tr.layer_self == {("b", "op"): 2, ("a", "op"): 5, ("bench", "op"): 2}
    assert tr.stat("a.outer").own_s == 3
    assert tr.stat("a.same").own_s == 2
    assert tr.stat("a.outer").layer_s == 5
    assert tr.stat("b.inner").calls == 2
    assert tr.edge("a.same", "b.inner") == (1, 1)
    assert tr.edge("a.outer", "b.inner") == (1, 1)
    # the unkept frame hands its children to the nearest kept span
    assert [(s[1], s[4]) for s in tr.spans] == [
        ("bench.op", -1), ("a.outer", 0), ("b.inner", 1), ("b.inner", 1)
    ]


def test_errors_are_counted_and_the_stack_unwinds():
    tr = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.run("bench.op", "op", "op0", tr.wrap(boom, "a.boom", "a", keep=False))
    assert tr.stat("a.boom").errors == 1
    assert tr.stat("bench.op").errors == 1
    assert len(tr._stack) == 1  # only the root frame is left


def test_install_patches_every_binding_and_uninstall_restores():
    original = mdp.transition
    original_sim = sim.simulate
    original_call = valuenet.NetGreedyPolicy.__dict__["__call__"]
    tr = Tracer()
    tr.install()
    try:
        wrapped = mdp.transition
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert valuenet.transition is wrapped and sim.transition is wrapped
        assert defense.simulate is sim.simulate is pipeline.simulate is adgame.simulate
        assert sim.simulate.__wrapped__ is original_sim
        assert valuenet.NetGreedyPolicy.__dict__["__call__"] is not original_call
    finally:
        tr.uninstall()
    assert mdp.transition is original and valuenet.transition is original
    assert defense.simulate is original_sim and adgame.simulate is original_sim
    assert valuenet.NetGreedyPolicy.__dict__["__call__"] is original_call


def test_states_solved_matches_the_solvers_counter(tiny):
    n = len(tiny.bw_edges)
    plans = [(0,) * n, (1,) + (0,) * (n - 1), (0,) * (n - 1) + (1,)]
    tr = Tracer()
    tr.install()
    try:
        solver = mdp.ExactSolver(tiny)
        expected = 0
        for plan in plans:
            before = solver.states_solved
            solver.value(mdp.initial_state(tiny, plan))
            expected += solver.states_solved - before
        solver.value(mdp.initial_state(tiny))  # a memo hit adds nothing
    finally:
        tr.uninstall()
    assert expected > 0
    assert tr.stat("mdp.ExactSolver.value_and_action").work == expected
    assert tr.stat("mdp.ExactSolver.value_and_action").calls == len(plans) + 1


def test_simulated_runs_match_the_reports(tiny):
    plan = (0,) * len(tiny.bw_edges)
    tr = Tracer()
    tr.install()
    try:
        policy = sim.DpPolicy(tiny)
        kernel = [sim.simulate(tiny, plan, policy, runs, seed=1) for runs in (700, 1300)]
        raw = sim.simulate_on_original(tiny, plan, policy, 900, seed=2)
    finally:
        tr.uninstall()
    assert tr.stat("simulate.simulate").work == sum(r.runs for r in kernel) == 2000
    assert tr.stat("simulate.simulate_on_original").work == raw.runs == 900
    assert tr.edge("simulate.simulate", "simulate.DpPolicy.__call__")[0] > 0


def test_training_batches_match_the_optimizer_steps(tiny):
    plans = [(0,) * len(tiny.bw_edges)]
    net = valuenet.ValueNet(tiny.n_nsps, depth=2, width=8, seed=0)
    optimizer = valuenet.Adam(net)
    config = valuenet.TrainingConfig(batch_size=4, epochs_per_round=5)
    tr = Tracer()
    tr.install()
    try:
        stats = valuenet.train_round(
            net, tiny, plans, config, rng=np.random.default_rng(0), optimizer=optimizer
        )
    finally:
        tr.uninstall()
    batches = optimizer.t
    assert len(stats.epoch_losses) == config.epochs_per_round
    assert batches >= config.epochs_per_round
    assert tr.stat("valuenet.ValueNet.loss_and_grads").calls == batches
    assert tr.stat("valuenet.Adam.step").calls == batches
    assert tr.stat("valuenet.bellman_targets").calls == batches
    assert tr.stat("valuenet.train_round").calls == 1


def _run(args: list[str], cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["exact-baselines", "paper-round", "mc-eval"])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(
        ["--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--smoke"],
        ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    if trace:
        assert result["metrics"]["trace.rationale_ok"]["value"] == 1
    else:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(
        ["--workload", "mc-eval", "--seed", "0", "--seconds", "1", "--trace", "0"],
        str(tmp_path),
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
