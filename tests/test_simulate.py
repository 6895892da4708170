"""Monte Carlo simulator: fidelity to the exact value, chunk invariance, and
the raw-edge walk against its full-width reference."""
from __future__ import annotations

import importlib
import tracemalloc

import pytest

from adgame.defense import ExactFitness, exhaustive_run
from adgame.kernel import condense
from adgame.mdp import dp_value, initial_state
from adgame.simulate import (
    DpPolicy,
    PolicyContractError,
    simulate,
    simulate_on_original,
)

from instances import (
    GRAPH_D,
    chain_graph,
    random_instance,
    saved_instance,
    shared_suffix_graph,
    two_parallel_graph,
)
from oracles import reference_simulate_on_original

# the module, not the package's re-exported ``simulate`` function
sim_module = importlib.import_module("adgame.simulate")


def _close(report, value, sigmas=4.0):
    return abs(report.success_rate - value) <= sigmas * max(report.std_error, 1e-12)


def test_simulate_matches_exact_value():
    cg = condense(shared_suffix_graph())
    # exact optimal value of this instance, derived by hand: 0.5586
    report = simulate(cg, None, DpPolicy(cg), runs=50_000, seed=11)
    assert _close(report, 0.5586)
    assert report.runs == 50_000
    assert report.successes == round(report.success_rate * report.runs)


def test_simulate_on_original_matches_exact_value():
    cg = condense(shared_suffix_graph())
    report = simulate_on_original(cg, None, DpPolicy(cg), runs=50_000, seed=11)
    assert _close(report, 0.5586)


def test_two_parallel_rate():
    cg = condense(two_parallel_graph())
    # 0.7 + 0.2 * 0.7: try one edge, fall back to the other after a failure
    for sim in (simulate, simulate_on_original):
        report = sim(cg, None, DpPolicy(cg), runs=50_000, seed=3)
        assert _close(report, 0.84)


def test_partially_blocked_plan_value():
    cg = condense(two_parallel_graph())
    plan = [0, 1] if cg.nsps[0].block_worthy_edge is None else [1, 0]
    report = simulate(cg, plan, DpPolicy(cg), runs=50_000, seed=5)
    assert _close(report, 0.7)


def test_certain_chain_always_succeeds():
    cg = condense(chain_graph([(0.0, 0.0), (0.0, 0.0)]))
    report = simulate(cg, None, DpPolicy(cg), runs=128, seed=0)
    assert report.success_rate == 1.0
    assert report.std_error == 0.0


def test_doomed_chain_never_succeeds():
    cg = condense(chain_graph([(0.0, 1.0)], blockable_last=False))
    for sim in (simulate, simulate_on_original):
        assert sim(cg, None, DpPolicy(cg), runs=128, seed=0).success_rate == 0.0


def test_fully_blocked_plan_never_calls_policy():
    cg = condense(two_parallel_graph())

    def boom(state):
        raise AssertionError("policy should never run on a dead game")

    for sim in (simulate, simulate_on_original):
        report = sim(cg, [1, 1], boom, runs=64, seed=0)
        assert report.success_rate == 0.0


def test_chunk_and_split_invariance(monkeypatch):
    cg = condense(shared_suffix_graph())
    policy = DpPolicy(cg)
    for sim in (simulate, simulate_on_original):
        whole = sim(cg, None, policy, runs=5000, seed=42)
        head = sim(cg, None, policy, runs=3000, seed=42)
        tail = sim(cg, None, policy, runs=2000, seed=42, first_run=3000)
        assert head.successes + tail.successes == whole.successes
        with monkeypatch.context() as m:
            m.setattr(sim_module, "CHUNK_SIZE", 701)
            ragged = sim(cg, None, policy, runs=5000, seed=42)
        assert ragged.successes == whole.successes


def test_same_seed_reproduces():
    cg = condense(two_parallel_graph())
    a = simulate(cg, None, DpPolicy(cg), runs=2000, seed=9)
    b = simulate(cg, None, DpPolicy(cg), runs=2000, seed=9)
    assert a.successes == b.successes


def test_wrong_plan_length_raises():
    cg = condense(two_parallel_graph())
    for sim in (simulate, simulate_on_original):
        with pytest.raises(ValueError):
            sim(cg, [1], DpPolicy(cg), runs=10, seed=0)


def test_out_of_range_action_is_contract_error():
    cg = condense(two_parallel_graph())
    for action in (99, -1, None, 1.5):
        for sim in (simulate, simulate_on_original):
            with pytest.raises(PolicyContractError):
                sim(cg, None, lambda s: action, runs=10, seed=0)


def test_repeating_a_failed_path_is_contract_error():
    cg = condense(two_parallel_graph())
    # always playing path 0 revisits it after a failure
    with pytest.raises(PolicyContractError):
        simulate(cg, None, lambda s: 0, runs=512, seed=1)


def test_nonpositive_runs_rejected():
    cg = condense(two_parallel_graph())
    with pytest.raises(ValueError):
        simulate(cg, None, DpPolicy(cg), runs=0, seed=0)


def test_negative_first_run_rejected():
    # the tape's PCG64.advance would wrap the offset to the stream's far end
    cg = condense(two_parallel_graph())
    for sim in (simulate, simulate_on_original):
        with pytest.raises(ValueError, match="first_run"):
            sim(cg, None, DpPolicy(cg), runs=100, seed=3, first_run=-50)


def test_random_instances_agree_with_exact_value():
    checked = 0
    seed = 0
    while checked < 6 and seed < 60:
        cg = random_instance(seed, max_nsps=6)
        seed += 1
        if cg is None:
            continue
        value = dp_value(cg)
        report = simulate_on_original(cg, None, DpPolicy(cg), runs=20_000, seed=seed)
        assert _close(report, value, sigmas=5.0), (seed, value, report.success_rate)
        checked += 1
    assert checked == 6


def test_one_uniform_tape_is_alive_at_a_time(tmp_path):
    # two full chunks: the second tape is drawn after the first one is let
    # go, so the traced peak stays well below two tapes
    cg = saved_instance(tmp_path, *GRAPH_D)
    policy = DpPolicy(cg)
    policy(initial_state(cg))
    raw_draws = sum(len(p.edges) for p in cg.nsps)
    for run, draws in ((simulate, cg.n_nsps), (simulate_on_original, raw_draws)):
        tracemalloc.start()
        try:
            run(cg, None, policy, 2 * sim_module.CHUNK_SIZE, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * sim_module.CHUNK_SIZE * draws * 8, run.__name__


class _Recorder:
    """A policy that logs every state it is asked about."""

    def __init__(self, policy):
        self.policy = policy
        self.calls = []

    def __call__(self, s):
        self.calls.append(s)
        return self.policy(s)


def _raw_and_reference(cg, plan, runs, seed):
    """(successes, policy calls, unwarmed DpPolicy memo items in insertion
    order) of the edge-by-edge walk, then of the full-width reference."""
    got = []
    for run in (simulate_on_original, reference_simulate_on_original):
        policy = DpPolicy(cg)
        recorder = _Recorder(policy)
        report = run(cg, plan, recorder, runs, seed)
        got.append((report.successes, recorder.calls, list(policy._memo.items())))
    assert got[0][1], "the policy was never asked"
    return got


def test_raw_walk_matches_the_full_width_reference_on_graph_d(tmp_path, monkeypatch):
    # the benchmark's mc-eval plans; 70,001 runs leave a ragged last chunk
    cg = saved_instance(tmp_path, *GRAPH_D)
    ev = ExactFitness(cg)
    plans = [(0,) * len(cg.bw_edges)] + [exhaustive_run(cg, ev, k) for k in (1, 2)]
    for plan in plans:
        for seed in range(3):
            new, ref = _raw_and_reference(cg, plan, 70_001, seed)
            assert new == ref, (plan, seed)
        with monkeypatch.context() as m:
            m.setattr(sim_module, "CHUNK_SIZE", 701)
            chunked, ref = _raw_and_reference(cg, plan, 70_001, 0)
        assert chunked == ref, plan


@pytest.mark.parametrize("seed", [2, 7, 15, 26, 45])
def test_raw_walk_matches_the_full_width_reference_on_random_instances(seed):
    cg = random_instance(seed)
    for plan in (None, (1,) + (0,) * (len(cg.bw_edges) - 1)):
        new, ref = _raw_and_reference(cg, plan, 20_000, seed)
        assert new == ref, plan
