"""Release gate: ten end-to-end checks, one printed verdict line each.

Every test prints `ACCEPTANCE nn PASS|FAIL <detail>` with output capture
suspended, so the verdict lines land on the real stdout under any pytest
invocation, then asserts the same condition.
"""
from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest

from adgame.cli import main
from adgame.config import ExperimentConfig
from adgame.defense import (
    ExactFitness,
    FITNESS_BAND,
    Member,
    crossover,
    diversity_select_removal,
    edo_run,
    exhaustive_run,
    greedy_run,
    load_population,
    mutate,
    vec_run,
)
from adgame.graph import save_graph
from adgame.kernel import condense
from adgame.mdp import (
    ExactSolver,
    admissible_actions,
    dp_value,
    initial_state,
    terminal_value,
    transition,
)
from adgame.pipeline import prepare_instance, run_dir_for, run_nndp_edo
from adgame.simulate import DpPolicy, simulate_on_original
from adgame.valuenet import ValueNet, load_checkpoint, predict

from instances import (
    greedy_trap_graph,
    random_instance,
    shared_suffix_graph,
    textbook_kernel_graph,
)
from oracles import (
    FAILED,
    SUCCESS,
    UNATTEMPTED,
    reference_removal,
    state_of,
    trits_of,
)


@pytest.fixture
def verdict(capfd):
    def emit(num: int, ok: bool, detail: str) -> None:
        line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


def _memo_expectimax(cg, state) -> float:
    """Independent recursive solver, memoized on states only."""
    memo: dict = {}

    def rec(s):
        leaf = terminal_value(cg, s)
        if leaf is not None:
            return leaf
        got = memo.get(s)
        if got is None:
            got = 0.0
            for action in admissible_actions(cg, s):
                dist = transition(cg, s, action)
                q = sum(p * rec(nxt) for nxt, p in dist.outcomes)
                got = max(got, q)
            memo[s] = got
        return got

    return rec(state)


def test_c01_transition_law_reproduces_worked_example(verdict):
    cg = condense(shared_suffix_graph(p_d=0.1, p_f=0.2))
    dist = transition(cg, state_of(cg, (UNATTEMPTED, UNATTEMPTED)), 0)
    got = {trits_of(cg, s): p for s, p in dist.outcomes}
    want = {
        (FAILED, UNATTEMPTED): 0.34,
        (FAILED, FAILED): 0.098,
        (SUCCESS, UNATTEMPTED): 0.343,
    }
    devs = [abs(got.get(key, -1.0) - value) for key, value in want.items()]
    devs.append(abs(dist.detect_prob - 0.219))
    ok = len(got) == 3 and max(devs) <= 1e-12
    verdict(
        1, ok,
        f"two-path transition law exact to 1e-12 (max dev {max(devs):.2e})",
    )


def test_c02_kernelization_matches_textbook_graph(verdict):
    cg = condense(textbook_kernel_graph())
    named = {p.nodes for p in cg.nsps if p.source in {"s", "a"}}
    want_nsps = {("s", "a"), ("a", "b", "c", "d"), ("a", "e", "f")}
    bw_pairs = {
        (cg.graph.edges[e].src, cg.graph.edges[e].dst) for e in cg.bw_edges
    }
    want_bw = {("c", "d"), ("a", "e")}
    s = len(cg.graph.entry_nodes)
    h = cg.feedback_edges
    bound = len(cg.bw_edges) <= s + 2 * h
    ok = named == want_nsps and bw_pairs == want_bw and bound
    verdict(
        2, ok,
        f"non-splitting paths {sorted(named)} and block-worthy edges "
        f"{sorted(bw_pairs)} with |BW|={len(cg.bw_edges)} <= s+2h={s + 2 * h}",
    )


def test_c03_exact_solver_agrees_with_brute_force(verdict):
    started = time.perf_counter()
    worst = 0.0
    checked = 0
    for seed in range(2000):
        cg = random_instance(seed, max_nsps=10)
        if cg is None:
            continue
        start = initial_state(cg)
        worst = max(worst, abs(dp_value(cg, start) - _memo_expectimax(cg, start)))
        checked += 1
        if checked >= 100:
            break
    elapsed = time.perf_counter() - started
    ok = checked >= 100 and worst <= 1e-9 and elapsed < 120
    verdict(
        3, ok,
        f"dynamic program equals brute expectimax on {checked} instances "
        f"(max dev {worst:.2e}, {elapsed:.0f}s < 120s)",
    )


def test_c04_original_graph_simulation_matches_kernel_value(verdict):
    started = time.perf_counter()
    runs = 1_000_000
    agree = checked = 0
    for seed in range(2000):
        cg = random_instance(seed, max_nsps=10)
        if cg is None:
            continue
        value = dp_value(cg, initial_state(cg))
        rep = simulate_on_original(cg, None, DpPolicy(cg), runs, seed=seed)
        se = math.sqrt(
            (rep.success_rate * (1 - rep.success_rate) + value * (1 - value))
            / runs
        )
        agree += abs(rep.success_rate - value) <= 4 * max(se, 1e-12)
        checked += 1
        if checked >= 20:
            break
    elapsed = time.perf_counter() - started
    ok = checked >= 20 and agree >= 0.95 * checked and elapsed < 600
    verdict(
        4, ok,
        f"million-run raw-graph simulation within 4 standard errors of the "
        f"exact value on {agree}/{checked} instances ({elapsed:.0f}s < 600s)",
    )


def test_c05_analytic_gradients_match_finite_differences(verdict):
    # float64: in float32, central differences measure rounding, not slope
    net = ValueNet(6, depth=2, width=8, seed=3, dtype=np.float64)
    rng = np.random.default_rng(11)
    x = rng.choice([-1.0, 0.0, 1.0], size=(12, 6))
    y = rng.uniform(0.0, 1.0, size=12)
    _, grads = net.loss_and_grads(x, y)
    analytic = np.concatenate([g.ravel() for g in grads])
    base = net.flat_params()
    numeric = np.empty_like(base)
    h = 1e-6
    for i in range(base.size):
        stepped = base.copy()
        stepped[i] = base[i] + h
        net.set_flat_params(stepped)
        up, _ = net.loss_and_grads(x, y)
        stepped[i] = base[i] - h
        net.set_flat_params(stepped)
        down, _ = net.loss_and_grads(x, y)
        numeric[i] = (up - down) / (2 * h)
    net.set_flat_params(base)
    rel = np.linalg.norm(analytic - numeric) / max(
        np.linalg.norm(analytic), np.linalg.norm(numeric)
    )
    ok = rel <= 1e-4
    verdict(
        5, ok,
        f"backprop matches central differences on a width-8 float64 net "
        f"(relative error {rel:.2e} <= 1e-4)",
    )


# one trained campaign feeds checks 06 and 07: a fixed 11-path instance,
# ten independent seeds of the search-and-train loop
N_CAMPAIGN_SEEDS = 10
CAMPAIGN_ROUNDS = 16


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    root = tmp_path_factory.mktemp("campaign")
    cg = random_instance(76, max_nsps=12, max_mid=9)
    graph_path = str(root / "graph.txt")
    save_graph(cg.graph, graph_path)
    config = ExperimentConfig(
        graph_file=graph_path,
        budget=2,
        mu=16,
        iterations=200,
        rounds=CAMPAIGN_ROUNDS,
        depth=2,
        width=64,
        batch_size=16,
        learning_rate=0.001,
        epochs_per_round=300,
        explore_prob=0.5,
        mc_runs=2000,
        seeds=tuple(range(N_CAMPAIGN_SEEDS)),
        out_dir=str(root / "runs"),
    )
    started = time.perf_counter()
    records = [run_nndp_edo(config, seed) for seed in config.seeds]
    return config, records, time.perf_counter() - started


def test_c06_trained_net_tracks_exact_values(campaign, verdict):
    config, records, train_time = campaign
    started = time.perf_counter()
    inst = prepare_instance(config, 0)
    assert inst.cg.n_nsps <= 12
    run_dir = run_dir_for(config, "nndp-edo", 0)
    net, _ = load_checkpoint(os.path.join(run_dir, "net.ckpt"), inst.cg.n_nsps)
    pop = load_population(os.path.join(run_dir, "population.txt"))
    solver = ExactSolver(inst.cg)
    errs = [
        abs(
            predict(net, inst.cg, initial_state(inst.cg, m.bits))
            - solver.value(initial_state(inst.cg, m.bits))
        )
        for m in pop
    ]
    mean_err = float(np.mean(errs))
    elapsed = train_time + time.perf_counter() - started
    ok = mean_err <= 0.03 and elapsed < 1800
    verdict(
        6, ok,
        f"net value error over the final population averages {mean_err:.4f} "
        f"<= 0.03 after {CAMPAIGN_ROUNDS} rounds on {inst.cg.n_nsps} paths "
        f"({elapsed:.0f}s < 1800s)",
    )


def test_c07_search_and_train_loop_finds_near_optimal_plans(campaign, verdict):
    config, records, train_time = campaign
    started = time.perf_counter()
    inst = prepare_instance(config, 0)
    exact = ExactFitness(inst.cg)
    n_plans = math.comb(len(inst.cg.bw_edges), config.budget)
    assert n_plans <= 10_000
    optimum = exact(exhaustive_run(inst.cg, exact, config.budget))
    hits = sum(
        exact(rec.best_plan) <= optimum + 0.01 for rec in records
    )
    elapsed = train_time + time.perf_counter() - started
    ok = hits >= 8 and elapsed < 3600
    verdict(
        7, ok,
        f"trained searches match the {n_plans}-plan exhaustive optimum "
        f"within 0.01 on {hits}/{N_CAMPAIGN_SEEDS} seeds ({elapsed:.0f}s < 3600s)",
    )


def test_c08_strategy_ordering_on_a_greedy_trap(verdict):
    started = time.perf_counter()
    cg = condense(greedy_trap_graph())
    exact = ExactFitness(cg)
    k = 2
    optimum = exact(exhaustive_run(cg, exact, k))
    greedy = exact(greedy_run(cg, exact, k))
    edo_scores = []
    vec_scores = []
    for seed in range(10):
        pop = edo_run(cg, exact, k, mu=10, iterations=200,
                      rng=np.random.default_rng(seed))
        edo_scores.append(min(exact(m.bits) for m in pop))
        pop = vec_run(cg, exact, k, mu=10, iterations=200,
                      rng=np.random.default_rng(seed))
        vec_scores.append(min(exact(m.bits) for m in pop))
    edo_mean = float(np.mean(edo_scores))
    vec_mean = float(np.mean(vec_scores))
    elapsed = time.perf_counter() - started
    ok = (
        optimum <= edo_mean + 1e-12
        and edo_mean <= greedy + 1e-12
        and elapsed < 3600
    )
    verdict(
        8, ok,
        f"mean fitness over 10 seeds orders exhaustive {optimum:.4f} <= "
        f"diversity search {edo_mean:.4f} <= greedy {greedy:.4f} "
        f"(worst-drop variant {vec_mean:.4f} reported, not gated; "
        f"{elapsed:.0f}s < 3600s)",
    )


def test_c09_evolutionary_invariants_at_scale(verdict):
    started = time.perf_counter()
    rng = np.random.default_rng(42)

    applications = 0
    while applications < 100_000:
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, n))
        shuffled = rng.permutation(n)
        p = tuple(int(i in set(shuffled[:k])) for i in range(n))
        q = tuple(int(i in set(shuffled[-k:])) for i in range(n))
        x = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            child = mutate(p, x, rng)
            assert sum(child) == k
            applications += 1
        else:
            a, b = crossover(p, q, x, rng)
            assert sum(a) == k and sum(b) == k
            applications += 2

    cg = condense(greedy_trap_graph())
    exact = ExactFitness(cg)
    pop = edo_run(cg, exact, 2, mu=12, iterations=2000,
                  rng=np.random.default_rng(7))
    best = min(m.fitness for m in pop)
    band_ok = all(m.fitness <= best + FITNESS_BAND + 1e-12 for m in pop)
    popcount_ok = all(sum(m.bits) == 2 for m in pop)

    mismatches = 0
    cases = 0
    for _ in range(300):
        n = int(rng.integers(2, 5))
        size = int(rng.integers(4, 7))
        pop_case = [
            Member(
                tuple(int(v) for v in rng.integers(0, 2, n)),
                float(rng.choice([0.1, 0.2, 0.2, 0.5, 0.9])),
            )
            for _ in range(size)
        ]
        got = diversity_select_removal(pop_case)
        want = reference_removal(pop_case)
        mismatches += got != want
        cases += 1

    elapsed = time.perf_counter() - started
    ok = band_ok and popcount_ok and mismatches == 0 and elapsed < 300
    verdict(
        9, ok,
        f"{applications} operator products keep popcount, population stays "
        f"within {FITNESS_BAND} of its best, removal matches the reference "
        f"comparator on {cases} cases ({elapsed:.0f}s < 300s)",
    )


def test_c10_cli_reruns_are_bit_identical(tmp_path, capfd, verdict):
    out = str(tmp_path / "runs")
    sets = [
        "--set", "n_computers=30", "--set", "entry_pool_size=6",
        "--set", "entry_count=3", "--set", "budget=2", "--set", "mu=8",
        "--set", "iterations=40", "--set", "rounds=2", "--set", "depth=2",
        "--set", "width=16", "--set", "batch_size=8",
        "--set", "epochs_per_round=10", "--set", "mc_runs=2000",
    ]

    def run(cmd: list[str]) -> str:
        assert main(cmd) == 0
        return capfd.readouterr().out

    def snapshot(paths: list[str]) -> dict[str, bytes]:
        return {p: open(p, "rb").read() for p in paths}

    gen = ["generate", "--seed", "0", "--out", str(tmp_path / "g")] + sets
    run(gen)
    graph_path = str(tmp_path / "g" / "graph.txt")
    first_graph = snapshot([graph_path])
    run(gen)
    graphs_same = snapshot([graph_path]) == first_graph

    args = ["--set", f"graph_file={graph_path}", "--seed", "0"] + sets
    kern = ["kernelize", "--out", str(tmp_path / "k")] + args
    kern_out_1 = run(kern)
    kern_files = [str(tmp_path / "k" / n) for n in ("pruned.txt", "kernel.txt")]
    first_kern = snapshot(kern_files)
    kern_out_2 = run(kern)
    kernel_same = snapshot(kern_files) == first_kern and kern_out_1 == kern_out_2

    defend = ["defend", "edo", "--out", out] + args
    run(defend)
    run_dir = os.path.join(out, "nndp-edo-seed0")
    tracked = [
        os.path.join(run_dir, n)
        for n in (
            "record.json", "population.txt", "net.ckpt", "graph.txt",
            "simulation.csv", "counters.json",
        )
    ]
    first_defend = snapshot(tracked)
    run(defend)
    defend_same = snapshot(tracked) == first_defend

    solve = ["solve-exact"] + args
    solve_same = run(solve) == run(solve)

    report_cmd = ["report", run_dir]
    report_same = run(report_cmd) == run(report_cmd)

    ok = all(
        (graphs_same, kernel_same, defend_same, solve_same, report_same)
    )
    verdict(
        10, ok,
        "re-running generate, kernelize, defend, solve-exact and report "
        "reproduces every artifact byte for byte "
        f"(graph {graphs_same}, kernel {kernel_same}, defend {defend_same}, "
        f"solve {solve_same}, report {report_same})",
    )
