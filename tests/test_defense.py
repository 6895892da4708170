"""Defender strategies: operators, survivor selection, search baselines."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adgame.defense import (
    DefenseConfigError,
    ExactFitness,
    FITNESS_BAND,
    Member,
    MonteCarloFitness,
    NetFitness,
    PopulationFormatError,
    best_member,
    crossover,
    diversity_select_removal,
    edo_run,
    exhaustive_run,
    format_plan,
    greedy_run,
    load_population,
    mutate,
    random_plan,
    save_population,
    vec_run,
)
from adgame.kernel import condense
from adgame.mdp import dp_value
from adgame.simulate import DpPolicy, simulate
from adgame.valuenet import ValueNet

from instances import (
    GRAPH_B,
    GRAPH_D,
    four_parallel_graph,
    greedy_trap_graph,
    random_instance,
    saved_instance,
    shared_suffix_graph,
    textbook_kernel_graph,
    two_parallel_graph,
)
from oracles import reference_removal


def test_random_plan_popcount_and_bounds():
    rng = np.random.default_rng(0)
    plan = random_plan(8, 3, rng)
    assert len(plan) == 8 and sum(plan) == 3
    assert random_plan(4, 0, rng) == (0, 0, 0, 0)
    with pytest.raises(DefenseConfigError):
        random_plan(3, 4, rng)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutate_flips_exactly_the_clamped_count(data):
    n = data.draw(st.integers(1, 12), label="n")
    k = data.draw(st.integers(0, 12), label="k") % (n + 1)
    x = data.draw(st.integers(1, 6), label="x")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    plan = random_plan(n, k, rng)
    child = mutate(plan, x, rng)
    assert len(child) == n and sum(child) == k
    want = 2 * min(x, k, n - k)
    assert sum(a != b for a, b in zip(plan, child)) == want


def test_mutate_degenerate_plans_are_identity():
    rng = np.random.default_rng(1)
    assert mutate((1, 1, 1), 2, rng) == (1, 1, 1)
    assert mutate((0, 0, 0), 1, rng) == (0, 0, 0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_crossover_preserves_popcount_and_swaps(data):
    n = data.draw(st.integers(1, 12), label="n")
    k = data.draw(st.integers(0, 12), label="k") % (n + 1)
    x = data.draw(st.integers(1, 6), label="x")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    p = random_plan(n, k, rng)
    q = random_plan(n, k, rng)
    cp, cq = crossover(p, q, x, rng)
    assert sum(cp) == k and sum(cq) == k
    swapped = min(x, sum(1 for a, b in zip(p, q) if not a and b))
    assert sum(a != b for a, b in zip(p, cp)) == 2 * swapped
    assert sum(a != b for a, b in zip(q, cq)) == 2 * swapped


def test_crossover_identical_parents_unchanged():
    rng = np.random.default_rng(2)
    p = (1, 0, 1, 0)
    assert crossover(p, p, 3, rng) == (p, p)


def test_crossover_disjoint_singletons_swap():
    rng = np.random.default_rng(3)
    assert crossover((1, 0), (0, 1), 1, rng) == ((0, 1), (1, 0))


def test_diversity_removal_drops_a_duplicate():
    dup = (1, 1, 0, 0)
    pop = [
        Member(dup, 0.5),
        Member(dup, 0.5),
        Member(dup, 0.5),
        Member((0, 0, 1, 1), 0.55),
    ]
    assert diversity_select_removal(pop) in (0, 1, 2)


def test_diversity_removal_keeps_strictly_best_candidate():
    pop = [
        Member((1, 0, 1, 0), 0.5),
        Member((0, 1, 0, 1), 0.7),
        Member((1, 1, 0, 0), 0.3),  # strictly best, inserted last
    ]
    assert diversity_select_removal(pop) == 1
    with pytest.raises(ValueError, match="at least two members"):
        diversity_select_removal(pop[:1])


def test_diversity_removal_matches_brute_comparator():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n + 1))
        size = int(rng.integers(3, 7))
        pop = [
            Member(
                random_plan(n, k, rng),
                float(rng.choice([0.1, 0.2, 0.2, 0.5, 0.9])),
            )
            for _ in range(size)
        ]
        assert diversity_select_removal(pop) == reference_removal(pop)
    # mixed popcounts up to 20 edges and 12 members, with repeated plans
    for _ in range(2000):
        n = int(rng.integers(0, 21))
        plans = []
        for _ in range(int(rng.integers(2, 13))):
            if plans and rng.random() < 0.3:
                plans.append(plans[int(rng.integers(len(plans)))])
            else:
                plans.append(tuple(int(v) for v in rng.integers(0, 2, n)))
        pop = [
            Member(bits, float(rng.choice([0.1, 0.2, 0.2, 0.5]))) for bits in plans
        ]
        assert diversity_select_removal(pop) == reference_removal(pop)


def test_diversity_removal_matches_brute_comparator_at_paper_width():
    # the paper round's shape: 101 members over 101 block-worthy edges at
    # budget 5, with repeated plans, tied fitnesses and shuffled member order
    rng = np.random.default_rng(11)
    for case in range(200):
        plans = []
        for _ in range(101):
            if plans and rng.random() < 0.2:
                plans.append(plans[int(rng.integers(len(plans)))])
            else:
                plans.append(random_plan(101, 5, rng))
        fitness = [float(rng.choice([0.25, 0.3, 0.3, 0.35])) for _ in plans]
        pop = [Member(plans[j], fitness[j]) for j in rng.permutation(101)]
        if case % 10 == 0:
            pop[-1] = Member(pop[-1].bits, 0.2)  # a strictly best candidate
        assert diversity_select_removal(pop) == reference_removal(pop)
    empty = [Member((), 0.5) for _ in range(5)]
    assert diversity_select_removal(empty) == reference_removal(empty) == 0


# (format_plan, float.hex(fitness)) of every final member, in order, of
# edo_run(ExactFitness, budget 2, mu=12, 300 iterations, default_rng(7))
EDO_PIN_B = [("00100000100", "0x0.0p+0")] * 12
EDO_PIN_D = [
    ("110000000", "0x1.fb00aefb2e8e3p-2"),
    ("001000100", "0x1.244d1c2bd3241p-1"),
    ("001000010", "0x1.244d1c2bd3241p-1"),
    ("010000001", "0x1.fb00aefb2e8e3p-2"),
    ("001001000", "0x1.21957a504a1acp-1"),
    ("010000001", "0x1.fb00aefb2e8e3p-2"),
    ("001000010", "0x1.244d1c2bd3241p-1"),
    ("110000000", "0x1.fb00aefb2e8e3p-2"),
    ("001100000", "0x1.01ecffd78a86fp-1"),
    ("011000000", "0x1.e4acfff45864cp-2"),
]


@pytest.mark.parametrize(
    "graph,pin", [(GRAPH_B, EDO_PIN_B), (GRAPH_D, EDO_PIN_D)], ids=["graph-B", "graph-D"]
)
def test_edo_run_on_exact_fitness_is_pinned(tmp_path, graph, pin):
    # exact fitness is pure Python floats, so the pin holds on any machine.
    # B collapses onto its one zero-value plan; D keeps seven distinct plans,
    # so a change to the survivor rule or its tie-breaks moves D's pin
    cg = saved_instance(tmp_path, *graph)
    pop = edo_run(
        cg, ExactFitness(cg), 2, mu=12, iterations=300,
        rng=np.random.default_rng(7),
    )
    got = [(format_plan(m.bits), float.hex(m.fitness)) for m in pop]
    assert got == pin


def test_exact_fitness_matches_dp_and_caches():
    cg = condense(shared_suffix_graph())
    ev = ExactFitness(cg)
    assert ev((0,)) == pytest.approx(0.5586, abs=1e-12)
    # the shared final edge kills both paths at once
    assert ev((1,)) == 0.0
    assert ev((1,)) == 0.0


def test_exact_fitness_policy_plays_from_the_solved_memo():
    cg = random_instance(26, max_nsps=10)
    ev = ExactFitness(cg)
    plan = greedy_run(cg, ev, 1)
    ev(plan)
    solved = ev.policy.states_solved
    shared = simulate(cg, plan, ev.policy, 2000, seed=3)
    assert ev.policy.states_solved == solved  # every visited state was solved
    fresh = simulate(cg, plan, DpPolicy(cg), 2000, seed=3)
    assert shared.successes == fresh.successes


def test_net_fitness_bounds_and_terminal_shortcut():
    cg = condense(two_parallel_graph())
    net = ValueNet(cg.n_nsps, depth=1, width=4, seed=0)
    ev = NetFitness(net, cg)
    assert 0.0 < ev((0, 0)) < 1.0
    assert ev((1, 1)) == 0.0


def test_monte_carlo_fitness_deterministic_and_accurate():
    cg = condense(two_parallel_graph())
    ev = MonteCarloFitness(cg, DpPolicy(cg), runs=20_000, seed=3)
    a = ev((0, 0))
    assert a == ev((0, 0))
    assert abs(a - 0.84) <= 4 * (0.84 * 0.16 / 20_000) ** 0.5


def test_exhaustive_empty_budget_returns_unblocked_value():
    cg = condense(textbook_kernel_graph())
    ev = ExactFitness(cg)
    plan = exhaustive_run(cg, ev, 0)
    assert plan == (0, 0)
    assert ev(plan) == dp_value(cg)


def test_exhaustive_picks_better_single_block():
    cg = condense(textbook_kernel_graph())
    ev = ExactFitness(cg)
    plan = exhaustive_run(cg, ev, 1)
    candidates = [(1, 0), (0, 1)]
    values = [ev(c) for c in candidates]
    assert ev(plan) == min(values)


def test_exhaustive_tie_breaks_to_lexicographically_smallest():
    cg = condense(two_parallel_graph())
    ev = ExactFitness(cg)
    assert ev((1, 0)) == ev((0, 1))
    assert exhaustive_run(cg, ev, 1) == (0, 1)


def test_exhaustive_budget_guard():
    cg = condense(greedy_trap_graph())
    with pytest.raises(DefenseConfigError):
        exhaustive_run(cg, ExactFitness(cg), 2, enumeration_budget=5)


def test_greedy_single_pick_equals_exhaustive():
    cg = condense(textbook_kernel_graph())
    ev = ExactFitness(cg)
    assert ev(greedy_run(cg, ev, 1)) == ev(exhaustive_run(cg, ev, 1))


def test_greedy_full_budget_blocks_everything():
    cg = condense(textbook_kernel_graph())
    ev = ExactFitness(cg)
    assert greedy_run(cg, ev, 2) == (1, 1)


def test_greedy_is_trapped_on_adversarial_instance():
    cg = condense(greedy_trap_graph())
    ev = ExactFitness(cg)
    greedy = greedy_run(cg, ev, 2)
    optimal = exhaustive_run(cg, ev, 2)
    assert optimal == (0, 1, 1, 0)
    assert ev(greedy) > ev(optimal) + 0.01


def test_budget_larger_than_edges_raises():
    cg = condense(textbook_kernel_graph())
    ev = ExactFitness(cg)
    for k in (3, -1):
        for run in (greedy_run, exhaustive_run):
            with pytest.raises(DefenseConfigError):
                run(cg, ev, k)
        with pytest.raises(DefenseConfigError):
            edo_run(cg, ev, k, mu=4, iterations=1, rng=np.random.default_rng(0))
    # a budget in range, but no population or a negative iteration count
    for run, mu, iterations in ((edo_run, 0, 1), (vec_run, 4, -1)):
        with pytest.raises(DefenseConfigError, match="positive population"):
            run(cg, ev, 1, mu=mu, iterations=iterations, rng=np.random.default_rng(0))


def test_edo_reaches_exhaustive_optimum():
    cg = condense(greedy_trap_graph())
    ev = ExactFitness(cg)
    optimum = ev(exhaustive_run(cg, ev, 2))
    pop = edo_run(cg, ev, 2, mu=10, iterations=200, rng=np.random.default_rng(0))
    assert abs(best_member(pop).fitness - optimum) <= 1e-12


def test_edo_population_invariants(tmp_path):
    # a long search on the trap graph, then short searches on the desk graph
    # that reject every child: the initial members above the band must
    # still be gone when the search returns
    trap = condense(greedy_trap_graph())
    desk = saved_instance(tmp_path, *GRAPH_D)
    cases = [(trap, 8, 120, 1), (desk, 16, 1, 3), (desk, 16, 2, 18), (desk, 16, 3, 26)]
    for cg, mu, iterations, seed in cases:
        ev = ExactFitness(cg)
        pop = edo_run(cg, ev, 2, mu, iterations, rng=np.random.default_rng(seed))
        assert 1 <= len(pop) <= mu
        assert all(sum(m.bits) == 2 for m in pop)
        best = min(m.fitness for m in pop)
        assert all(m.fitness <= best + FITNESS_BAND + 1e-12 for m in pop)


@pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=["inf", "nan"])
@pytest.mark.parametrize(
    "search",
    [
        lambda cg, ev: edo_run(cg, ev, 2, 4, 5, rng=np.random.default_rng(0)),
        lambda cg, ev: vec_run(cg, ev, 2, 4, 5, rng=np.random.default_rng(0)),
        lambda cg, ev: greedy_run(cg, ev, 2),
        lambda cg, ev: exhaustive_run(cg, ev, 2),
    ],
    ids=["edo", "vec", "greedy", "exhaustive"],
)
def test_a_fitness_that_is_not_finite_is_refused(search, value):
    cg = condense(greedy_trap_graph())
    with pytest.raises(ValueError, match=f"fitness of plan [01]{{4}} is {value!r}"):
        search(cg, lambda plan: value)


def test_edo_zero_iterations_returns_random_population():
    cg = condense(greedy_trap_graph())
    ev = ExactFitness(cg)
    pop = edo_run(cg, ev, 2, mu=6, iterations=0, rng=np.random.default_rng(2))
    assert len(pop) == 6
    assert all(sum(m.bits) == 2 for m in pop)


def test_edo_is_deterministic_per_seed():
    cg = condense(greedy_trap_graph())
    ev = ExactFitness(cg)
    runs = [
        edo_run(cg, ev, 2, mu=6, iterations=80, rng=np.random.default_rng(5))
        for _ in range(2)
    ]
    assert [(m.bits, m.fitness) for m in runs[0]] == [
        (m.bits, m.fitness) for m in runs[1]
    ]


def test_vec_reaches_optimum_and_keeps_capacity():
    cg = condense(greedy_trap_graph())
    ev = ExactFitness(cg)
    optimum = ev(exhaustive_run(cg, ev, 2))
    pop = vec_run(cg, ev, 2, mu=10, iterations=200, rng=np.random.default_rng(0))
    assert len(pop) == 10
    assert best_member(pop).fitness >= optimum - 1e-9
    assert abs(best_member(pop).fitness - optimum) <= 1e-12


def test_vec_drops_the_worst_member():
    cg = condense(two_parallel_graph())
    ev = ExactFitness(cg)
    # k=1 on two symmetric paths: only two plans exist, both optimal, so
    # every insertion keeps fitness flat and capacity must hold at mu
    pop = vec_run(cg, ev, 1, mu=3, iterations=50, rng=np.random.default_rng(4))
    assert len(pop) == 3
    assert all(m.fitness == pytest.approx(0.7, abs=1e-12) for m in pop)


def test_edo_spreads_blocks_more_evenly_than_vec():
    # all plans tie in fitness here, so the two survivor rules are the only
    # difference: diversity selection should balance per-edge usage better
    cg = condense(four_parallel_graph())
    ev = ExactFitness(cg)

    def spread(pop):
        counts = np.sum([m.bits for m in pop], axis=0)
        used = counts[counts > 0]
        return int(used.max() - used.min()) if len(used) else 0

    edo_total = 0
    vec_total = 0
    for seed in range(10):
        edo_total += spread(
            edo_run(cg, ev, 2, mu=12, iterations=150, rng=np.random.default_rng(seed))
        )
        vec_total += spread(
            vec_run(cg, ev, 2, mu=12, iterations=150, rng=np.random.default_rng(seed))
        )
    assert edo_total <= vec_total


def test_population_snapshot_round_trip(tmp_path):
    cg = condense(greedy_trap_graph())
    ev = ExactFitness(cg)
    pop = edo_run(cg, ev, 2, mu=5, iterations=40, rng=np.random.default_rng(9))
    path = str(tmp_path / "pop.txt")
    save_population(path, pop)
    assert load_population(path) == pop
    # an instance without a block-worthy edge writes rows " <fitness>"
    flat = [Member((), 0.3383), Member((), 0.25)]
    save_population(path, flat)
    assert load_population(path) == flat


def test_population_snapshot_rejects_malformed(tmp_path):
    path = tmp_path / "pop.txt"
    path.write_text("not a population\n")
    with pytest.raises(PopulationFormatError):
        load_population(str(path))
    path.write_text("adpop 1 2 3\n101 0.25\n")
    with pytest.raises(PopulationFormatError):
        load_population(str(path))
    path.write_text("adpop 1 1 3\n1x1 0.25\n")
    with pytest.raises(PopulationFormatError):
        load_population(str(path))
    path.write_text("adpop 1 1 0\n0.25\n")
    with pytest.raises(PopulationFormatError):
        load_population(str(path))
    path.write_text("adpop 1 -1 3\n")
    with pytest.raises(PopulationFormatError, match="bad header counts"):
        load_population(str(path))
    path.write_text(f"adpop 1 1 3\n101 0.{'5' * 70}\n")
    with pytest.raises(PopulationFormatError, match="line 2: row longer than 66"):
        load_population(str(path))
    # blank lines are no rows
    path.write_text("adpop 1 2 3\n\n101 0.25\n   \n\n011 0.5\n\n")
    rows = [Member((1, 0, 1), 0.25), Member((0, 1, 1), 0.5)]
    assert load_population(str(path)) == rows


def test_population_refuses_an_oversized_file_in_bounded_memory(tmp_path):
    # a valid one-member snapshot extended to 64 MiB as a sparse file: the
    # NUL bytes past it are read no further than one row past the count
    path = tmp_path / "pop.txt"
    save_population(str(path), [Member((1, 0, 1), 0.25)])
    with open(path, "r+b") as fh:
        fh.truncate(64 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(
            PopulationFormatError, match="expected 1 members, found more"
        ):
            load_population(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("fitness", ["nan", "inf", "-inf", "1e999"])
def test_a_population_row_with_a_non_finite_fitness_is_refused(tmp_path, fitness):
    path = tmp_path / "pop.txt"
    path.write_text(f"adpop 1 2 3\n101 0.25\n011 {fitness}\n")
    with pytest.raises(PopulationFormatError, match=f"line 3: fitness {fitness} "):
        load_population(str(path))


@pytest.mark.parametrize(
    "content", [b"adpop 1 1 3\n101 0.2\xe9\n", None, "directory"],
    ids=["non-ascii", "missing", "directory"],
)
def test_an_unreadable_population_file_is_refused_by_name(tmp_path, content):
    path = tmp_path / "pop.txt"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    with pytest.raises(PopulationFormatError, match=f"cannot read population {path}"):
        load_population(str(path))
