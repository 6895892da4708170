"""Attacker decision process: transitions, terminal values, and exact DP."""
from __future__ import annotations

import itertools
import os
from dataclasses import replace

import pytest

from adgame.config import ExperimentConfig
from adgame.graph import save_graph
from adgame.kernel import condense
from adgame.mdp import (
    ExactSolver,
    InadmissibleActionError,
    StateSpaceLimitError,
    admissible_actions,
    argmax,
    dp_value,
    expand,
    initial_state,
    terminal_value,
    transition,
)
from adgame.pipeline import build_source_graph, prepare_instance

from instances import (
    chain_graph,
    random_instance,
    shared_suffix_graph,
    textbook_kernel_graph,
    two_parallel_graph,
)
from oracles import (
    FAILED,
    SUCCESS,
    UNATTEMPTED,
    expectimax_value,
    reachable_states,
    state_of,
    trit_transition,
    trits_of,
)

U, S, F = UNATTEMPTED, SUCCESS, FAILED


def test_shared_edge_transition_golden():
    # Both NSPs walk the shared final edge; failing it fails both at once.
    cg = condense(shared_suffix_graph(p_d=0.1, p_f=0.2))
    dist = transition(cg, state_of(cg, (U, U)), 0)
    got = {trits_of(cg, s): p for s, p in dist.outcomes}
    assert abs(got[(F, U)] - 0.34) <= 1e-12
    assert abs(got[(F, F)] - 0.098) <= 1e-12
    assert abs(got[(S, U)] - 0.343) <= 1e-12
    assert len(got) == 3
    assert abs(dist.detect_prob - 0.219) <= 1e-12
    assert abs(dist.total() - 1.0) <= 1e-12


def test_transition_certain_single_edge():
    cg = condense(two_parallel_graph(p_d=0.0, p_f=0.0))
    dist = transition(cg, state_of(cg, (U, U)), 0)
    assert dist.outcomes == ((state_of(cg, (S, U)), 1.0),)
    assert dist.detect_prob == 0.0


def test_transition_certain_failure_fails_all_sharers():
    cg = condense(shared_suffix_graph(p_d=0.1, p_f=0.2))
    g = cg.graph
    shared = cg.bw_edges[0]
    edges = list(g.edges)
    edges[shared] = type(edges[shared])(
        src=edges[shared].src,
        dst=edges[shared].dst,
        kind=edges[shared].kind,
        p_d=0.0,
        p_f=1.0,
        blockable=True,
    )
    import dataclasses

    cg2 = condense(dataclasses.replace(g, edges=tuple(edges)))
    dist = transition(cg2, state_of(cg2, (U, U)), 0)
    got = {trits_of(cg2, s): p for s, p in dist.outcomes}
    assert abs(got[(F, F)] - 0.49) <= 1e-12
    assert (S, U) not in got
    assert abs(dist.total() - 1.0) <= 1e-12


def test_initial_state_blocks_shared_paths_together():
    cg = condense(shared_suffix_graph())
    assert trits_of(cg, initial_state(cg)) == (U, U)
    assert trits_of(cg, initial_state(cg, [1])) == (F, F)
    assert trits_of(cg, initial_state(cg, [0])) == (U, U)


def test_initial_state_only_touches_matching_block_worthy():
    cg = condense(textbook_kernel_graph())
    by_pair = {
        (cg.graph.edges[e].src, cg.graph.edges[e].dst): i
        for i, e in enumerate(cg.bw_edges)
    }
    plan = [0] * len(cg.bw_edges)
    plan[by_pair[("a", "e")]] = 1
    s = trits_of(cg, initial_state(cg, plan))
    for p in cg.nsps:
        if p.nodes == ("a", "e", "f"):
            assert s[p.id] == F
        else:
            assert s[p.id] == U


def test_initial_state_rejects_wrong_length():
    cg = condense(shared_suffix_graph())
    with pytest.raises(ValueError):
        initial_state(cg, [1, 0])


def test_admissible_actions_track_checkpoints():
    cg = condense(textbook_kernel_graph())
    start = initial_state(cg)
    first = admissible_actions(cg, start)
    assert [cg.nsps[a].source for a in first] == ["s"]
    (entry_nsp,) = first
    after = list(trits_of(cg, start))
    after[entry_nsp] = S
    owned_sources = {
        cg.nsps[a].source for a in admissible_actions(cg, state_of(cg, tuple(after)))
    }
    assert owned_sources == {"a"}


def test_admissible_actions_empty_when_everything_failed():
    cg = condense(two_parallel_graph())
    assert admissible_actions(cg, state_of(cg, (F, F))) == ()


def test_terminal_values():
    cg = condense(shared_suffix_graph())
    assert terminal_value(cg, state_of(cg, (S, U))) == 1.0
    assert terminal_value(cg, state_of(cg, (F, F))) == 0.0
    assert terminal_value(cg, state_of(cg, (U, U))) is None
    # No admissible action left but DA not reached: the attack fizzles.
    cg2 = condense(textbook_kernel_graph())
    s = [F] * cg2.n_nsps
    assert terminal_value(cg2, state_of(cg2, tuple(s))) == 0.0


def test_dp_value_on_chain_is_success_product():
    cg = condense(chain_graph([(0.1, 0.2), (0.1, 0.2)]))
    assert abs(dp_value(cg) - 0.49) <= 1e-12


def test_dp_value_two_parallel_entries():
    # Try one path (0.7), on failure (0.2) try the other (0.7): 0.84.
    cg = condense(two_parallel_graph(p_d=0.1, p_f=0.2))
    assert abs(dp_value(cg) - 0.84) <= 1e-12


def test_dp_value_matches_expectimax_on_shared_suffix():
    cg = condense(shared_suffix_graph())
    start = initial_state(cg)
    assert abs(dp_value(cg, start) - expectimax_value(cg, start)) <= 1e-12
    # Attacking the short path first risks less detection mass.
    assert abs(dp_value(cg, start) - 0.5586) <= 1e-12


def test_dp_best_action_breaks_ties_low():
    cg = condense(two_parallel_graph())
    solver = ExactSolver(cg)
    _, action = solver.value_and_action(initial_state(cg))
    assert action == 0


def test_dp_value_matches_bruteforce_on_random_instances():
    checked = 0
    for seed in range(200):
        cg = random_instance(seed, max_nsps=7)
        if cg is None:
            continue
        start = initial_state(cg)
        got = dp_value(cg, start)
        want = expectimax_value(cg, start, budget=400_000)
        assert abs(got - want) <= 1e-9
        checked += 1
        if checked >= 25:
            break
    assert checked >= 25


def test_unfailing_a_path_never_hurts():
    for seed in range(120):
        cg = random_instance(seed, max_nsps=7)
        if cg is None or cg.n_nsps < 2:
            continue
        solver = ExactSolver(cg)
        base = [U] * cg.n_nsps
        base[cg.n_nsps // 2] = F
        relaxed = list(base)
        relaxed[cg.n_nsps // 2] = U
        assert (
            solver.value(state_of(cg, tuple(base)))
            <= solver.value(state_of(cg, tuple(relaxed))) + 1e-12
        )


def _small_instances(n_seeds):
    return [
        cg for cg in (random_instance(seed, max_nsps=7) for seed in range(n_seeds))
        if cg is not None
    ]


def test_transition_mass_sums_to_one_everywhere():
    for cg in _small_instances(60):
        for s in reachable_states(cg):
            for a in admissible_actions(cg, s):
                dist = transition(cg, s, a)
                assert abs(dist.total() - 1.0) <= 1e-12
                assert all(p > 0.0 for _, p in dist.outcomes)


def test_expand_is_the_checked_transition_of_every_admissible_action():
    for cg in _small_instances(60):
        for s in reachable_states(cg):
            expanded = expand(cg, s)
            assert expanded == [
                (a, transition(cg, s, a)) for a in admissible_actions(cg, s)
            ]
            for _, dist in expanded:
                running, acc = [], 0.0
                for _, p in dist.outcomes:
                    acc += p
                    running.append(acc)
                assert dist.cumulative == tuple(running)


def test_transition_is_the_trit_walk_bit_for_bit():
    # covers the success outcome that lands on a failure outcome's key:
    # the NSP's terminal is owned and it is the failing edge's only live sharer
    same_key = 0
    for cg in _small_instances(60):
        for s in reachable_states(cg):
            for a in admissible_actions(cg, s):
                dist = transition(cg, s, a)
                want = trit_transition(cg, trits_of(cg, s), a)
                got = tuple((trits_of(cg, nxt), p) for nxt, p in dist.outcomes)
                assert (got, dist.detect_prob, dist.cumulative) == want
                keys = [nxt[:2] for nxt, _ in dist.outcomes]
                same_key += len(set(keys)) < len(keys)
    assert same_key > 0


def _trit_memo(cg, starts):
    """(value, action) of every trit state reachable from ``starts``, by a
    memo keyed on the trit state itself over the trit walk: the reference
    that the solver's (owned nodes, live NSPs) keys must reproduce."""
    memo = {}

    def solve(s):
        if s not in memo:
            tv = terminal_value(cg, state_of(cg, s))
            if tv is not None:
                memo[s] = (tv, None)
            else:
                best_a, best_q = None, -1.0
                for a in admissible_actions(cg, state_of(cg, s)):
                    outcomes, _, _ = trit_transition(cg, s, a)
                    q = sum(p * solve(nxt)[0] for nxt, p in outcomes)
                    if q > best_q:
                        best_a, best_q = a, q
                memo[s] = (best_q, best_a)
        return memo[s]

    for s in starts:
        solve(s)
    return memo


def test_solver_on_owned_and_live_masks_is_bit_identical_to_a_trit_memo():
    checked = 0
    for cg in _small_instances(40):
        n_bw = len(cg.bw_edges)
        plans = [None] + [tuple(int(i == j) for i in range(n_bw)) for j in range(n_bw)]
        ref = _trit_memo(cg, [trits_of(cg, initial_state(cg, plan)) for plan in plans])
        solver = ExactSolver(cg)
        by_key = {}
        for s, (value, action) in ref.items():
            got_value, got_action = solver.value_and_action(state_of(cg, s))
            assert (got_value.hex(), got_action) == (value.hex(), action)
            by_key.setdefault(state_of(cg, s)[:2], set()).add((value.hex(), action))
        assert all(len(answers) == 1 for answers in by_key.values())
        assert solver.states_solved == len(by_key)
        checked += len(ref)
    assert checked > 1000


@pytest.mark.filterwarnings("ignore:dropping entry nodes")
@pytest.mark.parametrize(
    "fields,seed,n_plans,n_states",
    [
        (dict(n_computers=40, entry_pool_size=8, entry_count=4), 1, 46, 6_256),
        (dict(n_computers=30, entry_pool_size=6, entry_count=3), 0, 67, 62_176),
    ],
    ids=["graph-D", "graph-B"],
)
def test_states_solved_counts_owned_and_live_keys(tmp_path, fields, seed, n_plans, n_states):
    # the benchmark's graphs, generated, saved and loaded as perfbench does
    base = ExperimentConfig(**fields)
    path = os.path.join(tmp_path, "graph.txt")
    save_graph(build_source_graph(base, seed), path)
    cg = prepare_instance(replace(base, graph_file=path), seed).cg
    n_bw = len(cg.bw_edges)
    plans = [
        tuple(int(i in chosen) for i in range(n_bw))
        for k in (0, 1, 2)
        for chosen in itertools.combinations(range(n_bw), k)
    ]
    assert len(plans) == n_plans
    solver = ExactSolver(cg)
    for plan in plans:
        solver.value(initial_state(cg, plan))
    assert solver.states_solved == n_states


def test_argmax_breaks_ties_low_and_starts_below_zero():
    assert argmax([(0, 0.25), (1, 0.5), (2, 0.5), (3, 0.125)]) == (1, 0.5)
    assert argmax([(0, 0.0), (1, 0.0)]) == (0, 0.0)
    assert argmax([]) == (None, -1.0)


def test_transition_rejects_inadmissible_action():
    cg = condense(shared_suffix_graph())
    with pytest.raises(InadmissibleActionError):
        transition(cg, state_of(cg, (S, U)), 0)
    for action in (99, -1, None, 1.5):
        with pytest.raises(InadmissibleActionError):
            transition(cg, state_of(cg, (U, U)), action)


def test_memo_budget_raises_resource_error():
    cg = condense(textbook_kernel_graph())
    solver = ExactSolver(cg, memo_limit=3)
    with pytest.raises(StateSpaceLimitError) as err:
        solver.value(initial_state(cg))
    assert "approximate" in str(err.value)


def test_solver_memo_is_reused_across_queries():
    cg = condense(textbook_kernel_graph())
    solver = ExactSolver(cg)
    solver.value(initial_state(cg))
    states_after_first = solver.states_solved
    solver.value(initial_state(cg))
    assert solver.states_solved == states_after_first


def test_states_and_trit_states_correspond_one_to_one():
    # guards every cache keyed on states: the net policy's, the simulator's
    # groups and c03's expectimax memo
    checked = 0
    for cg in _small_instances(60):
        n_bw = len(cg.bw_edges)
        plans = [None] + [tuple(int(i == j) for i in range(n_bw)) for j in range(n_bw)]
        states = reachable_states(cg, plans)
        trits = {trits_of(cg, s) for s in states}
        assert len(trits) == len(states)
        assert all(state_of(cg, trits_of(cg, s)) == s for s in states)
        checked += len(states)
    assert checked > 1000
