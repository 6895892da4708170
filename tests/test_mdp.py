"""Attacker decision process: transitions, terminal values, and exact DP."""
from __future__ import annotations

import pytest

from adgame.kernel import condense
from adgame.mdp import (
    ExactSolver,
    FAILED,
    InadmissibleActionError,
    StateSpaceLimitError,
    SUCCESS,
    UNATTEMPTED,
    admissible_actions,
    dp_value,
    initial_state,
    terminal_value,
    transition,
)

from instances import (
    build_game,
    chain_graph,
    random_instance,
    shared_suffix_graph,
    textbook_kernel_graph,
    two_parallel_graph,
)
from oracles import expectimax_value

U, S, F = UNATTEMPTED, SUCCESS, FAILED


def test_shared_edge_transition_golden():
    # Both NSPs walk the shared final edge; failing it fails both at once.
    cg = condense(shared_suffix_graph(p_d=0.1, p_f=0.2))
    dist = transition(cg, (U, U), 0)
    got = dict(dist.outcomes)
    assert abs(got[(F, U)] - 0.34) <= 1e-12
    assert abs(got[(F, F)] - 0.098) <= 1e-12
    assert abs(got[(S, U)] - 0.343) <= 1e-12
    assert len(got) == 3
    assert abs(dist.detect_prob - 0.219) <= 1e-12
    assert abs(dist.total() - 1.0) <= 1e-12


def test_transition_certain_single_edge():
    cg = condense(two_parallel_graph(p_d=0.0, p_f=0.0))
    dist = transition(cg, (U, U), 0)
    assert dist.outcomes == (((S, U), 1.0),)
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
    dist = transition(cg2, (U, U), 0)
    got = dict(dist.outcomes)
    assert abs(got[(F, F)] - 0.49) <= 1e-12
    assert (S, U) not in got
    assert abs(dist.total() - 1.0) <= 1e-12


def test_initial_state_blocks_shared_paths_together():
    cg = condense(shared_suffix_graph())
    assert initial_state(cg) == (U, U)
    assert initial_state(cg, [1]) == (F, F)
    assert initial_state(cg, [0]) == (U, U)


def test_initial_state_only_touches_matching_block_worthy():
    cg = condense(textbook_kernel_graph())
    by_pair = {
        (cg.graph.edges[e].src, cg.graph.edges[e].dst): i
        for i, e in enumerate(cg.bw_edges)
    }
    plan = [0] * len(cg.bw_edges)
    plan[by_pair[("a", "e")]] = 1
    s = initial_state(cg, plan)
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
    after = list(start)
    after[entry_nsp] = S
    owned_sources = {cg.nsps[a].source for a in admissible_actions(cg, tuple(after))}
    assert owned_sources == {"a"}


def test_admissible_actions_empty_when_everything_failed():
    cg = condense(two_parallel_graph())
    assert admissible_actions(cg, (F, F)) == ()


def test_terminal_values():
    cg = condense(shared_suffix_graph())
    assert terminal_value(cg, (S, U)) == 1.0
    assert terminal_value(cg, (F, F)) == 0.0
    assert terminal_value(cg, (U, U)) is None
    # No admissible action left but DA not reached: the attack fizzles.
    cg2 = condense(textbook_kernel_graph())
    s = [F] * cg2.n_nsps
    assert terminal_value(cg2, tuple(s)) == 0.0


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
        assert solver.value(tuple(base)) <= solver.value(tuple(relaxed)) + 1e-12


def test_transition_mass_sums_to_one_everywhere():
    for seed in range(60):
        cg = random_instance(seed, max_nsps=7)
        if cg is None:
            continue
        seen = {initial_state(cg)}
        frontier = [initial_state(cg)]
        while frontier:
            s = frontier.pop()
            if terminal_value(cg, s) is not None:
                continue
            for a in admissible_actions(cg, s):
                dist = transition(cg, s, a)
                assert abs(dist.total() - 1.0) <= 1e-12
                for nxt, p in dist.outcomes:
                    assert p > 0.0
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)


def test_transition_rejects_inadmissible_action():
    cg = condense(shared_suffix_graph())
    with pytest.raises(InadmissibleActionError):
        transition(cg, (S, U), 0)
    for action in (99, -1, None, 1.5):
        with pytest.raises(InadmissibleActionError):
            transition(cg, (U, U), action)


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
