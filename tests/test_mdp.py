"""Attacker decision process: transitions, terminal values, and exact DP."""
from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from adgame.kernel import condense
from adgame.mdp import (
    ExactSolver,
    InadmissibleActionError,
    StateSpaceLimitError,
    _moves,
    _terminal,
    admissible_actions,
    argmax,
    dp_value,
    expand,
    initial_state,
    key_floor_log2,
    terminal_value,
    transition,
)

from instances import (
    GRAPH_B,
    GRAPH_D,
    build_game,
    chain_graph,
    random_instance,
    saved_instance,
    shared_suffix_graph,
    textbook_kernel_graph,
    two_parallel_graph,
)
from oracles import (
    FAILED,
    SUCCESS,
    UNATTEMPTED,
    ReferenceSolver,
    expectimax_value,
    reachable_states,
    reference_walk,
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
    assert abs(dist.detect_prob + dist.cumulative[-1] - 1.0) <= 1e-12


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
    assert abs(dist.detect_prob + dist.cumulative[-1] - 1.0) <= 1e-12


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


def test_terminal_value_screens_on_live_entry_moves():
    # a live NSP out of an entry settles "an action exists" without the
    # owned-node walk; states with every entry NSP dead take the walk
    screened = walked = walked_open = 0
    for seed in range(60):
        cg = random_instance(seed)
        if cg is None:
            continue
        t = cg.step_masks
        for s in reachable_states(cg):
            owned, live, _ = s
            assert terminal_value(cg, s) == _terminal(
                t, owned, live, _moves(t, owned, live)
            )
            if live & t.entry_out:
                screened += 1
            else:
                walked += 1
                walked_open += _moves(t, owned, live) != 0
    assert screened > 0 and walked > 0 and walked_open > 0


def test_transition_mass_sums_to_one_everywhere():
    for cg in _small_instances(60):
        for s in reachable_states(cg):
            for a in admissible_actions(cg, s):
                dist = transition(cg, s, a)
                assert abs(dist.detect_prob + dist.cumulative[-1] - 1.0) <= 1e-12
                assert all(p > 0.0 for _, p in dist.outcomes)


def test_expand_is_the_checked_transition_of_every_admissible_action():
    for cg in _small_instances(60):
        for s in reachable_states(cg):
            dists = [transition(cg, s, a) for a in admissible_actions(cg, s)]
            assert expand(cg, s) == [
                (a, list(dist.outcomes))
                for a, dist in zip(admissible_actions(cg, s), dists)
            ]
            for dist in dists:
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


@pytest.mark.parametrize(
    "graph,n_plans,n_states",
    [(GRAPH_D, 46, 6_256), (GRAPH_B, 67, 62_176)],
    ids=["graph-D", "graph-B"],
)
def test_states_solved_counts_owned_and_live_keys(tmp_path, graph, n_plans, n_states):
    # the benchmark's graphs, generated, saved and loaded as perfbench does
    cg = saved_instance(tmp_path, *graph)
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


def _roots(cg, budget):
    n_bw = len(cg.bw_edges)
    return [
        initial_state(cg, tuple(int(i in chosen) for i in range(n_bw)))
        for k in range(budget + 1)
        for chosen in itertools.combinations(range(n_bw), k)
    ]


def test_key_floor_bounds_the_keys_a_fresh_solve_stores(tmp_path):
    # blocked plans included: blocking can kill an NSP counted at the
    # unblocked root, or leave a failing edge with one live sharer
    cases = [
        (saved_instance(tmp_path, *GRAPH_B), 1),
        (saved_instance(tmp_path, *GRAPH_D), 2),
    ]
    cases += [(cg, 2) for cg in _small_instances(80)]
    floors = []
    for cg, budget in cases:
        for root in _roots(cg, budget):
            m = key_floor_log2(cg, root)
            solver = ExactSolver(cg)
            solver.value(root)
            assert solver.states_solved >= 1 << m, (root, m)
            floors.append(m)
    assert len(floors) > 300 and max(floors) >= 4 and floors.count(0) > 0


def test_key_floor_counts_only_nsps_that_fail_alone():
    cg = condense(two_parallel_graph())
    assert key_floor_log2(cg, state_of(cg, (U, U))) == 2
    for trits in ((S, U), (F, F), (S, F)):  # terminal roots
        assert key_floor_log2(cg, state_of(cg, trits)) == 0
    # three entry NSPs whose one failable edge is shared: a failure kills
    # all three, so the solve stores 5 keys, fewer than 2**3
    for own_p_f, m in ((0.0, 0), (0.1, 3)):
        specs = [(e, "m", 0.1, own_p_f, False) for e in ("A", "B", "C")]
        cg = condense(build_game(specs + [("m", "da", 0.1, 0.2, True)], set("ABC")))
        assert cg.n_nsps == 3
        root = initial_state(cg)
        assert key_floor_log2(cg, root) == m
        solver = ExactSolver(cg)
        solver.value(root)
        assert solver.states_solved >= 1 << m
        assert own_p_f > 0.0 or solver.states_solved < 8


def test_a_root_past_its_key_floor_raises_before_storing_a_key():
    checked = 0
    for cg in _small_instances(80):
        for root in _roots(cg, 1):
            m = key_floor_log2(cg, root)
            if m == 0:
                continue
            solver = ExactSolver(cg, memo_limit=(1 << m) - 1)
            with pytest.raises(StateSpaceLimitError, match="approximate"):
                solver.value(root)
            assert solver.states_solved == 0
            # at the floor the solve may run: it raises only past the limit
            at_floor = ExactSolver(cg, memo_limit=1 << m)
            try:
                at_floor.value(root)
            except StateSpaceLimitError:
                assert at_floor.states_solved == 1 << m
            checked += 1
    assert checked > 50


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


def _memo_items(solver):
    """The memo in insertion order, values as ``float.hex``."""
    return [
        (key, value.hex(), action) for key, (value, action) in solver._memo.items()
    ]


def test_solver_memo_equals_the_walk_per_expansion_reference(tmp_path):
    # keys, values, actions and insertion order, on the benchmark's graphs
    # (every plan of budget <= 2) and on small random instances
    cases = [
        (saved_instance(tmp_path, *GRAPH_B), 2),
        (saved_instance(tmp_path, *GRAPH_D), 2),
    ]
    cases += [(cg, 1) for cg in _small_instances(60)]
    solvers = []
    for cg, budget in cases:
        solver, reference = ExactSolver(cg), ReferenceSolver(cg)
        assert solver.step_walks == 0
        for root in _roots(cg, budget):
            assert solver.value_and_action(root) == reference.value_and_action(root)
        assert _memo_items(solver) == _memo_items(reference)
        solvers.append(solver)
    assert sum(solver.states_solved for solver in solvers) > 70_000
    # graph B's keys walk only 26 distinct (action, live sharers) pairs
    assert (solvers[0].states_solved, solvers[0].step_walks) == (62_176, 26)


def _first_overflow(solver, roots):
    """The error of the first root that overflows the memo, or None."""
    try:
        for root in roots:
            solver.value_and_action(root)
    except StateSpaceLimitError as exc:
        return str(exc)
    return None


def test_solver_overflows_where_the_reference_does(tmp_path):
    # the same root overflows, after the same keys were stored in the same
    # order, for several memo limits below the key count
    cases = [saved_instance(tmp_path, *GRAPH_D)] + _small_instances(30)[:8]
    checked = 0
    for cg in cases:
        roots = _roots(cg, 2)
        full = ExactSolver(cg)
        assert _first_overflow(full, roots) is None
        n = full.states_solved
        for limit in sorted({1, 2, n // 3, n // 2, n - 1} - {0}):
            solver = ExactSolver(cg, memo_limit=limit)
            reference = ReferenceSolver(cg, memo_limit=limit)
            error = _first_overflow(solver, roots)
            assert error is not None and error == _first_overflow(reference, roots)
            assert _memo_items(solver) == _memo_items(reference)
            assert solver.states_solved <= limit
            checked += 1
    assert checked > 20


@functools.lru_cache(maxsize=None)
def _reachable(seed):
    cg = random_instance(seed, max_nsps=7)
    return cg, sorted(reachable_states(cg)) if cg is not None else []


def _rebuilds(solver, s, a):
    """``a``'s outcomes from ``s``, masses as ``float.hex``: the keys the
    solver's rule rebuilds from the step entry it stored and ``transition``'s
    states, next to the same two read off ``reference_walk``."""
    owned, live, won = s
    t = solver.cg.step_masks
    solver.value(s)  # expands s, so the entry of (a, U & span(a)) is stored
    remainders, masses, succeeded, detect = solver._steps[a][live & t.span[a]]
    keys = [(owned, r | (live & ~t.span[a])) for r in remainders]
    if succeeded:
        keys.append((owned | t.terminal[a], live & ~(1 << a)))
    dist = transition(solver.cg, s, a)
    walked, walked_detect, walked_success = reference_walk(t, owned, live, a)
    tags = [won] * len(walked)
    if walked_success:
        tags[-1] |= 1 << a
    got = (
        [(key, p.hex()) for key, p in zip(keys, masses, strict=True)],
        succeeded,
        detect.hex(),
        [(nxt, p.hex()) for nxt, p in dist.outcomes],
        dist.detect_prob.hex(),
    )
    want = (
        [(key, p.hex()) for key, p in walked],
        walked_success,
        walked_detect.hex(),
        [((*key, tag), p.hex()) for (key, p), tag in zip(walked, tags)],
        walked_detect.hex(),
    )
    return got, want


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 59), st.integers(0, 10**6), st.integers(0, 10**6))
@example(0, 20, 0)  # the success lands on a failure outcome's key
def test_step_entry_rebuilds_the_walk_bit_for_bit(seed, state_ix, action_ix):
    cg, states = _reachable(seed)
    if cg is None:
        return
    s = states[state_ix % len(states)]
    actions = admissible_actions(cg, s)
    if terminal_value(cg, s) is not None or not actions:
        return
    got, want = _rebuilds(ExactSolver(cg), s, actions[action_ix % len(actions)])
    assert got == want


def test_one_step_entry_serves_every_key_with_its_live_sharers():
    # one solver per instance, so most entries were built for another key;
    # the pinned example above is one of the success-on-a-failure-key cases
    same_key = served = 0
    for seed in range(20):
        cg, states = _reachable(seed)
        if cg is None:
            continue
        solver = ExactSolver(cg)
        for s in states:
            if terminal_value(cg, s) is not None:
                continue  # the solver expands no terminal key
            for a in admissible_actions(cg, s):
                got, want = _rebuilds(solver, s, a)
                assert got == want
                keys = [key for key, _ in got[0]]
                same_key += got[1] and keys[-1] in keys[:-1]
                served += 1
        assert solver.step_walks < served
    assert same_key > 0
    cg, states = _reachable(0)
    owned, live, _ = s = states[20]
    outs, _, succeeded = reference_walk(
        cg.step_masks, owned, live, admissible_actions(cg, s)[0]
    )
    assert succeeded and outs[-1][0] in [key for key, _ in outs[:-1]]
