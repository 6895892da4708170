"""Independent reference implementations used to cross-check the package.

Tests write states as trit tuples, one entry per NSP: ``UNATTEMPTED`` (0),
``SUCCESS`` (+1) or ``FAILED`` (-1).  ``state_of`` and ``trits_of`` convert
between them and the package's (owned nodes, live NSPs, successful NSPs)
bitmasks; ``trit_transition`` walks the trit states themselves.
"""
from __future__ import annotations

from itertools import accumulate

from adgame.kernel import CondensedGraph
from adgame.mdp import (
    State,
    admissible_actions,
    initial_state,
    terminal_value,
    transition,
)

UNATTEMPTED, SUCCESS, FAILED = 0, 1, -1

Trits = tuple[int, ...]


class OracleBudgetExceeded(Exception):
    """The brute-force tree grew past the node budget for this instance."""


def state_of(cg: CondensedGraph, trits: Trits) -> State:
    """The package state of a trit state: the owned nodes are the entries
    plus the terminals of successful NSPs."""
    if len(trits) != cg.n_nsps:
        raise ValueError(f"{len(trits)} trits for {cg.n_nsps} NSPs")
    owned, live, won = cg.step_masks.entry, 0, 0
    for i, t in enumerate(trits):
        if t == UNATTEMPTED:
            live |= 1 << i
        elif t == SUCCESS:
            won |= 1 << i
            owned |= cg.step_masks.terminal[i]
        elif t != FAILED:
            raise ValueError(f"NSP {i} has status {t!r}")
    return owned, live, won


def trits_of(cg: CondensedGraph, s: State) -> Trits:
    """The trit state of a package state."""
    _, live, won = s
    return tuple(
        SUCCESS if won >> i & 1 else UNATTEMPTED if live >> i & 1 else FAILED
        for i in range(cg.n_nsps)
    )


def reachable_states(cg: CondensedGraph, plans=(None,)) -> set[State]:
    """Every state the game can reach from the initial states of ``plans``
    (default: the unblocked start)."""
    seen = {initial_state(cg, plan) for plan in plans}
    frontier = list(seen)
    while frontier:
        s = frontier.pop()
        if terminal_value(cg, s) is not None:
            continue
        for a in admissible_actions(cg, s):
            for nxt, _ in transition(cg, s, a).outcomes:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen


def expectimax_value(
    cg: CondensedGraph, state: State, budget: int = 3_000_000
) -> float:
    """Attacker value by plain recursive expectimax, no memoization.

    Walks the full game tree, so it is only usable on small instances;
    ``budget`` caps the number of visited tree nodes.
    """
    visited = 0

    def rec(s: State) -> float:
        nonlocal visited
        visited += 1
        if visited > budget:
            raise OracleBudgetExceeded(f"more than {budget} tree nodes")
        leaf = terminal_value(cg, s)
        if leaf is not None:
            return leaf
        best = 0.0
        for action in admissible_actions(cg, s):
            dist = transition(cg, s, action)
            q = 0.0
            for nxt, p in dist.outcomes:
                q += p * rec(nxt)
            best = max(best, q)
        return best

    return rec(state)


def trit_transition(
    cg: CondensedGraph, s: Trits, action: int
) -> tuple[tuple[tuple[Trits, float], ...], float, tuple[float, ...]]:
    """Outcomes, detection mass and running sums of attempting ``action``,
    walked on trit states: a failure fails every unattempted NSP sharing the
    edge, failures that fail the same NSPs merge, and success comes last."""
    acc: dict[Trits, float] = {}
    detect = 0.0
    prefix = 1.0
    for edge_id in cg.nsps[action].edges:
        e = cg.graph.edges[edge_id]
        detect += prefix * e.p_d
        if e.p_f > 0.0:
            failed = list(s)
            for nsp_id in cg.edge_to_nsps[edge_id]:
                if failed[nsp_id] == UNATTEMPTED:
                    failed[nsp_id] = FAILED
            key = tuple(failed)
            acc[key] = acc.get(key, 0.0) + prefix * e.p_f
        prefix *= e.p_s
        if prefix <= 0.0:
            prefix = 0.0
            break
    if prefix > 0.0:
        succeeded = list(s)
        succeeded[action] = SUCCESS
        acc[tuple(succeeded)] = prefix
    return tuple(acc.items()), detect, tuple(accumulate(acc.values()))
