"""Independent reference implementations used to cross-check the package."""
from __future__ import annotations

from itertools import accumulate

from adgame.kernel import CondensedGraph
from adgame.mdp import (
    FAILED,
    SUCCESS,
    UNATTEMPTED,
    State,
    admissible_actions,
    terminal_value,
    transition,
)


class OracleBudgetExceeded(Exception):
    """The brute-force tree grew past the node budget for this instance."""


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
    cg: CondensedGraph, s: State, action: int
) -> tuple[tuple[tuple[State, float], ...], float, tuple[float, ...]]:
    """Outcomes, detection mass and running sums of attempting ``action``,
    walked on trit states: a failure fails every unattempted NSP sharing the
    edge, failures that fail the same NSPs merge, and success comes last."""
    acc: dict[State, float] = {}
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
