"""Independent reference implementations used to cross-check the package.

Tests write states as trit tuples, one entry per NSP: ``UNATTEMPTED`` (0),
``SUCCESS`` (+1) or ``FAILED`` (-1).  ``state_of`` and ``trits_of`` convert
between them and the package's (owned nodes, live NSPs, successful NSPs)
bitmasks; ``trit_transition`` walks the trit states themselves.
``reference_walk`` is the edge walk over the whole live set, keyed on the
owned nodes; ``ReferenceSolver`` is the exact solver that runs it for every
admissible action of every key it expands.  ``reference_route_actions``
finds the route actions by a fixed point over node names.
``reference_simulate_on_original`` is the raw-edge Monte Carlo with the
full-width step: every run of a group reads its whole stretch of the path
at once.  ``reference_prune`` finds what ``prune`` keeps by one search per
node.  ``reference_removal`` is the survivor comparator of
``diversity_select_removal``, written as a plain minimum over members.
"""
from __future__ import annotations

import importlib
from itertools import accumulate

import numpy as np

from adgame.graph import DOMAIN_ADMIN, AttackGraph
from adgame.kernel import CondensedGraph
from adgame.mdp import (
    MEMO_LIMIT,
    State,
    StateSpaceLimitError,
    _ids,
    _moves,
    _terminal,
    admissible_actions,
    argmax,
    initial_state,
    key_floor_log2,
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


def reference_route_actions(cg: CondensedGraph, s: State) -> tuple[int, ...]:
    """The admissible NSPs ending at a node that reaches DA: DA itself while
    unowned, and any unowned node with a live NSP to such a node."""
    _, live, won = s
    owned = set(cg.graph.entry_nodes)
    owned.update(p.terminal for p in cg.nsps if won >> p.id & 1)
    reach = set() if cg.graph.da in owned else {cg.graph.da}
    grew = True
    while grew:
        grew = False
        for p in cg.nsps:
            if (
                live >> p.id & 1 and p.terminal in reach
                and p.source not in owned | reach
            ):
                reach.add(p.source)
                grew = True
    return tuple(a for a in admissible_actions(cg, s) if cg.nsps[a].terminal in reach)


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
    sharers: dict[int, list[int]] = {}
    for p in cg.nsps:
        for edge_id in p.edges:
            sharers.setdefault(edge_id, []).append(p.id)
    acc: dict[Trits, float] = {}
    detect = 0.0
    prefix = 1.0
    for edge_id in cg.nsps[action].edges:
        e = cg.graph.edges[edge_id]
        detect += prefix * e.p_d
        if e.p_f > 0.0:
            failed = list(s)
            for nsp_id in sharers[edge_id]:
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


def reference_walk(
    t, owned: int, live: int, action: int
) -> tuple[list[tuple[tuple[int, int], float]], float, bool]:
    """Outcome keys and masses of attempting ``action``, the detection mass,
    and whether the last outcome is the success.

    The walk carries the probability mass of passing every earlier edge.
    Failure at an edge kills every live NSP sharing it, so failures at
    different edges merge when they leave the same live set; they keep the
    order of their first edge.  The success comes last, unmerged.
    """
    failed: dict[int, float] = {}
    detect = 0.0
    prefix = 1.0
    for p_d, p_f, p_s, sharers in t.edges[action]:
        detect += prefix * p_d
        if p_f > 0.0:
            rest = live & ~sharers
            failed[rest] = failed.get(rest, 0.0) + prefix * p_f
        prefix *= p_s
        if prefix <= 0.0:
            prefix = 0.0
            break
    outcomes = [((owned, rest), p) for rest, p in failed.items()]
    if prefix > 0.0:
        outcomes.append(
            ((owned | t.terminal[action], live & ~(1 << action)), prefix)
        )
    mass = 0.0
    for _, p in outcomes:
        mass += p
    if abs(detect + mass - 1.0) > 1e-9:
        raise AssertionError(f"transition mass {detect + mass} != 1")
    return outcomes, detect, prefix > 0.0


class ReferenceSolver:
    """The exact solver with one ``reference_walk`` per admissible action of
    every expanded key, the admissible set rebuilt from the owned nodes and
    the actions scored through ``argmax``: the loop that ``ExactSolver``'s
    step table and reach cache must reproduce key for key, in insertion
    order."""

    def __init__(self, cg, memo_limit: int = MEMO_LIMIT):
        self.cg = cg
        self.memo_limit = memo_limit
        self._memo: dict[tuple[int, int], tuple[float, int | None]] = {}

    def value_and_action(self, s: State) -> tuple[float, int | None]:
        root = s[:2]
        memo = self._memo
        if root in memo:
            return memo[root]
        m = key_floor_log2(self.cg, s)
        if 1 << m > self.memo_limit:
            raise StateSpaceLimitError(
                f"the state needs at least 2**{m} distinct (owned nodes, live "
                f"NSPs) states, more than {self.memo_limit}; use the neural "
                "approximate solver instead"
            )
        t = self.cg.step_masks
        stack = [root]
        expanded: dict[tuple[int, int], list] = {}
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
            if top not in expanded:
                owned, live = top
                moves = _moves(t, owned, live)
                tv = _terminal(t, owned, live, moves)
                if tv is not None:
                    self._remember(top, tv, None)
                    stack.pop()
                    continue
                dists = expanded[top] = [
                    (a, reference_walk(t, owned, live, a)[0]) for a in _ids(moves)
                ]
                missing = [
                    nxt for _, outs in dists for nxt, _ in outs if nxt not in memo
                ]
                if missing:
                    stack.extend(missing)
                    continue
            best_action, best_value = argmax(
                (a, sum(p * memo[nxt][0] for nxt, p in outs))
                for a, outs in expanded.pop(top)
            )
            self._remember(top, best_value, best_action)
            stack.pop()
        return memo[root]

    def _remember(self, key: tuple[int, int], value: float, action: int | None) -> None:
        if key not in self._memo and len(self._memo) >= self.memo_limit:
            raise StateSpaceLimitError(
                f"more than {self.memo_limit} distinct (owned nodes, live NSPs) "
                "states; use the neural approximate solver instead"
            )
        self._memo[key] = (value, action)


def reference_simulate_on_original(cg, plan, policy, runs, seed, first_run=0):
    """``simulate_on_original`` with the step it had before its edge-by-edge
    walk: one 2-D gather of each run's whole stretch, the first stopping
    edge by ``argmax``, and one burn group per failing position in
    ascending order, all played through the simulators' own engine."""
    sim = importlib.import_module("adgame.simulate")
    blocked = set() if plan is None else {
        e for e, bit in zip(cg.bw_edges, plan) if bit
    }
    n_edges = len(cg.graph.edges)
    p_detect = np.empty(n_edges)
    p_stop = np.empty(n_edges)  # detection or failure, the walk ends either way
    for i, e in enumerate(cg.graph.edges):
        if i in blocked:
            p_detect[i], p_stop[i] = 0.0, 1.0
        else:
            p_detect[i], p_stop[i] = e.p_d, e.p_d + e.p_f
    nsp_edges = [np.asarray(p.edges, dtype=np.intp) for p in cg.nsps]
    t = cg.step_masks

    def step(state, ptr, action, tape, rows):
        owned, live, won = state
        edges = nsp_edges[action]
        width = len(edges)
        draws = tape[rows, ptr : ptr + width]
        stopped = draws < p_stop[edges]
        any_stop = stopped.any(axis=1)
        bit = 1 << int(action)
        nxt = (owned | t.terminal[action], live & ~bit, won | bit)
        yield (nxt, ptr + width), rows[~any_stop]
        if not any_stop.any():
            return
        hit_rows = rows[any_stop]
        hit_at = np.argmax(stopped, axis=1)[any_stop]
        u_hit = draws[any_stop, hit_at]
        detected = u_hit < p_detect[edges[hit_at]]
        # detected runs simply end; failed runs burn the edge's paths
        fail_rows = hit_rows[~detected]
        fail_at = hit_at[~detected]
        for pos in np.unique(fail_at):
            nxt = (owned, live & ~t.edges[action][pos][3], won)
            yield (nxt, ptr + int(pos) + 1), fail_rows[fail_at == pos]

    draws_per_run = sum(len(p.edges) for p in cg.nsps)
    return sim._play(cg, plan, policy, runs, seed, first_run, draws_per_run, step)


def reference_prune(g: AttackGraph) -> tuple[set[str], tuple[str, ...]]:
    """What ``prune`` keeps of a graph with entries, by brute force: the
    non-DA nodes on some walk from an entry to a DA candidate that enters no
    entry and leaves no DA candidate, and, sorted, the entries on no such
    walk."""
    da = {n.id for n in g.nodes if n.kind == DOMAIN_ADMIN}

    def reaches(src: str, goal: set[str]) -> bool:
        seen, todo = {src}, [src]
        while todo:
            v = todo.pop()
            if v in goal:
                return True
            if v in da:
                continue
            for e in g.edges:
                if e.src == v and e.dst not in seen and e.dst not in g.entry_nodes:
                    seen.add(e.dst)
                    todo.append(e.dst)
        return False

    kept = {
        n.id
        for n in g.nodes
        if n.id not in da
        and reaches(n.id, da)
        and any(reaches(v, {n.id}) for v in g.entry_nodes)
    }
    dead = tuple(sorted(v for v in g.entry_nodes if not reaches(v, da)))
    return kept, dead


def reference_removal(pop) -> int:
    """The index ``diversity_select_removal`` removes: the worst member
    (oldest on ties) when the last, freshly inserted one strictly beats all
    others, else the first member with the smallest ``(residual, born)``,
    where its residual is the per-edge block counts minus its own bits,
    sorted descending."""
    cand = pop[-1]
    if all(cand.fitness < m.fitness for m in pop[:-1]):
        return max(range(len(pop)), key=lambda j: (pop[j].fitness, -pop[j].born))
    counts = [sum(m.bits[i] for m in pop) for i in range(len(pop[0].bits))]

    def key(j):
        residual = sorted(
            (c - b for c, b in zip(counts, pop[j].bits)), reverse=True
        )
        return (residual, pop[j].born)

    return min(range(len(pop)), key=key)
