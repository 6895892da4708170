"""The attacker's decision process over non-splitting paths.

State is one trit per NSP: unattempted, successful, or failed.  From the
checkpoints it owns (entry nodes plus the terminals of successful NSPs) the
attacker picks an unattempted NSP and walks its edges in order.  Each edge
either detects the attacker (the whole attack ends, value 0), fails (the
edge is burned, which fails every NSP sharing it), or is passed.  Passing
every edge makes the NSP successful and its terminal a new checkpoint.

The attacker wins on reaching DA, so the value of a state is the maximal
probability of eventually completing an NSP that terminates at DA.  Values
are computed exactly by memoized dynamic programming over reachable states.

One edge walk gives the step law: ``expand`` pairs every admissible action
with its ``TransitionDistribution`` (for the solver and the net's backup),
and ``transition`` checks one chosen action first.  A distribution's
``cumulative`` table holds its outcome masses summed left to right; a
uniform ``u`` picks the first outcome whose sum exceeds it, else detection.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from numbers import Integral
from typing import Iterable, Sequence

from .kernel import CondensedGraph

UNATTEMPTED = 0
SUCCESS = 1
FAILED = -1

State = tuple[int, ...]

# default cap on the exact solver's memo, in distinct states
MEMO_LIMIT = 1_000_000


class InadmissibleActionError(Exception):
    """An NSP was attempted from a state that does not allow it."""


class StateSpaceLimitError(Exception):
    """The memo table outgrew its budget; use the neural approximate solver."""


def initial_state(cg: CondensedGraph, plan: Sequence[int] | None = None) -> State:
    """State before the attack starts, under an optional blocking plan.

    ``plan`` is a 0/1 vector over ``cg.bw_edges``; every NSP whose
    block-worthy edge is blocked starts out failed.
    """
    status = [UNATTEMPTED] * cg.n_nsps
    if plan is not None:
        if len(plan) != len(cg.bw_edges):
            raise ValueError(
                f"plan has {len(plan)} coordinates, expected {len(cg.bw_edges)}"
            )
        for i, bit in enumerate(plan):
            if bit:
                for nsp_id in cg.bw_edge_to_nsps[cg.bw_edges[i]]:
                    status[nsp_id] = FAILED
    return tuple(status)


def admissible_actions(cg: CondensedGraph, s: State) -> tuple[int, ...]:
    """Unattempted NSPs whose source the attacker owns: an entry node or the
    terminal of a successful NSP."""
    owned = set(cg.entry_nodes)
    for nsp_id, status in enumerate(s):
        if status == SUCCESS:
            owned.add(cg.nsps[nsp_id].terminal)
    return tuple(
        p.id for p in cg.nsps if s[p.id] == UNATTEMPTED and p.source in owned
    )


def is_admissible(cg: CondensedGraph, s: State, action: object) -> bool:
    """Whether ``action`` is one of ``admissible_actions(cg, s)``; anything
    but an integer is not, so callers can refuse it with their own error."""
    return isinstance(action, Integral) and action in admissible_actions(cg, s)


@dataclass(frozen=True)
class TransitionDistribution:
    """Outcome states with probabilities and their running sums, plus the
    absorbed detection mass."""

    outcomes: tuple[tuple[State, float], ...]
    detect_prob: float
    cumulative: tuple[float, ...]

    def total(self) -> float:
        return self.detect_prob + (self.cumulative[-1] if self.cumulative else 0.0)


def _walk(cg: CondensedGraph, s: State, action: int) -> TransitionDistribution:
    """Distribution over next states when attempting NSP ``action`` from ``s``.

    The walk carries the probability mass of passing every earlier edge.
    Failure at an edge fails every unattempted NSP sharing that edge, so
    different failure points can merge into the same outcome state.
    """
    g = cg.graph
    acc: dict[State, float] = {}
    detect = 0.0
    prefix = 1.0
    for edge_id in cg.nsps[action].edges:
        e = g.edges[edge_id]
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
        key = tuple(succeeded)
        acc[key] = acc.get(key, 0.0) + prefix
    dist = TransitionDistribution(
        outcomes=tuple(acc.items()),
        detect_prob=detect,
        cumulative=tuple(accumulate(acc.values())),
    )
    if abs(dist.total() - 1.0) > 1e-9:
        raise AssertionError(f"transition mass {dist.total()} != 1")
    return dist


def transition(cg: CondensedGraph, s: State, action: int) -> TransitionDistribution:
    """The outcome distribution of one chosen action, checked admissible."""
    if not is_admissible(cg, s, action):
        raise InadmissibleActionError(
            f"NSP {action} is not admissible from state {s}"
        )
    return _walk(cg, s, action)


def expand(cg: CondensedGraph, s: State) -> list[tuple[int, TransitionDistribution]]:
    """Every admissible action of ``s``, in id order, with its distribution."""
    return [(a, _walk(cg, s, a)) for a in admissible_actions(cg, s)]


def argmax(pairs: Iterable[tuple[int, float]]) -> tuple[int | None, float]:
    """The first action of largest q, and that q; ``(None, -1.0)`` if empty.
    Pairs come in id order, so ties go to the smallest id."""
    best_a, best_q = None, -1.0
    for a, q in pairs:
        if q > best_q:
            best_a, best_q = a, q
    return best_a, best_q


def terminal_value(cg: CondensedGraph, s: State) -> float | None:
    """1.0 once a DA path succeeded, 0.0 once the attack can no longer reach
    DA (all DA paths failed, or no admissible action remains), else None."""
    da_ids = cg.da_nsp_ids
    if any(s[i] == SUCCESS for i in da_ids):
        return 1.0
    if all(s[i] == FAILED for i in da_ids):
        return 0.0
    if not admissible_actions(cg, s):
        return 0.0
    return None


class ExactSolver:
    """Memoized DP over the reachable state space.

    ``memo_limit`` caps the number of distinct states; beyond it the solver
    raises StateSpaceLimitError instead of exhausting memory.
    """

    def __init__(self, cg: CondensedGraph, memo_limit: int = MEMO_LIMIT):
        self.cg = cg
        self.memo_limit = memo_limit
        self._memo: dict[State, tuple[float, int | None]] = {}

    def value_and_action(self, s: State) -> tuple[float, int | None]:
        """The state's value and the smallest-id optimal action."""
        memo = self._memo
        if s in memo:
            return memo[s]
        stack: list[State] = [s]
        expanded: dict[State, list[tuple[int, TransitionDistribution]]] = {}
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
            if top not in expanded:
                tv = terminal_value(self.cg, top)
                if tv is not None:
                    self._remember(top, tv, None)
                    stack.pop()
                    continue
                dists = expanded[top] = expand(self.cg, top)
                missing = [
                    nxt for _, d in dists for nxt, _ in d.outcomes if nxt not in memo
                ]
                if missing:
                    stack.extend(missing)
                    continue
            best_action, best_value = argmax(
                (a, sum(p * memo[nxt][0] for nxt, p in dist.outcomes))
                for a, dist in expanded.pop(top)
            )
            self._remember(top, best_value, best_action)
            stack.pop()
        return memo[s]

    def value(self, s: State) -> float:
        return self.value_and_action(s)[0]

    def best_action(self, s: State) -> int | None:
        return self.value_and_action(s)[1]

    def _remember(self, s: State, value: float, action: int | None) -> None:
        if s not in self._memo and len(self._memo) >= self.memo_limit:
            raise StateSpaceLimitError(
                f"more than {self.memo_limit} reachable states; "
                "use the neural approximate solver instead"
            )
        self._memo[s] = (value, action)

    @property
    def states_solved(self) -> int:
        return len(self._memo)


def dp_value(cg: CondensedGraph, s: State | None = None) -> float:
    """Exact attacker value of ``s`` (default: the unblocked initial state)."""
    return ExactSolver(cg).value(initial_state(cg) if s is None else s)
