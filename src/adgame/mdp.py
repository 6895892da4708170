"""The attacker's decision process over non-splitting paths.

Every NSP is live (unattempted), successful or failed.  From the nodes it
owns (entry nodes plus the terminals of successful NSPs) the attacker picks
a live NSP and walks its edges in order.  Each edge either detects the
attacker (the whole attack ends, value 0), fails (the edge is burned, which
fails every live NSP sharing it), or is passed.  Passing every edge makes
the NSP successful and its terminal a new owned node.

The attacker wins on reaching DA, so the value of a state is the maximal
probability of eventually completing an NSP that terminates at DA.  Values
are computed exactly by memoized dynamic programming over reachable states.

A state is three integer bitmasks (tables in ``cg.step_masks``): ``O``,
the owned nodes; ``U``, the live NSPs; and ``S``, the successful NSPs.  An
NSP in neither ``U`` nor ``S`` failed.  The value depends on ``(O, U)``
alone, so the solver keys its memo on it; ``S`` is carried for the value
net, whose input tells a failed NSP from a successful one.  Every input to
a state's backup is a function of ``(O, U)``:

- the admissible set is the NSPs of ``U`` whose source is in ``O``, in id
  order;
- the terminal tests: a DA path succeeded iff DA is in ``O`` (an entry is
  never DA); if none did, every DA path failed iff none is in ``U``; and no
  action remains iff the admissible set is empty;
- the walk of action ``a``: failing edge ``e`` leads to
  ``(O, U - sharers(e), S)``, and failures at different edges merge iff
  their ``U - sharers(e)`` agree, so the merge pattern, the first-edge
  order and the float sums depend on ``(U, a)`` alone.  Success leads to
  ``(O | terminal(a), U - {a}, S | {a})`` and comes last.  It never merges
  with a failure (its ``S`` holds ``a``), so it stays a separate outcome
  even where the ``(O, U)`` keys coincide: ``a``'s terminal is already
  owned and ``a`` is the failing edge's only live sharer.

Every outcome has a smaller ``U``, so by induction on ``|U|`` states
sharing a key add the same floats in the same order: their values are
bit-identical and their smallest-id argmax is the same.

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
from typing import Iterable, Iterator, Sequence

from .kernel import CondensedGraph, StepMasks

# (owned nodes, live NSPs, successful NSPs)
State = tuple[int, int, int]

# default cap on the exact solver's memo, in distinct (owned nodes, live
# NSPs) states
MEMO_LIMIT = 1_000_000


class InadmissibleActionError(Exception):
    """An NSP was attempted from a state that does not allow it."""


class StateSpaceLimitError(Exception):
    """The memo outgrew its budget of distinct (owned nodes, live NSPs)
    states; use the neural approximate solver."""


def initial_state(cg: CondensedGraph, plan: Sequence[int] | None = None) -> State:
    """State before the attack starts, under an optional blocking plan.

    ``plan`` is a 0/1 vector over ``cg.bw_edges``; every NSP whose
    block-worthy edge is blocked starts out failed.
    """
    live = (1 << cg.n_nsps) - 1
    if plan is not None:
        if len(plan) != len(cg.bw_edges):
            raise ValueError(
                f"plan has {len(plan)} coordinates, expected {len(cg.bw_edges)}"
            )
        for i, bit in enumerate(plan):
            if bit:
                for nsp_id in cg.bw_edge_to_nsps[cg.bw_edges[i]]:
                    live &= ~(1 << nsp_id)
    return cg.step_masks.entry, live, 0


@dataclass(frozen=True)
class TransitionDistribution:
    """Outcome states with probabilities and their running sums, plus the
    absorbed detection mass."""

    outcomes: tuple[tuple[State, float], ...]
    detect_prob: float
    cumulative: tuple[float, ...]

    def total(self) -> float:
        return self.detect_prob + (self.cumulative[-1] if self.cumulative else 0.0)


def _ids(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _moves(t: StepMasks, owned: int, live: int) -> int:
    """The admissible set: live NSPs whose source is owned."""
    reach = t.entry_out
    for node in _ids(owned & ~t.entry):
        reach |= t.out[node]
    return live & reach


def _terminal(t: StepMasks, owned: int, live: int, moves: int) -> float | None:
    """``terminal_value`` of a key whose admissible set is ``moves``."""
    if owned & t.da:
        return 1.0
    if not live & t.da_nsps or not moves:
        return 0.0
    return None


def _walk(
    t: StepMasks, owned: int, live: int, action: int
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


def _distribution(
    cg: CondensedGraph, s: State, action: int
) -> TransitionDistribution:
    """The walk of ``action`` from ``s``; the success also adds ``action`` to
    the successful NSPs."""
    owned, live, won = s
    outcomes, detect, succeeded = _walk(cg.step_masks, owned, live, action)
    tagged = [((o, u, won), p) for (o, u), p in outcomes]
    if succeeded:
        (o, u), p = outcomes[-1]
        tagged[-1] = ((o, u, won | 1 << action), p)
    return TransitionDistribution(
        outcomes=tuple(tagged),
        detect_prob=detect,
        cumulative=tuple(accumulate(p for _, p in outcomes)),
    )


def admissible_actions(cg: CondensedGraph, s: State) -> tuple[int, ...]:
    """Live NSPs whose source the attacker owns: an entry node or the
    terminal of a successful NSP."""
    return tuple(_ids(_moves(cg.step_masks, s[0], s[1])))


def is_admissible(cg: CondensedGraph, s: State, action: object) -> bool:
    """Whether ``action`` is one of ``admissible_actions(cg, s)``; anything
    but an integer is not, so callers can refuse it with their own error."""
    if not isinstance(action, Integral) or not 0 <= action < cg.n_nsps:
        return False
    return bool(_moves(cg.step_masks, s[0], s[1]) >> int(action) & 1)


def transition(cg: CondensedGraph, s: State, action: int) -> TransitionDistribution:
    """The outcome distribution of one chosen action, checked admissible."""
    if not is_admissible(cg, s, action):
        raise InadmissibleActionError(
            f"NSP {action} is not admissible from state {s}"
        )
    return _distribution(cg, s, int(action))


def expand(cg: CondensedGraph, s: State) -> list[tuple[int, TransitionDistribution]]:
    """Every admissible action of ``s``, in id order, with its distribution."""
    return [
        (a, _distribution(cg, s, a))
        for a in _ids(_moves(cg.step_masks, s[0], s[1]))
    ]


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
    t = cg.step_masks
    owned, live, _ = s
    return _terminal(t, owned, live, _moves(t, owned, live))


class ExactSolver:
    """Memoized DP over the reachable ``(O, U)`` keys.

    ``memo_limit`` caps the number of distinct keys; beyond it the solver
    raises StateSpaceLimitError instead of exhausting memory.
    """

    def __init__(self, cg: CondensedGraph, memo_limit: int = MEMO_LIMIT):
        self.cg = cg
        self.memo_limit = memo_limit
        self._memo: dict[tuple[int, int], tuple[float, int | None]] = {}

    def value_and_action(self, s: State) -> tuple[float, int | None]:
        """The state's value and the smallest-id optimal action."""
        root = s[:2]
        memo = self._memo
        if root in memo:
            return memo[root]
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
                    (a, _walk(t, owned, live, a)[0]) for a in _ids(moves)
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

    def value(self, s: State) -> float:
        return self.value_and_action(s)[0]

    def best_action(self, s: State) -> int | None:
        return self.value_and_action(s)[1]

    def _remember(self, key: tuple[int, int], value: float, action: int | None) -> None:
        if key not in self._memo and len(self._memo) >= self.memo_limit:
            raise StateSpaceLimitError(
                f"more than {self.memo_limit} distinct (owned nodes, live NSPs) "
                "states; use the neural approximate solver instead"
            )
        self._memo[key] = (value, action)

    @property
    def states_solved(self) -> int:
        return len(self._memo)


def dp_value(cg: CondensedGraph, s: State | None = None) -> float:
    """Exact attacker value of ``s`` (default: the unblocked initial state)."""
    return ExactSolver(cg).value(initial_state(cg) if s is None else s)
