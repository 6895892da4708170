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

The walk of ``a`` reads ``U`` only through ``U & span(a)``, where
``span(a)`` is the union of the sharers of ``a``'s edges.  Its masses
(``prefix * p_f`` and the final ``prefix``) read no mask at all, and two
failures merge iff ``U - sharers(e1) == U - sharers(e2)``, which holds
iff it holds inside ``span(a)``: outside it both sides are ``U``.  So the
merge pattern, the first-edge order, the float sums and the mass check
are functions of ``a`` and ``U & span(a)``, and the solver walks each such
pair once (``ExactSolver`` has the rebuild).  Every key still sees
exactly its own walk's outcomes and masses in its own walk's order, so
the memo is the one a walk per key builds, bit for bit.

One edge walk gives the step law: ``expand`` pairs every admissible action
with its outcome states and masses (for the net's backup), and
``transition`` checks one chosen action and returns its
``TransitionDistribution`` with the detection mass.  A distribution's
``cumulative`` table holds its outcome masses summed left to right; a
uniform ``u`` picks the first outcome whose sum exceeds it, else detection.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from numbers import Integral
from operator import or_
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


def _reach(t: StepMasks, owned: int) -> int:
    """The NSPs whose source is owned, live or not."""
    reach = t.entry_out
    for node in _ids(owned & ~t.entry):
        reach |= t.out[node]
    return reach


def _moves(t: StepMasks, owned: int, live: int) -> int:
    """The admissible set: live NSPs whose source is owned."""
    return live & _reach(t, owned)


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


def _tagged(
    t: StepMasks, s: State, action: int
) -> tuple[list[tuple[State, float]], float]:
    """The walk of ``action`` from ``s`` as outcome states, and the detection
    mass; the success also adds ``action`` to the successful NSPs."""
    owned, live, won = s
    outcomes, detect, succeeded = _walk(t, owned, live, action)
    tagged = [((o, u, won), p) for (o, u), p in outcomes]
    if succeeded:
        (o, u), p = outcomes[-1]
        tagged[-1] = ((o, u, won | 1 << action), p)
    return tagged, detect


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
    outcomes, detect = _tagged(cg.step_masks, s, int(action))
    return TransitionDistribution(
        outcomes=tuple(outcomes),
        detect_prob=detect,
        cumulative=tuple(accumulate(p for _, p in outcomes)),
    )


def expand(
    cg: CondensedGraph, s: State
) -> list[tuple[int, list[tuple[State, float]]]]:
    """Every admissible action of ``s``, in id order, with the outcomes of
    its ``transition``: one edge walk each, without the admissibility check,
    the detection mass or the running sums."""
    t = cg.step_masks
    return [(a, _tagged(t, s, a)[0]) for a in _ids(_moves(t, s[0], s[1]))]


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
    DA (all DA paths failed, or no admissible action remains), else None.

    Entry nodes are always owned, so a live NSP out of an entry proves an
    admissible action exists; only without one is the owned-node walk
    needed.  ``_terminal`` reads nothing of ``moves`` but whether it is 0.
    """
    t = cg.step_masks
    owned, live, _ = s
    moves = live & t.entry_out or _moves(t, owned, live)
    return _terminal(t, owned, live, moves)


def key_floor_log2(cg: CondensedGraph, s: State) -> int:
    """An ``m`` such that the memo holds at least ``2**m`` keys once ``s``
    is solved.

    ``m`` counts the live NSPs out of an entry that have an edge ``e`` with
    ``p_f > 0`` whose only live sharer is the NSP itself, and whose walk
    reaches ``e`` with positive pass mass (the float products of
    ``_walk``); a terminal ``s`` counts 0.  Call these NSPs ``E`` and let
    ``(O, U)`` be the key of ``s``.  Every subset ``F`` of ``E`` can fail
    while the rest of ``U`` stays live: the memo holds ``(O, U - F)``.
    By induction on ``|F|``, pick ``a`` in ``F``, one ending in DA if every
    live DA NSP is in ``F``.  The memo holds ``(O, U - (F - {a}))``, and
    that key is not terminal: DA is not in ``O`` (``s`` is not terminal
    and failures add no node), ``a`` is live and leaves an entry (always
    owned), and a live DA NSP remains (``a`` itself or one outside ``F``).
    The memo holds a non-terminal key only together with every outcome of
    every admissible action.  The walk of ``a`` reaches ``e`` and fails
    there; ``e``'s live sharers are a subset of ``{a}``, so that outcome
    is ``(O, U - F)``, kept even when its mass underflows to 0.  The
    ``2**|E|`` keys are distinct.
    """
    t = cg.step_masks
    owned, live, _ = s
    if terminal_value(cg, s) is not None:
        return 0
    m = 0
    for a in _ids(live & t.entry_out):
        prefix = 1.0
        for _, p_f, p_s, sharers in t.edges[a]:
            if p_f > 0.0 and live & sharers == 1 << a:
                m += 1
                break
            prefix *= p_s
            if prefix <= 0.0:
                break
    return m


class ExactSolver:
    """Memoized DP over the reachable ``(O, U)`` keys.

    ``memo_limit`` caps the number of distinct keys; beyond it the solver
    raises StateSpaceLimitError instead of exhausting memory.  A new root
    whose ``key_floor_log2`` proves it needs more keys than the cap raises
    before any key is stored.

    Two tables, which live and die with the solver, spare a key the work
    another key already did.  ``_reach(O)``, the NSPs leaving an owned
    node, is cached per owned set.  The step table keys the walk of
    action ``a`` on ``(a, U & span(a))`` (the module docstring argues
    why that is all the walk reads).  An entry is ``_walk`` run on ``(0,
    U & span(a))``: the failure remainders ``r``, every outcome's mass
    (the success's last) and whether ``a`` can succeed (its pass mass did
    not underflow).  The key ``(O, U)`` then has the failure outcomes
    ``(O, r | (U - span(a)))`` (``r -> r | (U - span(a))`` is one-to-one,
    so nothing merges anew), followed by the success ``(O | terminal(a),
    U - {a})``: exactly ``_walk``'s list, with the same floats in the
    same order.  The loop scores each action with the built-in ``sum``
    over that list in that order (compensated on Python 3.12+, so a
    hand-written ``+=`` would change bits there), keeps the first
    strictly larger q, and pushes the missing successors in the same
    order, so the memo's keys, values, actions and insertion order, and
    the key at which ``memo_limit`` is hit, are those of a walk per key.
    The step table holds at most one entry per (key, action) pair.
    """

    def __init__(self, cg: CondensedGraph, memo_limit: int = MEMO_LIMIT):
        self.cg = cg
        self.memo_limit = memo_limit
        self._memo: dict[tuple[int, int], tuple[float, int | None]] = {}
        # per action: span(a), and U & span(a) -> (failure remainders,
        # outcome masses, whether the last outcome is the success)
        self._span = tuple(
            reduce(or_, (sharers for *_, sharers in edges), 0)
            for edges in cg.step_masks.edges
        )
        self._steps: tuple[dict, ...] = tuple({} for _ in self._span)
        self._reach: dict[int, int] = {}

    def _step(self, a: int, live_span: int) -> tuple:
        """The step-table entry of ``a`` at ``U & span(a) == live_span``,
        built by one ``_walk`` on first use: the failure remainders, every
        outcome's mass (the success's last) and whether ``a`` can succeed."""
        entry = self._steps[a].get(live_span)
        if entry is None:
            outcomes, _, succeeded = _walk(self.cg.step_masks, 0, live_span, a)
            failures = outcomes[:-1] if succeeded else outcomes
            entry = (
                tuple(r for (_, r), _ in failures),
                tuple(p for _, p in outcomes),
                succeeded,
            )
            self._steps[a][live_span] = entry
        return entry

    def value_and_action(self, s: State) -> tuple[float, int | None]:
        """The state's value and the smallest-id optimal action."""
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
        terminal, spans = t.terminal, self._span
        steps, reaches = self._steps, self._reach
        stack = [root]
        expanded: dict[tuple[int, int], list] = {}
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
            if top not in expanded:
                owned, live = top
                reach = reaches.get(owned)
                if reach is None:
                    reach = reaches[owned] = _reach(t, owned)
                moves = live & reach
                tv = _terminal(t, owned, live, moves)
                if tv is not None:
                    self._remember(top, tv, None)
                    stack.pop()
                    continue
                dists = expanded[top] = []
                missing = []
                for a in _ids(moves):
                    live_span = live & spans[a]
                    entry = steps[a].get(live_span) or self._step(a, live_span)
                    rest = live ^ live_span
                    keys = [(owned, r | rest) for r in entry[0]]
                    if entry[2]:
                        keys.append((owned | terminal[a], live & ~(1 << a)))
                    dists.append((a, keys, entry[1]))
                    missing += [nxt for nxt in keys if nxt not in memo]
                if missing:
                    stack.extend(missing)
                    continue
            best_action, best_value = None, -1.0
            for a, keys, masses in expanded.pop(top):
                q = sum([p * memo[nxt][0] for nxt, p in zip(keys, masses)])
                if q > best_value:
                    best_action, best_value = a, q
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

    @property
    def step_walks(self) -> int:
        """Edge walks run so far: one per step-table entry."""
        return sum(map(len, self._steps))


def dp_value(cg: CondensedGraph, s: State | None = None) -> float:
    """Exact attacker value of ``s`` (default: the unblocked initial state)."""
    return ExactSolver(cg).value(initial_state(cg) if s is None else s)
