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
``span(a)`` (``step_masks.span``) is the union of the sharers of ``a``'s
edges.  Its masses (``prefix * p_f`` and the final ``prefix``) read no
mask at all, and two failures merge iff ``U - sharers(e1) == U -
sharers(e2)``, which holds iff it holds inside ``span(a)``: outside it
both sides are ``U``.  So ``_walk`` runs on ``U & span(a)`` alone and
returns the step entry: the failure remainders ``r``, the outcome masses
(the success's last), whether the success is an outcome, and the
detection mass.  Every reader rebuilds the outcomes from it by one rule:
failure ``r`` leads to ``(O, r | (U - span(a)), S)`` (``r -> r | (U -
span(a))`` is one-to-one, so nothing merges anew), and the success to
``(O | terminal(a), U - {a}, S | {a})``.  That is the walk on the whole
of ``U``, with the same floats in the same order, so one entry serves
every state with the same ``a`` and ``U & span(a)``.

One edge walk gives the step law: ``expand`` pairs every route action
(below) with its outcome states and masses (for the net's backup),
``transition`` checks one chosen action and returns its
``TransitionDistribution`` with the detection mass, ``ExactSolver`` keeps
each entry it walks, and ``key_floor_log2`` looks in an entry for one
failure remainder.  A distribution's ``cumulative`` table holds its
outcome masses summed left to right; a uniform ``u`` picks the first
outcome whose sum exceeds it, else detection.

A route of ``(O, U)`` is a chain of live NSPs, each leaving the node the
one before it ends at, whose terminals are all unowned and the last of
which ends at DA.  Let ``R(O, U)`` hold DA, while unowned, and every
unowned node a route leaves; ``R`` only shrinks as ``O`` grows or ``U``
shrinks.  A route action is an admissible NSP whose terminal is in ``R``.
``route_actions`` finds them by a walk back from DA that visits each NSP
at most once: ``step_masks.into`` gives the NSPs ending at a node and
``step_masks.sources`` an NSP's source.  The optimal attacker needs no
other action, by induction on ``|U|``:

- The value is monotone: ``V(O, U') <= V(O, U)`` for ``U'`` in ``U``,
  and ``V`` never drops as ``O`` grows.  Each action of the smaller state
  is one of the larger; edge by edge its outcomes there have a smaller
  ``U`` or ``O`` at the same masses.
- Owning nodes off every route adds nothing: for a node set ``X`` outside
  ``R(O, U)``, ``V(O | X, U) = V(O, U)``.  Take an action of ``(O | X,
  U)``.  If it leaves ``O``, each outcome is its outcome at ``(O, U)``
  with ``X`` added, and ``X`` stays outside that outcome's ``R``.  If it
  leaves a node of ``X``, it ends at an owned node or outside ``R`` (else
  its source would be in ``R``), and each outcome is some ``(O, U')``,
  ``U'`` in ``U``, with ``X`` or ``X`` and that terminal added.  By
  induction the added nodes change no outcome's value, so no q exceeds
  ``V(O, U)``.
- So an off-route action's q is at most ``(1 - detection mass)·V(O, U)``:
  a failure leads to ``(O, U - sharers(e))`` and the success to ``(O |
  terminal, U - {a})`` with the terminal owned or outside ``R``; each is
  worth at most ``V(O, U)``.
- A non-terminal key without a route action has value 0.  DA is in
  ``R``, so no action wins at once, and no outcome has a route action: an
  admissible NSP of the outcome ending in its ``R`` either was a route
  action already or leaves the new terminal, which would then lie in
  ``R(O, U)``.  So a state with ``V > 0`` has a route action.
- The best route action's q is ``V``.  If an off-route action reaches
  ``V > 0``, it has no detection mass and each outcome is worth ``V``.
  Pick one of positive mass; a route action ``b`` is optimal there, is a
  route action of ``(O, U)`` too, and by the two facts above its q at
  ``(O, U)`` is at least its q there, ``V``.

In floats an off-route action may tie the best route action up to
rounding, so the exact solver, which scores every admissible action, keeps
its keys and bits; the net's backup scores route actions only.
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
# NSPs) states.  A key costs about 133 B on the 173-NSP paper graph, step
# table included (traced at 100,000 keys), so a full memo holds ~130 MB:
# filling it took 14-17 s and peaked at 169 MB RSS on a 2-core VM.
MEMO_LIMIT = 1_000_000

# the one record every won or lost terminal key of a memo shares
_WON = (1.0, None)
_LOST = (0.0, None)


class InadmissibleActionError(Exception):
    """An NSP was attempted from a state that does not allow it."""


class StateSpaceLimitError(Exception):
    """The memo outgrew its budget of distinct (owned nodes, live NSPs)
    states; use the neural approximate solver."""


def initial_state(cg: CondensedGraph, plan: Sequence[int] | None = None) -> State:
    """State before the attack starts, under an optional blocking plan.

    ``plan`` has one 0/1 coordinate per block-worthy edge; each set
    coordinate fails the NSPs of its ``step_masks.blocks`` mask, those
    whose block-worthy edge it blocks.
    """
    t = cg.step_masks
    live = (1 << cg.n_nsps) - 1
    if plan is not None:
        if len(plan) != len(t.blocks):
            raise ValueError(
                f"plan has {len(plan)} coordinates, expected {len(t.blocks)}"
            )
        for bit, blocked in zip(plan, t.blocks):
            if bit:
                live &= ~blocked
    return t.entry, live, 0


@dataclass(frozen=True)
class TransitionDistribution:
    """Outcome states with probabilities and their running sums, plus the
    absorbed detection mass."""

    outcomes: tuple[tuple[State, float], ...]
    detect_prob: float
    cumulative: tuple[float, ...]


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
    t: StepMasks, live_span: int, action: int
) -> tuple[tuple[int, ...], tuple[float, ...], bool, float]:
    """The step entry of ``action`` at ``U & span(action) == live_span``:
    the failure remainders, the outcome masses (the success's last), whether
    the success is an outcome, and the detection mass.

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
            rest = live_span & ~sharers
            failed[rest] = failed.get(rest, 0.0) + prefix * p_f
        prefix *= p_s
        if prefix <= 0.0:
            prefix = 0.0
            break
    succeeded = prefix > 0.0
    masses = (*failed.values(), prefix) if succeeded else tuple(failed.values())
    mass = 0.0
    for p in masses:
        mass += p
    if abs(detect + mass - 1.0) > 1e-9:
        raise AssertionError(f"transition mass {detect + mass} != 1")
    return tuple(failed), masses, succeeded, detect


def _tagged(
    t: StepMasks, s: State, action: int
) -> tuple[list[tuple[State, float]], float]:
    """The walk of ``action`` from ``s`` as outcome states, and the detection
    mass, rebuilt from its step entry."""
    owned, live, won = s
    live_span = live & t.span[action]
    remainders, masses, succeeded, detect = _walk(t, live_span, action)
    rest = live ^ live_span
    states = [(owned, r | rest, won) for r in remainders]
    if succeeded:
        bit = 1 << action
        states.append((owned | t.terminal[action], live & ~bit, won | bit))
    return list(zip(states, masses)), detect


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


def route_actions(cg: CondensedGraph, s: State) -> int:
    """The route actions of ``s`` as an NSP mask: the admissible NSPs whose
    terminal is in ``R``, the unowned nodes that reach DA over live NSPs
    with unowned terminals (see the module docstring).  0 once DA is owned
    or no live NSP ends there.

    The walk starts at DA and steps back over the live NSPs ending at a
    node of ``R``; the source of one that is not admissible is unowned, so
    it joins ``R``.  Each node joins once, so each NSP is seen once.
    """
    t = cg.step_masks
    into, sources = t.into, t.sources
    owned, live = s[0], s[1]
    moves = _moves(t, owned, live)
    routes = 0
    frontier = reached = t.da & ~owned
    while frontier and routes != moves:
        ending = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            ending |= into[low.bit_length() - 1]
        ending &= live
        routes |= ending & moves
        enders = ending & ~moves
        while enders:
            low = enders & -enders
            enders ^= low
            frontier |= sources[low.bit_length() - 1]
        frontier &= ~reached
        reached |= frontier
    return routes


def expand(
    cg: CondensedGraph, s: State
) -> list[tuple[int, list[tuple[State, float]]]]:
    """Every route action of ``s``, in id order, with the outcomes of its
    ``transition``: one edge walk each, without the admissibility check,
    the detection mass or the running sums."""
    t = cg.step_masks
    return [(a, _tagged(t, s, a)[0]) for a in _ids(route_actions(cg, s))]


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

    ``m`` counts the live NSPs ``a`` out of an entry whose step entry at
    ``L = U & span(a)`` holds the failure remainder ``L - {a}``: the walk
    reaches, with positive pass mass, an edge with ``p_f > 0`` whose only
    live sharer is ``a``.  A terminal ``s`` counts 0.  Call these NSPs
    ``E`` and let ``(O, U)`` be the key of ``s``.  Every subset ``F`` of
    ``E`` can fail while the rest of ``U`` stays live: the memo holds
    ``(O, U - F)``.  By induction on ``|F|``, pick ``a`` in ``F``, one
    ending in DA if every live DA NSP is in ``F``.  The memo holds ``(O, U
    - (F - {a}))``, and that key is not terminal: DA is not in ``O`` (``s``
    is not terminal and failures add no node), ``a`` is live and leaves an
    entry (always owned), and a live DA NSP remains (``a`` itself or one
    outside ``F``).  The memo holds a non-terminal key only together with
    every outcome of every admissible action.  Pass masses read no mask,
    and that edge's live sharers shrink with ``U`` but keep ``a``, so the
    entry of ``a`` at ``L' = (U - (F - {a})) & span(a)`` holds ``L' -
    {a}``.  By the module docstring's rule that remainder rebuilds to ``(O,
    U - F)``, kept even when its mass underflows to 0.  The ``2**|E|`` keys
    are distinct.
    """
    if terminal_value(cg, s) is not None:
        return 0
    t = cg.step_masks
    live = s[1]
    m = 0
    for a in _ids(live & t.entry_out):
        live_span = live & t.span[a]
        if live_span & ~(1 << a) in _walk(t, live_span, a)[0]:
            m += 1
    return m


class ExactSolver:
    """Memoized DP over the reachable ``(O, U)`` keys.

    ``memo_limit`` caps the number of distinct keys; beyond it the solver
    raises StateSpaceLimitError instead of exhausting memory.  A new root
    whose ``key_floor_log2`` proves it needs more keys than the cap raises
    before any key is stored.

    ``root_floor_log2`` holds the floor of the last new root, or None
    before the first.

    A memo key is one int, ``owned_id << n_nsps | U``.  ``owned_id`` indexes
    the solver's table of owned sets (``_owned``, inverted by ``_owned_id``):
    a set gets the next id when the solver first builds a key on it, so ids
    are dense and in first-seen order.  As ``U < 2**n_nsps`` and the table
    maps ids to sets one to one, ``(O, U) -> key`` is a bijection, and the
    memo is the ``(O, U)`` memo under new names.  Every terminal key shares
    one of two records, ``(1.0, None)`` or ``(0.0, None)``.

    Two more tables, which live and die with the solver, spare a key the
    work another key already did.  ``_reach[owned_id]``, the NSPs leaving
    an owned node, is filled when the set is interned.  The step table
    keeps each ``_walk`` entry under ``(a, U & span(a))``, and the loop
    rebuilds a key's outcome keys from it by the module docstring's rule.
    The loop scores each action with the built-in ``sum`` over those keys
    in that order (compensated on Python 3.12+, so a hand-written ``+=``
    would change bits there), keeps the first strictly larger q, and pushes
    the missing successors in the same order, so the memo's keys, values,
    actions and insertion order, and the key at which ``memo_limit`` is
    hit, are those of a walk per key.  The step table holds at most one
    entry per (key, action) pair.
    """

    def __init__(self, cg: CondensedGraph, memo_limit: int = MEMO_LIMIT):
        self.cg = cg
        self.memo_limit = memo_limit
        self._memo: dict[int, tuple[float, int | None]] = {}
        # per action: U & span(a) -> its ``_walk`` entry
        self._steps: tuple[dict, ...] = tuple({} for _ in range(cg.n_nsps))
        self._owned: list[int] = []
        self._owned_id: dict[int, int] = {}
        self._reach: list[int] = []
        self.root_floor_log2: int | None = None

    def _intern(self, owned: int) -> int:
        """The id of a new owned set."""
        oid = self._owned_id[owned] = len(self._owned)
        self._owned.append(owned)
        self._reach.append(_reach(self.cg.step_masks, owned))
        return oid

    def value_and_action(self, s: State) -> tuple[float, int | None]:
        """The state's value and the smallest-id optimal action."""
        n = self.cg.n_nsps
        memo, ids = self._memo, self._owned_id
        oid = ids.get(s[0])
        record = None if oid is None else memo.get(oid << n | s[1])
        if record is not None:
            return record
        m = self.root_floor_log2 = key_floor_log2(self.cg, s)
        if 1 << m > self.memo_limit:
            raise StateSpaceLimitError(
                f"the state needs at least 2**{m} distinct (owned nodes, live "
                f"NSPs) states, more than {self.memo_limit}; use the neural "
                "approximate solver instead"
            )
        root = (self._intern(s[0]) if oid is None else oid) << n | s[1]
        t = self.cg.step_masks
        terminal, spans, da, da_nsps = t.terminal, t.span, t.da, t.da_nsps
        steps, table, reaches = self._steps, self._owned, self._reach
        full, limit = (1 << n) - 1, self.memo_limit
        stack = [root]
        expanded: dict[int, list] = {}
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            dists = expanded.pop(key, None)
            if dists is None:
                oid, live = key >> n, key & full
                owned = table[oid]
                moves = live & reaches[oid]
                if owned & da:
                    record = _WON
                elif not live & da_nsps or not moves:
                    record = _LOST
                else:
                    dists = []
                    depth = len(stack)
                    while moves:
                        low = moves & -moves
                        moves ^= low
                        a = low.bit_length() - 1
                        live_span = live & spans[a]
                        entry = steps[a].get(live_span)
                        if entry is None:
                            entry = steps[a][live_span] = _walk(t, live_span, a)
                        rest = key ^ live_span
                        keys = [r | rest for r in entry[0]]
                        if entry[2]:
                            won = owned | terminal[a]
                            wid = ids.get(won)
                            keys.append(
                                (self._intern(won) if wid is None else wid) << n
                                | live ^ low
                            )
                        dists.append((a, keys, entry[1]))
                        stack += [nxt for nxt in keys if nxt not in memo]
                    if len(stack) > depth:
                        expanded[key] = dists
                        continue
            if dists is not None:
                best_action, best_value = None, -1.0
                for a, keys, masses in dists:
                    q = sum([p * memo[nxt][0] for nxt, p in zip(keys, masses)])
                    if q > best_value:
                        best_action, best_value = a, q
                record = best_value, best_action
            if len(memo) >= limit:
                raise StateSpaceLimitError(
                    f"more than {limit} distinct (owned nodes, live NSPs) "
                    "states; use the neural approximate solver instead"
                )
            memo[key] = record
            stack.pop()
        return memo[root]

    def value(self, s: State) -> float:
        return self.value_and_action(s)[0]

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
