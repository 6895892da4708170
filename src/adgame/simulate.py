"""Monte Carlo evaluation of blocking plans against a simulated attacker.

Runs the attack many times and reports the empirical success rate.  Each run
consumes a private stretch of a counter-based random stream: run ``r`` reads
uniforms from tape offset ``r * draws_per_run``, so splitting the runs across
chunks or workers reproduces the single-stream result bit-exactly.

``simulate`` plays the condensed game, drawing one uniform per attempted
path from its outcome distribution.  ``simulate_on_original`` walks the raw
graph edges one uniform per traversal, with blocked edges forced to fail.
Agreement between the two (and with the exact value) is the empirical check
that condensation preserved the game.

Both simulators run on one engine, ``_play``: it checks the arguments, cuts
the runs into chunks with one tape each, groups runs by (state, tape
offset), asks the policy once per group, rejects inadmissible actions, and
absorbs groups that reach a terminal state.  Each simulator only supplies
the step that moves one group across one attempted path.  Runs in the same
group advance in lockstep, so no Python loop runs over runs: the kernel step
is one compare of the runs' draws per outcome boundary, the raw step one
column compare per edge of the path over the runs still walking.

Pending groups sit on a stack and are never merged: no key pushed equals a
pending one.  A step's groups differ from each other in state or offset,
and each lies further along the tape than the group popped.  In the kernel
game a step pushes all its groups at one offset, so no pending group lies
beyond the one popped, and the pushed keys lie beyond them all.  In the raw
game the only pending group beyond the popped one is the success of an
action that failed on its history: it holds that action in S, and no later
state of the popped group can.  A collision would not change the successes
(each run reads only its own tape row), only the policy's call sequence,
which fills ``NetGreedyPolicy``'s table and ``counters.json``.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Callable, Iterable, Sequence

import numpy as np

from .kernel import CondensedGraph
from .mdp import (
    State,
    ExactSolver,
    TransitionDistribution,
    initial_state,
    is_admissible,
    terminal_value,
    transition,
)

# Policies must be deterministic functions of the state: runs in the same
# state advance in lockstep, so one action is applied to the whole group.
Policy = Callable[[State], int]

# runs per tape; ``first_run`` makes the split invisible in the result
CHUNK_SIZE = 65536


class PolicyContractError(Exception):
    """The policy returned a path that is not admissible in the state."""


@dataclass(frozen=True)
class SimulationReport:
    runs: int
    successes: int
    success_rate: float
    std_error: float


class DpPolicy(ExactSolver):
    """Plays the exact optimal action, lazily solving states as they appear.

    The policy is its own solver, so a policy that already solved a plan's
    initial state (as ``ExactFitness.policy`` does) plays from its memo.
    """

    def __call__(self, s: State) -> int:
        action = self.value_and_action(s)[1]
        if action is None:
            raise PolicyContractError(f"no action available in state {s}")
        return action


def _uniform_tape(
    seed: int, first_run: int, n_runs: int, draws_per_run: int
) -> np.ndarray:
    """Uniforms for runs [first_run, first_run + n_runs), one row per run."""
    bitgen = np.random.PCG64(seed)
    bitgen.advance(first_run * draws_per_run)
    rng = np.random.Generator(bitgen)
    return rng.random((n_runs, draws_per_run))


def _settle(cg: CondensedGraph, groups: list, key: tuple, rows: np.ndarray) -> int:
    """Push rows under a state key, or absorb them if the state is terminal.

    Returns the number of rows absorbed as successes.
    """
    value = terminal_value(cg, key[0])
    if value is None:
        groups.append((key, rows))
        return 0
    return len(rows) if value == 1.0 else 0


# One step advances a group of runs sharing a state and tape offset by one
# attempted path: (state, offset, action, tape, rows) -> ((state, offset),
# rows) pairs.  Runs the step leaves out were detected and end unsuccessful.
Step = Callable[
    [State, int, int, np.ndarray, np.ndarray],
    Iterable[tuple[tuple[State, int], np.ndarray]],
]


def _play(
    cg: CondensedGraph,
    plan: Sequence[int] | None,
    policy: Policy,
    runs: int,
    seed: int,
    first_run: int,
    draws_per_run: int,
    step: Step,
) -> SimulationReport:
    """Advance runs chunk by chunk, grouped by (state, tape offset)."""
    if runs < 1 or first_run < 0:
        raise ValueError(f"need runs >= 1 and first_run >= 0, not {runs}, {first_run}")
    start = initial_state(cg, plan)
    successes = 0
    done = 0
    while done < runs:
        n = min(CHUNK_SIZE, runs - done)
        tape = _uniform_tape(seed, first_run + done, n, draws_per_run)
        groups: list[tuple[tuple[State, int], np.ndarray]] = []
        successes += _settle(cg, groups, (start, 0), np.arange(n))
        while groups:
            (state, offset), rows = groups.pop()
            action = policy(state)
            if not is_admissible(cg, state, action):
                raise PolicyContractError(
                    f"policy chose inadmissible path {action!r} in state {state}"
                )
            for key, sub in step(state, offset, action, tape, rows):
                if len(sub):
                    successes += _settle(cg, groups, key, sub)
        done += n
        # let this tape go before the next one is drawn, so that two never
        # coexist (13 MB each on graph D's raw-edge walk)
        del tape
    rate = successes / runs
    return SimulationReport(
        runs=runs,
        successes=successes,
        success_rate=rate,
        std_error=sqrt(rate * (1.0 - rate) / runs),
    )


def simulate(
    cg: CondensedGraph,
    plan: Sequence[int] | None,
    policy: Policy,
    runs: int,
    seed: int,
    first_run: int = 0,
) -> SimulationReport:
    """Play the condensed game, one uniform draw per attempted path."""
    dist_cache: dict[tuple[State, int], TransitionDistribution] = {}

    def step(state, depth, action, tape, rows):
        key = (state, action)
        dist = dist_cache.get(key)
        if dist is None:
            dist = dist_cache[key] = transition(cg, state, action)
        u = tape[rows, depth]
        # outcome i takes cum[i-1] <= u < cum[i]: the sums never decrease, so
        # that is ``under`` without the previous ``under``.  Draws at or
        # above the last sum land in the detection mass
        below = False
        for bound, (nxt, _) in zip(dist.cumulative, dist.outcomes):
            under = u < bound
            yield (nxt, depth + 1), rows[under ^ below]
            below = under

    return _play(cg, plan, policy, runs, seed, first_run, cg.n_nsps, step)


def simulate_on_original(
    cg: CondensedGraph,
    plan: Sequence[int] | None,
    policy: Policy,
    runs: int,
    seed: int,
    first_run: int = 0,
) -> SimulationReport:
    """Play on the raw graph edges with blocked edges forced to fail.

    A blocked edge has its failure rate raised to 100%, so an attacker who
    walks into one is stopped on the spot.  Every path through a blocked
    edge starts the game failed, so an admissible policy never actually
    draws on a blocked edge; the override exists to make the defence
    physical rather than notational.

    A group walks its path edge by edge over the runs still walking: a run
    stops at the first edge whose draw is below ``p_d + p_f`` (what an
    ``argmax`` over its whole stretch picks, by the same strict ``<`` on the
    same floats), detected if below ``p_d`` too, else failing.  So every run
    ends in the same state at the same offset as a full-width walk; yielding
    success first, then burns by ascending edge, keeps ``_play``'s order.
    """
    # a wrong-length plan is refused by the engine's initial_state call
    blocked = set() if plan is None else {e for e, b in zip(cg.bw_edges, plan) if b}
    t, g = cg.step_masks, cg.graph.edges
    # per NSP, (stop below, detect below, sharers) of each edge in walk order
    walks = [
        tuple(
            (1.0, 0.0, s) if e in blocked else (g[e].p_d + g[e].p_f, g[e].p_d, s)
            for e, (*_, s) in zip(p.edges, t.edges[a])
        )
        for a, p in enumerate(cg.nsps)
    ]

    def step(state, ptr, action, tape, rows):
        owned, live, won = state
        walk = walks[action]
        burns = []
        for pos, (stop, detect, sharers) in enumerate(walk):
            u = tape[rows, ptr + pos]
            halted = u < stop
            if not halted.any():
                continue
            nxt = (owned, live & ~sharers, won)
            burns.append(((nxt, ptr + pos + 1), rows[halted & (u >= detect)]))
            rows = rows[~halted]
            if not len(rows):
                break
        bit = 1 << int(action)
        nxt = (owned | t.terminal[action], live & ~bit, won | bit)
        yield (nxt, ptr + len(walk)), rows
        yield from burns

    return _play(cg, plan, policy, runs, seed, first_run, sum(map(len, walks)), step)
