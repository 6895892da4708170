"""Defender strategies: which block-worthy edges to cut under a budget.

A blocking plan is a bit vector over the block-worthy edges with exactly k
ones.  Fitness is the attacker's success probability under the plan (lower
is better), computed by an exact solver, the value network, or Monte Carlo.

The diversity-driven evolutionary search keeps a population of plans whose
fitness stays within a fixed band of the population best; survivor
selection removes the member whose absence leaves the most balanced
per-edge usage counts.  The value-based variant simply drops the worst
member.  Greedy and exhaustive searches complete the baseline set.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, isfinite
from typing import Callable, Sequence

import numpy as np

from .config import ENUMERATION_BUDGET
from .kernel import CondensedGraph
from .mdp import MEMO_LIMIT, initial_state
from .simulate import DpPolicy, Policy, simulate
from .valuenet import ValueNet, predict

Plan = tuple[int, ...]
FITNESS_BAND = 0.1


class DefenseConfigError(Exception):
    """The requested defence cannot be run with the given budget or limits."""


class PopulationFormatError(Exception):
    """A population snapshot file is malformed."""


@dataclass(frozen=True)
class Member:
    bits: Plan
    fitness: float
    born: int


Population = list[Member]


def format_plan(plan: Sequence[int]) -> str:
    """A plan as its string of 0s and 1s."""
    return "".join(str(b) for b in plan)


def best_member(pop: Population) -> Member:
    return min(pop, key=lambda m: (m.fitness, m.born))


def _check_budget(n_bits: int, k: int) -> None:
    if not 0 <= k <= n_bits:
        raise DefenseConfigError(
            f"budget {k} not in [0, {n_bits}], the block-worthy edge count"
        )


def random_plan(n_bits: int, k: int, rng: np.random.Generator) -> Plan:
    _check_budget(n_bits, k)
    bits = [0] * n_bits
    if k:
        for pos in rng.choice(n_bits, size=k, replace=False):
            bits[pos] = 1
    return tuple(bits)


def mutate(plan: Plan, x: int, rng: np.random.Generator) -> Plan:
    """Flip x ones to zeros and x zeros to ones, preserving the popcount.

    x is clamped to what the plan can support; a full or empty plan is
    returned unchanged.
    """
    ones = [i for i, b in enumerate(plan) if b]
    zeros = [i for i, b in enumerate(plan) if not b]
    x = min(x, len(ones), len(zeros))
    if x < 1:
        return plan
    bits = list(plan)
    for pos in rng.choice(len(ones), size=x, replace=False):
        bits[ones[pos]] = 0
    for pos in rng.choice(len(zeros), size=x, replace=False):
        bits[zeros[pos]] = 1
    return tuple(bits)


def crossover(
    p: Plan, q: Plan, x: int, rng: np.random.Generator
) -> tuple[Plan, Plan]:
    """Swap x disagreeing coordinates between two equal-popcount plans.

    Coordinates where p is 0 and q is 1 trade against coordinates where p
    is 1 and q is 0, so both children keep their parents' popcount.
    Identical parents come back unchanged.
    """
    gain = [i for i in range(len(p)) if not p[i] and q[i]]
    lose = [i for i in range(len(p)) if p[i] and not q[i]]
    x = min(x, len(gain))
    if x < 1:
        return p, q
    child_p = list(p)
    child_q = list(q)
    for pos in rng.choice(len(gain), size=x, replace=False):
        child_p[gain[pos]] = 1
        child_q[gain[pos]] = 0
    for pos in rng.choice(len(lose), size=x, replace=False):
        child_p[lose[pos]] = 0
        child_q[lose[pos]] = 1
    return tuple(child_p), tuple(child_q)


def _worst_index(pop: Population) -> int:
    """The member of highest fitness (attacker value), the oldest on ties."""
    return max(range(len(pop)), key=lambda j: (pop[j].fitness, -pop[j].born))


def diversity_select_removal(pop: Population) -> int:
    """Index of the member whose removal leaves the most balanced counts.

    The population must carry the freshly inserted candidate as its last
    element.  If that candidate strictly beats every other fitness, the
    worst member is removed instead so the new best is always retained.
    Otherwise each member's residual count vector (per-edge block counts
    minus its own bits, sorted descending) is compared; the
    lexicographically smallest residual loses, oldest member first on ties,
    and the first index on full ties.

    One array sort does it: row j of ``np.sort(counts - bits)`` is member
    j's residual in ascending order, so its last column is the residual's
    first entry.  ``np.lexsort`` orders rows by its last key first, so the
    keys ``born`` then the ascending columns compare rows by their
    descending residual, then by ``born``.  The keys are integers, so the
    order is exact, and lexsort is stable, so full ties keep the lowest
    index: its first row is the member the ``(residual, born)`` minimum
    above picks.
    """
    if len(pop) < 2:
        raise ValueError("removal needs at least two members")
    candidate = pop[-1]
    if all(candidate.fitness < m.fitness for m in pop[:-1]):
        return _worst_index(pop)
    bits = np.frombuffer(b"".join(bytes(m.bits) for m in pop), np.int8)
    bits = bits.reshape(len(pop), len(candidate.bits))
    residual = np.sort(bits.sum(axis=0, dtype=np.int64) - bits, axis=1)
    born = np.array([m.born for m in pop], dtype=np.int64)
    return int(np.lexsort(np.vstack((born, residual.T)))[0])


FitnessFn = Callable[[Plan], float]


def _score(ev: FitnessFn, plan: Plan) -> float:
    """``ev(plan)`` as a float.  A value that is not finite ranks no plan,
    so it raises ``ValueError`` rather than steer a search."""
    value = float(ev(plan))
    if not isfinite(value):
        raise ValueError(f"fitness of plan {format_plan(plan)} is {value!r}")
    return value


def _in_band(pop: Population) -> Population:
    """The members within ``FITNESS_BAND`` of the population best."""
    best = min(m.fitness for m in pop)
    return [m for m in pop if m.fitness <= best + FITNESS_BAND]


class ExactFitness:
    """Attacker value of the blocked game, solved exactly.

    The solver's memo holds every blocked initial state it has solved, so a
    repeated plan costs one state construction and one lookup.  The solver
    is a ``DpPolicy`` exposed as ``policy``: simulating a scored plan with
    it plays from states already solved.
    """

    def __init__(self, cg: CondensedGraph, memo_limit: int = MEMO_LIMIT):
        self.policy = DpPolicy(cg, memo_limit=memo_limit)

    def __call__(self, plan: Sequence[int]) -> float:
        return self.policy.value(initial_state(self.policy.cg, plan))


class NetFitness:
    """Value-network estimate of the blocked game, cheap but approximate."""

    def __init__(self, net: ValueNet, cg: CondensedGraph):
        self.net = net
        self.cg = cg

    def __call__(self, plan: Sequence[int]) -> float:
        return predict(self.net, self.cg, initial_state(self.cg, tuple(plan)))


class MonteCarloFitness:
    """Simulated success rate under a fixed policy, deterministic per seed."""

    def __init__(
        self, cg: CondensedGraph, policy: Policy, runs: int, seed: int
    ):
        self.cg = cg
        self.policy = policy
        self.runs = runs
        self.seed = seed

    def __call__(self, plan: Sequence[int]) -> float:
        report = simulate(self.cg, tuple(plan), self.policy, self.runs, self.seed)
        return report.success_rate


def _evolve(
    cg: CondensedGraph,
    ev: FitnessFn,
    k: int,
    mu: int,
    iterations: int,
    rng: np.random.Generator,
    diversity: bool,
) -> Population:
    n_bits = len(cg.bw_edges)
    _check_budget(n_bits, k)
    if mu < 1 or iterations < 0:
        raise DefenseConfigError("need a positive population and nonnegative iterations")
    cache: dict[Plan, float] = {}

    def fit(bits: Plan) -> float:
        value = cache.get(bits)
        if value is None:
            value = _score(ev, bits)
            cache[bits] = value
        return value

    pop = [
        Member(bits, fit(bits), born=i)
        for i, bits in enumerate(random_plan(n_bits, k, rng) for _ in range(mu))
    ]
    born = mu
    for _ in range(iterations):
        x = max(1, int(rng.poisson(1.0)))
        if rng.random() < 0.5:
            parent = pop[int(rng.integers(len(pop)))]
            children = [mutate(parent.bits, x, rng)]
        else:
            if len(pop) >= 2:
                i, j = rng.choice(len(pop), size=2, replace=False)
                a, b = pop[int(i)].bits, pop[int(j)].bits
            else:
                a = b = pop[0].bits
            children = list(crossover(a, b, x, rng))
        for bits in children:
            f = fit(bits)
            if diversity:
                best = min(m.fitness for m in pop)
                if f > best + FITNESS_BAND:
                    continue
            pop.append(Member(bits, f, born))
            born += 1
            if len(pop) > mu:
                idx = (
                    diversity_select_removal(pop) if diversity else _worst_index(pop)
                )
                del pop[idx]
            if diversity:
                pop = _in_band(pop)
    # a search that rejected every child still returns only members in band
    return _in_band(pop) if diversity and iterations else pop


def edo_run(
    cg: CondensedGraph,
    ev: FitnessFn,
    k: int,
    mu: int,
    iterations: int,
    rng: np.random.Generator,
) -> Population:
    """Diversity-driven evolutionary search over blocking plans.

    Candidates worse than the population best by more than the fitness band
    are rejected; members that fall out of the band when the best improves
    are evicted, so every returned member (after at least one iteration)
    sits within the band.
    """
    return _evolve(cg, ev, k, mu, iterations, rng, diversity=True)


def vec_run(
    cg: CondensedGraph,
    ev: FitnessFn,
    k: int,
    mu: int,
    iterations: int,
    rng: np.random.Generator,
) -> Population:
    """Same loop as edo_run, but survivor selection drops the worst member."""
    return _evolve(cg, ev, k, mu, iterations, rng, diversity=False)


def greedy_run(cg: CondensedGraph, ev: FitnessFn, k: int) -> Plan:
    """Block the single best remaining edge, k times; ties to smaller ids."""
    n_bits = len(cg.bw_edges)
    _check_budget(n_bits, k)
    bits = [0] * n_bits
    for _ in range(k):
        best_pos = -1
        best_f = float("inf")
        for pos in range(n_bits):
            if bits[pos]:
                continue
            bits[pos] = 1
            f = _score(ev, tuple(bits))
            bits[pos] = 0
            if f < best_f:
                best_pos, best_f = pos, f
        bits[best_pos] = 1
    return tuple(bits)


def exhaustive_run(
    cg: CondensedGraph,
    ev: FitnessFn,
    k: int,
    enumeration_budget: int = ENUMERATION_BUDGET,
) -> Plan:
    """Global argmin over all popcount-k plans; ties to the smallest bits."""
    n_bits = len(cg.bw_edges)
    _check_budget(n_bits, k)
    total = comb(n_bits, k)
    if total > enumeration_budget:
        raise DefenseConfigError(
            f"{total} plans exceed the enumeration budget of {enumeration_budget}"
        )
    best_bits: Plan | None = None
    best_f = float("inf")
    for positions in combinations(range(n_bits), k):
        bits = tuple(1 if i in positions else 0 for i in range(n_bits))
        f = _score(ev, bits)
        if f < best_f or (f == best_f and bits < best_bits):
            best_bits, best_f = bits, f
    return best_bits


def save_population(path: str, pop: Population) -> None:
    """Text snapshot: one `bits fitness` row per member."""
    n_bits = len(pop[0].bits) if pop else 0
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"adpop 1 {len(pop)} {n_bits}\n")
        for m in pop:
            fh.write(f"{format_plan(m.bits)} {m.fitness!r}\n")


def load_population(path: str) -> Population:
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise PopulationFormatError(f"cannot read population {path}: {exc}") from exc
    if not lines:
        raise PopulationFormatError("empty population file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "adpop" or head[1] != "1":
        raise PopulationFormatError(f"bad header: {lines[0]!r}")
    try:
        n_members, n_bits = int(head[2]), int(head[3])
    except ValueError as exc:
        raise PopulationFormatError(f"bad header counts: {lines[0]!r}") from exc
    rows = [line for line in lines[1:] if line.strip()]
    if len(rows) != n_members:
        raise PopulationFormatError(
            f"expected {n_members} members, found {len(rows)}"
        )
    pop: Population = []
    for at, line in enumerate(rows):
        # a zero-width plan writes an empty bits field: the row is " <fitness>"
        bits, sep, fitness_text = line.rpartition(" ")
        if not sep or len(bits) != n_bits:
            raise PopulationFormatError(f"line {at + 2}: bad row {line!r}")
        if any(c not in "01" for c in bits):
            raise PopulationFormatError(f"line {at + 2}: bits must be 0/1")
        try:
            fitness = float(fitness_text)
        except ValueError as exc:
            raise PopulationFormatError(f"line {at + 2}: bad fitness") from exc
        if not isfinite(fitness):
            raise PopulationFormatError(
                f"line {at + 2}: fitness {fitness_text} is not finite"
            )
        pop.append(Member(tuple(int(c) for c in bits), fitness, born=at))
    return pop
