"""The one-step law every consumer reads: outcome picks at the boundaries of
the cumulative table, and outputs pinned to values of the per-consumer
implementations it replaced.

The pinned values go through no BLAS call: exact values and actions, kernel
Monte Carlo under the exact policy, and rollouts that only explore (so the
net is never asked).  The raw-edge simulator applies the same strict rule
edge by edge: a draw below ``p_d`` detects, one below ``p_d + p_f`` fails.
"""
from __future__ import annotations

import importlib

import numpy as np
import pytest

from adgame.kernel import condense
from adgame.mdp import (
    ExactSolver,
    admissible_actions,
    dp_value,
    initial_state,
    transition,
)
from adgame.simulate import DpPolicy, simulate, simulate_on_original
from adgame.valuenet import BackupTable, ValueNet, rollout

from instances import chain_graph, random_instance
from oracles import trits_of

# the module, not the package's re-exported ``simulate`` function
sim = importlib.import_module("adgame.simulate")

SEEDS = (2, 7, 15, 26, 45)


def _strict_pick(outcomes, u: float) -> int:
    """The first outcome whose running mass exceeds ``u``; past the end is
    detection.  This is the accumulate-and-compare loop the table replaced."""
    acc = 0.0
    for idx, (_, p) in enumerate(outcomes):
        acc += p
        if u < acc:
            return idx
    return len(outcomes)


def _boundary_cases():
    """(cg, state, action, distribution, draws) for every first move, with
    draws at each cumulative value and one float below it."""
    for seed in SEEDS:
        cg = random_instance(seed)
        s0 = initial_state(cg)
        for a in admissible_actions(cg, s0):
            dist = transition(cg, s0, a)
            draws = [
                u for c in dist.cumulative for u in (c, float(np.nextafter(c, 0.0)))
            ]
            yield cg, s0, a, dist, draws


class _ScriptedRng:
    """Stands in for a Generator in ``rollout``: explore, play ``index``,
    draw ``u``, then explore with the first action and draw 0.5 forever."""

    def __init__(self, index: int, u: float):
        self._uniforms = [0.0, u]
        self._index = index

    def random(self) -> float:
        return self._uniforms.pop(0) if self._uniforms else 0.5

    def integers(self, n: int) -> int:
        index, self._index = self._index, 0
        return index


def test_rollout_picks_the_outcome_of_the_strict_rule_at_boundaries():
    checked = 0
    for cg, s0, a, dist, draws in _boundary_cases():
        net = ValueNet(cg.n_nsps, depth=1, width=4, seed=0)
        index = admissible_actions(cg, s0).index(a)
        for u in draws:
            states = rollout(BackupTable(cg, net), s0, 1.0, _ScriptedRng(index, u))
            want = _strict_pick(dist.outcomes, u)
            if want == len(dist.outcomes):
                assert states == [s0]
            else:
                assert states[1] == dist.outcomes[want][0]
            checked += 1
    assert checked > 50


def test_simulate_picks_the_outcome_of_the_strict_rule_at_boundaries(monkeypatch):
    settle = sim._settle
    for cg, s0, a, dist, draws in _boundary_cases():
        # run r draws draws[r] on its first path and 0.5 after it
        tape = np.full((len(draws), cg.n_nsps), 0.5)
        tape[:, 0] = draws
        monkeypatch.setattr(sim, "_uniform_tape", lambda *args: tape)
        first_step: dict[int, tuple] = {}

        def record(cg_, groups, key, rows):
            if key[1] == 1:
                first_step.update((int(r), key[0]) for r in rows)
            return settle(cg_, groups, key, rows)

        monkeypatch.setattr(sim, "_settle", record)
        solver = DpPolicy(cg)
        simulate(cg, None, lambda s: a if s == s0 else solver(s), len(draws), seed=0)
        for r, u in enumerate(draws):
            want = _strict_pick(dist.outcomes, u)
            if want == len(dist.outcomes):
                assert r not in first_step
            else:
                assert first_step[r] == dist.outcomes[want][0]


def _raw_ends(monkeypatch, cg, plan, tape) -> dict[int, tuple]:
    """Play ``tape`` (one row per run) on the raw edges, always attempting
    NSP 0: each run's last filed (state, offset), none if it was detected
    on its first path."""
    settle = sim._settle
    ends: dict[int, tuple] = {}

    def record(cg_, groups, key, rows):
        if key[1]:
            ends.update((int(r), key) for r in rows)
        return settle(cg_, groups, key, rows)

    monkeypatch.setattr(sim, "_uniform_tape", lambda *args: tape)
    monkeypatch.setattr(sim, "_settle", record)
    simulate_on_original(cg, plan, lambda s: 0, len(tape), seed=0)
    return ends


def test_raw_walk_picks_the_outcome_of_the_strict_rule_at_edge_boundaries(
    monkeypatch,
):
    probs = [(0.1, 0.2), (0.25, 0.5)]
    cg = condense(chain_graph(probs))
    assert cg.n_nsps == 1 and len(cg.nsps[0].edges) == 2
    owned = initial_state(cg)[0]
    won = ((owned | cg.step_masks.terminal[0], 0, 1), 2)
    for pos, (p_d, p_f) in enumerate(probs):
        failed = ((owned, 0, 0), pos + 1)
        # run r draws cases[r] on edge ``pos`` and 0.99, which passes, on the other
        cases = [
            (float(np.nextafter(p_d, 0.0)), None),  # detected
            (p_d, failed),
            (float(np.nextafter(p_d + p_f, 0.0)), failed),
            (p_d + p_f, won),
        ]
        tape = np.full((len(cases), 2), 0.99)
        tape[:, pos] = [u for u, _ in cases]
        ends = _raw_ends(monkeypatch, cg, None, tape)
        assert [ends.get(r) for r in range(len(cases))] == [e for _, e in cases]

    # an admissible policy never reaches a blocked edge, so start the game
    # unblocked while the plan blocks the last edge: it fails every draw
    assert len(cg.bw_edges) == 1
    monkeypatch.setattr(sim, "initial_state", lambda cg_, plan=None: initial_state(cg_))
    tape = np.full((3, 2), 0.99)
    tape[:, 1] = [0.0, 0.5, float(np.nextafter(1.0, 0.0))]
    ends = _raw_ends(monkeypatch, cg, (1,), tape)
    assert [ends.get(r) for r in range(3)] == [((owned, 0, 0), 2)] * 3


def _trits(cg, s) -> str:
    return "".join("+0-"[1 - t] for t in trits_of(cg, s))


# per seed of random_instance: (exact value, best action) unblocked and with
# the first block-worthy edge blocked, kernel successes of 3000 runs under
# DpPolicy for each, and three explore-only rollouts from the unblocked start
# (states as trits: + success, 0 unattempted, - failed)
GOLDEN = {
    2: (
        ("0.7149080847012853", 2), ("0.7086407743157916", 2), (2138, 2116),
        ["000000", "000000 0+0000", "000000 000-00 +00-00 +0+-00 +++-00"],
    ),
    7: (
        ("0.7808209445660302", 0), ("0.7196178231062859", 2), (2294, 2156),
        [
            "00000000 00+00000 00+00+00 00+00+0+",
            "00000000 +0000000",
            "00000000 0-000000 +-000000",
        ],
    ),
    15: (
        ("0.7658506311992914", 0), ("0.6057948530058505", 1), (2241, 1752),
        [
            "000000000 00+000000 00+0+0000 00+0+000+",
            "000000000",
            "000000000 +00000000",
        ],
    ),
    26: (
        ("0.8237836110690722", 0), ("0.7989697624891733", 0), (2468, 2423),
        [
            "0000000000 0-00000000 +-00000000 +-00000-00 +-000-0-00"
            " +-000-+-00 +-0-0-+-00 +-+-0-+-00",
            "0000000000",
            "0000000000",
        ],
    ),
    45: (
        ("0.6099108123585439", 0), ("0.5870622755077608", 0), (1823, 1766),
        [
            "000000000 000+00000",
            "000000000 00---0000 0+---0000",
            "000000000 000+00000",
        ],
    ),
}


@pytest.mark.parametrize("seed", SEEDS)
def test_pinned_values_successes_and_rollouts(seed):
    unblocked, blocked, successes, walks = GOLDEN[seed]
    cg = random_instance(seed)
    plans = (None, (1,) + (0,) * (len(cg.bw_edges) - 1))
    for plan, (value, action) in zip(plans, (unblocked, blocked)):
        s0 = initial_state(cg, plan)
        assert repr(dp_value(cg, s0)) == value
        assert ExactSolver(cg).value_and_action(s0)[1] == action
    assert tuple(
        simulate(cg, plan, DpPolicy(cg), 3000, seed=seed).successes for plan in plans
    ) == successes
    net = ValueNet(cg.n_nsps, depth=1, width=4, seed=0)
    table = BackupTable(cg, net)
    rng = np.random.default_rng(seed)
    s0 = initial_state(cg)
    got = [
        " ".join(_trits(cg, s) for s in rollout(table, s0, 1.0, rng))
        for _ in walks
    ]
    assert got == walks
