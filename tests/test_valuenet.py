"""Value network: gradients, terminal handling, rollouts, training."""
from __future__ import annotations

import os
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from adgame import valuenet
from adgame.config import ExperimentConfig
from adgame.kernel import condense
from adgame.mdp import admissible_actions, initial_state, terminal_value, transition
from adgame.valuenet import (
    Adam,
    BackupTable,
    CheckpointFormatError,
    NetGreedyPolicy,
    TrainingDivergedError,
    ValueNet,
    bellman_targets,
    encode_states,
    greedy_action,
    load_checkpoint,
    predict,
    rollout,
    save_checkpoint,
    train_round,
)
from adgame.simulate import simulate

from instances import (
    chain_graph,
    random_instance,
    random_instances,
    shared_suffix_graph,
    two_parallel_graph,
    write_forged_checkpoint,
)
from oracles import (
    FAILED,
    SUCCESS,
    UNATTEMPTED,
    reachable_states,
    reference_route_actions,
    state_of,
    trits_of,
)


def _bare(width: int) -> SimpleNamespace:
    """Stands in for an instance of ``width`` NSPs and no nodes: all that
    the trit converters read."""
    return SimpleNamespace(
        n_nsps=width, step_masks=SimpleNamespace(entry=0, terminal=(0,) * width)
    )


def test_encode_state_maps_trits():
    three = _bare(3)
    one = encode_states([state_of(three, (SUCCESS, FAILED, UNATTEMPTED))], 3)
    assert one.tolist() == [[1.0, -1.0, 0.0]]
    two = [state_of(three, (0, 0, 0)), state_of(three, (FAILED, SUCCESS, SUCCESS))]
    assert encode_states(two, 3).tolist() == [
        [0.0, 0.0, 0.0],
        [-1.0, 1.0, 1.0],
    ]


def test_encode_states_equals_the_trit_encoding():
    checked = 0
    for seed in range(40):
        cg = random_instance(seed, max_nsps=9)
        if cg is None:
            continue
        states = list(reachable_states(cg))
        got = encode_states(states, cg.n_nsps)
        assert got.dtype == np.int8 and got.shape == (len(states), cg.n_nsps)
        for row, s in zip(got, states):
            assert np.array_equal(row, np.asarray(trits_of(cg, s), float))
        checked += len(states)
    assert checked > 1000
    # both sides of every byte boundary up to the paper graph's 173 NSPs
    rng = np.random.default_rng(0)
    for width in (1, 7, 8, 9, 16, 17, 173):
        rows = [(SUCCESS,) * width, (FAILED,) * width, (UNATTEMPTED,) * width]
        rows += [tuple(rng.integers(-1, 2, width).tolist()) for _ in range(50)]
        states = [state_of(_bare(width), trits) for trits in rows]
        assert np.array_equal(encode_states(states, width), np.asarray(rows, float))
        empty = encode_states([], width)
        assert empty.shape == (0, width) and empty.dtype == np.int8


def test_forward_output_strictly_inside_unit_interval():
    net = ValueNet(6, depth=3, width=16, seed=1)
    x = np.random.default_rng(0).uniform(-1, 1, (64, 6))
    out = net.forward(x)
    assert out.shape == (64,)
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_a_saturated_output_is_zero_without_an_overflow_warning():
    net = ValueNet(6, depth=2, width=8, seed=1)
    net.params[-1][...] = -200.0  # the output bias: exp(200) overflows float32
    x = np.random.default_rng(0).uniform(-1, 1, (4, 6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(net.forward(x), np.zeros(4))
        loss, grads = net.loss_and_grads(x, np.zeros(4))
    assert loss == 0.0
    assert all(not g.any() for g in grads)


def test_predict_short_circuits_terminals():
    cg = condense(two_parallel_graph())
    net = ValueNet(cg.n_nsps, depth=2, width=8, seed=0)
    assert predict(net, cg, state_of(cg, (SUCCESS, UNATTEMPTED))) == 1.0
    assert predict(net, cg, state_of(cg, (FAILED, FAILED))) == 0.0
    mid = predict(net, cg, state_of(cg, (UNATTEMPTED, UNATTEMPTED)))
    assert 0.0 < mid < 1.0


def _numeric_grads(net, x, y):
    h = 1e-6  # the central differences' step
    flat = net.flat_params()
    grad = np.empty_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + h
        net.set_flat_params(bumped)
        up, _ = net.loss_and_grads(x, y)
        bumped[i] = flat[i] - h
        net.set_flat_params(bumped)
        down, _ = net.loss_and_grads(x, y)
        grad[i] = (up - down) / (2 * h)
    net.set_flat_params(flat)
    return grad


@pytest.mark.parametrize("sizes_seed", [((5, 1, 8), 0), ((3, 2, 4), 7), ((2, 2, 8), 13)])
def test_gradient_check_matches_central_differences(sizes_seed):
    (n_inputs, depth, width), seed = sizes_seed
    # float64: in float32, central differences measure rounding, not slope
    net = ValueNet(n_inputs, depth, width, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 100)
    x = rng.uniform(-1, 1, (12, n_inputs))
    y = rng.uniform(0, 1, 12)
    loss, grads = net.loss_and_grads(x, y)
    assert loss >= 0.0
    analytic = np.concatenate([g.ravel() for g in grads])
    numeric = _numeric_grads(net, x, y)
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    assert np.linalg.norm(analytic - numeric) / denom <= 1e-4


# ValueNet(3, depth=1, width=4, seed=0, dtype=np.float64): its parameters
# in flat order, then after two Adam steps on _fixed_like gradients scaled
# 0.25 and -0.125
PINNED_INIT = (
    "0x1.43e401fe365a8p-3", "-0x1.10350f350637ap-2", "-0x1.0f612805d4a72p-1",
    "-0x1.1dd503cf0e84cp-1", "0x1.726a37c3a829ap-2", "0x1.e80c366bbf5eap-2",
    "0x1.f859aaa33b700p-4", "0x1.0f5c1bb527baap-2", "0x1.9ca9848dfa170p-5",
    "0x1.0137bc95dbe21p-1", "0x1.75782e7e941e2p-2", "-0x1.25fbfc47c784fp-1",
    "0x1.a6997ea0eb74cp-2", "-0x1.13bf507635925p-1", "0x1.0f8c33d7be8f6p-2",
    "-0x1.7f8255fdb32b6p-2", "0x1.73e52ce85b6dep-2", "0x1.53a67b20b50f0p-5",
    "-0x1.9a30a6ff5b578p-3", "-0x1.3cac53084d930p-4", "-0x1.e3002b0a63158p-2",
)
PINNED_AFTER_TWO_STEPS = (
    "0x1.467beecda4111p-3", "-0x1.0ee918d1cb831p-2", "-0x1.0ebb2cdaf1868p-1",
    "-0x1.1dd503cf0e84cp-1", "0x1.711e416de1e85p-2", "0x1.e6c0400884aa1p-2",
    "0x1.f329d1046002ep-4", "0x1.10a8121cde95fp-2", "0x1.a70937a7cfbbdp-5",
    "0x1.01ddb7c0bf02bp-1", "0x1.75782e7e941e2p-2", "-0x1.26a1f772aaa59p-1",
    "0x1.a7e57508a2501p-2", "-0x1.1319554498380p-1", "0x1.10d82a2d84d0bp-2",
    "-0x1.7f8255fdb32b6p-2", "0x1.7531235012493p-2", "0x1.5e062e3a8ab3dp-5",
    "-0x1.9798ba53ced4fp-3", "-0x1.3cac53084d930p-4", "-0x1.e1b434a2ac3a3p-2",
)
# the default float32 net after the same two steps; it starts at PINNED_INIT
# rounded to float32
PINNED_AFTER_TWO_STEPS_F32 = (
    "0x1.467bf00000000p-3", "-0x1.0ee91a0000000p-2", "-0x1.0ebb2e0000000p-1",
    "-0x1.1dd5040000000p-1", "0x1.711e420000000p-2", "0x1.e6c0400000000p-2",
    "0x1.f329d00000000p-4", "0x1.10a8120000000p-2", "0x1.a709360000000p-5",
    "0x1.01ddb60000000p-1", "0x1.75782e0000000p-2", "-0x1.26a1f60000000p-1",
    "0x1.a7e5740000000p-2", "-0x1.1319560000000p-1", "0x1.10d82a0000000p-2",
    "-0x1.7f82560000000p-2", "0x1.7531220000000p-2", "0x1.5e062e0000000p-5",
    "-0x1.9798b80000000p-3", "-0x1.3cac540000000p-4", "-0x1.e1b4360000000p-2",
)


def _fixed_like(template, scale):
    """Hand-made gradients nested and shaped like ``template``: the
    fractions (k mod 7 - 3) * scale, k counting entries within each array."""
    if isinstance(template, np.ndarray):
        k = np.arange(template.size, dtype=template.dtype)
        return ((k % 7 - 3) * scale).reshape(template.shape)
    return type(template)(_fixed_like(t, scale) for t in template)


def _pinned_run(dtype) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The pinned net's parameters as ``float.hex``, at initialisation and
    after the two Adam steps; every array stays in ``dtype``."""
    # only elementwise numpy touches the pinned values: initialisation and
    # the Adam update, not the matrix products of loss_and_grads, whose
    # gradients serve only as the shape of the hand-made ones
    net = ValueNet(3, depth=1, width=4, seed=0, dtype=dtype)
    init = tuple(float(v).hex() for v in net.flat_params())
    _, template = net.loss_and_grads(np.zeros((1, 3)), np.zeros(1))
    opt = Adam(net)
    for scale in (0.25, -0.125):
        opt.step(_fixed_like(template, scale))
    assert all(a.dtype == dtype for a in net.params + opt._m + opt._v)
    return init, tuple(float(v).hex() for v in net.flat_params())


def test_parameter_layout_and_adam_update_are_pinned():
    assert _pinned_run(np.float64) == (PINNED_INIT, PINNED_AFTER_TWO_STEPS)


def test_float32_parameter_layout_and_adam_update_are_pinned():
    init, after = _pinned_run(np.float32)
    # drawn in float64 and cast: a float32 net starts at the float64 values
    assert init == tuple(float(np.float32(float.fromhex(v))).hex() for v in PINNED_INIT)
    assert after == PINNED_AFTER_TWO_STEPS_F32


def test_a_net_is_float32_or_float64():
    assert ValueNet(3, depth=1, width=4).forward(np.zeros(3)).dtype == np.float32
    for dtype in (np.float16, np.int32):
        with pytest.raises(ValueError, match="float32 or float64"):
            ValueNet(3, depth=1, width=4, dtype=dtype)
    with pytest.raises(ValueError, match="bad layer sizes"):
        ValueNet(0, 2, 8)


def test_flat_params_round_trip():
    net = ValueNet(4, depth=2, width=8, seed=3)
    flat = net.flat_params()
    other = ValueNet(4, depth=2, width=8, seed=99)
    other.set_flat_params(flat)
    x = np.random.default_rng(1).uniform(-1, 1, (5, 4))
    assert np.array_equal(net.forward(x), other.forward(x))
    with pytest.raises(ValueError):
        other.set_flat_params(flat[:-1])
    with pytest.raises(ValueError, match="disagree in length"):
        net.loss_and_grads(x[:2], np.zeros(3))


def test_bellman_targets_bounded_and_terminal_exact():
    cg = condense(shared_suffix_graph())
    net = ValueNet(cg.n_nsps, depth=2, width=8, seed=5)
    states = [
        state_of(cg, trits)
        for trits in (
            (UNATTEMPTED, UNATTEMPTED),
            (SUCCESS, UNATTEMPTED),
            (FAILED, FAILED),
            (FAILED, UNATTEMPTED),
        )
    ]
    targets = bellman_targets(BackupTable(cg, net), states)
    assert np.all(targets >= 0.0) and np.all(targets <= 1.0)
    assert targets[1] == 1.0
    assert targets[2] == 0.0


def test_action_values_weight_outcomes_by_probability():
    cg = condense(two_parallel_graph())
    net = ValueNet(cg.n_nsps, depth=2, width=8, seed=2)
    s = state_of(cg, (UNATTEMPTED, UNATTEMPTED))
    got = dict(BackupTable(cg, net).action_values(s))
    for a in (0, 1):
        expect = sum(
            p * predict(net, cg, s2) for s2, p in transition(cg, s, a).outcomes
        )
        assert got[a] == pytest.approx(expect, abs=1e-12)


def _fresh_backup(net, cg, s):
    """The backup as it was built before the table, over route actions:
    every route action's checked transition, float rows, terminals asked of
    no net; the first admissible action at q 0.0 where none is a route
    action."""
    routes = reference_route_actions(cg, s)
    if not routes:
        return [(a, 0.0) for a in admissible_actions(cg, s)[:1]]
    spans, succ, probs = [], [], []
    for a in routes:
        start = len(succ)
        for s2, p in transition(cg, s, a).outcomes:
            succ.append(s2)
            probs.append(p)
        spans.append((a, start, len(succ)))
    vals = np.empty(len(succ))
    ask = []
    for i, s2 in enumerate(succ):
        tv = terminal_value(cg, s2)
        if tv is None:
            ask.append(i)
        else:
            vals[i] = tv
    if ask:
        rows = encode_states([succ[i] for i in ask], cg.n_nsps).astype(np.float64)
        vals[ask] = net.forward(rows)
    w = np.asarray(probs)
    return [(a, float(np.dot(w[lo:hi], vals[lo:hi]))) for a, lo, hi in spans]


def _hex(pairs):
    return [(a, float.hex(q)) for a, q in pairs]


def _open_states(cg):
    return sorted(s for s in reachable_states(cg) if terminal_value(cg, s) is None)


def test_backup_table_serves_the_fresh_backup_bit_for_bit():
    checked = reused = 0
    for seed in range(30):
        cg = random_instance(seed, max_nsps=9)
        if cg is None:
            continue
        net = ValueNet(cg.n_nsps, depth=2, width=16, seed=seed)
        table = BackupTable(cg, net)
        states = _open_states(cg)
        for _ in range(2):  # the second pass is served from the stored lists
            for s in states:
                got = _hex(table.action_values(s))
                assert got == _hex(BackupTable(cg, net).action_values(s))
                assert got == _hex(_fresh_backup(net, cg, s))
                checked += 1
        assert [float.hex(t) for t in bellman_targets(table, states)] == [
            float.hex(t) for t in bellman_targets(BackupTable(cg, net), states)
        ]
        reused += table.counts["q_list_reuses"]
        assert table.counts["entries_built"] == len(states)
    assert checked > 500 and reused >= checked // 2


def test_greedy_plays_a_route_action_whenever_one_exists():
    no_route = off_route = 0
    for cg in random_instances(40, max_nsps=9):
        net = ValueNet(cg.n_nsps, depth=2, width=16, seed=cg.n_nsps)
        for s in _open_states(cg):
            routes = reference_route_actions(cg, s)
            table = BackupTable(cg, net)
            a = greedy_action(table, s)
            if routes:
                assert a in routes
                assert [b for b, _ in table.action_values(s)] == list(routes)
            else:
                # exact value 0, played by the first admissible action
                assert table.action_values(s) == [(admissible_actions(cg, s)[0], 0.0)]
                assert table.counts["net_rows"] == 0
                no_route += 1
            assert table.counts["off_route_actions"] == (
                len(admissible_actions(cg, s)) - len(routes)
            )
            off_route += table.counts["off_route_actions"]
    assert no_route > 0 and off_route > no_route


def test_backup_table_recomputes_once_the_weights_change():
    cg = random_instance(3, max_nsps=9)
    net = ValueNet(cg.n_nsps, depth=2, width=16, seed=0)
    states = _open_states(cg)
    table = BackupTable(cg, net)
    before = [table.action_values(s) for s in states]
    x = encode_states(states, cg.n_nsps)
    _, grads = net.loss_and_grads(x, np.full(len(states), 0.9))
    updates = [
        lambda: Adam(net, learning_rate=0.05).step(grads),
        lambda: net.set_flat_params(net.flat_params() * 1.5),
    ]
    for update in updates:
        version = net.version
        update()
        assert net.version != version
        served = table.counts["q_list_reuses"]
        after = [table.action_values(s) for s in states]
        assert table.counts["q_list_reuses"] == served
        fresh = [BackupTable(cg, net).action_values(s) for s in states]
        assert [_hex(q) for q in after] == [_hex(q) for q in fresh]
        assert after != before
        before = after


def test_backup_table_eviction_changes_no_result(monkeypatch):
    cg = random_instance(76, max_nsps=12, max_mid=9)
    config = ExperimentConfig(batch_size=8, epochs_per_round=30)
    plans = [tuple(int(i == j) for i in range(len(cg.bw_edges))) for j in range(3)]

    def train():
        net = ValueNet(cg.n_nsps, depth=2, width=16, seed=1)
        table = BackupTable(cg, net)
        stats = train_round(
            net, cg, plans, config, np.random.default_rng(2), Adam(net), table=table
        )
        return (stats.epoch_losses, net.flat_params().tobytes()), table

    want, roomy = train()
    # room for about three entries: the table empties itself many times
    monkeypatch.setattr(valuenet, "BACKUP_TABLE_BYTES", 3 * valuenet._ENTRY_BYTES)
    got, tight = train()
    assert got == want
    assert tight.counts["entries_built"] > 3 * roomy.counts["entries_built"]
    assert tight._bytes <= valuenet.BACKUP_TABLE_BYTES


def test_train_round_without_a_table_is_the_shared_table_round():
    # perfbench's self-test calls train_round without a table
    cg = random_instance(76, max_nsps=12, max_mid=9)
    plans = [(0,) * len(cg.bw_edges)]
    config = ExperimentConfig(batch_size=4, epochs_per_round=20)
    runs = []
    for shared in (False, True):
        net = ValueNet(cg.n_nsps, depth=2, width=8, seed=0)
        optimizer = Adam(net)
        kwargs = {"table": BackupTable(cg, net)} if shared else {}
        stats = train_round(
            net, cg, plans, config, rng=np.random.default_rng(0), optimizer=optimizer,
            **kwargs,
        )
        runs.append((stats.epoch_losses, net.flat_params().tobytes(), optimizer.t))
    assert runs[0] == runs[1]


def test_train_round_refuses_another_instances_table():
    cg = condense(two_parallel_graph())
    net = ValueNet(cg.n_nsps, depth=1, width=4, seed=0)
    before = net.flat_params()
    twin = ValueNet(cg.n_nsps, depth=1, width=4, seed=0)
    for other in (
        BackupTable(condense(two_parallel_graph()), net),
        BackupTable(cg, twin),  # another net, though an equal one
    ):
        with pytest.raises(ValueError, match="another instance or net"):
            train_round(
                net, cg, [()], ExperimentConfig(batch_size=2, epochs_per_round=1),
                np.random.default_rng(0), Adam(net), table=other,
            )
        assert np.array_equal(net.flat_params(), before)
        assert other.counts["entries_built"] == 0


def test_rollout_on_terminal_start_returns_it_alone():
    cg = condense(two_parallel_graph())
    net = ValueNet(cg.n_nsps, depth=1, width=4, seed=0)
    rng = np.random.default_rng(0)
    dead = state_of(cg, (FAILED, FAILED))
    assert rollout(BackupTable(cg, net), dead, 0.5, rng) == [dead]


def test_rollout_visits_follow_transition_law():
    cg = condense(two_parallel_graph())
    net = ValueNet(cg.n_nsps, depth=1, width=4, seed=0)
    rng = np.random.default_rng(123)
    table = BackupTable(cg, net)
    n = 10_000
    counts = {"detected": 0, "success": 0, "fail": 0}
    for _ in range(n):
        states = rollout(table, state_of(cg, (UNATTEMPTED, UNATTEMPTED)), 1.0, rng)
        if len(states) == 1:
            counts["detected"] += 1
        elif SUCCESS in trits_of(cg, states[1]):
            counts["success"] += 1
        else:
            counts["fail"] += 1
    # per edge: success 0.7, failure 0.2, detection 0.1, action symmetric
    for key, p in (("detected", 0.1), ("success", 0.7), ("fail", 0.2)):
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(counts[key] / n - p) <= 3 * sigma, (key, counts)


def test_rollout_states_are_reachable_and_end_terminal():
    for seed in range(10):
        cg = random_instance(seed, max_nsps=8)
        if cg is None:
            continue
        net = ValueNet(cg.n_nsps, depth=2, width=8, seed=seed)
        rng = np.random.default_rng(seed)
        states = rollout(BackupTable(cg, net), initial_state(cg), 0.5, rng)
        assert states[0] == initial_state(cg)
        assert all(state_of(cg, trits_of(cg, s)) == s for s in states)


def test_train_round_learns_single_path_value():
    cg = condense(chain_graph([(0.1, 0.2)], blockable_last=False))
    net = ValueNet(cg.n_nsps, depth=4, width=256, seed=0)
    config = ExperimentConfig(epochs_per_round=500, explore_prob=0.5)
    stats = train_round(net, cg, [()], config, np.random.default_rng(0), Adam(net))
    assert stats.epoch_losses[-1] < 1e-3
    # the lone path succeeds with probability 0.7
    assert abs(predict(net, cg, initial_state(cg)) - 0.7) <= 0.02


def test_train_round_zero_epochs_changes_nothing():
    cg = condense(two_parallel_graph())
    net = ValueNet(cg.n_nsps, depth=2, width=8, seed=4)
    before = net.flat_params()
    stats = train_round(
        net, cg, [()], ExperimentConfig(epochs_per_round=0), np.random.default_rng(0),
        Adam(net),
    )
    assert stats.epoch_losses == ()
    assert np.array_equal(net.flat_params(), before)


def test_train_round_is_deterministic_under_seeds():
    cg = condense(shared_suffix_graph())
    runs = []
    for _ in range(2):
        net = ValueNet(cg.n_nsps, depth=2, width=16, seed=11)
        stats = train_round(
            net,
            cg,
            [(0,), (1,)],
            ExperimentConfig(epochs_per_round=40),
            np.random.default_rng(7),
            Adam(net),
        )
        runs.append((stats.epoch_losses, net.flat_params()))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])


def test_a_nan_net_raises_training_diverged():
    cg = condense(two_parallel_graph())
    net = ValueNet(cg.n_nsps, depth=1, width=4, seed=0)
    net.set_flat_params(np.full(net.n_params(), np.nan))
    s = state_of(cg, (UNATTEMPTED, UNATTEMPTED))
    with pytest.raises(TrainingDivergedError, match="values state"):
        predict(net, cg, s)
    with pytest.raises(TrainingDivergedError, match="every action"):
        greedy_action(BackupTable(cg, net), s)
    # a state without actions is a caller's mistake, whatever the net
    with pytest.raises(ValueError, match="no admissible action"):
        greedy_action(BackupTable(cg, net), state_of(cg, (FAILED, FAILED)))


def test_train_round_rejects_empty_plans():
    cg = condense(two_parallel_graph())
    net = ValueNet(cg.n_nsps, depth=1, width=4, seed=0)
    with pytest.raises(ValueError):
        train_round(net, cg, [], ExperimentConfig(), np.random.default_rng(0), Adam(net))


def test_adam_descends_on_fixed_batch():
    net = ValueNet(3, depth=2, width=8, seed=0)
    opt = Adam(net, learning_rate=0.01)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (16, 3))
    y = rng.uniform(0, 1, 16)
    first, grads = net.loss_and_grads(x, y)
    for _ in range(200):
        loss, grads = net.loss_and_grads(x, y)
        opt.step(grads)
    final, _ = net.loss_and_grads(x, y)
    assert final < first * 0.5


def test_checkpoint_round_trip_is_bit_identical(tmp_path):
    cg = condense(shared_suffix_graph())
    net = ValueNet(cg.n_nsps, depth=3, width=32, seed=21)
    path = str(tmp_path / "net.ckpt")
    save_checkpoint(path, net, round_index=17)
    loaded, round_index = load_checkpoint(path, cg.n_nsps)
    assert round_index == 17
    assert loaded.sizes == net.sizes
    assert loaded.dtype == net.dtype == np.float32
    assert loaded.flat_params().tobytes() == net.flat_params().tobytes()
    x = np.random.default_rng(2).uniform(-1, 1, (9, cg.n_nsps))
    assert np.array_equal(loaded.forward(x), net.forward(x))
    # a 48-byte header for a depth-3 net, then 4 bytes per parameter
    assert os.path.getsize(path) == 48 + 4 * net.n_params()


def test_checkpoint_refuses_a_float64_net_and_a_version_1_file(tmp_path):
    path = str(tmp_path / "net.ckpt")
    wide = ValueNet(3, depth=1, width=4, seed=0, dtype=np.float64)
    with pytest.raises(ValueError, match="float32"):
        save_checkpoint(path, wide)
    assert not os.path.exists(path)
    # version 1 held float64 parameters: well formed, but no longer read
    write_forged_checkpoint(path, wide.sizes, wide.n_params(), version=1)
    with pytest.raises(CheckpointFormatError, match="version 1"):
        load_checkpoint(path, 3)


def test_checkpoint_rejects_foreign_and_truncated_files(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointFormatError, match="not a value-net"):
        load_checkpoint(str(bad), 3)
    net = ValueNet(3, depth=1, width=4, seed=0)
    path = tmp_path / "net.ckpt"
    save_checkpoint(str(path), net)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(CheckpointFormatError, match="expected 21 parameters"):
        load_checkpoint(str(path), 3)


def test_checkpoint_checks_the_payload_before_allocating(tmp_path):
    # the header claims a 2048-wide net, about 17 MB of parameters
    path = str(tmp_path / "forged.ckpt")
    write_forged_checkpoint(path, (2048, 2048, 1))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointFormatError, match="parameters"):
            load_checkpoint(path, 2048)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_checkpoint_refuses_an_oversized_file_in_bounded_memory(tmp_path):
    # a valid checkpoint extended to 64 MiB as a sparse file: the header
    # promises 100 bytes of parameters, and the rest is never read
    path = tmp_path / "net.ckpt"
    save_checkpoint(str(path), ValueNet(4, depth=1, width=4, seed=0))
    with open(path, "r+b") as fh:
        fh.truncate(64 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(
            CheckpointFormatError,
            match=rf"expected 25 parameters \(100 bytes\), found {(64 << 20) - 40} bytes",
        ):
            load_checkpoint(str(path), 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "sizes,n_params",
    [((0, 1), 1), ((3, 2), 8), ((3, 4, 5, 1), 47)],
    ids=["zero-width", "two-outputs", "non-uniform"],
)
def test_checkpoint_refuses_bad_layer_sizes(tmp_path, monkeypatch, sizes, n_params):
    # the payload length matches the header, so only the sizes are wrong;
    # they are refused before any net is built
    path = str(tmp_path / "forged.ckpt")
    write_forged_checkpoint(path, sizes, n_params)

    def no_net(*args, **kwargs):
        raise AssertionError("a net was built")

    monkeypatch.setattr(valuenet, "ValueNet", no_net)
    with pytest.raises(CheckpointFormatError, match="bad layer sizes"):
        load_checkpoint(path, sizes[0])


def test_checkpoint_refuses_a_net_of_another_width(tmp_path, monkeypatch):
    cg = condense(shared_suffix_graph())
    path = str(tmp_path / "net.ckpt")

    def no_net(*args, **kwargs):
        raise AssertionError("a net was built")

    # the test's own ValueNet name still builds nets to save
    monkeypatch.setattr(valuenet, "ValueNet", no_net)
    for n_inputs in (cg.n_nsps - 1, cg.n_nsps + 1):
        save_checkpoint(path, ValueNet(n_inputs, depth=1, width=4, seed=0))
        with pytest.raises(
            CheckpointFormatError,
            match=f"takes {n_inputs} inputs but the instance has {cg.n_nsps} NSPs",
        ):
            load_checkpoint(path, cg.n_nsps)


def test_checkpoint_refuses_a_negative_seed(tmp_path):
    # a flipped top bit of the seed field; a net cannot be built from it
    path = tmp_path / "net.ckpt"
    save_checkpoint(str(path), ValueNet(4, depth=1, width=4, seed=3))
    blob = bytearray(path.read_bytes())
    blob[35] ^= 0x80  # the seed's last byte: 16 header bytes, 3 sizes, 8 seed bytes
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError, match="negative net seed"):
        load_checkpoint(str(path), 4)


def test_a_depth_zero_checkpoint_round_trips(tmp_path):
    net = ValueNet(4, depth=0, width=16, seed=5)
    assert net.sizes == (4, 1)
    path = str(tmp_path / "net.ckpt")
    save_checkpoint(path, net, round_index=3)
    loaded, round_index = load_checkpoint(path, 4)
    assert round_index == 3
    assert loaded.sizes == (4, 1)
    assert loaded.flat_params().tobytes() == net.flat_params().tobytes()
    with pytest.raises(ValueError, match="depth"):
        ValueNet(4, depth=-2, width=16)


def test_net_greedy_policy_is_admissible_in_simulation():
    cg = condense(shared_suffix_graph())
    net = ValueNet(cg.n_nsps, depth=2, width=8, seed=9)
    policy = NetGreedyPolicy(BackupTable(cg, net))
    report = simulate(cg, None, policy, runs=2000, seed=5)
    assert 0.0 <= report.success_rate <= 1.0


def test_net_greedy_policy_plays_the_fresh_action_after_the_weights_change():
    cg = random_instance(14, max_nsps=9)
    s0 = initial_state(cg)
    succ = [[s2 for s2, _ in transition(cg, s0, a).outcomes] for a in (0, 1)]
    x = encode_states(succ[0] + succ[1], cg.n_nsps)
    y = np.array([1.0] * len(succ[0]) + [0.0] * len(succ[1]))

    def negate(net):
        net.set_flat_params(-net.flat_params())

    def adam_step(net):
        _, grads = net.loss_and_grads(x, y)  # favours action 0's outcomes
        Adam(net, learning_rate=0.01).step(grads)

    for update in (negate, adam_step):
        net = ValueNet(cg.n_nsps, depth=2, width=16, seed=14)
        policy = NetGreedyPolicy(BackupTable(cg, net))
        assert policy(s0) == 1
        update(net)
        assert policy(s0) == greedy_action(BackupTable(cg, net), s0) == 0


def test_greedy_action_breaks_ties_toward_smaller_id():
    cg = condense(two_parallel_graph())
    net = ValueNet(cg.n_nsps, depth=1, width=4, seed=0)
    # symmetric instance and symmetric state: both actions score equally
    s = state_of(cg, (UNATTEMPTED, UNATTEMPTED))
    table = BackupTable(cg, net)
    got = dict(table.action_values(s))
    if got[0] == got[1]:
        assert greedy_action(table, s) == 0
