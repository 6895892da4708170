"""Value network: gradients, terminal handling, rollouts, training."""
from __future__ import annotations

import numpy as np
import pytest

from adgame.kernel import condense
from adgame.mdp import FAILED, SUCCESS, UNATTEMPTED, initial_state, transition
from adgame.valuenet import (
    Adam,
    CheckpointFormatError,
    NetGreedyPolicy,
    TrainingConfig,
    ValueNet,
    action_values,
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

from instances import chain_graph, random_instance, shared_suffix_graph, two_parallel_graph


def test_encode_state_maps_trits():
    one = encode_states([(SUCCESS, FAILED, UNATTEMPTED)])
    assert one.tolist() == [[1.0, -1.0, 0.0]]
    assert encode_states([(0, 0, 0), (FAILED, SUCCESS, SUCCESS)]).tolist() == [
        [0.0, 0.0, 0.0],
        [-1.0, 1.0, 1.0],
    ]


def test_forward_output_strictly_inside_unit_interval():
    net = ValueNet(6, depth=3, width=16, seed=1)
    x = np.random.default_rng(0).uniform(-1, 1, (64, 6))
    out = net.forward(x)
    assert out.shape == (64,)
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_predict_short_circuits_terminals():
    cg = condense(two_parallel_graph())
    net = ValueNet(cg.n_nsps, depth=2, width=8, seed=0)
    assert predict(net, cg, (SUCCESS, UNATTEMPTED)) == 1.0
    assert predict(net, cg, (FAILED, FAILED)) == 0.0
    mid = predict(net, cg, (UNATTEMPTED, UNATTEMPTED))
    assert 0.0 < mid < 1.0


def _numeric_grads(net, x, y, h=1e-6):
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


def _flatten_grads(grads):
    parts = []
    for dw, db in grads:
        parts.append(dw.ravel())
        parts.append(db.ravel())
    return np.concatenate(parts)


@pytest.mark.parametrize("sizes_seed", [((5, 8, 1), 0), ((3, 4, 4, 1), 7), ((2, 8, 8, 1), 13)])
def test_gradient_check_matches_central_differences(sizes_seed):
    sizes, seed = sizes_seed
    net = ValueNet.from_sizes(sizes, seed=seed)
    rng = np.random.default_rng(seed + 100)
    x = rng.uniform(-1, 1, (12, sizes[0]))
    y = rng.uniform(0, 1, 12)
    loss, grads = net.loss_and_grads(x, y)
    assert loss >= 0.0
    analytic = _flatten_grads(grads)
    numeric = _numeric_grads(net, x, y)
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    assert np.linalg.norm(analytic - numeric) / denom <= 1e-4


def test_flat_params_round_trip():
    net = ValueNet(4, depth=2, width=8, seed=3)
    flat = net.flat_params()
    other = ValueNet(4, depth=2, width=8, seed=99)
    other.set_flat_params(flat)
    x = np.random.default_rng(1).uniform(-1, 1, (5, 4))
    assert np.array_equal(net.forward(x), other.forward(x))
    with pytest.raises(ValueError):
        other.set_flat_params(flat[:-1])


def test_bellman_targets_bounded_and_terminal_exact():
    cg = condense(shared_suffix_graph())
    net = ValueNet(cg.n_nsps, depth=2, width=8, seed=5)
    states = [
        (UNATTEMPTED, UNATTEMPTED),
        (SUCCESS, UNATTEMPTED),
        (FAILED, FAILED),
        (FAILED, UNATTEMPTED),
    ]
    targets = bellman_targets(net, cg, states)
    assert np.all(targets >= 0.0) and np.all(targets <= 1.0)
    assert targets[1] == 1.0
    assert targets[2] == 0.0


def test_action_values_weight_outcomes_by_probability():
    cg = condense(two_parallel_graph())
    net = ValueNet(cg.n_nsps, depth=2, width=8, seed=2)
    s = (UNATTEMPTED, UNATTEMPTED)
    got = dict(action_values(net, cg, s))
    for a in (0, 1):
        expect = sum(
            p * predict(net, cg, s2) for s2, p in transition(cg, s, a).outcomes
        )
        assert got[a] == pytest.approx(expect, abs=1e-12)


def test_rollout_on_terminal_start_returns_it_alone():
    cg = condense(two_parallel_graph())
    net = ValueNet(cg.n_nsps, depth=1, width=4, seed=0)
    rng = np.random.default_rng(0)
    assert rollout(net, cg, (FAILED, FAILED), 0.5, rng) == [(FAILED, FAILED)]


def test_rollout_visits_follow_transition_law():
    cg = condense(two_parallel_graph())
    net = ValueNet(cg.n_nsps, depth=1, width=4, seed=0)
    rng = np.random.default_rng(123)
    n = 10_000
    counts = {"detected": 0, "success": 0, "fail": 0}
    for _ in range(n):
        states = rollout(net, cg, (UNATTEMPTED, UNATTEMPTED), 1.0, rng)
        if len(states) == 1:
            counts["detected"] += 1
        elif SUCCESS in states[1]:
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
        states = rollout(net, cg, initial_state(cg), 0.5, rng)
        assert states[0] == initial_state(cg)
        assert all(len(s) == cg.n_nsps for s in states)


def test_train_round_learns_single_path_value():
    cg = condense(chain_graph([(0.1, 0.2)], blockable_last=False))
    net = ValueNet(cg.n_nsps, depth=4, width=256, seed=0)
    config = TrainingConfig(epochs_per_round=500, explore_prob=0.5)
    stats = train_round(net, cg, [()], config, np.random.default_rng(0))
    assert not stats.diverged
    assert stats.final_loss < 1e-3
    # the lone path succeeds with probability 0.7
    assert abs(predict(net, cg, initial_state(cg)) - 0.7) <= 0.02


def test_train_round_zero_epochs_changes_nothing():
    cg = condense(two_parallel_graph())
    net = ValueNet(cg.n_nsps, depth=2, width=8, seed=4)
    before = net.flat_params()
    stats = train_round(
        net, cg, [()], TrainingConfig(epochs_per_round=0), np.random.default_rng(0)
    )
    assert stats.epoch_losses == ()
    assert not stats.diverged
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
            TrainingConfig(epochs_per_round=40),
            np.random.default_rng(7),
        )
        runs.append((stats.epoch_losses, net.flat_params()))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])


def test_train_round_rejects_empty_plans_and_bad_config():
    cg = condense(two_parallel_graph())
    net = ValueNet(cg.n_nsps, depth=1, width=4, seed=0)
    with pytest.raises(ValueError):
        train_round(net, cg, [], TrainingConfig(), np.random.default_rng(0))
    with pytest.raises(ValueError):
        TrainingConfig(batch_size=0).validate()
    with pytest.raises(ValueError):
        TrainingConfig(explore_prob=1.5).validate()


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
    loaded, round_index = load_checkpoint(path)
    assert round_index == 17
    assert loaded.sizes == net.sizes
    assert np.array_equal(loaded.flat_params(), net.flat_params())
    x = np.random.default_rng(2).uniform(-1, 1, (9, cg.n_nsps))
    assert np.array_equal(loaded.forward(x), net.forward(x))


def test_checkpoint_rejects_foreign_and_truncated_files(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(str(bad))
    net = ValueNet(3, depth=1, width=4, seed=0)
    path = tmp_path / "net.ckpt"
    save_checkpoint(str(path), net)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(str(path))


def test_net_greedy_policy_is_admissible_in_simulation():
    cg = condense(shared_suffix_graph())
    net = ValueNet(cg.n_nsps, depth=2, width=8, seed=9)
    report = simulate(cg, None, NetGreedyPolicy(net, cg), runs=2000, seed=5)
    assert 0.0 <= report.success_rate <= 1.0


def test_greedy_action_breaks_ties_toward_smaller_id():
    cg = condense(two_parallel_graph())
    net = ValueNet(cg.n_nsps, depth=1, width=4, seed=0)
    # symmetric instance and symmetric state: both actions score equally
    got = dict(action_values(net, cg, (UNATTEMPTED, UNATTEMPTED)))
    if got[0] == got[1]:
        assert greedy_action(net, cg, (UNATTEMPTED, UNATTEMPTED)) == 0
