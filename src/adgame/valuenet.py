"""Feedforward approximation of the attacker's state values.

A small fully connected network maps attacker states to success
probabilities.  Training alternates rollouts under the current network with
regression onto one-step Bellman backups bootstrapped from the same
parameters: targets are computed with the current weights and held fixed
while the batch's gradient is taken.

Terminal states are never asked of the network; their exact values (one for
a reached target, zero for a dead or exhausted game) short-circuit both
prediction and target computation.
"""
from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass
from math import sqrt
from typing import Sequence

import numpy as np

from .kernel import CondensedGraph
from .mdp import (
    State,
    admissible_actions,
    argmax,
    expand,
    initial_state,
    terminal_value,
    transition,
)

CHECKPOINT_MAGIC = b"ADVN"
CHECKPOINT_VERSION = 1

# net and training defaults, named after the ExperimentConfig fields that use them
DEPTH = 4
WIDTH = 256
LEARNING_RATE = 0.001
BATCH_SIZE = 16
EPOCHS_PER_ROUND = 500
EXPLORE_PROB = 0.5


class CheckpointFormatError(Exception):
    """The checkpoint file is malformed, from an unknown format version, or
    holds a net whose input width is not the instance's NSP count."""


def encode_states(states: Sequence[State], width: int) -> np.ndarray:
    """One row per state over its ``width`` NSPs: success +1, live 0, failed
    -1, that is ``2 S + U - 1`` from the successful and live masks."""
    n_bytes = (width + 7) // 8

    def bits(masks) -> np.ndarray:
        raw = b"".join(m.to_bytes(n_bytes, "little") for m in masks)
        rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(states), n_bytes)
        return np.unpackbits(rows, axis=1, count=width, bitorder="little")

    return 2.0 * bits(s[2] for s in states) + bits(s[1] for s in states) - 1.0


class ValueNet:
    """Rectifier MLP with a logistic output, so predictions stay in (0,1)."""

    def __init__(self, n_inputs: int, depth: int = DEPTH, width: int = WIDTH, seed: int = 0):
        sizes = [n_inputs] + [width] * depth + [1]
        self._init(sizes, seed)

    @classmethod
    def from_sizes(cls, sizes: Sequence[int], seed: int = 0) -> "ValueNet":
        net = cls.__new__(cls)
        net._init(list(sizes), seed)
        return net

    def _init(self, sizes: list[int], seed: int) -> None:
        if len(sizes) < 2 or any(n < 1 for n in sizes) or sizes[-1] != 1:
            raise ValueError(f"bad layer sizes {sizes}")
        self.sizes = tuple(int(n) for n in sizes)
        self.seed = seed
        rng = np.random.default_rng(seed)
        # layer by layer, weights then bias: the checkpoint's flat order
        self.params: list[np.ndarray] = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            bound = 1.0 / sqrt(fan_in)
            self.params.append(rng.uniform(-bound, bound, (fan_in, fan_out)))
            self.params.append(rng.uniform(-bound, bound, fan_out))

    @property
    def n_inputs(self) -> int:
        return self.sizes[0]

    def n_params(self) -> int:
        return sum(p.size for p in self.params)

    def flat_params(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.params])

    def set_flat_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.n_params(),):
            raise ValueError(f"expected {self.n_params()} parameters, got {flat.shape}")
        at = 0
        for p in self.params:
            p[...] = flat[at : at + p.size].reshape(p.shape)
            at += p.size

    def _forward_trace(self, x: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Activations and pre-activations per layer, kept for backprop."""
        acts = [x]
        pres = []
        h = x
        last = len(self.sizes) - 2
        for i, (w, b) in enumerate(zip(self.params[::2], self.params[1::2])):
            z = h @ w + b
            pres.append(z)
            if i == last:
                h = 1.0 / (1.0 + np.exp(-z))
            else:
                h = np.maximum(z, 0.0)
            acts.append(h)
        return acts, pres

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        acts, _ = self._forward_trace(x)
        return acts[-1][:, 0]

    def loss_and_grads(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, list[np.ndarray]]:
        """Mean squared error against fixed targets, with analytic gradients
        aligned with ``params``."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
        n = x.shape[0]
        if y.shape[0] != n:
            raise ValueError("inputs and targets disagree in length")
        acts, pres = self._forward_trace(x)
        pred = acts[-1]
        err = pred - y
        loss = float(np.mean(err**2))
        delta = (2.0 / n) * err * pred * (1.0 - pred)
        grads: list[np.ndarray] = []  # built from the output layer back
        for i in range(len(pres) - 1, -1, -1):
            grads += [delta.sum(axis=0), acts[i].T @ delta]
            if i > 0:
                delta = (delta @ self.params[2 * i].T) * (pres[i - 1] > 0.0)
        return loss, grads[::-1]


# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adaptive-moment gradient descent over a net's parameters."""

    def __init__(self, net: ValueNet, learning_rate: float = LEARNING_RATE):
        self.net = net
        self.learning_rate = learning_rate
        self.t = 0
        self._m = [np.zeros_like(p) for p in net.params]
        self._v = [np.zeros_like(p) for p in net.params]

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        scale = self.learning_rate * sqrt(1.0 - b2**self.t) / (1.0 - b1**self.t)
        for param, grad, m, v in zip(self.net.params, grads, self._m, self._v):
            m *= b1
            m += (1 - b1) * grad
            v *= b2
            v += (1 - b2) * grad**2
            param -= scale * m / (np.sqrt(v) + ADAM_EPS)


def predict(net: ValueNet, cg: CondensedGraph, s: State) -> float:
    """Value of a state: exact on terminals, network output otherwise."""
    return float(_values(net, cg, [s])[0])


def _values(net: ValueNet, cg: CondensedGraph, states: list[State]) -> np.ndarray:
    out = np.empty(len(states))
    ask: list[int] = []
    for i, s in enumerate(states):
        tv = terminal_value(cg, s)
        if tv is None:
            ask.append(i)
        else:
            out[i] = tv
    if ask:
        out[ask] = net.forward(encode_states([states[i] for i in ask], cg.n_nsps))
    return out


def action_values(
    net: ValueNet, cg: CondensedGraph, s: State
) -> list[tuple[int, float]]:
    """One-step Bellman backup of every admissible action under the net.

    Detection carries zero value, so only the explicit outcomes contribute.
    """
    spans: list[tuple[int, tuple[int, int]]] = []
    succ: list[State] = []
    probs: list[float] = []
    for a, dist in expand(cg, s):
        start = len(succ)
        for s2, p in dist.outcomes:
            succ.append(s2)
            probs.append(p)
        spans.append((a, (start, len(succ))))
    vals = _values(net, cg, succ)
    weights = np.asarray(probs)
    return [
        (a, float(np.dot(weights[lo:hi], vals[lo:hi]))) for a, (lo, hi) in spans
    ]


def greedy_action(net: ValueNet, cg: CondensedGraph, s: State) -> int:
    """Best action under the net's backup; ties go to the smallest path id."""
    best_a, _ = argmax(action_values(net, cg, s))
    if best_a is None:
        raise ValueError(f"state {s} has no admissible action")
    return best_a


def bellman_targets(
    net: ValueNet, cg: CondensedGraph, states: Sequence[State]
) -> np.ndarray:
    """Regression targets: exact terminal values, best backups elsewhere."""
    out = np.empty(len(states))
    for i, s in enumerate(states):
        tv = terminal_value(cg, s)
        if tv is not None:
            out[i] = tv
        else:
            out[i] = max(q for _, q in action_values(net, cg, s))
    return out


class NetGreedyPolicy:
    """Deterministic policy playing the net's greedy action, memoized."""

    def __init__(self, net: ValueNet, cg: CondensedGraph):
        if net.n_inputs != cg.n_nsps:
            raise CheckpointFormatError(
                f"the net takes {net.n_inputs} inputs but the instance has "
                f"{cg.n_nsps} NSPs"
            )
        self.net = net
        self.cg = cg
        self._cache: dict[State, int] = {}

    def __call__(self, s: State) -> int:
        a = self._cache.get(s)
        if a is None:
            a = greedy_action(self.net, self.cg, s)
            self._cache[s] = a
        return a


def rollout(
    net: ValueNet,
    cg: CondensedGraph,
    s0: State,
    explore_prob: float,
    rng: np.random.Generator,
) -> list[State]:
    """States visited by one attack under the net's policy with exploration.

    Each step plays the greedy action with probability 1 - explore_prob and
    a uniform admissible action otherwise, then samples the successor from
    the true outcome distribution.  Detection ends the walk with no extra
    state to record.
    """
    states = [s0]
    s = s0
    while terminal_value(cg, s) is None:
        acts = admissible_actions(cg, s)
        if rng.random() < explore_prob:
            a = acts[int(rng.integers(len(acts)))]
        else:
            a = greedy_action(net, cg, s)
        dist = transition(cg, s, a)
        pick = bisect_right(dist.cumulative, rng.random())
        if pick == len(dist.outcomes):
            break  # the remaining mass is detection: the attack ends
        s = dist.outcomes[pick][0]
        states.append(s)
    return states


@dataclass(frozen=True)
class TrainingConfig:
    batch_size: int = BATCH_SIZE
    epochs_per_round: int = EPOCHS_PER_ROUND
    explore_prob: float = EXPLORE_PROB

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.epochs_per_round < 0:
            raise ValueError("epochs_per_round must be nonnegative")
        if not 0.0 <= self.explore_prob <= 1.0:
            raise ValueError("explore_prob must lie in [0, 1]")


@dataclass(frozen=True)
class TrainStats:
    epoch_losses: tuple[float, ...]
    diverged: bool


def train_round(
    net: ValueNet,
    cg: CondensedGraph,
    plans: Sequence[Sequence[int]],
    config: TrainingConfig,
    rng: np.random.Generator,
    optimizer: Adam | None = None,
) -> TrainStats:
    """One training round: per epoch, roll out a random plan and regress.

    Each epoch picks one plan and repeats rollouts from its initial state
    until a full batch of visited states is collected.  Targets are
    recomputed from the current parameters before each batch update.  A
    non-finite mean loss aborts the round with the diverged flag set so
    callers can record the failure and move on.
    """
    config.validate()
    if not plans:
        raise ValueError("plans must be non-empty")
    if optimizer is None:
        optimizer = Adam(net)
    losses: list[float] = []
    for _ in range(config.epochs_per_round):
        plan = plans[int(rng.integers(len(plans)))]
        s0 = initial_state(cg, plan)
        states: list[State] = []
        while len(states) < config.batch_size:
            states.extend(rollout(net, cg, s0, config.explore_prob, rng))
        batch_losses = []
        for at in range(0, len(states), config.batch_size):
            batch = states[at : at + config.batch_size]
            targets = bellman_targets(net, cg, batch)
            loss, grads = net.loss_and_grads(encode_states(batch, cg.n_nsps), targets)
            optimizer.step(grads)
            batch_losses.append(loss)
        mean_loss = float(np.mean(batch_losses))
        losses.append(mean_loss)
        if not np.isfinite(mean_loss):
            return TrainStats(tuple(losses), True)
    return TrainStats(tuple(losses), False)


def save_checkpoint(path: str, net: ValueNet, round_index: int = 0) -> None:
    """Binary checkpoint: sizes and seed header plus the flat parameters."""
    depth = len(net.sizes) - 2
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, depth))
        fh.write(struct.pack("<I", len(net.sizes)))
        fh.write(struct.pack(f"<{len(net.sizes)}I", *net.sizes))
        fh.write(struct.pack("<qI", net.seed, round_index))
        fh.write(net.flat_params().astype("<f8").tobytes())


def load_checkpoint(path: str) -> tuple[ValueNet, int]:
    """Restore a net with bit-identical parameters, plus its round index."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError("not a value-net checkpoint")
    try:
        version, depth = struct.unpack_from("<II", blob, 4)
        if version != CHECKPOINT_VERSION:
            raise CheckpointFormatError(f"unsupported checkpoint version {version}")
        (n_sizes,) = struct.unpack_from("<I", blob, 12)
        sizes = struct.unpack_from(f"<{n_sizes}I", blob, 16)
        at = 16 + 4 * n_sizes
        seed, round_index = struct.unpack_from("<qI", blob, at)
        at += 12
    except struct.error as exc:
        raise CheckpointFormatError(f"truncated checkpoint: {exc}") from exc
    if len(sizes) != depth + 2:
        raise CheckpointFormatError("depth disagrees with the layer list")
    # checked before the net is built, so a forged header allocates nothing
    n_params = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))
    if len(blob) - at != 8 * n_params:
        raise CheckpointFormatError(
            f"expected {n_params} parameters ({8 * n_params} bytes), "
            f"found {len(blob) - at} bytes"
        )
    net = ValueNet.from_sizes(sizes, seed=int(seed))
    net.set_flat_params(np.frombuffer(blob, dtype="<f8", offset=at))
    return net, int(round_index)
