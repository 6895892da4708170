"""Feedforward approximation of the attacker's state values.

A small fully connected network maps attacker states to success
probabilities.  Training alternates rollouts under the current network with
regression onto one-step Bellman backups bootstrapped from the same
parameters: targets are computed with the current weights and held fixed
while the batch's gradient is taken.

Terminal states are never asked of the network; their exact values (one for
a reached target, zero for a dead or exhausted game) short-circuit both
prediction and target computation.

A state's backup ranges over its route actions (``mdp.route_actions``):
the admissible NSPs that can still bring the attacker closer to DA.  By
``mdp``'s dominance argument the exact value is the best route action's q,
and 0 where there is none, so an exact net would lose nothing by the
restriction and an approximate one only loses choices that cannot win.
The backup of a state without a route action is its first admissible
action at q 0.0, with no row for the net.  Exploration still draws from
every admissible action.

The backup has a part that does not depend on the net: its route actions,
their outcome masses, the exact values of the terminal successors and the
encoded rows of the others.  A ``BackupTable`` serves one net on
one instance: it builds that part once per state and keeps it, with the
last action values computed from it and the net's weights version then.
``Adam.step`` and ``set_flat_params`` are the only writers of a net's
parameters, and each bumps its version, so a backup asked again at the same
version is the same computation, and the table returns its stored result.
Otherwise it hands ``forward`` the same matrix in the same row order as a
fresh backup, so its values are bit-identical.  The table is the one memo
of the net's decisions: ``greedy_action``, ``bellman_targets``, ``rollout``
and ``NetGreedyPolicy`` take it and read ``table.cg`` and ``table.net``.  A
pipeline run's training rounds and final policy share one table, and a
``train_round`` given none makes one for the round.  A table holds at most
``BACKUP_TABLE_BYTES``, or one entry when a single entry is larger, and
starts empty again when an entry would overflow it.
"""
from __future__ import annotations

import os
import struct
from bisect import bisect_right
from dataclasses import dataclass
from math import isnan, sqrt
from typing import BinaryIO, Sequence

import numpy as np

from .config import LEARNING_RATE, ExperimentConfig
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
CHECKPOINT_VERSION = 2

# a backup table's memory budget, and the charges for what an entry holds
# beside its arrays (measured with tracemalloc, rounded up)
BACKUP_TABLE_BYTES = 16 << 20
_ENTRY_BYTES = 2048
_ACTION_BYTES = 256


class CheckpointFormatError(Exception):
    """The checkpoint file is malformed, from an unknown format version, or
    holds a net whose input width is not the NSP count it is loaded for."""


class TrainingDivergedError(Exception):
    """Training drove the net to nan: an epoch's mean loss is not finite,
    or the net values a state, or every action of one, as nan."""


def encode_states(states: Sequence[State], width: int) -> np.ndarray:
    """One ``int8`` row per state over its ``width`` NSPs: success +1, live
    0, failed -1, that is ``2 S + U - 1`` from the successful and live
    masks.  The net converts rows to its dtype, exactly."""
    n_bytes = (width + 7) // 8

    def bits(masks) -> np.ndarray:
        raw = b"".join(m.to_bytes(n_bytes, "little") for m in masks)
        rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(states), n_bytes)
        return np.unpackbits(rows, axis=1, count=width, bitorder="little")

    rows = bits(s[2] for s in states)
    rows <<= 1
    rows += bits(s[1] for s in states)
    rows = rows.view(np.int8)
    rows -= 1
    return rows


class ValueNet:
    """Rectifier MLP with a logistic output, so predictions stay in (0,1).

    Parameters, inputs, targets and Adam's moments are held in ``dtype``:
    float32 by default, which halves the cost of a row against float64.
    The float64 build serves the finite-difference gradient checks, where
    float32 rounding would swamp the central differences.  Initial
    parameters are drawn in float64 and then cast, so a float64 net of a
    seed keeps the parameters it always had.
    """

    def __init__(
        self, n_inputs: int, depth: int, width: int, seed: int = 0,
        dtype: type = np.float32,
    ):
        if depth < 0:
            raise ValueError(f"depth must be at least 0, got {depth}")
        sizes = [n_inputs] + [width] * depth + [1]
        if min(sizes) < 1:
            raise ValueError(f"bad layer sizes {sizes}")
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.float32, np.float64):
            raise ValueError(f"a net is float32 or float64, not {self.dtype}")
        self.sizes = tuple(int(n) for n in sizes)
        self.seed = seed
        self.version = 0  # bumped by every write of the parameters
        rng = np.random.default_rng(seed)
        # layer by layer, weights then bias: the checkpoint's flat order
        self.params: list[np.ndarray] = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            bound = 1.0 / sqrt(fan_in)
            w = rng.uniform(-bound, bound, (fan_in, fan_out))
            b = rng.uniform(-bound, bound, fan_out)
            self.params += [w.astype(self.dtype), b.astype(self.dtype)]

    def n_params(self) -> int:
        return sum(p.size for p in self.params)

    def flat_params(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.params])

    def set_flat_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=self.dtype)
        if flat.shape != (self.n_params(),):
            raise ValueError(f"expected {self.n_params()} parameters, got {flat.shape}")
        at = 0
        for p in self.params:
            p[...] = flat[at : at + p.size].reshape(p.shape)
            at += p.size
        self.version += 1

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
                # exp overflows to inf below z of about -89 in float32, and
                # 1 / inf is the sigmoid's limit there, 0.0
                with np.errstate(over="ignore"):
                    h = 1.0 / (1.0 + np.exp(-z))
            else:
                h = np.maximum(z, 0.0)
            acts.append(h)
        return acts, pres

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=self.dtype))
        acts, _ = self._forward_trace(x)
        return acts[-1][:, 0]

    def loss_and_grads(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, list[np.ndarray]]:
        """Mean squared error against fixed targets, with analytic gradients
        aligned with ``params``."""
        x = np.atleast_2d(np.asarray(x, dtype=self.dtype))
        y = np.asarray(y, dtype=self.dtype).reshape(-1, 1)
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
        self.net.version += 1


def predict(net: ValueNet, cg: CondensedGraph, s: State) -> float:
    """Value of a state: exact on terminals, network output otherwise."""
    tv = terminal_value(cg, s)
    if tv is not None:
        return tv
    value = float(net.forward(encode_states([s], cg.n_nsps))[0])
    if isnan(value):
        raise TrainingDivergedError(f"the net values state {s} as nan")
    return value


class _Backup:
    """The net-free part of one state's backup, and its last action values."""

    __slots__ = (
        "spans", "weights", "values", "ask", "rows", "q", "version", "off_route"
    )

    def __init__(self, cg: CondensedGraph, s: State):
        spans: list[tuple[int, int, int]] = []
        succ: list[State] = []
        probs: list[float] = []
        for a, outcomes in expand(cg, s):
            start = len(succ)
            for s2, p in outcomes:
                succ.append(s2)
                probs.append(p)
            spans.append((a, start, len(succ)))
        moves = admissible_actions(cg, s)
        self.off_route = len(moves) - len(spans)  # admissible actions skipped
        if moves and not spans:
            # no route action: the exact value is 0, played by the first move
            spans.append((moves[0], 0, 0))
        values = np.zeros(len(succ))
        ask: list[int] = []
        for i, s2 in enumerate(succ):
            tv = terminal_value(cg, s2)
            if tv is None:
                ask.append(i)
            else:
                values[i] = tv
        self.spans = spans  # (action, first outcome, end), in id order
        self.weights = np.asarray(probs)
        self.values = values  # exact on terminal successors, 0 elsewhere
        self.ask = np.asarray(ask, dtype=np.intp)  # the other successors
        self.rows = encode_states([succ[i] for i in ask], cg.n_nsps)
        self.q: list[tuple[int, float]] = []
        self.version = -1  # the net's weights version that gave ``q``

    def nbytes(self) -> int:
        arrays = (self.weights, self.values, self.ask, self.rows)
        return _ENTRY_BYTES + _ACTION_BYTES * len(self.spans) + sum(
            x.nbytes for x in arrays
        )


class BackupTable:
    """Backups of one instance's states under one net with an input per NSP,
    built once per state; their action values are served again while the
    net keeps its weights.

    ``counts`` tallies entries built, lookups that found an entry, action
    values served without the net, rows the net evaluated, and the
    admissible actions off every route that the entries built left out.
    """

    def __init__(self, cg: CondensedGraph, net: ValueNet):
        self.cg = cg
        self.net = net
        self._entries: dict[State, _Backup] = {}
        self._bytes = 0
        self.counts = dict.fromkeys(
            (
                "entries_built", "entry_reuses", "q_list_reuses", "net_rows",
                "off_route_actions",
            ),
            0,
        )

    def action_values(self, s: State) -> list[tuple[int, float]]:
        """One-step Bellman backup of every route action under the net;
        detection carries zero value, so only explicit outcomes contribute.
        A state with admissible actions but no route action gets its first
        admissible action at q 0.0, its exact value, and asks the net
        nothing."""
        b = self._entries.get(s)
        if b is None:
            b = _Backup(self.cg, s)
            self.counts["entries_built"] += 1
            self.counts["off_route_actions"] += b.off_route
            size = b.nbytes()
            if self._bytes + size > BACKUP_TABLE_BYTES:
                self._entries.clear()
                self._bytes = 0
            self._entries[s] = b
            self._bytes += size
        else:
            self.counts["entry_reuses"] += 1
            if b.version == self.net.version:
                self.counts["q_list_reuses"] += 1
                return list(b.q)
        vals = b.values.copy()
        if len(b.ask):
            vals[b.ask] = self.net.forward(b.rows)
            self.counts["net_rows"] += len(b.ask)
        w = b.weights
        b.q = [(a, float(np.dot(w[lo:hi], vals[lo:hi]))) for a, lo, hi in b.spans]
        b.version = self.net.version
        return list(b.q)


def greedy_action(table: BackupTable, s: State) -> int:
    """Best route action under the table's net (the first admissible one
    where no route action exists); ties go to the smallest path id.  A net
    that values every route action as nan has diverged."""
    q = table.action_values(s)
    best_a, _ = argmax(q)
    if best_a is None:
        if q:
            raise TrainingDivergedError(
                f"the net values every action of state {s} as nan"
            )
        raise ValueError(f"state {s} has no admissible action")
    return best_a


def bellman_targets(table: BackupTable, states: Sequence[State]) -> np.ndarray:
    """Regression targets: exact terminal values, best backups elsewhere."""
    out = np.empty(len(states))
    for i, s in enumerate(states):
        tv = terminal_value(table.cg, s)
        if tv is not None:
            out[i] = tv
        else:
            out[i] = max(q for _, q in table.action_values(s))
    return out


class NetGreedyPolicy:
    """Deterministic policy playing the greedy action of ``table``'s net
    under its current weights; ``table`` is its only memo."""

    def __init__(self, table: BackupTable):
        self.table = table

    def __call__(self, s: State) -> int:
        return greedy_action(self.table, s)


def rollout(
    table: BackupTable,
    s0: State,
    explore_prob: float,
    rng: np.random.Generator,
) -> list[State]:
    """States visited by one attack under the net's policy with exploration.

    Each step plays the greedy action with probability 1 - explore_prob and
    a uniform admissible action, on a route or not, otherwise, then samples
    the successor from the true outcome distribution.  Detection ends the
    walk with no extra state to record.
    """
    cg = table.cg
    states = [s0]
    s = s0
    while terminal_value(cg, s) is None:
        if rng.random() < explore_prob:
            acts = admissible_actions(cg, s)
            a = acts[int(rng.integers(len(acts)))]
        else:
            a = greedy_action(table, s)
        dist = transition(cg, s, a)
        pick = bisect_right(dist.cumulative, rng.random())
        if pick == len(dist.outcomes):
            break  # the remaining mass is detection: the attack ends
        s = dist.outcomes[pick][0]
        states.append(s)
    return states


# read only by perfbench's self-test, which builds its settings by this name
TrainingConfig = ExperimentConfig


@dataclass(frozen=True)
class TrainStats:
    epoch_losses: tuple[float, ...]
    rollouts: int  # attacks rolled out to fill the round's batches


def train_round(
    net: ValueNet,
    cg: CondensedGraph,
    plans: Sequence[Sequence[int]],
    config: ExperimentConfig,
    rng: np.random.Generator,
    optimizer: Adam,
    table: BackupTable | None = None,
) -> TrainStats:
    """One training round: per epoch, roll out a random plan and regress.

    ``config`` supplies ``batch_size``, ``epochs_per_round`` and
    ``explore_prob``.  Each epoch picks one plan and repeats rollouts from
    its initial state until a full batch of visited states is collected.
    Targets are recomputed from the current parameters before each batch
    update.  An epoch whose mean loss is not finite raises
    ``TrainingDivergedError``.  Backups go through ``table``, which must be
    built for ``cg`` and ``net`` (one for this round when None).
    """
    if not plans:
        raise ValueError("plans must be non-empty")
    if table is None:
        table = BackupTable(cg, net)
    elif table.cg is not cg or table.net is not net:
        raise ValueError("the backup table belongs to another instance or net")
    losses: list[float] = []
    rollouts = 0
    for _ in range(config.epochs_per_round):
        plan = plans[int(rng.integers(len(plans)))]
        s0 = initial_state(cg, plan)
        states: list[State] = []
        while len(states) < config.batch_size:
            states.extend(rollout(table, s0, config.explore_prob, rng))
            rollouts += 1
        batch_losses = []
        for at in range(0, len(states), config.batch_size):
            batch = states[at : at + config.batch_size]
            targets = bellman_targets(table, batch)
            loss, grads = net.loss_and_grads(encode_states(batch, cg.n_nsps), targets)
            optimizer.step(grads)
            batch_losses.append(loss)
        mean_loss = float(np.mean(batch_losses))
        if not np.isfinite(mean_loss):
            raise TrainingDivergedError(
                f"epoch {len(losses)} mean loss {mean_loss}"
            )
        losses.append(mean_loss)
    return TrainStats(tuple(losses), rollouts)


def save_checkpoint(path: str, net: ValueNet, round_index: int = 0) -> None:
    """Binary checkpoint: sizes and seed header plus the flat parameters as
    little-endian float32.  A net of another dtype is refused rather than
    rounded."""
    if net.dtype != np.float32:
        raise ValueError(f"a checkpoint holds a float32 net, not {net.dtype}")
    depth = len(net.sizes) - 2
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, depth))
        fh.write(struct.pack("<I", len(net.sizes)))
        fh.write(struct.pack(f"<{len(net.sizes)}I", *net.sizes))
        fh.write(struct.pack("<qI", net.seed, round_index))
        fh.write(net.flat_params().astype("<f4").tobytes())


def load_checkpoint(path: str, n_inputs: int) -> tuple[ValueNet, int]:
    """Restore a float32 net with bit-identical parameters, plus its round
    index; a net that does not take ``n_inputs`` inputs, one per NSP of the
    instance it is loaded for, is refused.  The file is read no further
    than its header promises, plus one byte, so an oversized file is
    refused in bounded memory."""
    try:
        with open(path, "rb") as fh:
            return _read_checkpoint(fh, n_inputs)
    except OSError as exc:
        raise CheckpointFormatError(f"cannot read checkpoint {path}: {exc}") from exc


def _read_checkpoint(fh: BinaryIO, n_inputs: int) -> tuple[ValueNet, int]:
    size = os.fstat(fh.fileno()).st_size
    blob = fh.read(16)
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError("not a value-net checkpoint")
    try:
        version, depth = struct.unpack_from("<II", blob, 4)
        if version != CHECKPOINT_VERSION:
            raise CheckpointFormatError(f"unsupported checkpoint version {version}")
        (n_sizes,) = struct.unpack_from("<I", blob, 12)
        # no more than the file holds, however many sizes the header claims
        blob += fh.read(min(4 * n_sizes + 12, size))
        sizes = struct.unpack_from(f"<{n_sizes}I", blob, 16)
        at = 16 + 4 * n_sizes
        seed, round_index = struct.unpack_from("<qI", blob, at)
        at += 12
    except struct.error as exc:
        raise CheckpointFormatError(f"truncated checkpoint: {exc}") from exc
    if len(sizes) != depth + 2:
        raise CheckpointFormatError("depth disagrees with the layer list")
    if seed < 0:
        raise CheckpointFormatError(f"negative net seed {seed}")
    # what ValueNet(n, depth, width) builds: (n, width, ..., width, 1)
    if min(sizes) < 1 or sizes[-1] != 1 or len(set(sizes[1:-1])) > 1:
        raise CheckpointFormatError(f"bad layer sizes {list(sizes)}")
    if sizes[0] != n_inputs:
        raise CheckpointFormatError(
            f"the net takes {sizes[0]} inputs but the instance has {n_inputs} NSPs"
        )
    # checked before the net is built, so a forged header allocates nothing
    n_params = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))
    # a read asks for its whole length up front, so bound it by the file too
    payload = fh.read(min(4 * n_params, max(size - at, 0)) + 1)
    if len(payload) != 4 * n_params:
        raise CheckpointFormatError(
            f"expected {n_params} parameters ({4 * n_params} bytes), "
            f"found {size - at} bytes"
        )
    net = ValueNet(sizes[0], depth, sizes[1], seed=int(seed))
    net.set_flat_params(np.frombuffer(payload, dtype="<f4"))
    return net, int(round_index)
