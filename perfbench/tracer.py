"""In-memory span tracer that wraps adgame's layer functions from outside.

``Tracer.install()`` replaces each target function with a timing wrapper in
every ``adgame`` module that bound it (``transition`` is imported by name
into ``mdp``, ``valuenet`` and ``simulate``; ``simulate`` into ``defense``,
``pipeline`` and the package itself), and each target method on its class.
``uninstall()`` puts the originals back.

Every wrapped call updates per-function aggregates: calls, inclusive time,
errors, a work count where one exists (states solved, rows, runs,
iterations), and time not covered by its direct children.  Calls of the
cheap, hot functions are only aggregated; the others are also kept as
spans ``(id, name, start, end, parent id, operation id)`` and written out
when the run ends.

A layer's self time is the time its frames spend outside frames of other
layers.  Each open frame accumulates the time that other layers took below
it; a frame that closes inside a frame of the same layer passes that time
up, so the outermost frame of a layer run knows its layer's share exactly.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable

LAYERS = (
    "generator", "graph", "kernel", "mdp", "valuenet",
    "defense", "simulate", "pipeline", "bench",
)


def _rows(args, kwargs, pre, result) -> int:
    x = args[1] if len(args) > 1 else kwargs["x"]
    return 1 if getattr(x, "ndim", 2) == 1 else len(x)


def _runs(args, kwargs, pre, result) -> int:
    return result.runs


def _iterations(args, kwargs, pre, result) -> int:
    return args[4] if len(args) > 4 else kwargs.get("iterations", 10000)


def _states_before(args, kwargs) -> int:
    return args[0].states_solved


def _states_delta(args, kwargs, pre, result) -> int:
    return args[0].states_solved - pre


# (module, qualified name, keep spans, count-before hook, count-after hook)
# The layer of a target is its module's name.  Hot functions are aggregated
# only; a span per call would cost more memory than the run itself.
TARGETS: tuple[tuple[str, str, bool, Callable | None, Callable | None], ...] = (
    ("generator", "generate_synthetic", True, None, None),
    ("graph", "prune", True, None, None),
    ("graph", "sample_edge_probabilities", True, None, None),
    ("graph", "assign_blockable", True, None, None),
    ("graph", "select_entry_nodes", True, None, None),
    ("graph", "load_graph", True, None, None),
    ("graph", "save_graph", True, None, None),
    ("kernel", "condense", True, None, None),
    ("mdp", "admissible_actions", False, None, None),
    ("mdp", "transition", False, None, None),
    ("mdp", "terminal_value", False, None, None),
    ("mdp", "ExactSolver.value_and_action", False, _states_before, _states_delta),
    ("valuenet", "ValueNet.forward", False, None, _rows),
    ("valuenet", "ValueNet.loss_and_grads", False, None, None),
    ("valuenet", "Adam.step", False, None, None),
    ("valuenet", "greedy_action", False, None, None),
    ("valuenet", "bellman_targets", False, None, None),
    ("valuenet", "rollout", False, None, None),
    ("valuenet", "NetGreedyPolicy.__call__", False, None, None),
    ("valuenet", "train_round", True, None, None),
    ("valuenet", "save_checkpoint", True, None, None),
    ("defense", "ExactFitness.__call__", True, None, None),
    ("defense", "NetFitness.__call__", False, None, None),
    ("defense", "MonteCarloFitness.__call__", False, None, None),
    ("defense", "diversity_select_removal", False, None, None),
    ("defense", "edo_run", True, None, _iterations),
    ("defense", "vec_run", True, None, _iterations),
    ("defense", "greedy_run", True, None, None),
    ("defense", "exhaustive_run", True, None, None),
    ("defense", "save_population", True, None, None),
    ("simulate", "DpPolicy.__call__", False, None, None),
    ("simulate", "simulate", True, None, _runs),
    ("simulate", "simulate_on_original", True, None, _runs),
    ("pipeline", "build_source_graph", True, None, None),
    ("pipeline", "prepare_instance", True, None, None),
    ("pipeline", "run_baseline", True, None, None),
    ("pipeline", "run_nndp_edo", True, None, None),
    ("pipeline", "_exact_value_or_none", True, None, None),
    ("pipeline", "_persist", True, None, None),
)


# functions whose callers are counted per caller (``Tracer.edge``)
EDGE_CHILDREN = frozenset({
    "valuenet.greedy_action",
    "valuenet.NetGreedyPolicy.__call__",
    "simulate.DpPolicy.__call__",
})


class Stat:
    """Aggregates of one wrapped function."""

    __slots__ = ("calls", "total_s", "own_s", "layer_s", "errors", "work")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0  # inclusive
        self.own_s = 0.0  # not covered by direct children
        self.layer_s = 0.0  # own layer's self time, for layer-outermost calls
        self.errors = 0
        self.work = 0


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        # calls and time per (parent name, child name)
        self.edges: dict[tuple[str, str], list] = {}
        # self time per (layer, phase)
        self.layer_self: dict[tuple[str, str], float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.phase = "op"
        self.op_id = ""
        # open frames: [layer, foreign time, name, kept span id, children time],
        # under a root frame that belongs to no layer
        self._stack: list[list] = [["", 0.0, "", -1, 0.0]]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def wrap(self, fn, name: str, layer: str, keep: bool, before=None, after=None,
             track_parent: bool = False):
        """A wrapper of ``fn`` that records it as ``name`` in ``layer``.

        ``track_parent`` also counts its calls and time per caller.
        """
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = self.clock
        layer_self = self.layer_self
        tracer = self

        def close(frame, parent, dur):
            stat.calls += 1
            stat.total_s += dur
            stat.own_s += dur - frame[4]
            parent[4] += dur
            if parent[0] == layer:
                parent[1] += frame[1]
            else:
                self_time = dur - frame[1]
                stat.layer_s += self_time
                layer_self[(layer, tracer.phase)] += self_time
                parent[1] += dur
            if track_parent:
                edge = tracer.edges.setdefault((parent[2], name), [0, 0.0])
                edge[0] += 1
                edge[1] += dur

        if not keep and before is None and after is None:
            # the hot path: no span kept, no work counted
            def traced(*args, **kwargs):
                parent = stack[-1]
                frame = [layer, 0.0, name, parent[3], 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    stat.errors += 1
                    raise
                finally:
                    dur = clock() - t0
                    stack.pop()
                    close(frame, parent, dur)
        else:
            spans = self.spans

            def traced(*args, **kwargs):
                parent = stack[-1]
                frame = [layer, 0.0, name, parent[3], 0.0]
                if keep:
                    frame[3] = len(spans)
                    spans.append(None)  # reserve the id; filled in on exit
                stack.append(frame)
                pre = before(args, kwargs) if before is not None else None
                result = None
                failed = True
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                    failed = False
                    return result
                finally:
                    t1 = clock()
                    stack.pop()
                    close(frame, parent, t1 - t0)
                    if failed:
                        stat.errors += 1
                    if after is not None and (not failed or before is not None):
                        stat.work += after(args, kwargs, pre, result)
                    if keep:
                        spans[frame[3]] = (frame[3], name, t0, t1, parent[3], tracer.op_id)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def run(self, name: str, phase: str, op_id: str, fn: Callable, *args):
        """Run ``fn(*args)`` as one benchmark-level span of ``phase``."""
        self.phase = phase
        self.op_id = op_id
        return self.wrap(fn, name, "bench", True)(*args)

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for n, m in sys.modules.items()
            if m is not None and (n == "adgame" or n.startswith("adgame."))
        ]
        for module_name, qual, keep, before, after in TARGETS:
            mod = sys.modules[f"adgame.{module_name}"]
            name = f"{module_name}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self.wrap(
                    original, name, module_name, keep, before, after,
                    name in EDGE_CHILDREN,
                ))
                continue
            original = mod.__dict__[qual]
            wrapper = self.wrap(
                original, name, module_name, keep, before, after, name in EDGE_CHILDREN
            )
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------
    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def edge(self, parent: str, child: str) -> tuple[int, float]:
        calls, total = self.edges.get((parent, child), (0, 0.0))
        return calls, total

    def layer_time(self, layer: str, phase: str | None = None) -> float:
        return sum(
            t for (lay, ph), t in self.layer_self.items()
            if lay == layer and (phase is None or ph == phase)
        )

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is None:
                    continue
                sid, name, start, end, parent, op = span
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")
            for name, st in sorted(self.stats.items()):
                fh.write(json.dumps({
                    "aggregate": name, "calls": st.calls, "total_s": st.total_s,
                    "own_s": st.own_s, "errors": st.errors, "work": st.work,
                }) + "\n")
