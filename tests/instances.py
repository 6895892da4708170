"""Hand-built, randomly sampled and generated game instances shared across
the suite, and a forged value-net checkpoint."""
from __future__ import annotations

import os
import struct
from dataclasses import replace

import numpy as np

from adgame.config import ExperimentConfig
from adgame.graph import (
    AttackGraph,
    COMPUTER,
    DOMAIN_ADMIN,
    Edge,
    GENERIC,
    Node,
    prune,
    save_graph,
)
from adgame.kernel import CondensedGraph, condense
from adgame.pipeline import build_source_graph, prepare_instance

EdgeSpec = tuple[str, str, float, float, bool]


def build_game(
    edge_specs: list[EdgeSpec],
    entries: set[str],
    da: str = "da",
    prepare: bool = True,
) -> AttackGraph:
    """Assemble a graph from (src, dst, p_d, p_f, blockable) tuples.

    Nodes are created in first-appearance order; the node named ``da`` is
    the domain-admin target.
    """
    order: list[str] = []
    seen: set[str] = set()
    for src, dst, *_ in edge_specs:
        for v in (src, dst):
            if v not in seen:
                seen.add(v)
                order.append(v)
    nodes = tuple(
        Node(v, DOMAIN_ADMIN if v == da else COMPUTER) for v in order
    )
    edges = tuple(
        Edge(src, dst, GENERIC, p_d, p_f, blockable)
        for src, dst, p_d, p_f, blockable in edge_specs
    )
    g = AttackGraph(nodes, edges, frozenset(entries))
    g.validate()
    return prune(g) if prepare else g


def shared_suffix_graph(p_d: float = 0.1, p_f: float = 0.2) -> AttackGraph:
    """Two NSPs (A,B,C,D) and (E,C,D) sharing the final edge C->D.

    Only C->D is blockable, so it is the block-worthy edge of both paths.
    """
    return build_game(
        [
            ("A", "B", p_d, p_f, False),
            ("B", "C", p_d, p_f, False),
            ("C", "da", p_d, p_f, True),
            ("E", "C", p_d, p_f, False),
        ],
        entries={"A", "E"},
    )


def textbook_kernel_graph() -> AttackGraph:
    """Entry s, splitting nodes {a, d, f}, three named NSPs.

    The walk s->a then branches: a->b->c->d and a->e->f, with d and f
    trading edges to each other and to DA.  Blockable edges are (b,c),
    (c,d), (a,e); the block-worthy set is {(c,d), (a,e)}.
    """
    p = (0.05, 0.1)
    return build_game(
        [
            ("s", "a", *p, False),
            ("a", "b", *p, False),
            ("b", "c", *p, True),
            ("c", "d", *p, True),
            ("a", "e", *p, True),
            ("e", "f", *p, False),
            ("d", "da", *p, False),
            ("d", "f", *p, False),
            ("f", "da", *p, False),
            ("f", "d", *p, False),
        ],
        entries={"s"},
    )


def two_parallel_graph(p_d: float = 0.1, p_f: float = 0.2) -> AttackGraph:
    """Two independent single-edge NSPs from separate entries to DA."""
    return build_game(
        [
            ("A", "da", p_d, p_f, True),
            ("B", "da", p_d, p_f, True),
        ],
        entries={"A", "B"},
    )


def four_parallel_graph(p_d: float = 0.1, p_f: float = 0.2) -> AttackGraph:
    """Four interchangeable single-edge NSPs; every same-size plan ties."""
    return build_game(
        [(name, "da", p_d, p_f, True) for name in "ABCD"],
        entries=set("ABCD"),
    )


def chain_graph(probs: list[tuple[float, float]], blockable_last: bool = True) -> AttackGraph:
    """A single entry-to-DA chain with the given per-edge (p_d, p_f)."""
    specs: list[EdgeSpec] = []
    names = [f"n{i}" for i in range(len(probs))] + ["da"]
    for i, (p_d, p_f) in enumerate(probs):
        block = blockable_last and i == len(probs) - 1
        specs.append((names[i], names[i + 1], p_d, p_f, block))
    return build_game(specs, entries={"n0"})


def greedy_trap_graph() -> AttackGraph:
    """An instance where greedy blocking is strictly suboptimal at k=2.

    Found by search over random instances: the best single block and the
    best pair do not nest, because detection risk makes the attacker's
    preferred ordering shift once the first edge is gone.  Probabilities
    are frozen so the exact values stay reproducible.
    """
    return build_game(
        [
            ("e0", "m1", 0.06714194530094897, 0.3940628585368811, True),
            ("e0", "m2", 0.21367427742689893, 0.0683298396591343, False),
            ("e1", "m0", 0.01980147436249688, 0.04145830955405554, True),
            ("m0", "m2", 0.02900087411805166, 0.07144036203749597, False),
            ("m0", "m3", 0.08115016003068223, 0.3224124856590993, True),
            ("m1", "da", 0.003873831929828986, 0.06027584212871924, True),
            ("m2", "da", 0.22285479022842195, 0.03259500537254323, True),
            ("m3", "da", 0.015053715960702013, 0.137920555755859, True),
            ("e1", "m1", 0.231681588585065, 0.3297968757009789, False),
        ],
        entries={"e0", "e1"},
    )


def random_instance(
    seed: int,
    max_nsps: int = 10,
    max_mid: int = 7,
    p_d_high: float = 0.25,
    p_f_high: float = 0.4,
) -> CondensedGraph | None:
    """A small random pruned instance, or None when it exceeds ``max_nsps``.

    Nodes are arranged in a topological order (entries, middles, DA) with
    forward edges, plus an occasional back edge to exercise cycles.
    """
    rng = np.random.default_rng(seed)
    n_entries = int(rng.integers(1, 3))
    n_mid = int(rng.integers(2, max_mid + 1))
    names = [f"e{i}" for i in range(n_entries)]
    names += [f"m{i}" for i in range(n_mid)]
    names.append("da")

    specs: list[EdgeSpec] = []
    pairs: set[tuple[str, str]] = set()

    def add(src_idx: int, dst_idx: int) -> None:
        src, dst = names[src_idx], names[dst_idx]
        if (src, dst) in pairs:
            return
        pairs.add((src, dst))
        p_d = float(rng.uniform(0.0, p_d_high))
        p_f = float(rng.uniform(0.0, min(p_f_high, 0.9 - p_d)))
        specs.append((src, dst, p_d, p_f, bool(rng.random() < 0.5)))

    last = len(names) - 1
    for i in range(last):
        n_out = int(rng.integers(1, 3))
        for _ in range(n_out):
            lo = max(i + 1, n_entries)
            add(i, int(rng.integers(lo, last + 1)))
    extra = int(rng.integers(0, 3))
    for _ in range(extra):
        i = int(rng.integers(0, last))
        lo = max(i + 1, n_entries)
        add(i, int(rng.integers(lo, last + 1)))
    if rng.random() < 0.3 and n_mid >= 2:
        add(n_entries + 1, n_entries)

    g = build_game(specs, entries=set(names[:n_entries]))
    cg = condense(g)
    if cg.n_nsps > max_nsps:
        return None
    return cg


def random_instances(n_seeds: int, max_nsps: int) -> list[CondensedGraph]:
    """``random_instance`` of seeds ``0 .. n_seeds - 1`` within ``max_nsps``,
    each followed by two variants of the same graph: about half its edges
    never fail (``p_f = 0``) in one, and never pass (``p_s = 0``) in the
    other."""
    out = []
    for seed in range(n_seeds):
        cg = random_instance(seed, max_nsps=max_nsps)
        if cg is None:
            continue
        rng = np.random.default_rng((seed, 1))
        flip = [bool(rng.random() < 0.5) for _ in cg.graph.edges]
        out.append(cg)
        for zero in (
            lambda e: replace(e, p_f=0.0),
            lambda e: replace(e, p_f=1.0 - e.p_d),
        ):
            edges = tuple(zero(e) if f else e for e, f in zip(cg.graph.edges, flip))
            out.append(condense(replace(cg.graph, edges=edges)))
    return out


# the benchmark's generated graphs: config fields and instance seed
GRAPH_B = (dict(n_computers=30, entry_pool_size=6, entry_count=3), 0)
GRAPH_D = (dict(n_computers=40, entry_pool_size=8, entry_count=4), 1)


def saved_instance(directory: str, fields: dict, seed: int) -> CondensedGraph:
    """A generated graph, saved and loaded again as the benchmark does."""
    base = ExperimentConfig(**fields)
    path = os.path.join(directory, "graph.txt")
    save_graph(build_source_graph(base, seed), path)
    return prepare_instance(replace(base, graph_file=path), seed).cg


def write_forged_checkpoint(
    path: str, sizes: tuple[int, ...], n_params: int = 4, version: int = 2
) -> None:
    """A well-formed checkpoint header claiming layer ``sizes`` over a
    payload of ``n_params`` zero parameters, 4 bytes each in format
    ``version`` 2 and 8 bytes each in the retired version 1."""
    with open(path, "wb") as fh:
        fh.write(b"ADVN")
        fh.write(struct.pack("<III", version, len(sizes) - 2, len(sizes)))
        fh.write(struct.pack(f"<{len(sizes)}I", *sizes))
        fh.write(struct.pack("<qI", 0, 0))
        fh.write(bytes((8 if version == 1 else 4) * n_params))
