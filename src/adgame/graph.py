"""Directed attack graphs with per-edge compromise probabilities.

A graph models lateral movement in a network: nodes are computers, users,
groups, or the (merged) domain-admin target DA, and a directed edge u -> v
means that an attacker who owns u can try to take over v.  Each edge carries
a detection probability ``p_d`` (the attempt is noticed and the whole attack
ends), a failure probability ``p_f`` (the edge is burned and can never be
used again), and a success probability ``p_s = 1 - p_d - p_f``.  Some edges
are blockable: the defender may spend budget to raise their failure rate to
100%.

This module owns the graph data type and the preparation pipeline that turns
a raw generated or loaded graph into a playable instance: pruning, entry
selection, blockable-edge assignment, probability sampling, and text
serialization.  Probabilities come from one of three distributions,
chosen by name (``independent``, ``positive``, ``negative``), whose
parameters are the module's ``P_*`` constants.
"""
from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable

import numpy as np

COMPUTER = "computer"
USER = "user"
GROUP = "group"
DOMAIN_ADMIN = "DA"
NODE_KINDS = (COMPUTER, USER, GROUP, DOMAIN_ADMIN)

HAS_SESSION = "HasSession"
ADMIN_TO = "AdminTo"
MEMBER_OF = "MemberOf"
GENERIC = "generic"
EDGE_KINDS = (HAS_SESSION, ADMIN_TO, MEMBER_OF, GENERIC)

INDEPENDENT = "independent"
POSITIVE = "positive"
NEGATIVE = "negative"
DISTRIBUTION_KINDS = (INDEPENDENT, POSITIVE, NEGATIVE)
# parameters of the (p_d, p_f) distributions; see sample_edge_probabilities
P_LOW, P_HIGH = 0.0, 0.2
P_MEAN_D, P_MEAN_F = 0.1, 0.1
P_SIGMA = 0.05
P_RHO = 0.5

PROB_TOL = 1e-12


class GraphError(Exception):
    """Base class for graph construction, validation, and format errors."""


class GraphValidationError(GraphError):
    """A graph violates a structural invariant."""


class GraphFormatError(GraphError):
    """A graph file cannot be parsed."""


class EmptyGameError(GraphError):
    """After preparation no attacker path to DA remains."""


@dataclass(frozen=True)
class Node:
    id: str
    kind: str


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    kind: str = GENERIC
    p_d: float = 0.0
    p_f: float = 0.0
    blockable: bool = False

    @property
    def p_s(self) -> float:
        return 1.0 - self.p_d - self.p_f


@dataclass(frozen=True)
class AttackGraph:
    """Immutable directed multigraph.  Edges are addressed by their index."""

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    entry_nodes: frozenset[str] = frozenset()

    @cached_property
    def node_ids(self) -> frozenset[str]:
        return frozenset(n.id for n in self.nodes)

    @cached_property
    def out_edge_ids(self) -> dict[str, tuple[int, ...]]:
        out: dict[str, list[int]] = {n.id: [] for n in self.nodes}
        for i, e in enumerate(self.edges):
            out[e.src].append(i)
        return {v: tuple(ids) for v, ids in out.items()}

    @cached_property
    def da_candidates(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.kind == DOMAIN_ADMIN)

    @property
    def da(self) -> str:
        """The single DA node of a prepared graph."""
        cands = self.da_candidates
        if len(cands) != 1:
            raise GraphValidationError(
                f"expected exactly one DA node, found {len(cands)}; run prune() first"
            )
        return cands[0]

    def validate(self) -> None:
        seen: set[str] = set()
        for n in self.nodes:
            if n.kind not in NODE_KINDS:
                raise GraphValidationError(f"unknown node kind {n.kind!r} on {n.id!r}")
            if n.id in seen:
                raise GraphValidationError(f"duplicate node id {n.id!r}")
            seen.add(n.id)
        for i, e in enumerate(self.edges):
            if e.src not in seen or e.dst not in seen:
                raise GraphValidationError(f"edge {i} references unknown node")
            if e.kind not in EDGE_KINDS:
                raise GraphValidationError(f"unknown edge kind {e.kind!r} on edge {i}")
            if not (0.0 <= e.p_d <= 1.0) or not (0.0 <= e.p_f <= 1.0):
                raise GraphValidationError(f"edge {i} probabilities out of [0, 1]")
            if e.p_d + e.p_f > 1.0 + PROB_TOL:
                raise GraphValidationError(
                    f"edge {i} has p_d + p_f = {e.p_d + e.p_f} > 1"
                )
        for v in self.entry_nodes:
            if v not in seen:
                raise GraphValidationError(f"entry node {v!r} not in graph")
            if v in self.da_candidates:
                raise GraphValidationError(f"entry node {v!r} is a DA candidate")

    def with_entries(self, entries: Iterable[str]) -> "AttackGraph":
        return replace(self, entry_nodes=frozenset(entries))

    def hop_distances_to_da(self) -> dict[str, int]:
        """Minimum hop count from each node to DA (reverse BFS, unit edges)."""
        da = self.da
        rev: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for e in self.edges:
            rev[e.dst].append(e.src)
        dist = {da: 0}
        queue = deque([da])
        while queue:
            v = queue.popleft()
            for u in rev[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        return dist


def _reachable_from(g: AttackGraph, roots: Iterable[str]) -> set[str]:
    seen = set(roots)
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for i in g.out_edge_ids.get(v, ()):
            w = g.edges[i].dst
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def prune(g: AttackGraph) -> AttackGraph:
    """Reduce a graph to the part that matters for the game.

    All DA candidates are merged into a single DA node and DA's outgoing
    edges are dropped.  Nodes that cannot reach DA are removed.  When entry
    nodes are set, their incoming edges are dropped and only nodes on some
    entry-to-DA path are kept, so every surviving node can both be reached
    by the attacker and still progress toward DA.  Idempotent.

    A dead entry, which reaches DA only through another entry, is dropped
    from the returned graph's entries: its attacks could only re-enter
    territory the attacker already owns, so the game's value does not
    change.  ``EmptyGameError`` is raised when no entry is live.  Pruning
    again with only the live entries set keeps the same nodes and edges.
    Restoring a dead entry's in-edges adds no node that can reach DA: on
    any path to DA, the part after the last dead node lies in the merged
    graph, so that dead node would reach DA.  And a dead entry reaches no
    kept node, so it adds none to the entries' reach.
    """
    cands = g.da_candidates
    if not cands:
        raise EmptyGameError("graph has no DA candidate node")
    if len(cands) == 1:
        da_id = cands[0]
    else:
        da_id = "DA"
        taken = g.node_ids - set(cands)
        while da_id in taken:
            da_id += "+"
    cand_set = set(cands)

    def remap(v: str) -> str:
        return da_id if v in cand_set else v

    for v in g.entry_nodes:
        if v in cand_set:
            raise GraphValidationError(f"entry node {v!r} is a DA candidate")
        if v not in g.node_ids:
            raise GraphValidationError(f"entry node {v!r} not in graph")

    nodes: list[Node] = []
    da_emitted = False
    for n in g.nodes:
        if n.id in cand_set:
            if not da_emitted:
                nodes.append(Node(da_id, DOMAIN_ADMIN))
                da_emitted = True
        else:
            nodes.append(n)

    edges: list[Edge] = []
    for e in g.edges:
        src, dst = remap(e.src), remap(e.dst)
        if src == da_id:
            continue
        if dst in g.entry_nodes:
            continue
        edges.append(replace(e, src=src, dst=dst))

    # after the merge da_id is the one DA node: keep what can reach it
    merged = AttackGraph(tuple(nodes), tuple(edges))
    keep = set(merged.hop_distances_to_da())
    entries = g.entry_nodes & keep
    if g.entry_nodes:
        if not entries:
            raise EmptyGameError("no entry node has a route of its own to DA")
        # no edge leads from a node that cannot reach DA into one that can,
        # so the entries reach the same kept nodes through the merged graph
        # as through its kept part alone
        keep &= _reachable_from(merged, entries)
    elif keep == {da_id}:
        raise EmptyGameError("no node can reach DA")

    return AttackGraph(
        nodes=tuple(n for n in nodes if n.id in keep),
        edges=tuple(e for e in edges if e.src in keep and e.dst in keep),
        entry_nodes=entries,
    )


def select_entry_nodes(
    g: AttackGraph, pool_size: int, n_entry: int, seed: int
) -> frozenset[str]:
    """Draw entry nodes uniformly from the pool of nodes farthest from DA.

    The pool holds the ``pool_size`` non-DA nodes with the greatest hop
    distance to DA; ties at the pool boundary are broken by node id.
    """
    if n_entry < 1:
        raise GraphValidationError("n_entry must be at least 1")
    if pool_size < n_entry:
        raise GraphValidationError("pool_size must be at least n_entry")
    dist = g.hop_distances_to_da()
    da = g.da
    candidates = sorted((v for v in dist if v != da), key=lambda v: (-dist[v], v))
    if len(candidates) < pool_size:
        warnings.warn(
            f"only {len(candidates)} nodes have a path to DA; "
            f"shrinking entry pool from {pool_size}",
            RuntimeWarning,
            stacklevel=2,
        )
        pool = candidates
    else:
        pool = candidates[:pool_size]
    if len(pool) < n_entry:
        raise GraphValidationError(
            f"cannot select {n_entry} entry nodes from a pool of {len(pool)}"
        )
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(pool), size=n_entry, replace=False)
    return frozenset(pool[i] for i in picked)


def assign_blockable(g: AttackGraph, seed: int) -> AttackGraph:
    """Sample each edge's blockable flag with probability proportional to
    its hop distance from DA.

    An edge (u, v) sits ``1 + hops(v, DA)`` hops from DA; its blocking
    likelihood is that distance divided by the maximum over all edges, so
    edges near the perimeter are likely blockable while edges next to DA
    rarely are.
    """
    dist = g.hop_distances_to_da()
    hops = []
    for i, e in enumerate(g.edges):
        if e.dst not in dist:
            raise GraphValidationError(
                f"edge {i} head {e.dst!r} has no path to DA; prune the graph first"
            )
        hops.append(1 + dist[e.dst])
    if not hops:
        raise EmptyGameError("graph has no edges")
    max_hop = max(hops)
    rng = np.random.default_rng(seed)
    u = rng.random(len(g.edges))
    new_edges = tuple(
        replace(e, blockable=bool(u[i] < hops[i] / max_hop))
        for i, e in enumerate(g.edges)
    )
    return replace(g, edges=new_edges)


def sample_edge_probabilities(g: AttackGraph, kind: str, seed: int) -> AttackGraph:
    """Redraw every edge's (p_d, p_f) pair from the named distribution.

    ``independent`` draws both uniformly on [P_LOW, P_HIGH].  ``positive``
    and ``negative`` draw from a bivariate normal with means P_MEAN_D and
    P_MEAN_F, common standard deviation P_SIGMA and correlation +/-P_RHO,
    clamped coordinate-wise to [0, 1] and rescaled when the pair sums above 1.
    """
    if kind not in DISTRIBUTION_KINDS:
        raise GraphValidationError(
            f"unknown probability distribution {kind!r}; "
            f"expected one of {', '.join(DISTRIBUTION_KINDS)}"
        )
    rng = np.random.default_rng(seed)
    n = len(g.edges)
    if kind == INDEPENDENT:
        m = rng.uniform(P_LOW, P_HIGH, size=(n, 2))
    else:
        rho = P_RHO if kind == POSITIVE else -P_RHO
        var = P_SIGMA**2
        cov = np.array([[var, rho * var], [rho * var, var]])
        m = rng.multivariate_normal([P_MEAN_D, P_MEAN_F], cov, size=n)
        m = np.clip(m, 0.0, 1.0)
        total = m.sum(axis=1)
        over = total > 1.0
        if over.any():
            m[over] /= total[over, None]
    new_edges = tuple(
        replace(e, p_d=float(m[i, 0]), p_f=float(m[i, 1]))
        for i, e in enumerate(g.edges)
    )
    return replace(g, edges=new_edges)


_MAGIC = "adgraph"
_FORMAT_VERSION = 1


def _fmt_prob(x: float) -> str:
    return format(x, ".17g")


def graph_to_text(g: AttackGraph) -> str:
    """Line-oriented text form of a graph.

    Probabilities are printed with 17 significant digits so that a
    save/load round trip reproduces every float bit-exactly.
    """
    lines = [f"{_MAGIC} {_FORMAT_VERSION} {len(g.nodes)} {len(g.edges)}"]
    for n in g.nodes:
        if any(c.isspace() for c in n.id):
            raise GraphValidationError(f"node id {n.id!r} contains whitespace")
        is_entry = int(n.id in g.entry_nodes)
        is_da = int(n.kind == DOMAIN_ADMIN)
        lines.append(f"node {n.id} {n.kind} {is_entry} {is_da}")
    for e in g.edges:
        lines.append(
            f"edge {e.src} {e.dst} {e.kind} "
            f"{_fmt_prob(e.p_d)} {_fmt_prob(e.p_f)} {int(e.blockable)}"
        )
    return "\n".join(lines) + "\n"


def save_graph(g: AttackGraph, path: str) -> None:
    """Write a graph as a line-oriented text file; see graph_to_text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_text(g))


def load_graph(path: str) -> AttackGraph:
    """Parse a graph file, raising GraphFormatError with the offending line."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = [ln.rstrip("\n") for ln in fh]
    lines = [(i + 1, ln) for i, ln in enumerate(raw) if ln.strip()]
    if not lines:
        raise GraphFormatError(f"{path}: empty file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 4 or parts[0] != _MAGIC:
        raise GraphFormatError(f"{path}:{lineno}: bad header {header!r}")
    try:
        version, n_nodes, n_edges = int(parts[1]), int(parts[2]), int(parts[3])
    except ValueError as exc:
        raise GraphFormatError(f"{path}:{lineno}: non-integer header field") from exc
    if version != _FORMAT_VERSION:
        raise GraphFormatError(f"{path}:{lineno}: unsupported version {version}")

    nodes: list[Node] = []
    edges: list[Edge] = []
    entries: set[str] = set()
    for lineno, ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "node":
            if len(parts) != 5:
                raise GraphFormatError(f"{path}:{lineno}: node record needs 4 fields")
            _, nid, kind, is_entry, is_da = parts
            if kind not in NODE_KINDS:
                raise GraphFormatError(f"{path}:{lineno}: unknown node kind {kind!r}")
            if is_entry not in ("0", "1") or is_da not in ("0", "1"):
                raise GraphFormatError(f"{path}:{lineno}: flags must be 0 or 1")
            if (kind == DOMAIN_ADMIN) != (is_da == "1"):
                raise GraphFormatError(
                    f"{path}:{lineno}: is_da flag disagrees with node kind"
                )
            nodes.append(Node(nid, kind))
            if is_entry == "1":
                entries.add(nid)
        elif parts[0] == "edge":
            if len(parts) != 7:
                raise GraphFormatError(f"{path}:{lineno}: edge record needs 6 fields")
            _, src, dst, kind, p_d, p_f, blockable = parts
            if kind not in EDGE_KINDS:
                raise GraphFormatError(f"{path}:{lineno}: unknown edge kind {kind!r}")
            if blockable not in ("0", "1"):
                raise GraphFormatError(f"{path}:{lineno}: blockable must be 0 or 1")
            try:
                pd_val, pf_val = float(p_d), float(p_f)
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: bad probability") from exc
            edges.append(Edge(src, dst, kind, pd_val, pf_val, blockable == "1"))
        else:
            raise GraphFormatError(f"{path}:{lineno}: unknown record {parts[0]!r}")
    if len(nodes) != n_nodes or len(edges) != n_edges:
        raise GraphFormatError(
            f"{path}: header promises {n_nodes} nodes / {n_edges} edges, "
            f"found {len(nodes)} / {len(edges)}"
        )
    g = AttackGraph(tuple(nodes), tuple(edges), frozenset(entries))
    g.validate()
    return g
