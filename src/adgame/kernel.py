"""Kernelization of attack graphs into non-splitting paths.

A splitting node is a non-entry node with more than one outgoing edge.  A
non-splitting path (NSP) starts at an entry or splitting node, follows an
outgoing edge, and then walks sole successors until it hits DA or another
splitting node.  Interior nodes give the attacker no choices, so the attacker
game can be played on NSPs instead of raw edges: the condensed graph has one
node per entry/splitting node plus DA, and one edge per NSP.

An NSP is blockable when it contains at least one blockable edge, and its
block-worthy edge is the blockable edge closest to the path's terminal.
Blocking anything earlier on the path is never better, so the defender only
ever considers the block-worthy set BW.  Its size is bounded by s + t + h and
by s + 2h, where s counts entry nodes, t splitting nodes, and h feedback
edges beyond a spanning tree.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping

from .graph import AttackGraph

MAX_NSPS = 100_000


class KernelizationError(Exception):
    """The graph violates an assumption the kernelizer relies on."""


@dataclass(frozen=True)
class Nsp:
    """One non-splitting path: a maximal choice-free run of edges."""

    id: int
    source: str
    terminal: str
    nodes: tuple[str, ...]
    edges: tuple[int, ...]
    blockable: bool = False
    block_worthy_edge: int | None = None


@dataclass(frozen=True)
class CondensedGraph:
    """The NSP-level view of a pruned attack graph."""

    graph: AttackGraph
    nsps: tuple[Nsp, ...]
    entry_nodes: frozenset[str]
    split_nodes: frozenset[str]
    da: str
    feedback_edges: int

    @property
    def n_nsps(self) -> int:
        return len(self.nsps)

    @cached_property
    def condensed_node_count(self) -> int:
        return len(self.entry_nodes) + len(self.split_nodes) + 1

    @cached_property
    def da_nsp_ids(self) -> tuple[int, ...]:
        return tuple(p.id for p in self.nsps if p.terminal == self.da)

    @cached_property
    def edge_to_nsps(self) -> Mapping[int, tuple[int, ...]]:
        table: dict[int, list[int]] = {}
        for p in self.nsps:
            for e in p.edges:
                table.setdefault(e, []).append(p.id)
        return {e: tuple(ids) for e, ids in table.items()}

    @cached_property
    def bw_edges(self) -> tuple[int, ...]:
        return tuple(
            sorted({p.block_worthy_edge for p in self.nsps if p.block_worthy_edge is not None})
        )

    @cached_property
    def bw_edge_to_nsps(self) -> Mapping[int, tuple[int, ...]]:
        table: dict[int, list[int]] = {e: [] for e in self.bw_edges}
        for p in self.nsps:
            if p.block_worthy_edge is not None:
                table[p.block_worthy_edge].append(p.id)
        return {e: tuple(ids) for e, ids in table.items()}


def extract_nsps(g: AttackGraph) -> CondensedGraph:
    """Walk every maximal choice-free run of the pruned graph.

    NSP ids are assigned in (source id, first-successor id, edge id)
    lexicographic order, so the numbering is stable across runs.
    """
    da = g.da
    if not g.entry_nodes:
        raise KernelizationError("graph has no entry nodes; select entries first")
    split_nodes = frozenset(
        n.id
        for n in g.nodes
        if n.id not in g.entry_nodes and len(g.out_edge_ids[n.id]) > 1
    )
    sources = sorted(g.entry_nodes | split_nodes)

    nsps: list[Nsp] = []
    for source in sources:
        out = sorted(g.out_edge_ids[source], key=lambda i: (g.edges[i].dst, i))
        for first in out:
            path_nodes = [source, g.edges[first].dst]
            path_edges = [first]
            current = g.edges[first].dst
            on_path = {source, current}
            while current != da and current not in split_nodes:
                nxt = g.out_edge_ids[current]
                if len(nxt) != 1:
                    raise KernelizationError(
                        f"interior node {current!r} has out-degree {len(nxt)}; "
                        "the graph is not pruned"
                    )
                edge_id = nxt[0]
                current = g.edges[edge_id].dst
                if current in on_path and current != source:
                    raise KernelizationError(
                        f"sole-successor cycle through {current!r}; "
                        "such nodes cannot reach DA and should have been pruned"
                    )
                path_nodes.append(current)
                path_edges.append(edge_id)
                on_path.add(current)
            nsps.append(
                Nsp(
                    id=len(nsps),
                    source=source,
                    terminal=current,
                    nodes=tuple(path_nodes),
                    edges=tuple(path_edges),
                )
            )
            if len(nsps) > MAX_NSPS:
                raise KernelizationError(f"more than {MAX_NSPS} NSPs")

    components = _weak_component_count(g)
    h = len(g.edges) - (len(g.nodes) - components)
    return CondensedGraph(
        graph=g,
        nsps=tuple(nsps),
        entry_nodes=g.entry_nodes,
        split_nodes=split_nodes,
        da=da,
        feedback_edges=h,
    )


def compute_block_worthy(cg: CondensedGraph) -> CondensedGraph:
    """Mark each NSP's block-worthy edge: the last blockable edge on it."""
    g = cg.graph
    filled = []
    for p in cg.nsps:
        blockable_edges = [e for e in p.edges if g.edges[e].blockable]
        if blockable_edges:
            filled.append(replace(p, blockable=True, block_worthy_edge=blockable_edges[-1]))
        else:
            filled.append(replace(p, blockable=False, block_worthy_edge=None))
    out = replace(cg, nsps=tuple(filled))
    s = len(out.entry_nodes)
    t = len(out.split_nodes)
    h = out.feedback_edges
    n_bw = len(out.bw_edges)
    if n_bw > s + t + h or n_bw > s + 2 * h:
        raise KernelizationError(
            f"|BW| = {n_bw} exceeds its bound (s={s}, t={t}, h={h})"
        )
    return out


def condense(g: AttackGraph) -> CondensedGraph:
    """Kernelize a pruned graph: extract NSPs and mark block-worthy edges."""
    return compute_block_worthy(extract_nsps(g))


def _weak_component_count(g: AttackGraph) -> int:
    parent = {n.id: n.id for n in g.nodes}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in g.edges:
        a, b = find(e.src), find(e.dst)
        if a != b:
            parent[a] = b
    return len({find(v) for v in parent})


def kernel_report(cg: CondensedGraph) -> str:
    """Human-readable dump of the kernel: NSP table plus block-worthy table."""
    g = cg.graph
    lines = [
        f"nodes {len(g.nodes)} edges {len(g.edges)} "
        f"entries {len(cg.entry_nodes)} splits {len(cg.split_nodes)} "
        f"feedback {cg.feedback_edges}",
        f"condensed-nodes {cg.condensed_node_count} nsps {cg.n_nsps} "
        f"bw-edges {len(cg.bw_edges)}",
        "nsp  source->terminal  path  block-worthy",
    ]
    for p in cg.nsps:
        if p.block_worthy_edge is None:
            bw = "-"
        else:
            e = g.edges[p.block_worthy_edge]
            bw = f"{e.src}->{e.dst}(#{p.block_worthy_edge})"
        lines.append(
            f"{p.id:>3}  {p.source}->{p.terminal}  {'/'.join(p.nodes)}  {bw}"
        )
    lines.append("bw-edge  nsps")
    for e in cg.bw_edges:
        ed = g.edges[e]
        ids = ",".join(str(i) for i in cg.bw_edge_to_nsps[e])
        lines.append(f"{ed.src}->{ed.dst}(#{e})  {ids}")
    return "\n".join(lines) + "\n"
