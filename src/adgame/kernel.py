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

from dataclasses import dataclass
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
    block_worthy_edge: int | None


@dataclass(frozen=True)
class StepMasks:
    """The attacker game's tables as integer bitmasks, for ``mdp``.

    Bit i of an NSP mask stands for NSP i.  Node masks give each entry,
    splitting node and DA one bit, in sorted node-id order; ``out`` is
    indexed by that bit's position.
    """

    entry: int  # the entry nodes
    da: int  # DA's bit
    da_nsps: int  # the NSPs that terminate at DA
    terminal: tuple[int, ...]  # per NSP, its terminal's bit
    out: tuple[int, ...]  # per node, the NSPs that leave it
    entry_out: int  # the NSPs that leave an entry node
    # per NSP, its edges in walk order as (p_d, p_f, p_s, NSPs sharing the edge)
    edges: tuple[tuple[tuple[float, float, float, int], ...], ...]
    span: tuple[int, ...]  # per NSP, the NSPs that share one of its edges


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
    def edge_to_nsps(self) -> Mapping[int, tuple[int, ...]]:
        table: dict[int, list[int]] = {}
        for p in self.nsps:
            for e in p.edges:
                table.setdefault(e, []).append(p.id)
        return {e: tuple(ids) for e, ids in table.items()}

    @cached_property
    def step_masks(self) -> StepMasks:
        nodes = sorted(self.entry_nodes | self.split_nodes | {self.da})
        at = {v: i for i, v in enumerate(nodes)}
        out = [0] * len(nodes)
        for p in self.nsps:
            out[at[p.source]] |= 1 << p.id
        sharers = {
            e: sum(1 << i for i in ids) for e, ids in self.edge_to_nsps.items()
        }
        g = self.graph
        span = [0] * len(self.nsps)
        for p in self.nsps:
            for e in p.edges:
                span[p.id] |= sharers[e]
        return StepMasks(
            entry=sum(1 << at[v] for v in self.entry_nodes),
            da=1 << at[self.da],
            da_nsps=sum(1 << p.id for p in self.nsps if p.terminal == self.da),
            terminal=tuple(1 << at[p.terminal] for p in self.nsps),
            out=tuple(out),
            entry_out=sum(out[at[v]] for v in self.entry_nodes),
            edges=tuple(
                tuple(
                    (g.edges[e].p_d, g.edges[e].p_f, g.edges[e].p_s, sharers[e])
                    for e in p.edges
                )
                for p in self.nsps
            ),
            span=tuple(span),
        )

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


def condense(g: AttackGraph) -> CondensedGraph:
    """Kernelize a pruned graph: walk every maximal choice-free run, marking
    its block-worthy edge on the way, then check the |BW| bound.

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
            blockable = [e for e in path_edges if g.edges[e].blockable]
            nsps.append(
                Nsp(
                    id=len(nsps),
                    source=source,
                    terminal=current,
                    nodes=tuple(path_nodes),
                    edges=tuple(path_edges),
                    block_worthy_edge=blockable[-1] if blockable else None,
                )
            )
            if len(nsps) > MAX_NSPS:
                raise KernelizationError(f"more than {MAX_NSPS} NSPs")

    components = _weak_component_count(g)
    h = len(g.edges) - (len(g.nodes) - components)
    cg = CondensedGraph(
        graph=g,
        nsps=tuple(nsps),
        entry_nodes=g.entry_nodes,
        split_nodes=split_nodes,
        da=da,
        feedback_edges=h,
    )
    s = len(cg.entry_nodes)
    t = len(split_nodes)
    n_bw = len(cg.bw_edges)
    if n_bw > s + t + h or n_bw > s + 2 * h:
        raise KernelizationError(
            f"|BW| = {n_bw} exceeds its bound (s={s}, t={t}, h={h})"
        )
    return cg


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
