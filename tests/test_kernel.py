"""Kernelization: NSP extraction, block-worthy edges, and size bounds."""
from __future__ import annotations

from dataclasses import replace

import pytest

from adgame.config import ExperimentConfig
from adgame import kernel
from adgame.graph import AttackGraph, COMPUTER, DOMAIN_ADMIN, Edge, Node
from adgame.kernel import KernelizationError, condense, kernel_report
from adgame.pipeline import prepare_instance

from instances import (
    GRAPH_B,
    GRAPH_D,
    build_game,
    chain_graph,
    random_instance,
    random_instances,
    saved_instance,
    shared_suffix_graph,
    textbook_kernel_graph,
)


def edge_pair(cg, edge_id):
    e = cg.graph.edges[edge_id]
    return (e.src, e.dst)


def test_textbook_kernel_example():
    cg = condense(textbook_kernel_graph())
    assert cg.split_nodes == {"a", "d", "f"}
    assert cg.graph.entry_nodes == {"s"}
    named = {p.nodes for p in cg.nsps if p.source in {"s", "a"}}
    assert named == {("s", "a"), ("a", "b", "c", "d"), ("a", "e", "f")}
    bw_pairs = {edge_pair(cg, e) for e in cg.bw_edges}
    assert bw_pairs == {("c", "d"), ("a", "e")}
    s = len(cg.graph.entry_nodes)
    h = cg.feedback_edges
    assert h == len(cg.graph.edges) - (len(cg.graph.nodes) - 1)
    assert len(cg.bw_edges) <= s + 2 * h
    assert cg.n_nsps == 7  # the three named ones plus the single-edge runs


def test_single_path_graph_is_one_nsp():
    cg = condense(chain_graph([(0.1, 0.1)] * 3))
    assert cg.n_nsps == 1
    p = cg.nsps[0]
    assert p.source == "n0" and p.terminal == "da"
    assert p.edges == (0, 1, 2)
    assert cg.step_masks.da_nsps == 0b1


def test_every_edge_own_nsp_when_all_nodes_split():
    g = build_game(
        [
            ("s", "x", 0.1, 0.1, False),
            ("s", "y", 0.1, 0.1, False),
            ("x", "da", 0.1, 0.1, False),
            ("x", "y", 0.1, 0.1, False),
            ("y", "da", 0.1, 0.1, False),
            ("y", "x", 0.1, 0.1, False),
        ],
        entries={"s"},
    )
    cg = condense(g)
    assert cg.n_nsps == len(g.edges)
    assert all(len(p.edges) == 1 for p in cg.nsps)


def test_unblockable_nsp_has_no_block_worthy_edge():
    cg = condense(chain_graph([(0.1, 0.1)] * 3, blockable_last=False))
    assert not any(cg.graph.edges[e].blockable for e in cg.nsps[0].edges)
    assert cg.nsps[0].block_worthy_edge is None
    assert cg.bw_edges == ()


def test_block_worthy_is_last_blockable_edge():
    g = build_game(
        [
            ("s", "x", 0.1, 0.1, True),
            ("x", "y", 0.1, 0.1, True),
            ("y", "da", 0.1, 0.1, False),
        ],
        entries={"s"},
    )
    cg = condense(g)
    assert cg.nsps[0].block_worthy_edge == 1


def test_shared_block_worthy_edge_counted_once():
    cg = condense(shared_suffix_graph())
    assert cg.n_nsps == 2
    assert len(cg.bw_edges) == 1
    shared = cg.bw_edges[0]
    assert edge_pair(cg, shared) == ("C", "da")
    t = cg.step_masks
    assert t.blocks == (0b11,)
    # the shared edge ends both paths, and each sees the other as a sharer
    assert [t.edges[i][-1][3] for i in (0, 1)] == [0b11, 0b11]


def test_nsp_ids_follow_source_successor_order():
    for seed in range(30):
        cg = random_instance(seed, max_nsps=30)
        if cg is None:
            continue
        keys = [
            (p.source, cg.graph.edges[p.edges[0]].dst, p.edges[0]) for p in cg.nsps
        ]
        assert keys == sorted(keys)
        assert [p.id for p in cg.nsps] == list(range(cg.n_nsps))


def test_kernel_counts_and_bounds_on_random_instances():
    checked = 0
    for seed in range(60):
        cg = random_instance(seed, max_nsps=40)
        if cg is None:
            continue
        checked += 1
        g = cg.graph
        s, t, h = len(g.entry_nodes), len(cg.split_nodes), cg.feedback_edges
        out_total = sum(
            len(g.out_edge_ids[v]) for v in g.entry_nodes | cg.split_nodes
        )
        assert cg.n_nsps == out_total
        # the condensed nodes are the NSPs' ends: the entries, the splitting
        # nodes and DA
        ends = {p.source for p in cg.nsps} | {p.terminal for p in cg.nsps}
        assert len(ends) == s + t + 1
        assert f"condensed-nodes {s + t + 1} " in kernel_report(cg)
        assert len(cg.bw_edges) <= s + t + h
        assert len(cg.bw_edges) <= s + 2 * h
        for p in cg.nsps:
            assert p.terminal == g.da or p.terminal in cg.split_nodes
            for e in p.edges[:-1]:
                head = g.edges[e].dst
                assert head != g.da and head not in cg.split_nodes
    assert checked >= 30


def test_terminal_edge_membership_is_shared_suffix():
    # NSPs sharing an edge share their whole suffix from that edge on.
    for seed in range(40):
        cg = random_instance(seed, max_nsps=40)
        if cg is None:
            continue
        suffixes: dict[int, set] = {}
        for p in cg.nsps:
            for i, edge_id in enumerate(p.edges):
                suffixes.setdefault(edge_id, set()).add(p.edges[i:])
        assert all(len(ends) == 1 for ends in suffixes.values())


def test_step_masks_read_span_and_blocks_off_nesting_sharers(tmp_path):
    # the lemma ``step_masks`` relies on: the NSPs sharing an edge only grow
    # along a path, so the OR over an NSP's edges is its last edge's
    # sharers, and a block-worthy edge's sharers all have it as theirs
    kernels = random_instances(400, 12) + [
        saved_instance(tmp_path, *GRAPH_B),
        prepare_instance(ExperimentConfig(n_computers=500), 0).cg,
        saved_instance(tmp_path, *GRAPH_D),
    ]
    for cg in kernels:
        sharers: dict[int, int] = {}
        for p in cg.nsps:
            for e in p.edges:
                sharers[e] = sharers.get(e, 0) | 1 << p.id
        masks = cg.step_masks
        for p in cg.nsps:
            along = [sharers[e] for e in p.edges]
            assert all(a & ~b == 0 for a, b in zip(along, along[1:]))
            span = 0
            for mask in along:
                span |= mask
            assert masks.span[p.id] == span
        assert masks.blocks == tuple(
            sum(1 << p.id for p in cg.nsps if p.block_worthy_edge == e)
            for e in cg.bw_edges
        )
    assert len(kernels) > 1000


def test_kernelizer_rejects_unpruned_interior_sink(tmp_path, monkeypatch):
    g = AttackGraph(
        nodes=(
            Node("s", COMPUTER),
            Node("x", COMPUTER),
            Node("y", COMPUTER),
            Node("da", DOMAIN_ADMIN),
        ),
        edges=(Edge("s", "x"), Edge("x", "y")),
        entry_nodes=frozenset({"s"}),
    )
    with pytest.raises(KernelizationError, match="interior node 'y' has out-degree 0"):
        condense(g)
    with pytest.raises(KernelizationError, match="graph has no entry nodes"):
        condense(replace(g, entry_nodes=frozenset()))
    # the NSP cap: graph D has more than three NSPs
    pruned = saved_instance(tmp_path, *GRAPH_D).graph
    monkeypatch.setattr(kernel, "MAX_NSPS", 3)
    with pytest.raises(KernelizationError, match="more than 3 NSPs"):
        condense(pruned)


def test_kernel_report_mentions_every_nsp():
    cg = condense(textbook_kernel_graph())
    report = kernel_report(cg)
    for p in cg.nsps:
        assert "/".join(p.nodes) in report
    assert f"nsps {cg.n_nsps}" in report


TEXTBOOK_REPORT = """\
nodes 8 edges 10 entries 1 splits 3 feedback 3
condensed-nodes 5 nsps 7 bw-edges 2
nsp  source->terminal  path  block-worthy
  0  a->d  a/b/c/d  c->d(#3)
  1  a->f  a/e/f  a->e(#4)
  2  d->da  d/da  -
  3  d->f  d/f  -
  4  f->d  f/d  -
  5  f->da  f/da  -
  6  s->a  s/a  -
bw-edge  nsps
c->d(#3)  0
a->e(#4)  1
"""

SHARED_SUFFIX_REPORT = """\
nodes 5 edges 4 entries 2 splits 0 feedback 0
condensed-nodes 3 nsps 2 bw-edges 1
nsp  source->terminal  path  block-worthy
  0  A->da  A/B/C/da  C->da(#2)
  1  E->da  E/C/da  C->da(#2)
bw-edge  nsps
C->da(#2)  0,1
"""


@pytest.mark.parametrize(
    "graph, expected",
    [
        (textbook_kernel_graph, TEXTBOOK_REPORT),
        (shared_suffix_graph, SHARED_SUFFIX_REPORT),
    ],
    ids=["textbook", "shared-suffix"],
)
def test_kernel_report_text_is_frozen(graph, expected):
    assert kernel_report(condense(graph())) == expected
