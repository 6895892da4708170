"""Kernelization: NSP extraction, block-worthy edges, and size bounds."""
from __future__ import annotations

import pytest

from adgame.graph import AttackGraph, COMPUTER, DOMAIN_ADMIN, Edge, Node
from adgame.kernel import KernelizationError, condense, kernel_report

from instances import (
    build_game,
    chain_graph,
    random_instance,
    shared_suffix_graph,
    textbook_kernel_graph,
)


def edge_pair(cg, edge_id):
    e = cg.graph.edges[edge_id]
    return (e.src, e.dst)


def test_textbook_kernel_example():
    cg = condense(textbook_kernel_graph())
    assert cg.split_nodes == {"a", "d", "f"}
    assert cg.entry_nodes == {"s"}
    named = {p.nodes for p in cg.nsps if p.source in {"s", "a"}}
    assert named == {("s", "a"), ("a", "b", "c", "d"), ("a", "e", "f")}
    bw_pairs = {edge_pair(cg, e) for e in cg.bw_edges}
    assert bw_pairs == {("c", "d"), ("a", "e")}
    s = len(cg.entry_nodes)
    h = cg.feedback_edges
    assert h == len(cg.graph.edges) - (len(cg.graph.nodes) - 1)
    assert len(cg.bw_edges) <= s + 2 * h
    assert cg.condensed_node_count == 1 + 3 + 1
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
    assert cg.bw_edge_to_nsps[shared] == (0, 1)
    assert cg.edge_to_nsps[shared] == (0, 1)


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
        s, t, h = len(cg.entry_nodes), len(cg.split_nodes), cg.feedback_edges
        out_total = sum(
            len(g.out_edge_ids[v]) for v in cg.entry_nodes | cg.split_nodes
        )
        assert cg.n_nsps == out_total
        assert cg.condensed_node_count == s + t + 1
        assert len(cg.bw_edges) <= s + t + h
        assert len(cg.bw_edges) <= s + 2 * h
        for p in cg.nsps:
            assert p.terminal == cg.da or p.terminal in cg.split_nodes
            for e in p.edges[:-1]:
                head = g.edges[e].dst
                assert head != cg.da and head not in cg.split_nodes
    assert checked >= 30


def test_terminal_edge_membership_is_shared_suffix():
    # NSPs sharing an edge share their whole suffix from that edge on.
    for seed in range(40):
        cg = random_instance(seed, max_nsps=40)
        if cg is None:
            continue
        for edge_id, nsp_ids in cg.edge_to_nsps.items():
            suffixes = set()
            for i in nsp_ids:
                edges = cg.nsps[i].edges
                suffixes.add(edges[edges.index(edge_id):])
            assert len(suffixes) == 1


def test_kernelizer_rejects_unpruned_interior_sink():
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
    with pytest.raises(KernelizationError):
        condense(g)


def test_kernel_report_mentions_every_nsp():
    cg = condense(textbook_kernel_graph())
    report = kernel_report(cg)
    for p in cg.nsps:
        assert "/".join(p.nodes) in report
    assert f"nsps {cg.n_nsps}" in report
