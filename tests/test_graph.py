"""Graph construction, preparation pipeline, and serialization."""
from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from adgame.graph import (
    AttackGraph,
    COMPUTER,
    DOMAIN_ADMIN,
    Edge,
    EmptyGameError,
    GraphFormatError,
    GraphValidationError,
    Node,
    assign_blockable,
    graph_to_text,
    load_graph,
    prune,
    sample_edge_probabilities,
    save_graph,
    select_entry_nodes,
)
from adgame.generator import generate_synthetic

from instances import build_game, chain_graph
from oracles import reference_prune


def test_save_load_roundtrip_is_bit_exact(tmp_path):
    g = AttackGraph(
        nodes=(
            Node("x", COMPUTER),
            Node("y", COMPUTER),
            Node("da", DOMAIN_ADMIN),
        ),
        edges=(
            Edge("x", "y", "HasSession", 0.1 + 0.2, 1.0 / 3.0, True),
            Edge("y", "da", "MemberOf", 0.07 * 1.3, 2.0 / 7.0, False),
        ),
        entry_nodes=frozenset({"x"}),
    )
    path = tmp_path / "g.txt"
    save_graph(g, str(path))
    loaded = load_graph(str(path))
    assert loaded == g
    for a, b in zip(loaded.edges, g.edges):
        assert a.p_d == b.p_d and a.p_f == b.p_f


def test_load_rejects_probability_sum_above_one(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(
        "adgraph 1 2 1\n"
        "node x computer 1 0\n"
        "node da DA 0 1\n"
        "edge x da generic 0.7 0.5 0\n"
    )
    with pytest.raises(GraphValidationError):
        load_graph(str(path))


@pytest.mark.parametrize(
    "lineno,line,message",
    [
        (2, "node x printer 1 0", "unknown node kind 'printer'"),
        (1, "adgraph 1 two 1", "non-integer header field"),
        (1, "adgraph 2 2 1", "unsupported version 2"),
        (3, "node da DA 0 0", "is_da flag disagrees with node kind"),
        (4, "edge x da Owns 0.1 0.1 0", "unknown edge kind 'Owns'"),
        (4, "edge x da generic 0.1 0.1 2", "blockable must be 0 or 1"),
    ],
    ids=[
        "node-kind", "header-field", "version", "is-da-flag", "edge-kind",
        "blockable-flag",
    ],
)
def test_load_rejects_a_malformed_line(tmp_path, lineno, line, message):
    lines = [
        "adgraph 1 2 1",
        "node x computer 1 0",
        "node da DA 0 1",
        "edge x da generic 0.1 0.1 0",
    ]
    lines[lineno - 1] = line
    path = tmp_path / "g.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GraphFormatError, match=re.escape(f"g.txt:{lineno}: {message}")):
        load_graph(str(path))


def test_load_rejects_a_da_node_flagged_as_entry(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(
        "adgraph 1 2 1\n"
        "node x computer 1 0\n"
        "node da DA 1 1\n"
        "edge x da generic 0.1 0.1 0\n"
    )
    with pytest.raises(GraphValidationError, match="entry node 'da' is a DA candidate"):
        load_graph(str(path))


def test_load_rejects_count_mismatch(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("adgraph 1 3 0\nnode x computer 0 0\nnode da DA 0 1\n")
    with pytest.raises(GraphFormatError):
        load_graph(str(path))


_A, _B, _DA = Node("a", COMPUTER), Node("b", COMPUTER), Node("da", DOMAIN_ADMIN)
_A_DA = AttackGraph((_A, _DA), (Edge("a", "da"),))


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: AttackGraph((_A,), ()).da, GraphValidationError,
         "expected exactly one DA node, found 0"),
        (lambda: AttackGraph((Node("a", "server"), _DA), ()).validate(),
         GraphValidationError, "unknown node kind 'server' on 'a'"),
        (lambda: AttackGraph((_A, _DA), (Edge("a", "da", kind="Foo"),)).validate(),
         GraphValidationError, "unknown edge kind 'Foo' on edge 0"),
        (lambda: replace(_A_DA, entry_nodes=frozenset({"z"})).validate(),
         GraphValidationError, "entry node 'z' not in graph"),
        (lambda: prune(replace(_A_DA, entry_nodes=frozenset({"da"}))),
         GraphValidationError, "entry node 'da' is a DA candidate"),
        (lambda: prune(replace(_A_DA, entry_nodes=frozenset({"z"}))),
         GraphValidationError, "entry node 'z' not in graph"),
        (lambda: select_entry_nodes(_A_DA, pool_size=1, n_entry=0, seed=0),
         GraphValidationError, "n_entry must be at least 1"),
        (lambda: select_entry_nodes(_A_DA, pool_size=1, n_entry=2, seed=0),
         GraphValidationError, "pool_size must be at least n_entry"),
        (lambda: assign_blockable(
            AttackGraph((_A, _B, _DA), (Edge("a", "da"), Edge("a", "b"))), seed=0),
         GraphValidationError, "edge 1 head 'b' has no path to DA"),
        (lambda: assign_blockable(AttackGraph((_DA,), ()), seed=0),
         EmptyGameError, "graph has no edges"),
        (lambda: graph_to_text(AttackGraph((Node("a b", COMPUTER), _DA), ())),
         GraphValidationError, "node id 'a b' contains whitespace"),
    ],
    ids=[
        "no-da", "node-kind", "edge-kind", "unknown-entry", "prune-da-entry",
        "prune-unknown-entry", "no-entries", "pool-below-entries",
        "head-without-route", "no-edges", "spaced-id",
    ],
)
def test_graph_operations_refuse_a_malformed_graph(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_prune_merges_da_candidates_and_drops_dead_ends():
    g = AttackGraph(
        nodes=(
            Node("s", COMPUTER),
            Node("x", COMPUTER),
            Node("dead", COMPUTER),
            Node("d1", DOMAIN_ADMIN),
            Node("d2", DOMAIN_ADMIN),
        ),
        edges=(
            Edge("s", "x"),
            Edge("x", "d1"),
            Edge("x", "d2"),
            Edge("x", "dead"),
            Edge("d1", "s"),
        ),
    )
    p = prune(g)
    das = [n for n in p.nodes if n.kind == DOMAIN_ADMIN]
    assert len(das) == 1
    assert "dead" not in p.node_ids
    assert all(e.src != p.da for e in p.edges)
    assert {(e.src, e.dst) for e in p.edges} == {("s", "x"), ("x", p.da)}
    # the merged node takes a name no other node holds
    named = prune(replace(g, nodes=g.nodes + (Node("DA", COMPUTER),)))
    assert named.da == "DA+"


def test_prune_is_idempotent():
    g = generate_synthetic(30, seed=3)
    p1 = prune(g)
    assert prune(p1) == p1
    entries = select_entry_nodes(p1, pool_size=6, n_entry=3, seed=0)
    p2 = prune(replace(p1, entry_nodes=entries))
    assert prune(p2) == p2


def test_prune_drops_entry_incoming_and_unreachable_parts():
    g = build_game(
        [
            ("s", "x", 0.1, 0.1, False),
            ("x", "da", 0.1, 0.1, False),
            ("back", "s", 0.1, 0.1, False),
            ("y", "da", 0.1, 0.1, False),
        ],
        entries={"s"},
        prepare=False,
    )
    p = prune(g)
    assert all(e.dst != "s" for e in p.edges)
    # back feeds only the entry, y is never reached: both go away.
    assert p.node_ids == {"s", "x", "da"}


def test_prune_raises_when_entry_cannot_reach_da():
    g = build_game(
        [
            ("s", "x", 0.1, 0.1, False),
            ("y", "da", 0.1, 0.1, False),
        ],
        entries={"s"},
        prepare=False,
    )
    with pytest.raises(EmptyGameError):
        prune(g)


def _random_raw_graph(seed: int) -> AttackGraph:
    """Entries, middles and one or two DA candidates joined by random edges:
    dead ends, cycles, DA out-edges and edges between entries all occur."""
    rng = np.random.default_rng(seed)
    entries = [f"e{i}" for i in range(int(rng.integers(1, 4)))]
    mids = [f"m{i}" for i in range(int(rng.integers(2, 8)))]
    das = [f"d{i}" for i in range(int(rng.integers(1, 3)))]
    nodes = tuple(Node(v, COMPUTER) for v in entries + mids)
    nodes += tuple(Node(v, DOMAIN_ADMIN) for v in das)
    density = rng.uniform(0.1, 0.35)
    edges = tuple(
        Edge(u.id, v.id)
        for u in nodes
        for v in nodes
        if u != v and rng.random() < density
    )
    return AttackGraph(nodes, edges, frozenset(entries))


def test_prune_keeps_exactly_the_entry_to_da_walks():
    cases = {"dead entries": 0, "no live entry": 0, "dead ends": 0}
    for seed in range(300):
        g = _random_raw_graph(seed)
        kept, dead = reference_prune(g)
        live = g.entry_nodes - set(dead)
        if not live:
            with pytest.raises(EmptyGameError):
                prune(g)
            cases["no live entry"] += 1
            continue
        p = prune(g)
        assert p.node_ids == kept | {p.da}
        assert p.entry_nodes == live
        if dead:
            # the dead entries' in-edges, restored, give no one a new route
            assert p == prune(replace(g, entry_nodes=live))
            cases["dead entries"] += 1
        das = set(g.da_candidates)
        want = sorted(
            (e.src, p.da if e.dst in das else e.dst)
            for e in g.edges
            if e.src in kept and (e.dst in kept or e.dst in das)
            and e.dst not in g.entry_nodes
        )
        assert sorted((e.src, e.dst) for e in p.edges) == want
        cases["dead ends"] += len(g.nodes) > len(p.nodes) + len(das) - 1
    assert min(cases.values()) >= 20, cases


def test_prune_raises_on_empty_game():
    g = AttackGraph(
        nodes=(Node("a", COMPUTER), Node("da", DOMAIN_ADMIN)),
        edges=(Edge("da", "a"),),
    )
    with pytest.raises(EmptyGameError):
        prune(g)


def test_generate_deterministic_and_seed_sensitive():
    a = generate_synthetic(40, seed=7)
    b = generate_synthetic(40, seed=7)
    c = generate_synthetic(40, seed=8)
    assert a == b
    assert a != c


def test_generate_rejects_bad_params():
    with pytest.raises(GraphValidationError):
        generate_synthetic(0, seed=0)


def test_generate_scale_matches_enterprise_shape():
    g = generate_synthetic(500, seed=0)
    assert 700 <= len(g.nodes) <= 3000
    assert 1500 <= len(g.edges) <= 9000
    p = prune(g)
    survival = len(p.nodes) / len(g.nodes)
    assert 0.01 <= survival <= 0.5


def test_select_entry_nodes_enterprise_scale():
    p = prune(generate_synthetic(500, seed=0))
    entries = select_entry_nodes(p, pool_size=40, n_entry=20, seed=1)
    assert len(entries) == 20
    again = select_entry_nodes(p, pool_size=40, n_entry=20, seed=1)
    assert entries == again
    other = select_entry_nodes(p, pool_size=40, n_entry=20, seed=2)
    assert entries != other


def test_select_entry_nodes_forced_when_pool_equals_count():
    p = prune(generate_synthetic(30, seed=1))
    dist = p.hop_distances_to_da()
    pool = sorted((v for v in dist if v != p.da), key=lambda v: (-dist[v], v))[:3]
    entries = select_entry_nodes(p, pool_size=3, n_entry=3, seed=123)
    assert entries == frozenset(pool)


def test_select_entry_nodes_warns_on_short_pool():
    g = chain_graph([(0.1, 0.1)] * 3)
    with pytest.warns(RuntimeWarning):
        entries = select_entry_nodes(g, pool_size=50, n_entry=2, seed=0)
    assert len(entries) == 2
    # a pool that shrinks below the entry count cannot supply it
    with pytest.warns(RuntimeWarning), pytest.raises(
        GraphValidationError, match="cannot select 4 entry nodes from a pool of 3"
    ):
        select_entry_nodes(g, pool_size=50, n_entry=4, seed=0)


def test_assign_blockable_extremes():
    g = chain_graph([(0.05, 0.05)] * 5)
    for seed in range(20):
        bg = assign_blockable(g, seed=seed)
        by_pair = {(e.src, e.dst): e for e in bg.edges}
        assert by_pair[("n0", "n1")].blockable  # farthest edge, likelihood 1


def test_assign_blockable_mean_count_tracks_likelihoods():
    g = chain_graph([(0.05, 0.05)] * 6)
    dist = g.hop_distances_to_da()
    hops = [1 + dist[e.dst] for e in g.edges]
    max_hop = max(hops)
    likelihood = [h / max_hop for h in hops]
    expected = sum(likelihood)
    var = sum(p * (1 - p) for p in likelihood)
    n = 10_000
    counts = [
        sum(e.blockable for e in assign_blockable(g, seed=s).edges) for s in range(n)
    ]
    mean = sum(counts) / n
    assert abs(mean - expected) <= 3 * math.sqrt(var / n)


def _sampled(kind: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(p_d, p_f) drawn for a graph of 100,000 parallel edges."""
    g = AttackGraph(
        (Node("a", COMPUTER), Node("da", DOMAIN_ADMIN)), (Edge("a", "da"),) * 100_000
    )
    edges = sample_edge_probabilities(g, kind, seed).edges
    return np.array([e.p_d for e in edges]), np.array([e.p_f for e in edges])


def test_sample_probabilities_independent_bounds_and_simplex():
    p_d, p_f = _sampled("independent", seed=0)
    assert p_d.min() >= 0.0 and p_d.max() <= 0.2
    assert p_f.min() >= 0.0 and p_f.max() <= 0.2
    assert float(np.max(p_d + p_f)) <= 1.0
    assert abs(float(np.corrcoef(p_d, p_f)[0, 1])) < 0.05


@pytest.mark.parametrize("name,target", [("positive", 0.5), ("negative", -0.5)])
def test_sample_probabilities_correlation(name, target):
    p_d, p_f = _sampled(name, seed=42)
    r = float(np.corrcoef(p_d, p_f)[0, 1])
    assert abs(r - target) <= 0.1
    assert p_d.min() >= 0.0 and p_f.min() >= 0.0
    assert float(np.max(p_d + p_f)) <= 1.0 + 1e-12


def test_sample_probabilities_unknown_name_rejected():
    with pytest.raises(GraphValidationError):
        sample_edge_probabilities(chain_graph([(0.0, 0.0)] * 2), "cauchy", seed=0)


def test_sample_edge_probabilities_applies_to_graph():
    g = chain_graph([(0.0, 0.0)] * 4)
    out = sample_edge_probabilities(g, "independent", seed=5)
    assert any(e.p_d > 0 for e in out.edges)
    again = sample_edge_probabilities(g, "independent", seed=5)
    assert out == again
