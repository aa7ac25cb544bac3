"""CompiledGraph structural properties + derived-graph regressions.

Covers the compile-once layer itself: index↔node round-trips, CSR/tuple
adjacency agreement with the dict API, topological/level invariants, and
the derived-graph constructor audit (explicit-source preservation and
compiled-cache freshness on ``subgraph`` / ``reversed`` /
``without_edges`` / ``with_edges`` / ``with_sources``).
"""

from __future__ import annotations

import pytest

from conftest import random_dag
from repro.datasets.registry import get_dataset
from repro.exceptions import CyclicGraphError
from repro.graphs import CGraph, CompiledGraph
from repro.graphs.compiled import packed_reach_counts


def property_graphs():
    yield "fig1", get_dataset("fig1")
    yield "fig2", get_dataset("fig2")
    yield "fig3", get_dataset("fig3")
    yield "fig10", get_dataset("fig10")
    yield "quote@0.3", get_dataset("quote", seed=0, scale=0.3)
    yield "random_dag", random_dag(7)
    yield "single", CGraph(nodes=["only"])
    yield "empty", CGraph()


@pytest.mark.parametrize(
    "name,graph", list(property_graphs()), ids=lambda x: x if isinstance(x, str) else ""
)
def test_index_node_round_trip(name, graph):
    cg = graph.compiled()
    assert cg.nodes == graph.nodes()
    assert cg.n == graph.number_of_nodes()
    assert cg.m == graph.number_of_edges()
    for i, v in enumerate(cg.nodes):
        assert cg.index[v] == i
        assert cg.to_id(v) == i
        assert cg.to_node(i) == v
    assert cg.to_nodes(cg.to_ids(graph.nodes())) == list(graph.nodes())


@pytest.mark.parametrize(
    "name,graph", list(property_graphs()), ids=lambda x: x if isinstance(x, str) else ""
)
def test_adjacency_agrees_with_dict_api(name, graph):
    cg = graph.compiled()
    for i, v in enumerate(cg.nodes):
        succ_nodes = tuple(cg.nodes[j] for j in cg.succ_ids[i])
        assert succ_nodes == graph.successors(v)
        pred_nodes = sorted(map(repr, (cg.nodes[j] for j in cg.pred_ids[i])))
        assert pred_nodes == sorted(map(repr, graph.predecessors(v)))
        # CSR slices carry exactly the tuple adjacency.
        assert (
            tuple(cg.out_targets[cg.out_offsets[i]:cg.out_offsets[i + 1]])
            == cg.succ_ids[i]
        )
        assert (
            tuple(cg.in_sources[cg.in_offsets[i]:cg.in_offsets[i + 1]])
            == cg.pred_ids[i]
        )
        assert cg.out_degree[i] == graph.out_degree(v)
        assert cg.in_degree[i] == graph.in_degree(v)


@pytest.mark.parametrize(
    "name,graph", list(property_graphs()), ids=lambda x: x if isinstance(x, str) else ""
)
def test_node_families_match(name, graph):
    cg = graph.compiled()
    assert set(cg.to_nodes(cg.source_ids)) == set(graph.sources)
    assert list(cg.source_ids) == sorted(cg.source_ids)
    assert tuple(cg.to_nodes(cg.sink_ids)) == graph.sinks()
    assert tuple(cg.to_nodes(cg.merge_ids)) == graph.merge_nodes()


@pytest.mark.parametrize(
    "name,graph", list(property_graphs()), ids=lambda x: x if isinstance(x, str) else ""
)
def test_topological_and_level_invariants(name, graph):
    cg = graph.compiled()
    assert cg.is_dag
    assert sorted(cg.topo_order) == list(range(cg.n))
    for u in range(cg.n):
        for child in cg.succ_ids[u]:
            assert cg.topo_index[u] < cg.topo_index[child]
            assert cg.depth[u] < cg.depth[child]  # edges cross levels upward
    # The level partition tiles the topo order; members ascend within a
    # level, and depth equals the longest path from any root.
    offsets = cg.level_offsets
    assert offsets[0] == 0 and offsets[-1] == cg.n
    assert cg.num_levels == len(offsets) - 1
    for lvl in range(cg.num_levels):
        members = cg.level_members(lvl)
        assert list(members) == sorted(members)
        for v in members:
            assert cg.depth[v] == lvl
            preds = cg.pred_ids[v]
            expected = max((cg.depth[p] for p in preds), default=-1) + 1
            assert cg.depth[v] == expected


def test_cyclic_graph_compiles_but_topo_raises():
    cyc = CGraph([("a", "b"), ("b", "c"), ("c", "a")], sources=["a"])
    cg = cyc.compiled()
    assert not cg.is_dag
    assert cg.m == 3
    for attr in ("topo_order", "topo_index", "depth", "level_offsets"):
        with pytest.raises(CyclicGraphError):
            getattr(cg, attr)


def test_compiled_is_cached_per_graph():
    g = get_dataset("fig1")
    assert g.compiled() is g.compiled()
    assert isinstance(g.compiled(), CompiledGraph)
    assert g.compiled().graph is g


def test_nbytes_positive_and_monotone():
    small = get_dataset("fig1").compiled()
    large = get_dataset("quote", seed=0, scale=0.5).compiled()
    assert 0 < small.nbytes() < large.nbytes()


def test_reach_counts_do_not_pin_reach_masks():
    # Regression: deriving the counts used to cache the full O(n·S/8)
    # mask list as a side effect, pinning it resident forever.  Counting
    # must stay blocked and keep only the counts.
    cg = get_dataset("quote", seed=0, scale=0.3).compiled()
    # The python sweep reads ``pred_ids``, a lazy view: build it before
    # the baseline, so only what the counting caches is measured.
    cg.pred_ids
    baseline = cg.nbytes_split()["resident"]
    counts = cg.reach_counts()
    grown = cg.nbytes_split()["resident"] - baseline
    import sys

    # The legitimate growth: the counts list itself plus the n-byte
    # source-mark the sweep materializes.  Nothing mask-shaped.
    assert grown <= (
        sys.getsizeof(counts)
        + sum(sys.getsizeof(c) for c in set(counts))
        + sys.getsizeof(cg.source_mark())
    )
    assert counts == packed_reach_counts(cg)


def test_reach_counts_route_through_the_warm_entry_point(monkeypatch):
    # One reach entry point: the compiled graph resolves the blocked
    # warm on its module at call time, so a module-level wrapper (the
    # benchmark's timing shim, this test's counter) sees every warm.
    from repro.propagation import reach

    calls = []
    original = reach.warm_reach_counts

    def counting(compiled, **kwargs):
        calls.append(compiled)
        return original(compiled, **kwargs)

    monkeypatch.setattr(reach, "warm_reach_counts", counting)
    cg = get_dataset("quote", seed=0, scale=0.3).compiled()
    counts = cg.reach_counts()
    assert calls == [cg]
    assert cg.reach_counts() is counts  # cached: no second warm
    assert calls == [cg]


# ----------------------------------------------------------------------
# Derived-graph constructor audit: explicit-source preservation and
# compiled-cache freshness (one regression test per constructor).
# ----------------------------------------------------------------------


def chain_with_side_edge():
    return CGraph([("a", "b"), ("b", "c"), ("a", "c")])


def test_subgraph_redefaults_defaulted_sources_and_recompiles():
    g = chain_with_side_edge()
    cg = g.compiled()
    sub = g.subgraph(["b", "c"])
    # 'b' lost its only in-edge: with defaulted sources it must be
    # promoted, not dropped in favour of the parent's root 'a'.
    assert sub.sources == frozenset({"b"})
    assert not sub.sources_explicit
    assert sub.compiled() is not cg
    assert sub.compiled().nodes == sub.nodes()


def test_subgraph_preserves_surviving_explicit_sources():
    g = CGraph(
        [("a", "b"), ("b", "c"), ("a", "c"), ("d", "c")],
        sources=["a", "d"],
    )
    sub = g.subgraph(["a", "b", "c"])
    assert sub.sources == frozenset({"a"})
    assert sub.sources_explicit
    # No explicit source survives -> fall back to in-degree-zero roots.
    sub2 = g.subgraph(["b", "c"])
    assert sub2.sources == frozenset({"b"})
    assert not sub2.sources_explicit


def test_without_edges_promotes_new_roots_under_defaulted_sources():
    g = chain_with_side_edge()
    cg = g.compiled()
    cut = g.without_edges([("a", "b")])
    assert cut.sources == frozenset({"a", "b"})
    assert not cut.sources_explicit
    assert cut.compiled() is not cg
    assert cut.compiled().m == 2


def test_without_edges_preserves_explicit_sources():
    g = CGraph([("a", "b"), ("b", "c"), ("a", "c")], sources=["a"])
    cut = g.without_edges([("a", "b")])
    assert cut.sources == frozenset({"a"})
    assert cut.sources_explicit


def test_with_edges_demotes_roots_under_defaulted_sources():
    g = CGraph([("a", "b")], nodes=["c"])
    grown = g.with_edges([("b", "c"), ("c", "a")])
    # 'a' gained an in-edge; with defaulted sources nothing qualifies.
    assert grown.sources == frozenset()
    assert not grown.sources_explicit
    ge = CGraph([("a", "b")], nodes=["c"], sources=["a"])
    grown_e = ge.with_edges([("b", "c"), ("c", "a")])
    assert grown_e.sources == frozenset({"a"})
    assert grown_e.sources_explicit


def test_reversed_redefaults_to_original_sinks():
    g = CGraph([("a", "b"), ("b", "c"), ("a", "c")], sources=["a"])
    rev = g.reversed()
    assert rev.sources == frozenset({"c"})
    assert not rev.sources_explicit
    assert rev.compiled() is not g.compiled()
    rev_cg = rev.compiled()
    a, c = rev_cg.index["a"], rev_cg.index["c"]
    assert a in rev_cg.sink_ids and c in rev_cg.source_ids


def test_with_sources_is_explicit_and_compiles_fresh():
    g = chain_with_side_edge()
    pinned = g.with_sources(["b"])
    assert pinned.sources == frozenset({"b"})
    assert pinned.sources_explicit
    assert pinned.compiled() is not g.compiled()
    assert pinned.compiled().source_ids == (pinned.compiled().index["b"],)
