"""``largest_acyclic_subgraph`` builds only the winning candidate's graph.

It runs ``Acyclic`` from every candidate start and keeps the biggest
DAG by node count, then edge count, the earliest candidate winning
ties.  The per-candidate loop that built a graph for every candidate is
kept here as the reference: on seeded cyclic graphs, for both methods,
the result must equal it node for node and edge for edge.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import MissingNodeError
from repro.graphs import acyclic
from repro.graphs.acyclic import acyclic_subgraph, largest_acyclic_subgraph
from repro.graphs.cgraph import CGraph

METHODS = ("dfs", "signature")


def reference_largest(graph, candidates, method):
    """The per-candidate loop: build every candidate's DAG, keep the
    largest by ``(nodes, edges)``, the earliest on ties."""
    best = None
    for start in candidates:
        result = acyclic_subgraph(graph, start, method=method)
        if best is None or (
            result.number_of_nodes(),
            result.number_of_edges(),
        ) > (best.number_of_nodes(), best.number_of_edges()):
            best = result
    return best


def cyclic_graph(seed: int) -> CGraph:
    """A seeded digraph with a directed cycle through nodes 0, 1, 2."""
    rng = random.Random(seed)
    n = rng.randint(6, 30)
    edges = {(0, 1), (1, 2), (2, 0)}
    target = rng.randint(n, 3 * n)
    while len(edges) < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v))
    ordered = sorted(edges)
    rng.shuffle(ordered)
    return CGraph(ordered)


def summary(graph) -> dict:
    return {
        "nodes": list(graph.nodes()),
        "edges": list(graph.edges()),
        "sources": graph.sources,
        "sources_explicit": graph.sources_explicit,
    }


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("seed", range(12))
def test_matches_per_candidate_loop(seed, method):
    graph = cyclic_graph(seed)
    assert not graph.is_dag()
    rng = random.Random(seed)
    candidates = list(graph.nodes())
    rng.shuffle(candidates)
    for chosen in (candidates, candidates[: max(1, len(candidates) // 3)]):
        got = largest_acyclic_subgraph(graph, chosen, method=method)
        assert got.is_dag()
        assert summary(got) == summary(
            reference_largest(graph, chosen, method)
        )


@pytest.mark.parametrize("method", METHODS)
def test_earliest_candidate_wins_ties(method):
    """Every start of a 3-cycle reaches 3 nodes and keeps 2 edges."""
    graph = CGraph([("a", "b"), ("b", "c"), ("c", "a")])
    for candidates in (["a", "b", "c"], ["c", "a", "b"], ["b", "c"]):
        got = largest_acyclic_subgraph(graph, candidates, method=method)
        assert got.sources == {candidates[0]}
        assert summary(got) == summary(
            reference_largest(graph, candidates, method)
        )


@pytest.mark.parametrize("method", METHODS)
def test_builds_one_graph(method, monkeypatch):
    builds = []

    class CountingCGraph(CGraph):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            builds.append(1)
            super().__init__(*args, **kwargs)

    graph = cyclic_graph(3)
    monkeypatch.setattr(acyclic, "CGraph", CountingCGraph)
    largest_acyclic_subgraph(graph, method=method)
    assert len(builds) == 1


def test_unknown_candidate_raises():
    graph = cyclic_graph(1)
    with pytest.raises(MissingNodeError):
        largest_acyclic_subgraph(graph, [0, "nope"])
