"""``graph_digest`` from the compiled tables against the per-line form.

The digest sorts node reprs once and edges by integer rank keys; the
per-line form in ``oracle_digest`` sorts ``(repr, repr)`` tuples.  On a
seeded corpus — int, string and mixed ids, quoted and unicode reprs,
distinct nodes with equal reprs, cyclic graphs, ``.fpc`` graphs, and
uniform and per-edge probabilities — both must give the same hex
digest, with NumPy and without.
"""

from __future__ import annotations

import random

import pytest

from oracle_digest import graph_digest_per_line
from repro.graphs.cgraph import CGraph
from repro.graphs.io import read_edge_list_text
from repro.graphs.largescale import load_compiled, save_compiled, scale_dag
from repro.service import store as service_store
from repro.service.store import graph_digest


class Same:
    """A node whose repr it shares with every other ``Same``."""

    def __repr__(self) -> str:
        return "same"


def random_graph(seed: int, pool: list, *, dag: bool) -> CGraph:
    rng = random.Random(seed)
    nodes = rng.sample(pool, len(pool))
    edges = set()
    for _ in range(rng.randint(len(nodes), 3 * len(nodes))):
        i, j = rng.randrange(len(nodes)), rng.randrange(len(nodes))
        if i == j:
            continue
        if dag and i > j:
            i, j = j, i
        edges.add((nodes[i], nodes[j]))
    ordered = sorted(edges, key=repr)
    rng.shuffle(ordered)
    isolated = [f"iso{seed}", -seed - 1]
    sources = None
    if seed % 3 == 1:
        sources = rng.sample(nodes, min(3, len(nodes)))
    return CGraph(ordered, nodes=isolated, sources=sources)


#: name -> node pool of the random corpus.
POOLS = {
    "ints": list(range(60)),
    "big-ints": [10**12 + i for i in range(0, 400, 7)] + [-3, -20, 10**19],
    "strings": [f"n{i}" for i in range(40)],
    "mixed": [1, "1", 2, "2", 10, "10", 3, "a", "b", -1, "-1"],
    "quoted": ["a'b", 'a"b', "a\\b", "'", '"', "a b", "\t", "x\ny", "''"],
    "unicode": ["é", "日本", "naïve", " ", "😀", "Ω", "z", "Z", "\x7f"],
    "tuples": [(0, "a"), (0, "b"), (1,), ("x", 2), "(0, 'a')", (0, 1)],
    "equal-reprs": [Same() for _ in range(6)] + ["same", "'same'", 0],
}


def corpus():
    for name, pool in POOLS.items():
        for seed in range(6):
            dag = seed % 2 == 0
            yield f"{name}-{seed}", random_graph(seed, pool, dag=dag)
    yield "empty", CGraph([])
    yield "isolated-only", CGraph([], nodes=[3, "3", 1])
    yield "read", read_edge_list_text("1 2\n2 3\na 1\n007 b\n# sources: 1 a\n")


def probability_specs(graph) -> list:
    edges = list(graph.edges())
    rng = random.Random(len(edges))
    per_edge = {edge: rng.choice((0.25, 0.5, 1.0, 0.9)) for edge in edges}
    return [None, 1.0, 0.5, 0.9, per_edge, {edge: 1.0 for edge in edges}]


@pytest.mark.parametrize("numpy_handle", ("numpy", "none"))
def test_digest_matches_per_line_form(numpy_handle, monkeypatch):
    if numpy_handle == "none":
        monkeypatch.setattr(service_store, "_np", None)
    for name, graph in corpus():
        for probabilities in probability_specs(graph):
            assert graph_digest(graph, probabilities) == graph_digest_per_line(
                graph, probabilities
            ), (name, probabilities)


@pytest.mark.parametrize("numpy_handle", ("numpy", "none"))
def test_digest_of_fpc_graphs(numpy_handle, tmp_path, monkeypatch):
    """``.fpc`` graphs, identity-interned or with a node table, digest
    as the graph they were saved from."""
    if numpy_handle == "none":
        monkeypatch.setattr(service_store, "_np", None)
    saved = [
        scale_dag(0.002, seed=3),
        random_graph(4, POOLS["mixed"], dag=True),
        random_graph(2, POOLS["unicode"], dag=True),
    ]
    for i, graph in enumerate(saved):
        target = save_compiled(graph, tmp_path / f"g{i}.fpc")
        loaded = load_compiled(target)
        want = graph_digest_per_line(graph)
        assert graph_digest_per_line(loaded) == want
        assert graph_digest(loaded) == want
        assert graph_digest(loaded, 0.5) == graph_digest_per_line(graph, 0.5)


def test_equal_reprs_share_a_rank():
    """Distinct nodes with one repr hash as repeated lines, whichever
    of them an edge names."""
    a, b, c = Same(), Same(), Same()
    one = CGraph([(a, 1), (b, 2), (2, c)])
    other = CGraph([(b, 1), (a, 2), (2, c)])
    assert graph_digest(one) == graph_digest(other)
    assert graph_digest(one) == graph_digest_per_line(one)


def test_digest_is_pinned():
    """The digest of one small mixed graph, as every release computed it."""
    graph = CGraph(
        [(1, 2), (2, "3"), ("a", 2), ("é", 1)], nodes=["lone"], sources=[1, "a"]
    )
    assert graph_digest(graph) == (
        "c1de8c71cd7bc370b875ad19e208fa58cfcc859bd5b53ea83976d431bde36297"
    )
