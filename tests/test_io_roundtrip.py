"""Edge-list round-trips: isolated nodes, explicit sources, provenance."""

from __future__ import annotations

import pytest

from repro.exceptions import ParameterError
from repro.graphs.cgraph import CGraph
from repro.graphs.io import (
    EdgeListStream,
    read_edge_list,
    read_edge_list_meta,
    read_edge_list_text,
    write_edge_list,
)
from repro.graphs.largescale import compile_edge_list
from repro.service.store import graph_digest


def test_roundtrip_preserves_isolated_nodes(tmp_path):
    graph = CGraph(
        [("s", "a"), ("a", "b")],
        nodes=["lonely", "alone"],
        sources=["s"],
    )
    path = tmp_path / "g.txt"
    write_edge_list(graph, path)
    back = read_edge_list(path)
    assert sorted(map(repr, back.nodes())) == sorted(map(repr, graph.nodes()))
    assert back.has_node("lonely") and back.has_node("alone")
    assert graph_digest(back) == graph_digest(graph)


def test_roundtrip_preserves_explicit_sources(tmp_path):
    # An explicit source with *incoming* edges (the SetCover-gadget shape)
    # is invisible to in-degree-zero detection; the directive restores it.
    graph = CGraph(
        [("s", "a"), ("a", "b"), ("b", "s2"), ("s2", "c")],
        sources=["s", "s2"],
    )
    path = tmp_path / "g.txt"
    write_edge_list(graph, path)
    back = read_edge_list(path)
    assert back.sources == frozenset({"s", "s2"})
    assert graph_digest(back) == graph_digest(graph)
    # an explicit override still wins over the directive
    forced = read_edge_list(path, sources=["s"])
    assert forced.sources == frozenset({"s"})


def test_roundtrip_isolated_node_is_not_promoted_to_source(tmp_path):
    # With an explicit source set, an isolated node must come back as a
    # plain node — not as a detected in-degree-zero source.
    graph = CGraph([("s", "a")], nodes=[99], sources=["s"])
    path = tmp_path / "g.txt"
    write_edge_list(graph, path)
    back = read_edge_list(path)
    assert back.sources == frozenset({"s"})
    assert back.has_node(99)
    assert graph_digest(back) == graph_digest(graph)


def test_register_generate_reregister_same_digest(tmp_path):
    """The satellite's acceptance loop, at the service level."""
    from repro.service.store import GraphStore

    store = GraphStore(warm_backends=False)
    entry, _ = store.register_dataset("synthetic-sparse", seed=3, scale=0.05)
    path = tmp_path / "generated.txt"
    write_edge_list(entry.graph, path)
    again, created = store.register_edges(path.read_text())
    assert not created
    assert again.digest == entry.digest


def test_plain_edge_lists_still_load(tmp_path):
    path = tmp_path / "plain.txt"
    path.write_text("# a comment\n1 2\n2 3\n")
    graph = read_edge_list(path)
    assert graph.number_of_nodes() == 3
    assert graph.sources == frozenset({1})
    with pytest.raises(ParameterError):
        read_edge_list_text("1 2 3\n")


def test_directive_chunking_many_isolated_nodes(tmp_path):
    graph = CGraph([("s", "a")], nodes=range(200), sources=["s"])
    path = tmp_path / "g.txt"
    write_edge_list(graph, path)
    directive_lines = [
        line for line in path.read_text().splitlines()
        if line.startswith("# isolated:")
    ]
    assert len(directive_lines) > 1  # chunked, not one giant line
    back = read_edge_list(path)
    assert back.number_of_nodes() == graph.number_of_nodes()
    assert graph_digest(back) == graph_digest(graph)


def test_write_rejects_non_roundtrippable_node_ids(tmp_path):
    # a *string* "5" would read back as the int 5; whitespace ids would
    # break tokenization — both must be refused, not silently corrupted
    for bad in (
        CGraph([("5", "a")]),
        CGraph([("a b", "c")]),
        CGraph([("s", "a")], nodes=["7"]),  # isolated int-lookalike
    ):
        with pytest.raises(ParameterError):
            write_edge_list(bad, tmp_path / "bad.txt")


def test_meta_header_roundtrip(tmp_path):
    graph = CGraph([("s", "a")])
    path = tmp_path / "g.txt"
    write_edge_list(graph, path, meta={"dataset": "quote", "seed": 7})
    assert read_edge_list_meta(path) == {"dataset": "quote", "seed": 7}
    # files without a meta header report None
    bare = tmp_path / "bare.txt"
    write_edge_list(graph, bare)
    assert read_edge_list_meta(bare) is None


def test_tokens_int_rejects_stay_strings_in_every_reader(tmp_path):
    # "--5" and "²" pass ``lstrip("-").isdigit()`` but not ``int()``;
    # "-5" and "007" are ints as before.
    text = "# isolated: --5\n--5 -5\n-5 ²\n² 007\n"
    path = tmp_path / "tokens.txt"
    path.write_text(text, encoding="utf-8")
    edges = {("--5", -5), (-5, "²"), ("²", 7)}
    nodes = {"--5", -5, "²", 7}
    for graph in (
        read_edge_list(path),
        read_edge_list_text(text),
        compile_edge_list(path),
    ):
        assert set(graph.edges()) == edges
        assert set(graph.nodes()) == nodes
    stream = EdgeListStream(path)
    assert set(stream.edges()) == edges
    assert stream.isolated == ["--5"]


def test_int_rejected_tokens_roundtrip(tmp_path):
    graph = CGraph([("--5", "²"), ("²", 3)], nodes=["-x-"], sources=["--5"])
    path = tmp_path / "g.txt"
    write_edge_list(graph, path)
    back = read_edge_list(path)
    assert set(back.edges()) == set(graph.edges())
    assert set(back.nodes()) == set(graph.nodes())
    assert back.sources == graph.sources
