"""The scale tier: streamed compilation, the scale-dag, the .fpc layout.

Pins the three contracts the million-node tier rests on:

* :func:`compile_edge_stream` builds the *same* compiled tables as the
  per-edge build of ``tests/oracle_cgraph.py`` — same interning order,
  same CSR ordering, same source defaulting, same structural errors —
  in both the NumPy and the pure-python CSR builders.
* The scale-dag generator is a pure function of ``(scale, seed)``:
  byte-reproducible streams, ``u < v`` on every edge (acyclic by
  construction), and the documented node-count law.
* ``save_compiled``/``load_compiled`` round-trip a graph through the
  ``.fpc`` directory losslessly (including cached reach counts and the
  levelization), memory-map it back when NumPy is present, and reject
  foreign or corrupt directories loudly.
"""

from __future__ import annotations

import json
import random
import tracemalloc
from array import array

import pytest

from conftest import MALFORMED_FPC_META, malform_fpc_meta
from oracle_cgraph import PerEdgeCGraph
from repro.core.registry import get_algorithm
from repro.exceptions import (
    GraphStructureError,
    MissingNodeError,
    ParameterError,
)
from repro.graphs.cgraph import CGraph
from repro.graphs.compiled import (
    _csr_from_buffers_numpy,
    _csr_from_buffers_python,
)
import repro.graphs.compiled as graph_compiled
import repro.graphs.io as graph_io
import repro.graphs.largescale as graph_largescale
from repro.graphs.io import read_edge_list, write_edge_list
from repro.graphs.largescale import (
    StreamedGraph,
    compile_edge_list,
    compile_edge_stream,
    load_compiled,
    save_compiled,
    scale_dag,
    scale_dag_edges,
    scale_dag_size,
)
from repro.obs.trace import TRACER
from repro.service.store import GraphStore

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except Exception:  # pragma: no cover - the no-numpy CI job
    HAVE_NUMPY = False

#: A small irregular DAG: merge nodes, a diamond, an isolated-ish tail.
EDGES = [
    ("a", "c"), ("b", "c"), ("c", "d"), ("a", "d"),
    ("d", "e"), ("b", "f"), ("f", "e"), ("c", "f"),
]


def tables_of(graph):
    compiled = graph.compiled()
    return {
        "n": compiled.n,
        "m": compiled.m,
        "nodes": list(compiled.nodes),
        "source_ids": tuple(compiled.source_ids),
        "out_offsets": [int(x) for x in compiled.out_offsets],
        "out_targets": [int(x) for x in compiled.out_targets],
        "in_offsets": [int(x) for x in compiled.in_offsets],
        "in_sources": [int(x) for x in compiled.in_sources],
    }


# ----------------------------------------------------------------------
# compile_edge_stream ≡ the per-edge build's compiled tables
# ----------------------------------------------------------------------


def test_streamed_tables_match_materialized_path():
    streamed = compile_edge_stream(iter(EDGES))
    materialized = PerEdgeCGraph(EDGES)
    assert tables_of(streamed) == tables_of(materialized)


def test_streamed_pins_sources_and_isolated():
    streamed = compile_edge_stream(
        iter(EDGES), sources=["a", "e"], isolated=["z"]
    )
    materialized = PerEdgeCGraph(EDGES, nodes=["z"], sources=["a", "e"])
    assert tables_of(streamed) == tables_of(materialized)
    assert streamed.sources == {"a", "e"}
    assert "z" in streamed


def test_streamed_rejects_unknown_source():
    with pytest.raises(MissingNodeError):
        compile_edge_stream(iter(EDGES), sources=["nope"])


def test_streamed_rejects_self_loop():
    with pytest.raises(GraphStructureError):
        compile_edge_stream(iter([("a", "b"), ("b", "b")]))


def test_identity_fast_path_matches_interned_path():
    # First-seen interning order must equal identity order for the two
    # paths to agree, so the edge list introduces nodes in id order.
    edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
    fast = compile_edge_stream(iter(edges), num_nodes=4)
    slow = compile_edge_stream(iter(edges))
    assert fast.compiled().nodes == range(4)
    assert tables_of(fast) == tables_of(slow)


def test_identity_fast_path_rejects_foreign_ids():
    with pytest.raises(MissingNodeError):
        compile_edge_stream(iter([(0, 7)]), num_nodes=4)
    with pytest.raises(MissingNodeError):
        compile_edge_stream(iter([("a", 1)]), num_nodes=4)
    with pytest.raises(MissingNodeError):
        compile_edge_stream(iter([(0, 1), (2, -1)]), num_nodes=4)


def test_identity_fast_path_rejects_self_loop_and_bad_num_nodes():
    with pytest.raises(GraphStructureError):
        compile_edge_stream(iter([(1, 1)]), num_nodes=4)
    with pytest.raises(ParameterError):
        compile_edge_stream(iter([]), num_nodes=-1)


def test_identity_fast_path_pins_int_sources():
    graph = compile_edge_stream(
        iter([(0, 1), (1, 2)]), num_nodes=3, sources=[0, 1]
    )
    assert graph.sources == {0, 1}
    with pytest.raises(MissingNodeError):
        compile_edge_stream(iter([(0, 1)]), num_nodes=2, sources=[5])


@pytest.mark.parametrize(
    "builder",
    ([_csr_from_buffers_numpy] if HAVE_NUMPY else [])
    + [_csr_from_buffers_python],
)
def test_both_csr_builders_reject_duplicates(builder):
    from array import array

    us = array("i", [0, 1, 0])
    vs = array("i", [1, 2, 1])
    with pytest.raises(GraphStructureError):
        builder(3, 3, us, vs, list(range(3)))


@pytest.mark.skipif(not HAVE_NUMPY, reason="differential test needs numpy")
def test_csr_builders_agree():
    from array import array

    rng_edges = [(u, v) for (u, v) in scale_dag_edges(0.001, seed=3)]
    us = array("i", [u for u, _ in rng_edges])
    vs = array("i", [v for _, v in rng_edges])
    n = scale_dag_size(0.001)
    m = len(us)
    fast = _csr_from_buffers_numpy(n, m, us, vs, range(n))
    slow = _csr_from_buffers_python(n, m, us, vs, range(n))
    for a, b in zip(fast, slow):
        assert [int(x) for x in a] == [int(x) for x in b]


def test_empty_stream_compiles():
    graph = compile_edge_stream(iter([]), isolated=["only"])
    assert graph.number_of_nodes() == 1
    assert graph.number_of_edges() == 0
    assert graph.sources == {"only"}


# ----------------------------------------------------------------------
# The StreamedGraph protocol face
# ----------------------------------------------------------------------


def test_streamed_graph_protocol_matches_cgraph():
    streamed = compile_edge_stream(iter(EDGES))
    reference = PerEdgeCGraph(EDGES)
    assert isinstance(streamed, StreamedGraph)
    assert streamed.number_of_nodes() == reference.number_of_nodes()
    assert streamed.number_of_edges() == reference.number_of_edges()
    assert list(streamed.nodes()) == list(reference.nodes())
    assert sorted(streamed.edges()) == sorted(reference.edges())
    assert streamed.sources == reference.sources
    assert streamed.sources_explicit
    assert streamed.is_dag() == reference.is_dag()
    assert sorted(streamed.merge_nodes()) == sorted(reference.merge_nodes())
    for node in reference.nodes():
        assert sorted(streamed.successors(node)) == sorted(
            reference.successors(node)
        )
        assert sorted(streamed.predecessors(node)) == sorted(
            reference.predecessors(node)
        )
        assert streamed.out_degree(node) == reference.out_degree(node)
        assert streamed.in_degree(node) == reference.in_degree(node)
    assert "a" in streamed and "nope" not in streamed


def test_placement_runs_on_streamed_graphs():
    graph = scale_dag(0.0005, seed=0)
    exact = get_algorithm("G_All", strategy="exact").place(graph, 3)
    sketch = get_algorithm("G_All", strategy="sketch").place(graph, 3)
    assert len(exact.filters) == 3
    assert len(sketch.filters) == 3


# ----------------------------------------------------------------------
# The scale-dag generator
# ----------------------------------------------------------------------


def test_scale_dag_size_law():
    assert scale_dag_size(1.0) == 100_000
    assert scale_dag_size(10.0) == 1_000_000
    assert scale_dag_size(0.001) == 100
    assert scale_dag_size(1e-9) == 10  # floor
    with pytest.raises(ParameterError):
        scale_dag_size(0.0)


def test_scale_dag_stream_is_pure_and_ascending():
    first = list(scale_dag_edges(0.002, seed=5))
    again = list(scale_dag_edges(0.002, seed=5))
    reseeded = list(scale_dag_edges(0.002, seed=6))
    assert first == again
    assert first != reseeded
    n = scale_dag_size(0.002)
    assert all(0 <= u < v < n for u, v in first)
    assert len(set(first)) == len(first)  # no duplicate edges


def test_scale_dag_compiles_with_spontaneous_sources():
    graph = scale_dag(0.002, seed=0)
    assert graph.number_of_nodes() == scale_dag_size(0.002)
    assert graph.is_dag()
    # Level 0 plus ~30% spontaneous nodes: a constant fraction of n.
    assert len(graph.sources) > graph.number_of_nodes() // 10
    # Sources are exactly the in-degree-zero nodes.
    for s in sorted(graph.sources)[:20]:
        assert graph.in_degree(s) == 0


# ----------------------------------------------------------------------
# compile_edge_list: the chunked file reader
# ----------------------------------------------------------------------


def test_compile_edge_list_honors_directives(tmp_path):
    reference = PerEdgeCGraph(EDGES, nodes=["lone"], sources=["a", "b"])
    path = tmp_path / "graph.txt"
    write_edge_list(reference, path)
    streamed = compile_edge_list(path)
    assert streamed.sources == reference.sources
    assert "lone" in streamed
    assert streamed.number_of_nodes() == reference.number_of_nodes()
    assert sorted(streamed.edges()) == sorted(reference.edges())


def test_compile_edge_list_sources_override(tmp_path):
    path = tmp_path / "graph.txt"
    write_edge_list(CGraph(EDGES), path)
    streamed = compile_edge_list(path, sources=["c"])
    assert streamed.sources == {"c"}
    with pytest.raises(MissingNodeError):
        compile_edge_list(path, sources=["nope"])


def test_compile_edge_list_reads_trailing_directives(tmp_path):
    # Directives after the edges are complete only once the stream is
    # exhausted; the compiled tables must still match the reader's.
    path = tmp_path / "trailing.txt"
    body = "".join(f"{u} {v}\n" for u, v in EDGES)
    path.write_text(
        body + "# sources: a f\n# isolated: lone 7\n", encoding="utf-8"
    )
    reference = read_edge_list(path)
    streamed = compile_edge_list(path)
    assert tables_of(streamed) == tables_of(reference)
    assert streamed.sources == reference.sources == {"a", "f"}
    assert "lone" in streamed and 7 in streamed


def string_id_file(tmp_path):
    """20,000 distinct edges between 2,000 string ids, in key order."""
    rng = random.Random(5)
    edges = set()
    while len(edges) < 20_000:
        u, v = rng.randrange(2_000), rng.randrange(2_000)
        if u != v:
            edges.add((u, v))
    path = tmp_path / "strings.txt"
    path.write_text(
        "".join(f"node{u} node{v}\n" for u, v in sorted(edges)),
        encoding="utf-8",
    )
    return path


@pytest.mark.skipif(
    not HAVE_NUMPY, reason="the pure-python CSR build's own peak hides it"
)
@pytest.mark.parametrize(
    "reader, bytes_per_edge", [(compile_edge_list, 120), (read_edge_list, 180)]
)
def test_string_ids_intern_one_segment_at_a_time(
    tmp_path, monkeypatch, reader, bytes_per_edge
):
    # String ids arrive as one (u, v) tuple list per block, and each
    # list must intern as it arrives.  Holding every list to the end
    # adds ~170 B per edge (a tuple and two str objects) to a traced
    # peak of ~60 B per edge for compile_edge_list and ~90 B for
    # read_edge_list, whose CGraph is part of it.
    m = 20_000
    path = string_id_file(tmp_path)
    monkeypatch.setattr(graph_io, "_BLOCK_BYTES", 4096)
    reader(path)  # imports and caches stay out of the traced peak
    tracemalloc.start()
    try:
        graph = reader(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.number_of_edges() == m
    assert peak < bytes_per_edge * m


def test_python_csr_build_holds_no_edge_set(tmp_path, monkeypatch):
    # Without NumPy the counting CSR build finds repeats one node's
    # targets at a time; a set of one int per edge, as it once held,
    # peaked at ~184 B per edge here (measured: ~43 B without it).
    for module in (graph_io, graph_compiled, graph_largescale):
        monkeypatch.setattr(module, "_np", None)
    path = string_id_file(tmp_path)
    monkeypatch.setattr(graph_io, "_BLOCK_BYTES", 4096)
    compile_edge_list(path)
    tracemalloc.start()
    try:
        graph = compile_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.number_of_edges() == 20_000
    assert peak < 120 * 20_000


def test_python_read_shares_id_ints(tmp_path, monkeypatch):
    # Without NumPy, read_edge_list once copied its id tables with
    # list(), a fresh int per element, and gathered its parents through
    # a per-edge id list: ~168 B per edge here.  Gathered through the n
    # ids and straight into nodes it peaks at ~79 B per edge.
    for module in (graph_io, graph_compiled, graph_largescale):
        monkeypatch.setattr(module, "_np", None)
    path = string_id_file(tmp_path)
    monkeypatch.setattr(graph_io, "_BLOCK_BYTES", 4096)
    read_edge_list(path)
    tracemalloc.start()
    try:
        graph = read_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.number_of_edges() == 20_000
    assert peak < 120 * 20_000


def per_element_views(compiled) -> tuple:
    """``succ_ids`` and ``pred_ids`` built with one ``int()`` per element."""
    def split(offsets, table):
        return tuple(
            tuple(int(x) for x in table[offsets[i]:offsets[i + 1]])
            for i in range(compiled.n)
        )

    return (
        split(compiled.out_offsets, compiled.out_targets),
        split(compiled.in_offsets, compiled.in_sources),
    )


def fpc_bytes_per_element(compiled, target) -> dict:
    """Each ``.fpc`` table as written with one ``int()`` per element."""
    meta = json.loads((target / "meta.json").read_text())
    codes = {"int32": "i", "int64": "q"}
    tables = {}
    for name, spec in meta["arrays"].items():
        if name == "reach_counts":
            values = compiled._reach_counts
        else:
            values = getattr(compiled, name)
        tables[name] = array(
            codes[spec["dtype"]], (int(x) for x in values)
        ).tobytes()
    return tables


@pytest.mark.parametrize("numpy_handle", ("numpy", "none"))
def test_views_and_fpc_bytes_match_per_element_build(
    numpy_handle, tmp_path, monkeypatch
):
    """The views slice list, ``array`` and NumPy tables alike, and the
    ``.fpc`` writer copies list tables whole: both give what an
    ``int()`` per element gives."""
    if numpy_handle == "none":
        for module in (graph_io, graph_compiled, graph_largescale):
            monkeypatch.setattr(module, "_np", None)
    path = tmp_path / "g.txt"
    path.write_text(
        "# sources: a 1\n"
        + "".join(f"{u} {v}\n" for u, v in scale_dag_edges(0.003, 2))
        + "a 1\nb 300\n1 b\n",
        encoding="utf-8",
    )
    graphs = {
        "read": read_edge_list(path),
        "compile": compile_edge_list(path),
        "code": CGraph(EDGES, nodes=["z"]),
        "identity": scale_dag(0.002, seed=1),
    }
    graphs["fpc"] = load_compiled(
        save_compiled(graphs["compile"], tmp_path / "c.fpc")
    )
    for name, graph in graphs.items():
        compiled = graph.compiled()
        want = per_element_views(compiled)
        got = (compiled.succ_ids, compiled.pred_ids)
        assert got == want, name
        for view in got:
            assert type(view) is tuple
            assert all(type(row) is tuple for row in view)
            assert all(type(x) is int for row in view for x in row), name
        compiled.reach_counts()
        target = save_compiled(graph, tmp_path / f"{name}.fpc")
        want_bytes = fpc_bytes_per_element(compiled, target)
        assert "reach_counts" in want_bytes
        for table, data in want_bytes.items():
            assert (target / f"{table}.bin").read_bytes() == data, (
                name, table,
            )


# ----------------------------------------------------------------------
# The .fpc on-disk layout
# ----------------------------------------------------------------------


def fpc_fixture(tmp_path):
    graph = scale_dag(0.001, seed=0)
    graph.compiled().reach_counts()  # cache so the sweep persists too
    return graph, save_compiled(graph, tmp_path / "g.fpc")


def test_fpc_round_trip(tmp_path):
    graph, target = fpc_fixture(tmp_path)
    loaded = load_compiled(target)
    assert tables_of(loaded) == tables_of(graph)
    original = graph.compiled()
    reloaded = loaded.compiled()
    assert reloaded.reach_counts() == original.reach_counts()
    assert reloaded.is_dag and reloaded.num_levels == original.num_levels
    assert [int(x) for x in reloaded.topo_order] == [
        int(x) for x in original.topo_order
    ]
    # The reload is placement-equivalent, not just table-equivalent.
    before = get_algorithm("G_All").place(graph, 3)
    after = get_algorithm("G_All").place(loaded, 3)
    assert before.filters == after.filters


@pytest.mark.skipif(not HAVE_NUMPY, reason="memory-mapping needs numpy")
def test_fpc_loads_memory_mapped(tmp_path):
    _, target = fpc_fixture(tmp_path)
    loaded = load_compiled(target)
    split = loaded.compiled().nbytes_split()
    assert split["mapped"] > 0
    # Cached reach counts materialize resident; CSR tables stay mapped.
    assert split["resident"] > 0


def traced(call):
    """``call()`` under tracing, with the root spans it recorded."""
    TRACER.enable()
    try:
        with TRACER.trace(trace_id="t-fpc") as trace:
            result = call()
    finally:
        TRACER.disable()
        TRACER.clear()
    return result, trace.roots


def test_fpc_load_opens_an_ingest_span(tmp_path):
    _, target = fpc_fixture(tmp_path)
    loaded, (record,) = traced(lambda: load_compiled(target))
    compiled = loaded.compiled()
    assert record.name == "graphs.ingest"
    assert record.attrs == {
        "format": "fpc",
        "n": compiled.n,
        "edges": compiled.m,
        "mapped_bytes": compiled.mapped_nbytes(),
    }
    assert (record.attrs["mapped_bytes"] > 0) == HAVE_NUMPY
    # A service registration of the directory records the same span.
    store = GraphStore(warm_backends=False)
    _, roots = traced(lambda: store.register_fpc(target))
    assert [r.name for r in roots] == ["graphs.ingest"]
    assert roots[0].attrs["format"] == "fpc"


def test_fpc_preserves_string_nodes(tmp_path):
    graph = compile_edge_stream(iter(EDGES), isolated=["z"])
    target = save_compiled(graph, tmp_path / "named.fpc")
    loaded = load_compiled(target)
    assert list(loaded.nodes()) == list(graph.nodes())
    assert loaded.sources == graph.sources


def test_fpc_rejects_tuple_nodes(tmp_path):
    graph = CGraph([((0, 0), (1, 1))])
    with pytest.raises(ParameterError):
        save_compiled(graph, tmp_path / "t.fpc")


def test_fpc_rejects_non_fpc_directory(tmp_path):
    with pytest.raises(ParameterError):
        load_compiled(tmp_path)


def test_fpc_rejects_unknown_format(tmp_path):
    _, target = fpc_fixture(tmp_path)
    meta_path = target / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["format"] = "fpc-99"
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ParameterError, match="fpc-99"):
        load_compiled(target)


def test_fpc_rejects_foreign_byteorder(tmp_path):
    _, target = fpc_fixture(tmp_path)
    meta_path = target / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["byteorder"] = "big" if meta["byteorder"] == "little" else "little"
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ParameterError, match="endian"):
        load_compiled(target)


def test_fpc_rejects_truncated_tables(tmp_path):
    _, target = fpc_fixture(tmp_path)
    table = target / "out_targets.bin"
    table.write_bytes(table.read_bytes()[:-4])
    with pytest.raises(ParameterError, match="bytes"):
        load_compiled(target)


@pytest.mark.parametrize("case", MALFORMED_FPC_META)
def test_fpc_rejects_malformed_meta(case, tmp_path):
    _, target = fpc_fixture(tmp_path)
    malform_fpc_meta(target, case)
    with pytest.raises(ParameterError, match="meta.json"):
        load_compiled(target)
