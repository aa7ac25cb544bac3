"""The edge-list block scanner against the per-line parser.

Every edge-list reader runs one block scanner: runs of plain ``u v``
lines (ASCII digits and blanks only) parse with one NumPy ``fromstring``
call each, every other line with the per-line parser.  Without NumPy
every line takes the per-line parser, which is the reference here: on a
corpus of edge cases, read as in-memory text, as a plain file and as a
``.gz`` file, with blocks cut down to a few bytes so that runs straddle
them, each reader must give the same nodes (types and order), edges,
tables, directives or exception as with the NumPy handles of the io,
compiled and largescale modules set to None.

``read_edge_list`` builds its graph table-first, from the interned
segments and one CSR build; the per-edge build of
``tests/oracle_cgraph.py`` stays its oracle, with and without NumPy, on
seeded random files and on files whose first fault must win.
"""

from __future__ import annotations

import gzip
import random
import re

import pytest

from oracle_cgraph import PerEdgeCGraph
from repro.datasets import citation, quote, scale, synthetic, toy, twitter
from repro.datasets.registry import DATASET_NAMES, get_dataset
from repro.exceptions import GraphStructureError, ParameterError
from repro.graphs import compiled as graph_compiled
from repro.graphs import io as graph_io
from repro.graphs import largescale as graph_largescale
from repro.graphs.cgraph import CGraph
from repro.graphs.io import (
    EdgeListStream,
    read_edge_list,
    read_edge_list_text,
)
from repro.graphs.largescale import compile_edge_list
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER

#: name -> edge-list text.
CORPUS = {
    "plain": "1 2\n2 3\n3 4\n1 4\n",
    "leading-zeros": "007 8\n8 009\n",
    "negative": "-5 1\n1 2\n",
    "double-dash": "--5 1\n1 2\n",
    "superscript-two": "\xb2 1\n1 2\n",
    "arabic-indic-three": "\u0663 1\n1 2\n",
    "plus-sign": "+5 1\n1 2\n",
    "underscore": "1_0 1\n1 2\n",
    "crlf": "1 2\r\n2 3\r\n3 4\r\n",
    "lone-cr-joins-two-edges": "1 2\r2 3\n3 4\n",
    "lone-cr-splits-one-edge": "1 2\n1\r2\n",
    "tabs-and-padding": "\t1\t 2  \n  3 4\t\n 2\t3\n",
    "blank-and-whitespace-lines": "\n1 2\n\n   \n\t\n2 3\n\n",
    "only-blank-lines": "\n \n\t\n",
    "no-final-newline": "1 2\n2 3",
    "twenty-digit-id": "12345678901234567890 1\n1 2\n",
    "eighteen-digit-ids": "123456789012345678 999999999999999999\n1 2\n",
    "eighteen-digit-leading-zeros": "000000000000000012 3\n3 4\n",
    "tab-separated": "1\t2\n2\t3\n",
    "crlf-blank-lines": "1 2\r\n\r\n \t\r\n2 3\r\n",
    "crlf-no-final-newline": "1 2\r\n2 3",
    "whitespace-last-line": "1 2\n2 3\n \t ",
    "one-token-first-line": "7\n1 2\n",
    "one-token-last-line-no-newline": "1 2\n2 3\n4",
    "only-one-token-lines": "1\n2\n3\n",
    "three-token-line-among-blanks": "1 2\n\n4 5 6\n\n7 8\n",
    "one-and-three-token-lines": "1\n2 3 4\n",
    "int64-max": "9223372036854775807 1\n1 2\n",
    "vertical-tab": "1 2\x0b3 4\n5 6\n",
    "form-feed": "1 2\x0c\n2 3\n",
    "nbsp": "1\xa02\n2 3\n",
    "bom": "\ufeff1 2\n2 3\n",
    "directives-mid-file": "1 2\n# sources: 1\n2 3\n# isolated: 9 x\n3 4\n",
    "directives-trailing": "1 2\n2 3\n# sources: 1 2\n# isolated: 7 x 007\n",
    "comment-mid-file": "1 2\n# just a note: 5 6\n2 3\n",
    "string-ids-interleaved": "a b\n1 2\nb c\n2 3\n3 4\nc 1\n4 a\n",
    "one-token-line": "1 2\n2 3\n3\n4 5\n",
    "three-token-line": "1 2\n2 3 4\n",
    "only-three-token-lines": "1 2 3\n4 5 6\n",
    "duplicate-edge": "1 2\n2 3\n1 2\n",
    "duplicates-out-of-key-order": "1 2\n3 4\n3 4\n1 2\n",
    "self-loop": "1 2\n3 3\n",
    "self-loop-before-malformed": "1 2\n2 2\n3\n",
    "self-loop-before-malformed-string": "1 2\n2 2\nx\n",
    "meta": '# meta: {"seed": 7}\n1 2\n',
    "meta-malformed": "1 2\n# meta: {oops\n2 3\n",
    "empty": "",
    "comments-only": "# a comment\n# another one\n",
}

#: ``_BLOCK_BYTES`` overrides: the default, and blocks so small that
#: nearly every line straddles a read.
BLOCK_SIZES = (None, 3, 8)


def typed(nodes) -> list:
    return [(type(x).__name__, x) for x in nodes]


def tables(graph) -> dict:
    compiled = graph.compiled()
    return {
        "nodes": typed(compiled.nodes),
        "source_ids": list(compiled.source_ids),
        "out_offsets": [int(x) for x in compiled.out_offsets],
        "out_targets": [int(x) for x in compiled.out_targets],
        "in_offsets": [int(x) for x in compiled.in_offsets],
        "in_sources": [int(x) for x in compiled.in_sources],
        "sink_ids": list(compiled.sink_ids),
        "merge_ids": list(compiled.merge_ids),
    }


def graph_summary(graph) -> dict:
    return {
        "nodes": typed(graph.nodes()),
        "edges": [typed(edge) for edge in graph.edges()],
        "predecessors": [
            typed(graph.predecessors(node)) for node in graph.nodes()
        ],
        "sources": sorted(typed(graph.sources), key=repr),
        "tables": tables(graph),
    }


def stream_summary(stream: EdgeListStream) -> dict:
    return {
        "edges": [typed(edge) for edge in stream.edges()],
        "sources": typed(stream.sources),
        "isolated": typed(stream.isolated),
        "meta": stream.meta,
    }


def ingest_counter():
    return REGISTRY.counter(
        "fp_ingest_lines_total",
        "Edge-list lines read, by parser path.",
        labels=("path",),
    )


def outcome(call):
    """``call()``'s summary, or the exception type and message."""
    try:
        return ("ok", call())
    except Exception as exc:  # compared, never swallowed
        return ("raised", type(exc).__name__, str(exc))


def write_inputs(text: str, tmp_path) -> dict:
    data = text.encode("utf-8")
    plain = tmp_path / "graph.txt"
    plain.write_bytes(data)
    packed = tmp_path / "graph.txt.gz"
    packed.write_bytes(gzip.compress(data, mtime=0))
    return {"plain": plain, "gz": packed}


def readings(text: str, paths: dict) -> dict:
    got = {
        "text": outcome(lambda: graph_summary(read_edge_list_text(text)))
    }
    for mode, path in paths.items():
        got["read", mode] = outcome(
            lambda: graph_summary(read_edge_list(path))
        )
        got["stream", mode] = outcome(
            lambda: stream_summary(EdgeListStream(path))
        )
        got["compile", mode] = outcome(
            lambda: graph_summary(compile_edge_list(path))
        )
    return got


def without_numpy(patch) -> None:
    """Take every NumPy path of the readers: the scanner's bulk parse,
    the interning and CSR sorts and the streamed compiler's."""
    for module in (graph_io, graph_compiled, graph_largescale):
        patch.setattr(module, "_np", None)


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_scanner_matches_per_line_parser(case, tmp_path, monkeypatch):
    text = CORPUS[case]
    paths = write_inputs(text, tmp_path)
    with monkeypatch.context() as patch:
        without_numpy(patch)
        reference = readings(text, paths)
    for block in BLOCK_SIZES:
        with monkeypatch.context() as patch:
            if block is not None:
                patch.setattr(graph_io, "_BLOCK_BYTES", block)
            assert readings(text, paths) == reference, block
            without_numpy(patch)
            assert readings(text, paths) == reference, block


def test_corpus_covers_both_parsers():
    """The corpus sends lines down both paths, or the differential test
    above would compare the per-line parser with itself."""
    pytest.importorskip("numpy")
    counter = ingest_counter()
    bulk, per_line = counter.value(path="bulk"), counter.value(path="per_line")
    for text in CORPUS.values():
        outcome(lambda: read_edge_list_text(text))
    assert counter.value(path="bulk") > bulk
    assert counter.value(path="per_line") > per_line


#: Corpus cases of well-formed plain runs -> the edges NumPy parses.
PLAIN_RUNS = {
    "blank-and-whitespace-lines": 2,
    "crlf": 3,
    "crlf-blank-lines": 2,
    "crlf-no-final-newline": 2,
    "eighteen-digit-ids": 2,
    "eighteen-digit-leading-zeros": 2,
    "leading-zeros": 2,
    "no-final-newline": 2,
    "tab-separated": 2,
    "tabs-and-padding": 3,
    "whitespace-last-line": 2,
}


@pytest.mark.parametrize("case", sorted(PLAIN_RUNS))
def test_plain_runs_parse_in_bulk(case):
    """Tabs, CRLF, leading zeros, 18-digit ids, blank lines and a
    missing final newline all stay on the bulk parser, so the
    differential test above compares it with the per-line one."""
    pytest.importorskip("numpy")
    counter = ingest_counter()
    bulk, per_line = counter.value(path="bulk"), counter.value(path="per_line")
    read_edge_list_text(CORPUS[case])
    assert counter.value(path="bulk") - bulk == PLAIN_RUNS[case]
    assert counter.value(path="per_line") == per_line


@pytest.mark.parametrize("numpy_handle", ("numpy", "none"))
def test_self_loop_precedes_a_later_malformed_line(
    numpy_handle, tmp_path, monkeypatch
):
    """``compile_edge_list`` raises the first fault in file order;
    ``read_edge_list`` parses the whole file before building a graph."""
    if numpy_handle == "none":
        monkeypatch.setattr(graph_io, "_np", None)
    for text in ("1 2\n2 2\n3\n", "1 2\n2 2\nx\n"):
        path = tmp_path / "loop.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(GraphStructureError, match="self-loop 2 -> 2"):
            compile_edge_list(path)
        with pytest.raises(ParameterError, match=r"loop\.txt:3: expected"):
            read_edge_list(path)


@pytest.mark.parametrize("numpy_handle", ("numpy", "none"))
def test_meta_directive_per_reader(numpy_handle, tmp_path, monkeypatch):
    """``EdgeListStream`` reads ``# meta:`` and names a malformed one's
    line; ``read_edge_list`` ignores it."""
    if numpy_handle == "none":
        monkeypatch.setattr(graph_io, "_np", None)
    good = tmp_path / "good.txt"
    good.write_text('1 2\n# meta: {"seed": 7}\n2 3\n', encoding="utf-8")
    stream = EdgeListStream(good)
    assert list(stream.edges()) == [(1, 2), (2, 3)]
    assert stream.meta == {"seed": 7}

    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n# meta: {oops\n2 3\n", encoding="utf-8")
    with pytest.raises(ParameterError, match=r"bad\.txt:2: malformed"):
        list(EdgeListStream(bad).edges())
    with pytest.raises(ParameterError, match=r"bad\.txt:2: malformed"):
        compile_edge_list(bad)
    assert list(read_edge_list(bad).edges()) == [(1, 2), (2, 3)]


def test_long_ids_never_reach_loadtxt(tmp_path, monkeypatch):
    """An id of 19 or more digits takes the per-line parser and stays
    exact even on a NumPy release that reads an id past int64 through a
    double: the ``fromstring`` here stands in for one, turning each such
    id into int64's minimum as the C cast does on x86."""
    np = pytest.importorskip("numpy")
    fromstring = np.fromstring

    def lossy_fromstring(string, **kwargs):
        data = re.sub(rb"[0-9]{20,}", b"-9223372036854775808", string)
        return fromstring(data, **kwargs)

    monkeypatch.setattr(graph_io._np, "fromstring", lossy_fromstring)
    text = "12345678901234567890 1\n1 2\n22345678901234567890 2\n"
    path = tmp_path / "long.txt"
    path.write_text(text, encoding="utf-8")
    nodes = [12345678901234567890, 1, 2, 22345678901234567890]
    assert list(read_edge_list_text(text).nodes()) == nodes
    assert list(read_edge_list(path).nodes()) == nodes
    assert list(compile_edge_list(path).nodes()) == nodes
    assert [typed(e) for e in EdgeListStream(path).edges()] == [
        typed(e) for e in ((nodes[0], 1), (1, 2), (nodes[3], 2))
    ]


def test_text_and_file_readers_end_lines_alike(tmp_path):
    """An upload and a file with the same bytes parse the same: only
    ``\\n``, ``\\r\\n`` and ``\\r`` end a line, never the other
    characters ``str.splitlines`` splits at."""
    path = tmp_path / "upload.txt"
    for separator in (
        "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    ):
        text = f"1 2{separator}3 4\n4 5\n"
        path.write_bytes(text.encode("utf-8"))
        from_text = outcome(lambda: graph_summary(read_edge_list_text(text)))
        from_file = outcome(lambda: graph_summary(read_edge_list(path)))
        assert from_text[0] == "raised", (separator, from_text)
        assert from_text == (
            from_file[0],
            from_file[1],
            from_file[2].replace(str(path), "<text>"),
        ), separator


def traced_compile(path):
    counter = ingest_counter()
    before = (counter.value(path="bulk"), counter.value(path="per_line"))
    TRACER.enable()
    try:
        with TRACER.trace(trace_id="t-ingest") as trace:
            graph = compile_edge_list(path)
    finally:
        TRACER.disable()
        TRACER.clear()
    (record,) = trace.roots
    assert record.name == "graphs.ingest"
    counted = (
        counter.value(path="bulk") - before[0],
        counter.value(path="per_line") - before[1],
    )
    return graph, record.attrs, counted


def directive_file(tmp_path):
    edges = [(1, 2), (2, 3), (1, 3), (3, 4), (5, 4)]
    lines = ["# sources: 1 5", "# isolated: 99"]
    lines += [f"{u} {v}" for u, v in edges]
    path = tmp_path / "directives.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, len(edges)


def test_ingest_span_reports_bulk_lines(tmp_path):
    pytest.importorskip("numpy")
    path, m = directive_file(tmp_path)
    graph, attrs, counted = traced_compile(path)
    assert graph.number_of_edges() == m
    assert attrs == {
        "edges": m, "bulk_lines": m, "fallback_lines": 2, "blocks": 1,
    }
    assert counted == (m, 2)


def test_ingest_without_numpy_counts_every_line_per_line(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(graph_io, "_np", None)
    path, m = directive_file(tmp_path)
    graph, attrs, counted = traced_compile(path)
    assert graph.number_of_edges() == m
    assert attrs == {
        "edges": m, "bulk_lines": 0, "fallback_lines": m + 2, "blocks": 1,
    }
    assert counted == (0, m + 2)


def test_bulk_lines_count_edges_not_blank_lines(tmp_path):
    """``bulk_lines`` counts the edges NumPy read, so it equals ``m`` for
    a file whose edges all came in bulk, blank lines or not."""
    pytest.importorskip("numpy")
    path = tmp_path / "blanks.txt"
    path.write_text("\n1 2\n\n2 3\n   \n3 4\n\n\t\n", encoding="utf-8")
    graph, attrs, counted = traced_compile(path)
    assert graph.number_of_edges() == 3
    assert attrs == {
        "edges": 3, "bulk_lines": 3, "fallback_lines": 0, "blocks": 1,
    }
    assert counted == (3, 0)


# ----------------------------------------------------------------------
# The table-first reader against the per-edge build
# ----------------------------------------------------------------------


def table_view(value):
    """A compiled table with its container and element types."""
    if isinstance(value, (list, tuple)):
        return type(value).__name__, typed(value)
    return value


def full_summary(graph) -> dict:
    """Everything a reader builds: nodes with their types and order,
    both adjacencies in order, sources, and every compiled table."""
    nodes = graph.nodes()
    compiled = graph.compiled()
    names = [
        "n", "m", "nodes", "index", "succ_ids", "pred_ids",
        "out_offsets", "out_targets", "in_offsets", "in_sources",
        "out_degree", "in_degree", "source_ids", "sink_ids", "merge_ids",
        "is_dag", "num_levels",
    ]
    if compiled.is_dag:
        names += ["topo_order", "topo_index", "depth", "level_offsets"]
    return {
        "nodes": typed(nodes),
        "successors": [typed(graph.successors(v)) for v in nodes],
        "predecessors": [typed(graph.predecessors(v)) for v in nodes],
        "sources": sorted(typed(graph.sources), key=repr),
        "sources_explicit": graph.sources_explicit,
        "edges": graph.number_of_edges(),
        "is_dag": graph.is_dag(),
        "compiled": {
            name: table_view(getattr(compiled, name)) for name in names
        },
    }


def per_edge_graph(path, sources):
    """The oracle: the per-edge build fed the file's edges."""
    stream = EdgeListStream(path)
    edges = list(stream.edges())
    if sources is None and stream.sources:
        sources = stream.sources
    return PerEdgeCGraph(edges, nodes=stream.isolated, sources=sources)


def random_edge_file(seed: int) -> tuple[str, list | None]:
    """A seeded edge list and an explicit source list (or None).

    Most edges join small ints, so runs of plain lines reach the bulk
    parser; the rest carry string ids, negative ids or ids of 19 or
    more digits, which the per-line parser reads, some of them beside
    bulk ids.  ``# isolated:`` and ``# sources:`` directives, comments
    and blank lines land mid-file, and the isolated nodes include ones
    that also have edges.  Even seeds give DAGs, odd seeds may not.
    """
    rng = random.Random(seed)
    ints = list(range(rng.randint(4, 40)))
    specials = [f"s{i}" for i in range(rng.randint(1, 5))]
    specials += [-rng.randint(1, 9) for _ in range(rng.randint(0, 2))]
    specials += [
        10**19 + rng.randrange(10**6) for _ in range(rng.randint(0, 2))
    ]
    pool = list(dict.fromkeys(ints + specials))
    rank = {node: i for i, node in enumerate(rng.sample(pool, len(pool)))}

    def pick():
        return rng.choice(ints if rng.random() < 0.8 else specials)

    edges: set = set()
    for _ in range(rng.randint(len(pool), 4 * len(pool))):
        u, v = pick(), pick()
        if u == v:
            continue
        if seed % 2 == 0 and rank[u] > rank[v]:
            u, v = v, u
        edges.add((u, v))
    ordered = sorted(edges, key=repr)
    rng.shuffle(ordered)
    lines = [f"{u} {v}" for u, v in ordered]
    used = sorted({x for edge in ordered for x in edge}, key=repr)
    isolated = rng.sample(used, min(3, len(used))) + ["lonely", 777]
    extras = [
        "# isolated: " + " ".join(map(str, isolated)),
        "# a comment: 5 6",
        "",
    ]
    sources = None
    if seed % 3 == 1:
        named = rng.sample(used + ["lonely"], min(2, len(used)))
        extras.append("# sources: " + " ".join(map(str, named)))
    elif seed % 3 == 2:
        sources = rng.sample(used, min(2, len(used)))
    for extra in extras:
        lines.insert(rng.randint(0, len(lines)), extra)
    return "\n".join(lines) + "\n", sources


def compare_with_per_edge_graph(text, sources, tmp_path):
    """Both readers' outcome equals the per-edge graph's; returns it."""
    path = tmp_path / "graph.txt"
    path.write_bytes(text.encode("utf-8"))
    reference = outcome(lambda: full_summary(per_edge_graph(path, sources)))
    from_file = outcome(
        lambda: full_summary(read_edge_list(path, sources=sources))
    )
    from_text = outcome(
        lambda: full_summary(read_edge_list_text(text, sources=sources))
    )
    assert from_file == reference
    if reference[0] == "raised":
        reference = (*reference[:2], reference[2].replace(str(path), "<text>"))
    assert from_text == reference
    return reference


@pytest.mark.parametrize("numpy_handle", ("numpy", "none"))
@pytest.mark.parametrize("block", (None, 64))
@pytest.mark.parametrize("seed", range(16))
def test_table_first_reader_matches_per_edge_graph(
    seed, block, numpy_handle, tmp_path, monkeypatch
):
    if numpy_handle == "none":
        without_numpy(monkeypatch)
    if block is not None:
        monkeypatch.setattr(graph_io, "_BLOCK_BYTES", block)
    text, sources = random_edge_file(seed)
    reference = compare_with_per_edge_graph(text, sources, tmp_path)
    assert reference[0] == "ok", reference


#: name -> (text, explicit sources): files whose first fault must win.
FAULTS = {
    "duplicate-before-self-loop": ("1 2\n2 3\n1 2\n3 3\n", None),
    "self-loop-before-duplicate": ("1 2\n3 3\n1 2\n", None),
    "malformed-after-self-loop": ("1 2\n2 2\n3\n", None),
    "two-missing-directive-sources": ("1 2\n2 3\n# sources: 1 98 99\n", None),
    "two-missing-explicit-sources": ("a 1\n1 2\n", ["x", "y"]),
    "per-line-repeat-of-bulk-edge": ("1 2\n2 3\nx 1\n1 2\nx 1\n", None),
    "bulk-duplicate-before-per-line-loop": ("x 1\n1 2\n1 2\nx x\n", None),
    "per-line-loop-before-bulk-duplicate": ("1 2\nx x\n2 3\n1 2\n", None),
}


@pytest.mark.parametrize("numpy_handle", ("numpy", "none"))
@pytest.mark.parametrize("case", sorted(FAULTS))
def test_table_first_reader_raises_first_fault(
    case, numpy_handle, tmp_path, monkeypatch
):
    if numpy_handle == "none":
        without_numpy(monkeypatch)
    text, sources = FAULTS[case]
    reference = compare_with_per_edge_graph(text, sources, tmp_path)
    assert reference[0] == "raised", reference


def test_random_files_mix_both_parsers():
    """Every random file sends lines down both parsers, so the reader
    interns NumPy runs and per-line edges together."""
    pytest.importorskip("numpy")
    counter = ingest_counter()
    for seed in range(16):
        bulk = counter.value(path="bulk")
        per_line = counter.value(path="per_line")
        read_edge_list_text(random_edge_file(seed)[0])
        assert counter.value(path="bulk") > bulk, seed
        assert counter.value(path="per_line") > per_line, seed


# ----------------------------------------------------------------------
# CGraph(edges) against the per-edge build
# ----------------------------------------------------------------------

#: Scales that keep each dataset test-sized (toy figures take none).
DATASET_SCALES = {
    "synthetic-sparse": 0.5,
    "synthetic-dense": 0.5,
    "quote": 0.5,
    "twitter": 0.05,
    "citation": 0.2,
    "scale-dag": 0.01,
}


@pytest.mark.parametrize("numpy_handle", ("numpy", "none"))
@pytest.mark.parametrize("name", DATASET_NAMES)
def test_dataset_graphs_match_per_edge_build(name, numpy_handle, monkeypatch):
    """Each dataset generator's graph, built through ``CGraph``, equals
    the per-edge build of the same edges, nodes and sources: nodes,
    both adjacencies in order, sources and every compiled table with
    its container and element types."""
    if numpy_handle == "none":
        without_numpy(monkeypatch)
    builds = []

    def recording(edges=(), *, nodes=(), sources=None):
        edges, nodes = list(edges), list(nodes)
        sources = None if sources is None else list(sources)
        graph = CGraph(edges, nodes=nodes, sources=sources)
        builds.append((graph, edges, nodes, sources))
        return graph

    for module in (citation, quote, scale, synthetic, toy, twitter):
        monkeypatch.setattr(module, "CGraph", recording)
    kwargs = {}
    if name in DATASET_SCALES:
        kwargs["scale"] = DATASET_SCALES[name]
    graph = get_dataset(name, **kwargs)
    built, edges, nodes, sources = builds[-1]
    assert graph is built
    reference = PerEdgeCGraph(edges, nodes=nodes, sources=sources)
    assert full_summary(graph) == full_summary(reference)


#: name -> (edges, isolated nodes, explicit sources): code-built graphs
#: with tuple nodes, or with faults of which the first must win.
CODE_BUILDS = {
    "duplicate-before-self-loop": ([(1, 2), (2, 3), (1, 2), (3, 3)], (), None),
    "self-loop-before-duplicate": ([(1, 2), (3, 3), (1, 2)], (), None),
    "duplicate-after-isolated": ([("a", "b"), ("a", "b")], ("z",), None),
    "missing-source": ([("a", "b")], ("z",), ["z", "nope"]),
    "loop-before-missing-source": ([("a", "a")], (), ["nope"]),
    "tuple-nodes": ([((0, 0), (1, 1)), ((1, 1), (0, 0))], (), [(0, 0)]),
}


@pytest.mark.parametrize("numpy_handle", ("numpy", "none"))
@pytest.mark.parametrize("case", sorted(CODE_BUILDS))
def test_cgraph_matches_per_edge_build_in_code(
    case, numpy_handle, monkeypatch
):
    if numpy_handle == "none":
        without_numpy(monkeypatch)
    edges, isolated, sources = CODE_BUILDS[case]
    got = outcome(
        lambda: full_summary(CGraph(edges, nodes=isolated, sources=sources))
    )
    want = outcome(
        lambda: full_summary(
            PerEdgeCGraph(edges, nodes=isolated, sources=sources)
        )
    )
    assert got == want
