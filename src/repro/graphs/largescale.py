"""The million-node scale tier: streamed ingestion and on-disk graphs.

The :class:`~repro.graphs.cgraph.CGraph` pipeline materializes a python
edge list, per-node tuple adjacency and a dict index — hundreds of bytes
per edge, which caps it around matrix scale.  This module grows the
graph layer past that in three pieces:

* :func:`compile_edge_stream` — compile straight from an edge
  *iterator* into :meth:`CompiledGraph.from_tables
  <repro.graphs.compiled.CompiledGraph.from_tables>`: node ids are
  interned to ``int32`` on the fly (or taken as-is via ``num_nodes``,
  the identity fast path the generators use), edges accumulate in two
  flat ``array('i')`` buffers, and the CSR is built by NumPy stable
  radix sorts (a pure-python counting build mirrors it bit-for-bit
  without NumPy).  No python edge list ever exists.
* :func:`scale_dag` / :func:`scale_dag_edges` — a seeded SNAP-style
  layered-DAG generator whose edge stream is a pure function of
  ``(scale, seed)``: ``scale=1.0`` is ``n = 10^5``, ``scale=10.0`` is
  ``n = 10^6``.  Edges always point from lower to higher node id, so
  the stream is acyclic by construction and never needs buffering.
* :func:`save_compiled` / :func:`load_compiled` — a ``.fpc`` on-disk
  layout (one directory: ``meta.json`` + raw little-endian arrays) that
  persists the CSR, the topo levelization and the cached reach counts,
  and loads back as ``np.memmap`` views so a million-node graph opens
  in milliseconds and its tables live in the page cache, not the heap.
  :meth:`CompiledGraph.nbytes_split` reports those tables under
  ``"mapped"``.

:class:`StreamedGraph` is the thin graph-protocol face over a
table-built :class:`~repro.graphs.compiled.CompiledGraph` — enough of
the :class:`CGraph` surface (``sources``, ``number_of_nodes``,
``compiled()``, adjacency accessors) for the placement algorithms and
backends to consume it unchanged.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections.abc import Iterable, Iterator
from math import sqrt
from pathlib import Path
from typing import Hashable

from repro.exceptions import MissingNodeError, ParameterError
from repro.graphs.compiled import (
    CompiledGraph,
    _add_nodes,
    _csr_from_buffers,
    _edge_fault,
    _intern_edges,
    _intern_segments,
)
from repro.graphs.io import EdgeListStream
from repro.sketches.hashing import hash_stream

try:  # CSR sort fast path; every entry point works without it.
    import numpy as _np
except Exception:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

Node = Hashable

#: ``.fpc`` directory format identifier (bump on layout changes).
FPC_FORMAT = "fpc-1"

#: Maximum interned node count of the int32 tier.
_INT32_NODES = 2**31 - 1


class StreamedGraph:
    """A graph that exists only as compiled tables.

    Produced by :func:`compile_edge_stream`, :func:`scale_dag` and
    :func:`load_compiled`; holds no edge list, no adjacency dicts and
    (for identity-interned graphs) not even a node list.  Exposes the
    slice of the :class:`~repro.graphs.cgraph.CGraph` protocol the
    placement stack actually touches; everything routes through the
    compiled tables.  Like ``CGraph``, instances are immutable.
    """

    __slots__ = ("_compiled", "_sources_cache", "__weakref__")

    def __init__(self) -> None:
        self._compiled: CompiledGraph | None = None
        self._sources_cache: frozenset | None = None

    def compiled(self) -> CompiledGraph:
        """The backing :class:`CompiledGraph` (no compile step: it *is*
        the graph)."""
        return self._compiled

    @property
    def sources(self) -> frozenset:
        """The item-generating nodes, as user nodes."""
        if self._sources_cache is None:
            compiled = self._compiled
            nodes = compiled.nodes
            self._sources_cache = frozenset(
                nodes[s] for s in compiled.source_ids
            )
        return self._sources_cache

    @property
    def sources_explicit(self) -> bool:
        """Table-built graphs always carry a pinned source set."""
        return True

    def number_of_nodes(self) -> int:
        return self._compiled.n

    def number_of_edges(self) -> int:
        return self._compiled.m

    def nodes(self):
        """All user nodes in interned-id order (a ``range`` when the
        graph is identity-interned)."""
        return self._compiled.nodes

    def edges(self) -> Iterator[tuple[Node, Node]]:
        """Yield edges in CSR order without materializing them."""
        compiled = self._compiled
        nodes = compiled.nodes
        offsets = compiled.out_offsets
        targets = compiled.out_targets
        for u in range(compiled.n):
            u_node = nodes[u]
            for e in range(offsets[u], offsets[u + 1]):
                yield (u_node, nodes[int(targets[e])])

    def successors(self, node: Node) -> tuple:
        compiled = self._compiled
        i = compiled.to_id(node)
        offsets, targets = compiled.out_offsets, compiled.out_targets
        nodes = compiled.nodes
        return tuple(
            nodes[int(targets[e])]
            for e in range(offsets[i], offsets[i + 1])
        )

    def predecessors(self, node: Node) -> tuple:
        compiled = self._compiled
        i = compiled.to_id(node)
        offsets, sources = compiled.in_offsets, compiled.in_sources
        nodes = compiled.nodes
        return tuple(
            nodes[int(sources[e])]
            for e in range(offsets[i], offsets[i + 1])
        )

    def out_degree(self, node: Node) -> int:
        compiled = self._compiled
        return int(compiled.out_degree[compiled.to_id(node)])

    def in_degree(self, node: Node) -> int:
        compiled = self._compiled
        return int(compiled.in_degree[compiled.to_id(node)])

    def merge_nodes(self) -> tuple:
        """Nodes with in-degree > 1 and at least one outgoing edge."""
        compiled = self._compiled
        nodes = compiled.nodes
        return tuple(nodes[i] for i in compiled.merge_ids)

    def is_dag(self) -> bool:
        return self._compiled.is_dag

    def __contains__(self, node: Node) -> bool:
        try:
            self._compiled.to_id(node)
        except MissingNodeError:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c = self._compiled
        return (
            f"StreamedGraph(n={c.n}, m={c.m}, "
            f"sources={len(c.source_ids)}, dag={c.is_dag})"
        )


def _wrap_tables(
    *,
    n: int,
    out_offsets,
    out_targets,
    in_offsets,
    in_sources,
    source_ids,
    nodes=None,
    levels=None,
    mapped=None,
) -> StreamedGraph:
    """Build the StreamedGraph ↔ CompiledGraph pair (weakly linked)."""
    graph = StreamedGraph()
    compiled = CompiledGraph.from_tables(
        n=n,
        out_offsets=out_offsets,
        out_targets=out_targets,
        in_offsets=in_offsets,
        in_sources=in_sources,
        source_ids=source_ids,
        nodes=nodes,
        graph=graph,
        levels=levels,
        mapped=mapped,
    )
    graph._compiled = compiled
    return graph


# ----------------------------------------------------------------------
# Streamed compilation
# ----------------------------------------------------------------------


def compile_edge_stream(
    edges: Iterable[tuple[Node, Node]],
    *,
    sources: Iterable[Node] | None = None,
    isolated: Iterable[Node] = (),
    num_nodes: int | None = None,
) -> StreamedGraph:
    """Compile an edge iterator without materializing an edge list.

    Edges stream once into two flat ``int32`` buffers; node ids are
    interned in first-seen ``(u, v)`` order — exactly
    :class:`~repro.graphs.cgraph.CGraph`'s node order, so compiling the
    same edges here or through ``CGraph(...).compiled()`` yields
    identical tables.  ``num_nodes`` switches to the identity fast
    path: node ids must already be ints in ``[0, num_nodes)`` and are
    used as-is (``nodes`` becomes a memory-free ``range``) — the
    generators' and ``.fpc`` files' case.

    ``sources`` pins the source set (defaulting to the in-degree-zero
    nodes, like ``CGraph``); ``isolated`` adds edge-free nodes.
    Self-loops and duplicate edges raise
    :class:`~repro.exceptions.GraphStructureError`, unknown sources
    :class:`~repro.exceptions.MissingNodeError` — the same contracts as
    the materialized path.
    """
    if num_nodes is None:
        return _interned_graph(_intern_edges(edges), isolated, sources)
    n = int(num_nodes)
    if n < 0 or n > _INT32_NODES:
        raise ParameterError(
            f"num_nodes={num_nodes!r} outside the int32 tier [0, 2^31)"
        )
    us = array("i")
    vs = array("i")
    for u, v in edges:
        if not (isinstance(u, int) and 0 <= u < n):
            raise MissingNodeError(u)
        if not (isinstance(v, int) and 0 <= v < n):
            raise MissingNodeError(v)
        if u == v:
            raise _edge_fault(u, v)
        us.append(u)
        vs.append(v)

    def to_id(s: Node) -> int | None:
        return s if isinstance(s, int) and 0 <= s < n else None

    return _graph_from_buffers(n, us, vs, None, sources, to_id)


def _interned_graph(
    interned: tuple,
    isolated: Iterable[Node],
    sources: Iterable[Node] | None,
) -> StreamedGraph:
    """The post-loop half of an interned compile: append the edge-free
    ``isolated`` nodes, then build the tables and resolve ``sources``."""
    us, vs, index, node_list = interned
    _add_nodes(index, node_list, isolated)
    n = len(node_list)
    if n > _INT32_NODES:  # pragma: no cover - 2^31 nodes
        raise ParameterError("graph exceeds the int32 interning tier")
    return _graph_from_buffers(n, us, vs, node_list, sources, index.get)


def _graph_from_buffers(
    n: int,
    us: array,
    vs: array,
    nodes: list[Node] | None,
    sources: Iterable[Node] | None,
    to_id,
) -> StreamedGraph:
    """CSR build, source resolution and wrapping for interned buffers.

    ``nodes`` is the interned node list, None for identity ids.
    ``to_id`` maps a user source to its id, or None when the graph has
    no such node; the first such source in the given order raises.
    ``sources=None`` takes the in-degree-zero nodes.
    """
    node_list = range(n) if nodes is None else nodes
    out_offsets, out_targets, in_offsets, in_sources = _csr_from_buffers(
        n, us, vs, node_list
    )
    source_ids = None
    if sources is not None:
        sources = list(sources)
        ids = list(map(to_id, sources))
        if None in ids:
            raise MissingNodeError(sources[ids.index(None)])
        source_ids = sorted(set(ids))
    return _wrap_tables(
        n=n,
        out_offsets=out_offsets,
        out_targets=out_targets,
        in_offsets=in_offsets,
        in_sources=in_sources,
        source_ids=source_ids,
        nodes=nodes,
    )


def _loops_raised(segments: Iterator) -> Iterator:
    """The scanner's segments as they arrive, raising at the first
    self-loop: the streamed compiler's errors come in file order, so a
    self-loop raises before a malformed line after it is scanned."""
    for segment in segments:
        if type(segment) is list:
            for u, v in segment:
                if u == v:
                    raise _edge_fault(u, v)
        else:
            loops = (segment[:, 0] == segment[:, 1]).nonzero()[0]
            if len(loops):
                u = int(segment[loops[0], 0])
                raise _edge_fault(u, u)
        yield segment


def compile_edge_list(
    path: str | Path,
    *,
    sources: Iterable[Node] | None = None,
) -> StreamedGraph:
    """Stream an edge-list file (text or ``.gz``) into compiled tables.

    The file runs through the io module's block scanner
    (:class:`~repro.graphs.io.EdgeListStream`): runs of plain ``u v``
    lines arrive as int64 arrays and intern in bulk (one radix
    unique-by-sort for all of them); only per-line edges (string ids,
    ``-5``, ...) intern edge by edge, one block's segment at a time as
    it arrives, and the two merge in first-seen order, so the tables
    match ``read_edge_list(path).compiled()``.
    The scanner honors every header directive: ``# sources:`` pins the
    source set (unless ``sources`` overrides it) and ``# isolated:``
    restores edge-free nodes — without the intermediate
    :class:`CGraph`.  Errors come in file order: a self-loop raises
    before a malformed line that follows it.
    """
    from repro.obs.trace import span

    stream = EdgeListStream(path)
    with span("graphs.ingest") as record:
        interned = _intern_segments(_loops_raised(stream.segments()))
        # Directives may trail the edges: they are complete only once
        # the stream is exhausted.
        if sources is None and stream.sources:
            sources = stream.sources
        graph = _interned_graph(interned, stream.isolated, sources)
        stream.report(record, len(interned[0]))
    return graph


# ----------------------------------------------------------------------
# The scale-dag generator
# ----------------------------------------------------------------------


def scale_dag_size(scale: float) -> int:
    """Node count of the scale-dag at ``scale`` (``1.0`` → ``10^5``)."""
    if scale <= 0:
        raise ParameterError(f"scale must be positive, got {scale!r}")
    return max(10, int(round(100_000 * scale)))


#: Second splitmix stream for parent draws (decorrelated from routing).
_PARENT_STREAM = 0x632BE59BD9B4E019


def scale_dag_edges(
    scale: float = 1.0,
    seed: int = 7,
) -> Iterator[tuple[int, int]]:
    """The scale-dag's edge stream: seeded, layered, id-ascending.

    Nodes ``0..n-1`` partition into ``Θ(√scale)`` contiguous levels.
    Level 0 is parentless; in later levels ~30% of nodes are
    *spontaneous* (new roots — keeping the source count a constant
    fraction of ``n``, the regime the paper's trace datasets show) and
    the rest draw 1–5 distinct parents from a nearby earlier level.
    Every edge satisfies ``u < v``, so the stream is acyclic by
    construction and compiles without buffering.  The stream is a pure
    function of ``(scale, seed)`` — byte-reproducible across runs,
    platforms and NumPy availability.
    """
    n = scale_dag_size(scale)
    levels = max(8, int(round(40.0 * sqrt(scale))))
    per = max(1, n // levels)
    parent_seed = seed ^ _PARENT_STREAM
    for v in range(per, n):
        level = min(v // per, levels - 1)
        h = hash_stream(seed, v)
        if h % 1000 < 300:
            continue  # spontaneous: a fresh root
        hp = h >> 10
        degree = 1 + hp % 5
        back = (hp >> 3) % 4
        j = level - 1 - back
        if j < 0:
            j = 0
        lo = j * per
        width = (j + 1) * per - lo  # level j is per wide for j < levels-1
        # Parents come from a narrow window of the parent level rather
        # than the whole of it: nearby nodes share windows, so parent
        # sets overlap and paths re-converge — the information
        # multiplicity the filter-placement objective actually measures.
        window = width if width < 48 else 48
        base = lo + (hp >> 6) % (width - window + 1)
        picked: list[int] = []
        for t in range(degree):
            u = base + hash_stream(parent_seed, (v << 3) | t) % window
            if u in picked:
                continue  # duplicate draw; degree shrinks by one
            picked.append(u)
            yield (u, v)


def scale_dag(scale: float = 1.0, seed: int = 7) -> StreamedGraph:
    """Compile the scale-dag at ``scale`` via the streamed path.

    ``scale=1.0`` is the 10^5-node tier, ``scale=10.0`` the 10^6 one;
    memory stays at the compiled-table footprint (a few int32 words per
    edge) regardless of scale.  Sources default to the in-degree-zero
    nodes: all of level 0 plus every spontaneous node.
    """
    return compile_edge_stream(
        scale_dag_edges(scale, seed), num_nodes=scale_dag_size(scale)
    )


# ----------------------------------------------------------------------
# The .fpc on-disk layout
# ----------------------------------------------------------------------

#: Array-name → (dtype tag, element size) of the fpc layout.
_DTYPE_CODES = {"int32": ("i", 4), "int64": ("q", 8)}

#: The tables every ``.fpc`` holds, and the levelization, which a DAG's
#: holds whole or not at all.
_FPC_REQUIRED = (
    "out_offsets", "out_targets", "in_offsets", "in_sources", "source_ids",
)
_FPC_LEVELS = ("topo_order", "topo_index", "depth", "level_offsets")
_FPC_TABLES = frozenset(_FPC_REQUIRED + _FPC_LEVELS + ("reach_counts",))


def _write_array(path: Path, values, typecode: str) -> int:
    """Persist one table as raw native-endian words; returns its length."""
    if _np is not None and type(values).__module__.startswith("numpy"):
        dtype = {"i": _np.int32, "q": _np.int64}[typecode]
        arr = _np.ascontiguousarray(values, dtype=dtype)
        with open(path, "wb") as handle:
            handle.write(arr.tobytes())
        return int(arr.shape[0])
    if not isinstance(values, (list, tuple)):
        values = (int(x) for x in values)
    arr = array(typecode, values)
    with open(path, "wb") as handle:
        handle.write(arr.tobytes())
    return len(arr)


def save_compiled(
    graph,
    path: str | Path,
    *,
    include_reach: bool = True,
) -> Path:
    """Persist a compiled graph as a ``.fpc`` directory.

    ``graph`` may be a :class:`StreamedGraph`, a
    :class:`~repro.graphs.cgraph.CGraph` or a raw
    :class:`~repro.graphs.compiled.CompiledGraph`.  The directory holds
    ``meta.json`` plus one raw little-endian binary file per table:
    both CSR directions, the source ids, the full topo levelization,
    and — with ``include_reach`` (default) — the cached per-node reach
    counts when the graph has them, so a reloaded graph skips that
    sweep too.  Index arrays are ``int32`` whenever ``n < 2^31``.

    Node identity: identity-interned graphs (``nodes == range(n)``)
    need no node table; int/str node lists persist as ``nodes.json``;
    anything else (tuple-noded derived graphs) is rejected — those
    belong in the JSON graph format.
    """
    compiled = graph if isinstance(graph, CompiledGraph) else graph.compiled()
    target = Path(path)
    target.mkdir(parents=True, exist_ok=True)
    n = compiled.n
    index_code = "i" if n <= _INT32_NODES else "q"
    index_dtype = "int32" if index_code == "i" else "int64"

    nodes_payload = None
    nodes = compiled.nodes
    if not (isinstance(nodes, range) and nodes == range(n)):
        node_list = list(nodes)
        if node_list == list(range(n)):
            nodes_payload = None
        else:
            for node in node_list:
                if not isinstance(node, (int, str)):
                    raise ParameterError(
                        ".fpc supports int/str node ids, got "
                        f"{node!r}; use the JSON graph format"
                    )
            nodes_payload = node_list

    arrays: dict[str, dict] = {}

    def persist(name: str, values, typecode: str) -> None:
        length = _write_array(target / f"{name}.bin", values, typecode)
        arrays[name] = {
            "dtype": "int32" if typecode == "i" else "int64",
            "len": length,
        }

    persist("out_offsets", compiled.out_offsets, "q")
    persist("out_targets", compiled.out_targets, index_code)
    persist("in_offsets", compiled.in_offsets, "q")
    persist("in_sources", compiled.in_sources, index_code)
    persist("source_ids", compiled.source_ids, index_code)
    if compiled.is_dag:
        persist("topo_order", compiled.topo_order, index_code)
        persist("topo_index", compiled.topo_index, index_code)
        persist("depth", compiled.depth, index_code)
        persist("level_offsets", compiled.level_offsets, "q")
    if include_reach and compiled._reach_counts is not None:
        persist("reach_counts", compiled._reach_counts, "q")

    meta = {
        "format": FPC_FORMAT,
        "byteorder": sys.byteorder,
        "n": n,
        "m": compiled.m,
        "is_dag": compiled.is_dag,
        "num_levels": compiled.num_levels,
        "index_dtype": index_dtype,
        "arrays": arrays,
    }
    with open(target / "meta.json", "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=1, sort_keys=True)
    if nodes_payload is not None:
        with open(target / "nodes.json", "w", encoding="utf-8") as handle:
            json.dump(nodes_payload, handle)
    return target


def load_compiled(path: str | Path) -> StreamedGraph:
    """Open a ``.fpc`` directory as a memory-mapped compiled graph.

    With NumPy, every table comes back as a read-only ``np.memmap`` —
    the open is O(1) in the graph size, pages fault in on demand, and
    :meth:`~repro.graphs.compiled.CompiledGraph.nbytes_split` charges
    the tables to the ``"mapped"`` pool.  Without NumPy the arrays load
    resident (``array.array``) — correct, just not lazy.  The load runs
    in a ``graphs.ingest`` span with ``format="fpc"``, ``n``, ``edges``
    and ``mapped_bytes``.
    """
    from repro.obs.trace import span

    with span("graphs.ingest", format="fpc") as record:
        graph = _load_fpc(Path(path))
        compiled = graph.compiled()
        record.set("n", compiled.n)
        record.set("edges", compiled.m)
        record.set("mapped_bytes", compiled.mapped_nbytes())
    return graph


def _fpc_meta(source: Path) -> dict:
    """The ``meta.json`` of a ``.fpc`` directory, checked: a file that
    does not describe the layout raises :class:`ParameterError` naming
    it."""
    meta_path = source / "meta.json"
    try:
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
    except FileNotFoundError:
        raise ParameterError(f"{source}: not a .fpc directory") from None
    except ValueError as exc:
        raise ParameterError(f"{meta_path}: not JSON ({exc})") from None
    if not isinstance(meta, dict):
        raise ParameterError(f"{meta_path}: not a JSON object")
    if meta.get("format") != FPC_FORMAT:
        raise ParameterError(
            f"{source}: unsupported format {meta.get('format')!r} "
            f"(expected {FPC_FORMAT!r})"
        )
    if meta.get("byteorder") != sys.byteorder:
        raise ParameterError(
            f"{source}: written on a {meta.get('byteorder')}-endian "
            f"machine, this one is {sys.byteorder}-endian"
        )
    for key in ("n", "arrays", "is_dag"):
        if key not in meta:
            raise ParameterError(f"{meta_path}: no {key!r} key")
    if not _is_count(meta["n"]):
        raise ParameterError(f"{meta_path}: n {meta['n']!r} is not a count")
    arrays = meta["arrays"]
    if not isinstance(arrays, dict):
        raise ParameterError(f"{meta_path}: 'arrays' is not an object")
    for name, spec in arrays.items():
        if name not in _FPC_TABLES:
            raise ParameterError(f"{meta_path}: unknown table {name!r}")
        if not isinstance(spec, dict):
            raise ParameterError(f"{meta_path}: table {name!r} is not an object")
        # Compared, not hashed: a JSON list is no dict key.
        if spec.get("dtype") not in tuple(_DTYPE_CODES):
            raise ParameterError(
                f"{meta_path}: table {name!r} has dtype {spec.get('dtype')!r}"
            )
        if not _is_count(spec.get("len")):
            raise ParameterError(
                f"{meta_path}: table {name!r} has len {spec.get('len')!r}, "
                "not a count"
            )
    required = _FPC_REQUIRED
    if meta["is_dag"] and "topo_order" in arrays:
        required += _FPC_LEVELS
    for name in required:
        if name not in arrays:
            raise ParameterError(f"{meta_path}: no {name!r} table")
    return meta


def _is_count(value) -> bool:
    """Whether a ``meta.json`` value is a non-negative int."""
    return type(value) is int and value >= 0


def _load_fpc(source: Path) -> StreamedGraph:
    """The body of :func:`load_compiled`."""
    meta = _fpc_meta(source)
    n = meta["n"]
    loaded: dict[str, object] = {}
    mapped: dict[str, int] = {}
    for name, spec in meta["arrays"].items():
        file_path = source / f"{name}.bin"
        dtype = spec["dtype"]
        typecode, width = _DTYPE_CODES[dtype]
        expected = spec["len"] * width
        actual = file_path.stat().st_size
        if actual != expected:
            raise ParameterError(
                f"{file_path}: expected {expected} bytes "
                f"({spec['len']} × {dtype}), found {actual}"
            )
        if _np is not None:
            np_dtype = _np.int32 if dtype == "int32" else _np.int64
            if expected:
                table = _np.memmap(
                    file_path, dtype=np_dtype, mode="r"
                )
            else:
                table = _np.empty(0, dtype=np_dtype)
            mapped[name] = expected
        else:
            table = array(typecode)
            if expected:
                with open(file_path, "rb") as handle:
                    table.frombytes(handle.read())
        loaded[name] = table

    nodes = None
    nodes_path = source / "nodes.json"
    if nodes_path.exists():
        with open(nodes_path, "r", encoding="utf-8") as handle:
            nodes = json.load(handle)

    levels = None
    if meta["is_dag"] and "topo_order" in loaded:
        levels = (
            loaded["topo_order"],
            loaded["topo_index"],
            loaded["depth"],
            [int(x) for x in loaded["level_offsets"]],
        )
        # Materialized on load (small); don't double-charge as mapped.
        mapped.pop("level_offsets", None)
    mapped.pop("source_ids", None)  # from_tables copies it to a tuple

    graph = _wrap_tables(
        n=n,
        out_offsets=loaded["out_offsets"],
        out_targets=loaded["out_targets"],
        in_offsets=loaded["in_offsets"],
        in_sources=loaded["in_sources"],
        source_ids=[int(s) for s in loaded["source_ids"]],
        nodes=nodes,
        levels=levels,
        mapped=mapped or None,
    )
    compiled = graph.compiled()
    if "reach_counts" in loaded:
        counts = loaded["reach_counts"]
        # Materialize: the exact sweeps index it per node, and an int
        # list is both faster and honestly charged as resident.
        compiled._reach_counts = [int(c) for c in counts]
        compiled._mapped.pop("reach_counts", None)
    return graph
