"""Reading and writing c-graphs.

Two formats are supported:

* **Edge lists** — the lingua franca of the public datasets the paper uses
  (Memetracker, the Kwak et al. Twitter crawl, and the APS citation pairs
  all ship as whitespace-separated edge lists).  One ``u v`` pair per line;
  ``#`` starts a comment.  Files written by :func:`write_edge_list`
  additionally carry structured header directives (``# sources:``,
  ``# isolated:``, ``# meta:``) so a write → read round-trip is lossless:
  isolated nodes and an explicit source set survive, and the generating
  spec (dataset, seed, scale) stays attached to the file.  Directives are
  ordinary comments, so every third-party edge-list reader still accepts
  the files, and files without directives load exactly as before.
* **JSON** — lossless round-trip of nodes, edges and the source set, used
  for freezing generated datasets so experiments are replayable.

Both edge-list entry points transparently read and write gzip when the
path ends in ``.gz`` — the compression every SNAP-style dump actually
ships with.  For graphs too large to hold as a python edge list, the
streaming pair :class:`EdgeListStream` (chunked line-at-a-time reader
that still honors every header directive) and
:func:`write_edge_list_stream` (header + edge-iterator writer) move
edges without materializing them; the scale tier's
:func:`repro.graphs.largescale.compile_edge_stream` compiles straight
off an :class:`EdgeListStream`.  A file written by
:func:`write_edge_list` and one written by :func:`write_edge_list_stream`
from the same graph are byte-identical, so digests computed over either
agree.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Any, Hashable, Iterable, Iterator

from repro.exceptions import ParameterError
from repro.graphs.cgraph import CGraph

Node = Hashable

#: Header directives understood by :func:`read_edge_list`.
_SOURCES_DIRECTIVE = "sources:"
_ISOLATED_DIRECTIVE = "isolated:"
_META_DIRECTIVE = "meta:"

#: Tokens per directive line (keeps lines short for diffs and pagers).
_DIRECTIVE_CHUNK = 64


class _OwnedGzipFile(gzip.GzipFile):
    """GzipFile that closes the fileobj it was handed.

    Needed because passing ``fileobj`` (required to suppress the FNAME
    header field) makes :class:`gzip.GzipFile` treat the file as
    borrowed and leave it open.
    """

    def close(self) -> None:
        fileobj = self.fileobj
        try:
            super().close()
        finally:
            if fileobj is not None:
                fileobj.close()


def _open_text(path: str | Path, mode: str):
    """Open ``path`` as UTF-8 text, transparently gzipped for ``.gz``.

    Gzip members are written with ``mtime=0`` and no FNAME field so
    identical graph content produces identical compressed bytes — the
    digest-stability contract extends to compressed files.
    """
    if str(path).endswith(".gz"):
        if "w" in mode:
            import io as _io

            # gzip.open exposes neither knob; GzipFile does.
            raw = _OwnedGzipFile(
                filename="", mode="wb", fileobj=open(path, "wb"), mtime=0
            )
            return _io.TextIOWrapper(raw, encoding="utf-8")
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _parse_token(token: str, int_ids: bool) -> Node:
    """A token as an int when ``int()`` accepts it, else the string.

    ``isdigit`` alone also passes ``"--5"`` and ``"²"``, which ``int()``
    rejects; such tokens stay strings.
    """
    if int_ids and token.lstrip("-").isdigit():
        try:
            return int(token)
        except ValueError:
            pass
    return token


def _parse_edge_lines(
    lines,
    *,
    origin: str,
    comment: str,
    int_ids: bool,
    sources: list[Node] | None,
) -> CGraph:
    edges: list[tuple[Node, Node]] = []
    directive_sources: list[Node] = []
    isolated: list[Node] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith(comment):
            body = line[len(comment):].strip()
            if body.startswith(_SOURCES_DIRECTIVE):
                tokens = body[len(_SOURCES_DIRECTIVE):].split()
                directive_sources.extend(
                    _parse_token(t, int_ids) for t in tokens
                )
            elif body.startswith(_ISOLATED_DIRECTIVE):
                tokens = body[len(_ISOLATED_DIRECTIVE):].split()
                isolated.extend(_parse_token(t, int_ids) for t in tokens)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParameterError(
                f"{origin}:{lineno}: expected 'u v', got {line!r}"
            )
        u, v = (_parse_token(parts[0], int_ids),
                _parse_token(parts[1], int_ids))
        edges.append((u, v))
    if sources is None and directive_sources:
        sources = directive_sources
    return CGraph(edges, nodes=isolated, sources=sources)


def read_edge_list(
    path: str | Path,
    *,
    comment: str = "#",
    int_ids: bool = True,
    sources: list[Node] | None = None,
) -> CGraph:
    """Load a c-graph from a whitespace-separated edge-list file.

    Parameters
    ----------
    path:
        File to read.
    comment:
        Lines starting with this prefix are skipped — except the
        ``sources:`` / ``isolated:`` directives written by
        :func:`write_edge_list`, which restore the explicit source set and
        any edge-free nodes (both invisible to a plain ``u v`` listing).
    int_ids:
        When true (default) node tokens that parse as integers are stored
        as ints — the convention of the SNAP/Kwak/APS dumps.
    sources:
        Optional explicit source set (e.g. ``["sigcomm09"]``).  Overrides
        a ``# sources:`` directive; when neither is present, sources
        default to in-degree-zero detection.

    Paths ending in ``.gz`` are read through gzip transparently.
    """
    with _open_text(path, "r") as handle:
        return _parse_edge_lines(
            handle,
            origin=str(path),
            comment=comment,
            int_ids=int_ids,
            sources=sources,
        )


def read_edge_list_text(
    text: str,
    *,
    comment: str = "#",
    int_ids: bool = True,
    sources: list[Node] | None = None,
) -> CGraph:
    """:func:`read_edge_list` on in-memory text (HTTP uploads, tests)."""
    return _parse_edge_lines(
        text.splitlines(),
        origin="<text>",
        comment=comment,
        int_ids=int_ids,
        sources=sources,
    )


def _write_directive(handle, name: str, tokens: list[str]) -> None:
    for start in range(0, len(tokens), _DIRECTIVE_CHUNK):
        chunk = " ".join(tokens[start:start + _DIRECTIVE_CHUNK])
        handle.write(f"# {name} {chunk}\n")


def _roundtrip_token(node: Node) -> str:
    """``str(node)`` — verified to read back as exactly ``node``.

    The edge-list format stores bare whitespace-separated tokens, so a
    node id whose printed form is empty, contains whitespace, or
    re-parses differently under the int rule (a *string* ``"5"`` would
    come back as the *int* ``5``) cannot survive a round-trip.  Refusing
    the write beats silently corrupting it; such graphs belong in the
    JSON format (:func:`write_json_graph`).
    """
    token = str(node)
    if not token or len(token.split()) != 1:
        raise ParameterError(
            f"node id {node!r} does not print as one whitespace-free "
            "token; use the JSON graph format instead"
        )
    if _parse_token(token, int_ids=True) != node:
        raise ParameterError(
            f"node id {node!r} would read back as "
            f"{_parse_token(token, int_ids=True)!r}; use the JSON graph "
            "format instead"
        )
    return token


def write_edge_list(
    graph: CGraph,
    path: str | Path,
    *,
    meta: dict[str, Any] | None = None,
) -> None:
    """Write ``graph`` as a whitespace-separated edge list.

    The header records everything a bare ``u v`` listing loses: the
    explicit source set (``# sources:``), edge-free nodes
    (``# isolated:``), and — when ``meta`` is given — the generating spec
    as one JSON object (``# meta:``), so a generated workload documents
    its own dataset/seed/scale.  :func:`read_edge_list` restores the
    structural directives, making write → read the identity: node ids
    that cannot survive the token format (empty/whitespace prints, or
    strings the int rule would re-type) are rejected up front rather
    than silently corrupted.

    Paths ending in ``.gz`` are written through gzip (with a pinned
    member mtime, so identical graphs compress to identical bytes).
    """
    token_of = {node: _roundtrip_token(node) for node in graph.nodes()}
    isolated = [
        v for v in graph.nodes()
        if not graph.successors(v) and not graph.predecessors(v)
    ]
    write_edge_list_stream(
        path,
        graph.edges(),
        sources=sorted(token_of[s] for s in graph.sources),
        isolated=sorted(token_of[v] for v in isolated),
        meta=meta,
        counts=(graph.number_of_nodes(), graph.number_of_edges()),
        token_of=token_of.__getitem__,
    )


def write_edge_list_stream(
    path: str | Path,
    edges: Iterable[tuple[Node, Node]],
    *,
    sources: Iterable[str] = (),
    isolated: Iterable[str] = (),
    meta: dict[str, Any] | None = None,
    counts: tuple[int, int] | None = None,
    token_of=None,
) -> int:
    """Write an edge *iterator* in :func:`write_edge_list`'s format.

    The streaming back half of the scale tier's ingestion: never holds
    more than one edge, so a 10^6-node generator streams straight to
    disk (gzipped when the path says so).  ``sources`` / ``isolated``
    take pre-tokenized strings (already validated/ordered by the
    caller); ``counts`` optionally pins the ``# nodes= edges=`` header
    line — when the caller knows them, the output is byte-identical to
    :func:`write_edge_list` on the materialized graph, which is what
    keeps content digests stable across the two writers.  ``token_of``
    overrides per-node token rendering (default: the round-trip-checked
    ``str``).  Returns the number of edges written.
    """
    if token_of is None:
        token_cache: dict[Node, str] = {}

        def token_of(node: Node) -> str:
            token = token_cache.get(node)
            if token is None:
                token = token_cache[node] = _roundtrip_token(node)
            return token

    written = 0
    with _open_text(path, "w") as handle:
        handle.write("# filter-placement c-graph edge list\n")
        if counts is not None:
            handle.write(f"# nodes={counts[0]} edges={counts[1]}\n")
        if meta is not None:
            handle.write(
                f"# {_META_DIRECTIVE} {json.dumps(meta, sort_keys=True)}\n"
            )
        source_tokens = list(sources)
        if source_tokens:
            _write_directive(handle, _SOURCES_DIRECTIVE, source_tokens)
        isolated_tokens = list(isolated)
        if isolated_tokens:
            _write_directive(handle, _ISOLATED_DIRECTIVE, isolated_tokens)
        for u, v in edges:
            handle.write(f"{token_of(u)} {token_of(v)}\n")
            written += 1
    return written


class EdgeListStream:
    """Chunked edge-list reader: one line at a time, directives intact.

    The streaming front half of the scale tier's ingestion.  Iterating
    :meth:`edges` parses the file lazily (text or ``.gz``) and yields
    ``(u, v)`` pairs without ever materializing an edge list; the
    ``# sources:`` / ``# isolated:`` / ``# meta:`` header directives are
    captured on the fly into :attr:`sources`, :attr:`isolated` and
    :attr:`meta` (complete once iteration finishes — directives may
    legally appear anywhere, though the writers put them up top).
    ``read_edge_list(path)`` and compiling this stream produce the same
    graph; the round-trip through :func:`write_edge_list_stream` is
    digest-stable.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        comment: str = "#",
        int_ids: bool = True,
    ) -> None:
        self.path = Path(path)
        self.comment = comment
        self.int_ids = int_ids
        self.sources: list[Node] = []
        self.isolated: list[Node] = []
        self.meta: dict[str, Any] | None = None

    def edges(self) -> Iterator[tuple[Node, Node]]:
        """Yield edges lazily, capturing directives as they pass."""
        comment = self.comment
        int_ids = self.int_ids
        with _open_text(self.path, "r") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                if line.startswith(comment):
                    body = line[len(comment):].strip()
                    if body.startswith(_SOURCES_DIRECTIVE):
                        tokens = body[len(_SOURCES_DIRECTIVE):].split()
                        self.sources.extend(
                            _parse_token(t, int_ids) for t in tokens
                        )
                    elif body.startswith(_ISOLATED_DIRECTIVE):
                        tokens = body[len(_ISOLATED_DIRECTIVE):].split()
                        self.isolated.extend(
                            _parse_token(t, int_ids) for t in tokens
                        )
                    elif body.startswith(_META_DIRECTIVE):
                        payload = body[len(_META_DIRECTIVE):].strip()
                        try:
                            loaded = json.loads(payload)
                        except json.JSONDecodeError as exc:
                            raise ParameterError(
                                f"{self.path}:{lineno}: malformed "
                                f"'# meta:' header: {exc}"
                            ) from None
                        if isinstance(loaded, dict):
                            self.meta = loaded
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ParameterError(
                        f"{self.path}:{lineno}: expected 'u v', "
                        f"got {line!r}"
                    )
                yield (
                    _parse_token(parts[0], int_ids),
                    _parse_token(parts[1], int_ids),
                )


def read_edge_list_meta(path: str | Path) -> dict[str, Any] | None:
    """The ``# meta:`` JSON object of an edge-list file, or None.

    This is how a generated workload's provenance (dataset name, seed,
    scale) is read back without loading the graph itself.  ``.gz``
    paths are read through gzip transparently.
    """
    with _open_text(path, "r") as handle:
        for line in handle:
            line = line.strip()
            if not line.startswith("#"):
                break
            body = line[1:].strip()
            if body.startswith(_META_DIRECTIVE):
                payload = body[len(_META_DIRECTIVE):].strip()
                try:
                    loaded = json.loads(payload)
                except json.JSONDecodeError as exc:
                    raise ParameterError(
                        f"{path}: malformed '# meta:' header: {exc}"
                    ) from None
                if not isinstance(loaded, dict):
                    raise ParameterError(
                        f"{path}: '# meta:' header must be a JSON object"
                    )
                return loaded
    return None


def write_json_graph(graph: CGraph, path: str | Path) -> None:
    """Serialize ``graph`` (nodes, edges, sources) to JSON.

    Node ids must be JSON-representable (ints or strings); tuples — used
    by synthesized nodes such as super-sources and dump nodes — are
    rejected rather than silently corrupted.
    """
    for node in graph.nodes():
        if not isinstance(node, (int, str)):
            raise ParameterError(
                f"JSON graph format supports int/str node ids, got {node!r}"
            )
    payload = {
        "nodes": list(graph.nodes()),
        "edges": [[u, v] for u, v in graph.edges()],
        "sources": sorted(graph.sources, key=repr),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)


def read_json_graph(path: str | Path) -> CGraph:
    """Load a graph previously written by :func:`write_json_graph`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return CGraph(
        (tuple(edge) for edge in payload["edges"]),
        nodes=payload["nodes"],
        sources=payload["sources"],
    )
