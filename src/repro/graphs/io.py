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
ships with.

Every reader — :func:`read_edge_list`, :func:`read_edge_list_text` and
:class:`EdgeListStream` (and through it the scale tier's
:func:`repro.graphs.largescale.compile_edge_list`) — runs one block
scanner.  It reads fixed-size binary blocks, each cut after its last
newline, marks every line that holds a byte other than an ASCII
digit, space, tab, CR or LF, and counts each line's digit runs.  Each
run of unmarked ("plain") lines whose every line is blank or holds
exactly two ids is parsed by one NumPy ``fromstring`` call into a
``(k, 2)`` int64 array; every marked line — comments and directives,
string ids, ``-5``, malformed lines — every plain run with a line of
one or three ids, and every plain run holding an id of 19 or more
digits goes through the one per-line parser.  Both give the
same nodes, edges, directives and errors, and without NumPy every line
takes the per-line parser.  Lines end at ``\\n``, ``\\r\\n`` or ``\\r``
(universal newlines) for files and in-memory text alike.

Both materializing readers and ``compile_edge_list`` then share one
table build (:mod:`repro.graphs.compiled`): the int64 arrays intern in
NumPy, only per-line edges are interned one by one, and one CSR build
gives the tables.  :func:`read_edge_list` and :func:`read_edge_list_text`
build their :class:`CGraph` from those tables with its compiled view
attached, and give the nodes, adjacency order, sources and errors of
``CGraph(edges, ...)`` on the file's edges, without a ``(u, v)`` tuple
per plain line.

:class:`EdgeListStream` honors every header directive without
materializing an edge list, and :func:`write_edge_list_stream`
(header + edge-iterator writer) is its streaming back half.  A file
written by :func:`write_edge_list` and one written by
:func:`write_edge_list_stream` from the same graph are byte-identical,
so digests computed over either agree.
"""

from __future__ import annotations

import gzip
import json
from io import BytesIO
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Iterator

from repro.exceptions import ParameterError
from repro.graphs.cgraph import CGraph
from repro.graphs.compiled import _intern_segments

Node = Hashable

#: Bytes per read of the block scanner; each block is then cut after
#: its last newline, so a block always holds whole lines.
_BLOCK_BYTES = 1 << 20

#: The characters of a plain line: ASCII digits, space, tab, CR, LF.
_PLAIN = "0123456789 \t\r\n"

#: The plain bytes but LF, which :func:`_every_line_marked` deletes.
_PLAIN_NO_LF = _PLAIN.replace("\n", "").encode()

#: Every digit as ``0``: a run holding :data:`_LONG_ID` after this
#: translation has an id of 19 or more digits.
_DIGITS_TO_ZERO = bytes.maketrans(b"123456789", b"000000000")

#: 19 digits, the fewest that can pass int64's maximum.  Some NumPy
#: releases read such an id through a double (with only a warning)
#: instead of raising, so a run holding one never reaches NumPy's parse.
_LONG_ID = b"0" * 19

try:  # bulk parse of plain lines; every reader works without it.
    import numpy as _np
except Exception:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None
else:
    #: ``_MARKED[b]``: byte ``b`` sends its line to the per-line parser.
    _MARKED = _np.ones(256, dtype=bool)
    _MARKED[list(_PLAIN.encode())] = False

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


def _open_bytes(path: str | Path):
    """Open ``path`` for binary reads, transparently gunzipped for ``.gz``."""
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def _blocks(read: Callable[[int], bytes]) -> Iterator[bytes]:
    """``read``'s bytes in blocks of whole lines.

    Each fixed-size read is cut after its last newline and the rest
    carried into the next block; the last block may lack a final
    newline.  A CR never ends a block, so a CRLF pair is never split.
    """
    carry = b""
    while True:
        chunk = read(_BLOCK_BYTES)
        if not chunk:
            if carry:
                yield carry
            return
        if carry:
            chunk = carry + chunk
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield chunk[:cut]
            carry = chunk[cut:]
        else:
            carry = chunk


def _split_lines(text: str) -> list[str]:
    """``text``'s lines under universal newlines, as a text file yields
    them (unlike ``str.splitlines``, ``\\x0b``, ``\\x1c`` or ``\\u2028``
    end no line)."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _every_line_marked(block: bytes) -> bool:
    """Whether every line of ``block`` holds a marked byte.

    One C-level ``translate`` instead of NumPy's classification, so a
    file of string ids (every line marked) pays next to nothing for the
    bulk path it cannot use.  Deleting the plain bytes but LF leaves an
    empty line exactly where a line was plain.  A lone CR can hide a
    plain line from the test; the block then goes to the per-line
    parser, which is right for every line.
    """
    rest = block.translate(None, _PLAIN_NO_LF)
    return (
        bool(rest)
        and not rest.startswith(b"\n")
        and b"\n\n" not in rest
        and rest.endswith(b"\n") == block.endswith(b"\n")
    )


class _Scan:
    """One pass of the block scanner over an edge-list byte stream.

    :meth:`scan` yields the edges in file order, as a ``(k, 2)`` int64
    array for each run of plain lines and a list of ``(u, v)`` tuples
    for each run the per-line parser took.  Directives fill
    :attr:`sources` and :attr:`isolated` — and :attr:`meta` when
    ``read_meta`` — as they pass; ``bulk_lines``, ``fallback_lines``
    and ``blocks`` count which parser ran.
    """

    def __init__(
        self,
        origin: str,
        *,
        comment: str,
        int_ids: bool,
        read_meta: bool,
        errors: str = "strict",
    ) -> None:
        self.origin = origin
        self.comment = comment
        self.int_ids = int_ids
        self.read_meta = read_meta
        self.errors = errors
        self.sources: list[Node] = []
        self.isolated: list[Node] = []
        self.meta: dict[str, Any] | None = None
        self.bulk_lines = 0
        self.fallback_lines = 0
        self.blocks = 0

    def scan(self, read: Callable[[int], bytes]) -> Iterator[Any]:
        """Yield the edge segments of the bytes ``read(size)`` returns.

        A block goes to the per-line parser whole when NumPy is absent,
        when ids stay strings (``int_ids=False``), when the comment
        prefix could begin a plain line, when every line in it is
        marked, or when it holds a CR outside a CRLF pair (so a lone CR
        never depends on how NumPy treats it).
        """
        from repro.obs.metrics import REGISTRY

        counter = REGISTRY.counter(
            "fp_ingest_lines_total",
            "Edge-list lines read, by parser path.",
            labels=("path",),
        )
        comment = self.comment
        bulk = (
            _np is not None
            and self.int_ids
            and comment
            and comment[0] not in _PLAIN
        )
        lineno = 0
        for block in _blocks(read):
            self.blocks += 1
            bulk_lines = self.bulk_lines
            fallback_lines = self.fallback_lines
            if (
                bulk
                and not _every_line_marked(block)
                and block.count(b"\r") == block.count(b"\r\n")
            ):
                lineno = yield from self._classified(block, lineno)
            else:
                lineno = yield from self._per_line(block, lineno)
            if self.bulk_lines > bulk_lines:
                counter.inc(self.bulk_lines - bulk_lines, path="bulk")
            if self.fallback_lines > fallback_lines:
                counter.inc(
                    self.fallback_lines - fallback_lines, path="per_line"
                )

    def report(self, record, edges: int) -> None:
        """Set a ``graphs.ingest`` span's attributes from this pass."""
        record.set("edges", edges)
        record.set("bulk_lines", self.bulk_lines)
        record.set("fallback_lines", self.fallback_lines)
        record.set("blocks", self.blocks)

    def _classified(self, block: bytes, lineno: int):
        """Split ``block`` into runs of plain and marked lines.

        Each line's digit runs are counted here too, from the same line
        bounds: in a plain line every byte from ``0`` up is a digit.
        """
        np = _np
        data = np.frombuffer(block, dtype=np.uint8)
        bounds = np.flatnonzero(data == 10) + 1
        if not block.endswith(b"\n"):
            bounds = np.append(bounds, len(block))
        bounds = np.concatenate(([0], bounds))
        marked = np.logical_or.reduceat(_MARKED[data], bounds[:-1])
        digit = data >= 48
        run_starts = np.empty_like(digit)
        run_starts[:1] = digit[:1]
        np.greater(digit[1:], digit[:-1], out=run_starts[1:])
        runs = np.add.reduceat(run_starts, bounds[:-1], dtype=np.intp)
        del digit, run_starts
        cuts = [0, *(np.flatnonzero(marked[1:] != marked[:-1]) + 1).tolist()]
        cuts.append(len(marked))
        plain = not marked[0]
        for first, stop in zip(cuts, cuts[1:]):
            chunk = block[int(bounds[first]):int(bounds[stop])]
            if plain:
                yield from self._bulk(chunk, lineno + first, runs[first:stop])
            else:
                yield from self._per_line(chunk, lineno + first)
            plain = not plain
        return lineno + len(marked)

    def _bulk(self, chunk: bytes, lineno: int, runs):
        """Parse a run of plain lines with one ``np.fromstring``.

        ``runs`` holds each line's count of digit runs.  Only a run
        whose every line is blank or holds exactly two ids is parsed,
        and only when it holds no id of 19 or more digits (which may
        pass int64): all of it in one call, read as whitespace-separated
        int64 values.  Any other run, or one that yields other than two
        values per edge, goes to the per-line parser, which gives its
        error.  ``bulk_lines`` counts the edges parsed here; blank lines
        among them count in neither path.
        """
        np = _np
        edges = int(np.count_nonzero(runs == 2))
        paired = edges + int(np.count_nonzero(runs == 0)) == len(runs)
        if paired and not edges:  # a run of blank lines holds no edges
            return
        pairs = None
        if paired and _LONG_ID not in chunk.translate(_DIGITS_TO_ZERO):
            values = np.fromstring(chunk, dtype=np.int64, sep=" ")
            if len(values) == 2 * edges:
                pairs = values.reshape(edges, 2)
        if pairs is None:
            yield from self._per_line(chunk, lineno)
            return
        self.bulk_lines += edges
        yield pairs

    def _per_line(self, chunk: bytes, lineno: int):
        """Run the per-line parser over ``chunk``'s lines.

        The edges before a malformed line are yielded before its error
        is raised, so a consumer that checks edges as they arrive (the
        streamed compiler's self-loop check) still sees them first.
        """
        lines = _split_lines(chunk.decode("utf-8", self.errors))
        self.fallback_lines += len(lines)
        edges: list[tuple[Node, Node]] = []
        try:
            self._parse_lines(lines, lineno, edges)
        except ParameterError:
            if edges:
                yield edges
            raise
        if edges:
            yield edges
        return lineno + len(lines)

    def _parse_lines(
        self, lines: list[str], lineno: int, edges: list
    ) -> None:
        """The per-line parser: append each ``u v`` line's edge to
        ``edges`` and take in each directive; line numbers continue
        from ``lineno``."""
        comment = self.comment
        int_ids = self.int_ids
        append = edges.append
        for lineno, line in enumerate(lines, start=lineno + 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith(comment):
                self._directive(line[len(comment):].strip(), lineno)
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParameterError(
                    f"{self.origin}:{lineno}: expected 'u v', got {line!r}"
                )
            append((_parse_token(parts[0], int_ids),
                    _parse_token(parts[1], int_ids)))

    def _directive(self, body: str, lineno: int) -> None:
        if body.startswith(_SOURCES_DIRECTIVE):
            self.sources.extend(
                self._tokens(body[len(_SOURCES_DIRECTIVE):])
            )
        elif body.startswith(_ISOLATED_DIRECTIVE):
            self.isolated.extend(
                self._tokens(body[len(_ISOLATED_DIRECTIVE):])
            )
        elif self.read_meta and body.startswith(_META_DIRECTIVE):
            payload = body[len(_META_DIRECTIVE):].strip()
            try:
                loaded = json.loads(payload)
            except json.JSONDecodeError as exc:
                raise ParameterError(
                    f"{self.origin}:{lineno}: malformed "
                    f"'# meta:' header: {exc}"
                ) from None
            if isinstance(loaded, dict):
                self.meta = loaded

    def _tokens(self, text: str) -> list[Node]:
        """A directive's node tokens; all-ASCII-digit lists (the
        writers' case) convert in one ``map``."""
        tokens = text.split()
        joined = "".join(tokens)
        if self.int_ids and joined.isascii() and joined.isdigit():
            return list(map(int, tokens))
        return [_parse_token(t, self.int_ids) for t in tokens]


def _segment_edges(segments: Iterable[Any]) -> Iterator[tuple[Node, Node]]:
    """The ``(u, v)`` tuples of scanned segments, in file order.

    Only :meth:`EdgeListStream.edges` turns segments into tuples; the
    readers intern the int64 arrays as they are.
    """
    return chain.from_iterable(
        segment if type(segment) is list else map(tuple, segment.tolist())
        for segment in segments
    )


def _read_graph(
    scan: _Scan, read: Callable[[int], bytes], sources: list[Node] | None
) -> CGraph:
    """Scan to a :class:`CGraph` inside one ``graphs.ingest`` span.

    The segments intern as they are scanned, which checks nothing, so
    the whole file is scanned before any structural check and a
    malformed line raises before a self-loop or duplicate edge.  The
    graph then builds from one CSR table (:meth:`CGraph._from_interned`):
    no ``(u, v)`` tuple is made for a run of plain lines.
    """
    from repro.obs.trace import span

    with span("graphs.ingest") as record:
        us, vs, index, nodes = _intern_segments(scan.scan(read))
        # Directives may trail the edges: they are complete only once
        # the scan is.
        if sources is None and scan.sources:
            sources = scan.sources
        graph = CGraph._from_interned(
            us, vs, nodes, index, isolated=scan.isolated, sources=sources
        )
        scan.report(record, len(us))
    return graph


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

    Paths ending in ``.gz`` are read through gzip transparently.  The
    whole file is parsed before the graph is built, so a malformed line
    raises before any self-loop or duplicate edge.
    """
    scan = _Scan(str(path), comment=comment, int_ids=int_ids, read_meta=False)
    with _open_bytes(path) as handle:
        return _read_graph(scan, handle.read, sources)


def read_edge_list_text(
    text: str,
    *,
    comment: str = "#",
    int_ids: bool = True,
    sources: list[Node] | None = None,
) -> CGraph:
    """:func:`read_edge_list` on in-memory text (HTTP uploads, tests).

    The text runs through the same scanner as a file of its UTF-8
    bytes, so an upload and a file with the same bytes give the same
    graph or the same error.
    """
    # "surrogatepass": a JSON body can carry lone surrogates, which
    # parse into string ids as they always have.
    scan = _Scan(
        "<text>",
        comment=comment,
        int_ids=int_ids,
        read_meta=False,
        errors="surrogatepass",
    )
    data = BytesIO(text.encode("utf-8", "surrogatepass"))
    return _read_graph(scan, data.read, sources)


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


class EdgeListStream(_Scan):
    """Streamed edge-list reader: the block scanner over one file.

    The streaming front half of the scale tier's ingestion.  Iterating
    :meth:`edges` scans the file (text or ``.gz``) one block at a time
    and yields ``(u, v)`` pairs without ever materializing an edge
    list; :meth:`segments` yields the scanner's segments instead (an
    int64 ``(k, 2)`` array per run of plain lines, a tuple list per
    per-line run), which :func:`repro.graphs.largescale.compile_edge_list`
    interns in bulk.  The ``# sources:`` / ``# isolated:`` / ``# meta:``
    header directives are captured on the fly into :attr:`sources`,
    :attr:`isolated` and :attr:`meta` (complete once iteration finishes —
    directives may legally appear anywhere, though the writers put them
    up top); a malformed ``# meta:`` raises, naming its line.
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
        super().__init__(
            str(self.path), comment=comment, int_ids=int_ids, read_meta=True
        )

    def segments(self) -> Iterator[Any]:
        """Yield the file's edge segments, capturing directives."""
        with _open_bytes(self.path) as handle:
            yield from self.scan(handle.read)

    def edges(self) -> Iterator[tuple[Node, Node]]:
        """Yield edges lazily, capturing directives as they pass."""
        return _segment_edges(self.segments())


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
