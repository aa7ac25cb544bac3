"""The per-line content digest, kept as the oracle of ``graph_digest``.

``repro.service.store.graph_digest`` computes its lines from the
compiled tables, sorting integer keys.  This is the form it had before:
one ``(repr, repr)`` tuple and five ``update`` calls per edge, read
through ``graph.edges()``.  The two must give the same hex digest on
every graph.
"""

from __future__ import annotations

import hashlib


def graph_digest_per_line(graph, probabilities=None) -> str:
    """SHA-256 over the sorted ``repr`` lines of nodes, edges, sources
    and non-unit probabilities, one line at a time."""
    h = hashlib.sha256()
    for node in sorted(map(repr, graph.nodes())):
        h.update(b"n ")
        h.update(node.encode("utf-8"))
        h.update(b"\n")
    for u, v in sorted((repr(u), repr(v)) for u, v in graph.edges()):
        h.update(b"e ")
        h.update(u.encode("utf-8"))
        h.update(b" ")
        h.update(v.encode("utf-8"))
        h.update(b"\n")
    for source in sorted(map(repr, graph.sources)):
        h.update(b"s ")
        h.update(source.encode("utf-8"))
        h.update(b"\n")
    for line in _probability_lines(probabilities):
        h.update(line.encode("utf-8"))
    return h.hexdigest()


def _probability_lines(probabilities) -> list[str]:
    if probabilities is None:
        return []
    if isinstance(probabilities, dict):
        return sorted(
            f"p {u!r} {v!r} {float(p)!r}\n"
            for (u, v), p in probabilities.items()
            if float(p) < 1.0
        )
    p = float(probabilities)
    if p >= 1.0:
        return []
    return [f"p * {p!r}\n"]
