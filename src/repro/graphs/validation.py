"""Structural validation helpers for c-graphs.

The placement algorithms in :mod:`repro.core` have graph-class
preconditions (DAG for the greedy family, c-tree for the dynamic program).
These helpers centralize the checks and the standard pre-processing steps
the paper applies before running any algorithm: restricting to the nodes
reachable from the sources and merging multiple sources into one
super-source.
"""

from __future__ import annotations

from typing import Hashable

from repro.exceptions import (
    CyclicGraphError,
    GraphStructureError,
    MissingSourceError,
)
from repro.graphs.cgraph import CGraph
from repro.graphs.traversal import reachable_from

Node = Hashable

#: Name used for synthesized super-source nodes.  A tuple is used so it can
#: never collide with ordinary string/int node ids from datasets.
SUPER_SOURCE: tuple[str,] = ("__super_source__",)


def check_dag(graph: CGraph) -> None:
    """Raise :class:`CyclicGraphError` unless ``graph`` is acyclic."""
    if not graph.is_dag():
        raise CyclicGraphError(
            "operation requires a DAG; run repro.graphs.acyclic_subgraph "
            "first to extract a maximal acyclic subgraph"
        )


def ensure_single_source(graph: CGraph) -> CGraph:
    """Return an equivalent graph with exactly one source.

    If the graph already has a single source it is returned unchanged.
    Otherwise a synthetic super-source (:data:`SUPER_SOURCE`) is added with
    one edge to each original source, mirroring the construction in
    Section 4.3 of the paper ("otherwise we create a new super-source s,
    and direct an edge from s to every source").

    Note that under the paper's model, sources generate *distinct* items, so
    collapsing them changes per-item semantics: use this only for
    single-item analyses (as the paper does for ``Acyclic``), or keep
    multiple sources and let the propagation engines aggregate per item.
    """
    if not graph.sources:
        raise MissingSourceError(
            "graph has no sources: every in-degree-0 node was removed or "
            "an explicit empty source set was given"
        )
    if len(graph.sources) == 1:
        return graph
    if SUPER_SOURCE in graph:
        raise GraphStructureError(
            "graph already contains a super-source; refusing to nest them"
        )
    edges = list(graph.edges())
    edges.extend((SUPER_SOURCE, s) for s in sorted(graph.sources, key=repr))
    return CGraph(edges, nodes=graph.nodes(), sources=[SUPER_SOURCE])


def reachable_subgraph(graph: CGraph) -> CGraph:
    """The induced subgraph on nodes reachable from the sources.

    Nodes that no item can ever reach are irrelevant to the objective
    (they receive zero copies under every filter set) and slow the
    algorithms down, so the experiment pipeline strips them first.
    """
    if not graph.sources:
        raise MissingSourceError("graph has no sources")
    keep = reachable_from(graph, list(graph.sources))
    if len(keep) == graph.number_of_nodes():
        return graph
    return graph.subgraph(keep)


def is_ctree(graph: CGraph) -> bool:
    """True when ``graph`` is a *communication tree* (c-tree).

    Following Section 4.1: the graph is a c-tree if removing the source
    node (and its incident edges) leaves a directed tree — i.e. every
    remaining node has exactly one remaining parent except a single tree
    root with none, and the remaining edges are acyclic and connected.
    """
    if len(graph.sources) != 1:
        return False
    source = next(iter(graph.sources))
    rest = [v for v in graph.nodes() if v != source]
    if not rest:
        return True
    roots = 0
    for v in rest:
        parents = [p for p in graph.predecessors(v) if p != source]
        if len(parents) > 1:
            return False
        if not parents:
            roots += 1
    if roots != 1:
        return False
    # One parent each and a single root guarantee |E| = |V| - 1 on the
    # source-free subgraph; acyclicity of the whole c-graph remains to check.
    return graph.is_dag()


def validate_filter_set(graph: CGraph, filters: set[Node]) -> None:
    """Raise when ``filters`` references nodes outside the graph.

    One C-level set difference against the compiled interning map —
    every caller sweeps the compiled graph next, so the compile is never
    extra.  The message lists the first missing nodes in ``filters``'
    own iteration order.
    """
    missing = filters.difference(graph.compiled().index)
    if missing:
        first = [v for v in filters if v in missing][:5]
        raise GraphStructureError(
            f"filter set references missing nodes: {first!r}"
        )
