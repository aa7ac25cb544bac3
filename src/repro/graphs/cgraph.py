"""The communication graph (c-graph) data structure.

Section 3 of the paper models an information network as a directed graph
``G(V, E)`` in which designated *source* nodes generate items and every other
node blindly relays received copies to all out-neighbours.  :class:`CGraph`
captures exactly that: a simple directed graph plus a set of source nodes.

Design notes
------------
* **Immutability.**  A :class:`CGraph` never changes after construction.
  Algorithms that "modify" a graph (adding a super-source, dropping edges to
  break cycles, ...) build a new instance.  Immutability lets the class cache
  derived data (degree tables, a topological order) safely, which the
  placement algorithms query heavily.
* **Hashable node ids.**  Nodes may be any hashable Python objects: ints,
  strings, tuples.  The dataset generators use ints and short strings.
* **Sources.**  The paper treats sources as the origins of *distinct* items.
  If no explicit source set is given we default to the nodes with in-degree
  zero, which matches every dataset in the paper's evaluation (each has a
  single root after pre-processing).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Sequence
from typing import Any

from repro.exceptions import (
    GraphStructureError,
    MissingNodeError,
    MissingSourceError,
    ParameterError,
)

Node = Hashable
Edge = tuple[Node, Node]


class CGraph:
    """An immutable directed communication graph.

    Parameters
    ----------
    edges:
        Iterable of ``(u, v)`` pairs meaning *u relays items to v*.
        Parallel duplicate edges are rejected (the propagation model of the
        paper is defined on simple digraphs); self-loops are rejected because
        a node relaying to itself would loop forever under blind relaying.
    nodes:
        Optional extra nodes that may not appear in any edge (isolated
        nodes are legal and occasionally produced by subgraph operations).
    sources:
        Optional explicit source set.  Defaults to all nodes with in-degree
        zero.  Sources are the nodes that *generate* items; they are allowed
        to have incoming edges when given explicitly (the paper's SetCover
        gadget wires a source into a cyclic core).

    Examples
    --------
    The toy network of Figure 1::

        >>> g = CGraph([
        ...     ("s", "x"), ("s", "y"),
        ...     ("x", "z1"), ("x", "z2"), ("y", "z2"), ("y", "z3"),
        ...     ("z1", "w"), ("z2", "w"), ("z3", "w"),
        ... ])
        >>> sorted(g.sources)
        ['s']
        >>> g.in_degree("z2"), g.out_degree("z2")
        (2, 1)
    """

    __slots__ = (
        "_succ",
        "_pred",
        "_nodes",
        "_sources",
        "_sources_explicit",
        "_num_edges",
        "_topo_cache",
        "_is_dag_cache",
        "_compiled_cache",
        # Weak referencing enables external per-graph caches (the numpy
        # backend's levelized plan adapters) without pinning graphs alive.
        "__weakref__",
    )

    def __init__(
        self,
        edges: Iterable[Edge] = (),
        *,
        nodes: Iterable[Node] = (),
        sources: Iterable[Node] | None = None,
    ) -> None:
        from repro.graphs.compiled import _intern_edges

        us, vs, index, node_list = _intern_edges(edges)
        self._build(us, vs, node_list, index, nodes, sources)

    @classmethod
    def _from_interned(
        cls,
        us: Sequence[int],
        vs: Sequence[int],
        nodes: list[Node],
        index: dict[Node, int],
        *,
        isolated: Iterable[Node] = (),
        sources: Iterable[Node] | None = None,
    ) -> "CGraph":
        """``CGraph(edges, nodes=isolated, sources=sources)``, built from
        the edges' interned ids instead of the edges.

        Edge ``e`` runs from ``nodes[us[e]]`` to ``nodes[vs[e]]``;
        ``nodes`` lists the endpoints in first-seen ``(u, v)`` order and
        ``index`` maps each to its id (both grow by the ``isolated``
        nodes).  The edge-list readers build here from their scanned
        files, with no ``(u, v)`` tuple per edge.
        """
        self = object.__new__(cls)
        self._build(us, vs, nodes, index, isolated, sources)
        return self

    def _build(
        self,
        us: Sequence[int],
        vs: Sequence[int],
        nodes: list[Node],
        index: dict[Node, int],
        isolated: Iterable[Node],
        sources: Iterable[Node] | None,
    ) -> None:
        """Fill this graph and its compiled view from interned edges.

        Both adjacencies come from one CSR build, with no Python loop
        per edge when NumPy is present, and the compiled tables come
        with them.  The first self-loop or repeated edge in edge order
        raises, then the first unknown source.
        """
        from repro.graphs.compiled import (
            CompiledGraph,
            _add_nodes,
            _interned_adjacency,
        )

        _add_nodes(index, nodes, isolated)
        tables, levels, children, parents = _interned_adjacency(us, vs, nodes)
        out_offsets, out_targets, in_offsets, in_sources = tables
        self._succ = {
            node: tuple(children[out_offsets[i]:out_offsets[i + 1]])
            for i, node in enumerate(nodes)
        }
        self._pred = {
            node: tuple(parents[in_offsets[i]:in_offsets[i + 1]])
            for i, node in enumerate(nodes)
        }
        self._nodes = tuple(nodes)
        self._num_edges = len(us)
        source_ids = None
        if sources is not None:
            source_set = frozenset(sources)
            for s in source_set:
                if s not in self._succ:
                    raise MissingNodeError(s)
            source_ids = sorted(index[s] for s in source_set)
        compiled = CompiledGraph.from_tables(
            n=len(nodes),
            out_offsets=out_offsets,
            out_targets=out_targets,
            in_offsets=in_offsets,
            in_sources=in_sources,
            source_ids=source_ids,
            nodes=self._nodes,
            graph=self,
            levels=levels,
        )
        if sources is None:
            source_set = frozenset(self._nodes[i] for i in compiled.source_ids)
        self._sources = source_set
        # Whether the source set was *given* (vs defaulted to in-degree-0
        # nodes).  Derived-graph constructors preserve explicit sources but
        # re-default defaulted ones, so edge edits can promote new roots.
        self._sources_explicit = sources is not None
        self._topo_cache = None
        self._is_dag_cache = compiled.is_dag
        self._compiled_cache = compiled

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def sources(self) -> frozenset[Node]:
        """The item-generating nodes."""
        return self._sources

    @property
    def sources_explicit(self) -> bool:
        """True when the source set was given explicitly at construction.

        Defaulted sources (the in-degree-zero nodes) are a *derived*
        property: graphs built from this one by edge edits re-derive them
        instead of pinning this graph's roots.  Explicit sources are part
        of the graph's identity and are carried over.
        """
        return self._sources_explicit

    def nodes(self) -> tuple[Node, ...]:
        """All nodes, in insertion order (stable across runs)."""
        return self._nodes

    def edges(self) -> Iterator[Edge]:
        """Iterate over all ``(u, v)`` edges in insertion order."""
        for u in self._nodes:
            for v in self._succ[u]:
                yield (u, v)

    def successors(self, node: Node) -> tuple[Node, ...]:
        """Out-neighbours of ``node`` (the nodes it relays items to)."""
        try:
            return self._succ[node]
        except KeyError:
            raise MissingNodeError(node) from None

    def predecessors(self, node: Node) -> tuple[Node, ...]:
        """In-neighbours of ``node`` (the nodes it receives items from)."""
        try:
            return self._pred[node]
        except KeyError:
            raise MissingNodeError(node) from None

    def in_degree(self, node: Node) -> int:
        """Number of incoming edges of ``node`` (``din`` in the paper)."""
        return len(self.predecessors(node))

    def out_degree(self, node: Node) -> int:
        """Number of outgoing edges of ``node`` (``dout`` in the paper)."""
        return len(self.successors(node))

    def number_of_nodes(self) -> int:
        return len(self._nodes)

    def number_of_edges(self) -> int:
        return self._num_edges

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._succ and v in self._succ[u]

    def has_node(self, node: Node) -> bool:
        return node in self._succ

    def __contains__(self, node: object) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CGraph(n={self.number_of_nodes()}, m={self.number_of_edges()}, "
            f"sources={len(self._sources)})"
        )

    # ------------------------------------------------------------------
    # Derived node families
    # ------------------------------------------------------------------

    def sinks(self) -> tuple[Node, ...]:
        """Nodes with no outgoing edges."""
        return tuple(v for v in self._nodes if not self._succ[v])

    def merge_nodes(self) -> tuple[Node, ...]:
        """Non-sink nodes with in-degree greater than one.

        Proposition 1 of the paper: placing a filter on *every* merge node
        (and nowhere else) is the unique minimal filter set achieving the
        maximum objective value ``F(V)``.
        """
        return tuple(
            v
            for v in self._nodes
            if len(self._pred[v]) > 1 and self._succ[v]
        )

    # ------------------------------------------------------------------
    # Structure queries (cached because the graph is immutable)
    # ------------------------------------------------------------------

    def is_dag(self) -> bool:
        """True when the graph has no directed cycle."""
        if self._is_dag_cache is None:
            self._is_dag_cache = self._compute_topological_order() is not None
        return self._is_dag_cache

    def topological_order(self) -> tuple[Node, ...]:
        """A topological order of the nodes.

        Raises
        ------
        GraphStructureError
            If the graph contains a directed cycle.
        """
        order = self._compute_topological_order()
        if order is None:
            from repro.exceptions import CyclicGraphError

            raise CyclicGraphError("graph contains a directed cycle")
        return order

    def _compute_topological_order(self) -> tuple[Node, ...] | None:
        if self._topo_cache is not None:
            return self._topo_cache
        if self._is_dag_cache is False:
            return None
        indeg = {v: len(self._pred[v]) for v in self._nodes}
        stack = [v for v in self._nodes if indeg[v] == 0]
        order: list[Node] = []
        while stack:
            v = stack.pop()
            order.append(v)
            for u in self._succ[v]:
                indeg[u] -= 1
                if indeg[u] == 0:
                    stack.append(u)
        if len(order) != len(self._nodes):
            self._is_dag_cache = False
            return None
        self._topo_cache = tuple(order)
        self._is_dag_cache = True
        return self._topo_cache

    def compiled(self) -> "Any":
        """The graph's :class:`~repro.graphs.compiled.CompiledGraph` view.

        Built with the graph, from the same CSR tables, and shared by
        every layer that sweeps it (safe because the graph is
        immutable).  Derived graphs (:meth:`subgraph`, :meth:`reversed`,
        :meth:`without_edges`, ...) are new objects with their own
        build; a stale plan can never leak across a structural change.
        """
        return self._compiled_cache

    # ------------------------------------------------------------------
    # Constructive operations (return new graphs)
    # ------------------------------------------------------------------

    def with_sources(self, sources: Iterable[Node]) -> "CGraph":
        """A copy of this graph with a different designated source set."""
        return CGraph(self.edges(), nodes=self._nodes, sources=sources)

    def subgraph(self, keep: Iterable[Node]) -> "CGraph":
        """The induced subgraph on ``keep``.

        If this graph's sources were explicit, the result keeps the
        retained ones (defaulting to in-degree-zero nodes only when none
        survive).  Defaulted sources are re-derived on the subgraph, so a
        node whose last in-edge was cut becomes a source instead of the
        parent graph's roots being pinned.
        """
        keep_set = set(keep)
        for node in keep_set:
            if node not in self._succ:
                raise MissingNodeError(node)
        edges = [
            (u, v) for u, v in self.edges() if u in keep_set and v in keep_set
        ]
        surviving_sources = (
            self._sources & keep_set if self._sources_explicit else frozenset()
        )
        return CGraph(
            edges,
            nodes=keep_set,
            sources=surviving_sources if surviving_sources else None,
        )

    def reversed(self) -> "CGraph":
        """The graph with every edge direction flipped.

        The sources of the reversed graph default to its in-degree-zero
        nodes (the sinks of this graph).
        """
        return CGraph(
            ((v, u) for u, v in self.edges()), nodes=self._nodes
        )

    def without_edges(self, drop: Iterable[Edge]) -> "CGraph":
        """A copy of this graph with the edges in ``drop`` removed.

        Explicit sources are preserved; defaulted sources are re-derived,
        so a node that loses its last in-edge is promoted to a source
        rather than left orphaned by the parent's pinned root set.
        """
        drop_set = set(drop)
        for u, v in drop_set:
            if not self.has_edge(u, v):
                raise GraphStructureError(
                    f"cannot drop missing edge {u!r} -> {v!r}"
                )
        kept_sources = self._sources if self._sources_explicit else None
        return CGraph(
            (e for e in self.edges() if e not in drop_set),
            nodes=self._nodes,
            sources=kept_sources,
        )

    def with_edges(self, add: Iterable[Edge]) -> "CGraph":
        """A copy of this graph with the edges in ``add`` inserted.

        Explicit sources are preserved; defaulted sources are re-derived,
        so a root gaining its first in-edge stops being a source.
        """
        new_edges = list(self.edges())
        new_edges.extend(add)
        kept_sources = self._sources if self._sources_explicit else None
        graph = CGraph(new_edges, nodes=self._nodes, sources=kept_sources)
        return graph

    # ------------------------------------------------------------------
    # Interoperability
    # ------------------------------------------------------------------

    def to_networkx(self) -> "Any":
        """Convert to a :class:`networkx.DiGraph`.

        Source membership is recorded in the ``source`` node attribute so a
        round-trip through :meth:`from_networkx` is lossless.
        """
        import networkx as nx

        g = nx.DiGraph()
        for node in self._nodes:
            g.add_node(node, source=node in self._sources)
        g.add_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, graph: "Any") -> "CGraph":
        """Build a :class:`CGraph` from a :class:`networkx.DiGraph`.

        Nodes flagged with a truthy ``source`` attribute become sources; if
        no node carries the attribute, sources default to in-degree-zero
        nodes.
        """
        flagged = [
            node
            for node, data in graph.nodes(data=True)
            if data.get("source", False)
        ]
        return cls(
            graph.edges(),
            nodes=graph.nodes(),
            sources=flagged if flagged else None,
        )

    def single_source(self) -> Node:
        """Return the unique source, or raise.

        Raises
        ------
        MissingSourceError
            If the graph has no source.
        ParameterError
            If the graph has more than one source (the caller should use
            :func:`repro.graphs.ensure_single_source` first).
        """
        if not self._sources:
            raise MissingSourceError("graph has no source node")
        if len(self._sources) > 1:
            raise ParameterError(
                f"graph has {len(self._sources)} sources; expected exactly one"
            )
        return next(iter(self._sources))
