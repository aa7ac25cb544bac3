"""The per-edge c-graph build, kept as the oracle of ``CGraph``.

``CGraph(edges)`` interns its edges and fills itself, compiled view
included, from the one CSR table build every edge-list reader uses.
This is the build it had before: a per-edge dict-and-set loop, then a
per-node compile with its own Kahn levelization.  Both must give the
same nodes, adjacency order, sources and compiled tables, with their
container and element types, or raise the same first fault.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable

from repro.exceptions import GraphStructureError, MissingNodeError
from repro.graphs.cgraph import CGraph, Edge, Node
from repro.graphs.compiled import CompiledGraph


class PerEdgeCGraph(CGraph):
    """A :class:`CGraph` built one edge at a time and compiled node by
    node on first :meth:`compiled` call."""

    __slots__ = ()

    def __init__(
        self,
        edges: Iterable[Edge] = (),
        *,
        nodes: Iterable[Node] = (),
        sources: Iterable[Node] | None = None,
    ) -> None:
        succ: dict[Node, list[Node]] = {}
        pred: dict[Node, list[Node]] = {}
        seen: set[Edge] = set()

        def ensure(node: Node) -> None:
            if node not in succ:
                succ[node] = []
                pred[node] = []

        for u, v in edges:
            if u == v:
                raise GraphStructureError(
                    f"self-loop {u!r} -> {v!r} is not allowed in a c-graph"
                )
            if (u, v) in seen:
                raise GraphStructureError(f"duplicate edge {u!r} -> {v!r}")
            seen.add((u, v))
            ensure(u)
            ensure(v)
            succ[u].append(v)
            pred[v].append(u)

        for node in nodes:
            ensure(node)

        self._succ: dict[Node, tuple[Node, ...]] = {
            u: tuple(vs) for u, vs in succ.items()
        }
        self._pred: dict[Node, tuple[Node, ...]] = {
            v: tuple(us) for v, us in pred.items()
        }
        self._nodes: tuple[Node, ...] = tuple(self._succ)
        self._num_edges = len(seen)

        if sources is None:
            source_set = frozenset(
                node for node in self._nodes if not self._pred[node]
            )
        else:
            source_set = frozenset(sources)
            for s in source_set:
                if s not in self._succ:
                    raise MissingNodeError(s)
        self._sources: frozenset[Node] = source_set
        # Whether the source set was *given* (vs defaulted to in-degree-0
        # nodes).  Derived-graph constructors preserve explicit sources but
        # re-default defaulted ones, so edge edits can promote new roots.
        self._sources_explicit: bool = sources is not None
        self._topo_cache: tuple[Node, ...] | None = None
        self._is_dag_cache: bool | None = None
        self._compiled_cache = None

    def compiled(self) -> CompiledGraph:
        """The per-node compile of this graph, built on first access."""
        if self._compiled_cache is None:
            self._compiled_cache = compile_per_node(self)
        return self._compiled_cache


def compile_per_node(graph: CGraph) -> CompiledGraph:
    """A :class:`CompiledGraph` of ``graph``, built from its adjacency
    dicts with every view eager and a Python Kahn levelization."""
    self = object.__new__(CompiledGraph)
    nodes = graph.nodes()
    n = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}

    succ_ids: tuple[tuple[int, ...], ...] = tuple(
        tuple(index[c] for c in graph.successors(v)) for v in nodes
    )
    pred_lists: list[list[int]] = [[] for _ in range(n)]
    for u, children in enumerate(succ_ids):
        for c in children:
            pred_lists[c].append(u)
    pred_ids: tuple[tuple[int, ...], ...] = tuple(
        tuple(ps) for ps in pred_lists
    )
    out_degree = [len(s) for s in succ_ids]
    in_degree = [len(p) for p in pred_ids]

    out_offsets = [0] * (n + 1)
    for i in range(n):
        out_offsets[i + 1] = out_offsets[i] + out_degree[i]
    out_targets = [c for children in succ_ids for c in children]
    in_offsets = [0] * (n + 1)
    for i in range(n):
        in_offsets[i + 1] = in_offsets[i] + in_degree[i]
    in_sources = [u for parents in pred_ids for u in parents]

    self._graph_ref = weakref.ref(graph)
    self.n = n
    self.m = len(out_targets)
    self.nodes = nodes
    self._index = index
    self._succ_ids = succ_ids
    self._pred_ids = pred_ids
    self._mapped = {}
    self.out_offsets = out_offsets
    self.out_targets = out_targets
    self.in_offsets = in_offsets
    self.in_sources = in_sources
    self.out_degree = out_degree
    self.in_degree = in_degree
    self._in_pos_of_out = None
    self._edge_prob_cache = None
    self._source_mark = None
    self._reach_counts = None
    self.source_ids = tuple(sorted(index[s] for s in graph.sources))
    self.sink_ids = tuple(i for i in range(n) if not out_degree[i])
    self.merge_ids = tuple(
        i for i in range(n) if in_degree[i] > 1 and out_degree[i]
    )

    # Kahn by wavefronts: a node becomes ready in the round equal to
    # its longest-path distance from any root, so one pass levelizes
    # and cycle-checks simultaneously.  Levels are sorted by id so the
    # resulting topological order is deterministic and id-monotone
    # within a level.
    indeg = in_degree[:]
    depth = [0] * n
    frontier = [i for i in range(n) if not indeg[i]]
    levels: list[list[int]] = []
    processed = 0
    level = 0
    while frontier:
        frontier.sort()
        levels.append(frontier)
        processed += len(frontier)
        ready: list[int] = []
        for v in frontier:
            depth[v] = level
            for child in succ_ids[v]:
                indeg[child] -= 1
                if not indeg[child]:
                    ready.append(child)
        frontier = ready
        level += 1

    self.is_dag = processed == n
    if self.is_dag:
        topo_order: list[int] = []
        level_offsets = [0]
        for members in levels:
            topo_order.extend(members)
            level_offsets.append(len(topo_order))
        topo_index = [0] * n
        for pos, v in enumerate(topo_order):
            topo_index[v] = pos
        self.num_levels = len(levels)
        self._topo_order = tuple(topo_order)
        self._topo_index = topo_index
        self._depth = depth
        self._level_offsets = level_offsets
    else:
        self.num_levels = 0
        self._topo_order = None
        self._topo_index = None
        self._depth = None
        self._level_offsets = None
    return self
