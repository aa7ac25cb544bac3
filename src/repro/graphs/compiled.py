"""The compile-once graph core: interned node ids + shared CSR plans.

Every quantity the placement layers compute — ``Φ`` evaluations, marginal
gains, plists, incremental sessions — is a topological sweep over the same
c-graph, yet historically each layer re-derived its own view of it: the
exact engine walked dict-of-tuples adjacency, the NumPy backend built a
private CSR plan, the incremental sessions built their own topo index
maps, and the service warmed one plan per backend.  :class:`CompiledGraph`
replaces all of that with **one** frozen, integer-interned view, built from
CSR tables (:meth:`CompiledGraph.from_tables`) with every immutable
:class:`~repro.graphs.cgraph.CGraph` and held by it
(:meth:`~repro.graphs.cgraph.CGraph.compiled`).

Layout
------
Nodes are *interned*: node ``i`` is ``nodes[i]`` and ``index[node] = i``,
with ``i`` running in ``graph.nodes()`` insertion order — the canonical
cross-backend order every tie-break and serialization already uses, so an
index compare *is* a rank compare.  On top of the tables sit:

* ``succ_ids`` / ``pred_ids`` — adjacency as tuples of int tuples, the
  pure-python sweeps' hot-path representation (no hashing, no dict
  traffic);
* ``out_offsets``/``out_targets`` and ``in_offsets``/``in_sources`` —
  the same adjacency as forward and reverse CSR arrays (plain lists), the
  zero-ceremony substrate the NumPy backend's plan adapts;
* ``out_degree`` / ``in_degree`` — degree arrays;
* ``source_ids`` / ``sink_ids`` / ``merge_ids`` — the derived node
  families as ascending index tuples;
* ``topo_order`` / ``topo_index`` / ``depth`` / ``level_offsets`` — a
  cached topological order **partitioned into levels**: ``depth[i]`` is
  the longest-path distance from any root, ``topo_order`` lists node ids
  sorted by ``(depth, id)``, and level ``L`` occupies
  ``topo_order[level_offsets[L]:level_offsets[L + 1]]``.  Every edge
  crosses strictly upward in depth, which is exactly the property the
  levelized vectorized sweeps need.

Cyclic graphs still compile — the structural tables (CSR, degrees,
sources) are well-defined and cheap — but ``is_dag`` is False and the
topological accessors raise :class:`~repro.exceptions.CyclicGraphError`,
mirroring :meth:`CGraph.topological_order`.

A :class:`CGraph`'s tables are plain lists, tuples and dicts, so the
exact python path works — and is tested — in environments without
NumPy.  The end of the module holds the interning and CSR builds that
every :class:`CGraph` (built in code or by
:func:`repro.graphs.io.read_edge_list`) and the scale tier's streamed
compilers (:mod:`repro.graphs.largescale`) share: NumPy sorts when it
is importable, a pure-python build with the same results otherwise.
Every integer sort of those builds, and of the warm paths that read
the tables, goes through :func:`stable_order`, a radix sort on 16-bit
digits.
"""

from __future__ import annotations

import sys
import weakref
from array import array
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, Hashable

from repro.exceptions import (
    CyclicGraphError,
    GraphStructureError,
    MissingEdgeError,
    MissingNodeError,
    ParameterError,
)

try:  # interning and CSR sorts; every build works without it.
    import numpy as _np
except Exception:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Mapping

    from repro.graphs.cgraph import CGraph

Node = Hashable


class EdgeProbabilities:
    """Relay probabilities aligned to one compiled graph's CSR arrays.

    The probabilistic layer's compiled substrate: ``out_probs[e]`` is the
    relay probability of the edge at forward-CSR position ``e`` (the edge
    ``u → out_targets[e]`` with ``u`` given by the offsets), and
    ``in_probs[f]`` the same probabilities in reverse-CSR order.  Built
    once per probability spec and cached on the :class:`CompiledGraph`
    (:meth:`CompiledGraph.edge_probabilities`), so Monte-Carlo samplers
    never re-derive per-edge lookups trial by trial.

    ``unit`` is True when every probability is exactly 1 — the
    deterministic fast path, which the model layer collapses before any
    sampling happens.
    """

    __slots__ = ("out_probs", "in_probs", "unit", "uniform")

    def __init__(
        self,
        out_probs: list[float],
        in_probs: list[float],
        *,
        uniform: float | None,
    ) -> None:
        self.out_probs = out_probs
        self.in_probs = in_probs
        self.uniform = uniform
        self.unit = all(p >= 1.0 for p in out_probs)

    def nbytes(self) -> int:
        """Shallow container memory of the probability tables, in bytes."""
        return sys.getsizeof(self.out_probs) + sys.getsizeof(self.in_probs)


class CompiledGraph:
    """A frozen, integer-interned view of one :class:`CGraph`.

    Instances are built from CSR tables (:meth:`from_tables`), once per
    graph, and shared by every consumer — the propagation engines, both
    backends, the incremental gain sessions, the placement algorithms
    and the service's resident-graph store.  All attributes are set at
    construction and must never be mutated; the arrays are plain lists
    only because CPython indexes them fastest.
    """

    __slots__ = (
        "_graph_ref",
        "n",
        "m",
        "nodes",
        "_index",
        "_succ_ids",
        "_pred_ids",
        "_mapped",
        "out_offsets",
        "out_targets",
        "in_offsets",
        "in_sources",
        "out_degree",
        "in_degree",
        "source_ids",
        "sink_ids",
        "merge_ids",
        "is_dag",
        "num_levels",
        "_topo_order",
        "_topo_index",
        "_depth",
        "_level_offsets",
        "_in_pos_of_out",
        "_edge_prob_cache",
        "_source_mark",
        "_reach_counts",
    )

    @property
    def graph(self) -> "CGraph | None":
        """The source graph (weakly referenced; None once it is gone)."""
        return self._graph_ref()

    # ------------------------------------------------------------------
    # Lazily materialized python-object views
    #
    # The dict index and the tuple-of-tuples adjacency are the pure
    # python sweeps' hot representations, but at the scale tier's node
    # counts they cost hundreds of MB of boxed objects — so every
    # compiled graph defers them until something actually walks the
    # python path.
    # ------------------------------------------------------------------

    @property
    def index(self) -> dict:
        """``index[node] = id`` — the interning map."""
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self.nodes)}
        return self._index

    @property
    def succ_ids(self) -> tuple:
        """Adjacency as tuples of int tuples (successor direction)."""
        if self._succ_ids is None:
            self._succ_ids = _split_table(self.out_offsets, self.out_targets)
        return self._succ_ids

    @property
    def pred_ids(self) -> tuple:
        """Adjacency as tuples of int tuples (predecessor direction)."""
        if self._pred_ids is None:
            self._pred_ids = _split_table(self.in_offsets, self.in_sources)
        return self._pred_ids

    # ------------------------------------------------------------------
    # Construction from CSR tables (the one entry point)
    # ------------------------------------------------------------------

    @classmethod
    def from_tables(
        cls,
        *,
        n: int,
        out_offsets,
        out_targets,
        in_offsets,
        in_sources,
        source_ids=None,
        nodes=None,
        graph=None,
        levels=None,
        mapped=None,
    ) -> "CompiledGraph":
        """Build a compiled graph directly from CSR tables.

        Every :class:`CGraph`, the streamed loaders and the ``.fpc``
        on-disk format construct graphs here without ever materializing
        a python edge list.  The tables may be any
        integer sequences — plain lists, ``array`` arrays, NumPy arrays,
        or ``np.memmap`` views; the python-object views (:attr:`index`,
        :attr:`succ_ids`, :attr:`pred_ids`) materialize lazily.

        ``source_ids`` are ascending Python ints, or None for the
        in-degree-zero nodes.  ``nodes`` defaults to ``range(n)``
        (interned ids are their own user nodes).  ``levels`` optionally
        supplies :func:`levelize_csr`'s result computed elsewhere — its
        ``(topo_order, topo_index, depth, level_offsets)`` tuple, or
        False for a cyclic graph; otherwise :func:`levelize_csr` runs
        here.  ``mapped`` names memory-mapped tables (``{attr: nbytes}``)
        so :meth:`nbytes` charges them to the mapped pool, not the
        resident one.
        """
        self = object.__new__(cls)
        # Weak back-reference only: the graph already holds this object
        # strongly, and a strong .graph would turn that into a refcount
        # cycle reclaimable only by the cyclic GC — delaying eviction of
        # large service-resident graphs.
        self._graph_ref = (
            weakref.ref(graph) if graph is not None else _no_graph
        )
        self.n = n
        self.m = len(out_targets)
        self.nodes = range(n) if nodes is None else nodes
        self._index = None
        self._succ_ids = None
        self._pred_ids = None
        self._mapped = dict(mapped) if mapped else {}
        self.out_offsets = out_offsets
        self.out_targets = out_targets
        self.in_offsets = in_offsets
        self.in_sources = in_sources
        out_degree, in_degree = _csr_degrees(
            n, out_offsets, in_offsets
        )
        self.out_degree = out_degree
        self.in_degree = in_degree
        self._in_pos_of_out = None
        self._edge_prob_cache = None
        self._source_mark = None
        self._reach_counts = None
        if type(out_degree).__module__.startswith("numpy"):
            if source_ids is None:
                source_ids = (in_degree == 0).nonzero()[0].tolist()
            self.sink_ids = tuple((out_degree == 0).nonzero()[0].tolist())
            self.merge_ids = tuple(
                ((in_degree > 1) & (out_degree > 0)).nonzero()[0].tolist()
            )
        else:
            if source_ids is None:
                source_ids = [i for i in range(n) if not in_degree[i]]
            self.sink_ids = tuple(
                i for i in range(n) if not out_degree[i]
            )
            self.merge_ids = tuple(
                i
                for i in range(n)
                if in_degree[i] > 1 and out_degree[i]
            )
        self.source_ids = tuple(source_ids)
        if levels is None:
            levels = levelize_csr(n, out_offsets, out_targets, in_degree)
        if not levels:
            self.is_dag = False
            self.num_levels = 0
            self._topo_order = None
            self._topo_index = None
            self._depth = None
            self._level_offsets = None
        else:
            topo_order, topo_index, depth, level_offsets = levels
            self.is_dag = True
            self.num_levels = len(level_offsets) - 1
            self._topo_order = topo_order
            self._topo_index = topo_index
            self._depth = depth
            self._level_offsets = level_offsets
        return self

    # ------------------------------------------------------------------
    # Topological accessors (DAG-only)
    # ------------------------------------------------------------------

    def _require_dag(self) -> None:
        if not self.is_dag:
            raise CyclicGraphError("graph contains a directed cycle")

    @property
    def topo_order(self) -> tuple[int, ...]:
        """Node ids sorted by ``(depth, id)`` — a topological order."""
        self._require_dag()
        return self._topo_order

    @property
    def topo_index(self) -> list[int]:
        """``topo_index[i]``: position of node ``i`` in :attr:`topo_order`."""
        self._require_dag()
        return self._topo_index

    @property
    def depth(self) -> list[int]:
        """``depth[i]``: longest-path distance of node ``i`` from any root."""
        self._require_dag()
        return self._depth

    @property
    def level_offsets(self) -> list[int]:
        """Level partition of :attr:`topo_order` (``num_levels + 1`` entries)."""
        self._require_dag()
        return self._level_offsets

    def level_members(self, level: int) -> Sequence[int]:
        """The node ids of one level, ascending."""
        offsets = self.level_offsets
        return self._topo_order[offsets[level]:offsets[level + 1]]

    # ------------------------------------------------------------------
    # Id ↔ node translation (the compiled/user boundary)
    # ------------------------------------------------------------------

    def to_id(self, node: Node) -> int:
        """The interned id of ``node``; raises :class:`MissingNodeError`."""
        try:
            return self.index[node]
        except (KeyError, TypeError):
            raise MissingNodeError(node) from None

    def to_node(self, node_id: int) -> Node:
        """The user node behind an interned id."""
        return self.nodes[node_id]

    def to_ids(self, nodes: Iterable[Node]) -> list[int]:
        """Intern a collection of user nodes (validating membership)."""
        return [self.to_id(v) for v in nodes]

    def to_nodes(self, ids: Iterable[int]) -> list[Node]:
        """Translate interned ids back to user nodes."""
        nodes = self.nodes
        return [nodes[i] for i in ids]

    def filter_mask(self, filter_ids: Iterable[int]) -> bytearray:
        """A dense 0/1 membership mask over node ids (``bytearray`` for
        the fastest pure-python indexing).

        Ids are range-checked: a negative id would otherwise wrap to the
        end of the mask (Python indexing) and silently filter the wrong
        node.
        """
        n = self.n
        mask = bytearray(n)
        for i in filter_ids:
            if not 0 <= i < n:
                raise MissingNodeError(i)
            mask[i] = 1
        return mask

    # ------------------------------------------------------------------
    # Bit-packed source reachability (the aggregate-sweep substrate)
    # ------------------------------------------------------------------

    def source_mark(self) -> bytearray:
        """A dense 0/1 mask over ids marking the designated sources.

        Cached: the aggregate sweeps read it per node per evaluation
        (the ``bonus`` term of the totals recurrence), so a bytearray
        index beats a set probe on the hot path.
        """
        if self._source_mark is None:
            mark = bytearray(self.n)
            for s in self.source_ids:
                mark[s] = 1
            self._source_mark = mark
        return self._source_mark

    def reach_counts(self) -> list[int]:
        """``nreach[v]``: sources with a ≥1-edge path to ``v`` (cached).

        Exactly ``#{s : ψ_s(v) > 0}``: reachability is independent of
        the filter set (a filter always forwards at least one copy of
        anything it receives), so this is a per-graph constant the
        aggregate gain formulas consume.

        Built by the one reach entry point,
        :func:`repro.propagation.reach.warm_reach_counts` (the NumPy
        plane when available, traced and counted), which caches the
        result on this graph.
        """
        if self._reach_counts is None:
            from repro.propagation import reach

            return reach.warm_reach_counts(self)
        return self._reach_counts

    # ------------------------------------------------------------------
    # Edge probabilities (the probabilistic-model substrate)
    # ------------------------------------------------------------------

    def in_pos_of_out(self) -> list[int]:
        """Map each forward-CSR edge position to its reverse-CSR position.

        Both CSR directions were built by one ascending scan over
        ``succ_ids``, so the mapping is a single replay of that scan.
        Cached: the Monte-Carlo samplers use it to translate live-edge
        masks (sampled in canonical forward order) to the reverse
        direction the ``W`` sweeps walk.
        """
        if self._in_pos_of_out is None:
            fill = list(self.in_offsets[:-1])
            mapping = [0] * self.m
            pos = 0
            for children in self.succ_ids:
                for c in children:
                    mapping[pos] = fill[c]
                    fill[c] += 1
                    pos += 1
            self._in_pos_of_out = mapping
        return self._in_pos_of_out

    def edge_probabilities(
        self,
        probabilities: "float | Mapping[tuple[Node, Node], float]" = 1.0,
        *,
        key: "object | None" = None,
    ) -> EdgeProbabilities:
        """Relay probabilities compiled to CSR-aligned arrays (cached).

        ``probabilities`` is a single float or an edge-keyed mapping
        (missing edges default to 1).  Mapping entries are validated
        here — the first point where the spec meets a graph: an edge the
        graph does not contain raises :class:`MissingEdgeError`, a value
        outside ``[0, 1]`` raises ParameterError.

        ``key`` is an optional hashable cache key for the spec (the model
        layer passes
        :meth:`repro.propagation.model.PropagationModel.probabilities_key`);
        uniform floats are self-keying.  Cached arrays are charged to
        :meth:`nbytes`.
        """
        from collections.abc import Mapping as _Mapping

        if key is None:
            if isinstance(probabilities, _Mapping):
                key = (
                    "map",
                    tuple(
                        sorted(
                            ((repr(u), repr(v)), float(p))
                            for (u, v), p in probabilities.items()
                        )
                    ),
                )
            else:
                key = ("uniform", float(probabilities))
        cache = self._edge_prob_cache
        if cache is None:
            cache = self._edge_prob_cache = {}
        cached = cache.get(key)
        if cached is not None:
            return cached

        m = self.m
        if isinstance(probabilities, _Mapping):
            index = self.index
            succ = self.succ_ids
            out_probs = [1.0] * m
            offsets = self.out_offsets
            for (u, v), p in probabilities.items():
                p = float(p)
                if not 0.0 <= p <= 1.0:
                    raise ParameterError(
                        f"edge probability {p!r} outside [0, 1]"
                    )
                ui = index.get(u)
                vi = index.get(v)
                if ui is None or vi is None or vi not in succ[ui]:
                    raise MissingEdgeError((u, v))
                out_probs[offsets[ui] + succ[ui].index(vi)] = p
            uniform = None
        else:
            p = float(probabilities)
            if not 0.0 <= p <= 1.0:
                raise ParameterError(f"edge probability {p!r} outside [0, 1]")
            out_probs = [p] * m
            uniform = p
        in_probs = [1.0] * m
        for out_pos, in_pos in enumerate(self.in_pos_of_out()):
            in_probs[in_pos] = out_probs[out_pos]
        probs = EdgeProbabilities(out_probs, in_probs, uniform=uniform)
        cache[key] = probs
        return probs

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def nbytes(self) -> int:
        """Resident container memory of the compiled tables, in bytes.

        Memory-mapped tables (a ``.fpc``-loaded graph's CSR and topo
        arrays) are *excluded* — they are backed by the page cache, not
        this process's heap, and charging them here made
        ``/graphs/{digest}/stats`` and the ``compile`` bench suite
        overstate memory by the on-disk graph size.  Use
        :meth:`mapped_nbytes` / :meth:`nbytes_split` for the full
        picture.  Lazily materialized views (:attr:`succ_ids`, …) are
        charged only once built.
        """
        return self.nbytes_split()["resident"]

    def mapped_nbytes(self) -> int:
        """Bytes of memory-mapped (on-disk backed) tables."""
        return sum(self._mapped.values())

    def nbytes_split(self) -> dict[str, int]:
        """Memory accounting as ``{"resident": ..., "mapped": ...}``.

        Resident sums ``sys.getsizeof`` over python containers and
        ``.nbytes`` over in-heap NumPy arrays (including the per-node
        adjacency tuples and the cached extras); the interned ints
        themselves are shared objects and deliberately not charged.
        Tables registered as mapped at :meth:`from_tables` time are
        charged to the mapped pool at their on-disk size instead.
        """
        mapped_names = self._mapped
        resident = 0
        for name in (
            "nodes",
            "out_offsets",
            "out_targets",
            "in_offsets",
            "in_sources",
            "out_degree",
            "in_degree",
        ):
            if name not in mapped_names:
                resident += _table_nbytes(getattr(self, name))
        resident += _table_nbytes(self.source_ids)
        resident += _table_nbytes(self.sink_ids)
        resident += _table_nbytes(self.merge_ids)
        if self._index is not None:
            resident += sys.getsizeof(self._index)
        if self._succ_ids is not None:
            resident += sys.getsizeof(self._succ_ids)
            resident += sum(sys.getsizeof(t) for t in self._succ_ids)
        if self._pred_ids is not None:
            resident += sys.getsizeof(self._pred_ids)
            resident += sum(sys.getsizeof(t) for t in self._pred_ids)
        if self._in_pos_of_out is not None:
            resident += _table_nbytes(self._in_pos_of_out)
        if self._source_mark is not None:
            resident += sys.getsizeof(self._source_mark)
        if self._reach_counts is not None:
            resident += _table_nbytes(self._reach_counts)
        if self._edge_prob_cache:
            resident += sum(
                probs.nbytes() for probs in self._edge_prob_cache.values()
            )
        if self.is_dag:
            for name in (
                "_topo_order",
                "_topo_index",
                "_depth",
                "_level_offsets",
            ):
                if name.lstrip("_") not in mapped_names:
                    resident += _table_nbytes(getattr(self, name))
        return {"resident": resident, "mapped": self.mapped_nbytes()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledGraph(n={self.n}, m={self.m}, "
            f"sources={len(self.source_ids)}, dag={self.is_dag})"
        )


def _no_graph() -> None:
    """Stand-in weakref for table-built graphs with no source object."""
    return None


def _table_nbytes(obj) -> int:
    """Bytes of one table: ``.nbytes`` for array-likes, else getsizeof."""
    if obj is None:
        return 0
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    return sys.getsizeof(obj)


def _split_table(offsets, table) -> tuple:
    """``table`` cut at ``offsets`` into one tuple of Python ints per node.

    Lists, tuples and ``array`` tables are sliced as they are, with no
    ``int()`` per element; NumPy tables convert once with ``tolist``.
    """
    if type(offsets).__module__.startswith("numpy"):
        offsets = offsets.tolist()
    if type(table).__module__.startswith("numpy"):
        table = table.tolist()
    return tuple(
        tuple(table[a:b]) for a, b in zip(offsets, offsets[1:])
    )


def _csr_degrees(n: int, out_offsets, in_offsets):
    """Degree arrays from CSR offsets — vectorized when they are NumPy."""
    if type(out_offsets).__module__.startswith("numpy"):
        return (
            out_offsets[1:] - out_offsets[:-1],
            in_offsets[1:] - in_offsets[:-1],
        )
    return (
        [out_offsets[i + 1] - out_offsets[i] for i in range(n)],
        [in_offsets[i + 1] - in_offsets[i] for i in range(n)],
    )


def levelize_csr(n: int, out_offsets, out_targets, in_degree):
    """Kahn-by-wavefronts over CSR arrays: every compiled graph's
    levelization.

    Returns ``(topo_order, topo_index, depth, level_offsets)`` — levels
    sorted ascending by id, ``depth`` the longest-path distance — or
    None when the graph is cyclic.  Runs a per-level vectorized pass
    when the tables are NumPy arrays (every build with NumPy present)
    and a plain python sweep otherwise.
    """
    if _np is not None and type(out_targets).__module__.startswith("numpy"):
        np = _np
        indeg = np.asarray(in_degree, dtype=np.int64).copy()
        off = np.asarray(out_offsets, dtype=np.int64)
        tgt = np.asarray(out_targets, dtype=np.int64)
        depth = np.zeros(n, dtype=np.int64)
        topo_parts = []
        level_offsets = [0]
        frontier = np.nonzero(indeg == 0)[0]
        indeg[frontier] = -1
        processed = 0
        level = 0
        while len(frontier):
            topo_parts.append(frontier)
            processed += len(frontier)
            depth[frontier] = level
            level_offsets.append(processed)
            lens = off[frontier + 1] - off[frontier]
            total = int(lens.sum())
            if total:
                ends = np.cumsum(lens)
                pos = (
                    np.arange(total, dtype=np.int64)
                    - np.repeat(ends - lens, lens)
                    + np.repeat(off[frontier], lens)
                )
                children = tgt[pos]
                hits = np.bincount(children, minlength=n)
                indeg -= hits
                frontier = np.nonzero(indeg == 0)[0]
                indeg[frontier] = -1
            else:
                frontier = frontier[:0]
            level += 1
        if processed != n:
            return None
        topo_order = (
            np.concatenate(topo_parts)
            if topo_parts
            else np.empty(0, dtype=np.int64)
        )
        topo_index = np.empty(n, dtype=np.int64)
        topo_index[topo_order] = np.arange(n, dtype=np.int64)
        return topo_order, topo_index, depth, level_offsets

    indeg = [int(d) for d in in_degree]
    depth = [0] * n
    frontier = [i for i in range(n) if not indeg[i]]
    topo_order: list[int] = []
    level_offsets = [0]
    processed = 0
    level = 0
    while frontier:
        frontier.sort()
        topo_order.extend(frontier)
        processed += len(frontier)
        level_offsets.append(processed)
        ready: list[int] = []
        for v in frontier:
            depth[v] = level
            for e in range(out_offsets[v], out_offsets[v + 1]):
                c = int(out_targets[e])
                indeg[c] -= 1
                if not indeg[c]:
                    ready.append(c)
        frontier = ready
        level += 1
    if processed != n:
        return None
    topo_index = [0] * n
    for pos, v in enumerate(topo_order):
        topo_index[v] = pos
    return tuple(topo_order), topo_index, depth, level_offsets


def packed_reach_masks(
    compiled: CompiledGraph,
    pred: "Sequence[Sequence[int]] | None" = None,
) -> list[int]:
    """One bit-packed sweep: which sources reach each node?

    Lane layout: bit ``j`` of ``masks[v]`` is set iff source
    ``source_ids[j]`` (ascending id order) either *is* ``v`` or has a
    path of ≥1 edge to ``v``.  The masks are plain Python ints — an
    unbounded bitset, so any source count works and the sweep stays
    dependency-free; 64-source graphs fit one machine word and the OR
    per edge is a single uint64 operation under the hood.

    The recurrence is ``B(v) = own(v) | OR_{p ∈ pred(v)} B(p)`` over the
    topological order, where ``own(v)`` holds ``v``'s own lane bit.  In
    a DAG a source never reaches itself, so the own bit re-entering
    through a parent is impossible and ``popcount(B(v))`` decomposes as
    ``nreach(v) + [v is a source]`` exactly.

    ``pred`` overrides the predecessor lists (the Monte-Carlo samplers
    pass a live-edge world's pruned adjacency); the default is the
    graph's full ``pred_ids``.  Duplicate parents (multi-edges) are
    harmless: OR is idempotent.
    """
    if pred is None:
        pred = compiled.pred_ids
    own = [0] * compiled.n
    for j, s in enumerate(compiled.source_ids):
        own[s] = 1 << j
    masks = [0] * compiled.n
    for v in compiled.topo_order:
        acc = own[v]
        for p in pred[v]:
            acc |= masks[p]
        masks[v] = acc
    return masks


def packed_reach_counts(
    compiled: CompiledGraph,
    pred: "Sequence[Sequence[int]] | None" = None,
) -> list[int]:
    """``nreach[v]`` — sources with a ≥1-edge path to ``v`` — via one
    bit-packed sweep and a popcount gather.

    The aggregate-formulation primitive: reachability is independent of
    the filter set, so the gain formulas reduce per-source ψ sweeps to
    this count plus one totals sweep (see
    :func:`repro.propagation.engine.aggregate_receipts_ids`).
    """
    mark = compiled.source_mark()
    return [
        m.bit_count() - mark[v]
        for v, m in enumerate(packed_reach_masks(compiled, pred))
    ]


#: Source lanes one blocked-sweep window holds resident.  1024 lanes is
#: 128 bytes of bitset per node per window — small enough that even the
#: million-node rung keeps one window under ~128 MB, large enough that
#: the per-window sweep overhead amortizes.
DEFAULT_REACH_BLOCK = 1024


def blocked_reach_counts(
    compiled: CompiledGraph,
    block: int = DEFAULT_REACH_BLOCK,
) -> list[int]:
    """``nreach`` via a blocked sweep that never holds all masks.

    Sources are swept in windows of ``block`` lanes: each window runs
    the :func:`packed_reach_masks` recurrence restricted to its own
    lanes, popcounts the finished window into an int accumulator, and
    drops the window's masks before the next one starts.  Resident
    memory is O(n·block/8) bits instead of O(n·S/8), and because source
    sets of different windows are disjoint the popcount sums are *exact*
    integer addition — the result is bit-identical to the monolithic
    path for every block size.

    Sources without children reach nothing and never enter a window.
    Each window clears its own source bits before the popcount — a
    source never reaches itself in a DAG — so the counts come out
    without the source mark, as the NumPy engine's do.
    """
    if block < 1:
        raise ParameterError("reach block size must be at least 1")
    out_degree = compiled.out_degree
    sources = [s for s in compiled.source_ids if out_degree[s]]
    n = compiled.n
    order = compiled.topo_order
    pred = compiled.pred_ids
    counts = [0] * n
    for start in range(0, len(sources), block):
        window = sources[start:start + block]
        own = [0] * n
        for j, s in enumerate(window):
            own[s] = 1 << j
        masks = [0] * n
        for v in order:
            acc = own[v]
            for p in pred[v]:
                acc |= masks[p]
            masks[v] = acc
        for s in window:
            masks[s] ^= own[s]
        for v, m in enumerate(masks):
            if m:
                counts[v] += m.bit_count()
    return counts


# ----------------------------------------------------------------------
# Interning and CSR builds (shared by the edge-list readers)
# ----------------------------------------------------------------------

#: int64's range: a per-line int id outside it cannot be a bulk id.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def stable_order(keys, bound: int):
    """The stable ascending order of non-negative integer ``keys`` below
    ``bound``: ``np.argsort(keys, kind="stable")``, as a radix sort.

    NumPy's stable sort of 16-bit keys is a radix sort, many times
    faster than its timsort of wider ones.  The keys are sorted by
    16-bit digits, least significant first: one pass when ``bound``
    fits in 16 bits, one more for each further 16 bits.  Keys that fit
    are cast straight to ``uint16``; wider keys are read a digit at a
    time through a ``uint16`` view, with no shifted or masked copy.
    Callers hold NumPy arrays, so NumPy is imported here, not taken
    from this module's optional handle.
    """
    import numpy as np

    keys = np.asarray(keys)
    width = keys.dtype.itemsize // 2
    passes = min(-(-(int(bound) - 1).bit_length() // 16), width)
    if passes <= 1:
        return np.argsort(keys.astype(np.uint16, copy=False), kind="stable")
    digits = np.ascontiguousarray(
        keys, dtype=keys.dtype.newbyteorder("=")
    ).view(np.uint16).reshape(-1, width)
    if sys.byteorder == "big":
        digits = digits[:, ::-1]
    order = np.argsort(digits[:, 0], kind="stable")
    for d in range(1, passes):
        order = order[np.argsort(digits[order, d], kind="stable")]
    return order


def _unique(keys, bound: int) -> tuple:
    """``np.unique(keys, return_index=True, return_inverse=True)`` of
    non-negative integer ``keys`` below ``bound``, by one
    :func:`stable_order`; the inverse is ``int32``."""
    np = _np
    order = stable_order(keys, bound)
    ordered = keys[order]
    starts = np.empty(len(keys), dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    inverse = np.empty(len(keys), dtype=np.int32)
    inverse[order] = np.cumsum(starts, dtype=np.int32) - 1
    return ordered[starts], order[starts], inverse


def _intern_edges(
    edges: Iterable[tuple[Node, Node]], interned: tuple | None = None
) -> tuple:
    """Intern an edge stream in first-seen ``(u, v)`` order.

    Returns the two ``int32`` endpoint buffers, the node → id index and
    the node list; given such a tuple as ``interned``, extends it in
    place and returns it.  Nothing is checked here: the CSR build
    raises the first self-loop or duplicate edge in edge order.
    """
    if interned is None:
        interned = (array("i"), array("i"), {}, [])
    us, vs, index, node_list = interned
    append_node = node_list.append
    get_id = index.get
    for u, v in edges:
        iu = get_id(u)
        if iu is None:
            iu = index[u] = len(node_list)
            append_node(u)
        iv = get_id(v)
        if iv is None:
            iv = index[v] = len(node_list)
            append_node(v)
        us.append(iu)
        vs.append(iv)
    return interned


def _intern_segments(segments: Iterable) -> tuple:
    """Intern the block scanner's edge segments in first-seen order.

    ``segments`` come in file order: an int64 ``(k, 2)`` array per run
    of plain lines and a ``(u, v)`` tuple list per per-line run.  Each
    list interns through :func:`_intern_edges` as it arrives, so at most
    one segment's tuples are alive at a time; the arrays wait for
    :func:`_intern_mixed`, which interns them and merges the two.
    Nothing is checked here.
    """
    lines = (array("i"), array("i"), {}, [])
    arrays, array_at, lines_at, line_sizes = [], [], [], []
    m = 0
    for segment in segments:
        if type(segment) is list:
            _intern_edges(segment, lines)
            lines_at.append(m)
            line_sizes.append(len(segment))
        else:
            arrays.append(segment)
            array_at.append(m)
        m += len(segment)
    if not arrays:
        return lines
    return _intern_mixed(arrays, array_at, lines, lines_at, line_sizes)


def _flat_positions(starts: list[int], sizes: list[int]):
    """Positions in the file's ``u0 v0 u1 v1 ...`` sequence of the
    endpoints of the segments of ``sizes`` edges starting at edges
    ``starts``, concatenated."""
    np = _np
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    before = np.cumsum(sizes) - sizes
    return np.arange(2 * int(sizes.sum()), dtype=np.int64) + np.repeat(
        2 * (starts - before), 2 * sizes
    )


def _ranks(order):
    """The ``int32`` inverse of the permutation ``order``."""
    np = _np
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    return rank


def _intern_mixed(
    arrays: list,
    array_at: list[int],
    lines: tuple,
    lines_at: list[int],
    line_sizes: list[int],
) -> tuple:
    """Intern int64 edge arrays and merge in the per-line edges.

    The arrays' ``u0 v0 u1 v1 ...`` sequence is copied into one int64
    array, each array dropped from ``arrays`` once copied, and one
    :func:`_unique` over it gives each id's first position; ranking the
    ids by it (one :func:`stable_order`) is the first-seen order, and
    the rank remap gives the ``int32`` endpoint buffers.  ``lines`` are
    the per-line edges as :func:`_intern_edges` interned them, from
    segments of ``line_sizes`` edges starting at edges ``lines_at``
    (the arrays start at edges ``array_at``).  With any, each node's
    first position in the file orders the two node sets into one; a
    per-line int that is also a bulk id (``source 12`` after ``12 10``)
    keeps the earlier of its two positions.
    """
    np = _np
    sizes = [len(a) for a in arrays]
    flat = np.empty(2 * sum(sizes), dtype=np.int64)
    at = 0
    for i, size in enumerate(sizes):
        flat[at:at + 2 * size] = arrays[i].ravel()
        arrays[i] = None
        at += 2 * size
    # Plain ids are digit runs: non-negative, so they sort by radix.
    ids, first, inverse = _unique(flat, int(flat.max()) + 1)
    del flat
    line_us, line_vs, _, line_nodes = lines
    if not line_nodes:
        # The arrays are the whole file, so their positions are its own.
        order = stable_order(first, len(inverse))
        interned = _ranks(order)[inverse]
        node_list = ids[order].tolist()
        index = dict(zip(node_list, range(len(node_list))))
        return interned[0::2].copy(), interned[1::2].copy(), index, node_list

    bulk_pos = _flat_positions(array_at, sizes)
    line_pos = _flat_positions(lines_at, line_sizes)
    line_flat = np.empty(len(line_pos), dtype=np.int32)
    line_flat[0::2] = np.frombuffer(line_us, dtype=np.int32)
    line_flat[1::2] = np.frombuffer(line_vs, dtype=np.int32)
    line_first = _unique(line_flat, len(line_nodes))[1]
    position = bulk_pos[first]
    line_position = line_pos[line_first]

    # slot[j]: where per-line node j lands among the bulk ids and the
    # per-line nodes that are not bulk ids.
    bulk = len(ids)
    slot = np.full(len(line_nodes), -1, dtype=np.int64)
    ints = [
        j for j, node in enumerate(line_nodes)
        if type(node) is int and _INT64_MIN <= node <= _INT64_MAX
    ]
    if ints:
        values = np.array([line_nodes[j] for j in ints], dtype=np.int64)
        at = np.minimum(np.searchsorted(ids, values), bulk - 1)
        hit = ids[at] == values
        shared = np.asarray(ints, dtype=np.int64)[hit]
        at = at[hit]
        slot[shared] = at
        position[at] = np.minimum(position[at], line_position[shared])
    new = np.flatnonzero(slot < 0)
    slot[new] = bulk + np.arange(len(new))
    order = stable_order(
        np.concatenate((position, line_position[new])),
        len(bulk_pos) + len(line_pos),
    )
    rank = _ranks(order)
    candidates = ids.tolist() + [line_nodes[j] for j in new.tolist()]
    node_list = [candidates[i] for i in order.tolist()]

    interned = np.empty(len(bulk_pos) + len(line_pos), dtype=np.int32)
    interned[bulk_pos] = rank[inverse]
    interned[line_pos] = rank[slot][line_flat]
    index = dict(zip(node_list, range(len(node_list))))
    return interned[0::2].copy(), interned[1::2].copy(), index, node_list


def _add_nodes(index: dict, nodes: list, extra: Iterable[Node]) -> None:
    """Append the ``extra`` nodes not yet interned (isolated nodes)."""
    for node in extra:
        if node not in index:
            index[node] = len(nodes)
            nodes.append(node)


def _edge_fault(u: Node, v: Node) -> GraphStructureError:
    """The error :class:`CGraph` raises for edge ``u -> v``: a
    self-loop, or a repeat of an earlier edge."""
    if u == v:
        return GraphStructureError(
            f"self-loop {u!r} -> {v!r} is not allowed in a c-graph"
        )
    return GraphStructureError(f"duplicate edge {u!r} -> {v!r}")


def _csr_from_buffers(n: int, us, vs, nodes):
    """Forward + reverse CSR of interned edge buffers: NumPy's stable
    sorts when it is importable, the counting build otherwise."""
    if _np is not None:
        return _csr_from_buffers_numpy(n, len(us), us, vs, nodes)
    return _csr_from_buffers_python(n, len(us), us, vs, nodes)


def _csr_from_buffers_numpy(n: int, m: int, us, vs, nodes):
    """Forward + reverse CSR by stable sorts (:func:`stable_order`).

    Ordering contract (the layout of every compiled graph): forward
    adjacency groups by ``u`` ascending, keeping input edge order
    within a ``u``; reverse adjacency lists each node's parents by
    ascending interned id.  A stable sort on ``u`` gives the first; a
    stable re-sort of that array on ``v`` gives the second, because
    within one ``v`` the u-sorted order *is* ascending-``u`` order.

    Together the two sorts order the edges by ``(v, u)`` and keep equal
    edges in input order, side by side: every edge equal to its
    neighbour before it repeats an earlier one.  The first fault in
    input order — a self-loop or a repeated edge — raises
    (:func:`_edge_fault`).
    """
    np = _np
    if m == 0:
        empty_off = np.zeros(n + 1, dtype=np.int64)
        empty = np.empty(0, dtype=np.int32)
        return empty_off, empty, empty_off.copy(), empty
    us_a = np.frombuffer(us, dtype=np.int32)
    vs_a = np.frombuffer(vs, dtype=np.int32)
    order_u = stable_order(us_a, n)
    out_targets = np.ascontiguousarray(vs_a[order_u])
    sorted_us = us_a[order_u]
    order_v = stable_order(out_targets, n)
    in_sources = np.ascontiguousarray(sorted_us[order_v])
    in_targets = out_targets[order_v]
    repeats = (in_sources[1:] == in_sources[:-1]) & (
        in_targets[1:] == in_targets[:-1]
    )
    faults = np.concatenate(
        ((us_a == vs_a).nonzero()[0], order_u[order_v[1:][repeats]])
    )
    if len(faults):
        e = int(faults.min())
        raise _edge_fault(nodes[int(us_a[e])], nodes[int(vs_a[e])])
    out_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(us_a, minlength=n), out=out_offsets[1:])
    in_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(vs_a, minlength=n), out=in_offsets[1:])
    return out_offsets, out_targets, in_offsets, in_sources


def _csr_from_buffers_python(n: int, m: int, us, vs, nodes):
    """The NumPy-free CSR build: counting sort, same ordering contract,
    same first fault in input order.

    Repeats are found in the forward CSR, one node's targets at a time,
    so no set ever holds more than one out-degree of targets.
    """
    out_counts = [0] * n
    in_counts = [0] * n
    loop = None
    for e in range(m):
        u = us[e]
        v = vs[e]
        if u == v and loop is None:
            loop = e
        out_counts[u] += 1
        in_counts[v] += 1
    out_offsets = [0] * (n + 1)
    in_offsets = [0] * (n + 1)
    for i in range(n):
        out_offsets[i + 1] = out_offsets[i] + out_counts[i]
        in_offsets[i + 1] = in_offsets[i] + in_counts[i]
    # Forward CSR: group by u (stable, so input order survives within u).
    fill = list(out_offsets[:-1])
    out_targets = array("i", bytes(4 * m))
    for e in range(m):
        u = us[e]
        out_targets[fill[u]] = vs[e]
        fill[u] += 1
    fault = _first_repeat(n, m, us, out_offsets, out_targets, loop)
    if fault is not None:
        raise _edge_fault(nodes[us[fault]], nodes[vs[fault]])
    # Reverse CSR: walk the forward CSR in ascending u, appending to each
    # target's slot — parents come out ascending by id, as they do from
    # the NumPy build's re-sort on v.
    fill = list(in_offsets[:-1])
    in_sources = array("i", bytes(4 * m))
    for u in range(n):
        for e in range(out_offsets[u], out_offsets[u + 1]):
            v = out_targets[e]
            in_sources[fill[v]] = u
            fill[v] += 1
    return out_offsets, out_targets, in_offsets, in_sources


def _first_repeat(n: int, m: int, us, out_offsets, out_targets, stop):
    """The input position of the first repeated edge before ``stop``
    (all of them when None), or ``stop``.

    Each node's targets sit in input order in the forward CSR, so its
    first repeat is the first target already among its earlier ones;
    a replay of ``us`` then maps those per-node positions back to input
    positions, stopping at the first.
    """
    repeat_at: dict[int, int] = {}
    for u in range(n):
        start, end = out_offsets[u], out_offsets[u + 1]
        if end - start < 2:
            continue
        targets = out_targets[start:end]
        if len(set(targets)) == end - start:
            continue
        seen = set()
        for k, v in enumerate(targets):
            if v in seen:
                repeat_at[u] = k
                break
            seen.add(v)
    if not repeat_at:
        return stop
    count = [0] * n
    for e in range(m if stop is None else stop):
        u = us[e]
        if count[u] == repeat_at.get(u):
            return e
        count[u] += 1
    return stop


def _interned_adjacency(us, vs, nodes: list) -> tuple:
    """Everything a :class:`CGraph` of interned edges needs, as plain
    lists: one CSR build, one more stable sort and one levelization.

    Returns ``(tables, levels, children, parents)``: the forward and
    reverse CSR ``(out_offsets, out_targets, in_offsets, in_sources)``
    in :class:`CompiledGraph`'s layout; :func:`levelize_csr`'s result
    (False when the graph is cyclic); the successor nodes grouped by
    ``out_offsets``; and the predecessor nodes in edge order grouped by
    ``in_offsets`` — the order ``CGraph.predecessors`` returns.  Raises
    the first self-loop or repeated edge in edge order.  With NumPy no
    Python loop runs per edge: the levels come from the NumPy tables
    and the nodes are gathered through an object array.  Either way the
    id tables are gathered through the n ids as Python ints, so they
    share n int objects instead of holding one per element.
    """
    n = len(nodes)
    out_offsets, out_targets, in_offsets, in_sources = _csr_from_buffers(
        n, us, vs, nodes
    )
    np = _np
    if np is None:
        fill = in_offsets[:-1]
        parents = [None] * len(us)
        for u, v in zip(us, vs):
            parents[fill[v]] = nodes[u]
            fill[v] += 1
        in_degree = [in_offsets[i + 1] - in_offsets[i] for i in range(n)]
        levels = levelize_csr(n, out_offsets, out_targets, in_degree)
        ids = list(range(n))
        return (
            [
                out_offsets,
                [ids[i] for i in out_targets],
                in_offsets,
                [ids[i] for i in in_sources],
            ],
            levels or False,
            [nodes[i] for i in out_targets],
            parents,
        )
    order = stable_order(np.frombuffer(vs, dtype=np.int32), n)
    parents = np.frombuffer(us, dtype=np.int32)[order]
    levels = levelize_csr(n, out_offsets, out_targets, np.diff(in_offsets))
    if levels is not None:
        topo_order, topo_index, depth, level_offsets = levels
        levels = (
            tuple(topo_order.tolist()),
            topo_index.tolist(),
            depth.tolist(),
            level_offsets,
        )
    ids = np.arange(n, dtype=object)
    objects = np.fromiter(nodes, dtype=object, count=n)
    return (
        [
            out_offsets.tolist(),
            ids[out_targets].tolist(),
            in_offsets.tolist(),
            ids[in_sources].tolist(),
        ],
        levels or False,
        objects[out_targets].tolist(),
        objects[parents].tolist(),
    )
