"""The exact incremental gain engines (big-int, region-local updates).

One-shot ``marginal_gains`` recomputes its sweeps from scratch for every
filter set.  The greedy loop, however, grows ``A`` one node at a time —
and placing a filter ``f`` perturbs the sweeps only *locally*:

* receipts can change only on nodes reachable **from** ``f``
  (downstream): ``f``'s per-edge emission drops and the deficit
  propagates along out-edges, dying out wherever recomputed values
  happen not to move (e.g. behind another filter whose clamped emission
  is unchanged);
* ``W`` can change only on nodes that can reach ``f`` (upstream): a
  parent's term for child ``u`` is ``1 + [u ∉ A]·W(u)``, so marking
  ``f`` absorbs the ``W(f)`` contribution from each of its parents and
  the shrinkage propagates along in-edges, again stopping as soon as a
  recomputed value is unchanged.

Two sessions implement this contract:

* :class:`ExactGainSession` — the default *bitpack*-tier session.  It
  maintains the **aggregate** totals ``T(v) = Σ_s ψ_s(v)`` instead of
  one ψ lane per source: reachability is filter-independent, so a
  filter's emission is the per-graph constant ``nreach(v)`` and the
  summed recurrence ``E(p) = (nreach(p) if p ∈ A else T(p)) + [p is a
  source]`` closes over ``T`` alone (see
  :func:`repro.propagation.engine.aggregate_receipts_ids`).  Gains are
  ``(T(v) − nreach(v)) · W(v)``.  One wavefront regardless of the
  source count.
* :class:`ExactLaneGainSession` — the *lanes*-tier session, one ψ lane
  per source; the semantic reference the aggregate session is held
  bit-identical to by the differential fuzz harness.

Both backends open these sessions: the numpy backend's ``gain_session``
returns the python backend's of the same tier.

Both report the same changed-id sets: adding a filter only decreases
every ψ lane pointwise, so ``ΔT < 0`` wherever *any* lane moved — per
lane changes can never cancel inside the aggregate.

Node objects appear only at the sessions' public boundary
(:meth:`gains`, :meth:`add_filter`); everything else runs on the
compiled view's interned ids as plain Python big integers, so counts
can never overflow.
"""

from __future__ import annotations

import heapq
from collections.abc import Collection
from typing import Hashable

from repro.exceptions import MissingSourceError, ParameterError
from repro.graphs.cgraph import CGraph
from repro.graphs.validation import validate_filter_set

Node = Hashable


class _SessionBoundary:
    """The node-object boundary both exact sessions share.

    Subclasses provide ``_compiled``, ``_mask``, ``_gains`` and
    ``_nodes_touched`` plus an ``add_filter_id`` implementation.
    """

    backend_name = "python"

    @property
    def filters(self) -> frozenset[Node]:
        nodes = self._compiled.nodes
        return frozenset(
            nodes[v] for v, flagged in enumerate(self._mask) if flagged
        )

    @property
    def nodes_touched(self) -> int:
        return self._nodes_touched

    def gains(self) -> dict[Node, int]:
        """All current ``I(v | A)``, keyed in ``graph.nodes()`` order."""
        return dict(zip(self._compiled.nodes, self._gains))

    def gain(self, node: Node) -> int:
        """Current exact ``I(node | A)`` — one list read."""
        return self._gains[self._compiled.to_id(node)]

    def add_filter(self, node: Node) -> frozenset[Node]:
        """Place ``node``; walk the affected region; return changed nodes."""
        changed = self.add_filter_id(self._compiled.to_id(node))
        nodes = self._compiled.nodes
        return frozenset(nodes[v] for v in changed)

    def gains_ids(self) -> list[int]:
        """All current gains as a fresh list indexed by interned id."""
        return list(self._gains)

    def gain_id(self, node_id: int) -> int:
        """Current exact gain of one interned id — one list read."""
        return self._gains[node_id]

    def _check_new_filter_id(self, node_id: int) -> None:
        if node_id < 0 or node_id >= self._compiled.n:
            from repro.exceptions import MissingNodeError

            raise MissingNodeError(node_id)
        if self._mask[node_id]:
            raise ParameterError(
                f"node {self._compiled.nodes[node_id]!r} is already a filter"
            )


class ExactGainSession(_SessionBoundary):
    """Aggregate-totals incremental gains for a growing filter set.

    State per interned node id ``v`` (all exact integers):

    * ``T(v) = Σ_s ψ_s(v)`` — total copies received over all sources;
    * ``W(v)`` — downstream receipts created per extra emitted copy;
    * ``nreach(v)`` — sources reaching ``v``: a per-graph *constant*
      under filter placement, cached on the compiled view;
    * ``gain(v) = I(v | A) = (T(v) − nreach(v)) · W(v)`` (0 in ``A``).
    """

    def __init__(self, graph: CGraph, filters: Collection[Node] = ()) -> None:
        from repro.core.impact import absorbing_suffix_ids
        from repro.propagation.engine import aggregate_receipts_ids

        if not graph.sources:
            raise MissingSourceError("graph has no sources")
        filter_set = set(filters)
        validate_filter_set(graph, filter_set)

        compiled = graph.compiled()
        self._compiled = compiled
        mask = compiled.filter_mask(
            compiled.index[v] for v in filter_set
        )
        self._mask = mask
        self._nodes_touched = 0

        # Full initial sweep: one W pass plus one aggregate T pass —
        # source-count-independent, unlike the lanes session's S ψ passes.
        self._w = absorbing_suffix_ids(compiled, mask)
        self._nreach = compiled.reach_counts()
        self._totals = aggregate_receipts_ids(compiled, mask, self._nreach)
        w, nreach, totals = self._w, self._nreach, self._totals
        self._gains = [
            0 if mask[v] else (totals[v] - nreach[v]) * w[v]
            for v in range(compiled.n)
        ]

    def add_filter_id(self, node_id: int) -> tuple[int, ...]:
        """Place an interned id; return the changed ids."""
        self._check_new_filter_id(node_id)
        mask = self._mask
        affected: set[int] = {node_id}

        # The new filter's emission moves from T + bonus to nreach +
        # bonus — a change exactly when some source delivers a surplus
        # copy here.  (A source's own pinned emission rides in the bonus
        # term and never moves.)
        emission_moved = self._totals[node_id] != self._nreach[node_id]
        mask[node_id] = 1
        if emission_moved:
            self._forward_update(node_id, affected)
        # W deltas: upstream of ``node_id``.  Each parent's term for this
        # child collapses from 1 + W to 1 — a change only when W > 0.
        if self._w[node_id] > 0:
            self._backward_update(node_id, affected)

        gains, totals, nreach, w = (
            self._gains, self._totals, self._nreach, self._w,
        )
        for v in affected:
            gains[v] = 0 if mask[v] else (totals[v] - nreach[v]) * w[v]
        return tuple(affected)

    def _forward_update(self, start: int, affected: set[int]) -> None:
        """Re-settle ``T`` downstream of ``start`` (just filtered).

        The worklist heap is ordered by topological index, so a node is
        recomputed only after every perturbed parent has been finalized —
        parents always carry smaller indices than their children.  A
        *filter* node whose ``T`` moved still lands in ``affected`` but
        never enqueues its children: its emission ``nreach + bonus`` is
        constant, the exact aggregate image of the lanes session's
        clamped-emission pruning.
        """
        compiled = self._compiled
        succ, pred = compiled.succ_ids, compiled.pred_ids
        topo_index = compiled.topo_index
        mask = self._mask
        totals = self._totals
        nreach = self._nreach
        bonus = compiled.source_mark()
        heap: list[tuple[int, int]] = []
        queued: set[int] = set()
        for child in succ[start]:
            heapq.heappush(heap, (topo_index[child], child))
            queued.add(child)
        while heap:
            _, v = heapq.heappop(heap)
            self._nodes_touched += 1
            new_total = 0
            for p in pred[v]:
                new_total += (
                    nreach[p] if mask[p] else totals[p]
                ) + bonus[p]
            if new_total == totals[v]:
                continue
            totals[v] = new_total
            affected.add(v)
            if not mask[v]:
                for child in succ[v]:
                    if child not in queued:
                        heapq.heappush(heap, (topo_index[child], child))
                        queued.add(child)

    def _backward_update(self, start: int, affected: set[int]) -> None:
        """Re-settle ``W`` upstream of ``start`` (already in ``A``).

        Mirror image of the forward walk: reverse topological order via a
        max-heap on the topological index, so a node is recomputed after
        all of its perturbed children.
        """
        compiled = self._compiled
        succ, pred = compiled.succ_ids, compiled.pred_ids
        topo_index = compiled.topo_index
        mask = self._mask
        w = self._w
        heap: list[tuple[int, int]] = []
        queued: set[int] = set()
        for parent in pred[start]:
            heapq.heappush(heap, (-topo_index[parent], parent))
            queued.add(parent)
        while heap:
            _, v = heapq.heappop(heap)
            self._nodes_touched += 1
            new_w = 0
            for u in succ[v]:
                new_w += 1
                if not mask[u]:
                    new_w += w[u]
            if new_w == w[v]:
                continue
            w[v] = new_w
            affected.add(v)
            for parent in pred[v]:
                if parent not in queued:
                    heapq.heappush(heap, (-topo_index[parent], parent))
                    queued.add(parent)


class ExactLaneGainSession(_SessionBoundary):
    """Per-source-lane incremental gains — the *lanes* tier session.

    State per interned node id ``v`` (all exact integers):

    * ``ψ_s(v)`` for every source ``s`` — copies of ``s``'s item received;
    * ``W(v)`` — downstream receipts created per extra emitted copy;
    * ``surplus(v) = Σ_s max(ψ_s(v) − 1, 0)``;
    * ``gain(v) = I(v | A) = surplus(v) · W(v)`` (0 for nodes in ``A``).
    """

    def __init__(self, graph: CGraph, filters: Collection[Node] = ()) -> None:
        from repro.core.impact import absorbing_suffix_ids
        from repro.propagation.engine import item_receipts_ids

        if not graph.sources:
            raise MissingSourceError("graph has no sources")
        filter_set = set(filters)
        validate_filter_set(graph, filter_set)

        compiled = graph.compiled()
        self._compiled = compiled
        mask = compiled.filter_mask(
            compiled.index[v] for v in filter_set
        )
        self._mask = mask
        self._nodes_touched = 0

        # Full initial sweep: one W pass plus one ψ pass per source — the
        # same cost as a single lanes marginal_gains evaluation.
        self._w = absorbing_suffix_ids(compiled, mask)
        self._psi: dict[int, list[int]] = {
            s: item_receipts_ids(compiled, s, mask)
            for s in compiled.source_ids
        }
        surplus = [0] * compiled.n
        for psi in self._psi.values():
            for v, count in enumerate(psi):
                if count > 1:
                    surplus[v] += count - 1
        self._surplus = surplus
        w = self._w
        self._gains = [
            0 if mask[v] else surplus[v] * w[v] for v in range(compiled.n)
        ]

    def add_filter_id(self, node_id: int) -> tuple[int, ...]:
        """Place an interned id; return the changed ids."""
        self._check_new_filter_id(node_id)
        mask = self._mask
        affected: set[int] = {node_id}

        # ψ deltas propagate only for items whose emission at ``node_id``
        # actually moves: it drops from ψ_s to min(ψ_s, 1), and a source's
        # own emission is pinned at 1 and never changes.
        seeds = [
            origin
            for origin, psi in self._psi.items()
            if origin != node_id and psi[node_id] > 1
        ]
        mask[node_id] = 1
        for origin in seeds:
            self._forward_update(origin, node_id, affected)
        # W deltas: upstream of ``node_id``.  Each parent's term for this
        # child collapses from 1 + W to 1 — a change only when W > 0.
        if self._w[node_id] > 0:
            self._backward_update(node_id, affected)

        gains, surplus, w = self._gains, self._surplus, self._w
        for v in affected:
            gains[v] = 0 if mask[v] else surplus[v] * w[v]
        return tuple(affected)

    # ------------------------------------------------------------------
    # Region walks
    # ------------------------------------------------------------------

    def _emission(
        self, origin: int, v: int, received: int, *, is_filter: bool
    ) -> int:
        """Copies ``v`` emits per out-edge for ``origin``'s item."""
        if v == origin:
            return 1
        if is_filter:
            return 1 if received > 0 else 0
        return received

    def _forward_update(
        self, origin: int, start: int, affected: set[int]
    ) -> None:
        """Re-settle ``ψ_origin`` downstream of ``start`` (just filtered).

        The worklist heap is ordered by topological index, so a node is
        recomputed only after every perturbed parent has been finalized —
        parents always carry smaller indices than their children.
        """
        compiled = self._compiled
        succ, pred = compiled.succ_ids, compiled.pred_ids
        topo_index = compiled.topo_index
        mask = self._mask
        psi = self._psi[origin]
        heap: list[tuple[int, int]] = []
        queued: set[int] = set()
        for child in succ[start]:
            heapq.heappush(heap, (topo_index[child], child))
            queued.add(child)
        while heap:
            _, v = heapq.heappop(heap)
            self._nodes_touched += 1
            new_received = 0
            for p in pred[v]:
                new_received += self._emission(
                    origin, p, psi[p], is_filter=bool(mask[p])
                )
            old_received = psi[v]
            if new_received == old_received:
                continue
            is_filter = bool(mask[v])
            old_emit = self._emission(
                origin, v, old_received, is_filter=is_filter
            )
            new_emit = self._emission(
                origin, v, new_received, is_filter=is_filter
            )
            psi[v] = new_received
            self._surplus[v] += max(new_received - 1, 0) - max(
                old_received - 1, 0
            )
            affected.add(v)
            if old_emit != new_emit:
                for child in succ[v]:
                    if child not in queued:
                        heapq.heappush(heap, (topo_index[child], child))
                        queued.add(child)

    def _backward_update(self, start: int, affected: set[int]) -> None:
        """Re-settle ``W`` upstream of ``start`` (already in ``A``).

        Mirror image of the forward walk: reverse topological order via a
        max-heap on the topological index, so a node is recomputed after
        all of its perturbed children.
        """
        compiled = self._compiled
        succ, pred = compiled.succ_ids, compiled.pred_ids
        topo_index = compiled.topo_index
        mask = self._mask
        w = self._w
        heap: list[tuple[int, int]] = []
        queued: set[int] = set()
        for parent in pred[start]:
            heapq.heappush(heap, (-topo_index[parent], parent))
            queued.add(parent)
        while heap:
            _, v = heapq.heappop(heap)
            self._nodes_touched += 1
            new_w = 0
            for u in succ[v]:
                new_w += 1
                if not mask[u]:
                    new_w += w[u]
            if new_w == w[v]:
                continue
            w[v] = new_w
            affected.add(v)
            for parent in pred[v]:
                if parent not in queued:
                    heapq.heappush(heap, (-topo_index[parent], parent))
                    queued.add(parent)
