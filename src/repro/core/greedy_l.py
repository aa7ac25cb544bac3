"""``Greedy_L`` — Algorithm 2, the prefix-times-fanout heuristic.

Scores every node by the *simplified impact*

    ``I'(v) = Prefix(v) × dout(v)``

— the number of copies ``v`` pushes to its immediate children — then
greedily picks the top node, recomputes prefixes under the enlarged filter
set, and repeats ``k`` times (``O(k·|E|)`` total).

``I'`` blends ``Greedy_1``'s locality with ``Greedy_Max``'s global prefix,
and the re-computation step lets earlier picks depress later scores.  Its
documented bias (Section 4.2 and the Figure 7/8 discussions): prefixes grow
multiplicatively with distance from the source, so ``Greedy_L`` drifts
toward nodes far down the graph and its FR curve converges more slowly.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Hashable

from collections.abc import Iterable

from repro.core.base import (
    PlacementResult,
    PlacementStep,
    check_budget,
    select_best,
)
from repro.graphs.cgraph import CGraph
from repro.propagation.engine import item_receipts_ids

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.base import PropagationBackend
    from repro.propagation.model import PropagationModel

Node = Hashable


def simplified_impacts(
    graph: CGraph,
    filters: set[Node],
    *,
    backend: "str | PropagationBackend | None" = None,
) -> dict[Node, int]:
    """``I'(v) = Prefix(v) × dout(v)`` under the current filter set.

    Prefixes aggregate one item per source, as everywhere else.  Routed
    through the pluggable backend registry; every backend returns
    identical integers.
    """
    from repro.backends.registry import resolve_backend

    return resolve_backend(backend).simplified_impacts(graph, filters)


def simplified_impacts_ids(
    graph: CGraph,
    filter_ids: Iterable[int] = (),
    *,
    backend: "str | PropagationBackend | None" = None,
) -> list[int]:
    """:func:`simplified_impacts` over interned ids (list indexed by id)."""
    from repro.backends.registry import resolve_backend

    return resolve_backend(backend).simplified_impacts_ids(graph, filter_ids)


def _scores_for_mask(compiled, mask: bytearray) -> list[int]:
    """``I'`` over ids via one aggregate ``T`` sweep (the bitpack tier).

    ``I'(v) = Prefix(v) × dout(v)`` sums one item per source, so the
    per-source prefixes collapse to the aggregate totals ``T(v)`` from
    :func:`~repro.propagation.engine.aggregate_receipts_ids` —
    source-count-independent, bit-identical to the lanes sweep.
    """
    from repro.propagation.engine import aggregate_receipts_ids

    totals = aggregate_receipts_ids(compiled, mask)
    out_degree = compiled.out_degree
    return [totals[v] * out_degree[v] for v in range(compiled.n)]


def _scores_for_mask_lanes(compiled, mask: bytearray) -> list[int]:
    """``I'`` over ids via one ``ψ`` sweep per source (the lanes tier)."""
    totals = [0] * compiled.n
    for origin_id in compiled.source_ids:
        psi = item_receipts_ids(compiled, origin_id, mask)
        for v, count in enumerate(psi):
            if count:
                totals[v] += count
    out_degree = compiled.out_degree
    return [totals[v] * out_degree[v] for v in range(compiled.n)]


def simplified_impacts_ids_exact(
    graph: CGraph,
    filter_ids: Iterable[int] = (),
) -> list[int]:
    """:func:`simplified_impacts_ids` via the exact aggregate sweep (the
    ``python`` backend's default *bitpack* tier)."""
    compiled = graph.compiled()
    return _scores_for_mask(compiled, compiled.filter_mask(filter_ids))


def simplified_impacts_ids_lanes_exact(
    graph: CGraph,
    filter_ids: Iterable[int] = (),
) -> list[int]:
    """:func:`simplified_impacts_ids` via one exact big-int ``ψ`` sweep
    per source (the *lanes* tier; the fuzz harness's reference)."""
    compiled = graph.compiled()
    return _scores_for_mask_lanes(compiled, compiled.filter_mask(filter_ids))


class GreedyL:
    """The paper's ``Greedy_L`` (Algorithm 2).

    Score sweeps run on the propagation backend given by ``backend``
    (None = the registry default).
    """

    name = "G_L"
    prefix_consistent = True

    def __init__(
        self,
        *,
        backend: "str | PropagationBackend | None" = None,
        model: "PropagationModel | None" = None,
    ) -> None:
        self.backend = backend
        self.model = model

    def place(
        self,
        graph: CGraph,
        k: int,
        *,
        rng: random.Random | None = None,
    ) -> PlacementResult:
        """One ``I'(v)`` sweep per pick (Algorithm 2).

        Runs on interned ids; :func:`~repro.core.base.select_best`
        taking the lowest id among the maxima is the canonical
        lowest-rank tie-break, and user nodes reappear only at the
        result boundary.  Under a probabilistic relaying model the score
        is the summed-over-worlds ``Σ_t ψ_t(v) · dout_t(v)`` (live
        out-degree per world).
        """
        from repro.propagation.model import resolve_model

        check_budget(graph, k)
        model = resolve_model(self.model)
        compiled = graph.compiled()
        # Ensure the topological accessors exist up front — Greedy_L is
        # specified on DAGs and should fail fast on cyclic input.
        compiled.topo_order
        chosen_ids: list[int] = []
        steps: list[PlacementStep] = []
        for _ in range(k):
            if model is None:
                scores = simplified_impacts_ids(
                    graph, chosen_ids, backend=self.backend
                )
            else:
                from repro.backends.registry import resolve_backend

                scores = resolve_backend(
                    self.backend
                ).sampled_simplified_impacts_ids(
                    graph, chosen_ids, model=model
                )
            # A node forwarding at most one copy per edge gains nothing by
            # filtering; requiring Prefix × dout > dout would need the
            # prefix, so Greedy_L's own coarse cut is score > 0.
            best = select_best(scores, chosen_ids)
            if best is None:
                break
            chosen_ids.append(best)
            steps.append(
                PlacementStep(
                    node=compiled.nodes[best],
                    gain=scores[best],
                    evaluations=(("simplified_impacts", 1),),
                )
            )
        return PlacementResult(
            algorithm=self.name,
            filters=tuple(compiled.to_nodes(chosen_ids)),
            requested_k=k,
            steps=tuple(steps),
        )


def greedy_l(graph: CGraph, k: int) -> PlacementResult:
    """Functional convenience wrapper around :class:`GreedyL`."""
    return GreedyL().place(graph, k)
