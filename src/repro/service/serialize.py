"""The one serializer for machine-readable placement and stats payloads.

Both consumers import from here — the CLI's ``--json`` mode and the HTTP
API — so "API results are bit-identical to ``place --json``" holds by
construction rather than by parallel maintenance.  Payloads are plain
JSON-compatible dicts; node ids appear as their ``repr`` (the convention
``BENCH.json`` already uses), which keeps ints and strings distinguishable
after a round-trip.

Objective values are exact integers (the propagation model counts copies),
so equality across backends and strategies is genuinely bit-level, not
within-epsilon.

Two payload variants relax that: probabilistic-model runs carry SAA
float estimates plus a ``"model"`` block, and sketch-strategy runs carry
a ``"sketch"`` block (the estimator audit trail).  A sketch run whose
prefix was *not* exactly rescored (``rescored: false`` — the graph sits
beyond the rescore size guard) skips the exact ``phi`` family entirely
rather than pay full sweeps at million-node scale; it reports
``objective_estimate`` and ``scored: false`` instead.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Collection, Hashable

from repro.analysis.metrics import GraphStats
from repro.core.base import PlacementResult
from repro.core.objective import max_objective, phi

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.propagation.model import PropagationModel
from repro.graphs.cgraph import CGraph

Node = Hashable


def canonical_dumps(payload: Any) -> str:
    """Deterministic JSON text: sorted keys, no incidental whitespace.

    Two payloads are bit-identical iff their canonical dumps are equal;
    the service's cache stores exactly this text for its hit path.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def placement_payload(
    graph: CGraph,
    result: PlacementResult,
    *,
    phi_empty: int | None = None,
    f_max: int | None = None,
    backend: Any = None,
    model: "PropagationModel | None" = None,
) -> dict[str, Any]:
    """The machine-readable form of one placement run.

    ``phi_empty`` / ``f_max`` are the per-graph constants ``Φ(∅)`` and
    ``F(V)``; passing them (the service's GraphStore caches both) saves
    two full propagation sweeps per call.  Scoring takes three sweeps at
    most — ``Φ(∅)``, ``Φ(V)`` and ``Φ(A)`` — and the filter ratio reuses
    the ``Φ(A)`` behind ``objective``.

    ``model`` is the probabilistic relaying model the placement ran
    under, or None for deterministic relaying.  Deterministic payloads
    are byte-identical to what this function always produced; under a
    model the ``phi``/``objective``/``filter_ratio`` family carries SAA
    estimates (floats, consistent across the payload because every value
    averages the same sampled worlds) and a ``"model"`` block records
    the spec — ``phi_empty``/``f_max`` overrides are ignored, since the
    deterministic constants price a different objective.
    """
    if result.rescored is False:
        # Estimate-only result: the graph sat beyond the sketch tier's
        # exact-rescore guard, so the recorded gains are estimator
        # output.  Charging two full propagation sweeps here just to
        # decorate the payload would erase the reason the sketch tier
        # exists; report the estimate honestly instead.
        payload = _result_fields(result)
        payload.update(
            {
                "scored": False,
                "objective_estimate": float(sum(result.estimated_gains)),
            }
        )
        return payload
    if model is not None:
        from repro.core.objective import expected_phi

        phi_empty_x = expected_phi(graph, (), model=model, backend=backend)
        f_max_x = phi_empty_x - expected_phi(
            graph, graph.nodes(), model=model, backend=backend
        )
        phi_a_x = expected_phi(
            graph, result.filters, model=model, backend=backend
        )
        objective_x = phi_empty_x - phi_a_x
        fr_x = 1.0 if f_max_x == 0 else objective_x / f_max_x
        payload = _result_fields(result)
        payload.update(
            {
                "model": model.describe(),
                "phi_empty": phi_empty_x,
                "phi": phi_a_x,
                "objective": objective_x,
                "f_max": f_max_x,
                "filter_ratio": fr_x,
            }
        )
        return payload
    if phi_empty is None:
        phi_empty = phi(graph, (), backend=backend)
    if f_max is None:
        f_max = max_objective(graph, phi_empty=phi_empty, backend=backend)
    phi_a = phi(graph, result.filters, backend=backend)
    objective = phi_empty - phi_a
    payload = _result_fields(result)
    payload.update(
        {
            "phi_empty": phi_empty,
            "phi": phi_a,
            "objective": objective,
            "f_max": f_max,
            # filter_ratio()'s convention on the Φ(A) just swept.
            "filter_ratio": 1.0 if f_max == 0 else objective / f_max,
        }
    )
    return payload


def _result_fields(result: PlacementResult) -> dict[str, Any]:
    """The objective-independent half of a placement payload."""
    fields: dict[str, Any] = {
        "algorithm": result.algorithm,
        "requested_k": result.requested_k,
        "filters": [repr(v) for v in result.filters],
        "filters_found": len(result.filters),
        "prefix_consistent": result.prefix_consistent,
        "steps": [
            {"node": repr(step.node), "gain": step.gain}
            for step in result.steps
        ],
    }
    if result.rescored is not None:
        # Sketch-strategy audit trail: what the estimator believed per
        # step, and whether the recorded step gains are exact.  Exact
        # strategies omit the block, keeping their payloads byte-stable.
        fields["sketch"] = {
            "rescored": result.rescored,
            "estimated_gains": [float(g) for g in result.estimated_gains],
        }
    return fields


def stats_payload(name: str, stats: GraphStats) -> dict[str, Any]:
    """The machine-readable form of ``filter-placement stats``."""
    return {
        "name": name,
        "nodes": stats.nodes,
        "edges": stats.edges,
        "sources": stats.sources,
        "sinks": stats.sinks,
        "sink_fraction": stats.sink_fraction,
        "indegree_one_fraction": stats.indegree_one_fraction,
        "merge_nodes": stats.merge_nodes,
        "max_in_degree": stats.max_in_degree,
        "max_out_degree": stats.max_out_degree,
        "is_dag": stats.is_dag,
    }


def parse_filters(filters: Collection[str]) -> tuple[Node, ...]:
    """Invert the ``repr`` encoding of a payload's filter list.

    Only the reprs this library emits (ints and strings) are accepted —
    this is a format decoder, not an eval.
    """
    import ast

    return tuple(ast.literal_eval(f) for f in filters)
