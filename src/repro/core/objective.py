"""The Filter-Placement objective (Problem 1) and Proposition 1.

Definitions, for c-graph ``G(V, E)`` and filter set ``A ⊆ V``:

* ``Φ(A, V)`` — total number of copies received across all nodes and items
  (:func:`phi`).
* ``F(A) = Φ(∅, V) − Φ(A, V)`` — the redundancy removed (:func:`objective_value`).
* ``FR(A) = F(A) / F(V)`` — the Filter Ratio, the paper's evaluation metric
  (:func:`filter_ratio`).  ``FR = 1`` means all removable redundancy is gone.
* Proposition 1 — the unbounded-budget optimum is the merge-node set
  ``{v : din(v) > 1 and dout(v) > 0}`` (:func:`minimal_perfect_filter_set`).

All ``Φ`` evaluations route through the pluggable backend registry; the
``backend`` keyword (name, instance, or None for the registry default)
selects the engine without changing any result.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from typing import TYPE_CHECKING, Hashable

from repro.graphs.cgraph import CGraph
from repro.graphs.validation import validate_filter_set
from repro.propagation.engine import total_receipts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.base import PropagationBackend
    from repro.propagation.model import PropagationModel

Node = Hashable


def phi(
    graph: CGraph,
    filters: Collection[Node] = (),
    *,
    items_per_source: int | Mapping[Node, int] = 1,
    backend: "str | PropagationBackend | None" = None,
) -> int:
    """``Φ(A, V)``: copies received across all nodes, summed over items."""
    validate_filter_set(graph, set(filters))
    return total_receipts(
        graph, filters, items_per_source=items_per_source, backend=backend
    )


def objective_value(
    graph: CGraph,
    filters: Collection[Node],
    *,
    items_per_source: int | Mapping[Node, int] = 1,
    phi_empty: int | None = None,
    backend: "str | PropagationBackend | None" = None,
) -> int:
    """``F(A) = Φ(∅, V) − Φ(A, V)``.

    ``phi_empty`` lets sweep loops amortize the (filter-free) baseline.
    """
    if phi_empty is None:
        phi_empty = phi(
            graph, (), items_per_source=items_per_source, backend=backend
        )
    return phi_empty - phi(
        graph, filters, items_per_source=items_per_source, backend=backend
    )


def max_objective(
    graph: CGraph,
    *,
    items_per_source: int | Mapping[Node, int] = 1,
    phi_empty: int | None = None,
    backend: "str | PropagationBackend | None" = None,
) -> int:
    """``F(V)``: the most redundancy any filter set can remove.

    Placing a filter everywhere is optimal (``F`` is monotone), so this is
    simply ``F`` evaluated at ``A = V``.
    """
    return objective_value(
        graph,
        graph.nodes(),
        items_per_source=items_per_source,
        phi_empty=phi_empty,
        backend=backend,
    )


def filter_ratio(
    graph: CGraph,
    filters: Collection[Node],
    *,
    items_per_source: int | Mapping[Node, int] = 1,
    phi_empty: int | None = None,
    f_max: int | None = None,
    backend: "str | PropagationBackend | None" = None,
) -> float:
    """``FR(A) = F(A) / F(V)`` — Section 5's performance metric.

    A graph with no removable redundancy (``F(V) = 0``, e.g. a tree fed by
    a single source edge) reports ``FR = 1.0`` for every filter set: all of
    the zero redundancy has been removed, and this convention keeps sweep
    curves well-defined.

    ``phi_empty`` / ``f_max`` allow sweeps to amortize the two constants.
    """
    if phi_empty is None:
        phi_empty = phi(
            graph, (), items_per_source=items_per_source, backend=backend
        )
    if f_max is None:
        f_max = max_objective(
            graph,
            items_per_source=items_per_source,
            phi_empty=phi_empty,
            backend=backend,
        )
    if f_max == 0:
        return 1.0
    value = objective_value(
        graph,
        filters,
        items_per_source=items_per_source,
        phi_empty=phi_empty,
        backend=backend,
    )
    return value / f_max


def expected_phi(
    graph: CGraph,
    filters: Collection[Node] = (),
    *,
    model: "PropagationModel | None" = None,
    backend: "str | PropagationBackend | None" = None,
) -> float:
    """``E[Φ(A, V)]`` under a relaying model — the SAA estimate.

    ``model=None`` is deterministic relaying: the exact integer ``Φ``
    as a float.  Probabilistic estimates average the model's sampled
    worlds (common random numbers, so repeated calls with one model are
    mutually consistent and byte-reproducible per seed).
    """
    from repro.backends.registry import resolve_backend

    return resolve_backend(backend).expected_total_receipts(
        graph, filters, model=model
    )


def expected_objective_value(
    graph: CGraph,
    filters: Collection[Node],
    *,
    model: "PropagationModel | None" = None,
    phi_empty: float | None = None,
    backend: "str | PropagationBackend | None" = None,
) -> float:
    """``E[F(A)] = E[Φ(∅, V)] − E[Φ(A, V)]`` under a relaying model."""
    if phi_empty is None:
        phi_empty = expected_phi(graph, (), model=model, backend=backend)
    return phi_empty - expected_phi(
        graph, filters, model=model, backend=backend
    )


def minimal_perfect_filter_set(
    graph: CGraph,
    *,
    prune: bool = False,
    backend: "str | PropagationBackend | None" = None,
) -> frozenset[Node]:
    """Proposition 1: the minimal unbounded-budget optimum.

    Returns ``A = {v : din(v) > 1 and dout(v) > 0}`` — placing filters on
    exactly the non-sink merge nodes achieves ``F(A) = F(V)`` and takes
    ``O(|E|)`` time to find.

    The proposition's minimality argument assumes every merge node actually
    receives multiple copies.  On graphs where some merge nodes are
    unreachable (or reachable along a single live path), the faithful set
    contains useless members; ``prune=True`` additionally drops every
    member whose removal keeps ``F`` at ``F(V)``, yielding a minimal set
    with respect to the given sources.
    """
    candidates = list(graph.merge_nodes())
    if not prune:
        return frozenset(candidates)
    target = phi(graph, graph.nodes(), backend=backend)
    kept = set(candidates)
    # Drop candidates greedily; order is the deterministic node order.
    for v in candidates:
        kept.discard(v)
        if phi(graph, kept, backend=backend) != target:
            kept.add(v)
    return frozenset(kept)
