"""``Greedy_1`` — the degree-product heuristic.

The paper's cheapest algorithm: score every node by

    ``m(v) = din(v) × dout(v)``

— a lower bound on the copies a (fully supplied) node pushes to its
children — and return the ``k`` highest scorers.  ``O(k·n + |E|)`` total.

Figure 2's lesson, reproduced in ``repro.datasets.toy.fig2_like_graph``:
``m`` ignores *where* a node sits, so the top scorer may receive a single
copy and be a useless filter while a modest-degree node downstream of the
real multiplicity is the unique optimum.
"""

from __future__ import annotations

import operator
import random

from repro.core.base import (
    PlacementResult,
    PlacementStep,
    check_budget,
    select_top,
)
from repro.graphs.cgraph import CGraph


class GreedyOne:
    """The paper's ``Greedy_1`` heuristic.

    ``backend`` and ``model`` are accepted for signature uniformity with
    the rest of the greedy family but ignored: ``m(v)`` is pure degree
    bookkeeping and never evaluates propagation (the degree product is a
    *structural* score, identical under every relaying model).
    """

    name = "G_1"
    prefix_consistent = True

    def __init__(
        self, *, backend: object | None = None, model: object | None = None
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
        """Rank by ``m(v) = din(v) × dout(v)`` and take the top ``k``.

        Pure degree-array arithmetic on the compiled view — no dict or
        node-object traffic until the result boundary.
        """
        check_budget(graph, k)
        compiled = graph.compiled()
        # ``int`` keeps the gains Python ints when the degree tables are
        # NumPy arrays (table-built graphs), so payloads serialize.
        scores = list(
            map(
                operator.mul,
                map(int, compiled.in_degree),
                map(int, compiled.out_degree),
            )
        )
        chosen_ids = select_top(scores, k)
        steps = tuple(
            PlacementStep(node=compiled.nodes[v], gain=scores[v])
            for v in chosen_ids
        )
        return PlacementResult(
            algorithm=self.name,
            filters=tuple(compiled.to_nodes(chosen_ids)),
            requested_k=k,
            steps=steps,
        )


def greedy_one(graph: CGraph, k: int) -> PlacementResult:
    """Functional convenience wrapper around :class:`GreedyOne`."""
    return GreedyOne().place(graph, k)
