"""``Greedy_Max`` — impacts computed once, top-``k`` taken.

The first of the paper's two speed-up heuristics: compute every node's
initial impact ``I(v) = I(v | ∅)`` exactly as ``Greedy_All`` would, but skip
the re-computation between picks and simply return the ``k`` highest-impact
nodes.  Running time ``O(n · |E|)`` in the paper, one linear sweep here.

Its documented failure mode (Figure 10): nodes strung along a path all look
high-impact in isolation, yet a single filter upstream collapses the
impact of the rest — ``Greedy_Max`` buys the whole chain anyway, which is
why its FR curve plateaus on the citation graph (Figure 9).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Hashable

from repro.core.base import (
    PlacementResult,
    PlacementStep,
    check_budget,
    select_top,
)
from repro.core.impact import marginal_gains_ids
from repro.graphs.cgraph import CGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.base import PropagationBackend
    from repro.propagation.model import PropagationModel

Node = Hashable


class GreedyMax:
    """The paper's ``Greedy_Max`` heuristic.

    The single impact sweep runs on the propagation backend given by
    ``backend`` (None = the registry default).  Under a probabilistic
    relaying model the ranking uses the summed-over-worlds SAA impacts
    instead (same sweep shape, same tie-breaks).
    """

    name = "G_Max"
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
        """Rank once by ``I(v | ∅)`` and take the top ``k``.

        The sweep, ranking and tie-breaks all run on interned ids (an id
        is the ``graph.nodes()`` rank); nodes reappear at the boundary.
        """
        from repro.propagation.model import resolve_model

        check_budget(graph, k)
        model = resolve_model(self.model)
        compiled = graph.compiled()
        if model is None:
            scored = marginal_gains_ids(graph, (), backend=self.backend)
        else:
            from repro.backends.registry import resolve_backend

            scored = resolve_backend(
                self.backend
            ).sampled_marginal_gains_ids(graph, (), model=model)
        chosen_ids = select_top(scored, k)
        # The single sweep is charged to the first pick; later picks are
        # free table lookups.
        steps = tuple(
            PlacementStep(
                node=compiled.nodes[v],
                gain=scored[v],
                evaluations=(("marginal_gains", 1),) if i == 0 else (),
            )
            for i, v in enumerate(chosen_ids)
        )
        return PlacementResult(
            algorithm=self.name,
            filters=tuple(compiled.to_nodes(chosen_ids)),
            requested_k=k,
            steps=steps,
        )


def greedy_max(graph: CGraph, k: int) -> PlacementResult:
    """Functional convenience wrapper around :class:`GreedyMax`."""
    return GreedyMax().place(graph, k)
