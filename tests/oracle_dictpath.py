"""The pre-refactor dict-path engine, preserved verbatim as a test oracle.

Before the compile-once refactor, every sweep walked ``CGraph``'s
dict-of-tuples adjacency with node-keyed dictionaries.  These are those
implementations — the seed's ``item_receipts`` / ``absorbing_suffix`` /
``marginal_gains`` / ``simplified_impacts`` loops and the greedy selection
loops built on them — kept *in the test tree only* so the cross-layer
equivalence suite can assert that the interned-id/CSR path produces
bit-identical numbers and placements on every dataset, algorithm,
strategy and backend — and, world by world, the sampled SAA sweeps.

Nothing here may import from ``repro.backends`` or touch
``CGraph.compiled()``: the whole point is an independent derivation.
"""

from __future__ import annotations

from collections.abc import Collection
from typing import Hashable

from repro.graphs.cgraph import CGraph

Node = Hashable


def item_receipts_dict(
    graph: CGraph,
    origin: Node,
    filters: Collection[Node] = (),
) -> dict[Node, int]:
    """Seed ``item_receipts``: one forward dict pass per item."""
    filter_set = set(filters)
    order = graph.topological_order()
    received: dict[Node, int] = dict.fromkeys(order, 0)
    for v in order:
        if v == origin:
            emit = 1
        else:
            count = received[v]
            if count == 0:
                continue
            emit = 1 if v in filter_set else count
        if emit:
            for child in graph.successors(v):
                received[child] += emit
    return received


def node_receipts_dict(
    graph: CGraph,
    filters: Collection[Node] = (),
) -> dict[Node, int]:
    """Seed ``node_receipts``: per-item dict sweeps summed over sources."""
    totals: dict[Node, int] = dict.fromkeys(graph.nodes(), 0)
    for source in graph.sources:
        per_item = item_receipts_dict(graph, source, filters)
        for node, count in per_item.items():
            if count:
                totals[node] += count
    return totals


def phi_dict(graph: CGraph, filters: Collection[Node] = ()) -> int:
    """Seed ``Φ(A, V)``: total received copies, exact big ints."""
    return sum(node_receipts_dict(graph, filters).values())


def absorbing_suffix_dict(
    graph: CGraph,
    filters: Collection[Node] = (),
) -> dict[Node, int]:
    """Seed ``W``: one backward dict pass."""
    filter_set = set(filters)
    order = graph.topological_order()
    w: dict[Node, int] = dict.fromkeys(order, 0)
    for v in reversed(order):
        acc = 0
        for u in graph.successors(v):
            acc += 1
            if u not in filter_set:
                acc += w[u]
        w[v] = acc
    return w


def marginal_gains_dict(
    graph: CGraph,
    filters: Collection[Node] = (),
) -> dict[Node, int]:
    """Seed ``I(v | A)``: one W pass plus one ψ pass per source."""
    filter_set = set(filters)
    order = graph.topological_order()
    w = absorbing_suffix_dict(graph, filter_set)
    gains: dict[Node, int] = dict.fromkeys(graph.nodes(), 0)
    for origin in graph.sources:
        psi = item_receipts_dict(graph, origin, filter_set)
        for v in order:
            if v in filter_set:
                continue
            surplus = psi[v] - 1
            if surplus > 0 and w[v]:
                gains[v] += surplus * w[v]
    return gains


def simplified_impacts_dict(
    graph: CGraph,
    filters: Collection[Node] = (),
) -> dict[Node, int]:
    """Seed ``I'(v) = Prefix(v) × dout(v)``."""
    order = graph.topological_order()
    totals: dict[Node, int] = dict.fromkeys(order, 0)
    for origin in graph.sources:
        psi = item_receipts_dict(graph, origin, filters)
        for v in order:
            totals[v] += psi[v]
    return {v: totals[v] * graph.out_degree(v) for v in graph.nodes()}


def world_graphs_dict(graph: CGraph, masks) -> list[CGraph]:
    """One ``CGraph`` per sampled live-edge world.

    ``masks`` holds one 0/1 coin per edge, in ``graph.edges()`` order
    (the sampler's canonical forward-CSR order).  Each world keeps every
    node and the full graph's source set, so a source cut off by dead
    edges still counts as a source — as in the sampled sweeps.
    """
    edges = list(graph.edges())
    return [
        CGraph(
            [e for e, live in zip(edges, mask) if live],
            nodes=graph.nodes(),
            sources=graph.sources,
        )
        for mask in masks
    ]


def sampled_dict(
    graph: CGraph,
    filters: Collection[Node],
    masks,
) -> tuple[dict[Node, int], dict[Node, int], int]:
    """Per-world oracle of the SAA queries, summed over worlds.

    Returns ``(Σ_t I_t(v | A), Σ_t I'_t(v), Σ_t Φ_t(A))`` from the dict
    sweeps above, run once per world graph of :func:`world_graphs_dict`.
    """
    gains: dict[Node, int] = dict.fromkeys(graph.nodes(), 0)
    scores: dict[Node, int] = dict.fromkeys(graph.nodes(), 0)
    phi = 0
    for world in world_graphs_dict(graph, masks):
        for v, gain in marginal_gains_dict(world, filters).items():
            gains[v] += gain
        for v, score in simplified_impacts_dict(world, filters).items():
            scores[v] += score
        phi += phi_dict(world, filters)
    return gains, scores, phi


# ----------------------------------------------------------------------
# Greedy selection loops (seed argmax semantics: highest gain, ties to
# the lowest graph.nodes() rank)
# ----------------------------------------------------------------------


def greedy_all_dict(graph: CGraph, k: int) -> tuple[Node, ...]:
    """Seed eager ``Greedy_All``: one dict gain sweep per pick."""
    node_rank = {v: i for i, v in enumerate(graph.nodes())}
    chosen: list[Node] = []
    current: set[Node] = set()
    for _ in range(k):
        gains = marginal_gains_dict(graph, current)
        best: Node | None = None
        best_gain = 0
        for v, gain in gains.items():
            if v in current or gain <= 0:
                continue
            if (
                best is None
                or gain > best_gain
                or (gain == best_gain and node_rank[v] < node_rank[best])
            ):
                best = v
                best_gain = gain
        if best is None:
            break
        current.add(best)
        chosen.append(best)
    return tuple(chosen)


def greedy_max_dict(graph: CGraph, k: int) -> tuple[Node, ...]:
    """Seed ``Greedy_Max``: rank once by ``I(v | ∅)``."""
    node_rank = {v: i for i, v in enumerate(graph.nodes())}
    scored = marginal_gains_dict(graph, ())
    ranked = sorted(
        (v for v, gain in scored.items() if gain > 0),
        key=lambda v: (-scored[v], node_rank[v]),
    )
    return tuple(ranked[:k])


def greedy_l_dict(graph: CGraph, k: int) -> tuple[Node, ...]:
    """Seed ``Greedy_L``: one ``I'`` dict sweep per pick."""
    node_rank = {v: i for i, v in enumerate(graph.nodes())}
    order = graph.topological_order()
    chosen: list[Node] = []
    current: set[Node] = set()
    for _ in range(k):
        scores = simplified_impacts_dict(graph, current)
        best: Node | None = None
        best_score = 0
        for v in order:
            if v in current:
                continue
            score = scores[v]
            if score <= 0:
                continue
            if (
                best is None
                or score > best_score
                or (score == best_score and node_rank[v] < node_rank[best])
            ):
                best = v
                best_score = score
        if best is None:
            break
        current.add(best)
        chosen.append(best)
    return tuple(chosen)


def greedy_one_dict(graph: CGraph, k: int) -> tuple[Node, ...]:
    """Seed ``Greedy_1``: rank by ``din × dout``."""
    node_rank = {v: i for i, v in enumerate(graph.nodes())}
    scores = {
        v: graph.in_degree(v) * graph.out_degree(v) for v in graph.nodes()
    }
    ranked = sorted(
        (v for v, score in scores.items() if score > 0),
        key=lambda v: (-scores[v], node_rank[v]),
    )
    return tuple(ranked[:k])


ORACLE_PLACERS = {
    "G_All": greedy_all_dict,
    "G_Max": greedy_max_dict,
    "G_1": greedy_one_dict,
    "G_L": greedy_l_dict,
}
