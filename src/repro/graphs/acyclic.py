"""Maximal connected acyclic subgraphs — the ``Acyclic`` algorithm (§4.3).

FP is NP-hard on general digraphs, and deterministic blind relaying does not
even terminate on cycles, so the paper pre-processes arbitrary c-graphs into
connected acyclic subgraphs rooted at a source and solves FP there.

Three variants are provided:

``acyclic_subgraph_signature``
    A faithful implementation of the paper's Algorithm 3: DFS tree ``T``
    from the source, then every remaining edge ``(u, v)`` is admitted iff
    the junction-signature test ``σ(v) < σ(w_u1) ≤ σ(u)`` passes, where
    ``w`` is the deepest junction shared by the tree paths to ``u`` and
    ``v``.  This admits exactly the cross edges that jump into an
    earlier-explored branch; it conservatively rejects forward edges (which
    are always safe), so its output can be slightly smaller than maximal.

``acyclic_subgraph_dfs``
    The classical alternative: keep every non-back edge of the DFS (an edge
    ``(u, v)`` is a back edge iff ``v`` is an ancestor of ``u`` in the DFS
    tree).  Output is acyclic because finishing times strictly decrease
    along every kept edge, connected because it contains the DFS tree, and
    *maximal*: re-adding any rejected back edge closes a cycle with the
    tree path from ``v`` down to ``u``.  This is the library default.

``acyclic_subgraph_ordering``
    The folklore 2-approximation the paper mentions and rejects: fix a node
    order, keep the larger of the forward/backward edge sets.  Included for
    the ablation benchmarks — it illustrates the connectivity problem the
    paper calls out (its output routinely strands nodes from the source).
"""

from __future__ import annotations

from typing import Hashable, Literal

from repro.exceptions import MissingNodeError, MissingSourceError
from repro.graphs.cgraph import CGraph
from repro.graphs.traversal import dfs_forest

Node = Hashable
Edge = tuple[Node, Node]


def acyclic_subgraph(
    graph: CGraph,
    source: Node | None = None,
    *,
    method: Literal["dfs", "signature"] = "dfs",
) -> CGraph:
    """Extract a connected acyclic subgraph rooted at ``source``.

    Parameters
    ----------
    graph:
        Any directed c-graph (cycles allowed).
    source:
        Node to root the traversal at.  Defaults to the graph's unique
        source.  Nodes unreachable from it are dropped — they can never
        receive the item, so they are irrelevant to filter placement.
    method:
        ``"dfs"`` (default, maximal) or ``"signature"`` (the paper's
        Algorithm 3, faithful but conservative).

    Returns
    -------
    CGraph
        An acyclic graph over the reachable nodes whose only source is
        ``source``.
    """
    if source is None:
        source = graph.single_source()
    reachable, kept = _acyclic_edges(graph, source, method)
    return CGraph(kept, nodes=reachable, sources=[source])


def acyclic_subgraph_dfs(graph: CGraph, source: Node | None = None) -> CGraph:
    """:func:`acyclic_subgraph` with ``method='dfs'``."""
    return acyclic_subgraph(graph, source, method="dfs")


def acyclic_subgraph_signature(
    graph: CGraph, source: Node | None = None
) -> CGraph:
    """:func:`acyclic_subgraph` with ``method='signature'`` (Algorithm 3)."""
    return acyclic_subgraph(graph, source, method="signature")


def _acyclic_edges(
    graph: CGraph, source: Node, method: str
) -> tuple[set[Node], list[Edge]]:
    """``Acyclic`` from ``source`` as ``(reachable, kept)``: the nodes it
    reaches and the edges it keeps, which are exactly the nodes and
    edges of the graph :func:`acyclic_subgraph` builds from them."""
    if source not in graph:
        raise MissingNodeError(source)
    if method == "dfs":
        return _acyclic_dfs(graph, source)
    if method == "signature":
        return _acyclic_signature(graph, source)
    raise ValueError(f"unknown method {method!r}")


def _acyclic_dfs(
    graph: CGraph, source: Node
) -> tuple[set[Node], list[Edge]]:
    dfs = dfs_forest(graph, [source])
    reachable = set(dfs.discovery)
    finish = dfs.finish
    kept = [
        (u, v)
        for u, v in graph.edges()
        if u in reachable and v in reachable and finish[v] < finish[u]
    ]
    return reachable, kept


def _acyclic_signature(
    graph: CGraph, source: Node
) -> tuple[set[Node], list[Edge]]:
    dfs = dfs_forest(graph, [source])
    sigma = dfs.discovery
    reachable = set(sigma)

    # --- signatures -----------------------------------------------------
    # A *junction* is a node with more than one child in the DFS tree T.
    # sign(u) lists, for every junction w on the tree path source -> u, the
    # pair (σ(w), σ(w_u1)) where w_u1 is the child of w taken by that path.
    # Children inherit their parent's signature, extended by the parent
    # itself when the parent is a junction — a single pass down T.
    tree_children: dict[Node, list[Node]] = {v: [] for v in reachable}
    for u, v in dfs.tree_edges:
        tree_children[u].append(v)

    sign: dict[Node, tuple[tuple[int, int], ...]] = {source: ()}
    stack: list[Node] = [source]
    tree_edge_set = set(dfs.tree_edges)
    while stack:
        node = stack.pop()
        node_sig = sign[node]
        is_junction = len(tree_children[node]) > 1
        for child in tree_children[node]:
            if is_junction:
                sign[child] = node_sig + ((sigma[node], sigma[child]),)
            else:
                sign[child] = node_sig
            stack.append(child)

    # --- admit non-tree edges -------------------------------------------
    kept: list[Edge] = list(dfs.tree_edges)
    for u, v in graph.edges():
        if u not in reachable or v not in reachable:
            continue
        if (u, v) in tree_edge_set:
            continue
        branch = _deepest_common_junction(sign[u], sign[v])
        if branch is None:
            # No diverging junction: u and v lie on one root path, so the
            # candidate edge is a forward or back edge; Algorithm 3 admits
            # neither.
            continue
        sigma_wu1, sigma_wv1 = branch
        if sigma[v] < sigma_wu1 <= sigma[u]:
            kept.append((u, v))
    return reachable, kept


def _deepest_common_junction(
    sign_u: tuple[tuple[int, int], ...],
    sign_v: tuple[tuple[int, int], ...],
) -> tuple[int, int] | None:
    """Locate the junction where the tree paths to ``u`` and ``v`` diverge.

    Signatures share a prefix (the common part of the two root paths).  The
    paths diverge at the last common junction iff its branch-child entries
    differ; when the entries agree all the way, one node is an ancestor of
    the other and ``None`` is returned.

    Returns ``(σ(w_u1), σ(w_v1))`` of the diverging junction, or ``None``.
    """
    last: tuple[int, int] | None = None
    for (w_u, child_u), (w_v, child_v) in zip(sign_u, sign_v):
        if w_u != w_v:
            break
        if child_u != child_v:
            last = (child_u, child_v)
            # Paths have split; any further entries describe disjoint
            # branches and cannot share junctions.
            break
    return last


def acyclic_subgraph_ordering(
    graph: CGraph, order: list[Node] | None = None
) -> CGraph:
    """The folklore forward/backward 2-approximation (for comparison only).

    Fixes a node order, splits edges into forward and backward sets, and
    keeps the larger one.  At least half the edges survive, but — as the
    paper notes — the result need not be connected or even contain a path
    from the source to most nodes, which is why Algorithm 3 exists.
    """
    if order is None:
        order = list(graph.nodes())
    position = {node: i for i, node in enumerate(order)}
    missing = [v for v in graph.nodes() if v not in position]
    if missing:
        raise MissingNodeError(missing[0])
    forward = [(u, v) for u, v in graph.edges() if position[u] < position[v]]
    backward = [(u, v) for u, v in graph.edges() if position[u] > position[v]]
    kept = forward if len(forward) >= len(backward) else backward
    sources = graph.sources if graph.sources else None
    return CGraph(kept, nodes=graph.nodes(), sources=sources)


def largest_acyclic_subgraph(
    graph: CGraph,
    candidates: list[Node] | None = None,
    *,
    method: Literal["dfs", "signature"] = "dfs",
) -> CGraph:
    """Run ``Acyclic`` from every candidate start and keep the biggest DAG.

    This mirrors the paper's handling of the Quote dataset: "we run Acyclic
    initiated from every node in the graph, and then choose the largest
    resulting DAG" — used when a cyclic network has no clear initiator.
    Size is compared by node count, then edge count; ties break on the
    earliest candidate, so results are deterministic.  Only the winning
    candidate's graph is built.
    """
    if candidates is None:
        candidates = list(graph.nodes())
    if not candidates:
        raise MissingSourceError("no candidate start nodes supplied")
    best = None
    for start in candidates:
        reachable, kept = _acyclic_edges(graph, start, method)
        if best is None or (len(reachable), len(kept)) > best[0]:
            best = ((len(reachable), len(kept)), start, reachable, kept)
    _, start, reachable, kept = best
    return CGraph(kept, nodes=reachable, sources=[start])
