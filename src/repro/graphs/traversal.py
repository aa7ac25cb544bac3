"""Graph traversals used throughout the library.

These are deliberately implemented iteratively (no recursion) so they work on
the paper-scale graphs — the Twitter-like cascade has ~90k nodes, far beyond
CPython's default recursion limit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Hashable

from repro.exceptions import MissingNodeError
from repro.graphs.cgraph import CGraph

Node = Hashable


def topological_order(graph: CGraph) -> tuple[Node, ...]:
    """A topological order of ``graph``'s nodes (Kahn's algorithm).

    Raises :class:`~repro.exceptions.CyclicGraphError` on cyclic input.
    This simply defers to the cached order on the graph object; it exists as
    a free function because call sites read more naturally with it.
    """
    return graph.topological_order()


def reachable_from(graph: CGraph, roots: Node | list[Node]) -> set[Node]:
    """All nodes reachable from ``roots`` by directed paths (roots included)."""
    if isinstance(roots, list):
        frontier = list(roots)
    else:
        frontier = [roots]
    for root in frontier:
        if root not in graph:
            raise MissingNodeError(root)
    seen: set[Node] = set(frontier)
    while frontier:
        node = frontier.pop()
        for child in graph.successors(node):
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return seen


def bfs_levels(graph: CGraph, root: Node) -> dict[Node, int]:
    """Map each node reachable from ``root`` to its BFS level (root = 0).

    The Twitter dataset of the paper was collected as a six-level BFS crawl;
    the twitter-like generator and its tests use this to check level shape.
    """
    if root not in graph:
        raise MissingNodeError(root)
    level = {root: 0}
    queue: deque[Node] = deque([root])
    while queue:
        node = queue.popleft()
        for child in graph.successors(node):
            if child not in level:
                level[child] = level[node] + 1
                queue.append(child)
    return level


@dataclass
class DfsResult:
    """Outcome of a depth-first traversal from a single root.

    Attributes
    ----------
    discovery:
        ``discovery[v]`` is the DFS discovery time of ``v`` — the paper's
        ``σ(v)`` in Section 4.3.
    finish:
        ``finish[v]`` is the DFS finishing time.
    tree_edges:
        The edges of the DFS tree ``T`` in the order they were used.
    parent:
        ``parent[v]`` is ``v``'s parent in the DFS tree (roots map to None).
    """

    discovery: dict[Node, int] = field(default_factory=dict)
    finish: dict[Node, int] = field(default_factory=dict)
    tree_edges: list[tuple[Node, Node]] = field(default_factory=list)
    parent: dict[Node, Node | None] = field(default_factory=dict)


def dfs_forest(graph: CGraph, roots: list[Node]) -> DfsResult:
    """Iterative depth-first search from ``roots`` (in order).

    Children are explored in adjacency order, so the traversal — and hence
    the discovery times the ``Acyclic`` algorithm depends on — is fully
    deterministic for a given graph.
    """
    result = DfsResult()
    clock = 0
    for root in roots:
        if root not in graph:
            raise MissingNodeError(root)
        if root in result.discovery:
            continue
        result.parent[root] = None
        # Stack holds (node, iterator over remaining children).
        result.discovery[root] = clock
        clock += 1
        stack: list[tuple[Node, int]] = [(root, 0)]
        while stack:
            node, child_index = stack[-1]
            children = graph.successors(node)
            advanced = False
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                if child not in result.discovery:
                    stack[-1] = (node, child_index)
                    result.discovery[child] = clock
                    clock += 1
                    result.parent[child] = node
                    result.tree_edges.append((node, child))
                    stack.append((child, 0))
                    advanced = True
                    break
            else:
                stack[-1] = (node, child_index)
            if not advanced and child_index >= len(children):
                result.finish[node] = clock
                clock += 1
                stack.pop()
    return result

