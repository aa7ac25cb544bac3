"""The c-tree → binary tree transformation of Section 4.1.

The tree dynamic program splits a filter budget between the children of
each node; with arbitrary fan-out that split is a small knapsack.  The paper
side-steps it by first rewriting the c-tree so every node has at most two
children, threading surplus children through chains of *dump nodes*.  Dump
nodes are bookkeeping artifacts: they relay copies unchanged, may never host
a filter, and do not count toward the objective.

The transformation preserves propagation exactly: a dump node forwards
whatever multiset it receives, so the copies arriving at every *real* node
are identical before and after.  Tests verify this equivalence directly
against the propagation engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.exceptions import GraphStructureError
from repro.graphs.cgraph import CGraph
from repro.graphs.validation import is_ctree

Node = Hashable


def _dump_node(owner: Node, index: int) -> tuple[str, Node, int]:
    """Id scheme for synthesized dump nodes: collision-proof tuples."""
    return ("__dump__", owner, index)


@dataclass
class BinarizedTree:
    """Result of :func:`binarize_ctree`.

    Attributes
    ----------
    graph:
        The transformed c-graph: original source, original tree nodes, plus
        dump nodes.  Every non-source node has at most two children.
    source:
        The (unchanged) source node.
    root:
        The root of the underlying tree (the unique non-source node whose
        only parent is the source... or whose parents exclude tree nodes).
    dump_nodes:
        Ids of all synthesized dump nodes.
    """

    graph: CGraph
    source: Node
    root: Node
    dump_nodes: frozenset[Node] = field(default_factory=frozenset)

    def is_dump(self, node: Node) -> bool:
        return node in self.dump_nodes


def binarize_ctree(graph: CGraph) -> BinarizedTree:
    """Rewrite a c-tree so that every tree node has at most two children.

    Follows the paper's construction: a node ``v`` with children
    ``v1 … vr`` (``r > 2``) keeps ``v1`` as its left child and receives a
    new dump node ``u1`` as its right child; ``u1`` takes ``v2 … vr`` and
    the rewriting recurses until every node has exactly two children.
    Edges incident to the *source* are left untouched — the source's
    fan-out is not part of the tree and the DP never splits budget there.

    Raises
    ------
    GraphStructureError
        If ``graph`` is not a c-tree (see :func:`repro.graphs.is_ctree`).
    """
    if not is_ctree(graph):
        raise GraphStructureError("binarize_ctree requires a c-tree input")
    source = next(iter(graph.sources))

    tree_children: dict[Node, list[Node]] = {}
    root: Node | None = None
    for v in graph.nodes():
        if v == source:
            continue
        # An edge back into the source can only exist when v is unreachable
        # from it (the graph is a DAG), so it never carries copies; it is
        # not a tree edge and is dropped from the transformed graph.
        tree_children[v] = [c for c in graph.successors(v) if c != source]
        parents = [p for p in graph.predecessors(v) if p != source]
        if not parents:
            root = v
    if root is None and tree_children:
        raise GraphStructureError("c-tree has no tree root")

    edges: list[tuple[Node, Node]] = [(source, c) for c in graph.successors(source)]
    dump_nodes: set[Node] = set()

    for v in list(tree_children):
        children = tree_children[v]
        if len(children) <= 2:
            edges.extend((v, c) for c in children)
            continue
        # Chain surplus children through dump nodes, exactly as in §4.1:
        # v -> (v1, u1); u_i -> (v_{i+1}, u_{i+1}); the last dump takes the
        # final two children.
        holder: Node = v
        remaining = list(children)
        index = 0
        while len(remaining) > 2:
            left = remaining.pop(0)
            dump = _dump_node(v, index)
            index += 1
            dump_nodes.add(dump)
            edges.append((holder, left))
            edges.append((holder, dump))
            holder = dump
        edges.append((holder, remaining[0]))
        edges.append((holder, remaining[1]))

    all_nodes = list(graph.nodes()) + sorted(dump_nodes, key=repr)
    binary = CGraph(edges, nodes=all_nodes, sources=[source])
    return BinarizedTree(
        graph=binary,
        source=source,
        root=root if root is not None else source,
        dump_nodes=frozenset(dump_nodes),
    )
