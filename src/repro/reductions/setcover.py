"""Theorem 1's gadget: SetCover → FP on general (cyclic) digraphs.

Construction, following the appendix verbatim:

* one node ``v_i`` per set ``S_i``, arranged in a fixed cyclic order ``σ``;
* for every universe element ``u``, a directed cycle through the nodes of
  the sets containing ``u`` — edges ``v_j1 → v_j2`` for consecutive
  containing sets in the cyclic order (including the wrap-around edge);
* a source wired to every set node.

One item then multiplies forever around every element-cycle, so ``Φ`` is
finite **iff** the chosen filters hit every element's cycle — i.e. iff the
chosen sets cover the universe.  :func:`verify_cover_breaks_cycles` checks
that equivalence with the propagation machinery, which is how the tests
certify the reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.exceptions import ParameterError
from repro.graphs.cgraph import CGraph
from repro.propagation.simulator import is_propagation_finite

Element = Hashable

SOURCE = "source"


@dataclass(frozen=True)
class SetCoverInstance:
    """A SetCover instance: a universe and a family of subsets."""

    universe: frozenset[Element]
    sets: tuple[frozenset[Element], ...]

    def __post_init__(self) -> None:
        covered = frozenset().union(*self.sets) if self.sets else frozenset()
        if not self.universe <= covered:
            missing = self.universe - covered
            raise ParameterError(
                f"universe elements not in any set: {sorted(missing, key=repr)}"
            )


def set_node(index: int) -> str:
    """Graph node id for set ``S_index``."""
    return f"set_{index}"


def setcover_to_fp(instance: SetCoverInstance) -> CGraph:
    """Build the Theorem-1 c-graph for a SetCover instance.

    The returned graph is cyclic by construction (one cycle per universe
    element) and has the single designated source :data:`SOURCE`.
    """
    edges: set[tuple[str, str]] = set()
    nodes = [set_node(i) for i in range(len(instance.sets))]
    for i in range(len(instance.sets)):
        edges.add((SOURCE, set_node(i)))

    for element in sorted(instance.universe, key=repr):
        containing = [
            i for i, s in enumerate(instance.sets) if element in s
        ]
        if len(containing) == 1:
            # A single-set element cannot form a cycle: Theorem 1's gadget
            # adds a self-loop in spirit; on simple graphs we emulate the
            # forced choice by a 2-cycle through a private companion node,
            # which likewise diverges unless the set node filters it.
            only = set_node(containing[0])
            companion = f"element_{element}_loop"
            edges.add((only, companion))
            edges.add((companion, only))
            continue
        for position, index in enumerate(containing):
            nxt = containing[(position + 1) % len(containing)]
            edges.add((set_node(index), set_node(nxt)))

    return CGraph(sorted(edges), nodes=nodes + [SOURCE], sources=[SOURCE])


def verify_cover_breaks_cycles(
    instance: SetCoverInstance, chosen: set[int]
) -> bool:
    """Theorem 1's equivalence, checked by machine.

    Returns True iff placing filters on the set nodes indexed by ``chosen``
    makes propagation finite on the gadget graph — which the theorem says
    happens exactly when ``chosen`` is a set cover.
    """
    graph = setcover_to_fp(instance)
    filters = {set_node(i) for i in chosen}
    return is_propagation_finite(graph, filters)
