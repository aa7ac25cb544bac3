"""Test bootstrap: make ``src/`` importable and share graph fixtures."""

from __future__ import annotations

import random
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest  # noqa: E402

from repro.graphs.cgraph import CGraph  # noqa: E402


def random_dag(
    seed: int, *, n: int = 14, p: float = 0.3, sources: int = 2
) -> CGraph:
    """A small random DAG with ``sources`` explicit roots.

    Edges only run from lower to higher ids, so the graph is acyclic by
    construction; roots 0..sources-1 receive no incoming edges so they
    are genuine item generators.
    """
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(max(i + 1, sources), n)
        if rng.random() < p
    ]
    return CGraph(edges, nodes=range(n), sources=range(sources))


def diamond_chain(length: int) -> CGraph:
    """``length`` stacked diamonds: receipt counts double at every stage.

    With ``length = 70`` the deepest node receives ``2**70`` copies —
    far beyond int64 — which is exactly what the overflow-fallback tests
    need.
    """
    edges = []
    prev = "s"
    for i in range(length):
        a, b, m = f"a{i}", f"b{i}", f"m{i}"
        edges += [(prev, a), (prev, b), (a, m), (b, m)]
        prev = m
    return CGraph(edges)


def nonfinite_probe_graph() -> CGraph:
    """A short reachable path beside a source-unreachable diamond chain.

    The unreachable region's ``W`` reaches ``~2**1300``, past float64, so
    the numpy overflow probe sees ``inf`` — and ``inf·0 = NaN`` where it
    multiplies by the region's zero receipts.
    """
    reachable = [("s", "r0")] + [(f"r{i}", f"r{i+1}") for i in range(3)]
    unreachable = []
    prev = "u_top"
    for i in range(1300):  # W ~ 2**1300 ≫ float64 max
        a, b, m = f"ua{i}", f"ub{i}", f"um{i}"
        unreachable += [(prev, a), (prev, b), (a, m), (b, m)]
        prev = m
    return CGraph(reachable + unreachable, sources=["s"])


@pytest.fixture
def fig1():
    from repro.datasets.toy import fig1_graph

    return fig1_graph()
