"""Test bootstrap: make ``src/`` importable and share graph fixtures."""

from __future__ import annotations

import json
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


#: Faults of a ``.fpc`` directory's ``meta.json`` that a load must
#: reject with a ParameterError naming the file (:func:`malform_fpc_meta`).
MALFORMED_FPC_META = (
    "not-json",
    "not-an-object",
    "no-n",
    "no-arrays",
    "no-is_dag",
    "arrays-not-an-object",
    "table-not-an-object",
    "unknown-dtype",
    "list-dtype",
    "unknown-table",
    "missing-table",
    "missing-level-table",
    "negative-len",
    "string-len",
    "string-n",
)


def malform_fpc_meta(target: Path, case: str) -> None:
    """Rewrite the ``meta.json`` of the ``.fpc`` DAG directory ``target``
    with the fault ``case`` names."""
    path = target / "meta.json"
    meta = json.loads(path.read_text())
    tables = meta["arrays"]
    if case == "not-json":
        path.write_text("{")
        return
    if case == "not-an-object":
        meta = [meta]
    elif case.startswith("no-"):
        del meta[case[3:]]
    elif case == "arrays-not-an-object":
        meta["arrays"] = list(tables)
    elif case == "table-not-an-object":
        tables["out_targets"] = "int32"
    elif case == "unknown-dtype":
        tables["out_targets"]["dtype"] = "float32"
    elif case == "list-dtype":
        tables["out_targets"]["dtype"] = ["int32"]
    elif case == "unknown-table":
        tables["extra"] = {"dtype": "int32", "len": 0}
    elif case == "missing-table":
        del tables["in_sources"]
    elif case == "missing-level-table":
        del tables["depth"]
    elif case == "negative-len":
        tables["out_targets"]["len"] = -1
    elif case == "string-len":
        tables["out_targets"]["len"] = str(tables["out_targets"]["len"])
    elif case == "string-n":
        meta["n"] = str(meta["n"])
    else:
        raise ValueError(case)
    path.write_text(json.dumps(meta))


@pytest.fixture
def fig1():
    from repro.datasets.toy import fig1_graph

    return fig1_graph()
