"""Restarted numpy sweeps answer exactly as fresh ones.

The numpy backend keeps each plan's last ``T`` and ``W`` sweeps and
re-sweeps only the levels a new filter mask can change.  These tests
drive one backend through seeded sequences of filter sets — adds,
removals, repeats, ∅ and every node — over the fuzz corpus and its
past-int64 amplification, interleaving the four deterministic queries,
and compare every answer with a fresh backend's on the same set and
with the dict-path oracle.  The level counter's exact counts pin which
levels a call re-sweeps.
"""

from __future__ import annotations

import random

import pytest

pytest.importorskip("numpy")

import oracle_dictpath as oracle  # noqa: E402
from test_fuzz_equivalence import CASES, amplified_graph, case_graph  # noqa: E402
from repro.backends.numpy_backend import NumpyBackend  # noqa: E402
from repro.graphs.cgraph import CGraph  # noqa: E402
from repro.obs.metrics import REGISTRY  # noqa: E402

QUERIES = ("gains", "impacts", "receipts", "phi")
MOVES = ("add", "add", "add", "remove", "remove", "repeat", "empty", "all")
STEPS = 14


def answer(backend, graph, kind, filters, weight=1):
    """One deterministic query, as a list or an int."""
    if kind == "gains":
        return backend.marginal_gains_ids(graph, graph.compiled().to_ids(filters))
    if kind == "impacts":
        return backend.simplified_impacts_ids(
            graph, graph.compiled().to_ids(filters)
        )
    if kind == "receipts":
        return backend.node_receipts(graph, filters, items_per_source=weight)
    return backend.total_receipts(graph, filters, items_per_source=weight)


def oracle_answer(graph, kind, filters, weight=1):
    nodes = graph.compiled().nodes
    if kind == "gains":
        gains = oracle.marginal_gains_dict(graph, filters)
        return [gains[v] for v in nodes]
    if kind == "impacts":
        impacts = oracle.simplified_impacts_dict(graph, filters)
        return [impacts[v] for v in nodes]
    if kind == "receipts":
        receipts = oracle.node_receipts_dict(graph, filters)
        return {v: weight * c for v, c in receipts.items()}
    return weight * oracle.phi_dict(graph, filters)


def filter_sequence(graph: CGraph, seed: int) -> list[frozenset]:
    """∅, a level-0 node, plus a deepest-level node, then seeded moves."""
    rng = random.Random(seed)
    compiled = graph.compiled()
    nodes = list(compiled.nodes)
    top = nodes[compiled.topo_order[0]]
    bottom = nodes[compiled.topo_order[-1]]
    assert compiled.depth[compiled.topo_order[-1]] == compiled.num_levels - 1
    current = {top, bottom}
    sets = [frozenset(), frozenset({top}), frozenset(current)]
    for _ in range(STEPS):
        move = rng.choice(MOVES)
        if move == "add":
            current.add(rng.choice(nodes))
        elif move == "remove" and current:
            current.discard(rng.choice(sorted(current)))
        elif move == "empty":
            current = set()
        elif move == "all":
            current = set(nodes)
        sets.append(frozenset(current))
    return sets


def levels_counted() -> dict:
    family = REGISTRY.get("fp_sweep_levels_total")
    return {
        (quantity, outcome): family.value(quantity=quantity, outcome=outcome)
        if family is not None
        else 0
        for quantity in "TW"
        for outcome in ("swept", "reused")
    }


@pytest.mark.parametrize("corpus", ("plain", "amplified"))
@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_restarted_sweeps_match_fresh_sweeps_and_oracle(case, corpus):
    graph = case_graph(case) if corpus == "plain" else amplified_graph(case)
    backend = NumpyBackend()
    if corpus == "amplified":
        assert backend.plan_for(graph).representation == "limbs"
    rng = random.Random(case.seed)
    before = levels_counted()
    for step, filters in enumerate(filter_sequence(graph, case.seed)):
        for kind in rng.sample(QUERIES, rng.randint(1, len(QUERIES))):
            weight = rng.choice((1, 3))
            label = f"{case.name}/{corpus} step {step} {kind} {sorted(filters)}"
            got = answer(backend, graph, kind, filters, weight)
            fresh = answer(NumpyBackend(), graph, kind, filters, weight)
            assert got == fresh, label
            assert got == oracle_answer(graph, kind, filters, weight), label
    after = levels_counted()
    # The sequence restarts both sweeps, not only full re-sweeps.
    assert after["T", "reused"] > before["T", "reused"]
    assert after["W", "reused"] > before["W", "reused"]


def test_level_counter_counts_swept_and_reused_levels():
    """s → a, b → c → d: four levels; each call counts all of them once."""
    graph = CGraph(
        [("s", "a"), ("s", "b"), ("a", "c"), ("b", "c"), ("c", "d")]
    )
    backend = NumpyBackend()
    plan = backend.plan_for(graph)
    assert plan.num_levels == 4

    def counted(filters):
        before = levels_counted()
        assert backend.marginal_gains(graph, filters) == (
            oracle.marginal_gains_dict(graph, filters)
        )
        after = levels_counted()
        return {key: after[key] - before[key] for key in after}

    def expect(t_swept, w_swept):
        return {
            ("T", "swept"): t_swept,
            ("T", "reused"): 4 - t_swept,
            ("W", "swept"): w_swept,
            ("W", "reused"): 4 - w_swept,
        }

    # The first call sweeps every level of both.
    assert counted(()) == expect(4, 4)
    # A filter at depth 1: T below it, W above it.
    assert counted(("a",)) == expect(2, 1)
    # The same mask: both reused whole.
    assert counted(("a",)) == expect(0, 0)
    # A change at level 0 only: W sees nothing new.
    assert counted(("s", "a")) == expect(3, 0)
    # A change at the deepest level only: T sees nothing new.
    assert counted(("s", "a", "d")) == expect(0, 3)
    # The stored rows are never written in place.
    assert not plan.t_last[1].flags.writeable
    assert not plan.w_last[1].flags.writeable
