"""The greedy family's selection helpers against the loops they replaced.

:func:`repro.core.base.select_best` (the argmax step of ``G_All``,
``G_All_paper`` and ``G_L``) and :func:`repro.core.base.select_top` (the
top-``k`` of ``G_Max`` and ``G_1``) must pick exactly what the
per-node interpreter loops below picked: same ids, same order, same
lowest-id tie-breaks, whatever the magnitude of the values.
"""

from __future__ import annotations

import random

import pytest

from conftest import random_dag
from repro.backends.registry import available_backends
from repro.core.base import select_best, select_top
from repro.core.impact import marginal_gains_ids
from repro.core.registry import get_algorithm
from repro.graphs.cgraph import CGraph

# ----------------------------------------------------------------------
# The reference loops, as the four algorithms wrote them
# ----------------------------------------------------------------------


def _greedy_all_step(gains, placed, early_stop):
    """``GreedyAll.place``'s ascending strict-``>`` scan (None: stop)."""
    best = -1
    best_gain = 0
    for v, gain in enumerate(gains):
        if placed[v]:
            continue
        if gain <= 0 and early_stop:
            continue
        if best < 0 or gain > best_gain:
            best = v
            best_gain = gain
    return None if best < 0 else best


def _greedy_l_step(scores, placed):
    """``GreedyL.place``'s scan: always cuts at ``score > 0``."""
    best = -1
    best_score = 0
    for v, score in enumerate(scores):
        if placed[v]:
            continue
        if score <= 0:
            continue
        if best < 0 or score > best_score:
            best = v
            best_score = score
    return None if best < 0 else best


def _greedy_max_top(scored, k):
    """``GreedyMax.place``'s ranking of positive impacts."""
    ranked = sorted(
        (v for v, gain in enumerate(scored) if gain > 0),
        key=lambda v: (-scored[v], v),
    )
    return ranked[:k]


def _greedy_one_top(scores, k):
    """``GreedyOne.place``'s ranking of positive degree products."""
    ranked = sorted(
        (v for v, score in enumerate(scores) if score > 0),
        key=lambda v: (-scores[v], v),
    )
    return ranked[:k]


#: Few distinct values, so ties are common; zeros and values past 2^64
#: (the Python-int limb gains) included.
_POOL = (0, 0, 1, 2, 3, 7, 2**63 - 1, 2**64 + 1, 2**70, 10**30)


def _random_lists(count: int):
    rng = random.Random(17)
    for _ in range(count):
        n = rng.randint(1, 30)
        values = [rng.choice(_POOL) for _ in range(n)]
        chosen = rng.sample(range(n), rng.randint(0, n))
        yield rng, values, chosen


def test_select_best_matches_the_greedy_all_and_greedy_l_scans():
    for _, values, chosen in _random_lists(2000):
        placed = bytearray(len(values))
        for v in chosen:
            placed[v] = 1
        for early_stop in (True, False):
            assert select_best(
                values, chosen, early_stop=early_stop
            ) == _greedy_all_step(values, placed, early_stop)
        assert select_best(values, chosen) == _greedy_l_step(values, placed)
    # The caller's list is never written through.
    values = [5, 5, 0]
    assert select_best(values, [0]) == 1 and values == [5, 5, 0]


def test_select_top_matches_the_greedy_max_and_greedy_one_sorts():
    for rng, values, _ in _random_lists(2000):
        k = rng.randint(0, len(values))
        assert select_top(values, k) == _greedy_max_top(values, k)
        assert select_top(values, k) == _greedy_one_top(values, k)


def _diamond() -> CGraph:
    """One merge node ``c``: after it, every marginal gain is zero."""
    return CGraph(
        [("s", "a"), ("s", "b"), ("a", "c"), ("b", "c"), ("c", "d")],
        sources=["s"],
    )


@pytest.mark.parametrize("backend", available_backends())
def test_greedy_all_paper_keeps_placing_zero_gain_nodes_in_id_order(
    backend,
):
    graph = _diamond()
    paper = get_algorithm("G_All_paper", backend=backend).place(graph, 5)
    assert paper.filters == ("c", "s", "a", "b", "d")
    assert [step.gain for step in paper.steps] == [1, 0, 0, 0, 0]
    eager = get_algorithm("G_All", backend=backend).place(graph, 5)
    assert eager.filters == ("c",)


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_greedy_all_paper_matches_the_reference_scan(backend, seed):
    graph = random_dag(seed, n=24, p=0.15)
    n = graph.number_of_nodes()
    result = get_algorithm("G_All_paper", backend=backend).place(graph, n)
    compiled = graph.compiled()
    chosen: list[int] = []
    placed = bytearray(n)
    for _ in range(n):
        gains = marginal_gains_ids(graph, chosen, backend=backend)
        best = _greedy_all_step(gains, placed, early_stop=False)
        placed[best] = 1
        chosen.append(best)
    assert result.filters == tuple(compiled.to_nodes(chosen))
    assert len(set(result.filters)) == n
