"""Threads sharing one numpy plan each get their own filter set's answers.

The plan keeps one last ``(mask, rows)`` per sweep, swapped under a
lock, and every call restarts from whatever pair it finds.  Here more
threads than cores cycle through their own filter sets on one backend
and one graph, with the interpreter switching threads as often as it
can; a restart from a mismatched mask and rows, or rows written while
another thread reads them, would show as a wrong answer.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

pytest.importorskip("numpy")

from test_fuzz_equivalence import CASES, amplified_graph, case_graph  # noqa: E402
from test_sweep_restart import QUERIES, answer  # noqa: E402
from repro.backends.numpy_backend import NumpyBackend  # noqa: E402

THREADS = 4
ROUNDS = 6
SETS_PER_THREAD = 4
JOIN_TIMEOUT_S = 120


@pytest.mark.parametrize("corpus", ("plain", "amplified"))
def test_threads_sharing_a_plan_get_their_own_answers(corpus):
    case = CASES[-1]
    graph = case_graph(case) if corpus == "plain" else amplified_graph(case)
    nodes = list(graph.compiled().nodes)
    rng = random.Random(case.seed)
    cycles = [
        [
            frozenset(rng.sample(nodes, rng.randint(0, 6)))
            for _ in range(SETS_PER_THREAD)
        ]
        for _ in range(THREADS)
    ]
    expected = {
        (kind, filters): answer(NumpyBackend(), graph, kind, filters)
        for cycle in cycles
        for filters in cycle
        for kind in QUERIES
    }
    shared = NumpyBackend()
    shared.warm(graph)
    wrong: list = []
    done = [0] * THREADS

    def run(slot: int) -> None:
        try:
            for _ in range(ROUNDS):
                for filters in cycles[slot]:
                    for kind in QUERIES:
                        got = answer(shared, graph, kind, filters)
                        if got != expected[kind, filters]:
                            wrong.append((slot, kind, sorted(filters)))
                        done[slot] += 1
        except Exception as exc:  # reported below, with the thread's slot
            wrong.append((slot, repr(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=run, args=(slot,))
            for slot in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=JOIN_TIMEOUT_S)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert done == [ROUNDS * SETS_PER_THREAD * len(QUERIES)] * THREADS
