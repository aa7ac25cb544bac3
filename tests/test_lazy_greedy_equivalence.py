"""Lazy-greedy (CELF) equivalence and the incremental gain engine.

The contract of :mod:`repro.core.celf`: the lazy strategy returns the
*same placement sequence and objective values* as eager ``Greedy_All`` —
on every dataset, every budget, every backend — while issuing a fraction
of the propagation sweeps.  Plus the submodularity property CELF rests
on: a stale heap entry is always an upper bound of the fresh gain.
"""

from __future__ import annotations

import pytest

from conftest import random_dag
from repro.backends import available_backends, get_backend, use_backend
from repro.bench.instrument import CountingBackend
from repro.core.celf import CelfGreedyAll
from repro.core.greedy_all import GreedyAll
from repro.core.objective import objective_value
from repro.core.registry import get_algorithm, use_strategy
from repro.datasets.synthetic import dense_synthetic, sparse_synthetic
from repro.datasets.toy import (
    fig1_graph,
    fig2_like_graph,
    fig3_like_graph,
    fig10_sketch_graph,
)

GRAPHS = {
    "fig1": fig1_graph,
    "fig2": fig2_like_graph,
    "fig3": fig3_like_graph,
    "fig10": fig10_sketch_graph,
    "sparse": lambda: sparse_synthetic(seed=3, scale=0.12),
    "dense": lambda: dense_synthetic(seed=1, scale=0.12),
    "random": lambda: random_dag(11, n=24, p=0.3, sources=3),
}

BACKENDS = available_backends()


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_lazy_matches_exact_up_to_k10(graph_name, backend_name):
    graph = GRAPHS[graph_name]()
    backend = get_backend(backend_name)
    eager = GreedyAll(backend=backend).place(graph, min(10, len(graph)))
    lazy = CelfGreedyAll(backend=backend).place(graph, min(10, len(graph)))
    assert lazy.filters == eager.filters
    assert [s.gain for s in lazy.steps] == [s.gain for s in eager.steps]
    # Objective values agree at every prefix, not just the endpoint.
    for j in range(len(eager.filters) + 1):
        assert objective_value(
            graph, eager.filters[:j], backend=backend
        ) == objective_value(graph, lazy.filters[:j], backend=backend)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_heap_staleness_upper_bound_property(backend_name):
    # Submodularity: every lazily refreshed gain must come back at or
    # below the stale value that ranked it — otherwise CELF's selections
    # would not be trustworthy.
    audit = []
    graph = sparse_synthetic(seed=5, scale=0.15)
    CelfGreedyAll(backend=get_backend(backend_name), audit=audit).place(
        graph, 10
    )
    assert audit, "expected at least one lazy refresh on this graph"
    for node, stale, fresh, round_no in audit:
        assert fresh <= stale, (
            f"refresh of {node!r} in round {round_no} rose {stale} -> "
            f"{fresh}; gains must be non-increasing"
        )


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_session_matches_full_sweeps_after_each_placement(backend_name):
    backend = get_backend(backend_name)
    graph = random_dag(4, n=22, p=0.3, sources=3)
    session = backend.gain_session(graph)
    assert session.gains() == backend.marginal_gains(graph)
    placed = []
    for _ in range(8):
        gains = session.gains()
        candidates = {
            v: g for v, g in gains.items() if g > 0 and v not in placed
        }
        if not candidates:
            break
        pick = max(candidates, key=candidates.__getitem__)
        affected = session.add_filter(pick)
        placed.append(pick)
        fresh = backend.marginal_gains(graph, placed)
        assert session.gains() == fresh
        # The affected set is sound *and* tight: gains outside it did
        # not move, gains inside it (minus the pick) are exactly the
        # ones that did.
        for v, g in fresh.items():
            if v not in affected:
                assert g == gains[v]
        assert pick in affected
    assert session.filters == frozenset(placed)


def test_sessions_identical_across_backends():
    if "numpy" not in BACKENDS:
        pytest.skip("numpy not available")
    graph = fig10_sketch_graph()
    py = get_backend("python").gain_session(graph)
    np_sess = get_backend("numpy").gain_session(graph)
    gains = py.gains()
    order = sorted(gains, key=gains.__getitem__, reverse=True)[:3]
    for pick in order:
        assert py.add_filter(pick) == np_sess.add_filter(pick)
        assert py.gains() == np_sess.gains()


def test_numpy_sessions_are_the_python_sessions():
    # One gain evaluator per backend: the numpy backend keeps no session
    # of its own and hands out the python backend's for each tier.
    if "numpy" not in BACKENDS:
        pytest.skip("numpy not available")
    from repro.backends import NumpyBackend, PythonBackend

    graph = random_dag(4, n=22, p=0.3, sources=3)
    for tier in ("bitpack", "lanes"):
        numpy_session = NumpyBackend(tier=tier).gain_session(graph)
        python_session = PythonBackend(tier=tier).gain_session(graph)
        assert type(numpy_session) is type(python_session)
        assert numpy_session.gains() == python_session.gains()


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_lazy_needs_5x_fewer_sweeps_at_k10(backend_name):
    # The acceptance bar: on a default-suite-shaped cell at k >= 10 the
    # lazy strategy must record at least 5x fewer full propagation
    # sweeps than eager Greedy_All.
    graph = sparse_synthetic(seed=0, scale=0.5)
    results = {}
    for cls in (GreedyAll, CelfGreedyAll):
        counting = CountingBackend(get_backend(backend_name))
        with use_backend(counting):
            results[cls] = cls().place(graph, 10)
        results[cls, "sweeps"] = counting.sweep_evaluations()
    assert results[GreedyAll].filters == results[CelfGreedyAll].filters
    eager_sweeps = results[GreedyAll, "sweeps"]
    lazy_sweeps = results[CelfGreedyAll, "sweeps"]
    assert lazy_sweeps * 5 <= eager_sweeps, (
        f"lazy used {lazy_sweeps} sweeps vs eager {eager_sweeps}"
    )


def test_strategy_selects_celf_without_changing_the_name():
    exact = get_algorithm("G_All")
    lazy = get_algorithm("G_All", strategy="lazy")
    assert isinstance(exact, GreedyAll)
    assert isinstance(lazy, CelfGreedyAll)
    assert lazy.name == "G_All"  # results are identical; labels must not fork
    with use_strategy("lazy"):
        assert isinstance(get_algorithm("G_All"), CelfGreedyAll)
        # Non-lazy-capable algorithms are untouched by the strategy.
        assert type(get_algorithm("G_1")).__name__ == "GreedyOne"
    assert isinstance(get_algorithm("G_All"), GreedyAll)


def test_place_cli_strategy_flag_matches_exact(capsys):
    from repro.cli import main

    outputs = {}
    for strategy in ("exact", "lazy"):
        code = main(
            [
                "place",
                "--dataset", "fig10",
                "--algorithm", "G_All",
                "-k", "4",
                "--strategy", strategy,
            ]
        )
        assert code == 0
        outputs[strategy] = capsys.readouterr().out
    assert outputs["exact"] == outputs["lazy"]


def test_lazy_suite_savings_report():
    from repro.bench.compare import lazy_savings
    from repro.bench.harness import run_suite
    from repro.bench.scenarios import BenchScenario

    scenarios = [
        BenchScenario("fig10", alg, 6, "python")
        for alg in ("G_All", "G_All_lazy")
    ]
    records = run_suite(scenarios)
    ratios = lazy_savings(records)
    assert len(ratios) == 1
    (ratio,) = ratios.values()
    assert ratio > 1.0
