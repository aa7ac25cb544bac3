"""Differential fuzzing: bitpack vs lanes vs the dict-path oracle.

The bit-packed sweep tier answers every aggregate query from packed
source-reachability words — a different algorithm, not a different
implementation of the same loop — so it gets the adversarial treatment:
a fixed seeded corpus of random DAGs (:mod:`strategies`) is driven
through every query, algorithm, strategy, backend and sweep tier, and
each route must produce bit-identical integers and placements.

Three independent derivations are cross-checked per case:

* ``tier="bitpack"`` — aggregated popcount sweeps (the default);
* ``tier="lanes"`` — the historical one-lane-per-source formulation;
* :mod:`oracle_dictpath` — the pre-refactor dict engine, which touches
  neither ``repro.backends`` nor ``CGraph.compiled()``.

Probabilistic cases compare the two tiers over identical sampled worlds
(common random numbers), and both against the dict engine run once per
world, where results are exact summed integers and so must match
bit-for-bit, not approximately.  The whole module runs
without NumPy (the numpy axis simply drops out), which is how the
no-numpy CI job fuzzes the pure-Python engine alone.
"""

from __future__ import annotations

import pytest

import oracle_dictpath as oracle
from strategies import DagCase, standard_cases
from repro.backends.python_backend import TIERS
from repro.backends.registry import available_backends, build_backend
from repro.core.registry import STRATEGY_NAMES, get_algorithm
from repro.propagation.model import PropagationModel
from repro.propagation.sampling import get_worlds

CASES = standard_cases()
K = 4
TRIALS = 6  # below the pool threshold: the fuzz corpus stays in-process

_graphs: dict[str, object] = {}
_backends: dict[tuple[str, str], object] = {}


def case_graph(case: DagCase):
    if case.name not in _graphs:
        _graphs[case.name] = case.build()
    return _graphs[case.name]


def tier_backend(name: str, tier: str):
    if (name, tier) not in _backends:
        _backends[(name, tier)] = build_backend(name, tier=tier)
    return _backends[(name, tier)]


def case_filter_sets(case: DagCase):
    return [(), tuple(case.filter_pool(2)), tuple(case.filter_pool(5))]


def test_corpus_is_stable():
    # The corpus is part of the contract: a silent regeneration with
    # different parameters would quietly shrink coverage.
    assert len(CASES) == len(set(c.name for c in CASES)) == 12
    assert {c.seed for c in CASES} == set(
        range(CASES[0].seed, CASES[0].seed + 12)
    )


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
@pytest.mark.parametrize("backend_name", available_backends())
@pytest.mark.parametrize("tier", TIERS)
def test_sweep_numbers_match_dict_oracle(case, backend_name, tier):
    graph = case_graph(case)
    backend = tier_backend(backend_name, tier)
    for filters in case_filter_sets(case):
        assert backend.marginal_gains(
            graph, filters
        ) == oracle.marginal_gains_dict(graph, filters)
        assert backend.simplified_impacts(
            graph, filters
        ) == oracle.simplified_impacts_dict(graph, filters)
        assert backend.node_receipts(
            graph, filters
        ) == oracle.node_receipts_dict(graph, filters)
        assert backend.total_receipts(graph, filters) == oracle.phi_dict(
            graph, filters
        )


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
@pytest.mark.parametrize("algorithm", sorted(oracle.ORACLE_PLACERS))
@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
@pytest.mark.parametrize("backend_name", available_backends())
@pytest.mark.parametrize("tier", TIERS)
def test_placements_match_dict_oracle(
    case, algorithm, strategy, backend_name, tier
):
    graph = case_graph(case)
    expected = oracle.ORACLE_PLACERS[algorithm](graph, K)
    backend = tier_backend(backend_name, tier)
    instance = get_algorithm(algorithm, strategy=strategy, backend=backend)
    result = instance.place(graph, K)
    assert result.filters == expected, (
        f"{case.name}/{algorithm}/{strategy}/{backend_name}/{tier} "
        "diverged from the dict-path oracle"
    )


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
@pytest.mark.parametrize("backend_name", available_backends())
def test_incremental_sessions_match_oracle_across_tiers(case, backend_name):
    graph = case_graph(case)
    pool = case.filter_pool(3)
    sessions = [
        tier_backend(backend_name, tier).gain_session(graph)
        for tier in TIERS
    ]
    placed: list = []
    for nxt in [None, *pool]:
        if nxt is not None:
            for session in sessions:
                session.add_filter(nxt)
            placed.append(nxt)
        expected = oracle.marginal_gains_dict(graph, placed)
        for tier, session in zip(TIERS, sessions):
            assert session.gains() == expected, (
                f"{case.name}/{backend_name}/{tier} session diverged "
                f"after placing {placed}"
            )


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
@pytest.mark.parametrize("mechanism", ("live-edge", "per-copy"))
def test_sampled_queries_bit_identical_across_tiers_and_backends(
    case, mechanism
):
    graph = case_graph(case)
    model = PropagationModel(
        mechanism=mechanism,
        probabilities=case.edge_probabilities(),
        trials=TRIALS,
        seed=case.seed,
    )
    filters = case_filter_sets(case)[1]
    filter_ids = graph.compiled().to_ids(filters)
    results = {}
    for backend_name in available_backends():
        for tier in TIERS:
            backend = tier_backend(backend_name, tier)
            results[(backend_name, tier)] = (
                list(
                    backend.sampled_marginal_gains_ids(
                        graph, filter_ids, model=model
                    )
                ),
                list(
                    backend.sampled_simplified_impacts_ids(
                        graph, filter_ids, model=model
                    )
                ),
                backend.sampled_total_receipts(graph, filters, model=model),
            )
    reference = results[("python", "lanes")]
    for key, value in results.items():
        assert value == reference, (
            f"{case.name}/{mechanism}: sampled results of {key} diverged "
            "from python/lanes over identical worlds"
        )


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
@pytest.mark.parametrize("mechanism", ("live-edge", "per-copy"))
def test_sampled_queries_match_per_world_oracle(case, mechanism):
    # An SAA reference independent of every sweep tier: the dict engine
    # run once per sampled world, summed over worlds.
    graph = case_graph(case)
    model = PropagationModel(
        mechanism=mechanism,
        probabilities=case.edge_probabilities(),
        trials=TRIALS,
        seed=case.seed,
    )
    filters = case_filter_sets(case)[1]
    gains, scores, phi = oracle.sampled_dict(
        graph, filters, get_worlds(graph, model).masks
    )
    nodes = graph.nodes()
    expected = ([gains[v] for v in nodes], [scores[v] for v in nodes], phi)
    filter_ids = graph.compiled().to_ids(filters)
    for backend_name in available_backends():
        for tier in TIERS:
            backend = tier_backend(backend_name, tier)
            result = (
                list(
                    backend.sampled_marginal_gains_ids(
                        graph, filter_ids, model=model
                    )
                ),
                list(
                    backend.sampled_simplified_impacts_ids(
                        graph, filter_ids, model=model
                    )
                ),
                backend.sampled_total_receipts(graph, filters, model=model),
            )
            assert result == expected, (
                f"{case.name}/{mechanism}: sampled results of "
                f"{backend_name}/{tier} diverged from the per-world dict "
                "oracle"
            )


# ----------------------------------------------------------------------
# Blocked reachability warm: bit-equality for every engine × block ×
# worker combination (the out-of-core nreach sweep's contract).
# ----------------------------------------------------------------------

#: Block sizes straddling the lane-word boundaries: single-lane, partial
#: word, exact word, word+1, and larger-than-every-corpus-source-set.
REACH_BLOCKS = (1, 3, 64, 65, 1000)

#: Worker counts the sharded reduce is fuzzed at.
REACH_WORKERS = (1, 2, 4)


def _numpy_or_none():
    try:
        import numpy as np
    except ImportError:
        return None
    return np


def _oracle_reach_counts(graph) -> list[int]:
    """Dict-path oracle: per-source DFS over the successor dicts.

    ``nreach[v] = #{s : ψ_s(v) > 0}`` — sources with a ≥ 1-edge path to
    ``v`` — computed with none of the compiled machinery under test.
    """
    compiled = graph.compiled()
    counts = {v: 0 for v in graph.nodes()}
    for s in graph.sources:
        seen = set()
        stack = [s]
        while stack:
            for w in graph.successors(stack.pop()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        for v in seen:
            counts[v] += 1
    return [counts[v] for v in compiled.nodes]


def _numpy_plane_counts(compiled, block: int) -> "list[int] | None":
    """The NumPy plane engine's counts at ``block`` (None without NumPy).

    Drives the raw sweep, not :func:`warm_reach_counts` — the public
    entry caches on first call, which would collapse the block axis of
    the parametrization to whichever value ran first.
    """
    np = _numpy_or_none()
    if np is None:
        return None
    from repro.propagation.reach import (
        _as_int64,
        _plane_sweep_counts,
        _subtract_mark,
    )

    raw = _plane_sweep_counts(
        np,
        compiled.n,
        _as_int64(np, compiled.in_offsets),
        _as_int64(np, compiled.in_sources),
        _as_int64(np, compiled.topo_order),
        list(compiled.level_offsets),
        _as_int64(np, compiled.source_ids),
        block,
    )
    return _subtract_mark(np, raw, compiled).tolist()


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
@pytest.mark.parametrize("block", REACH_BLOCKS)
def test_blocked_reach_counts_bit_identical_across_blocks(case, block):
    from repro.graphs.compiled import (
        blocked_reach_counts,
        packed_reach_counts,
    )

    graph = case_graph(case)
    compiled = graph.compiled()
    monolithic = packed_reach_counts(compiled)
    assert monolithic == _oracle_reach_counts(graph)
    assert blocked_reach_counts(compiled, block) == monolithic
    plane = _numpy_plane_counts(compiled, block)
    if plane is not None:
        assert plane == monolithic


@pytest.mark.parametrize("workers", REACH_WORKERS)
def test_sharded_reach_counts_bit_identical_across_workers(workers):
    np = _numpy_or_none()
    if np is None:
        pytest.skip("sharding is the NumPy engine's axis")
    from repro.graphs.compiled import packed_reach_counts
    from repro.propagation.reach import _sharded_reach_counts

    for case in CASES:
        graph = case_graph(case)
        compiled = graph.compiled()
        if not compiled.source_ids:
            continue
        sharded = _sharded_reach_counts(np, compiled, 2, workers)
        assert sharded == packed_reach_counts(compiled), (
            f"{case.name}: sharded counts diverged at {workers} workers"
        )


def test_warm_reach_counts_caches_and_matches_backends():
    """The public entry: every backend's warm lands the identical list."""
    from repro.backends.registry import available_backends, build_backend
    from repro.graphs.compiled import packed_reach_counts
    from repro.propagation.reach import warm_reach_counts

    case = CASES[0]
    expected = None
    for backend_name in available_backends():
        graph = case.build()  # fresh graph: an unwarmed compiled cache
        compiled = graph.compiled()
        assert compiled._reach_counts is None
        build_backend(backend_name).warm(graph)
        assert compiled._reach_counts is not None
        assert warm_reach_counts(compiled) is compiled._reach_counts
        counts = list(compiled._reach_counts)
        assert counts == packed_reach_counts(compiled)
        if expected is None:
            expected = counts
        assert counts == expected
