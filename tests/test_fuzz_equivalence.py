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

import random

import pytest

import oracle_dictpath as oracle
from strategies import DagCase, standard_cases
from repro.backends.python_backend import TIERS
from repro.backends.registry import available_backends, build_backend
from repro.core.registry import STRATEGY_NAMES, get_algorithm
from repro.graphs.cgraph import CGraph
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


# ----------------------------------------------------------------------
# Past int64: the corpus behind a 2**70 amplifier.  The numpy backend
# carries T and W as base-2**32 limbs here; the python backend's big
# ints and the dict oracle must agree with it on every query.
# ----------------------------------------------------------------------

#: Stacked diamonds in the amplifier chain: its tail gets 2**70 copies.
AMPLIFIER_DIAMONDS = 70

_amplified: dict[str, CGraph] = {}


def amplified_graph(case: DagCase) -> CGraph:
    """``case``'s DAG behind a chain of 70 stacked diamonds.

    The chain's head is a new source and its tail feeds every source of
    the case, which stay sources (now with a parent).  Chain nodes take
    the ids after the case's own, so every node stays an int.
    """
    if case.name not in _amplified:
        base = case_graph(case)
        nodes = list(base.nodes())
        head = prev = len(nodes)
        edges = list(base.edges())
        for i in range(AMPLIFIER_DIAMONDS):
            a, b, m = head + 3 * i + 1, head + 3 * i + 2, head + 3 * i + 3
            edges += [(prev, a), (prev, b), (a, m), (b, m)]
            prev = m
        sources = sorted(base.sources)
        edges += [(prev, s) for s in sources]
        _amplified[case.name] = CGraph(
            edges,
            nodes=nodes + list(range(head, prev + 1)),
            sources=[head, *sources],
        )
    return _amplified[case.name]


def amplified_filter_sets(case: DagCase, graph: CGraph):
    """Empty, chain-only, and chain plus case-interior filter sets."""
    rng = random.Random(case.seed + AMPLIFIER_DIAMONDS)
    head = max(graph.sources)
    chain = [v for v in graph.nodes() if v > head]
    interior = case.filter_pool(3)
    return [
        (),
        tuple(rng.sample(chain, 2)),
        tuple(rng.sample(chain, 1) + rng.sample(interior, min(2, len(interior)))),
    ]


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_amplified_corpus_matches_dict_oracle_past_int64(case):
    graph = amplified_graph(case)
    nodes = graph.compiled().nodes
    backends = {
        name: tier_backend(name, "bitpack") for name in available_backends()
    }
    if "numpy" in backends:
        plan = backends["numpy"].plan_for(graph)
        assert plan.representation == "limbs"
        assert 2 <= plan.t_limbs <= 3 and 2 <= plan.w_limbs <= 3
    for filters in amplified_filter_sets(case, graph):
        filter_ids = graph.compiled().to_ids(filters)
        gains = oracle.marginal_gains_dict(graph, filters)
        impacts = oracle.simplified_impacts_dict(graph, filters)
        receipts = oracle.node_receipts_dict(graph, filters)
        if not filters:
            assert max(receipts.values()) >= 2**AMPLIFIER_DIAMONDS
        for name, backend in backends.items():
            label = f"{case.name}/{name} with filters {filters}"
            assert backend.marginal_gains_ids(graph, filter_ids) == [
                gains[v] for v in nodes
            ], label
            assert backend.simplified_impacts_ids(graph, filter_ids) == [
                impacts[v] for v in nodes
            ], label
            for weight in (1, 3, 10**30):
                assert backend.node_receipts(
                    graph, filters, items_per_source=weight
                ) == {v: weight * c for v, c in receipts.items()}, label
    for algorithm in ("G_All", "G_L", "G_Max"):
        expected = oracle.ORACLE_PLACERS[algorithm](graph, K)
        for name, backend in backends.items():
            result = get_algorithm(algorithm, backend=backend).place(graph, K)
            assert result.filters == expected, f"{case.name}/{algorithm}/{name}"


def test_amplified_corpus_reaches_three_limbs():
    """Some amplified case needs a third limb, so the two-step carry
    (limb 0 into 1, then 1 into 2) runs on random structure too."""
    pytest.importorskip("numpy")
    backend = tier_backend("numpy", "bitpack")
    widest = max(
        max(plan.t_limbs, plan.w_limbs)
        for plan in (backend.plan_for(amplified_graph(c)) for c in CASES)
    )
    assert widest == 3


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
# Blocked reachability warm: bit-equality for every engine × block
# combination (the out-of-core nreach sweep's contract).
# ----------------------------------------------------------------------

#: Block sizes straddling the lane-word boundaries: single-lane, partial
#: word, exact word, word+1, and larger-than-every-corpus-source-set.
REACH_BLOCKS = (1, 3, 64, 65, 1000)


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
        _plane_sweep_counts,
        _sweep_tables,
        _swept_sources,
    )

    tables = _sweep_tables(np, compiled)
    sources, first_levels = _swept_sources(np, tables, compiled.source_ids)
    return _plane_sweep_counts(
        np, tables, sources, first_levels, block
    ).tolist()


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


#: Source sets over :func:`_reach_edge_graph`'s one edge set.
REACH_EDGE_CASES = ("sources-with-parents", "sink-sources", "sinks-only",
                    "mixed")


def _reach_edge_graph(case: str) -> CGraph:
    """Reach corner cases the seeded corpus never builds.

    The corpus only draws edges into ids at or above its source count,
    so every explicit source sits at depth 0.  Here sources sit below
    the roots, on sinks, or only on sinks, and node 120 merges 90
    parents — an in-degree past one 64-lane word.
    """
    rng = random.Random(20)
    n = 150
    edges = {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.03
    }
    edges |= {(i, 120) for i in range(90)}
    edges |= {(120, j) for j in (121, 133, 149)}
    nodes = range(n + 4)  # the last four are isolated
    has_out = {u for u, _ in edges}
    has_in = {v for _, v in edges}
    sinks = [v for v in nodes if v not in has_out]
    sources = {
        "sources-with-parents": [
            v for v in nodes if v in has_in and v in has_out
        ][::2],
        "sink-sources": [v for v in nodes if v not in has_in] + sinks[::2],
        "sinks-only": sinks,
        "mixed": rng.sample(list(nodes), 70),
    }[case]
    return CGraph(sorted(edges), nodes=nodes, sources=sources)


@pytest.mark.parametrize("case", REACH_EDGE_CASES)
@pytest.mark.parametrize("block", REACH_BLOCKS)
def test_reach_counts_on_sources_the_corpus_never_draws(case, block):
    from repro.graphs.compiled import (
        blocked_reach_counts,
        packed_reach_counts,
    )
    from repro.propagation.reach import warm_reach_counts

    graph = _reach_edge_graph(case)
    compiled = graph.compiled()
    assert max(compiled.in_degree) >= 65
    expected = _oracle_reach_counts(graph)
    assert packed_reach_counts(compiled) == expected
    assert blocked_reach_counts(compiled, block) == expected
    plane = _numpy_plane_counts(compiled, block)
    if plane is not None:
        assert plane == expected
    assert warm_reach_counts(compiled, block=block) == expected


class _NoBitwiseCount:
    """A NumPy stand-in without ``bitwise_count``, as before NumPy 2.0."""

    def __init__(self, np) -> None:
        self._np = np

    def __getattr__(self, name: str):
        if name == "bitwise_count":
            raise AttributeError(name)
        return getattr(self._np, name)


def test_reach_popcount_fallback_matches_bitwise_count():
    np = _numpy_or_none()
    if np is None:
        pytest.skip("the popcount fallback is the NumPy engine's")
    from repro.propagation.reach import (
        _plane_sweep_counts,
        _sweep_tables,
        _swept_sources,
        _word_popcounts,
    )

    legacy = _NoBitwiseCount(np)
    assert not hasattr(legacy, "bitwise_count")
    rng = np.random.default_rng(5)
    plane = rng.integers(
        0, 2**64 - 1, size=(257, 3), dtype=np.uint64, endpoint=True
    )
    plane[0] = 0
    plane[1] = np.iinfo(np.uint64).max
    by_bits = [[bin(int(w)).count("1") for w in row] for row in plane]
    assert _word_popcounts(legacy, plane).tolist() == by_bits
    assert _word_popcounts(np, plane).tolist() == by_bits
    for case in REACH_EDGE_CASES:
        graph = _reach_edge_graph(case)
        compiled = graph.compiled()
        tables = _sweep_tables(np, compiled)
        sources, first_levels = _swept_sources(
            np, tables, compiled.source_ids
        )
        for block in (3, 65):
            fallback = _plane_sweep_counts(
                legacy, tables, sources, first_levels, block
            )
            native = _plane_sweep_counts(
                np, tables, sources, first_levels, block
            )
            assert fallback.tolist() == native.tolist()
            assert native.tolist() == _oracle_reach_counts(graph)


def _wide_merge_graph() -> CGraph:
    """600 sources merging into one hub: ``nreach`` past a uint8 word."""
    edges = {(s, 600) for s in range(600)}
    edges |= {(s, 601 + s % 7) for s in range(0, 600, 2)}
    edges |= {(v, 610) for v in range(600, 608)}
    edges.add((610, 611))
    return CGraph(sorted(edges), nodes=range(615), sources=range(600))


@pytest.mark.parametrize("block", (1, 3, 64, 65, 1000))
def test_reach_tally_folds_before_it_wraps(block, monkeypatch):
    """A uint8 tally folds every ``⌊255 / min(64, block)⌋`` blocks (every
    3 at 64 lanes); on the 600-source hub it would wrap without the
    fold, and the counts must still match both oracles."""
    from repro.graphs.compiled import blocked_reach_counts
    from repro.propagation import reach

    monkeypatch.setattr(reach, "_TALLY_DTYPE", "uint8")
    graphs = [_reach_edge_graph(case) for case in REACH_EDGE_CASES]
    for graph in [*graphs, _wide_merge_graph()]:
        compiled = graph.compiled()
        expected = _oracle_reach_counts(graph)
        assert blocked_reach_counts(compiled, block) == expected
        assert reach.warm_reach_counts(compiled, block=block) == expected
