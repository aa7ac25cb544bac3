"""Filter-Ratio-versus-k sweeps — the measurement behind Figures 5/7/8/9.

For deterministic, prefix-consistent algorithms (the greedy family) a
single run at the largest budget yields the whole curve: the budget-``j``
filter set is the first ``j`` selections.  For the randomized baselines
each budget is sampled afresh and averaged over ``trials`` runs (25 in the
paper).
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Hashable

from repro.analysis.metrics import describe
from repro.core.objective import filter_ratio, max_objective, phi
from repro.core.registry import get_algorithm
from repro.exceptions import ParameterError
from repro.graphs.cgraph import CGraph

Node = Hashable

#: Trials the paper averages randomized algorithms over.
DEFAULT_TRIALS = 25


@dataclass(frozen=True)
class FRCurve:
    """One algorithm's Filter-Ratio curve.

    ``values[i]`` is the (possibly trial-averaged) FR at budget ``ks[i]``.
    """

    algorithm: str
    ks: tuple[int, ...]
    values: tuple[float, ...]

    def final(self) -> float:
        """FR at the largest measured budget."""
        return self.values[-1] if self.values else 0.0

    def first_k_reaching(self, target: float) -> int | None:
        """Smallest measured budget with FR ≥ ``target`` (None if never)."""
        for k, value in zip(self.ks, self.values):
            if value >= target:
                return k
        return None


def fr_curve(
    graph: CGraph,
    algorithm_name: str,
    ks: Sequence[int],
    *,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    phi_empty: int | None = None,
    f_max: int | None = None,
) -> FRCurve:
    """Measure one algorithm's FR at each budget in ``ks``."""
    ks = tuple(sorted(set(int(k) for k in ks)))
    if not ks:
        raise ParameterError("ks must be non-empty")
    if min(ks) < 0:
        raise ParameterError("budgets must be non-negative")
    if phi_empty is None:
        phi_empty = phi(graph, ())
    if f_max is None:
        f_max = max_objective(graph, phi_empty=phi_empty)

    algorithm = get_algorithm(algorithm_name)
    values: list[float] = []
    if algorithm.prefix_consistent:
        result = algorithm.place(graph, max(ks))
        for k in ks:
            values.append(
                filter_ratio(
                    graph,
                    result.filters[:k],
                    phi_empty=phi_empty,
                    f_max=f_max,
                )
            )
    else:
        for k in ks:
            values.append(
                average_filter_ratio(
                    graph,
                    algorithm_name,
                    k,
                    trials=trials,
                    seed=seed,
                    phi_empty=phi_empty,
                    f_max=f_max,
                )
            )
    return FRCurve(algorithm=algorithm_name, ks=ks, values=tuple(values))


def average_filter_ratio(
    graph: CGraph,
    algorithm_name: str,
    k: int,
    *,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    phi_empty: int | None = None,
    f_max: int | None = None,
) -> float:
    """Mean FR of a (randomized) algorithm over ``trials`` fresh runs.

    Deterministic algorithms simply run ``trials`` identical times; the
    harness does not special-case them so comparisons stay honest.
    """
    if trials <= 0:
        raise ParameterError("trials must be positive")
    algorithm = get_algorithm(algorithm_name)
    total = 0.0
    for trial in range(trials):
        # Seeding with a string is deterministic regardless of
        # PYTHONHASHSEED (random.seed hashes str/bytes itself).
        rng = random.Random(f"{seed}:{algorithm_name}:{k}:{trial}")
        result = algorithm.place(graph, k, rng=rng)
        total += filter_ratio(
            graph, result.filters, phi_empty=phi_empty, f_max=f_max
        )
    return total / trials


def fr_curves(
    graph: CGraph,
    algorithm_names: Sequence[str],
    ks: Sequence[int],
    *,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> dict[str, FRCurve]:
    """FR curves for several algorithms, sharing the Φ(∅)/F(V) baselines."""
    phi_empty = phi(graph, ())
    f_max = max_objective(graph, phi_empty=phi_empty)
    describe(graph)  # cheap sanity walk; raises early on malformed input
    return {
        name: fr_curve(
            graph,
            name,
            ks,
            trials=trials,
            seed=seed,
            phi_empty=phi_empty,
            f_max=f_max,
        )
        for name in algorithm_names
    }
