"""Benchmarking the serving path: cold-miss vs cached-hit latency.

The algorithm suites time ``algorithm.place`` directly; these cells time
the *request* — everything :meth:`repro.service.app.ServiceApp.place_sync`
does between receiving a placement body and returning the response dict:

* ``service_cold`` — an empty placement cache, so the request pays job
  submission, the full placement computation, payload serialization and
  the cache insert.  Each repeat swaps in a fresh cache; graph
  registration, backend warming and the per-graph ``Φ`` constants are
  one-time costs paid outside the timed region (exactly as they are in a
  long-lived service).
* ``service_hit`` — the same request against a warm cache: validation,
  key resolution and an LRU lookup.  This is the latency every repeat
  customer of a placement sees, and the number the ≥50× acceptance bar
  compares against the cold cell.

Both cells return ordinary :class:`~repro.bench.results.BenchRecord`\\ s
(filters, objective, FR read from the response payload), so the
comparator, the BENCH.json schema and the CLI table need no special
cases beyond the ``/cold`` / ``/hit`` key suffix.
"""

from __future__ import annotations

import time

from repro.bench.results import BenchRecord
from repro.bench.scenarios import BenchScenario
from repro.exceptions import ParameterError
from repro.graphs.cgraph import CGraph

#: Timed hit requests per repeat (hits are microseconds; a small inner
#: population makes best-of robust without inflating suite runtime).
HIT_REQUESTS_PER_REPEAT = 20


def run_service_scenario(
    scenario: BenchScenario,
    *,
    graph: CGraph | None = None,
    repeats: int = 1,
    phi_constants: tuple[int, int] | None = None,
    compile_seconds: float | None = None,
) -> BenchRecord:
    """Measure one ``service_cold`` / ``service_hit`` cell.

    Mirrors :func:`repro.bench.harness.run_scenario`'s contract (same
    parameters, same best-of-``repeats`` seconds semantics) so the
    harness can dispatch on ``scenario.mode`` and treat the record
    uniformly.  ``compile_seconds`` (the graph's one-time compile cost)
    is carried into the record's ``plan_seconds`` — registration warms
    exactly that one shared plan.
    """
    from repro.bench.harness import _load_timed
    from repro.service.app import ServiceApp
    from repro.service.cache import PlacementCache

    if repeats <= 0:
        raise ParameterError("repeats must be positive")
    if scenario.mode not in ("service_cold", "service_hit"):
        raise ParameterError(
            f"not a service scenario mode: {scenario.mode!r}"
        )
    if graph is None:
        graph, compile_seconds = _load_timed(scenario)

    app = ServiceApp(workers=1)
    try:
        entry, _ = app.store.register_graph(
            graph,
            name=scenario.key(),
            spec={
                "kind": "dataset",
                "dataset": scenario.dataset,
                "seed": scenario.seed,
                "scale": scenario.scale,
            },
        )
        if phi_constants is not None:
            entry.prime_phi_constants(phi_constants)
        else:
            entry.phi_constants()
        body = {
            "graph": entry.digest,
            "algorithm": scenario.algorithm,
            "strategy": "exact",
            "backend": scenario.backend,
            "k": scenario.k,
        }

        best = float("inf")
        total = 0.0
        payload = None
        if scenario.mode == "service_cold":
            for _ in range(repeats):
                app.cache = PlacementCache()  # every repeat misses
                start = time.perf_counter()
                status, doc = app.place_sync(body)
                elapsed = time.perf_counter() - start
                _check_response(status, doc)
                payload = doc["result"]
                total += elapsed
                best = min(best, elapsed)
            requests = repeats
        else:
            app.place_sync(body)  # prime the cache, untimed
            requests = repeats * HIT_REQUESTS_PER_REPEAT
            for _ in range(requests):
                start = time.perf_counter()
                status, doc = app.handle_placement(body)
                elapsed = time.perf_counter() - start
                _check_response(status, doc, expect_hit=True)
                payload = doc["result"]
                total += elapsed
                best = min(best, elapsed)
    finally:
        app.close()
    assert payload is not None  # repeats >= 1

    # Cache swaps and response checks between requests are untimed, so
    # the cell's wall-clock is the sum of the timed requests only.
    phases = {"solve": best}
    if total > best:
        phases["repeat_overhead"] = total - best
    return BenchRecord(
        scenario=scenario,
        nodes=graph.number_of_nodes(),
        edges=graph.number_of_edges(),
        seconds=best,
        repeats=repeats,
        plan_seconds=compile_seconds or 0.0,
        phases=phases,
        wall_seconds=total,
        evaluations={"requests": requests},
        filters=tuple(payload["filters"]),
        filters_found=payload["filters_found"],
        objective=payload["objective"],
        filter_ratio=payload["filter_ratio"],
    )


def _check_response(status, doc, *, expect_hit: bool = False) -> None:
    if status != 200:
        raise ParameterError(
            f"service bench request failed with {status}: {doc}"
        )
    if expect_hit and not doc["cache"]["hit"]:
        raise ParameterError(
            "service bench expected a cache hit but the request missed"
        )
