"""The batch workloads' worker: one analyst ``place`` path, repeated.

Run as a child process so its peak RSS is the placement's own::

    python3 perfbench/batch.py measure '<config json>'
    python3 perfbench/batch.py reference '<config json>'

``measure`` runs one untimed warm-up cycle, then repeats *ingest the
edge file → compiled graph → reach warm → backend warm → exact G_All →
score → serialized payload* until the time budget is spent, and prints
one JSON document of per-cycle samples.  With tracing, even cycles put spans around every call into a
layer and odd cycles stay untraced, so the two can be compared.
``reference`` places once on the pure-python backend: the oracle the
measured placements must match.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import sys
import time
from pathlib import Path

from common import NullTracer, Tracer, median, use_program_path, vm_hwm_mb

use_program_path()

from repro.backends.registry import get_backend  # noqa: E402
from repro.core import objective  # noqa: E402
from repro.core.registry import get_algorithm  # noqa: E402
from repro.graphs.io import read_edge_list  # noqa: E402
from repro.graphs.largescale import compile_edge_list  # noqa: E402
from repro.propagation import reach  # noqa: E402
from repro.service.serialize import canonical_dumps, placement_payload  # noqa: E402


def ingest(path: str, how: str):
    """Edge file → graph with its compiled tables built."""
    if how == "streamed":
        graph = compile_edge_list(path)
    else:
        graph = read_edge_list(path)
    return graph, graph.compiled()


class TimedBackend:
    """A :class:`PropagationBackend` forwarder spanning each gain sweep."""

    def __init__(self, inner, tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.name = inner.name

    def marginal_gains_ids(self, graph, filter_ids=()):
        with self._tracer.span("backends.gains"):
            return self._inner.marginal_gains_ids(graph, filter_ids)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def place_cycle(path: str, how: str, k: int, tracer) -> dict:
    """One timed ingest + place; spans only when ``tracer`` records."""
    backend = get_backend("numpy")
    solver_backend = (
        backend if isinstance(tracer, NullTracer)
        else TimedBackend(backend, tracer)
    )
    t0 = time.perf_counter()
    with tracer.span("cycle") as root:
        with tracer.span("graphs.ingest"):
            graph, compiled = ingest(path, how)
        t1 = time.perf_counter()
        with tracer.span("propagation.reach_warm"):
            counts = reach.warm_reach_counts(compiled)
        with tracer.span("backends.warm"):
            backend.warm(graph)
        algorithm = get_algorithm(
            "G_All", strategy="exact", backend=solver_backend
        )
        with tracer.span("core.place"):
            result = algorithm.place(graph, k)
        with tracer.span("core.score"):
            phi_empty = objective.phi(graph, (), backend=backend)
            f_max = objective.max_objective(
                graph, phi_empty=phi_empty, backend=backend
            )
            phi_a = objective.phi(graph, result.filters, backend=backend)
        with tracer.span("service.serialize"):
            payload = placement_payload(
                graph, result, phi_empty=phi_empty, f_max=f_max,
                backend=backend,
            )
            text = canonical_dumps(payload)
    t2 = time.perf_counter()
    sample = {
        "ingest_s": t1 - t0,
        "place_s": t2 - t1,
        "traced": root is not None,
        "filters": list(result.filters),
        "objective": payload["objective"],
        "scored_objective": phi_empty - phi_a,
        "payload_sha": hashlib.sha256(text.encode()).hexdigest(),
        "payload_bytes": len(text),
    }
    if root is not None:
        sample["layers"] = layer_sample(
            tracer, root, compiled, counts, len(text)
        )
    return sample


def layer_sample(tracer, root, compiled, counts, payload_bytes) -> dict:
    """Per-layer figures of one traced cycle, from its span tree."""
    under = tracer.descendants(root["id"])
    spans = [s for s in tracer.spans if s["id"] in under]
    own = tracer.self_times()
    by_name: dict[str, float] = {}
    for s in spans:
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + own[s["id"]]
    layers_self = sum(v for name, v in by_name.items() if name != "cycle")
    sweeps = [s["end"] - s["start"] for s in spans
              if s["name"] == "backends.gains"]
    ingest_s = by_name["graphs.ingest"]
    n, num_sources = compiled.n, len(compiled.source_ids)
    split = compiled.nbytes_split()
    block = reach.active_reach_block()
    return {
        "graphs.ingest_s": ingest_s,
        "graphs.ingest_edges_per_s": compiled.m / ingest_s,
        "graphs.resident_mb": split["resident"] / 2**20,
        "graphs.mapped_mb": split["mapped"] / 2**20,
        "propagation.reach_warm_s": by_name["propagation.reach_warm"],
        "propagation.reach_blocks": math.ceil(num_sources / block),
        "propagation.reach_fill": float(sum(counts)) / (n * num_sources),
        "backends.warm_s": by_name["backends.warm"],
        "backends.gain_sweeps": len(sweeps),
        "backends.gains_s": sum(sweeps),
        "backends.sweep_ms": 1e3 * sum(sweeps) / max(1, len(sweeps)),
        "core.select_s": by_name["core.place"],
        "core.score_s": by_name["core.score"],
        "service.serialize_s": by_name["service.serialize"],
        "service.payload_bytes": payload_bytes,
        "ledger_layers_s": layers_self,
    }


def measure(config: dict) -> dict:
    seconds = float(config["seconds"])
    traced = bool(config["trace"])
    tracer = Tracer()
    samples: list[dict] = []
    # One untimed cycle first, so imports and first-call caches are paid
    # before the clock starts; its answer is still checked.  Its peak RSS
    # is that of one ``place`` in a fresh process: later cycles only add
    # what the allocator keeps between cycles, which varies run to run.
    warmup = place_cycle(config["input"], config["ingest"], config["k"],
                         NullTracer())
    peak_rss_mb = vm_hwm_mb()
    started = time.perf_counter()
    while True:
        gc.collect()
        cycle_tracer = tracer if traced and len(samples) % 2 == 0 else NullTracer()
        began = time.perf_counter()
        samples.append(
            place_cycle(config["input"], config["ingest"], config["k"],
                        cycle_tracer)
        )
        samples[-1]["cycle_s"] = time.perf_counter() - began
        elapsed = time.perf_counter() - started
        typical = median(s["cycle_s"] for s in samples)
        if len(samples) >= config["min_cycles"] and elapsed + typical > seconds:
            break
    if traced:
        tracer.dump(Path(config["trace_path"]))
    return {
        "warmup": warmup,
        "samples": samples,
        "measured_s": time.perf_counter() - started,
        "peak_rss_mb": peak_rss_mb,
    }


def reference(config: dict) -> dict:
    """Exact G_All and its objective on the pure-python backend."""
    graph, compiled = ingest(config["input"], config["ingest"])
    algorithm = get_algorithm("G_All", strategy="exact", backend="python")
    result = algorithm.place(graph, config["k"])
    phi_empty = objective.phi(graph, (), backend="python")
    phi_a = objective.phi(graph, result.filters, backend="python")
    return {
        "filters": list(result.filters),
        "objective": phi_empty - phi_a,
        "n": compiled.n,
        "m": compiled.m,
        "sources": len(compiled.source_ids),
        "log2_phi_empty": math.log2(phi_empty) if phi_empty > 0 else 0.0,
    }


def main(argv: list[str]) -> int:
    mode, config = argv[1], json.loads(argv[2])
    result = measure(config) if mode == "measure" else reference(config)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
