"""Placement-as-a-service: graph store, result cache, worker pool, HTTP API.

The batch CLI answers one question per process; this subsystem keeps the
expensive state resident and shares it across requests:

* :mod:`repro.service.store` — a content-addressed **GraphStore** holding
  immutable :class:`~repro.graphs.cgraph.CGraph` instances (each with its
  single shared compiled plan warmed — one
  :class:`~repro.graphs.compiled.CompiledGraph` per digest, consumed by
  every backend) under SHA-256 digests.
* :mod:`repro.service.cache` — a **PlacementCache** keyed by
  ``(graph_digest, algorithm, strategy, backend, k, rng_seed)`` with LRU +
  size-bounded eviction and greedy prefix reuse (any ``k' ≤ k`` request is
  served from a cached ``k`` run).
* :mod:`repro.service.jobs` — a **JobManager** running cache misses on a
  configurable worker pool with in-flight deduplication and cancellation.
* :mod:`repro.service.app` / :mod:`repro.service.http` — the request layer:
  a transport-free :class:`~repro.service.app.ServiceApp` plus the
  stdlib-only HTTP JSON API behind ``filter-placement serve``.
* :mod:`repro.service.serialize` — the one serializer both the service and
  the CLI ``--json`` mode use, so API responses are bit-identical to
  ``filter-placement place --json``.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

#: Access-log renderings accepted by the server.  Defined here rather
#: than in :mod:`repro.service.http` so the CLI parser can offer them
#: without importing the HTTP stack.
LOG_FORMATS: tuple[str, ...] = ("text", "json")

#: The package's re-exports and the submodule each comes from.  They
#: resolve on first access (:func:`__getattr__`), so importing one
#: submodule — the serializer, for ``place --json`` — loads no other.
_EXPORTS = {
    "GraphStore": "store",
    "JobManager": "jobs",
    "PlacementCache": "cache",
    "PlacementKey": "cache",
    "ServiceApp": "app",
    "graph_digest": "store",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.app import ServiceApp
    from repro.service.cache import PlacementCache, PlacementKey
    from repro.service.jobs import JobManager
    from repro.service.store import GraphStore, graph_digest


def __getattr__(name: str) -> Any:
    """Import a re-exported name's submodule on first access."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
