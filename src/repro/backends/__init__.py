"""Pluggable propagation backends.

Every placement algorithm and objective evaluation reduces to
topological-order sweeps; a *backend* is one implementation of those
sweeps behind the :class:`~repro.backends.base.PropagationBackend`
protocol:

* ``python`` — the exact arbitrary-precision reference engine
  (:class:`~repro.backends.python_backend.PythonBackend`).
* ``numpy`` — the levelized engine: two 1-D sweeps per evaluation on
  int64 rows, or on base-``2**32`` limbs past int64; what it has no
  sweep for (the lanes tier, gain sessions, per-source weights) runs
  on the exact engine
  (:class:`~repro.backends.numpy_backend.NumpyBackend`).
* ``auto`` — ``numpy`` when available, else ``python``.

Each backend also provides an incremental impact path: ``gain_session``
opens a :class:`~repro.backends.base.GainSession` that keeps its sweep
state alive and re-settles only the affected DAG region after each
placement — the engine behind the lazy-greedy (CELF) optimizer
(:mod:`repro.core.celf`).  Both backends hand out the exact sessions of
:mod:`repro.backends.incremental`.

The registry (:mod:`repro.backends.registry`) owns instances and the
process default; :mod:`repro.propagation.engine`, :mod:`repro.core` and
the CLI all route through it.
"""

from repro.backends.base import GainSession, PropagationBackend
from repro.backends.incremental import ExactGainSession
from repro.backends.numpy_backend import NumpyBackend, numpy_available
from repro.backends.python_backend import PythonBackend
from repro.backends.registry import (
    BACKEND_NAMES,
    available_backends,
    get_backend,
    get_default_backend,
    resolve_backend,
    set_default_backend,
    use_backend,
)

__all__ = [
    "PropagationBackend",
    "GainSession",
    "PythonBackend",
    "NumpyBackend",
    "ExactGainSession",
    "numpy_available",
    "BACKEND_NAMES",
    "available_backends",
    "get_backend",
    "get_default_backend",
    "resolve_backend",
    "set_default_backend",
    "use_backend",
]
