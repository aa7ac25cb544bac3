"""Shared plumbing of the benchmark: paths, spans, statistics, memory.

Everything here is benchmark-side.  The program under test is imported
from the checkout's own ``src/`` tree (see :func:`program_env`), so the
benchmark always measures the code it sits beside.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Generated inputs, cached references, traces and server scratch space.
WORK = BENCH_DIR / ".work"


class ProgramMissing(RuntimeError):
    """The checkout holds no program to measure."""


def require_program() -> None:
    """Fail loudly unless ``src/repro`` exists beside the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program under {SRC}/repro")


def program_env() -> dict[str, str]:
    """Environment for child processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def use_program_path() -> None:
    """Make ``import repro`` resolve to the checkout's ``src`` tree."""
    import sys

    require_program()
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def write_json_atomic(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    A span is ``{"id", "parent", "name", "start", "end", "attrs"}``;
    parents are tracked per thread, so concurrent clients nest
    independently.  Spans stay in memory until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, /, **attrs):
        stack = self._stack()
        record = {
            "id": next(self._ids),
            "parent": stack[-1] if stack else None,
            "name": name,
            "attrs": attrs,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def self_times(self) -> dict[int, float]:
        """Span id → duration minus the time its direct children cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None and s["parent"] in own:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def descendants(self, root_id: int) -> set[int]:
        children: dict[int, list[int]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s["id"])
        found, todo = set(), [root_id]
        while todo:
            sid = todo.pop()
            found.add(sid)
            todo.extend(children.get(sid, ()))
        return found

    def dump(self, path: Path) -> None:
        write_json_atomic(path, {"spans": self.spans})


class NullTracer:
    """The tracer of untraced runs: spans cost one no-op context."""

    spans: list = []

    @contextmanager
    def span(self, name: str, /, **attrs):
        yield None


# ----------------------------------------------------------------------
# Statistics and memory
# ----------------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] (0.0 when empty)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
