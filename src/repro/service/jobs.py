"""The JobManager: cache misses on a worker pool, with deduplication.

Every placement miss becomes a :class:`Job` with an id, a lifecycle
(``queued → running → done | failed``, or ``cancelled`` while still
queued), and a completion event callers can block on.  Submitting the
same cache key while an identical job is queued or running returns the
existing job — a thundering herd of identical requests performs the
expensive computation exactly once.

Jobs run on a :class:`~concurrent.futures.ThreadPoolExecutor` in the
serving process, against the resident graph and its cached objective
constants.  Placement work on big graphs is dominated by NumPy kernels
and big-int arithmetic, both of which release or sidestep the GIL well
enough for serving.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable

from repro.exceptions import ParameterError

#: Job lifecycle states.
JOB_STATES: tuple[str, ...] = (
    "queued",
    "running",
    "done",
    "failed",
    "cancelled",
)

#: Finished jobs retained for ``GET /jobs/{id}`` before pruning.
MAX_FINISHED_JOBS = 512

_job_counter = itertools.count(1)


class Job:
    """One unit of placement work and its observable lifecycle."""

    def __init__(
        self, job_id: str, key: str, request_id: str | None = None
    ) -> None:
        self.id = job_id
        self.key = key
        # The X-Request-Id of the request that created the job, for
        # correlating a job (and its trace) back to the access log.
        self.request_id = request_id
        self.state = "queued"
        self.created_unix = time.time()
        self.started_unix: float | None = None
        self.finished_unix: float | None = None
        self.payload: dict[str, Any] | None = None
        self.error: str | None = None
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._future: Future | None = None

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job finishes (done/failed/cancelled)."""
        return self._done.wait(timeout)

    @property
    def finished(self) -> bool:
        return self._done.is_set()

    def describe(self) -> dict[str, Any]:
        """The job's JSON form for ``GET /jobs/{id}`` (sans payload)."""
        with self._lock:
            doc: dict[str, Any] = {
                "id": self.id,
                "key": self.key,
                "state": self.state,
                "created_unix": round(self.created_unix, 3),
            }
            if self.request_id is not None:
                doc["request_id"] = self.request_id
            if self.started_unix is not None:
                doc["started_unix"] = round(self.started_unix, 3)
            if self.finished_unix is not None:
                doc["finished_unix"] = round(self.finished_unix, 3)
            if self.error is not None:
                doc["error"] = self.error
            return doc

    # -- transitions (called by the manager only) ----------------------

    def _mark_running(self) -> bool:
        with self._lock:
            if self.state != "queued":
                return False
            self.state = "running"
            self.started_unix = time.time()
            return True

    def _finish(self, payload: dict[str, Any]) -> None:
        with self._lock:
            self.state = "done"
            self.payload = payload
            self.finished_unix = time.time()
        self._done.set()

    def _fail(self, exc: BaseException) -> None:
        with self._lock:
            self.state = "failed"
            self.error = f"{type(exc).__name__}: {exc}"
            self.finished_unix = time.time()
        self._done.set()

    def _mark_cancelled(self) -> bool:
        with self._lock:
            if self.state != "queued":
                return False
            self.state = "cancelled"
            self.finished_unix = time.time()
        self._done.set()
        return True


class JobManager:
    """Runs placement jobs on a bounded pool with in-flight dedup."""

    def __init__(self, *, workers: int = 4) -> None:
        if workers < 1:
            raise ParameterError("workers must be positive")
        self.workers = workers
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="placement-job"
        )
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._in_flight: dict[str, Job] = {}
        self.submitted = 0
        self.deduplicated = 0

    def submit(
        self,
        key: str,
        fn: Callable[[], dict[str, Any]],
        *,
        request_id: str | None = None,
    ) -> tuple[Job, bool]:
        """Run ``fn`` on the pool under ``key``.

        Returns ``(job, created)``; ``created=False`` means an identical
        job was already queued or running and was returned instead —
        the dedup guarantee.  ``request_id`` tags the job with the
        originating request for log/trace correlation.
        """
        with self._lock:
            existing = self._in_flight.get(key)
            if existing is not None and not existing.finished:
                self.deduplicated += 1
                return existing, False
            job = Job(f"job-{next(_job_counter):06d}", key, request_id)
            self._jobs[job.id] = job
            self._in_flight[key] = job
            self.submitted += 1
            self._prune_finished_locked()

        def run() -> None:
            from repro.obs.metrics import REGISTRY
            from repro.obs.trace import TRACER

            if not job._mark_running():
                return  # cancelled while queued
            start = time.perf_counter()
            outcome = "done"
            try:
                # The trace is keyed by the job id so GET /traces/{id}
                # can serve this solve's span tree; the worker thread
                # has its own span stack, so concurrent jobs nest
                # independently.
                attrs = {"key": key}
                if job.request_id is not None:
                    attrs["request_id"] = job.request_id
                with TRACER.trace(trace_id=job.id, **attrs):
                    payload = fn()
                job._finish(payload)
            except BaseException as exc:  # report, never kill the worker
                outcome = "failed"
                job._fail(exc)
            finally:
                REGISTRY.histogram(
                    "fp_job_run_seconds",
                    "Wall-clock seconds a job spent running on a worker.",
                    labels=("outcome",),
                ).observe(time.perf_counter() - start, outcome=outcome)
                with self._lock:
                    if self._in_flight.get(key) is job:
                        del self._in_flight[key]

        job._future = self._pool.submit(run)
        return job, True

    def get(self, job_id: str) -> Job:
        """The job registered under ``job_id``; raises on unknown ids."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ParameterError(f"unknown job id {job_id!r}")
        return job

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-queued job; running jobs cannot be stopped.

        Returns True when the job moved to ``cancelled``.
        """
        job = self.get(job_id)
        future = job._future
        if future is not None and future.cancel():
            cancelled = job._mark_cancelled()
            if cancelled:
                with self._lock:
                    if self._in_flight.get(job.key) is job:
                        del self._in_flight[job.key]
            return cancelled
        return False

    def jobs(self) -> list[Job]:
        """All known jobs, oldest first."""
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> dict[str, int]:
        """Jobs per state plus submit/dedup totals, for ``/healthz``."""
        with self._lock:
            per_state = dict.fromkeys(JOB_STATES, 0)
            for job in self._jobs.values():
                per_state[job.state] += 1
            return {
                **per_state,
                "submitted": self.submitted,
                "deduplicated": self.deduplicated,
            }

    def _prune_finished_locked(self) -> None:
        finished = [j for j in self._jobs.values() if j.finished]
        excess = len(finished) - MAX_FINISHED_JOBS
        for job in finished[:max(0, excess)]:
            del self._jobs[job.id]

    def shutdown(self, *, wait: bool = True) -> None:
        """Stop accepting work and (optionally) wait for running jobs."""
        self._pool.shutdown(wait=wait, cancel_futures=True)
