"""Service observability: /metrics, /traces, request ids, logging.

Boots the real threaded HTTP server (ephemeral port) and checks the
surfaces ``docs/observability.md`` documents: the Prometheus scrape, the
per-job span trees, ``X-Request-Id`` propagation, the structured access
log, and the ``/healthz`` store-consistency guarantee.
"""

from __future__ import annotations

import json
import logging
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.trace import TRACER
from repro.service.app import ServiceApp
from repro.service.http import make_server


@pytest.fixture(autouse=True)
def _traced():
    """Serve-like tracing for every test; clean tracer on the way out."""
    TRACER.enable()
    TRACER.clear()
    yield
    TRACER.disable()
    TRACER.clear()


@pytest.fixture
def server():
    app = ServiceApp(workers=2, warm_backends=False)
    srv = make_server(app, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    app.close()
    thread.join(5)


def call(server, method, path, body=None, headers=None):
    url = f"http://127.0.0.1:{server.port}{path}"
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            raw = response.read()
            kind = response.headers.get("Content-Type", "")
            doc = raw.decode() if "text/plain" in kind else json.loads(raw)
            return response.status, doc, dict(response.headers)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read()), dict(err.headers)


def wait_for_log(caplog, predicate, timeout=5.0):
    """Access lines land *after* the response is sent; poll for them."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        lines = [r.getMessage() for r in caplog.records]
        if any(predicate(ln) for ln in lines):
            return lines
        time.sleep(0.01)
    return [r.getMessage() for r in caplog.records]


def place(server, digest, algorithm="G_All", k=3, **extra):
    body = {"graph": digest, "algorithm": algorithm, "k": k, "wait": True}
    return call(server, "POST", "/placements", body, **extra)


EXPOSITION_LINE = re.compile(
    r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? \S+)$"
)


LABEL_PAIR = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text):
    """{(name, frozenset(label pairs)): value} for every sample line."""
    samples = {}
    for line in text.rstrip("\n").split("\n"):
        assert EXPOSITION_LINE.match(line), f"bad exposition line: {line!r}"
        if line.startswith("#"):
            continue
        name_part, value = line.rsplit(" ", 1)
        if "{" in name_part:
            name, raw = name_part[:-1].split("{", 1)
            labels = frozenset(LABEL_PAIR.findall(raw))
        else:
            name, labels = name_part, frozenset()
        samples[(name, labels)] = value
    return samples


def test_metrics_after_cold_and_hit(server):
    status, doc, _ = call(server, "POST", "/graphs", {"dataset": "fig10"})
    assert status == 201
    digest = doc["digest"]
    assert place(server, digest)[0] == 200  # cold: computed
    assert place(server, digest)[0] == 200  # identical: cache hit

    status, text, headers = call(server, "GET", "/metrics")
    assert status == 200
    assert "text/plain" in headers["Content-Type"]
    samples = parse_exposition(text)

    families = {name for name, _ in samples}
    assert len(families) >= 12
    # Every subsystem shows up in one scrape.
    for expected in (
        "fp_backend_evaluations_total",   # backends
        "fp_cache_requests_total",        # placement cache
        "fp_store_graphs",                # graph store
        "fp_jobs_submitted_total",        # job manager
        "fp_sampling_world_cache_total",  # sampled worlds
        "fp_http_requests_total",         # http layer
        "fp_job_run_seconds_bucket",      # histogram exposition
    ):
        assert any(name == expected for name, _ in samples), expected

    def value(name, **labels):
        return float(samples[(name, frozenset(labels.items()))])

    assert value("fp_cache_requests_total", outcome="hit") >= 1
    assert value("fp_cache_requests_total", outcome="miss") >= 1
    assert value("fp_store_graphs") == 1
    assert value("fp_store_registrations_total") == 1
    assert value("fp_jobs_submitted_total") >= 1
    assert value("fp_jobs", state="done") >= 1
    assert (
        value("fp_backend_evaluations_total",
              kind="marginal_gains", backend="python") >= 0
    )


def test_request_id_echoed_and_generated(server):
    status, _, headers = call(
        server, "GET", "/healthz", headers={"X-Request-Id": "req-test-1"}
    )
    assert status == 200 and headers["X-Request-Id"] == "req-test-1"
    status, _, headers = call(server, "GET", "/healthz")
    assert status == 200
    generated = headers["X-Request-Id"]
    assert generated and generated != "req-test-1"


def test_trace_served_by_job_id_with_request_id(server):
    status, doc, _ = call(server, "POST", "/graphs", {"dataset": "fig10"})
    digest = doc["digest"]
    status, placed, _ = place(
        server, digest, headers={"X-Request-Id": "req-traced"}
    )
    assert status == 200
    job_id = placed["job"]["id"]
    assert placed["job"]["request_id"] == "req-traced"

    status, traced, _ = call(server, "GET", f"/traces/{job_id}")
    assert status == 200
    trace = traced["trace"]
    assert trace["trace_id"] == job_id
    assert trace["attrs"]["request_id"] == "req-traced"
    names = [s["name"] for s in trace["spans"]]
    assert "service.solve" in names and "service.serialize" in names
    assert "service.solve" in traced["tree"]
    assert traced["job"]["id"] == job_id

    status, err, _ = call(server, "GET", "/traces/job-999999")
    assert status == 404 and "unknown job" in err["error"]


def test_traces_404_when_tracing_disabled(server):
    TRACER.disable()
    status, doc, _ = call(server, "POST", "/graphs", {"dataset": "fig10"})
    status, placed, _ = place(server, doc["digest"], algorithm="G_Max")
    assert status == 200
    status, err, _ = call(
        server, "GET", f"/traces/{placed['job']['id']}"
    )
    assert status == 404 and "tracing" in err["error"]


def test_healthz_store_block_consistent_under_registration(server):
    """The /healthz store stats must be one atomic snapshot.

    Concurrent registrations race the scrape; whatever interleaving
    happens, each response must satisfy the store's own invariant
    ``graphs == registrations - evictions`` (no eviction bound is set).
    """
    datasets = ["fig1", "fig2", "fig3", "fig10"]
    errors = []

    def register(name):
        try:
            call(server, "POST", "/graphs", {"dataset": name, "seed": 1})
        except Exception as exc:  # pragma: no cover - diagnostic only
            errors.append(exc)

    threads = [
        threading.Thread(target=register, args=(name,)) for name in datasets
    ]
    for t in threads:
        t.start()
    snapshots = []
    for _ in range(20):
        status, health, _ = call(server, "GET", "/healthz")
        assert status == 200
        snapshots.append(health["store"])
    for t in threads:
        t.join(10)
    assert not errors
    for store in snapshots:
        assert store["graphs"] == (
            store["registrations"] - store["evictions"]
        ), store
    status, health, _ = call(server, "GET", "/healthz")
    assert health["store"]["graphs"] == health["graphs"] == len(datasets)


def test_json_access_log_and_error_traceback(caplog):
    app = ServiceApp(workers=1, warm_backends=False)
    srv = make_server(app, port=0, log_format="json")
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        with caplog.at_level(logging.INFO, logger="repro.service"):
            call(srv, "GET", "/healthz", headers={"X-Request-Id": "req-log"})
            # An unhandled handler exception must log its traceback.
            app.handle_algorithms = None  # type: ignore[assignment]
            status, doc, _ = call(srv, "GET", "/algorithms")
            # Access lines land after the response is sent, and leaving
            # at_level() restores the WARNING default — poll inside it.
            wait_for_log(
                caplog, lambda ln: "/algorithms" in ln and ln.startswith("{")
            )
        assert status == 500 and "TypeError" in doc["error"]
        infos = [
            r.getMessage() for r in caplog.records
            if r.levelno == logging.INFO
        ]
        access = [json.loads(m) for m in infos if m.startswith("{")]
        healthz = [a for a in access if a["path"] == "/healthz"]
        assert healthz and healthz[0]["status"] == 200
        assert healthz[0]["request_id"] == "req-log"
        assert isinstance(healthz[0]["duration_ms"], float)
        warnings = [
            r.getMessage() for r in caplog.records
            if r.levelno == logging.WARNING
        ]
        assert any(
            "Traceback" in m and "/algorithms" in m for m in warnings
        )
    finally:
        srv.shutdown()
        srv.server_close()
        app.close()
        thread.join(5)


def test_cache_hit_annotated_in_text_log(caplog):
    app = ServiceApp(workers=1, warm_backends=False)
    srv = make_server(app, port=0)  # text format is the default
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        with caplog.at_level(logging.INFO, logger="repro.service"):
            _, doc, _ = call(srv, "POST", "/graphs", {"dataset": "fig1"})
            place(srv, doc["digest"], k=1)
            place(srv, doc["digest"], k=1)
            # Poll inside at_level(): the access line is logged after
            # the response reaches the client (see wait_for_log).
            lines = wait_for_log(caplog, lambda ln: "cache=hit" in ln)
        assert any("cache=miss" in ln for ln in lines)
        assert any("cache=hit" in ln for ln in lines)
        assert all("request_id=" in ln for ln in lines if "placements" in ln)
    finally:
        srv.shutdown()
        srv.server_close()
        app.close()
        thread.join(5)


def test_metrics_mirror_store_snapshot_outcomes(tmp_path):
    """``/metrics`` shows restored and quarantined snapshots, not only
    ``/healthz``: boot on a persist dir holding one good snapshot and
    one torn one."""
    from repro.service.store import GraphStore

    persist = tmp_path / "plans"
    store = GraphStore(persist_dir=persist)
    store.register_dataset("fig1")
    torn, _ = store.register_dataset("fig2")
    marker = persist / f"{torn.digest}.fpc" / "store.json"
    marker.write_text(marker.read_text()[:10])

    app = ServiceApp(workers=1, warm_backends=False, persist_dir=str(persist))
    try:
        status, text = app.handle_metrics()
    finally:
        app.close()
    assert status == 200
    samples = dict(
        line.rsplit(" ", 1)
        for line in text.splitlines()
        if line.startswith("fp_store_snapshots_total{")
    )
    assert float(samples['fp_store_snapshots_total{outcome="restored"}']) == 1
    assert float(
        samples['fp_store_snapshots_total{outcome="quarantined"}']
    ) == 1
    assert float(samples['fp_store_snapshots_total{outcome="persisted"}']) == 0
