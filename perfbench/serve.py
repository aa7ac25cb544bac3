"""The serve-mix workload: a placement service under a seeded closed loop.

One phase of the workload:

1. **Set up** (timed as ``setup_s``): start the server on an empty
   persist directory and register the base graphs — three edge-list
   uploads, the same quote graph again with ``edge_prob`` 0.9, and one
   scale-dag ``.fpc`` by ``fpc_path``.  Untraced runs repeat this with
   fresh servers and report the median.
2. **Probe** (untimed): one placement per persisted base graph, kept
   as the answer the restarted server must reproduce.
3. **Closed loop**: one client thread, sending its next request only
   after the previous one completed, replays a seeded schedule of exact
   cache hits, prefix hits (a smaller ``k`` of a G_All key the client
   issued), fresh keys (G_All / G_L / G_Max, ``k`` in [5, 50],
   live-edge on the probabilistic graph) and, on a fixed clock, uploads
   of fresh ~2,000-node graphs, each followed by a placement on it.
4. **Restart**: stop the server, start it on the same persist
   directory and time until every persisted graph answered its probe.
5. **Verify** (untimed): every distinct key's response must equal an
   in-process ``execute_placement`` for that key, prefix answers must be
   prefixes of their donor, repeats must equal the first answer, and
   restored graphs must answer as before the restart.

Untraced runs drive ``filter-placement serve`` in a child process.
Traced runs host :class:`ServiceApp` in this process instead, with
timing shims on its public methods and on the public functions it
calls, so each layer's time can be read off the spans.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import random
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

import inputs
from common import (
    ROOT,
    WORK,
    Tracer,
    median,
    percentile,
    program_env,
    vm_hwm_mb,
)

#: One pass of each client's request deck: 82% exact hits, 8% prefix
#: hits, 10% fresh keys.  Uploads run on their own clock.
KIND_CARDS = ("hit",) * 41 + ("prefix",) * 4 + ("fresh",) * 5
#: Fresh keys on uploaded graphs, per pass of the graph deck (the base
#: graphs carry their own ``cards``).
UPLOAD_CARDS = 2
#: One closed-loop client already keeps the server busy (two reach the
#: same throughput); a second only queues hits behind misses on the
#: server's interpreter lock, which made runs far less repeatable.
CLIENTS = 1
#: Hits draw from each client's most recent keys, a working set that
#: fits the server's default 1,024-entry cache.
HIT_WINDOW = 400
#: Fresh-key algorithms (G_All twice: it also feeds the prefix hits).
ALGORITHMS = ("G_All", "G_All", "G_L", "G_Max")
K_RANGE = (5, 50)
#: The 10^5-node .fpc graph is far costlier per miss; keep its keys small.
FPC_K_RANGE = (5, 10)
LIVE_EDGE = {"model": "live-edge", "trials": 64}
EDGE_PROB = 0.9
SETUP_REPEATS = 3
#: Equal time slices of the loop; end-to-end figures are slice medians.
EPOCHS = 4
REQUEST_TIMEOUT_S = 120.0
SERVER_START_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# HTTP client
# ----------------------------------------------------------------------


class Client:
    """``call`` returns (status, doc, seconds), one connection per call.

    A fresh connection per request, as urllib clients make.  On a
    kept-alive connection the server's separate header and body writes
    wait out the client's delayed ACK (~40 ms on Linux) every response,
    which would hide every other cost of the service.
    """

    def __init__(self, port: int) -> None:
        self.port = port

    def call(self, method: str, path: str, body: bytes | None = None,
             request_id: str | None = None):
        headers = {"Content-Type": "application/json",
                   "Connection": "close"}
        if request_id is not None:
            headers["X-Request-Id"] = request_id
        began = time.perf_counter()
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            return 0, None, time.perf_counter() - began
        finally:
            conn.close()
        elapsed = time.perf_counter() - began
        try:
            doc = json.loads(raw)
        except ValueError:
            doc = None
        return response.status, doc, elapsed

    def close(self) -> None:
        """Nothing to release: connections close after each call."""


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Servers
# ----------------------------------------------------------------------


class SubprocessServer:
    """``filter-placement serve`` in a child process."""

    traced = False

    def __init__(self, log_path: Path) -> None:
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, persist_dir: Path) -> int:
        command = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--workers", "2", "--persist-dir", str(persist_dir),
            "--no-trace",
        ]
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log,
                env=program_env(), cwd=ROOT,
            )
        self.port = _read_port(self.proc)
        return self.port

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()


def _read_port(proc: subprocess.Popen) -> int:
    """Parse the bound port off the server's first stdout line."""
    deadline = time.monotonic() + SERVER_START_TIMEOUT_S
    buffer = b""
    fd = proc.stdout.fileno()
    while b"\n" not in buffer:
        left = deadline - time.monotonic()
        if left <= 0 or proc.poll() is not None:
            raise RuntimeError("server did not report its port")
        ready, _, _ = select.select([fd], [], [], left)
        if ready:
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError("server exited before listening")
            buffer += chunk
    match = re.search(rb"listening on http://[^:]+:(\d+)", buffer)
    if match is None:
        raise RuntimeError(f"unexpected server banner {buffer!r}")
    return int(match.group(1))


class InProcessServer:
    """:class:`ServiceApp` behind ``make_server`` on a thread of this
    process, with timing shims on the calls into each layer."""

    traced = True

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.app = None
        self.server = None
        self.thread = None
        self.port = 0
        self.jobs: list = []
        self.restore_s: list[float] = []
        self._undo: list = []

    def start(self, persist_dir: Path) -> int:
        from repro.service.app import ServiceApp
        from repro.service.http import make_server

        began = time.perf_counter()
        self.app = ServiceApp(workers=2, persist_dir=str(persist_dir))
        self.restore_s.append(time.perf_counter() - began)
        self._shim_app(self.app)
        self.server = make_server(self.app, "127.0.0.1", 0)
        self.thread = threading.Thread(
            target=self.server.serve_forever, name="bench-server"
        )
        self.thread.start()
        self.port = self.server.port
        return self.port

    def stop(self) -> None:
        if self.server is None:
            return
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()
        self.app.close()
        self.server = self.thread = None

    # -- shims ---------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, attrs=None, after=None):
        """Replace ``owner.attr`` by a spanning forwarder (undone later)."""
        original = getattr(owner, attr)
        tracer = self.tracer

        def shim(*args, **kwargs):
            extra = attrs(*args, **kwargs) if attrs else {}
            with tracer.span(name, **extra) as record:
                result = original(*args, **kwargs)
                if after is not None:
                    after(record, result)
                return result

        setattr(owner, attr, shim)
        self._undo.append((owner, attr, original))

    def install_module_shims(self) -> None:
        """Shims on public functions and backend instances (process-wide)."""
        from repro.backends.registry import get_backend
        from repro.graphs import largescale
        from repro.propagation import reach
        from repro.service import app as app_module
        from repro.service import store as store_module

        def ingest_after(record, graph):
            compiled = graph.compiled()
            record["attrs"]["m"] = compiled.m

        def reach_attrs(compiled, **_):
            return {"n": compiled.n, "sources": len(compiled.source_ids)}

        def reach_after(record, counts):
            record["attrs"]["reached"] = float(sum(counts))

        self._wrap(store_module, "build_graph_from_spec", "graphs.ingest",
                   after=ingest_after)
        self._wrap(reach, "warm_reach_counts", "propagation.reach_warm",
                   attrs=reach_attrs, after=reach_after)
        self._wrap(largescale, "save_compiled", "store.persist")
        self._wrap(app_module, "placement_payload", "service.serialize")
        backend = get_backend("numpy")
        self._wrap(backend, "warm", "backends.warm")
        self._wrap(backend, "marginal_gains_ids", "backends.gains")
        self._wrap(backend, "sampled_marginal_gains_ids",
                   "backends.sampled_gains")

    def _shim_app(self, app) -> None:
        from repro.obs.trace import current_request_id

        self._wrap(app, "handle_placement", "service.handle_placement",
                   attrs=lambda body: {"request_id": current_request_id()})
        self._wrap(app.store, "register_graph", "store.register",
                   attrs=lambda graph, **kw: {"name": kw.get("name", "")})
        jobs = self.jobs

        def keep_job(record, outcome):
            job, created = outcome
            if created:
                jobs.append(job)

        self._wrap(app.jobs, "submit", "jobs.submit", after=keep_job)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------


class Deck:
    """Seeded draws without replacement, reshuffled after each pass.

    Every pass deals the exact mix, so two seeds differ in the order of
    requests and not in their proportions.
    """

    def __init__(self, rng: random.Random, cards) -> None:
        self.rng = rng
        self.cards = list(cards)
        self.pile: list = []

    def draw(self):
        if not self.pile:
            self.pile = list(self.cards)
            self.rng.shuffle(self.pile)
        return self.pile.pop()


class GraphPool:
    """Registered graphs fresh keys draw from (uploads join as they land)."""

    def __init__(self) -> None:
        self.base: dict[str, dict] = {}
        self.uploads: list[dict] = []
        self._lock = threading.Lock()

    def add(self, entry: dict, upload: bool = False) -> None:
        with self._lock:
            if upload:
                self.uploads.append(entry)
            else:
                self.base[entry["label"]] = entry

    def cards(self) -> list[str]:
        cards = [label for label, e in self.base.items()
                 for _ in range(e["cards"])]
        return cards + ["upload"] * UPLOAD_CARDS

    def pick(self, card: str, rng: random.Random) -> dict | None:
        with self._lock:
            if card != "upload":
                return self.base[card]
            return rng.choice(self.uploads) if self.uploads else None


def base_bodies(paths: dict) -> list[tuple[dict, bytes]]:
    """(pool entry, POST /graphs body) for each base graph."""
    out = []
    for label, path in paths["base"]:
        text = Path(path).read_text()
        edges_spec = {"kind": "edges", "text": text, "sources": None,
                      "prepare": False, "initiator": None}
        entry = {"label": label, "spec": edges_spec, "probabilities": None,
                 "cards": 4, "k": K_RANGE, "persisted": True}
        out.append((entry, json.dumps({"edges": text, "name": label}).encode()))
        if label.startswith("quote"):
            live = dict(entry, label=f"{label}+p{EDGE_PROB}",
                        probabilities=EDGE_PROB, cards=2, persisted=False)
            body = {"edges": text, "name": live["label"],
                    "edge_prob": EDGE_PROB}
            out.append((live, json.dumps(body).encode()))
    fpc = Path(paths["fpc"])
    entry = {"label": fpc.name, "spec": {"kind": "fpc", "path": str(fpc)},
             "probabilities": None, "cards": 1, "k": FPC_K_RANGE,
             "persisted": True}
    out.append((entry, json.dumps({"fpc_path": str(fpc),
                                   "name": fpc.name}).encode()))
    return out


def placement_body(entry: dict, algorithm: str, k: int, rng_seed: int) -> dict:
    body = {"graph": entry["digest"], "algorithm": algorithm, "k": k,
            "rng_seed": rng_seed}
    if entry["probabilities"] is not None:
        body.update(LIVE_EDGE)
    return body


def send_placement(client: Client, body: dict, request_id: str):
    wire = dict(body, wait=True, timeout=REQUEST_TIMEOUT_S)
    return client.call("POST", "/placements", json.dumps(wire).encode(),
                       request_id=request_id)


class Phase:
    """Everything one setup → loop → restart pass observed."""

    def __init__(self) -> None:
        self.setup_s: list[float] = []
        self.requests: list[dict] = []
        self.uploads: list[float] = []
        self.answers: dict[str, dict] = {}  # key → first result
        self.keys: dict[str, dict] = {}  # key → request body
        self.donors: dict[str, str] = {}  # prefix key → donor key
        self.probes: list[tuple[str, dict]] = []  # (key, body)
        self.failures: list[str] = []
        self.attempted = 0
        self.loop_s = 0.0
        self.restore_s = 0.0
        self.peak_rss_mb = 0.0
        self.health: dict = {}
        self.health_after: dict = {}
        self.graphs: dict[str, dict] = {}  # digest → pool entry
        self._lock = threading.Lock()

    def count(self, failure: str | None = None) -> None:
        with self._lock:
            self.attempted += 1
            if failure is not None:
                self.failures.append(failure)

    def record_answer(self, key: str, body: dict, status: int, doc) -> bool:
        """Check one placement response; keep the first answer per key."""
        with self._lock:
            self.attempted += 1
            if status != 200 or not doc or "result" not in doc:
                self.failures.append(f"{key}: status {status}")
                return False
            result = doc["result"]
            first = self.answers.setdefault(key, result)
            self.keys.setdefault(key, body)
            if canonical(first) != canonical(result):
                self.failures.append(f"{key}: answer changed between requests")
                return False
            return True


def register(client: Client, phase: Phase, entry: dict, body: bytes) -> float:
    status, doc, elapsed = client.call("POST", "/graphs", body)
    if status not in (200, 201) or not doc:
        phase.count(f"register {entry['label']}: status {status}")
        raise RuntimeError(f"registering {entry['label']} failed ({status})")
    phase.count()
    entry.update(digest=doc["digest"], n=doc["nodes"], m=doc["edges"])
    with phase._lock:
        phase.graphs[doc["digest"]] = entry
    return elapsed


def key_of(body: dict) -> str:
    return canonical(body)


def client_loop(cid: int, port: int, phase: Phase, pool: GraphPool,
                upload_queue, seed: int, started: float,
                deadline: float) -> None:
    rng = random.Random(seed * 7_919 + cid)
    kinds = Deck(rng, KIND_CARDS)
    graphs = Deck(rng, pool.cards())
    algorithms = Deck(rng, ALGORITHMS)
    budgets = {r: Deck(rng, range(r[0], r[1] + 1))
               for r in (K_RANGE, FPC_K_RANGE)}
    client = Client(port)
    recent: deque = deque(maxlen=HIT_WINDOW)  # (label, body)
    donors: list[tuple[str, dict]] = []
    issued_k: dict[tuple, set] = {}
    rng_seeds = itertools.count((cid + 1) * 1_000_000)
    numbers = itertools.count()

    def place(label, body, donor_key=None):
        rid = f"c{cid}-{next(numbers)}"
        status, doc, elapsed = send_placement(client, body, rid)
        key = key_of(body)
        ok = phase.record_answer(key, body, status, doc)
        kind = doc.get("cache", {}).get("kind", "computed") if doc else None
        with phase._lock:
            phase.requests.append({
                "kind": kind, "latency_s": elapsed,
                "done_s": time.perf_counter() - started,
                "request_id": rid, "label": label,
            })
            if donor_key is not None:
                phase.donors.setdefault(key, donor_key)
        return ok

    def fresh(entry):
        algorithm = algorithms.draw()
        k = budgets[entry["k"]].draw()
        body = placement_body(entry, algorithm, k, next(rng_seeds))
        ok = place(entry["label"], body)
        if ok:
            recent.append((entry["label"], body))
            if algorithm == "G_All" and k > entry["k"][0]:
                donors.append((entry["label"], body))
        return body, ok

    try:
        while time.perf_counter() < deadline:
            upload = upload_queue.claim()
            if upload is not None:
                entry, wire = upload
                try:
                    phase.uploads.append(register(client, phase, entry, wire))
                except RuntimeError:
                    continue
                pool.add(entry, upload=True)
                body, ok = fresh(entry)
                if ok:
                    with phase._lock:
                        phase.probes.append((key_of(body), body))
                continue
            kind = kinds.draw()
            if kind == "prefix" and not donors:
                kind = "hit"
            if kind == "hit" and recent:
                label, body = rng.choice(recent)
                place(label, body)
            elif kind == "prefix":
                index = rng.randrange(len(donors))
                label, donor = donors[index]
                cell = (donor["graph"], donor["rng_seed"])
                used = issued_k.setdefault(cell, {donor["k"]})
                free = [k for k in range(K_RANGE[0], donor["k"])
                        if k not in used]
                if not free:
                    donors.pop(index)
                    continue
                k = rng.choice(free)
                used.add(k)
                body = dict(donor, k=k)
                if place(label, body, donor_key=key_of(donor)):
                    recent.append((label, body))
            else:
                entry = None
                while entry is None:
                    entry = pool.pick(graphs.draw(), rng)
                fresh(entry)
    finally:
        client.close()


class UploadClock:
    """Hands out the upload pool on a fixed schedule across the loop."""

    def __init__(self, uploads: list[tuple[dict, bytes]], start: float,
                 seconds: float) -> None:
        self.uploads = uploads
        self.start = start
        self.step = seconds / max(1, len(uploads))
        self.next = 0
        self._lock = threading.Lock()

    def claim(self):
        with self._lock:
            if self.next >= len(self.uploads):
                return None
            due = self.start + (self.next + 0.5) * self.step
            if time.perf_counter() < due:
                return None
            upload = self.uploads[self.next]
            self.next += 1
            return upload


def upload_bodies(paths: dict) -> list[tuple[dict, bytes]]:
    out = []
    for path in paths["uploads"]:
        text = Path(path).read_text()
        label = Path(path).stem
        entry = {"label": label,
                 "spec": {"kind": "edges", "text": text, "sources": None,
                          "prepare": False, "initiator": None},
                 "probabilities": None, "k": K_RANGE,
                 "persisted": True}
        out.append((entry, json.dumps({"edges": text, "name": label}).encode()))
    return out


def run_phase(server, paths: dict, seed: int, seconds: float,
              scratch: Path, setups: int) -> Phase:
    """Set up, probe, loop, restart; the server is always stopped."""
    phase = Phase()
    persist = scratch / "persist"
    try:
        for attempt in range(setups):
            shutil.rmtree(persist, ignore_errors=True)
            bases = base_bodies(paths)
            began = time.perf_counter()
            port = server.start(persist)
            admin = Client(port)
            try:
                for entry, body in bases:
                    register(admin, phase, entry, body)
                phase.setup_s.append(time.perf_counter() - began)
            finally:
                admin.close()
            if attempt < setups - 1:
                server.stop()
        admin = Client(port)
        pool = GraphPool()
        for entry, _ in bases:
            pool.add(entry)
            if entry["persisted"]:
                body = placement_body(entry, "G_All", entry["k"][0], 0)
                status, doc, _ = send_placement(admin, body, "probe")
                if phase.record_answer(key_of(body), body, status, doc):
                    phase.probes.append((key_of(body), body))
        started = time.perf_counter()
        clock = UploadClock(upload_bodies(paths), started, seconds)
        deadline = started + seconds
        threads = [
            threading.Thread(
                target=client_loop,
                args=(cid, port, phase, pool, clock, seed, started, deadline),
            )
            for cid in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.loop_s = time.perf_counter() - started
        _, phase.health, _ = admin.call("GET", "/healthz")
        admin.close()
        if not server.traced:
            phase.peak_rss_mb = server.peak_rss_mb()
        server.stop()
        restart(server, phase, persist)
    finally:
        server.stop()
    return phase


def restart(server, phase: Phase, persist: Path) -> None:
    """Restart on the same persist dir; time until every probe answers."""
    began = time.perf_counter()
    port = server.start(persist)
    client = Client(port)
    try:
        for key, body in phase.probes:
            status, doc, _ = send_placement(client, body, "restore")
            if status != 200 or not doc or "result" not in doc:
                phase.count(f"restore {key}: status {status}")
            elif canonical(doc["result"]) != canonical(phase.answers[key]):
                phase.count(f"restore {key}: answer changed")
            else:
                phase.count()
        phase.restore_s = time.perf_counter() - began
        _, phase.health_after, _ = client.call("GET", "/healthz")
    finally:
        client.close()
        server.stop()


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------


def verify(phase: Phase) -> None:
    """Each distinct key's answer against an in-process execution.

    G_All, G_L and G_Max are deterministic (their answer ignores
    ``rng_seed``), so keys differing only in that seed share one
    reference execution.
    """
    from repro.core.objective import max_objective, phi
    from repro.core.registry import is_deterministic
    from repro.service.app import execute_placement
    from repro.service.store import build_graph_from_spec

    graphs: dict[str, tuple] = {}
    references: dict[tuple, str] = {}
    for key, body in phase.keys.items():
        entry = phase.graphs[body["graph"]]
        if entry["label"] not in graphs:
            graph = build_graph_from_spec(entry["spec"])
            phi_empty = phi(graph)
            graphs[entry["label"]] = (
                graph, (phi_empty, max_objective(graph, phi_empty=phi_empty))
            )
        graph, constants = graphs[entry["label"]]
        seed = 0 if is_deterministic(body["algorithm"]) else body["rng_seed"]
        ref_key = (entry["label"], body["algorithm"], body["k"], seed)
        if ref_key not in references:
            live = entry["probabilities"] is not None
            payload = execute_placement(
                graph, body["algorithm"], "exact", "numpy", body["k"],
                body["rng_seed"],
                phi_constants=None if live else constants,
                model=LIVE_EDGE["model"] if live else "deterministic",
                trials=LIVE_EDGE["trials"] if live else 0,
                probabilities=entry["probabilities"],
            )
            references[ref_key] = canonical(payload)
        if canonical(phase.answers[key]) != references[ref_key]:
            phase.failures.append(f"{key}: differs from in-process answer")
    for key, donor_key in phase.donors.items():
        filters = phase.answers[key]["filters"]
        if phase.answers[donor_key]["filters"][: len(filters)] != filters:
            phase.failures.append(f"{key}: not a prefix of its donor")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def end_to_end(phase: Phase) -> dict:
    """Loop figures as the median over :data:`EPOCHS` equal time slices,
    so a burst of interference on the machine moves one slice only."""
    loop = phase.requests
    width = phase.loop_s / EPOCHS
    slices = [[] for _ in range(EPOCHS)]
    for r in loop:
        slices[min(EPOCHS - 1, int(r["done_s"] / width))].append(r)
    computed = [r for r in loop if r["kind"] == "computed"]
    return {
        "setup_s": (median(phase.setup_s), len(phase.setup_s)),
        "place_s": (median(
            median(r["latency_s"] for r in part if r["kind"] == "computed")
            for part in slices), len(computed)),
        "req_per_s": (median(len(part) / width for part in slices),
                      len(loop)),
        "peak_rss_mb": (phase.peak_rss_mb, 1),
    }


def per_layer(phase: Phase, server: InProcessServer, tracer: Tracer,
              span_cost_s: float) -> dict:
    from repro.propagation.reach import active_reach_block

    spans = tracer.spans
    by_id = {s["id"]: s for s in spans}

    def durations(name):
        return [s["end"] - s["start"] for s in spans if s["name"] == name]

    registers = [s for s in spans if s["name"] == "store.register"]
    uploads = [s for s in registers if s["attrs"]["name"].startswith("upload")]
    # Group the warm-path spans by the registration that caused them.
    per_reg: dict[int, dict] = {
        s["id"]: {"reach": 0.0, "warm": 0.0, "first": None} for s in registers
    }
    for s in spans:
        if s["name"] not in ("propagation.reach_warm", "backends.warm"):
            continue
        reg = _ancestor(by_id, s, "store.register")
        if reg is None:
            continue
        group = per_reg[reg]
        if s["name"] == "backends.warm":
            group["warm"] += s["end"] - s["start"]
            continue
        group["reach"] += s["end"] - s["start"]
        if group["first"] is None or s["id"] < group["first"]["id"]:
            group["first"] = s
    block = active_reach_block()
    blocks, fills = [], []
    for group in per_reg.values():
        first = group["first"]["attrs"] if group["first"] else None
        if first and first["sources"]:
            blocks.append(math.ceil(first["sources"] / block))
            fills.append(first["reached"] / (first["n"] * first["sources"]))
    reach_per_reg = [g["reach"] for g in per_reg.values()]
    warm_per_reg = [g["warm"] for g in per_reg.values()]
    ingests = [s for s in spans if s["name"] == "graphs.ingest"]
    loop = phase.requests
    computed = [r for r in loop if r["kind"] == "computed"]
    live_computed = [r for r in computed if "+p" in r["label"]]
    handled = {s["attrs"]["request_id"]: s["end"] - s["start"]
               for s in spans if s["name"] == "service.handle_placement"}
    hops = [r["latency_s"] - handled[r["request_id"]] for r in loop
            if r["request_id"] in handled]
    sweeps = durations("backends.gains")
    sampled = durations("backends.sampled_gains")
    jobs = [j for j in server.jobs if j.finished_unix and j.started_unix]
    waits = [j.started_unix - j.created_unix for j in jobs]
    runs = [j.finished_unix - j.started_unix for j in jobs]
    cache = phase.health.get("cache", {})
    placements = max(1, len(loop))
    payload_sizes = [len(canonical(phase.answers[k])) for k in phase.answers]
    busy = sum(r["latency_s"] for r in loop) + sum(phase.uploads)
    hits = [r["latency_s"] for r in loop if r["kind"] == "exact"]
    upload_spans = [s["end"] - s["start"] for s in uploads]
    serialize = durations("service.serialize")
    persists = durations("store.persist")
    ingest_rates = [s["attrs"]["m"] / (s["end"] - s["start"]) for s in ingests]
    store_before = phase.health.get("store", {})
    store_after = phase.health_after.get("store", {})
    # (value, samples behind it); ratios and counts are whole-run figures.
    # core.select_s / core.score_s / obs.ledger_gap are batch-only.
    return {
        "graphs.ingest_s": (
            median(s["end"] - s["start"] for s in ingests), len(ingests)),
        "graphs.ingest_edges_per_s": (median(ingest_rates), len(ingests)),
        "graphs.resident_mb": (
            store_before.get("compiled_bytes", 0) / 2**20, 1),
        "graphs.mapped_mb": (
            store_after.get("compiled_mapped_bytes", 0) / 2**20, 1),
        "propagation.reach_warm_s": (median(reach_per_reg), len(per_reg)),
        "propagation.reach_blocks": (median(blocks), len(blocks)),
        "propagation.reach_fill": (median(fills), len(fills)),
        "backends.warm_s": (median(warm_per_reg), len(per_reg)),
        "backends.gain_sweeps": (
            len(sweeps) / max(1, len(computed)), len(computed)),
        "backends.gains_s": (
            sum(sweeps) / max(1, len(computed)), len(computed)),
        "backends.sweep_ms": (
            1e3 * sum(sweeps) / max(1, len(sweeps)), len(sweeps)),
        "service.serialize_s": (median(serialize), len(serialize)),
        "service.payload_bytes": (median(payload_sizes), len(payload_sizes)),
        "service.hit_p50_ms": (1e3 * median(hits), len(hits)),
        "service.req_p99_ms": (
            1e3 * percentile([r["latency_s"] for r in loop], 99), len(loop)),
        "service.register_p50_ms": (
            1e3 * median(phase.uploads), len(phase.uploads)),
        "service.restore_s": (phase.restore_s, 1),
        "http.hop_p50_ms": (1e3 * median(hops), len(hops)),
        "cache.hit_ratio": (cache.get("hits", 0) / placements, len(loop)),
        "cache.prefix_ratio": (
            cache.get("prefix_hits", 0) / placements, len(loop)),
        "cache.evictions": (cache.get("evictions", 0), 1),
        "jobs.queue_wait_p50_ms": (1e3 * median(waits), len(waits)),
        "jobs.queue_wait_p99_ms": (
            1e3 * percentile(waits, 99), len(waits)),
        "jobs.run_p50_ms": (1e3 * median(runs), len(runs)),
        "jobs.deduplicated": (
            phase.health.get("jobs", {}).get("deduplicated", 0), 1),
        "store.register_p50_ms": (
            1e3 * median(upload_spans), len(upload_spans)),
        "store.persist_p50_ms": (1e3 * median(persists), len(persists)),
        "store.restore_s": (server.restore_s[-1], 1),
        "backends.sampled_gains_s": (
            sum(sampled) / max(1, len(live_computed)), len(live_computed)),
        "obs.tracing_overhead": (len(spans) * span_cost_s / busy, len(spans)),
    }


def _ancestor(by_id: dict, span: dict, name: str) -> int | None:
    """Id of the nearest enclosing span called ``name``, or None."""
    parent = span["parent"]
    while parent is not None and parent in by_id:
        if by_id[parent]["name"] == name:
            return parent
        parent = by_id[parent]["parent"]
    return None


def span_cost() -> float:
    """Seconds one recorded span adds (enter + exit + append)."""
    tracer = Tracer()
    rounds = 20_000
    began = time.perf_counter()
    for _ in range(rounds):
        with tracer.span("probe"):
            pass
    return (time.perf_counter() - began) / rounds


def run(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One serve-mix run; returns the workload report for ``run.py``."""
    paths = inputs.serve_inputs(seed, smoke)
    scratch = WORK / "serve" / f"{seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        if trace:
            tracer = Tracer()
            server = InProcessServer(tracer)
            server.install_module_shims()
            try:
                phase = run_phase(server, paths, seed, seconds, scratch,
                                  setups=1)
            finally:
                server.uninstall()
            tracer.dump(WORK / "traces" / f"serve-mix-{seed}.json")
        else:
            server = SubprocessServer(scratch / "server.log")
            phase = run_phase(server, paths, seed, seconds, scratch,
                              setups=SETUP_REPEATS)
        verify(phase)
        report = {
            "attempted": phase.attempted,
            "failed": len(phase.failures),
            "failures": phase.failures[:20],
            "sizes": {e["label"]: {"n": e["n"], "m": e["m"]}
                      for e in phase.graphs.values()
                      if not e["label"].startswith("upload")},
            "counts": _mix(phase),
        }
        if trace:
            report["layers"] = per_layer(phase, server, tracer, span_cost())
        else:
            report["end_to_end"] = end_to_end(phase)
        return report
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _mix(phase: Phase) -> dict:
    counts: dict[str, int] = {}
    for r in phase.requests:
        counts[r["kind"] or "failed"] = counts.get(r["kind"] or "failed", 0) + 1
    counts["uploads"] = len(phase.uploads)
    return counts
