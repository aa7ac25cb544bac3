"""Service subsystem: GraphStore, PlacementCache, JobManager, ServiceApp."""

from __future__ import annotations

import os
import subprocess
import sys
import threading

import pytest

from conftest import MALFORMED_FPC_META, SRC, malform_fpc_meta
from repro.exceptions import ParameterError
from repro.graphs.cgraph import CGraph
from repro.service.app import ServiceApp
from repro.service.cache import PlacementCache, PlacementKey
from repro.service.jobs import JobManager
from repro.service.store import GraphStore, graph_digest


def small_app(**kwargs) -> ServiceApp:
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("warm_backends", False)
    return ServiceApp(**kwargs)


@pytest.fixture
def app():
    instance = small_app()
    yield instance
    instance.close()


def register_fig1(app: ServiceApp) -> str:
    entry, _ = app.store.register_dataset("fig1")
    return entry.digest


#: Run in a fresh interpreter: what ``place --json`` and the CLI parser
#: import must leave the service's app, store, jobs, cache and HTTP
#: modules unloaded, while the package's re-exports still resolve.
_IMPORT_PROBE = """
import sys
import repro.service.serialize
from repro.cli import build_parser
build_parser()
loaded = [
    name
    for name in ("app", "store", "jobs", "cache", "http")
    if "repro.service." + name in sys.modules
]
assert not loaded, loaded
from repro.service import (
    GraphStore, JobManager, PlacementCache, PlacementKey, ServiceApp,
    graph_digest,
)
from repro.service.app import ServiceApp as app_class
assert ServiceApp is app_class
"""


def test_serializer_and_parser_load_no_service_stack():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# ----------------------------------------------------------------------
# GraphStore
# ----------------------------------------------------------------------


def test_digest_is_content_addressed():
    a = CGraph([("s", "x"), ("s", "y")])
    b = CGraph([("s", "y"), ("s", "x")])  # same content, other order
    c = CGraph([("s", "x"), ("s", "y"), ("x", "y")])
    assert graph_digest(a) == graph_digest(b)
    assert graph_digest(a) != graph_digest(c)
    # int vs string node ids must not collide
    assert graph_digest(CGraph([(1, 2)])) != graph_digest(CGraph([("1", "2")]))


def test_store_registration_is_idempotent():
    store = GraphStore(warm_backends=False)
    e1, created1 = store.register_dataset("fig1")
    e2, created2 = store.register_dataset("fig1")
    assert created1 and not created2
    assert e1 is e2
    assert len(store) == 1


def test_store_prefix_lookup_and_unknown():
    store = GraphStore(warm_backends=False)
    entry, _ = store.register_dataset("fig1")
    assert store.get(entry.digest) is entry
    assert store.get(entry.digest[:12]) is entry
    with pytest.raises(ParameterError):
        store.get("0" * 64)
    with pytest.raises(ParameterError):
        store.get("abc")  # shorter than the minimum prefix


def test_store_lru_eviction():
    store = GraphStore(max_graphs=2, warm_backends=False)
    d1 = store.register_dataset("fig1")[0].digest
    d2 = store.register_dataset("fig2")[0].digest
    store.get(d1)  # touch fig1 so fig2 is the LRU victim
    d3 = store.register_dataset("fig3")[0].digest
    assert set(store.digests()) == {d1, d3}
    with pytest.raises(ParameterError):
        store.get(d2)


def test_store_register_edges_roundtrip_digest(tmp_path):
    from repro.graphs.io import write_edge_list

    store = GraphStore(warm_backends=False)
    entry, _ = store.register_dataset("quote", scale=0.1)
    path = tmp_path / "quote.txt"
    write_edge_list(entry.graph, path)
    re_entry, created = store.register_edges(path.read_text())
    assert not created
    assert re_entry.digest == entry.digest


def test_register_edges_keeps_no_upload_text():
    """An upload is held once, as tables: the entry's spec keeps no copy
    of the text, and its public form is a copy of the stored spec."""
    store = GraphStore(warm_backends=False)
    entry, created = store.register_edges(
        "s a\ns b\na c\nb c\n", sources=["s"], prepare=True, initiator="s"
    )
    assert created
    assert "text" not in entry.spec
    public = {
        "kind": "edges", "sources": ["s"], "prepare": True, "initiator": "s",
    }
    listed = entry.describe_payload()["spec"]
    assert listed == public
    listed["kind"] = "dataset"
    listed["sources"].append("a")
    assert entry.describe_payload()["spec"] == public


# ----------------------------------------------------------------------
# PlacementCache
# ----------------------------------------------------------------------


def key_for(k: int, *, algorithm: str = "G_All") -> PlacementKey:
    return PlacementKey(
        digest="d" * 64,
        algorithm=algorithm,
        strategy="exact",
        backend="python",
        k=k,
    )


def payload_for(k: int) -> dict:
    filters = [repr(f"n{i}") for i in range(k)]
    return {
        "filters": filters,
        "steps": [{"node": f, "gain": 1} for f in filters],
        "prefix_consistent": True,
    }


def test_cache_exact_hit_and_miss_counters():
    cache = PlacementCache()
    key = key_for(3)
    assert cache.get(key) is None
    cache.put(key, payload_for(3), prefix_consistent=True)
    assert cache.get(key)["filters"] == payload_for(3)["filters"]
    assert cache.stats()["hits"] == 1
    assert cache.stats()["misses"] == 1


def test_cache_prefix_donor_semantics():
    cache = PlacementCache()
    cache.put(key_for(8), payload_for(8), prefix_consistent=True)
    cache.put(key_for(5), payload_for(5), prefix_consistent=True)
    # smallest sufficient donor wins
    donor_key, payload = cache.find_prefix_donor(key_for(4))
    assert donor_key.k == 5 and len(payload["filters"]) == 5
    # larger than anything cached: no donor
    assert cache.find_prefix_donor(key_for(9)) is None
    # different cell: no donor
    assert cache.find_prefix_donor(key_for(2, algorithm="G_Max")) is None
    # non-prefix-consistent entries never donate
    cache.put(
        key_for(6, algorithm="Rand_K"),
        {**payload_for(6), "prefix_consistent": False},
        prefix_consistent=False,
    )
    assert cache.find_prefix_donor(key_for(2, algorithm="Rand_K")) is None


def test_cache_lru_eviction_by_entries():
    cache = PlacementCache(max_entries=2)
    cache.put(key_for(1), payload_for(1), prefix_consistent=True)
    cache.put(key_for(2), payload_for(2), prefix_consistent=True)
    cache.get(key_for(1))  # make k=2 the LRU victim
    cache.put(key_for(3), payload_for(3), prefix_consistent=True)
    assert cache.get(key_for(1)) is not None
    assert cache.get(key_for(2)) is None
    assert cache.stats()["evictions"] == 1


def test_cache_eviction_by_bytes():
    probe = PlacementCache()
    probe.put(key_for(1), payload_for(1), prefix_consistent=True)
    one_entry = probe.total_bytes
    cache = PlacementCache(max_bytes=int(one_entry * 2.5))
    for k in (1, 2, 3, 4):
        cache.put(key_for(k), payload_for(k), prefix_consistent=True)
    assert cache.stats()["evictions"] >= 1
    assert cache.total_bytes <= int(one_entry * 2.5)
    # the most recent insert always survives, even over budget
    tiny = PlacementCache(max_bytes=1)
    tiny.put(key_for(9), payload_for(9), prefix_consistent=True)
    assert len(tiny) == 1


# ----------------------------------------------------------------------
# JobManager
# ----------------------------------------------------------------------


def test_jobs_dedupe_in_flight():
    manager = JobManager(workers=1)
    release = threading.Event()

    def blocked():
        release.wait(5)
        return {"ok": True}

    j1, created1 = manager.submit("same-key", blocked)
    j2, created2 = manager.submit("same-key", blocked)
    assert created1 and not created2
    assert j1 is j2
    assert manager.counts()["deduplicated"] == 1
    release.set()
    assert j1.wait(5)
    assert j1.state == "done" and j1.payload == {"ok": True}
    # finished jobs do not dedupe: a fresh submission runs again
    j3, created3 = manager.submit("same-key", lambda: {"ok": 2})
    assert created3 and j3 is not j1
    assert j3.wait(5)
    manager.shutdown()


def test_jobs_failure_and_cancellation():
    manager = JobManager(workers=1)
    release = threading.Event()

    def blocked():
        release.wait(5)
        return {}

    def boom():
        raise ValueError("nope")

    running, _ = manager.submit("running", blocked)
    queued, _ = manager.submit("queued", boom)
    # the queued job can be cancelled, the running one cannot
    assert manager.cancel(queued.id) is True
    assert queued.state == "cancelled"
    assert manager.cancel(running.id) is False
    release.set()
    assert running.wait(5)
    failing, _ = manager.submit("fails", boom)
    assert failing.wait(5)
    assert failing.state == "failed"
    assert "ValueError" in failing.error
    with pytest.raises(ParameterError):
        manager.get("job-999999")
    manager.shutdown()


# ----------------------------------------------------------------------
# ServiceApp
# ----------------------------------------------------------------------


def test_app_register_and_stats(app):
    status, doc = app.handle_register_graph({"dataset": "fig1"})
    assert status == 201 and doc["created"]
    status, again = app.handle_register_graph({"dataset": "fig1"})
    assert status == 200 and not again["created"]
    assert again["digest"] == doc["digest"]
    status, stats = app.handle_graph_stats(doc["digest"][:16])
    assert status == 200
    assert stats["nodes"] == 7 and stats["is_dag"] is True
    status, listing = app.handle_list_graphs()
    assert status == 200 and len(listing["graphs"]) == 1


def test_app_validation_errors(app):
    from repro.service.app import RequestError

    digest = register_fig1(app)
    cases = [
        {"graph": digest, "algorithm": "nope", "k": 1},
        {"graph": digest, "algorithm": "G_All", "k": "one"},
        {"graph": digest, "algorithm": "G_All", "k": 99},  # > n
        {"graph": digest, "algorithm": "G_All", "k": 1, "strategy": "x"},
        {"graph": digest, "algorithm": "G_All", "k": 1, "backend": "x"},
        {"algorithm": "G_All", "k": 1},  # no graph
    ]
    for body in cases:
        with pytest.raises(RequestError) as err:
            app.handle_placement(body)
        assert err.value.status == 400
    with pytest.raises(RequestError) as err:
        app.handle_placement({"graph": "f" * 64, "k": 1})
    assert err.value.status == 404
    with pytest.raises(RequestError) as err:
        app.handle_job("job-999999")
    assert err.value.status == 404


def test_app_bad_wait_timeout_rejected_before_submit(app):
    from repro.service.app import RequestError

    digest = register_fig1(app)
    for bad_timeout in (-1, 0, "soon", True):
        with pytest.raises(RequestError):
            app.handle_placement({
                "graph": digest, "algorithm": "G_All", "k": 2,
                "wait": True, "timeout": bad_timeout,
            })
    # no job may have been queued for a rejected request
    assert app.jobs.counts()["submitted"] == 0


def test_app_miss_then_hit_cycle(app):
    digest = register_fig1(app)
    body = {"graph": digest, "algorithm": "G_All", "k": 2}
    status, doc = app.handle_placement(body)
    assert status == 202 and doc["cache"]["hit"] is False
    job_id = doc["job"]["id"]
    assert app.jobs.get(job_id).wait(10)
    status, polled = app.handle_job(job_id)
    assert status == 200
    assert polled["job"]["state"] == "done"
    assert polled["cache"] == {"hit": False, "kind": "computed"}
    # G_All early-stops after z2 (the only non-sink merge node of fig1)
    assert polled["result"]["filters"] == ["'z2'"]
    # identical request now hits the cache, with identical filters
    status, hit = app.handle_placement(body)
    assert status == 200
    assert hit["cache"] == {"hit": True, "kind": "exact"}
    assert hit["result"] == polled["result"]
    # "auto" resolves to the same concrete backend: still a hit
    status, auto_hit = app.handle_placement({**body, "backend": "auto"})
    assert status == 200 and auto_hit["cache"]["hit"] is True


def test_app_prefix_reuse_matches_direct_run(app):
    digest = register_fig1(app)
    status, _ = app.place_sync(
        {"graph": digest, "algorithm": "G_All", "k": 4}
    )
    assert status == 200
    status, prefix = app.handle_placement(
        {"graph": digest, "algorithm": "G_All", "k": 2}
    )
    assert status == 200
    assert prefix["cache"] == {"hit": True, "kind": "prefix"}
    # bit-identical to computing k=2 from scratch on a fresh service
    fresh = small_app()
    try:
        fresh_digest = register_fig1(fresh)
        assert fresh_digest == digest
        status, direct = fresh.place_sync(
            {"graph": digest, "algorithm": "G_All", "k": 2}
        )
        assert status == 200
        assert prefix["result"] == direct["result"]
    finally:
        fresh.close()
    # the derived entry was cached: the repeat is an exact hit
    status, repeat = app.handle_placement(
        {"graph": digest, "algorithm": "G_All", "k": 2}
    )
    assert repeat["cache"] == {"hit": True, "kind": "exact"}
    assert repeat["result"] == prefix["result"]


def test_app_randomized_results_never_prefix_reuse(app):
    digest = register_fig1(app)
    status, _ = app.place_sync(
        {"graph": digest, "algorithm": "Rand_K", "k": 4}
    )
    assert status == 200
    status, doc = app.handle_placement(
        {"graph": digest, "algorithm": "Rand_K", "k": 2}
    )
    # k=2 must be computed fresh (202/queued or 200/wait), never sliced
    assert doc["cache"]["hit"] is False or doc["cache"]["kind"] == "computed"


def test_app_concurrent_identical_requests_share_one_job():
    app = small_app(workers=1)
    try:
        slow_entry, _ = app.store.register_dataset(
            "synthetic-sparse", scale=1.0
        )
        fig1_digest = register_fig1(app)
        # Occupy the single worker so the next submissions stay queued.
        status, first = app.handle_placement(
            {"graph": slow_entry.digest, "algorithm": "G_All", "k": 10,
             "backend": "python"}
        )
        assert status == 202
        target = {"graph": fig1_digest, "algorithm": "G_All", "k": 2}
        status_a, a = app.handle_placement(target)
        status_b, b = app.handle_placement(target)
        assert status_a == status_b == 202
        assert a["job"]["id"] == b["job"]["id"]
        assert b["deduplicated"] is True
        job = app.jobs.get(a["job"]["id"])
        assert job.wait(30)
        assert job.state == "done"
        # exactly one job ran for the two identical requests
        assert app.jobs.counts()["deduplicated"] >= 1
    finally:
        app.close()


def test_app_cancel_queued_job():
    app = small_app(workers=1)
    try:
        slow_entry, _ = app.store.register_dataset(
            "synthetic-sparse", scale=1.0
        )
        digest = register_fig1(app)
        app.handle_placement(
            {"graph": slow_entry.digest, "algorithm": "G_All", "k": 10,
             "backend": "python"}
        )
        status, queued = app.handle_placement(
            {"graph": digest, "algorithm": "G_All", "k": 2}
        )
        job_id = queued["job"]["id"]
        status, doc = app.handle_cancel_job(job_id)
        assert status == 200
        if doc["cancelled"]:  # the worker may already have grabbed it
            assert doc["job"]["state"] == "cancelled"
            status, polled = app.handle_job(job_id)
            assert status == 202 and polled["job"]["state"] == "cancelled"
    finally:
        app.close()


def test_app_healthz_and_algorithms(app):
    digest = register_fig1(app)
    app.place_sync({"graph": digest, "algorithm": "G_All", "k": 2})
    status, health = app.handle_healthz()
    assert status == 200 and health["status"] == "ok"
    assert health["graphs"] == 1
    assert health["cache"]["entries"] == 1
    assert health["jobs"]["done"] == 1
    assert health["pool"] == {"workers": 2, "world_workers": 1}
    status, catalog = app.handle_algorithms()
    assert status == 200
    names = {row["name"] for row in catalog["algorithms"]}
    assert {"G_All", "G_Max", "Rand_K"} <= names
    g_all = next(r for r in catalog["algorithms"] if r["name"] == "G_All")
    assert g_all["lazy_capable"] and g_all["deterministic"]


def test_service_bench_scenarios_run():
    from repro.bench.compare import cache_speedup
    from repro.bench.harness import run_suite
    from repro.bench.scenarios import BenchScenario

    scenarios = [
        BenchScenario("fig10", "G_All", 3, "python", mode="service_cold"),
        BenchScenario("fig10", "G_All", 3, "python", mode="service_hit"),
    ]
    records = run_suite(scenarios)
    assert [r.scenario.key() for r in records] == [
        "fig10@default/seed0/G_All/k3/python/cold",
        "fig10@default/seed0/G_All/k3/python/hit",
    ]
    cold, hit = records
    assert cold.filters == hit.filters
    assert cold.objective == hit.objective
    ratios = cache_speedup(records)
    assert set(ratios) == {"fig10@default/seed0/G_All/k3/python/hit"}
    assert all(r > 1.0 for r in ratios.values())


# ----------------------------------------------------------------------
# Propagation-model axis
# ----------------------------------------------------------------------


def test_probabilistic_registration_forks_the_digest(app):
    _, det = app.handle_register_graph({"dataset": "fig1"})
    _, prob = app.handle_register_graph({"dataset": "fig1", "edge_prob": 0.5})
    assert prob["digest"] != det["digest"]
    assert prob["edge_prob"] == 0.5 and det["edge_prob"] is None
    # Unit probabilities *are* deterministic relaying: same digest.
    _, unit = app.handle_register_graph({"dataset": "fig1", "edge_prob": 1.0})
    assert unit["digest"] == det["digest"]
    # Per-edge form registers, validates membership, and is digest-stable.
    _, mapped = app.handle_register_graph(
        {"dataset": "fig1", "edge_probs": [["s", "x", 0.5]]}
    )
    _, mapped_again = app.handle_register_graph(
        {"dataset": "fig1", "edge_probs": [["s", "x", 0.5]]}
    )
    assert mapped["digest"] == mapped_again["digest"]
    assert mapped["digest"] not in (det["digest"], prob["digest"])


def test_probabilistic_registration_validation(app):
    from repro.service.app import RequestError

    cases = [
        {"dataset": "fig1", "edge_prob": "half"},
        {"dataset": "fig1", "edge_prob": 1.5},
        {"dataset": "fig1", "edge_probs": [["s", "nope", 0.5]]},
        {"dataset": "fig1", "edge_probs": [["s", "x"]]},
        {"dataset": "fig1", "edge_prob": 0.5, "edge_probs": []},
        # Unhashable node values are a client error, never a 500.
        {"dataset": "fig1", "edge_probs": [[["s"], "x", 0.5]]},
    ]
    for body in cases:
        with pytest.raises(RequestError):
            app.handle_register_graph(body)


def test_placement_key_carries_model_axis(app):
    _, reg = app.handle_register_graph({"dataset": "fig1", "edge_prob": 0.6})
    digest = reg["digest"]
    base = {"graph": digest, "algorithm": "G_All", "k": 2, "wait": True}
    status, det = app.place_sync(base)
    assert status == 200 and "model" not in det["result"]
    status, prob = app.place_sync(
        {**base, "model": "live-edge", "trials": 12, "mc_seed": 1}
    )
    assert status == 200
    assert prob["result"]["model"] == {
        "name": "live-edge",
        "edge_prob": 0.6,
        "trials": 12,
        "seed": 1,
    }
    assert prob["request"]["model"] == "live-edge"
    # The two requests occupy distinct cache cells.
    status, prob_again = app.place_sync(
        {**base, "model": "live-edge", "trials": 12, "mc_seed": 1}
    )
    assert prob_again["cache"]["hit"] is True
    assert prob_again["result"] == prob["result"]
    status, other_seed = app.place_sync(
        {**base, "model": "live-edge", "trials": 12, "mc_seed": 2}
    )
    assert other_seed["cache"]["hit"] is False


def test_probabilistic_request_on_deterministic_graph_shares_cell(app):
    digest = register_fig1(app)
    base = {"graph": digest, "algorithm": "G_All", "k": 2, "wait": True}
    status, det = app.place_sync(base)
    assert status == 200
    # No registered probabilities ⇒ the model resolves to deterministic
    # and must hit the deterministic cache cell, not fork it.
    status, prob = app.place_sync({**base, "model": "live-edge"})
    assert prob["cache"]["hit"] is True
    assert prob["result"] == det["result"]
    assert "model" not in prob["request"]


def test_probabilistic_prefix_reuse_rescores_with_the_model(app):
    _, reg = app.handle_register_graph(
        {"dataset": "fig10", "edge_prob": 0.7}
    )
    digest = reg["digest"]
    body = {
        "graph": digest,
        "algorithm": "G_All",
        "k": 4,
        "model": "live-edge",
        "trials": 8,
        "mc_seed": 3,
        "wait": True,
    }
    status, full = app.place_sync(body)
    assert status == 200
    status, sliced = app.place_sync({**body, "k": 1})
    assert sliced["cache"]["hit"] and sliced["cache"]["kind"] == "prefix"
    status, direct_app = app.place_sync({**body, "k": 1})
    # Derived entry was re-cached under its own probabilistic key.
    assert direct_app["cache"]["kind"] == "exact"
    # And the derived numbers equal a from-scratch k=1 run.
    fresh = ServiceApp(workers=1, warm_backends=False)
    try:
        fresh.handle_register_graph({"dataset": "fig10", "edge_prob": 0.7})
        status, direct = fresh.place_sync({**body, "k": 1})
    finally:
        fresh.close()
    assert sliced["result"]["filters"] == direct["result"]["filters"]
    assert sliced["result"]["phi"] == direct["result"]["phi"]
    assert (
        sliced["result"]["filter_ratio"] == direct["result"]["filter_ratio"]
    )


def test_trials_capped_per_request(app):
    from repro.service.app import MAX_TRIALS, RequestError

    _, reg = app.handle_register_graph({"dataset": "fig1", "edge_prob": 0.5})
    body = {
        "graph": reg["digest"], "algorithm": "G_All", "k": 1,
        "model": "live-edge", "trials": MAX_TRIALS + 1,
    }
    with pytest.raises(RequestError):
        app.handle_placement(body)


def test_world_caches_are_bounded():
    from repro.propagation.model import build_model
    from repro.propagation.sampling import (
        MAX_WORLD_SETS_PER_GRAPH,
        _worlds_cache,
        get_worlds,
    )

    graph = CGraph([("s", "a"), ("s", "b"), ("a", "c"), ("b", "c")])
    for seed in range(MAX_WORLD_SETS_PER_GRAPH + 5):
        get_worlds(
            graph, build_model("live-edge", edge_prob=0.5, seed=seed, trials=2)
        )
    assert len(_worlds_cache[graph]) == MAX_WORLD_SETS_PER_GRAPH
    # Eviction is results-neutral: a rebuilt world set is bit-identical.
    model = build_model("live-edge", edge_prob=0.5, seed=0, trials=2)
    masks = [bytes(m) for m in get_worlds(graph, model).masks]
    for seed in range(1, MAX_WORLD_SETS_PER_GRAPH + 5):
        get_worlds(
            graph, build_model("live-edge", edge_prob=0.5, seed=seed, trials=2)
        )
    assert [bytes(m) for m in get_worlds(graph, model).masks] == masks


def test_algorithms_endpoint_reports_models(app):
    _, doc = app.handle_algorithms()
    assert doc["models"] == ["deterministic", "live-edge", "per-copy"]
    by_name = {row["name"]: row for row in doc["algorithms"]}
    assert by_name["G_All"]["model_aware"] is True
    assert by_name["Rand_K"]["model_aware"] is False


# ----------------------------------------------------------------------
# .fpc ingestion and plan persistence (the streamed registration route)
# ----------------------------------------------------------------------


def test_register_fpc_roundtrip(tmp_path):
    from repro.graphs.largescale import save_compiled, scale_dag

    graph = scale_dag(0.001, seed=3)
    graph.compiled().reach_counts()  # persist the warmed counts too
    fpc = save_compiled(graph, tmp_path / "tiny.fpc")

    app = small_app()
    try:
        status, doc = app.handle_register_graph(
            {"fpc_path": str(fpc), "name": "tiny"}
        )
        assert status == 201 and doc["created"]
        assert doc["name"] == "tiny"
        assert doc["nodes"] == graph.number_of_nodes()
        assert doc["is_dag"] is True
        # Idempotent: the same .fpc lands on the same digest.
        status, again = app.handle_register_graph({"fpc_path": str(fpc)})
        assert status == 200 and not again["created"]
        assert again["digest"] == doc["digest"]
        # The restored counts rode along: no re-warm needed.
        entry = app.store.get(doc["digest"])
        assert entry.graph.compiled()._reach_counts is not None
        # And the entry serves placements like any other.
        status, result = app.place_sync(
            {"graph": doc["digest"], "algorithm": "G_All", "k": 2}
        )
        assert status == 200
        assert len(result["result"]["filters"]) == 2
    finally:
        app.close()


def malformed_fpc_dirs(tmp_path) -> list:
    """One fig1 ``.fpc`` directory per malformed ``meta.json`` case."""
    from repro.datasets.registry import get_dataset
    from repro.graphs.largescale import save_compiled

    targets = []
    for case in MALFORMED_FPC_META:
        target = save_compiled(get_dataset("fig1"), tmp_path / f"{case}.fpc")
        malform_fpc_meta(target, case)
        targets.append(target)
    return targets


def test_register_graph_body_exclusivity(tmp_path, app):
    from repro.service.app import RequestError

    for body in (
        {},
        {"dataset": "fig1", "fpc_path": "x"},
        {"edges": "a b", "fpc_path": "x"},
        {"fpc_path": 7},
        {"fpc_path": str(tmp_path / "missing.fpc")},
        *({"fpc_path": str(t)} for t in malformed_fpc_dirs(tmp_path)),
    ):
        with pytest.raises(RequestError) as err:
            app.handle_register_graph(body)
        assert err.value.status == 400, body


def test_store_quarantines_malformed_meta(tmp_path):
    persist = tmp_path / "plans"
    persist.mkdir()
    for target in malformed_fpc_dirs(persist):
        (target / "store.json").write_text('{"digest": "d", "name": "n"}')
    booted = GraphStore(persist_dir=persist)
    assert booted.digests() == ()
    assert booted.stats()["quarantined_plans"] == len(MALFORMED_FPC_META)
    assert not list(persist.glob("*.fpc"))


def test_store_persist_dir_roundtrip(tmp_path):
    persist = tmp_path / "plans"
    store = GraphStore(persist_dir=persist)
    entry, created = store.register_dataset("fig1")
    assert created and store.persisted == 1
    snapshot = persist / f"{entry.digest}.fpc"
    assert (snapshot / "meta.json").is_file()
    assert (snapshot / "store.json").is_file()
    # Warming at registration persisted the reach counts with the plan.
    assert (snapshot / "reach_counts.bin").is_file()
    # Re-registration is a no-op on disk.
    store.register_dataset("fig1")
    assert store.persisted == 1

    restored = GraphStore(persist_dir=persist)
    assert restored.restored == 1 and len(restored) == 1
    back = restored.get(entry.digest)
    assert back.name == entry.name
    assert back.graph.number_of_nodes() == entry.graph.number_of_nodes()
    assert back.graph.compiled()._reach_counts is not None
    assert sorted(map(repr, back.graph.edges())) == sorted(
        map(repr, entry.graph.edges())
    )
    stats = restored.stats()
    assert stats["restored_plans"] == 1


def test_store_quarantines_torn_snapshots(tmp_path, caplog):
    from repro.core.registry import get_algorithm

    persist = tmp_path / "plans"
    store = GraphStore(persist_dir=persist)
    digests = {}
    for dataset in ("fig1", "fig2", "fig3", "fig10"):
        entry, _ = store.register_dataset(dataset)
        digests[dataset] = entry.digest
    assert store.persisted == 4
    placed = get_algorithm("G_All").place(store.get(digests["fig3"]).graph, 3)

    def snapshot(dataset):
        return persist / f"{digests[dataset]}.fpc"

    table = snapshot("fig3") / "out_targets.bin"
    table.write_bytes(table.read_bytes()[: table.stat().st_size // 2])
    marker = snapshot("fig2") / "store.json"
    marker.write_text(marker.read_text()[:10])
    (snapshot("fig10") / "store.json").unlink()
    (persist / f"{digests['fig2']}.fpc.corrupt").mkdir()  # an older copy

    with caplog.at_level("WARNING", logger="repro.service"):
        booted = GraphStore(persist_dir=persist)
    assert booted.digests() == (digests["fig1"],)
    assert booted.stats()["quarantined_plans"] == 3
    assert booted.stats()["restored_plans"] == 1
    assert sum("quarantined" in r.getMessage() for r in caplog.records) == 3
    for dataset in ("fig2", "fig3", "fig10"):
        assert not snapshot(dataset).exists()
        corrupt = persist / f"{digests[dataset]}.fpc.corrupt"
        assert (corrupt / "meta.json").is_file()

    entry, created = booted.register_dataset("fig3")
    assert created and booted.persisted == 1
    third = GraphStore(persist_dir=persist)
    assert set(third.digests()) == {digests["fig1"], digests["fig3"]}
    assert third.stats()["quarantined_plans"] == 0
    restored = third.get(digests["fig3"]).graph
    assert get_algorithm("G_All").place(restored, 3).filters == placed.filters


def test_persist_dir_skips_probabilistic_and_cyclic(tmp_path):
    persist = tmp_path / "plans"
    store = GraphStore(persist_dir=persist, warm_backends=False)
    store.register_dataset("fig1", probabilities=0.5)
    cyclic = CGraph([("a", "b"), ("b", "a")], sources=["a"])
    store.register_graph(cyclic, name="loop", spec={"kind": "edges"})
    assert store.persisted == 0
    assert not list(persist.glob("*.fpc"))
