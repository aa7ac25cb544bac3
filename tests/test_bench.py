"""Bench subsystem: harness, BENCH.json schema, regression comparator, CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench.compare import compare_documents, format_comparison
from repro.bench.harness import render_records, run_suite
from repro.bench.instrument import CountingBackend
from repro.bench.results import (
    SCHEMA_VERSION,
    load_bench_json,
    validate_document,
    write_bench_json,
)
from repro.bench.scenarios import BenchScenario, get_suite, toy_suite
from repro.backends import get_backend
from repro.exceptions import ParameterError


def mini_scenarios():
    return [
        BenchScenario("fig1", "G_All", 2, backend)
        for backend in ("python",)
    ] + [
        BenchScenario("fig10", "G_L", 3, "python"),
    ]


def test_run_suite_produces_records():
    records = run_suite(mini_scenarios())
    assert len(records) == 2
    g_all = records[0]
    assert g_all.scenario.algorithm == "G_All"
    assert g_all.nodes == 7 and g_all.edges == 9
    assert g_all.seconds >= 0
    assert g_all.evaluations["marginal_gains"] >= 1
    assert g_all.filters_found == len(g_all.filters)
    assert 0.0 <= g_all.filter_ratio <= 1.0
    assert "G_All" in render_records(records)


def test_bench_json_roundtrip(tmp_path):
    path = tmp_path / "BENCH.json"
    records = run_suite(mini_scenarios())
    doc = write_bench_json(str(path), records, meta={"suite": "mini"})
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["meta"]["suite"] == "mini"
    loaded = load_bench_json(str(path))
    assert loaded == json.loads(path.read_text())
    keys = [row["key"] for row in loaded["results"]]
    assert keys == [s.key() for s in mini_scenarios()]


def test_validate_document_rejects_malformed():
    with pytest.raises(ValueError):
        validate_document({"schema_version": 999, "results": []})
    with pytest.raises(ValueError):
        validate_document({"schema_version": SCHEMA_VERSION})
    with pytest.raises(ValueError):
        validate_document(
            {"schema_version": SCHEMA_VERSION, "results": [{"key": "x"}]}
        )


def test_comparator_flags_regression_and_drift():
    records = run_suite(mini_scenarios())
    doc = {
        "schema_version": SCHEMA_VERSION,
        "meta": {},
        "results": [r.to_json_dict() for r in records],
    }
    same = compare_documents(doc, doc, regression_ratio=1.5)
    assert same.ok and len(same.cells) == 2

    slower = json.loads(json.dumps(doc))
    slower["results"][0]["seconds"] = doc["results"][0]["seconds"] * 10 + 1.0
    report = compare_documents(doc, slower, regression_ratio=1.5)
    assert [c.key for c in report.regressions] == [doc["results"][0]["key"]]
    assert "PERF REGRESSION" in format_comparison(report)

    drifted = json.loads(json.dumps(doc))
    drifted["results"][1]["filters"] = ["'bogus'"]
    report = compare_documents(doc, drifted, regression_ratio=1.5)
    assert report.result_drift and not report.regressions
    assert "RESULT DRIFT" in format_comparison(report)


def test_counting_backend_tallies_calls(fig1):
    counting = CountingBackend(get_backend("python"))
    counting.marginal_gains(fig1)
    counting.marginal_gains(fig1, ["z2"])
    counting.total_receipts(fig1)
    assert counting.counts["marginal_gains"] == 2
    assert counting.counts["total_receipts"] == 1
    assert counting.total_evaluations() == 3
    counting.reset()
    assert counting.total_evaluations() == 0


def test_suites_cross_backends():
    scenarios = get_suite("toy", backends=("python",))
    assert {s.backend for s in scenarios} == {"python"}
    assert {s.dataset for s in scenarios} == {"fig1", "fig10"}
    with pytest.raises(ParameterError):
        get_suite("nope")
    # Default backend axis = whatever is available in this environment.
    assert {s.backend for s in toy_suite()} >= {"python"}


def test_bench_cli_writes_valid_json(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "BENCH.json"
    code = main(
        [
            "bench",
            "--suite", "toy",
            "--backends", "python",
            "--out", str(out),
            "--quiet",
        ]
    )
    assert code == 0
    doc = load_bench_json(str(out))
    assert doc["meta"]["suite"] == "toy"
    assert len(doc["results"]) == 10  # 2 datasets x 5 algorithms x 1 backend
    assert "wrote 10 result(s)" in capsys.readouterr().out


def test_bench_cli_compare_in_place_loads_prior_first(tmp_path, capsys):
    # --out and --compare may be the same path (the committed BENCH.json
    # trajectory file); the prior must be read before it is overwritten.
    from repro.cli import main

    path = tmp_path / "BENCH.json"
    args = [
        "bench", "--suite", "toy", "--backends", "python",
        "--out", str(path), "--quiet",
    ]
    assert main(args) == 0
    capsys.readouterr()
    # Doctor the prior so a self-compare (ratio 1.00x everywhere) is
    # distinguishable from a genuine prior-vs-current comparison.
    doc = json.loads(path.read_text())
    for row in doc["results"]:
        row["seconds"] = 999.0
    path.write_text(json.dumps(doc))
    assert main(args + ["--compare", str(path)]) == 0
    out = capsys.readouterr().out
    assert "999000.0" in out  # prior ms column shows the doctored values
    assert "1.00x" not in out  # i.e. NOT compared against itself


def test_bench_cli_failed_gate_preserves_baseline(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "BENCH.json"
    # The ablation suite's synthetic cells take tens of ms — far enough
    # above the comparator's noise floor that a doctored 1 ms baseline
    # must trip the gate (toy cells are sub-ms and would be suppressed).
    args = [
        "bench", "--suite", "ablation", "--backends", "python",
        "--out", str(path), "--quiet",
    ]
    assert main(args) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    for row in doc["results"]:
        row["seconds"] = 1e-3
    baseline_text = json.dumps(doc)
    path.write_text(baseline_text)
    code = main(
        args + ["--compare", str(path), "--fail-on-regression", "1.5"]
    )
    assert code == 3
    assert path.read_text() == baseline_text  # baseline untouched
    rejected = tmp_path / "BENCH.json.rejected"
    assert rejected.exists()
    assert load_bench_json(str(rejected))["results"]
    assert "parked" in capsys.readouterr().err


def test_bench_cli_gate_fails_on_zero_overlap(tmp_path, capsys):
    # A suite/seed change makes every scenario key differ from the
    # baseline; the gate must fail loudly instead of passing vacuously.
    from repro.cli import main

    path = tmp_path / "BENCH.json"
    base_args = [
        "bench", "--suite", "toy", "--backends", "python",
        "--out", str(path), "--quiet",
    ]
    assert main(base_args) == 0
    baseline_text = path.read_text()
    capsys.readouterr()
    code = main(
        base_args
        + ["--seed", "1", "--compare", str(path), "--fail-on-regression", "1.5"]
    )
    assert code == 3
    assert path.read_text() == baseline_text
    assert "no overlapping scenarios" in capsys.readouterr().err


def test_bench_cli_gate_fails_on_shrunk_coverage_and_repeats(
    tmp_path, capsys
):
    from repro.cli import main

    path = tmp_path / "BENCH.json"
    assert main(
        [
            "bench", "--suite", "toy", "--backends", "python",
            "--out", str(path), "--quiet", "--repeats", "2",
        ]
    ) == 0
    baseline_text = path.read_text()
    capsys.readouterr()

    # Mismatched --repeats: best-of-1 vs best-of-2 are not comparable.
    code = main(
        [
            "bench", "--suite", "toy", "--backends", "python",
            "--out", str(path), "--quiet",
            "--compare", str(path), "--fail-on-regression", "1.5",
        ]
    )
    assert code == 3
    assert "--repeats 2" in capsys.readouterr().err
    assert path.read_text() == baseline_text

    # Fewer cells than the baseline (here: fewer algorithms via a
    # doctored prior is awkward, so shrink by dropping a backend axis
    # against a two-backend baseline when numpy is available; otherwise
    # doctor the prior with an extra synthetic cell).
    doc = json.loads(baseline_text)
    extra = json.loads(json.dumps(doc["results"][0]))
    extra["key"] = extra["key"].replace("/python", "/imaginary")
    extra["backend"] = "imaginary"
    doc["results"].append(extra)
    path.write_text(json.dumps(doc))
    code = main(
        [
            "bench", "--suite", "toy", "--backends", "python",
            "--out", str(path), "--quiet", "--repeats", "2",
            "--compare", str(path), "--fail-on-regression", "1.5",
        ]
    )
    assert code == 3
    assert "fewer cell(s)" in capsys.readouterr().err


def test_bench_cli_fail_on_regression_requires_compare(tmp_path, capsys):
    from repro.cli import main

    code = main(
        [
            "bench", "--suite", "toy", "--backends", "python",
            "--out", str(tmp_path / "B.json"), "--quiet",
            "--fail-on-regression", "1.5",
        ]
    )
    assert code == 2
    assert "requires --compare" in capsys.readouterr().err


def test_place_cli_backend_flag(capsys):
    from repro.cli import main

    outputs = {}
    for backend in ("python", "auto"):
        code = main(
            [
                "place",
                "--dataset", "fig1",
                "--algorithm", "G_All",
                "-k", "2",
                "--backend", backend,
            ]
        )
        assert code == 0
        outputs[backend] = capsys.readouterr().out
    assert outputs["python"] == outputs["auto"]
    assert "'z2'" in outputs["python"]


def _backends() -> tuple[str, ...]:
    from repro.backends.registry import available_backends

    return available_backends()


def test_probabilistic_scenarios_and_mc_speedup():
    from repro.bench.compare import mc_speedup
    from repro.bench.harness import run_suite
    from repro.bench.scenarios import BenchScenario, apply_model, get_suite

    scenarios = [
        BenchScenario(
            "fig10", "G_All", 3, backend,
            model="live-edge", edge_prob=0.6, trials=8,
        )
        for backend in _backends()
    ]
    assert scenarios[0].key() == (
        "fig10@default/seed0/G_All/k3/"
        f"{_backends()[0]}/live-edge-p0.6-t8"
    )
    records = run_suite(scenarios)
    # Filter sets identical across backends (shared sampled worlds).
    assert len({r.filters for r in records}) == 1
    rows = [r.to_json_dict() for r in records]
    assert all(row["model"] == "live-edge" for row in rows)
    assert all(row["trials"] == 8 for row in rows)
    ratios = mc_speedup(records)
    if len(_backends()) > 1:
        assert set(ratios) == {
            "fig10@default/seed0/G_All/k3/numpy/live-edge-p0.6-t8"
        }
        assert all(r > 0 for r in ratios.values())
    else:
        assert ratios == {}
    # Deterministic cells never enter the MC comparison.
    assert mc_speedup(
        [r.to_json_dict() for r in run_suite(
            [BenchScenario("fig10", "G_1", 2, _backends()[0])]
        )]
    ) == {}
    # The probabilistic suite crosses both algorithms over the backends,
    # and apply_model re-parameterizes algorithm cells only.
    suite = get_suite("probabilistic", backends=_backends())
    assert {s.model for s in suite} == {"live-edge"}
    assert {s.trials for s in suite} == {64}
    converted = apply_model(
        get_suite("toy", backends=_backends()),
        model="live-edge", edge_prob=0.5, trials=4,
    )
    assert all(
        s.model == "live-edge" for s in converted if s.mode == "algorithm"
    )
    untouched = apply_model(
        get_suite("toy", backends=_backends()),
        model="deterministic", edge_prob=1.0, trials=0,
    )
    assert all(s.model == "deterministic" for s in untouched)
    # Unit probabilities *are* deterministic relaying: a probabilistic
    # label would mark exact-path cells as MC cells and pollute
    # mc_speedup, so apply_model collapses them.
    unit = apply_model(
        get_suite("toy", backends=_backends()),
        model="live-edge", edge_prob=1.0, trials=64,
    )
    assert all(s.model == "deterministic" for s in unit)


def test_phases_decompose_wall_clock_and_exclude_plan_from_solve():
    """Regression for the repeats timing skew: per-repeat solve timings
    must not absorb compile/plan work, and the recorded phases must be a
    true decomposition of the cell's wall-clock."""
    from repro.bench.harness import run_scenario

    record = run_scenario(
        BenchScenario("fig10", "G_All", 3, "python"), repeats=3
    )
    row = record.to_json_dict()
    phases = row["phases"]
    assert set(phases) == {"plan", "solve", "repeat_overhead", "score"}
    # ``seconds`` is the best-of-repeats solve region, nothing else.
    assert phases["solve"] == row["seconds"]
    assert phases["repeat_overhead"] >= 0.0
    # plan_seconds carries the in-cell plan phase plus the amortized
    # per-graph compile share — never less than the in-cell phase alone.
    assert row["plan_seconds"] >= phases["plan"]
    assert row["wall_seconds"] >= row["seconds"]
    # The phases sum to the wall-clock within scheduling tolerance.
    drift = abs(sum(phases.values()) - row["wall_seconds"])
    assert drift <= max(0.02, 0.1 * row["wall_seconds"]), (
        f"phases {phases} do not decompose wall_seconds "
        f"{row['wall_seconds']} (drift {drift})"
    )


def test_single_repeat_omits_repeat_overhead_phase():
    from repro.bench.harness import run_scenario

    record = run_scenario(
        BenchScenario("fig10", "G_All", 3, "python"), repeats=1
    )
    assert "repeat_overhead" not in record.phases
    drift = abs(sum(record.phases.values()) - record.wall_seconds)
    assert drift <= max(0.02, 0.1 * record.wall_seconds)


def test_compile_and_service_cells_carry_wall_seconds():
    from repro.bench.harness import run_scenario

    compile_record = run_scenario(
        BenchScenario(
            "fig10", "compile", 0, "python", mode="compile"
        ),
        repeats=2,
    )
    assert compile_record.phases["plan"] == compile_record.seconds
    assert compile_record.wall_seconds >= compile_record.seconds
    service_record = run_scenario(
        BenchScenario(
            "fig10", "G_All", 2, "python", mode="service_hit"
        ),
        repeats=1,
    )
    assert service_record.wall_seconds >= service_record.seconds
    assert service_record.phases["solve"] == service_record.seconds


def test_compile_cost_lands_in_compile_and_plan_seconds(monkeypatch):
    """A graph compiles at construction, so the compile cell and every
    solve cell's plan share must time that build, not a cached lookup."""
    import time

    from repro.bench.harness import run_scenario
    from repro.graphs import compiled as graph_compiled

    build = graph_compiled._interned_adjacency

    def slow_build(*args):
        time.sleep(0.05)
        return build(*args)

    monkeypatch.setattr(graph_compiled, "_interned_adjacency", slow_build)
    compile_cell, solve_cell = run_suite(
        [
            BenchScenario("fig10", "compile", 0, "python", mode="compile"),
            BenchScenario("fig10", "G_All", 2, "python"),
        ]
    )
    assert compile_cell.seconds >= 0.05
    assert solve_cell.plan_seconds >= 0.05
    alone = run_scenario(BenchScenario("fig10", "G_All", 2, "python"))
    assert alone.plan_seconds >= 0.05


def test_bitpack_suite_cells_and_speedup_comparator():
    from repro.bench.compare import bitpack_speedup
    from repro.bench.scenarios import BITPACK_SOURCES

    suite = get_suite("bitpack", backends=_backends())
    # Every (dataset, backend) appears on both tiers, sources widened.
    assert all(s.sources == BITPACK_SOURCES for s in suite)
    assert {s.tier for s in suite} == {"bitpack", "lanes"}
    toy = [s for s in suite if s.dataset == "fig10"]
    assert toy[0].key().endswith("/src256")
    assert toy[1].key().endswith("/src256/tier-lanes")

    records = run_suite(
        [s for s in toy if s.backend == _backends()[0]]
    )
    # Same placements on both tiers — the tier changes the route to the
    # numbers, never the numbers.
    assert records[0].filters == records[1].filters
    assert records[0].objective == records[1].objective
    ratios = bitpack_speedup(records)
    assert set(ratios) == {records[0].scenario.key()}
    assert all(r > 0 for r in ratios.values())
    # Cells without a lanes twin produce no ratio.
    assert bitpack_speedup(records[:1]) == {}


def test_parallel_suite_pins_worker_counts():
    from repro.bench.scenarios import PARALLEL_WORKERS

    suite = get_suite("parallel", backends=_backends())
    assert {s.workers for s in suite} == set(PARALLEL_WORKERS)
    assert all(s.model == "live-edge" for s in suite)
    assert all(s.backend == "python" for s in suite)
    pinned = [s for s in suite if s.workers > 1]
    assert all(f"/w{s.workers}" in s.key() for s in pinned)
    # workers=1 cells are explicitly serial but still keyed: the /w1
    # suffix distinguishes them from ambient-worker default cells.
    assert all("/w1" in s.key() for s in suite if s.workers == 1)


def test_parallel_cells_run_and_match_across_worker_counts():
    records = run_suite(
        [
            BenchScenario(
                "fig10", "G_All", 2, "python",
                model="live-edge", edge_prob=0.7, trials=16,
                workers=workers,
            )
            for workers in (1, 2)
        ]
    )
    assert records[0].filters == records[1].filters
    assert records[0].objective == records[1].objective
