"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload scale-exact --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` times the workload with no spans and reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` makes a
separate traced run and reports the per-layer metrics.  ``--smoke``
shrinks every input (same code paths) for the benchmark's own tests.
The report names every metric with its unit and the number of samples
behind it, then the correctness verdict; the last line of standard
output is the JSON result.  Any wrong answer, failed request or timeout
makes the exit status non-zero.

The workloads, why each exists and which layers each should move are
recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import traceback

from common import (
    BENCH_DIR,
    ROOT,
    WORK,
    ProgramMissing,
    median,
    program_env,
    require_program,
    use_program_path,
    write_json_atomic,
)

WORKLOADS = ("scale-exact", "deep-exact", "serve-mix")
#: Longest a child worker may run before the run counts as timed out.
CHILD_TIMEOUT_S = 170
#: Layer self-times must sum to the traced cycle within this share.
LEDGER_TOLERANCE = 0.05
MIN_CYCLES = 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_child(mode: str, config: dict) -> dict:
    """Run ``batch.py`` in a fresh process and parse its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "batch.py"), mode,
         json.dumps(config)],
        capture_output=True, text=True, env=program_env(), cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"batch.py {mode} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_batch(workload: str, seed: int, seconds: float, trace: bool,
              smoke: bool) -> dict:
    import inputs

    spec = (inputs.BATCH_SMOKE if smoke else inputs.BATCH)[workload]
    path = inputs.batch_input(workload, seed, smoke)
    digest = inputs.file_digest(path)
    config = {"input": str(path), "ingest": spec["ingest"], "k": spec["k"]}
    ref_path = WORK / "ref" / f"{workload}-{seed}-{digest[:16]}.json"
    if ref_path.exists():
        with open(ref_path, "r", encoding="utf-8") as handle:
            ref = json.load(handle)
    else:
        ref = run_child("reference", config)
        write_json_atomic(ref_path, ref)
    measured = run_child("measure", dict(
        config, seconds=seconds, trace=trace, min_cycles=MIN_CYCLES,
        trace_path=str(WORK / "traces" / f"{workload}-{seed}.json"),
    ))
    samples = measured["samples"]
    failures = []
    warmup = measured["warmup"]
    if warmup["filters"] != ref["filters"] or not (
        warmup["objective"] == warmup["scored_objective"] == ref["objective"]
    ):
        failures.append("warm-up cycle: answer differs from the reference")
    for i, s in enumerate(samples):
        wall = s["ingest_s"] + s["place_s"]
        if s["filters"] != ref["filters"]:
            failures.append(f"cycle {i}: filters differ from the reference")
        elif not s["objective"] == s["scored_objective"] == ref["objective"]:
            failures.append(f"cycle {i}: objective differs from the reference")
        elif s["traced"] and abs(
            s["layers"]["ledger_layers_s"] - wall
        ) > LEDGER_TOLERANCE * wall:
            failures.append(
                f"cycle {i}: layer self-times miss more than "
                f"{LEDGER_TOLERANCE:.0%} of the traced cycle"
            )
    report = {
        "attempted": len(samples) + 1,
        "failed": len(failures),
        "failures": failures,
        "sizes": {k: ref[k] for k in ("n", "m", "sources", "log2_phi_empty")},
    }
    runs = [s["ingest_s"] + s["place_s"] for s in samples]
    if not trace:
        n = len(samples)
        report["end_to_end"] = {
            "setup_s": (median(s["ingest_s"] for s in samples), n),
            "place_s": (median(s["place_s"] for s in samples), n),
            # The median cycle, so one slow cycle cannot move the rate.
            "req_per_s": (1.0 / median(runs), n),
            "peak_rss_mb": (measured["peak_rss_mb"], 1),
        }
        return report
    traced = [s for s in samples if s["traced"]]
    untraced = [s for s in samples if not s["traced"]]
    layers = {}
    for name in traced[0]["layers"]:
        layers[name] = (median(s["layers"][name] for s in traced), len(traced))
    gaps = [abs(s["layers"]["ledger_layers_s"] - s["ingest_s"] - s["place_s"])
            / (s["ingest_s"] + s["place_s"]) for s in traced]
    layers.pop("ledger_layers_s")
    overhead = 0.0
    if untraced:
        overhead = (median(s["place_s"] for s in traced)
                    / median(s["place_s"] for s in untraced) - 1.0)
    layers["obs.tracing_overhead"] = (overhead, len(samples))
    layers["obs.ledger_gap"] = (max(gaps), len(gaps))
    report["layers"] = layers
    return report


def run_workload(args) -> dict:
    if args.workload == "serve-mix":
        import serve

        return serve.run(args.seed, args.seconds, bool(args.trace), args.smoke)
    return run_batch(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.smoke)


def result_line(report: dict, spec: dict, trace: bool) -> dict:
    """The JSON result: every metric of the run's kind, absent layers 0."""
    kind = "per_layer" if trace else "end_to_end"
    found = report["layers" if trace else "end_to_end"]
    metrics = {}
    for entry in spec[kind]:
        value = found.get(entry["name"], (0.0, 0))[0]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def print_report(args, report: dict, spec: dict) -> None:
    kind = "per_layer" if args.trace else "end_to_end"
    found = report["layers" if args.trace else "end_to_end"]
    print(f"# workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}"
          + ("  (smoke)" if args.smoke else ""))
    print(f"  inputs: {json.dumps(report['sizes'], sort_keys=True)}")
    if "counts" in report:
        print(f"  requests: {json.dumps(report['counts'], sort_keys=True)}")
    for entry in spec[kind]:
        value, samples = found.get(entry["name"], (0.0, 0))
        note = "" if entry["name"] in found else "  (not on this path)"
        print(f"  {entry['name']:<28} {value:>16.6g} {entry['unit']:<8}"
              f" n={samples}{note}")
    verdict = "correct" if report["failed"] == 0 else "WRONG"
    print(f"  correctness: {verdict} — {report['attempted'] - report['failed']}"
          f"/{report['attempted']} operations verified")
    for failure in report["failures"][:10]:
        print(f"  failure: {failure}")


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(BENCH_DIR / "run.py"),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                command.append("--smoke")
            proc = subprocess.run(command, capture_output=True, text=True,
                                  cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 and not lines:
                sys.stderr.write(proc.stderr)
                return 1
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="scaled-down inputs, same code paths")
    args = parser.parse_args(argv)
    try:
        require_program()
        spec = load_spec()
    except (ProgramMissing, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # A terminated run still unwinds, so every server it started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    use_program_path()
    try:
        report = run_workload(args)
    except Exception:
        traceback.print_exc()
        return 1
    print_report(args, report, spec)
    print(json.dumps(result_line(report, spec, bool(args.trace))))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
