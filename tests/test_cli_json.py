"""CLI ``--json`` modes, ``serve`` wiring, and seeded ``generate``."""

from __future__ import annotations

import contextlib
import io
import json

from repro.cli import build_parser, main
from repro.graphs.io import read_edge_list, read_edge_list_meta
from repro.service.store import graph_digest


def run_cli(argv) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def test_place_json_payload_shape():
    code, out = run_cli([
        "place", "--dataset", "fig1", "--algorithm", "G_All", "-k", "2",
        "--json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["algorithm"] == "G_All"
    assert payload["requested_k"] == 2
    assert payload["filters"] == ["'z2'"]
    assert payload["objective"] == payload["phi_empty"] - payload["phi"]
    assert payload["filter_ratio"] == 1.0
    assert payload["steps"][0]["node"] == "'z2'"


def test_place_json_identical_across_strategies_and_backends():
    payloads = []
    for strategy in ("exact", "lazy"):
        code, out = run_cli([
            "place", "--dataset", "fig10", "--algorithm", "G_All",
            "-k", "3", "--strategy", strategy, "--json",
        ])
        assert code == 0
        payloads.append(json.loads(out))
    assert payloads[0] == payloads[1]


def test_place_json_g1_streamed_matches_materialized():
    # Streamed graphs keep NumPy degree tables; G_1's gains must still
    # serialize, and equal the materialized graph's.
    payloads = []
    for flags in ([], ["--streamed"]):
        code, out = run_cli([
            "place", "--dataset", "scale-dag", "--scale", "0.01",
            "--algorithm", "G_1", "-k", "3", "--json", *flags,
        ])
        assert code == 0
        payloads.append(json.loads(out))
    assert payloads[0] == payloads[1]
    assert len(payloads[0]["filters"]) == 3


def test_stats_json_payload():
    code, out = run_cli(["stats", "--dataset", "fig1", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "fig1"
    assert payload["nodes"] == 7 and payload["edges"] == 9
    assert payload["is_dag"] is True


def test_generate_is_seed_reproducible(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.txt", "b.txt", "c.txt"))
    base = ["generate", "--dataset", "synthetic-sparse", "--scale", "0.05"]
    assert main(base + ["--seed", "7", "-o", str(a)]) == 0
    assert main(base + ["--seed", "7", "-o", str(b)]) == 0
    assert main(base + ["--seed", "8", "-o", str(c)]) == 0
    # same seed: byte-identical output; different seed: different graph
    assert a.read_bytes() == b.read_bytes()
    assert graph_digest(read_edge_list(a)) != graph_digest(read_edge_list(c))
    # provenance is recorded in the header
    assert read_edge_list_meta(a) == {
        "dataset": "synthetic-sparse", "seed": 7, "scale": 0.05,
    }


def test_serve_subcommand_parses():
    parser = build_parser()
    args = parser.parse_args([
        "serve", "--port", "0", "--workers", "2",
        "--cache-entries", "16", "--preload", "fig1",
    ])
    assert args.func.__name__ == "_cmd_serve"
    assert args.port == 0 and args.preload == ["fig1"]


def test_place_json_probabilistic_model_block():
    argv = [
        "place", "--dataset", "fig10", "--algorithm", "G_All", "-k", "3",
        "--model", "live-edge", "--edge-prob", "0.6", "--trials", "16",
        "--json",
    ]
    code, out = run_cli(argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == {
        "name": "live-edge", "edge_prob": 0.6, "trials": 16, "seed": 0,
    }
    # SAA estimates are mutually consistent floats over shared worlds.
    assert payload["objective"] == payload["phi_empty"] - payload["phi"]
    # Byte-identical across repeats (seeded worlds) and strategies.
    assert run_cli(argv) == (code, out)
    lazy_code, lazy_out = run_cli(argv + ["--strategy", "lazy"])
    assert lazy_code == 0
    assert json.loads(lazy_out)["filters"] == payload["filters"]


def test_place_json_deterministic_unchanged_by_model_flags():
    base = [
        "place", "--dataset", "fig1", "--algorithm", "G_All", "-k", "2",
        "--json",
    ]
    _, plain = run_cli(base)
    # --model deterministic and unit probabilities are the same request.
    _, det = run_cli(base + ["--model", "deterministic"])
    _, unit = run_cli(base + ["--model", "live-edge", "--edge-prob", "1.0"])
    assert plain == det == unit
