"""Seeded workload inputs, written as files before anything is timed.

Every input is a pure function of ``(workload, seed, smoke)`` and is
cached under ``.work/inputs`` so repeated runs on one seed skip the
generators.  The program only ever sees these files (edge lists and a
``.fpc`` directory) or their text in HTTP bodies.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from pathlib import Path

from common import WORK

#: Batch workloads: generator, its scale, the placement budget ``k``,
#: and which ingestion path the place run takes.
BATCH = {
    "scale-exact": {"generator": "scale-dag", "scale": 1.5, "k": 10,
                    "ingest": "streamed"},
    "deep-exact": {"generator": "synthetic-dense", "scale": 2.0, "k": 50,
                   "ingest": "materialized"},
}
#: The same code paths on inputs small enough for the benchmark's tests.
#: synthetic-dense at scale 1 still overflows int64, so deep-exact keeps
#: its fallback path.
BATCH_SMOKE = {
    "scale-exact": {"generator": "scale-dag", "scale": 0.03, "k": 5,
                    "ingest": "streamed"},
    "deep-exact": {"generator": "synthetic-dense", "scale": 1.0, "k": 10,
                   "ingest": "materialized"},
}

#: serve-mix base graphs registered by edge-list upload: (dataset, scale).
SERVE_BASE = (("citation", 1.0), ("synthetic-sparse", 2.0), ("quote", 2.2))
SERVE_BASE_SMOKE = (("citation", 0.1), ("synthetic-sparse", 0.2),
                    ("quote", 0.5))
#: The base graph registered from a ``.fpc`` directory (scale-dag scale).
SERVE_FPC_SCALE = 1.0
SERVE_FPC_SCALE_SMOKE = 0.05
#: In-loop uploads: count and scale-dag scale (0.02 → n = 2,000).
SERVE_UPLOADS = 20
SERVE_UPLOADS_SMOKE = 3
SERVE_UPLOAD_SCALE = 0.02
SERVE_UPLOAD_SCALE_SMOKE = 0.005


def _publish(tmp: Path, final: Path) -> Path:
    """Move a finished file or directory into place (atomic rename)."""
    if final.exists():
        if tmp.is_dir():
            shutil.rmtree(tmp)
        else:
            tmp.unlink()
        return final
    os.replace(tmp, final)
    return final


def _tmp_name(final: Path) -> Path:
    return final.with_name(f".{final.name}.{os.getpid()}.tmp")


def write_scale_dag(path: Path, scale: float, seed: int) -> None:
    """The scale-dag edge stream as a file whose directives pin the graph.

    ``# sources:`` lists every in-degree-zero node and ``# isolated:``
    the edge-free ones, so the file describes exactly the node, edge and
    source sets of ``scale_dag(scale, seed)``.
    """
    from repro.graphs.io import write_edge_list_stream
    from repro.graphs.largescale import scale_dag_edges, scale_dag_size

    n = scale_dag_size(scale)
    edges = list(scale_dag_edges(scale, seed))
    has_in = bytearray(n)
    has_out = bytearray(n)
    for u, v in edges:
        has_out[u] = 1
        has_in[v] = 1
    write_edge_list_stream(
        path,
        edges,
        sources=[str(i) for i in range(n) if not has_in[i]],
        isolated=[str(i) for i in range(n) if not has_in[i] and not has_out[i]],
        token_of=str,
    )


def write_dataset(path: Path, name: str, scale: float, seed: int) -> None:
    from repro.datasets.registry import get_dataset
    from repro.graphs.io import write_edge_list

    write_edge_list(get_dataset(name, seed=seed, scale=scale), path)


def batch_input(workload: str, seed: int, smoke: bool) -> Path:
    """The edge-list file one batch run ingests (generated once per seed)."""
    spec = (BATCH_SMOKE if smoke else BATCH)[workload]
    tag = "-smoke" if smoke else ""
    final = WORK / "inputs" / f"{workload}@{spec['scale']:g}-{seed}{tag}.txt"
    if final.exists():
        return final
    final.parent.mkdir(parents=True, exist_ok=True)
    tmp = _tmp_name(final)
    if spec["generator"] == "scale-dag":
        write_scale_dag(tmp, spec["scale"], seed)
    else:
        write_dataset(tmp, spec["generator"], spec["scale"], seed)
    return _publish(tmp, final)


def serve_inputs(seed: int, smoke: bool) -> dict:
    """serve-mix inputs: base edge lists, one ``.fpc``, the upload pool.

    The base graphs are fixed (dataset seed 0, scale-dag seed 7), so
    every run serves the same resident set; the seed drives the upload
    pool here and the request schedule in :mod:`serve`.
    """
    tag = "-smoke" if smoke else ""
    base_dir = WORK / "inputs" / f"serve-mix-base{tag}"
    base_dir.mkdir(parents=True, exist_ok=True)
    base = []
    for name, scale in (SERVE_BASE_SMOKE if smoke else SERVE_BASE):
        final = base_dir / f"{name}@{scale:g}.txt"
        if not final.exists():
            tmp = _tmp_name(final)
            write_dataset(tmp, name, scale, 0)
            _publish(tmp, final)
        base.append((f"{name}@{scale:g}", final))
    fpc_scale = SERVE_FPC_SCALE_SMOKE if smoke else SERVE_FPC_SCALE
    fpc = base_dir / f"scale-dag@{fpc_scale:g}.fpc"
    if not (fpc / "meta.json").exists():
        from repro.graphs.largescale import save_compiled, scale_dag

        tmp = _tmp_name(fpc)
        save_compiled(scale_dag(fpc_scale, 7), tmp, include_reach=False)
        _publish(tmp, fpc)
    upload_dir = WORK / "inputs" / f"serve-mix-{seed}{tag}"
    upload_dir.mkdir(parents=True, exist_ok=True)
    uploads = []
    count = SERVE_UPLOADS_SMOKE if smoke else SERVE_UPLOADS
    scale = SERVE_UPLOAD_SCALE_SMOKE if smoke else SERVE_UPLOAD_SCALE
    for i in range(count):
        final = upload_dir / f"upload-{i:02d}.txt"
        if not final.exists():
            tmp = _tmp_name(final)
            # Upload seeds are drawn from the run seed, one stream per slot.
            write_scale_dag(tmp, scale, seed * 1_000 + i + 1)
            _publish(tmp, final)
        uploads.append(final)
    return {"base": base, "fpc": fpc, "uploads": uploads}


def file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
