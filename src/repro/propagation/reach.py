"""The blocked out-of-core reachability warm (the ``nreach`` builder).

``nreach[v] = #{s : ψ_s(v) > 0}`` is the per-graph constant every
aggregate gain formula consumes (see
:func:`repro.propagation.engine.aggregate_receipts_ids`).  It was first
built by materializing the full n×S source-reachability bitset matrix —
O(n·S/8) bytes resident, which at S ≈ 0.3n is the superquadratic warm
wall the scale tier hit (3.4s at n=10^4 → 265s at 5·10^4,
non-terminating at 10^5).

This module replaces that with a **blocked sweep**: sources are iterated
in blocks of B lanes, each block runs the level-synchronous OR
recurrence ``B(v) = own(v) | OR_{p ∈ pred(v)} B(p)`` restricted to its
own lanes, popcounts into a per-node accumulator, and drops its lanes
before the next block starts.  Resident memory is O(n·B/8) — block
size, not source count — and because the blocks partition the source
set, the popcount sums are *exact integer addition*: the result is
bit-identical to the monolithic build for every block size.

Two sweep engines, one contract:

* **NumPy plane** — the fast path whenever NumPy is importable.  One
  node-major ``(n + 1, ⌈B/64⌉)`` uint64 plane whose rows run by
  ``(depth, ⌈log2 in-degree⌉, id)``, so every level — and every
  in-degree class inside it — is a contiguous row slice; row ``n``
  stays all zero.  Per (level, class) a table of parent rows, padded
  with the zero row, is built once per call and shared by every block:
  the block ORs ``plane.take(table[j])`` into the class's row slice for
  each parent slot ``j``.  Sources without children reach nothing and
  never enter a block; the rest are sorted by the depth of their
  shallowest child, and each block sweeps and popcounts only from its
  first source's level down.  Each block clears its own source bits
  before the popcount — a source never reaches itself in a DAG — so
  the counts come out mark-free.  Popcounts land per word in an
  ``(n, ⌈B/64⌉)`` uint16 tally, folded into int64 row counts before it
  could wrap and once at the end.
* **Pure python** — :func:`repro.graphs.compiled.blocked_reach_counts`:
  windows of B-bit python ints, dependency-free.  It skips sink sources
  and clears each window's own bits the same way, so ``swept_sources``
  and ``blocks`` mean the same on every engine.

The warm runs in the process that holds the graph.  The block size
rides the same :class:`~repro.scoping.ScopedDefault` pattern as the
world-worker count — one process-wide default, thread-scoped overrides —
wired to the CLI's ``--reach-block`` flag.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections.abc import Iterator
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any

from repro.exceptions import ParameterError
from repro.graphs.compiled import (
    DEFAULT_REACH_BLOCK,
    blocked_reach_counts,
    stable_order,
)
from repro.scoping import ScopedDefault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.compiled import CompiledGraph

# Per-thread scoping, like the backend/model/world-worker defaults: the
# service's concurrent jobs must not inherit each other's knobs.
_block: ScopedDefault[int] = ScopedDefault(DEFAULT_REACH_BLOCK)


def _check_block(block: int) -> int:
    if not isinstance(block, int) or isinstance(block, bool):
        raise ParameterError("reach block size must be an integer")
    if block < 1:
        raise ParameterError("reach block size must be positive")
    return block


def active_reach_block() -> int:
    """The effective source-block size for the calling thread."""
    return _block.get()


def set_reach_block(block: int) -> None:
    """Set the process-wide blocked-sweep source block size."""
    _block.set_global(_check_block(block))


@contextmanager
def use_reach_block(block: int) -> Iterator[int]:
    """Scope the source block size for a ``with`` block (this thread)."""
    with _block.scoped(_check_block(block)) as value:
        yield value


def _numpy_or_none():
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is present in CI
        return None
    return np


def warm_reach_counts(
    compiled: "CompiledGraph", *, block: int | None = None
) -> list:
    """Build (and cache) ``compiled``'s reach counts via the blocked sweep.

    The single entry point both backends' ``warm()`` paths, the bitpack
    ``_nreach`` build, and the service GraphStore route through.  Cached
    on the compiled graph — the same slot ``.fpc`` persistence
    (:func:`repro.graphs.largescale.save_compiled` /
    ``load_compiled``) round-trips, so a memory-mapped restart skips the
    sweep entirely.

    ``block`` defaults to the thread's scoped block size
    (:func:`use_reach_block`).  Results are bit-identical across every
    (engine, block) combination.  The ``warm.reach`` span records which
    ``engine`` ran (``numpy`` or ``python``), how many sources it swept
    and in how many blocks; ``fp_warm_reach_blocks_total`` counts the
    same blocks.
    """
    cached = compiled._reach_counts
    if cached is not None:
        return cached
    block = _check_block(active_reach_block() if block is None else block)
    from repro.obs.metrics import REGISTRY
    from repro.obs.trace import span

    num_sources = len(compiled.source_ids)
    started = time.perf_counter()
    with span(
        "warm.reach", n=compiled.n, sources=num_sources, block=block
    ) as record:
        np = _numpy_or_none()
        if np is None:
            out_degree = compiled.out_degree
            engine = "python"
            swept = sum(1 for s in compiled.source_ids if out_degree[s])
            counts = blocked_reach_counts(compiled, block)
        else:
            tables = _sweep_tables(np, compiled)
            sources, first_levels = _swept_sources(
                np, tables, compiled.source_ids
            )
            swept = int(sources.size)
            engine = "numpy"
            counts = _plane_sweep_counts(
                np, tables, sources, first_levels, block
            ).tolist()
        blocks = -(-swept // block)
        record.set("engine", engine)
        record.set("swept_sources", swept)
        record.set("blocks", blocks)
    REGISTRY.counter(
        "fp_warm_reach_blocks_total",
        "Source blocks swept by the blocked reachability warm.",
    ).inc(blocks)
    REGISTRY.histogram(
        "fp_warm_seconds",
        "Seconds spent warming per-graph reachability counts.",
    ).observe(time.perf_counter() - started)
    compiled._reach_counts = counts
    return counts


def _as_int64(np, table) -> Any:
    """One contiguous int64 view/copy of a CSR table (list or ndarray)."""
    return np.ascontiguousarray(np.asarray(table, dtype=np.int64))


def _multi_arange(np, starts, lengths):
    """Concatenate ``arange(start, start+length)`` runs, vectorized."""
    keep = lengths > 0
    starts, lengths = starts[keep], lengths[keep]
    if starts.size == 0:
        return np.empty(0, dtype=np.intp)
    steps = np.ones(int(lengths.sum()), dtype=np.intp)
    steps[0] = starts[0]
    run_ends = np.cumsum(lengths)[:-1]
    steps[run_ends] = starts[1:] - (starts[:-1] + lengths[:-1]) + 1
    return np.cumsum(steps)


def _sweep_tables(np, compiled: "CompiledGraph") -> tuple:
    """``(n, in_offsets, in_sources, topo, level_offsets)`` as the sweep
    reads them: the in-CSR and the level partition, int64 arrays."""
    return (
        compiled.n,
        _as_int64(np, compiled.in_offsets),
        _as_int64(np, compiled.in_sources),
        _as_int64(np, compiled.topo_order),
        _as_int64(np, compiled.level_offsets),
    )


def _swept_sources(np, tables: tuple, source_ids) -> tuple:
    """The sources a block sweeps, ordered by their first level.

    A source's *first level* is the depth of its shallowest child: no
    node above it is reachable from the source.  Sinks (no children)
    reach nothing and are dropped.  Reads only the sweep ``tables`` —
    each in-CSR edge carries its child's depth to its parent.  Returns
    ``(sources, first_levels)`` as int64 arrays, stably sorted by first
    level, so a block's first source carries the block's shallowest
    level.
    """
    n, in_offsets, in_sources, topo, level_offsets = tables
    levels = level_offsets.size - 1
    depth = np.empty(n, dtype=np.int64)
    depth[topo] = np.repeat(np.arange(levels), np.diff(level_offsets))
    first = np.full(n, levels, dtype=np.int64)  # ``levels``: no child
    np.minimum.at(first, in_sources, np.repeat(depth, np.diff(in_offsets)))
    src = _as_int64(np, source_ids)
    src = src[first[src] < levels]
    src = src[stable_order(first[src], levels)]
    return src, first[src]


def _row_layout(np, tables: tuple):
    """The node-major plane's row order and its per-group parent tables.

    Rows run by ``(depth, ⌈log2 in-degree⌉, id)``, so every level is a
    contiguous row slice and so is every in-degree class inside it; row
    ``n`` stays all zero.  Returns ``(node_of_row, row_of, groups)``
    where each group ``(level, lo, hi, table)`` covers rows
    ``lo:hi`` of one (level ≥ 1, class) pair and ``table[j]`` holds the
    ``j``-th parent row of each of them — padded with the zero row up
    to the group's largest in-degree (at most twice any member's).
    """
    n, in_offsets, in_sources, topo, level_offsets = tables
    indeg = in_offsets[1:] - in_offsets[:-1]
    # ⌈log2 d⌉ is the bit length of d − 1: frexp's exponent, 0 for d ≤ 1.
    klass = np.frexp(np.maximum(indeg - 1, 0).astype(np.float64))[1]
    levels = level_offsets.size - 1
    level = np.repeat(np.arange(levels), np.diff(level_offsets))
    # (level, class) as one integer key; the stable sort keeps id order.
    classes = int(klass.max(initial=0)) + 1
    node_of_row = topo[
        stable_order(level * classes + klass[topo], levels * classes)
    ]
    row_of = np.empty(n + 1, dtype=np.intp)
    row_of[node_of_row] = np.arange(n)
    row_of[n] = n
    row_klass = klass[node_of_row]
    cuts = np.flatnonzero(
        (level[1:] != level[:-1]) | (row_klass[1:] != row_klass[:-1])
    ) + 1
    first_row = int(level_offsets[1]) if level_offsets.size > 2 else n
    bounds = [first_row, *cuts[cuts > first_row].tolist(), n]
    groups = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo == hi:
            continue
        nodes = node_of_row[lo:hi]
        degree = indeg[nodes]
        table = np.full((int(degree.max()), hi - lo), n, dtype=np.intp)
        starts = in_offsets[nodes]
        pos = _multi_arange(np, starts, degree)
        table[
            pos - np.repeat(starts, degree),
            np.repeat(np.arange(hi - lo), degree),
        ] = row_of[in_sources[pos]]
        groups.append((int(level[lo]), lo, hi, table))
    return node_of_row, row_of, groups


def _word_popcounts(np, plane):
    """Per-word popcounts of a ``(rows, words)`` uint64 plane, as uint8."""
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return np.bitwise_count(plane)
    byte_bits = np.array([bin(b).count("1") for b in range(256)],
                         dtype=np.uint8)
    by_byte = byte_bits[plane.view(np.uint8)]
    return by_byte.reshape(*plane.shape, 8).sum(axis=-1, dtype=np.uint8)


#: The per-word popcount tally's dtype.  Each block adds at most
#: ``min(64, block)`` to a word, so the tally is folded into the int64
#: row counts every ``⌊max / min(64, block)⌋`` blocks, before it can wrap.
_TALLY_DTYPE = "uint16"


def _plane_sweep_counts(np, tables: tuple, sources, first_levels, block):
    """Blocked reach counts of ``sources``, in node-id order.

    ``sources`` must be sorted by ``first_levels`` (see
    :func:`_swept_sources`).  Each block of ``block`` lanes sets its
    sources' own bits in one node-major ``(n + 1, ⌈block/64⌉)`` uint64
    plane, ORs parent rows into each (level, class) row slice from the
    block's first level down, clears the own bits again — a source never
    reaches itself in a DAG, so what remains is exactly ``nreach`` —
    adds the swept rows' per-word popcounts into an ``(n, ⌈block/64⌉)``
    uint16 tally and zeroes them for the next block.  The tally is
    summed into int64 row counts only before it could wrap and once at
    the end, never along the short word axis per block.
    """
    n, level_offsets = tables[0], tables[4]
    if not sources.size:
        return np.zeros(n, dtype=np.int64)
    node_of_row, row_of, groups = _row_layout(np, tables)
    group_levels = [lvl for lvl, _, _, _ in groups]
    lanes = np.arange(min(block, sources.size))
    words = lanes >> 6
    bits = np.left_shift(np.uint64(1), (lanes & 63).astype(np.uint64))
    plane = np.zeros((n + 1, (lanes.size + 63) // 64), dtype=np.uint64)
    tally = np.zeros((n, plane.shape[1]), dtype=_TALLY_DTYPE)
    fold_every = np.iinfo(tally.dtype).max // min(64, block)
    by_row = np.zeros(n, dtype=np.int64)
    for count, start in enumerate(range(0, sources.size, block), start=1):
        rows = row_of[sources[start:start + block]]
        own = (rows, words[:rows.size])
        plane[own] = bits[:rows.size]
        first = int(first_levels[start])
        for _, lo, hi, table in groups[bisect_left(group_levels, first):]:
            dest = plane[lo:hi]
            for parents in table:
                dest |= plane.take(parents, axis=0)
        plane[own] &= ~bits[:rows.size]
        base = int(level_offsets[first])
        tally[base:] += _word_popcounts(np, plane[base:n])
        # Rows above ``base`` only ever held the own bits just cleared.
        plane[base:n] = 0
        if count % fold_every == 0:
            by_row += tally.sum(axis=1, dtype=np.int64)
            tally[:] = 0
    by_row += tally.sum(axis=1, dtype=np.int64)
    counts = np.empty(n, dtype=np.int64)
    counts[node_of_row] = by_row
    return counts

