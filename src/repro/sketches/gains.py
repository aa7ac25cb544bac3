"""Sketch-estimated marginal gains over the shared CSR.

The exact aggregate formulation (:func:`repro.core.impact.
marginal_gains_ids_exact`) computes ``I(v | A) = (T(v) − nreach(v)) ·
W(v)`` from two exact sweeps plus the cached reachability counts.  The
sketch tier keeps the *formula* and swaps the reachability input: the
``nreach`` vector becomes the bottom-k estimate
(:meth:`repro.sketches.bottomk.ReachSketches.counts`), and the two sweeps
run in float64 so the per-edge work is a float add instead of big-int
arithmetic (path counts explode exponentially; the floats saturate
gracefully where the exact ints grow thousand-bit).

Exactness regime
----------------
When no register file overflowed (:meth:`ReachSketches.is_exact` — always
the case when the graph has fewer sources than ``k``), every estimate *is*
the exact reach count.  The engine then routes through the exact integer
sweeps, so its gains are **bit-identical** to the exact tier's — which is
what lets the ``sketch`` strategy reproduce exact selections on every
built-in dataset and the whole fuzz corpus, with the float machinery
engaging only beyond the exact tier's comfort zone.

Float determinism
-----------------
Both float paths accumulate per node in predecessor CSR order — the pure
python fallback by an in-order ``sum`` fold, the NumPy fast path by
``np.bincount(weights=...)`` (a sequential input-order accumulation) over
per-level ragged gathers — so the two produce bit-identical gain vectors
and sketch placements never depend on whether NumPy is importable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.impact import absorbing_suffix_ids
from repro.exceptions import ParameterError
from repro.propagation.engine import aggregate_receipts_ids

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.compiled import CompiledGraph
    from repro.sketches.bottomk import ReachSketches

try:
    import numpy as _np
except Exception:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None


class _LevelPlan:
    """Per-level ragged CSR gathers, built once per engine (NumPy path).

    ``forward[L]`` is ``(vs, preds, seg)``: the level's node ids, the
    flattened predecessor ids, and each predecessor's position within the
    level.  ``backward[L]`` is ``(vs, kids, seg, dout)`` for the successor
    direction.  Rebuilding these per gains evaluation would double the
    sweep cost; they are the sketch analog of the backends' cached plans.
    """

    __slots__ = ("forward", "backward")

    def __init__(self, compiled: "CompiledGraph") -> None:
        np = _np
        topo = np.asarray(compiled.topo_order, dtype=np.int64)
        level_offsets = compiled.level_offsets

        def gather(vs, offsets, data):
            lens = offsets[vs + 1] - offsets[vs]
            total = int(lens.sum())
            if not total:
                empty = np.empty(0, dtype=np.int64)
                return empty, empty, lens
            seg = np.repeat(np.arange(len(vs), dtype=np.int64), lens)
            ends = np.cumsum(lens)
            pos = (
                np.arange(total, dtype=np.int64)
                - np.repeat(ends - lens, lens)
                + np.repeat(offsets[vs], lens)
            )
            return data[pos], seg, lens

        in_offsets = np.asarray(compiled.in_offsets, dtype=np.int64)
        in_sources = np.asarray(compiled.in_sources, dtype=np.int64)
        out_offsets = np.asarray(compiled.out_offsets, dtype=np.int64)
        out_targets = np.asarray(compiled.out_targets, dtype=np.int64)
        self.forward = []
        self.backward = []
        for level in range(compiled.num_levels):
            vs = topo[level_offsets[level]:level_offsets[level + 1]]
            preds, seg, _ = gather(vs, in_offsets, in_sources)
            self.forward.append((vs, preds, seg))
            kids, seg_out, dout = gather(vs, out_offsets, out_targets)
            self.backward.append(
                (vs, kids, seg_out, dout.astype(np.float64))
            )


class SketchGainEngine:
    """Estimated marginal gains for one ``(compiled, sketches)`` pair.

    ``lanes`` pins the sweep implementation (``"numpy"``/``"python"``;
    None auto-selects).  :attr:`exact` reports the exactness regime —
    when True, :meth:`gains_ids` returns exact Python ints, bit-identical
    to :func:`repro.core.impact.marginal_gains_ids_exact`.
    """

    __slots__ = (
        "compiled",
        "sketches",
        "exact",
        "lanes",
        "evaluations",
        "_nreach",
        "_nreach_arr",
        "_bonus_arr",
        "_plan",
    )

    def __init__(
        self,
        compiled: "CompiledGraph",
        sketches: "ReachSketches",
        *,
        lanes: str | None = None,
    ) -> None:
        if lanes is None:
            lanes = "numpy" if _np is not None else "python"
        if lanes not in ("numpy", "python"):
            raise ParameterError(f"unknown sketch lanes {lanes!r}")
        if lanes == "numpy" and _np is None:
            raise ParameterError(
                "numpy sketch lanes requested but numpy is not importable"
            )
        self.compiled = compiled
        self.sketches = sketches
        self.lanes = lanes
        self.exact = sketches.is_exact()
        self.evaluations = 0
        counts = sketches.counts()
        if self.exact:
            # Underfull registers count exactly — integer arithmetic from
            # here on, so the exact tier's tie-breaks carry over verbatim.
            self._nreach = [int(c) for c in counts]
        else:
            self._nreach = counts
        self._nreach_arr = None
        self._bonus_arr = None
        self._plan = None

    def gains_ids(self, filter_ids=()) -> "list[int] | list[float]":
        """Estimated ``I(v | A)`` for every node under filter set ``A``.

        Two sweeps (a ``W`` pass and a ``T`` pass), like the exact
        aggregate tier; the regime decides the arithmetic.
        """
        mask = self.compiled.filter_mask(filter_ids)
        self.evaluations += 1
        if self.exact:
            return self._gains_exact(mask)
        if self.lanes == "numpy":
            return self._gains_numpy(mask)
        return self._gains_python(mask)

    # ------------------------------------------------------------------
    # Exactness regime: reuse the exact integer sweeps unchanged.
    # ------------------------------------------------------------------

    def _gains_exact(self, mask: bytearray) -> list[int]:
        compiled = self.compiled
        w = absorbing_suffix_ids(compiled, mask)
        totals = aggregate_receipts_ids(compiled, mask, self._nreach)
        nreach = self._nreach
        gains = [0] * compiled.n
        for v in range(compiled.n):
            if mask[v]:
                continue
            excess = totals[v] - nreach[v]
            if excess > 0:
                wv = w[v]
                if wv:
                    gains[v] = excess * wv
        return gains

    # ------------------------------------------------------------------
    # Approximate regime: float64 sweeps, two bit-identical lanes.
    # ------------------------------------------------------------------

    def _gains_python(self, mask: bytearray) -> list[float]:
        compiled = self.compiled
        n = compiled.n
        nreach = self._nreach
        bonus = compiled.source_mark()
        succ = compiled.succ_ids
        pred = compiled.pred_ids
        topo = compiled.topo_order

        w = [0.0] * n
        w_eff = [0.0] * n
        w_eff_get = w_eff.__getitem__
        for v in reversed(topo):
            children = succ[v]
            if children:
                acc = len(children) + sum(map(w_eff_get, children))
                w[v] = acc
                if not mask[v]:
                    w_eff[v] = acc

        totals = [0.0] * n
        emit = [0.0] * n
        emit_get = emit.__getitem__
        for v in topo:
            parents = pred[v]
            t = sum(map(emit_get, parents)) if parents else 0.0
            totals[v] = t
            emit[v] = (nreach[v] if mask[v] else t) + bonus[v]

        gains = [0.0] * n
        for v in range(n):
            if mask[v]:
                continue
            excess = totals[v] - nreach[v]
            if excess > 0.0:
                wv = w[v]
                if wv > 0.0:
                    gains[v] = excess * wv
        return gains

    def _gains_numpy(self, mask: bytearray) -> list[float]:
        np = _np
        compiled = self.compiled
        n = compiled.n
        if self._plan is None:
            self._plan = _LevelPlan(compiled)
            self._nreach_arr = np.asarray(self._nreach, dtype=np.float64)
            self._bonus_arr = np.frombuffer(
                bytes(compiled.source_mark()), dtype=np.uint8
            ).astype(np.float64)
        plan = self._plan
        nreach = self._nreach_arr
        bonus = self._bonus_arr
        maskb = np.frombuffer(bytes(mask), dtype=np.uint8).astype(bool)

        w = np.zeros(n, dtype=np.float64)
        w_eff = np.zeros(n, dtype=np.float64)
        for vs, kids, seg, dout in reversed(plan.backward):
            if len(kids):
                acc = dout + np.bincount(
                    seg, weights=w_eff[kids], minlength=len(vs)
                )
            else:
                acc = dout
            w[vs] = acc
            w_eff[vs] = np.where(maskb[vs], 0.0, acc)

        totals = np.zeros(n, dtype=np.float64)
        emit = np.zeros(n, dtype=np.float64)
        for vs, preds, seg in plan.forward:
            if len(preds):
                t = np.bincount(
                    seg, weights=emit[preds], minlength=len(vs)
                )
            else:
                t = np.zeros(len(vs), dtype=np.float64)
            totals[vs] = t
            emit[vs] = np.where(maskb[vs], nreach[vs], t) + bonus[vs]

        excess = totals - nreach
        gains = np.where(
            (~maskb) & (excess > 0.0) & (w > 0.0), excess * w, 0.0
        )
        return gains.tolist()
