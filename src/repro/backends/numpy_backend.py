"""The dense vectorized NumPy backend.

Strategy
--------
The exact engine walks the topological order node by node in Python.
This backend reuses the **shared compiled view**'s levelization
(:meth:`repro.graphs.cgraph.CGraph.compiled`: level = longest path from
any root, so every edge crosses strictly upward) and addresses nodes by
their *position* in ``topo_order``, which runs by ``(depth, id)``: each
level is one contiguous slice of positions.  The plan keeps two pull
tables over those positions, in-edges grouped by destination and
out-edges grouped by source, and answers every deterministic query
with **two** 1-D sweeps, whatever the source count:

* **Forward T pass** — the aggregate totals ``T(v) = Σ_s ψ_s(v)``.  An
  edge ``(u, v)`` carries ``E(u) = (nreach(u) if u ∈ A else T(u)) +
  [u is a source]``: a filter forwards one copy of each item it
  receives, and ``nreach(u)`` — the number of sources reaching ``u`` —
  does not depend on the filters.  It is the packed popcount of the
  blocked reachability warm (:mod:`repro.propagation.reach`), run once
  per graph.  Each level pulls its in-edges' emissions with one gather
  and one ``np.add.reduceat`` into its own slice of ``T``.
* **Backward W pass** — the absorbing suffix
  ``W(v) = Σ_{u ∈ children(v)} (1 + [u ∉ A]·W(u))``, one gather and
  segment sum per level in reverse, over the out-edges of the level's
  nodes that have children (sinks keep ``W = 0``).
* ``I(v | A) = (T(v) − nreach(v)) · W(v)`` and ``I'(v) = T(v) · dout(v)``
  are then elementwise products, gathered back to id order once per
  call.  Adding filters never cuts a source off, so
  ``Σ_s max(ψ_s(v) − 1, 0) = T(v) − nreach(v)`` for every filter set.

Both sweeps **restart**.  The plan keeps the filter mask and the rows of
its last ``T`` sweep, and likewise of its last ``W`` sweep.  ``T(v)``
depends only on the filters above ``v`` and ``W(v)`` only on those
below, so a call re-sweeps ``T`` only on the levels deeper than the
shallowest position whose filter bit changed, and ``W`` only on the
levels shallower than the deepest one; an unchanged mask reuses the
stored rows.  A greedy step that adds one filter at depth ``d`` thus
re-sweeps ``T`` below ``d`` and ``W`` above it.  Stored rows are
read-only and replaced whole under a lock, so threads sharing a plan
always restart from a consistent pair.

Sampled models add a world axis to the same formulation: one ``T`` and
one ``W`` row per world, ``(trials, n)`` by position, pulled over the
same two tables with each level's gathered values multiplied by the
world's live edges, and ``I_t(v | A) = (T_t − nreach_t) · W_t`` summed
over worlds.  ``nreach_t``, the sources reaching ``v`` in world ``t``,
comes from one OR-sweep of source bitsets per world over the ``T``
table, built once per sampled state.  The sampled sweeps do not restart.

Tiers and sessions
------------------
The constructor takes the python backend's ``tier=``.  ``bitpack`` (the
default) runs the sweeps above.  ``lanes`` — the per-source
formulation, kept as the differential reference and the
``bitpack_speedup`` bench baseline — has no NumPy sweep: its
deterministic queries run on ``PythonBackend(tier="lanes")``.  Gain
sessions are the python backend's of the same tier
(:class:`~repro.backends.incremental.ExactGainSession` or
:class:`~repro.backends.incremental.ExactLaneGainSession`).  Sampled
sweeps ignore the tier.

Exactness and overflow
----------------------
Receipt counts are path counts: they grow exponentially in the worst case
and can overrun int64 silently.  At plan-build time the backend runs the
same recurrences once in float64 with ``A = ∅`` — an upper bound for every
filter set, because adding filters only ever shrinks ``ψ`` and ``W`` — and
feeds the bounds to the shared dtype-probe ladder
(:mod:`repro.backends.probe`).  The verdict is one of:

* ``int32`` / ``int64`` — every receipt total, suffix and product stays
  below :data:`~repro.backends.probe.OVERFLOW_LIMIT`; the sweeps and
  their products run on int64 rows.
* ``limbs`` — something crosses the limit (``plan.exact_only``: int64 is
  unsafe) but every probe value is finite.  ``T`` and ``W`` each take
  their own :func:`~repro.backends.probe.limb_count` from their bound,
  and the sweeps carry them as ``(k, n)`` int64 arrays of
  base-``2**32`` limbs, carrying over each level's new sums.  The
  products ``(T − nreach)·W``, ``T·dout`` and ``T·weight`` are taken on
  Python ints built from the limbs (``hi << 32`` plus ``lo``), so the
  answers stay exact while the sweeps stay in numpy.
* ``exact`` — the probe itself overflowed float64 (values of
  ``2**1024`` or more, or ``inf·0 = NaN``): every call delegates to
  :class:`~repro.backends.python_backend.PythonBackend`, whose big
  integers cannot overflow.

Uniform weights are multiplied in on either row form.  Per-source weight
mappings delegate, and so do sampled models whenever a per-world value
or a cross-world sum could pass int64: the sampled sweeps carry no
limbs.  The equivalence tests assert bit-identical results across every
route.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections.abc import Collection, Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.exceptions import MissingSourceError
from repro.graphs.cgraph import CGraph
from repro.graphs.compiled import stable_order
from repro.graphs.validation import validate_filter_set
from repro.backends.probe import (
    LIMB_BITS,
    OVERFLOW_LIMIT,
    limb_count,
    pick_representation,
)
from repro.backends.python_backend import PythonBackend, check_tier
from repro.backends.sampled import SampledEvaluationMixin

Node = Hashable

__all__ = ["NumpyBackend", "numpy_available", "OVERFLOW_LIMIT"]

_NUMPY_AVAILABLE: bool | None = None


def numpy_available() -> bool:
    """True when :mod:`numpy` can be imported in this environment.

    Memoized: this sits on the ``auto``-backend resolution path of every
    evaluation, and failed imports are not cached by Python itself.
    """
    global _NUMPY_AVAILABLE
    if _NUMPY_AVAILABLE is None:
        try:
            import numpy  # noqa: F401
        except ImportError:  # pragma: no cover - numpy is present in CI
            _NUMPY_AVAILABLE = False
        else:
            _NUMPY_AVAILABLE = True
    return _NUMPY_AVAILABLE


def _count_representation(site: str, representation: str) -> None:
    """Record one probe verdict in ``fp_probe_representation_total``."""
    from repro.obs.metrics import REGISTRY

    REGISTRY.counter(
        "fp_probe_representation_total",
        "Overflow-probe verdicts by site (plan / sampled) and "
        "representation.",
        labels=("site", "representation"),
    ).inc(site=site, representation=representation)


def _count_levels(quantity: str, swept: int, reused: int) -> None:
    """Record one sweep call's levels in ``fp_sweep_levels_total``."""
    from repro.obs.metrics import REGISTRY

    family = REGISTRY.counter(
        "fp_sweep_levels_total",
        "Levels of the numpy T and W sweeps, re-swept or reused from "
        "the plan's previous call.",
        labels=("quantity", "outcome"),
    )
    family.inc(swept, quantity=quantity, outcome="swept")
    family.inc(reused, quantity=quantity, outcome="reused")


_LIMB_MASK = (1 << LIMB_BITS) - 1


def _intp(np: Any, table: Any) -> Any:
    """A compiled table as an intp ndarray (``fromiter`` reads a Python
    list faster than ``np.array``; ndarrays and memmaps pass through)."""
    if isinstance(table, (list, tuple)):
        return np.fromiter(table, dtype=np.intp, count=len(table))
    return np.asarray(table, dtype=np.intp)


def _carry(limbs: list) -> None:
    """Normalize one level's limb rows in place, lowest limb first.

    Every row but the top ends below ``2**32``; what it held above moves
    up one limb.  Before the carry a lower row holds at most
    degree·``2**32`` — a node's sum over its in- or out-edges of values
    of at most ``2**32`` each — far below int64's ceiling; the probe
    bounds the top row.
    """
    for low, high in zip(limbs, limbs[1:]):
        high += low >> LIMB_BITS
        low &= _LIMB_MASK


def _limb_ints(limbs: Any) -> list[int]:
    """The ``(k, n)`` limb array as ``n`` exact Python ints.

    Folds from the top limb down with ``+`` rather than ``|``, so a
    lower limb may be negative (``T − nreach`` borrows from limb 0).
    """
    values = limbs[-1].tolist()
    for row in limbs[-2::-1]:
        values = [
            (high << LIMB_BITS) + low for high, low in zip(values, row.tolist())
        ]
    return values


def _pull_edges(np: Any, compiled: Any, position: Any) -> tuple:
    """The out-CSR edges in the order of the plan's two pull tables.

    Returns ``(out_at, edges, dst, by_dst)``.  The out-edges run by
    source position, CSR order within a source: node ``p``'s are
    ``out_at[p]:out_at[p + 1]``, ``edges`` holds their forward-CSR ids
    and ``dst`` their target positions.  That is the ``W`` table's
    order; ``by_dst`` regroups them by target position, sources
    ascending, which is the ``T`` table's.  The plan cuts both tables
    from these, and a sampled state gathers its live-edge masks with
    ``edges`` and ``edges[by_dst]``, so masks and tables agree edge for
    edge.
    """
    n = compiled.n
    order = _intp(np, compiled.topo_order)
    out_degree = _intp(np, compiled.out_degree)[order]
    out_at = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(out_degree, out=out_at[1:])
    edges = np.arange(int(out_at[-1]), dtype=np.intp) + np.repeat(
        _intp(np, compiled.out_offsets)[order] - out_at[:-1], out_degree
    )
    dst = position[_intp(np, compiled.out_targets)[edges]]
    return out_at, edges, dst, stable_order(dst, n)


def _segment_sums(np: Any, values: Any, last: Any) -> Any:
    """Row sums of the column segments that tile ``values``.

    ``last[j]`` is segment ``j``'s last column.  One in-place cumsum
    along the contiguous rows, then differences at the segment ends;
    ``values`` is consumed.  The whole row's running sum must fit the
    dtype: the probe's level-sum bounds say it does.
    """
    sums = np.cumsum(values, axis=1, out=values)[:, last]
    sums[:, 1:] -= values[:, last[:-1]]
    return sums


@dataclass
class _Plan:
    """Per-graph adapter over the shared compiled view.

    A *thin* layer: the level partition, degrees and source indices are
    :class:`~repro.graphs.compiled.CompiledGraph` data, converted to
    ndarrays once and laid out by topological position (``position[v]``
    is node ``v``'s index in ``compiled.topo_order``, and level ``L``
    holds positions ``level_starts[L]:level_starts[L + 1]``).  The
    backend-private state is the two pull tables, the overflow probe's
    bounds and each sweep's last ``(mask, rows)``.
    """

    # The plan references the CompiledGraph it adapts — safe with the
    # weak-keyed plan cache because the compiled view holds only a
    # *weak* ref back to its graph (the cache key), so no strong cycle
    # can pin a discarded graph alive.  The reference is what routes
    # ``_nreach`` through the shared blocked warm (and its ``.fpc``-
    # persisted counts).
    index: dict[Node, int]
    node_list: tuple[Node, ...]
    sources: tuple[Node, ...]
    compiled: Any = None
    #: ``position[v]``: node ``v``'s index in ``compiled.topo_order`` —
    #: the one gather that takes a positional row back to id order.
    position: Any = None  # intp[n]
    #: Level partition of the positions (plain ints).
    level_starts: list[int] = field(default_factory=list)
    #: T pull table, per level: ``(a, b, src, seg)`` — the level's
    #: positions ``a:b``, the positions of their in-edges' sources
    #: grouped by destination, and the ``reduceat`` segment starts.
    #: None for level 0, which has no in-edges; every deeper node has one.
    t_levels: list = field(default_factory=list)
    #: W pull table, per level: ``(kids, dst, seg)`` — the positions of
    #: the level's nodes that have children (a slice when that is all of
    #: them), the positions of their out-edges' targets grouped by
    #: source, and the segment starts.  None for a level of sinks.
    w_levels: list = field(default_factory=list)
    out_degree: Any = None  # int64[n], by position
    #: 1 on source positions, 0 elsewhere — the per-node emission bonus
    #: of the T sweep (a designated source emits its own item on top of
    #: whatever it relays).
    src_bonus: Any = None  # int64[n], by position
    #: Lazily-built packed reachability counts by position (the T
    #: sweep's per-graph constant): the number of sources reaching the
    #: node, excluding itself.  ``None`` until first needed.
    nreach: Any = None  # int64[n] | None
    #: The last T and W sweeps as ``(mask, rows)`` by position, both
    #: read-only, or None before the first; each swap holds its lock.
    t_last: Any = None
    w_last: Any = None
    t_lock: Any = field(default_factory=threading.Lock, repr=False)
    w_lock: Any = field(default_factory=threading.Lock, repr=False)
    #: max over v of (Σ_s ψ_∅(v)) · W_∅(v) — bounds every gain/score.
    prod_bound: float = 0.0
    #: max over v of Σ_s ψ_∅(v) — bounds every per-node receipt total.
    psi_bound: float = 0.0
    #: max over v of W_∅(v) — bounds every absorbing suffix.
    w_bound: float = 0.0
    #: max over T levels of Σ_{v ∈ level} T_∅(v), and max over W levels
    #: of Σ (1 + W_∅(dst)) over their edges — bounds of the *cumulative*
    #: segment sums the sampled sweeps run per level (their prefix-sum
    #: trick sums a whole level before differencing, so the intermediate
    #: can exceed any single node's value).  Every world and filter set
    #: emits at most ``T_∅ + [source]`` along an edge (a filter emits
    #: ``nreach_t ≤ T_t``), so the ``A = ∅`` level sums bound them all.
    fwd_levelsum_bound: float = 0.0
    bwd_levelsum_bound: float = 0.0
    #: When True the int64 path is unsafe: the bitpack sweeps carry
    #: limbs, and everything without limb sweeps delegates to the exact
    #: backend.
    exact_only: bool = False
    #: The probe's verdict: ``int32``, ``int64``, ``limbs`` or ``exact``
    #: (a non-finite probe — every query delegates).
    representation: str = "int64"
    #: Base-2**32 limbs the T and W sweeps carry: 1 unless
    #: ``exact_only``, None for a non-finite bound.
    t_limbs: "int | None" = 1
    w_limbs: "int | None" = 1

    @property
    def n(self) -> int:
        return len(self.node_list)

    @property
    def num_levels(self) -> int:
        return len(self.level_starts) - 1

    def depth_at(self, position: int) -> int:
        """The level holding ``position``."""
        return bisect_right(self.level_starts, position) - 1


@dataclass
class _SampledState:
    """Per-(graph, model) adapter over the shared sampled worlds.

    The ndarray view of
    :class:`repro.propagation.sampling.SampledWorlds` (shared with the
    python backend — same worlds, bit-identical results) on the plan's
    two pull tables: each level's live-edge columns gathered in ``T``
    and in ``W`` table order, the per-world reach counts and live
    out-degrees by position, and the trials-aware overflow verdict.  A
    delegating state holds the verdict only.
    """

    trials: int
    #: Working dtype of the hot path (int32 when the probe's level-sum
    #: bounds allow, halving memory traffic; int64 otherwise).
    dtype: Any
    #: True when summing across worlds could overrun int64; delegate.
    exact_only: bool
    #: Per ``plan.t_levels`` / ``plan.w_levels`` entry: ``(live, last)``
    #: — the level's live-edge columns, ``dtype[(trials, edges)]``, and
    #: the last edge of each destination (T) or source (W) segment —
    #: or None where the plan's entry is None.
    t_live: list = field(default_factory=list)
    w_live: list = field(default_factory=list)
    #: Source positions, split by level.
    sources: list = field(default_factory=list)
    #: int64[(trials, n)] by position: sources reaching each node in
    #: each world, itself excluded.
    nreach: Any = None
    #: int64[(trials, n)] by position: live out-degree in each world.
    out_degree: Any = None

    @property
    def representation(self) -> str:
        """``exact`` when delegating, else the working dtype's name."""
        return "exact" if self.exact_only else self.dtype.__name__


class NumpyBackend(SampledEvaluationMixin):
    """Levelized propagation in two 1-D sweeps, exact at any magnitude.

    ``T`` and ``W`` run on int64 rows, or on base-``2**32`` limbs past
    int64; the lanes tier, gain sessions, per-source weights and
    non-finite probes run on the python backend of the same tier.
    """

    name = "numpy"

    def __init__(self, *, tier: str = "bitpack") -> None:
        import weakref

        import numpy as np

        self.tier = check_tier(tier)
        self._np = np
        # The exact-fallback backend rides the same tier, so a pinned
        # lanes backend stays lanes end to end (bench baseline purity).
        self._exact = PythonBackend(tier=tier)
        # Weak-keyed (CGraph is immutable and identity-hashed): plans die
        # with their graphs instead of pinning discarded graphs alive in
        # the registry's singleton backend.
        self._plans: "weakref.WeakKeyDictionary[CGraph, _Plan]" = (
            weakref.WeakKeyDictionary()
        )
        # Per-graph sampled-world adapters (per-level live-mask gathers),
        # keyed inside by the model's worlds_key() — same lifetime rules
        # as the plans.
        self._sampled: "weakref.WeakKeyDictionary[CGraph, dict]" = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------

    def plan_for(self, graph: CGraph) -> _Plan:
        """The (cached) levelization plan for ``graph``.

        Public for two callers beyond the backend itself: tests inspect
        ``plan.exact_only`` / ``plan.representation`` (the overflow
        probe's verdict), and the bench harness calls it to warm the
        cache outside its timed region.  A build runs in a
        ``backends.plan`` span carrying the verdict and the limb counts,
        and counts the verdict in ``fp_probe_representation_total``.
        """
        plan = self._plans.get(graph)
        if plan is None:
            from repro.obs.trace import span

            with span("backends.plan", backend=self.name) as record:
                plan = self._build_plan(graph)
                record.set("representation", plan.representation)
                record.set("t_limbs", plan.t_limbs)
                record.set("w_limbs", plan.w_limbs)
            _count_representation("plan", plan.representation)
            self._plans[graph] = plan
        return plan

    def _build_plan(self, graph: CGraph) -> _Plan:
        """Adapt the shared compiled view for the vectorized sweeps.

        All structure — CSR arrays, degrees, the level partition — comes
        straight from :meth:`CGraph.compiled`; this method converts the
        tables to ndarrays, lays them out by topological position and
        cuts the two pull tables into per-level slices, all vectorized
        from :func:`_pull_edges`: the out-edges in position order give
        the W table, and one stable sort of their targets the T table.
        """
        np = self._np
        compiled = graph.compiled()
        if not compiled.is_dag:
            from repro.exceptions import CyclicGraphError

            raise CyclicGraphError("graph contains a directed cycle")
        nodes = compiled.nodes
        n = compiled.n
        sources = tuple(nodes[i] for i in compiled.source_ids)
        starts = [int(s) for s in compiled.level_offsets]
        plan = _Plan(
            index=compiled.index,
            node_list=nodes,
            sources=sources,
            compiled=compiled,
            level_starts=starts,
        )
        position = _intp(np, compiled.topo_index)
        plan.position = position
        plan.src_bonus = np.zeros(n, dtype=np.int64)
        plan.src_bonus[position[_intp(np, compiled.source_ids)]] = 1

        out_at, edges, dst, by_dst = _pull_edges(np, compiled, position)
        del edges
        out_degree = np.diff(out_at)
        plan.out_degree = out_degree.astype(np.int64)
        src = np.repeat(np.arange(n, dtype=np.intp), out_degree)[by_dst]
        del by_dst
        in_at = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(dst, minlength=n), out=in_at[1:])

        has_kids = out_degree > 0
        for lvl in range(plan.num_levels):
            a, b = starts[lvl], starts[lvl + 1]
            first = in_at[a]
            plan.t_levels.append(
                (a, b, src[first:in_at[b]], in_at[a:b] - first)
                if lvl
                else None
            )
            kids = a + np.flatnonzero(has_kids[a:b])
            if not kids.size:
                plan.w_levels.append(None)
                continue
            first = out_at[a]
            segments = out_at[kids] - first
            if kids.size == b - a:
                kids = slice(a, b)
            plan.w_levels.append((kids, dst[first:out_at[b]], segments))

        self._probe_overflow(plan)
        return plan

    def _probe_overflow(self, plan: _Plan) -> None:
        """Bound every representable quantity by one float64 ``A = ∅`` run."""
        with self._np.errstate(over="ignore", invalid="ignore"):
            self._probe_overflow_inner(plan)

    def _probe_overflow_inner(self, plan: _Plan) -> None:
        # float64 overflow to inf (and inf·0 = NaN) is the probe's expected
        # saturation behavior — both force exact_only below.
        #
        # The probe runs the two pull sweeps in 1-D aggregate form: with
        # A = ∅ each edge (u → v) emits T(u) + [u is a source] (a source's
        # pinned own-item emission — ψ_u(u) = 0 in a DAG, so the bonus
        # term is exactly the per-item origin pinning summed over items).
        # O(n + m) resident: no (num_sources, n) ψ matrix, which at the
        # scale rungs (S ≈ 0.3n) would dwarf the graph.
        np = self._np
        n = plan.n
        totals = np.zeros(n, dtype=np.float64)
        bonus = plan.src_bonus.astype(np.float64)
        emit = bonus.copy()
        fwd_levelsum = 0.0
        for lvl in plan.t_levels[1:]:
            a, b, src, segments = lvl
            level_sum = np.add.reduceat(emit[src], segments)
            fwd_levelsum = max(fwd_levelsum, float(level_sum.sum()))
            totals[a:b] = level_sum
            emit[a:b] = level_sum + bonus[a:b]
        w = np.zeros(n, dtype=np.float64)
        contrib = np.ones(n, dtype=np.float64)
        bwd_levelsum = 0.0
        for lvl in reversed(plan.w_levels):
            if lvl is None:
                continue
            kids, dst, segments = lvl
            edge_contrib = contrib[dst]
            bwd_levelsum = max(bwd_levelsum, float(edge_contrib.sum()))
            level_sum = np.add.reduceat(edge_contrib, segments)
            w[kids] = level_sum
            contrib[kids] = 1.0 + level_sum
        plan.fwd_levelsum_bound = fwd_levelsum
        plan.bwd_levelsum_bound = bwd_levelsum
        plan.psi_bound = float(totals.max()) if n else 0.0
        plan.w_bound = float(w.max()) if n else 0.0
        plan.prod_bound = float((totals * w).max()) if n else 0.0
        # Φ itself needs no bound: total_receipts sums Python ints from
        # .tolist(), so only per-entry/per-node int64 values can overflow,
        # and those are all covered by psi_bound (receipts) or prod_bound
        # (gains and simplified-impact scores, since W(v) ≥ dout(v)).
        # Non-finite bounds mean the probe itself overflowed float64 —
        # including the inf·0 = NaN case from a source-unreachable region
        # with astronomical W.  The shared ladder treats NaN and inf as
        # overflow (NaN comparisons are always False, so they must never
        # be compared directly).
        verdict = pick_representation(plan.psi_bound, plan.prod_bound)
        plan.exact_only = verdict.exact_only
        plan.representation = verdict.representation
        if plan.exact_only:
            # int64 is unsafe: T and W each get the limbs their own
            # bound needs; a non-finite one leaves only the exact engine.
            plan.t_limbs = limb_count(plan.psi_bound)
            plan.w_limbs = limb_count(plan.w_bound)
            if plan.t_limbs is not None and plan.w_limbs is not None:
                plan.representation = "limbs"

    # ------------------------------------------------------------------
    # Vectorized sweeps
    # ------------------------------------------------------------------

    def _filter_ids(self, plan: _Plan, filters: Collection[Node]) -> Any:
        """The interned ids of already validated filter nodes."""
        np = self._np
        return np.fromiter(
            map(plan.index.__getitem__, filters),
            dtype=np.intp,
            count=len(filters),
        )

    def _checked_ids(self, plan: _Plan, filter_ids: Iterable[int]) -> list:
        ids = list(filter_ids)
        if ids:
            # Negative ids would wrap (ndarray indexing) and silently
            # filter the wrong node; reject them like the id sessions do.
            if min(ids) < 0 or max(ids) >= plan.n:
                from repro.exceptions import MissingNodeError

                raise MissingNodeError(min(ids) if min(ids) < 0 else max(ids))
        return ids

    def _topo_mask(self, plan: _Plan, ids: Any) -> Any:
        """The filter mask by topological position."""
        mask = self._np.zeros(plan.n, dtype=bool)
        mask[plan.position[ids]] = True
        return mask

    def _gains_list(self, plan: _Plan, mask: Any) -> list[int]:
        """``I(v | A) = (T − nreach) · W`` in id order, as exact ints, for
        a positional mask: an int64 product when the probe allows, else
        Python-int products of the limb sweeps."""
        np = self._np
        w = self._suffix_limbs(plan, mask)
        totals = self._totals_limbs(plan, mask)
        nreach = self._nreach(plan)
        ids = plan.position
        if plan.exact_only:
            surplus = totals.copy()
            surplus[0] -= nreach
            open_w = np.where(mask, 0, w)
            return [
                s * x
                for s, x in zip(
                    _limb_ints(surplus[:, ids]), _limb_ints(open_w[:, ids])
                )
            ]
        gains = (totals[0] - nreach) * w[0]
        gains[mask] = 0
        return gains[ids].tolist()

    def _impact_list(self, plan: _Plan, mask: Any) -> list[int]:
        """``I'(v) = T(v) · dout(v)`` in id order, as exact ints."""
        totals = self._totals_limbs(plan, mask)
        ids = plan.position
        if plan.exact_only:
            return [
                t * d
                for t, d in zip(
                    _limb_ints(totals[:, ids]),
                    plan.out_degree[ids].tolist(),
                )
            ]
        return (totals[0] * plan.out_degree)[ids].tolist()

    def _suffix_limbs(self, plan: _Plan, mask: Any) -> Any:
        """``W`` (item-independent) by position, restarted from the
        plan's last ``W`` sweep.

        Shape ``(k, n)``: ``k = plan.w_limbs`` base-``2**32`` limbs, one
        int64 row each (``k = 1`` on int64 plans).  Each node's
        contribution to its parents, ``C(u) = 1 + [u ∉ A] · W(u)``, is
        kept per position: ``W(u)`` is final once ``u``'s level is swept
        (its children all sit deeper), so each level stores its nodes'
        ``C`` once and every shallower level gathers it edge by edge —
        one gather and one ``reduceat`` per limb and level.  Sinks
        contribute exactly one.

        ``W`` on a level sees only the filters deeper than it, so the
        last sweep's rows stay right from the level of the deepest
        position whose bit differs from ``mask`` down; only the levels
        above it are swept, from ``C`` recomputed over all positions
        with ``mask``.  The returned rows are the plan's
        stored state: read-only.
        """
        np = self._np
        with plan.w_lock:
            last = plan.w_last
        stop = plan.num_levels
        if last is None:
            w = np.zeros((plan.w_limbs, plan.n), dtype=np.int64)
        else:
            changed = mask != last[0]
            if not changed.any():
                _count_levels("W", 0, stop)
                return last[1]
            stop = plan.depth_at(plan.n - 1 - int(changed[::-1].argmax()))
            w = last[1].copy() if stop else last[1]
        if stop:
            contrib = np.where(mask, 0, w)
            contrib[0] += 1
            w_rows, c_rows = list(w), list(contrib)
            for lvl in reversed(plan.w_levels[:stop]):
                if lvl is None:
                    continue
                kids, dst, segments = lvl
                sums = [np.add.reduceat(row[dst], segments) for row in c_rows]
                _carry(sums)
                closed = mask[kids]
                for w_row, level_sum in zip(w_rows, sums):
                    w_row[kids] = level_sum
                    level_sum[closed] = 0
                sums[0] += 1
                for c_row, level_sum in zip(c_rows, sums):
                    c_row[kids] = level_sum
        w.flags.writeable = False
        mask.flags.writeable = False
        with plan.w_lock:
            plan.w_last = (mask, w)
        _count_levels("W", stop, plan.num_levels - stop)
        return w

    # ------------------------------------------------------------------
    # Packed reachability + aggregate totals
    # ------------------------------------------------------------------

    def _nreach(self, plan: _Plan) -> Any:
        """The (cached) packed reachability counts by position — int64,
        shape ``(n,)``.

        Routed through the blocked out-of-core warm
        (:func:`repro.propagation.reach.warm_reach_counts`, looked up on
        its module at call time): O(n·B/8) resident instead of O(n·S/8),
        bit-identical by exact integer addition, and shared with the
        compiled graph's cache — so ``.fpc``-persisted counts are reused
        and the python backend's warm never re-sweeps.
        """
        if plan.nreach is None:
            from repro.propagation import reach

            np = self._np
            nreach = np.empty(plan.n, dtype=np.int64)
            nreach[plan.position] = reach.warm_reach_counts(plan.compiled)
            plan.nreach = nreach
        return plan.nreach

    def _totals_limbs(self, plan: _Plan, mask: Any) -> Any:
        """Aggregate totals ``T(v) = Σ_s ψ_s(v)`` by position, restarted
        from the plan's last ``T`` sweep.

        Shape ``(k, n)``: ``k = plan.t_limbs`` base-``2**32`` limbs, one
        int64 row each (``k = 1`` on int64 plans).  Each edge ``(u, v)``
        carries the emission ``E(u) = (nreach(u) if u ∈ A else T(u)) +
        [u is a source]`` — a filter forwards exactly one copy per item
        it receives (and its own item when it is also a source), so its
        emission is the per-graph constant ``nreach + bonus``.  ``E`` is
        kept per position and gathered per in-edge; each level's sums
        are carried before they land in its slice.
        Source-count-independent: the same two sweeps whether the graph
        has 1 source or 10 000.

        ``T`` on a level sees only the filters shallower than it, so the
        last sweep's rows stay right down to the level of the shallowest
        position whose bit differs from ``mask``; only the levels below
        it are swept, from ``E`` recomputed over all positions with
        ``mask``.  The returned rows are the plan's
        stored state: read-only.
        """
        np = self._np
        with plan.t_lock:
            last = plan.t_last
        start = 0
        if last is None:
            totals = np.zeros((plan.t_limbs, plan.n), dtype=np.int64)
        else:
            changed = mask != last[0]
            if not changed.any():
                _count_levels("T", 0, plan.num_levels)
                return last[1]
            start = plan.depth_at(int(changed.argmax())) + 1
            totals = last[1].copy() if start < plan.num_levels else last[1]
        if start < plan.num_levels:
            # A filter's emission is nreach + bonus whatever it receives.
            lift = np.where(mask, self._nreach(plan), 0) + plan.src_bonus
            emit = np.where(mask, 0, totals)
            emit[0] += lift
            rows, emit_rows = list(totals), list(emit)
            for lvl in plan.t_levels[max(start, 1):]:
                a, b, src, segments = lvl
                sums = [
                    np.add.reduceat(row[src], segments) for row in emit_rows
                ]
                _carry(sums)
                closed = mask[a:b]
                for row, emit_row, level_sum in zip(rows, emit_rows, sums):
                    row[a:b] = level_sum
                    emit_row[a:b] = np.where(closed, 0, level_sum)
                emit_rows[0][a:b] += lift[a:b]
        totals.flags.writeable = False
        mask.flags.writeable = False
        with plan.t_lock:
            plan.t_last = (mask, totals)
        _count_levels("T", plan.num_levels - start, start)
        return totals

    # ------------------------------------------------------------------
    # PropagationBackend interface
    # ------------------------------------------------------------------

    def _delegates(self, plan: _Plan) -> bool:
        """True when deterministic queries must run on the exact backend:
        the lanes tier, which has no NumPy sweep, or a non-finite
        probe."""
        return self.tier == "lanes" or plan.representation == "exact"

    def gain_session(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
    ):
        """Open the python backend's :class:`GainSession` of this tier.

        Its big-int wavefronts re-settle only the affected region after
        each placement, with the same results as the one-shot sweeps
        here at any magnitude.
        """
        return self._exact.gain_session(graph, filters)

    def _receipts_list(
        self,
        graph: CGraph,
        filters: Collection[Node],
        items_per_source: int | Mapping[Node, int],
    ) -> "list[int] | None":
        """Weighted receipts per node in id order; None means delegate.

        A uniform weight scales one ``T`` sweep: int64 when the probe
        and the weight allow, else exact Python-int products of the limb
        sweep.  Per-source mappings return None — the exact backend's
        job — as do delegating plans.
        """
        if not graph.sources:
            raise MissingSourceError("graph has no sources")
        validate_filter_set(graph, set(filters))
        plan = self.plan_for(graph)
        if self._delegates(plan) or isinstance(items_per_source, Mapping):
            return None
        weight = max(items_per_source, 0)
        mask = self._topo_mask(plan, self._filter_ids(plan, filters))
        totals = self._totals_limbs(plan, mask)[:, plan.position]
        # Compare before multiplying: a weight beyond float64 range would
        # raise OverflowError in the product.
        if (
            plan.exact_only
            or weight >= OVERFLOW_LIMIT
            or weight * plan.psi_bound >= OVERFLOW_LIMIT
        ):
            return [t * weight for t in _limb_ints(totals)]
        return (totals[0] * weight).tolist()

    def node_receipts(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
        *,
        items_per_source: int | Mapping[Node, int] = 1,
    ) -> dict[Node, int]:
        """Receipts per node (``Σ_s ψ_s(v)``, weighted), batched."""
        values = self._receipts_list(graph, filters, items_per_source)
        if values is None:
            return self._exact.node_receipts(
                graph, filters, items_per_source=items_per_source
            )
        return dict(zip(self.plan_for(graph).node_list, values))

    def total_receipts(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
        *,
        items_per_source: int | Mapping[Node, int] = 1,
    ) -> int:
        """``Φ(A, V)``: total received copies (summed as Python ints)."""
        values = self._receipts_list(graph, filters, items_per_source)
        if values is None:
            return self._exact.total_receipts(
                graph, filters, items_per_source=items_per_source
            )
        return sum(values)

    def marginal_gains(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
    ) -> dict[Node, int]:
        """``I(v | A) = (Σ_s max(ψ_s(v) − 1, 0)) · W(v)``, vectorized."""
        if not graph.sources:
            raise MissingSourceError("graph has no sources")
        filter_set = set(filters)
        validate_filter_set(graph, filter_set)
        plan = self.plan_for(graph)
        if self._delegates(plan):
            return self._exact.marginal_gains(graph, filter_set)
        mask = self._topo_mask(plan, self._filter_ids(plan, filter_set))
        gains = self._gains_list(plan, mask)
        return dict(zip(plan.node_list, gains))

    def marginal_gains_ids(
        self,
        graph: CGraph,
        filter_ids: Iterable[int] = (),
    ) -> list[int]:
        """``I(v | A)`` as a flat list over interned ids, vectorized."""
        if not graph.sources:
            raise MissingSourceError("graph has no sources")
        plan = self.plan_for(graph)
        if self._delegates(plan):
            return self._exact.marginal_gains_ids(graph, filter_ids)
        mask = self._topo_mask(plan, self._checked_ids(plan, filter_ids))
        return self._gains_list(plan, mask)

    def simplified_impacts(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
    ) -> dict[Node, int]:
        """``Greedy_L``'s ``I'(v) = (Σ_s ψ_s(v)) · dout(v)``, vectorized."""
        filter_set = set(filters)
        validate_filter_set(graph, filter_set)
        plan = self.plan_for(graph)
        if self._delegates(plan):
            return self._exact.simplified_impacts(graph, filter_set)
        mask = self._topo_mask(plan, self._filter_ids(plan, filter_set))
        scores = self._impact_list(plan, mask)
        return dict(zip(plan.node_list, scores))

    def simplified_impacts_ids(
        self,
        graph: CGraph,
        filter_ids: Iterable[int] = (),
    ) -> list[int]:
        """``I'(v)`` as a flat list over interned ids, vectorized."""
        plan = self.plan_for(graph)
        if self._delegates(plan):
            return self._exact.simplified_impacts_ids(graph, filter_ids)
        mask = self._topo_mask(plan, self._checked_ids(plan, filter_ids))
        return self._impact_list(plan, mask)

    # ------------------------------------------------------------------
    # Propagation-model axis: per-world T/W pulls
    # ------------------------------------------------------------------
    #
    # The sampled worlds (shared with the python backend, see
    # repro.propagation.sampling) add one row per world to the two
    # deterministic sweeps: T and W are (trials, n) by position, and
    # each level's gathered values are multiplied by its (trials, edges)
    # live-edge columns before the segment sums.  A filter emits the
    # world's own reach count, so each state also holds one (trials, n)
    # reach block.  One pull per level prices every world at once: no
    # per-trial graph rebuilds and no per-source rows.

    def _sampled_state(self, graph: CGraph, plan: _Plan, model) -> "_SampledState":
        """The (cached) sampled state of ``graph`` under ``model``.

        A build runs in a ``backends.sampled_state`` span carrying the
        trial and source counts and the representation, and counts the
        verdict in ``fp_probe_representation_total``; a cache hit does
        neither.
        """
        from collections import OrderedDict

        from repro.obs.trace import span
        from repro.propagation.sampling import MAX_WORLD_SETS_PER_GRAPH

        per_graph = self._sampled.get(graph)
        if per_graph is None:
            per_graph = self._sampled.setdefault(graph, OrderedDict())
        key = model.worlds_key()
        state = per_graph.get(key)
        if state is None:
            with span("backends.sampled_state", backend=self.name) as record:
                state = self._build_sampled_state(graph, plan, model)
                record.set("trials", state.trials)
                record.set("sources", len(plan.sources))
                record.set("representation", state.representation)
            _count_representation("sampled", state.representation)
            per_graph[key] = state
            # Same LRU bound (and same safety argument) as the shared
            # worlds cache: states are pure functions of the key, so
            # eviction costs a rebuild, never a changed result.
            while len(per_graph) > MAX_WORLD_SETS_PER_GRAPH:
                per_graph.popitem(last=False)
        else:
            per_graph.move_to_end(key)
        return state

    def _build_sampled_state(
        self, graph: CGraph, plan: _Plan, model
    ) -> "_SampledState":
        from repro.propagation.sampling import get_worlds

        np = self._np
        worlds = get_worlds(graph, model)
        trials = worlds.trials
        # The deterministic A = ∅ probe bounds every per-world value (a
        # live-edge world is an edge subset; counts are monotone in
        # edges).  Two derived checks: the final cross-world sum must fit
        # int64, and the working dtype must hold every intermediate —
        # the per-level prefix sums of the cumsum-difference segment
        # trick (the level-sum bounds) and the stored T entries
        # (psi_bound).  int32 halves the hot path's memory traffic when
        # everything comfortably fits; int64 otherwise.
        bound = max(plan.psi_bound, plan.prod_bound)
        levelsum = max(plan.fwd_levelsum_bound, plan.bwd_levelsum_bound)
        # Same ladder as the deterministic plan, with the cross-world
        # sum (trials · bound) as the extra rung to clear; inf and NaN
        # (a saturated probe) land on "exact" like any other overflow.
        verdict = pick_representation(trials * bound, levelsum)
        state = _SampledState(
            trials=trials,
            dtype=(
                np.int32
                if pick_representation(levelsum, plan.psi_bound).narrow
                else np.int64
            ),
            exact_only=plan.exact_only or verdict.exact_only,
        )
        if state.exact_only:
            return state
        m = len(worlds.probs.out_probs)
        live = np.frombuffer(worlds.mask_bytes(), dtype=np.uint8).reshape(
            trials, m
        )
        _, edges, _, by_dst = _pull_edges(np, plan.compiled, plan.position)
        # Each table's live columns, trials-major like the sweeps' rows
        # (take, not a fancy column index, keeps them C-contiguous).
        t_live = np.take(live, edges[by_dst], axis=1)
        state.w_live = self._level_columns(
            np.take(live, edges, axis=1), plan.w_levels, state.dtype
        )
        del edges, by_dst
        state.t_live = self._level_columns(t_live, plan.t_levels, state.dtype)
        state.sources = self._by_level(plan, np.flatnonzero(plan.src_bonus))
        state.nreach = self._world_reach(plan, t_live, state.sources)
        # Per-world live out-degree (Greedy_L's dout_t): each W level's
        # live columns summed per source; sinks keep 0.
        state.out_degree = np.zeros((trials, plan.n), dtype=np.int64)
        for lvl, pull in zip(plan.w_levels, state.w_live):
            if lvl is not None:
                columns, last = pull
                state.out_degree[:, lvl[0]] = _segment_sums(
                    np, columns.copy(), last
                )
        return state

    def _level_columns(self, live: Any, table: list, dtype: Any) -> list:
        """A pull table's ``(trials, m)`` live matrix cut per level:
        ``(live, last)`` per entry, None where the table has none.

        ``live`` runs in the table's edge order, level after level;
        ``last`` holds each segment's last edge, the one
        :func:`_segment_sums` reads.
        """
        np = self._np
        levels, at = [], 0
        for lvl in table:
            if lvl is None:
                levels.append(None)
                continue
            # Both tables' entries end with (edge endpoints, segment starts).
            edges, segments = lvl[-2].size, lvl[-1]
            levels.append((
                np.ascontiguousarray(live[:, at:at + edges], dtype=dtype),
                np.append(segments[1:], edges) - 1,
            ))
            at += edges
        return levels

    def _by_level(self, plan: _Plan, positions: Any) -> list:
        """Ascending ``positions`` split by level, one array per level."""
        cuts = self._np.searchsorted(positions, plan.level_starts).tolist()
        return [positions[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]

    def _world_reach(self, plan: _Plan, t_live: Any, sources: list) -> Any:
        """``nreach_t`` for every world by position: int64 ``(trials, n)``.

        One OR-sweep of source bitsets per world over the T table, on one
        ``(n, ⌈S/64⌉)`` uint64 plane whatever the trial count: a row
        holds the bits of the sources that reach its position or sit on
        it.  Each level gathers its in-edges' parent rows, zeroes the
        world's dead edges (``t_live``: uint8 ``(trials, m)`` in T-table
        order), ORs each destination's rows into its own with
        ``reduceat`` and sets the level's source bits.  Level 0 has no
        in-edges, so its rows keep their bits from world to world.  A
        source never reaches itself in a DAG, so a row's popcount less
        its own bit is the count.
        """
        from repro.propagation.reach import _word_popcounts

        np = self._np
        own, lane = [], 0
        for positions in sources:
            lanes = np.arange(lane, lane + positions.size)
            lane += positions.size
            bits = np.left_shift(np.uint64(1), (lanes & 63).astype(np.uint64))
            own.append((positions, lanes >> 6, bits))
        plane = np.zeros((plan.n, (lane + 63) // 64), dtype=np.uint64)
        for positions, words, bits in own:
            plane[positions, words] = bits
        nreach = np.empty((len(t_live), plan.n), dtype=np.int64)
        for world, live in zip(nreach, t_live):
            at = 0
            for lvl, (positions, words, bits) in zip(plan.t_levels, own):
                if lvl is None:
                    continue
                a, b, src, segments = lvl
                parents = plane[src]
                parents *= live[at:at + src.size, None]
                at += src.size
                np.bitwise_or.reduceat(parents, segments, out=plane[a:b])
                if positions.size:
                    plane[positions, words] |= bits
            _word_popcounts(np, plane).sum(axis=1, out=world)
        nreach -= plan.src_bonus
        return nreach

    def _sampled_totals(
        self, plan: _Plan, state: "_SampledState", mask: Any
    ) -> Any:
        """``T_t`` for every world by position: shape ``(trials, n)``.

        One pull per level for all worlds: gather the emissions at the
        level's in-edge sources, zero the dead edges, and segment-sum
        into the level's slice.  Emissions ``E_t = (nreach_t if filter
        else T_t) + [source]`` are kept per position; once a level's
        slice is written they differ from ``T_t`` only on its filter and
        source columns, the only ones touched.
        """
        np = self._np
        totals = np.zeros((state.trials, plan.n), dtype=state.dtype)
        emit = np.zeros_like(totals)
        filters = self._by_level(plan, np.flatnonzero(mask))
        for lvl, pull, closed, own in zip(
            plan.t_levels, state.t_live, filters, state.sources
        ):
            if lvl is not None:
                a, b, src, _ = lvl
                live, last = pull
                edge = np.take(emit, src, axis=1)
                edge *= live
                totals[:, a:b] = emit[:, a:b] = _segment_sums(np, edge, last)
            if closed.size:
                emit[:, closed] = state.nreach[:, closed]
            if own.size:
                emit[:, own] += 1
        return totals

    def _sampled_suffix(
        self, plan: _Plan, state: "_SampledState", mask: Any
    ) -> Any:
        """``W_t`` for every world by position: shape ``(trials, n)``.

        The deterministic recurrence over the W table in reverse, one
        row per world: a live edge ``(v, u)`` adds ``1 + [u ∉ A]·W_t(u)``
        to ``W_t(v)``, a dead one nothing.
        """
        np = self._np
        w = np.zeros((state.trials, plan.n), dtype=state.dtype)
        for lvl, pull in zip(reversed(plan.w_levels), reversed(state.w_live)):
            if lvl is None:
                continue
            kids, dst, _ = lvl
            live, last = pull
            edge = np.take(w, dst, axis=1)
            closed = mask[dst]
            if closed.any():
                edge[:, closed] = 0  # filters absorb the perturbation
            # live · (1 + W(dst)) as mask arithmetic: zero dead edges,
            # then add the mask itself (the +1 of live edges only).
            edge *= live
            edge += live
            w[:, kids] = _segment_sums(np, edge, last)
        return w

    def sampled_marginal_gains_ids(
        self,
        graph: CGraph,
        filter_ids: Iterable[int] = (),
        *,
        model=None,
    ) -> list[int]:
        """``Σ_t I_t(v | A) = Σ_t (T_t − nreach_t) · W_t`` over interned
        ids, 0 on filters."""
        if model is None:
            return self.marginal_gains_ids(graph, filter_ids)
        if not graph.sources:
            raise MissingSourceError("graph has no sources")
        plan = self.plan_for(graph)
        state = self._sampled_state(graph, plan, model)
        if state.exact_only:
            return self._exact.sampled_marginal_gains_ids(
                graph, filter_ids, model=model
            )
        mask = self._topo_mask(plan, self._checked_ids(plan, filter_ids))
        # Products and the cross-world sum leave the (possibly int32) hot
        # path for int64, which the trials-aware probe check guarantees
        # is enough.
        surplus = self._sampled_totals(plan, state, mask) - state.nreach
        surplus *= self._sampled_suffix(plan, state, mask)
        gains = surplus.sum(axis=0)
        gains[mask] = 0
        return gains[plan.position].tolist()

    def sampled_simplified_impacts_ids(
        self,
        graph: CGraph,
        filter_ids: Iterable[int] = (),
        *,
        model=None,
    ) -> list[int]:
        """``Σ_t T_t(v) · dout_t(v)`` over interned ids."""
        if model is None:
            return self.simplified_impacts_ids(graph, filter_ids)
        plan = self.plan_for(graph)
        state = self._sampled_state(graph, plan, model)
        if state.exact_only:
            return self._exact.sampled_simplified_impacts_ids(
                graph, filter_ids, model=model
            )
        mask = self._topo_mask(plan, self._checked_ids(plan, filter_ids))
        totals = self._sampled_totals(plan, state, mask)
        scores = (totals * state.out_degree).sum(axis=0)
        return scores[plan.position].tolist()

    def sampled_total_receipts(
        self,
        graph: CGraph,
        filters: Collection[Node] = (),
        *,
        model=None,
    ) -> int:
        """``Σ_t Φ_t(A, V)`` — per-(world, node) int64, summed in Python.

        Only per-entry values need the int64 range (all covered by the
        probe bound); the grand total is accumulated as Python ints,
        mirroring the deterministic ``total_receipts``.
        """
        if model is None:
            return self.total_receipts(graph, filters)
        if not graph.sources:
            raise MissingSourceError("graph has no sources")
        validate_filter_set(graph, set(filters))
        plan = self.plan_for(graph)
        state = self._sampled_state(graph, plan, model)
        if state.exact_only:
            return self._exact.sampled_total_receipts(
                graph, filters, model=model
            )
        np = self._np
        mask = self._topo_mask(plan, self._filter_ids(plan, filters))
        totals = self._sampled_totals(plan, state, mask)
        return sum(totals.sum(axis=0, dtype=np.int64).tolist())

    # expected_total_receipts / expected_marginal_gains /
    # sampled_gain_session come from SampledEvaluationMixin — one shared
    # reporting boundary over this backend's batched sampled sweeps.

    def warm(self, graph: CGraph) -> None:
        """Adapt (and cache) the shared compiled plan outside timed regions.

        This also runs the blocked reachability warm (the sweeps' only
        other per-graph preprocessing), so timed solve regions never pay
        for it — limb plans included, since their sweeps stay here.
        Plans whose queries delegate warm the exact backend instead — it
        consumes the same shared counts.
        """
        plan = self.plan_for(graph)
        if self._delegates(plan):
            self._exact.warm(graph)
        else:
            self._nreach(plan)
