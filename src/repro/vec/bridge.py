"""Scalar ↔ batched adapters.

The batched engine intentionally keeps the scalar node layout
(:class:`repro.vec.vtape.VNode` *is* :class:`repro.ad.tape.Node`), so a
lane of a swept :class:`~repro.vec.vtape.VTape` can be *lowered* to an
ordinary scalar :class:`~repro.ad.tape.Tape` — same indices, ops, labels
and edges, with every :class:`~repro.vec.ivec.IntervalArray` sliced down to
that lane's :class:`~repro.intervals.Interval`.  The lowered tape is
indistinguishable from one the scalar engine recorded, which means the
entire existing scorpio post-processing stack (DynDFG construction,
Algorithm 1 simplify, variance scan, reports, JSON serialisation) runs on
batched results without modification.

The other direction, *lifting*, broadcasts scalar intervals into lanes —
used to seed batched computations from scalar configuration values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.ad.tape import Node, Tape
from repro.intervals import Interval

from .ivec import IntervalArray, as_interval_array
from .vtape import VTape

__all__ = [
    "lift",
    "lower",
    "lower_value",
    "lower_tape",
    "lane_report",
    "lane_scan_map",
    "LaneScanMap",
]


def lift(
    value: Interval | float | np.ndarray | Sequence[Interval],
    shape: tuple[int, ...] | int,
) -> IntervalArray:
    """Broadcast a scalar interval / array of midpoints into lanes."""
    if isinstance(shape, int):
        shape = (shape,)
    if (
        isinstance(value, Sequence)
        and value
        and isinstance(value[0], Interval)
    ):
        arr = IntervalArray.from_intervals(value)
        return arr.reshape(shape) if arr.shape != shape else arr
    return as_interval_array(value, shape)


def lower(array: IntervalArray, lane: int | tuple[int, ...]) -> Interval:
    """Extract one lane of an :class:`IntervalArray` as an ``Interval``."""
    return array.lane(lane)


def lower_value(value: Any, lane: int | tuple[int, ...]) -> Any:
    """Lower any node value/partial/adjoint to its scalar lane equivalent."""
    if isinstance(value, IntervalArray):
        return value.lane(lane)
    if isinstance(value, np.ndarray):
        if value.ndim == 0:
            return float(value)
        return float(value[lane])
    return value


def lower_tape(vtape: VTape, lane: int | tuple[int, ...]) -> Tape:
    """Slice one lane of a batched tape into a scalar :class:`Tape`.

    Node indices, ops, parents and labels are preserved verbatim; values,
    partials and (if the batched sweep already ran) adjoints are lowered
    per :func:`lower_value`.  The result is a valid scalar DynDFG recording
    ready for :meth:`Tape.adjoint` or :class:`DynDFG.from_tape`.
    """
    shape = vtape.require_lane_shape()
    if isinstance(lane, (int, np.integer)):
        lane = (
            (int(lane),)
            if len(shape) == 1
            else tuple(int(i) for i in np.unravel_index(int(lane), shape))
        )
    tape = Tape()
    for vnode in vtape:
        node = Node(
            index=vnode.index,
            op=vnode.op,
            value=lower_value(vnode.value, lane),
            parents=vnode.parents,
            partials=tuple(
                lower_value(p, lane) for p in vnode.partials
            ),
            label=vnode.label,
        )
        if vnode.adjoint is not None:
            node.adjoint = lower_value(vnode.adjoint, lane)
        tape.nodes.append(node)
    return tape


def lane_report(
    vreport: "Any",
    lane: int | tuple[int, ...],
    *,
    delta: float = 1e-6,
    simplify: bool = True,
    compiled: bool = False,
):
    """Full scalar scorpio analysis of one lane of a batched report.

    Lowers the lane's tape, recomputes Eq. 11 per node from the lowered
    values/adjoints, then runs Algorithm 1 (simplify + variance scan) —
    producing a :class:`repro.scorpio.report.SignificanceReport` identical
    in kind to what the scalar :class:`repro.scorpio.api.Analysis` yields.

    With ``compiled=True`` the Eq. 11 significances of *all* lanes are
    computed in one vectorized pass (cached on ``vreport``) and the
    lane-independent graph structure (simplify, BFS levels) is shared
    across lanes, so asking for many lane reports costs one array sweep
    plus a cheap per-lane variance scan.  The report is byte-identical to
    the ``compiled=False`` one (through ``report_to_json``).
    """
    if compiled:
        return _lane_report_compiled(
            vreport, lane, delta=delta, simplify=simplify
        )

    from repro.scorpio.dyndfg import DynDFG
    from repro.scorpio.report import SignificanceReport
    from repro.scorpio.significance import significance_map
    from repro.scorpio.simplify import simplify as _simplify
    from repro.scorpio.variance import find_significance_variance

    tape = lower_tape(vreport.tape, lane)
    sig = significance_map(tape)
    raw = DynDFG.from_tape(tape, list(vreport.output_ids), sig)
    simplified = _simplify(raw) if simplify else raw
    scan = find_significance_variance(simplified, delta=delta)
    return SignificanceReport(
        raw_graph=raw,
        simplified_graph=simplified,
        scan=scan,
        input_ids=list(vreport.input_ids),
        intermediate_ids=list(vreport.intermediate_ids),
        output_ids=list(vreport.output_ids),
    )


# ----------------------------------------------------------------------
# Compiled lane analysis: Eq. 11 for all lanes at once, structure shared
# ----------------------------------------------------------------------
class _LaneColumns:
    """Per-``vreport`` cache of lane-major columns and shared structure.

    Values and adjoints of every node are laid out as ``(n_nodes,
    n_lanes)`` lo/hi arrays (the lane twin of
    :class:`repro.ad.compiled.CompiledTape`'s columns), Eq. 11 runs once
    over the whole matrix, and the purely structural parts of Algorithm 1
    (S4 simplify, BFS levels) — identical in every lane — are computed a
    single time.
    """

    def __init__(self, vreport: Any) -> None:
        from repro.scorpio.compiled import (
            eq11_from_sweep,
            levels_from_parents,
        )

        vtape: VTape = vreport.tape
        self.vtape = vtape
        shape = vtape.require_lane_shape()
        self.lane_shape = shape
        lanes = int(np.prod(shape)) if shape else 1
        self.n_lanes = lanes
        nodes = vtape.nodes
        n = len(nodes)
        self.n = n

        vlo = np.empty((n, lanes))
        vhi = np.empty((n, lanes))
        alo = np.zeros((n, lanes))
        ahi = np.zeros((n, lanes))
        has_adj = np.zeros(n, dtype=bool)
        adj_float = np.zeros(n, dtype=bool)
        val_float = np.zeros(n, dtype=bool)
        for i, vnode in enumerate(nodes):
            value = vnode.value
            if isinstance(value, IntervalArray):
                vlo[i] = value.lo.reshape(-1)
                vhi[i] = value.hi.reshape(-1)
            elif isinstance(value, Interval):
                vlo[i] = value.lo
                vhi[i] = value.hi
            else:
                flat = np.broadcast_to(
                    np.asarray(value, dtype=np.float64), shape
                ).reshape(-1)
                vlo[i] = flat
                vhi[i] = flat
                val_float[i] = True
            adj = vnode.adjoint
            if adj is None:
                continue
            has_adj[i] = True
            if isinstance(adj, IntervalArray):
                alo[i] = adj.lo.reshape(-1)
                ahi[i] = adj.hi.reshape(-1)
            elif isinstance(adj, Interval):
                alo[i] = adj.lo
                ahi[i] = adj.hi
            else:
                flat = np.broadcast_to(
                    np.asarray(adj, dtype=np.float64), shape
                ).reshape(-1)
                alo[i] = flat
                ahi[i] = flat
                adj_float[i] = True

        # Eq. 11 per (node, lane): same branch structure as
        # significance_value on the lowered scalars.  A VTape sweep makes
        # every adjoint an IntervalArray, so the scalar |u·∂y/∂u| fallback
        # (both operands non-interval) and the unswept-node zero are edge
        # cases kept for parity with hand-built tapes.
        sig = eq11_from_sweep(vlo, vhi, alo, ahi, interval_mode=True)
        scalar_rows = val_float & adj_float
        if scalar_rows.any():
            sig[scalar_rows] = np.abs(
                vlo[scalar_rows] * alo[scalar_rows]
            )
        sig[~has_adj] = 0.0
        self.sig = sig

        self.ops = [nd.op for nd in nodes]
        self.parents = [nd.parents for nd in nodes]
        self.labels = {
            i: nd.label for i, nd in enumerate(nodes) if nd.label is not None
        }
        self.outputs = list(vreport.output_ids)
        self.raw_levels = levels_from_parents(
            dict(enumerate(self.parents)), n, self.outputs
        )
        self._structure: dict[bool, tuple] = {}

    def structure(self, simplify: bool) -> tuple:
        """(survivors, parents, merged, levels) for the given S4 setting."""
        if simplify not in self._structure:
            if simplify:
                from repro.scorpio.compiled import (
                    levels_from_parents,
                    simplify_structure,
                )

                surv, s_parents, s_merged = simplify_structure(
                    self.ops, self.parents, self.outputs
                )
                s_levels = levels_from_parents(
                    s_parents, self.n, self.outputs
                )
                self._structure[True] = (surv, s_parents, s_merged, s_levels)
            else:
                self._structure[False] = (
                    range(self.n),
                    self.parents,
                    None,
                    self.raw_levels,
                )
        return self._structure[simplify]

    def lane_index(self, lane: int | tuple[int, ...]) -> tuple[int, ...]:
        if isinstance(lane, (int, np.integer)):
            if len(self.lane_shape) == 1:
                return (int(lane),)
            return tuple(
                int(i)
                for i in np.unravel_index(int(lane), self.lane_shape)
            )
        return tuple(int(i) for i in lane)


def _lane_columns(vreport: Any) -> _LaneColumns:
    cols = getattr(vreport, "_lane_columns_cache", None)
    if cols is None:
        cols = _LaneColumns(vreport)
        vreport._lane_columns_cache = cols
    return cols


def _lane_report_compiled(
    vreport: Any,
    lane: int | tuple[int, ...],
    *,
    delta: float,
    simplify: bool,
):
    from repro.scorpio.compiled import (
        _LazyDynDFG,
        _scan_and_assemble,
    )
    from repro.scorpio.dyndfg import DFGNode

    cols = _lane_columns(vreport)
    lane_t = cols.lane_index(lane)
    col = int(np.ravel_multi_index(lane_t, cols.lane_shape))
    sig_list = cols.sig[:, col].tolist()
    surv, s_parents, s_merged, s_levels = cols.structure(simplify)
    vnodes = cols.vtape.nodes
    outputs = cols.outputs

    def lazy_graph(ids, parents, merged, levels) -> _LazyDynDFG:
        def build() -> dict[int, DFGNode]:
            return {
                i: DFGNode(
                    id=i,
                    op=vnodes[i].op,
                    label=vnodes[i].label,
                    value=lower_value(vnodes[i].value, lane_t),
                    adjoint=(
                        lower_value(vnodes[i].adjoint, lane_t)
                        if vnodes[i].adjoint is not None
                        else None
                    ),
                    significance=sig_list[i],
                    parents=parents[i],
                    level=levels.get(i),
                    merged=merged[i] if merged is not None else (),
                )
                for i in ids
            }

        return _LazyDynDFG(build, outputs, len(ids))

    raw = lazy_graph(range(cols.n), cols.parents, None, cols.raw_levels)
    if simplify:
        simplified = lazy_graph(surv, s_parents, s_merged, s_levels)
    else:
        simplified = raw
    return _scan_and_assemble(
        lazy_graph=lazy_graph,
        raw=raw,
        simplified=simplified,
        surv=surv,
        s_parents=s_parents,
        s_merged=s_merged,
        s_levels=s_levels,
        sig_list=sig_list,
        delta=delta,
        input_ids=list(vreport.input_ids),
        intermediate_ids=list(vreport.intermediate_ids),
        output_ids=outputs,
        labels=cols.labels,
        n=cols.n,
    )


@dataclass
class LaneScanMap:
    """Per-lane S5 results for a whole batched analysis.

    Attributes:
        lane_shape: the batch's lane shape.
        found_level: int array over lanes — first BFS level whose
            significance variance exceeds ``delta`` in that lane, or -1
            when the scan reached the inputs without finding one (the
            scalar scan's ``found_level is None``).
        variances: per-level variance arrays over lanes.  Levels are
            scanned until every lane has found a partition level, so a
            lane that found level 2 still gets level-3+ entries here if
            some other lane scanned deeper (the scalar per-lane scan
            stops earlier; entries up to a lane's found level are
            bit-identical to it).
        delta: the threshold used.
    """

    lane_shape: tuple[int, ...]
    found_level: np.ndarray
    variances: dict[int, np.ndarray] = field(default_factory=dict)
    delta: float = 1e-6

    def found_counts(self) -> dict[int, int]:
        """Histogram of found levels across lanes (-1 = none found)."""
        levels, counts = np.unique(self.found_level, return_counts=True)
        return dict(
            zip((int(l) for l in levels), (int(c) for c in counts))
        )


def lane_scan_map(
    vreport: Any,
    *,
    delta: float = 1e-6,
    simplify: bool = True,
    exact_variance: bool = True,
) -> LaneScanMap:
    """Algorithm 1 step S5 for every lane of a batched report at once.

    The graph structure (and therefore the BFS levels and level
    membership) is identical in every lane; only the significances — and
    hence the per-level variances and the first level exceeding ``delta``
    — differ.  This runs the variance scan lane-parallel: one pass over
    the levels, each computing a whole array of variances, instead of one
    scalar scan per lane via :func:`lane_report`.

    ``exact_variance=True`` (default) squares the deviations through
    Python's ``float.__pow__`` so every variance is bit-identical to the
    scalar scan's ``(s - mean) ** 2`` chain (libm ``pow`` differs from a
    plain multiply by 1 ulp on ~0.1% of inputs).  ``exact_variance=False``
    uses the vectorized multiply — up to 1 ulp off, which can flip the
    found level only when a variance lands within 1 ulp of ``delta``.
    """
    cols = _lane_columns(vreport)
    surv, _s_parents, _s_merged, s_levels = cols.structure(simplify)
    return _scan_columns(
        cols.sig,
        cols.lane_shape,
        surv,
        s_levels,
        delta=delta,
        exact_variance=exact_variance,
    )


def _scan_columns(
    sig: np.ndarray,
    lane_shape: tuple[int, ...],
    surv,
    s_levels,
    *,
    delta: float,
    exact_variance: bool,
) -> LaneScanMap:
    """Lane-parallel S5 over an ``(n_nodes, n_lanes)`` significance matrix.

    The structural inputs (``surv``, ``s_levels``) come either from a
    batched recording (:meth:`_LaneColumns.structure`) or from a replayed
    trace (:class:`repro.scorpio.compiled.TraceStructure`) — the scan is
    the same either way.
    """
    members_by_level: dict[int, list[int]] = {}
    for nid in sorted(i for i in surv if i in s_levels):
        members_by_level.setdefault(s_levels[nid], []).append(nid)
    height = (max(members_by_level) + 1) if members_by_level else 0

    lanes = sig.shape[1]
    found = np.full(lanes, -1, dtype=np.int64)
    variances: dict[int, np.ndarray] = {}
    for level in range(1, height):
        ids = members_by_level.get(level, [])
        if len(ids) < 2:
            var = np.zeros(lanes)
        else:
            # Same association order as level_variance: sequential sum
            # over members in ascending id order, population variance.
            total = sig[ids[0]].copy()
            for i in ids[1:]:
                total += sig[i]
            mean = total / len(ids)
            sq = np.zeros(lanes)
            for i in ids:
                sq += _square(sig[i] - mean, exact_variance)
            var = sq / len(ids)
        variances[level] = var.reshape(lane_shape)
        newly = (found < 0) & (var > delta)
        found[newly] = level
        if (found >= 0).all():
            break
    return LaneScanMap(
        lane_shape=lane_shape,
        found_level=found.reshape(lane_shape),
        variances=variances,
        delta=delta,
    )


def _square(diff: np.ndarray, exact: bool) -> np.ndarray:
    """``diff ** 2`` elementwise, optionally via Python's libm ``pow``."""
    if not exact:
        return diff * diff
    return np.fromiter(
        (x ** 2 for x in diff.tolist()),
        dtype=np.float64,
        count=diff.size,
    )
