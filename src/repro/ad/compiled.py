"""Compiled tape: structure-of-arrays DynDFG with vectorized reverse sweeps.

:class:`CompiledTape` freezes a recorded :class:`~repro.ad.tape.Tape` into
flat NumPy arrays — int32 opcodes, CSR parent/partial arrays
(``row_ptr``/``parent_idx``/``partial_lo``/``partial_hi``), value lo/hi
arrays — plus a precomputed *level schedule* so the reverse sweep (Eq. 7–9
of the paper) can process whole levels of the graph per NumPy call instead
of one Python ``Node`` at a time.

The object tape remains the reference oracle; the compiled sweeps are
engineered to be **bit-identical** to it, including the subtle parts:

* the interval endpoint rule uses the same four products in the same
  order, with the same ``0·inf → NaN → 0`` cleanup and the same fold-left
  min/max tie-breaking as :meth:`Interval.__mul__`;
* outward rounding is one ``nextafter`` per bound per operation, applied
  at exactly the points the object sweep applies it (product and
  accumulation), and honours the global
  :func:`repro.intervals.rounding.rounding_enabled` flag at sweep time;
* consumers with an exactly-zero adjoint are skipped (the object sweep's
  ``_is_zero`` shortcut is bit-relevant under outward rounding);
* per-parent accumulation order matches the object sweep: contributions
  arrive in descending consumer index, and for one consumer in recorded
  parent order.

The order guarantee comes from the schedule.  Each node gets a *depth*
``d(j) = 0`` if it has no consumers, else ``1 + max(d(consumer))``; a
node's adjoint is final once every consumer (all at strictly smaller
depth) has contributed.  Every edge ``j → parent`` stores its contribution
when ``j``'s level is processed; incoming edges of each destination are
ranked by ``(-consumer index, parent position)`` and applied rank by rank,
so within one vectorized apply step all destinations are distinct (plain
fancy-indexed gather/add/scatter, no ``np.add.at``) and each destination
sees its contributions in exactly the object sweep's order.

Nothing writes a compiled tape's columns after compilation: each replay
returns its own state (:class:`ReplayState` / :class:`ReplayLanes`) and
each sweep borrows work buffers from a per-tape free list.  So threads
replay one tape concurrently, and the columns may be read-only views.

A compiled tape does not keep its recording.  Its frozen form is a
JSON-safe header (op names, labels, guards) plus named columns, the
folded constants included: :meth:`CompiledTape.freeze` writes it,
:meth:`CompiledTape.thaw` reads it back, and pickle, shared memory
(:class:`repro.mp.SharedTape`) and the on-disk tape store
(:mod:`repro.scorpio.tape_store`) all carry that one form.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import chain
from operator import attrgetter
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.intervals import Interval, as_interval
from repro.intervals.rounding import rounding_enabled
from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span

from .tape import Tape

__all__ = ["CompiledTape", "ReplayLanes", "ReplayState"]

_C_COMPILES = _metrics.counter("ad.compiles")
_C_SWEEPS = _metrics.counter("ad.compiled_sweeps")
_C_FORWARDS = _metrics.counter("replay.forwards")
_C_FORWARD_LANES = _metrics.counter("replay.forward_lanes")

_NEG_INF = -np.inf
_POS_INF = np.inf

_GET_OP = attrgetter("op")
_GET_VALUE = attrgetter("value")
_GET_PARENTS = attrgetter("parents")
_GET_PARTIALS = attrgetter("partials")
_GET_LABEL = attrgetter("label")
_GET_AUX = attrgetter("aux")

# The frozen form of a compiled trace is a JSON-safe header plus these
# named columns.  The first nine are the structure-of-arrays tape; the
# last four hold the folded constants the forward replay needs, one row
# per constant-operand binary or clip node: its index, the constant's
# bounds (the clamp bounds for clip) and whether the constant was the
# left operand.  CompiledTape.freeze / CompiledTape.thaw are the only
# encoder and decoder; pickle, repro.mp.SharedTape and the tape store
# carry the pair unchanged.
_FROZEN_COLUMNS = (
    "opcodes",
    "value_is_interval",
    "row_ptr",
    "parent_idx",
    "depth",
    "value_lo",
    "value_hi",
    "partial_lo",
    "partial_hi",
    "const_idx",
    "const_lo",
    "const_hi",
    "const_reflected",
)

_CONST_BINARY = frozenset(("add", "sub", "mul", "div"))


def _folded_constants(ops: list[str], nodes) -> tuple[np.ndarray, ...]:
    """The constant columns of a recording, read from node ``aux``: a
    constant-operand binary records ``(const, reflected)`` and ``clip``
    its clamp bounds ``(lo, hi)``."""
    idx: list[int] = []
    lo: list[float] = []
    hi: list[float] = []
    refl: list[bool] = []
    for j, aux in enumerate(map(_GET_AUX, nodes)):
        if aux is None:
            continue
        op = ops[j]
        if op == "clip":
            c_lo, c_hi, r = float(aux[0]), float(aux[1]), False
        elif op in _CONST_BINARY:
            c = as_interval(aux[0])
            c_lo, c_hi, r = c.lo, c.hi, bool(aux[1])
        else:
            continue
        idx.append(j)
        lo.append(c_lo)
        hi.append(c_hi)
        refl.append(r)
    return (
        np.array(idx, dtype=np.int64),
        np.array(lo, dtype=np.float64),
        np.array(hi, dtype=np.float64),
        np.array(refl, dtype=bool),
    )


def _encode_guard(guard: tuple) -> list:
    """A recorded ``(op, left, rhs, outcome)`` guard as a JSON-safe list;
    an :class:`Interval` right-hand side becomes ``[lo, hi]``."""
    op, left, rhs, outcome = guard
    if isinstance(rhs, Interval):
        rhs = [rhs.lo, rhs.hi]
    else:
        rhs = int(rhs)
    return [op, int(left), rhs, bool(outcome)]


def _decode_guard(item: Sequence) -> tuple:
    op, left, rhs, outcome = item
    if isinstance(rhs, (list, tuple)):
        rhs = Interval(float(rhs[0]), float(rhs[1]))
    else:
        rhs = int(rhs)
    return (op, int(left), rhs, bool(outcome))


def _csr_gather(row_ptr: np.ndarray, data: np.ndarray, rows: np.ndarray):
    """Concatenate ``data[row_ptr[r]:row_ptr[r+1]]`` for every row in order."""
    starts = row_ptr[rows]
    counts = row_ptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=data.dtype)
    # Standard repeat/cumsum trick: index k of the output belongs to row i
    # at offset k - cum_starts[i], i.e. data index starts[i] + offset.
    out_idx = np.repeat(starts - np.concatenate(([0], counts[:-1])).cumsum(), counts)
    out_idx += np.arange(total)
    return data[out_idx]


def _buf(
    scratch: dict[str, np.ndarray], key: str, shape: tuple[int, ...]
) -> np.ndarray:
    """The float64 work array ``scratch[key]``, (re)allocated to ``shape``."""
    a = scratch.get(key)
    if a is None or a.shape != shape:
        a = np.empty(shape, dtype=np.float64)
        scratch[key] = a
    return a


def _consumer_depth(row_ptr: np.ndarray, parent_idx: np.ndarray) -> np.ndarray:
    """The ``depth`` column: ``d(j) = 0`` without consumers, else
    ``1 + max`` over consumers.  One descending pass suffices because
    consumers always have larger indices (checked at compile)."""
    n = row_ptr.shape[0] - 1
    depth = [0] * n
    parents_seq = parent_idx.tolist()
    ptr = row_ptr.tolist()
    for j in range(n - 1, -1, -1):
        dj1 = depth[j] + 1
        for k in range(ptr[j], ptr[j + 1]):
            p = parents_seq[k]
            if depth[p] < dj1:
                depth[p] = dj1
    return np.asarray(depth, dtype=np.int64)


class CompiledTape:
    """A :class:`Tape` frozen into structure-of-arrays form.

    Attributes:
        n: number of nodes.
        opcodes: ``(n,)`` int32 array; index into :attr:`op_names`.
        op_names: interned operation-name table (opcode → name).
        labels: sparse ``{node index: label}`` for registered variables.
        value_lo / value_hi: ``(n,)`` float64 forward-value bounds
            (``lo == hi`` for float tapes and point values).
        value_is_interval: ``(n,)`` bool — whether the original node value
            was an :class:`Interval`.
        row_ptr / parent_idx: CSR edge structure; the parents of node ``j``
            are ``parent_idx[row_ptr[j]:row_ptr[j+1]]`` in recorded order.
        partial_lo / partial_hi: per-edge local partial bounds, parallel to
            :attr:`parent_idx`.
        interval_mode: True when any node value is an :class:`Interval`
            (the same rule the object sweep uses).
        depth: ``(n,)`` consumer-depth level of every node (the sweep
            schedule; 0 = nodes with no consumers).
        const_idx / const_lo / const_hi / const_reflected: the folded
            constants of constant-operand binaries and ``clip`` nodes, one
            row per node in index order (see ``_FROZEN_COLUMNS``).
        guards: the recorded comparison outcomes replay re-checks.

    The recording itself is not kept: after compile a tape is its
    columns plus :attr:`op_names`, :attr:`labels` and :attr:`guards`,
    which is exactly what :meth:`freeze` emits and :meth:`thaw` adopts.
    """

    def __init__(self, tape: Tape):
        _C_COMPILES.inc()
        with _span("ad.compile") as sp:
            self._compile(tape)
            sp.set(nodes=self.n, edges=self.n_edges)

    def _compile(self, tape: Tape) -> None:
        nodes = tape.nodes
        n = len(nodes)

        # Bulk column extraction: C-level attrgetter maps pull each field
        # out once, then per-column passes iterate plain lists (no repeated
        # attribute chasing inside the generators).
        ops = list(map(_GET_OP, nodes))
        values = list(map(_GET_VALUE, nodes))
        parents_list = list(map(_GET_PARENTS, nodes))
        op_table: dict[str, int] = {}
        self.opcodes = np.fromiter(
            (op_table.setdefault(o, len(op_table)) for o in ops),
            dtype=np.int32,
            count=n,
        )
        self.op_names = list(op_table)
        self.value_is_interval = np.fromiter(
            (isinstance(v, Interval) for v in values), dtype=bool, count=n
        )
        self.value_lo = np.fromiter(
            (v.lo if isinstance(v, Interval) else v for v in values),
            dtype=np.float64,
            count=n,
        )
        self.value_hi = np.fromiter(
            (v.hi if isinstance(v, Interval) else v for v in values),
            dtype=np.float64,
            count=n,
        )
        self.labels = {
            j: label
            for j, label in enumerate(map(_GET_LABEL, nodes))
            if label is not None
        }
        self.guards = list(tape.guards)
        (
            self.const_idx,
            self.const_lo,
            self.const_hi,
            self.const_reflected,
        ) = _folded_constants(ops, nodes)

        counts = np.fromiter(
            map(len, parents_list), dtype=np.int64, count=n
        )
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=row_ptr[1:])
        e = int(row_ptr[n])
        self.row_ptr = row_ptr
        self.parent_idx = np.fromiter(
            chain.from_iterable(parents_list), dtype=np.int64, count=e
        )
        partials = list(chain.from_iterable(map(_GET_PARTIALS, nodes)))
        self.partial_lo = np.fromiter(
            (p.lo if isinstance(p, Interval) else p for p in partials),
            dtype=np.float64,
            count=e,
        )
        self.partial_hi = np.fromiter(
            (p.hi if isinstance(p, Interval) else p for p in partials),
            dtype=np.float64,
            count=e,
        )

        edge_src = np.repeat(np.arange(n, dtype=np.int64), counts)
        if e and not (
            (self.parent_idx >= 0).all() and (self.parent_idx < edge_src).all()
        ):
            bad = int(
                np.flatnonzero(
                    (self.parent_idx < 0) | (self.parent_idx >= edge_src)
                )[0]
            )
            raise ValueError(
                f"node {int(edge_src[bad])} parent "
                f"{int(self.parent_idx[bad])} breaks topological order"
            )
        self.depth = _consumer_depth(row_ptr, self.parent_idx)
        self._derive()

    @classmethod
    def from_tape(cls, tape: Tape) -> "CompiledTape":
        """Freeze ``tape`` (alias of the constructor, for symmetry)."""
        return cls(tape)

    def freeze(self) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
        """The tape's frozen form: ``(header, columns)``.

        ``header`` is JSON-safe: the op-name table, the labels as
        ``[index, label]`` pairs and the guards as ``[op, left, rhs,
        outcome]`` lists (an interval ``rhs`` as ``[lo, hi]``).  Callers
        may add their own JSON-safe fields to it.  ``columns`` maps each
        name in ``_FROZEN_COLUMNS`` to the tape's own array (not a copy).
        """
        header = {
            "op_names": list(self.op_names),
            "labels": [[j, label] for j, label in self.labels.items()],
            "guards": [_encode_guard(g) for g in self.guards],
        }
        return header, {name: getattr(self, name) for name in _FROZEN_COLUMNS}

    @classmethod
    def thaw(
        cls, header: Mapping[str, Any], columns: Mapping[str, np.ndarray]
    ) -> "CompiledTape":
        """Rebuild a tape from :meth:`freeze` output, without recording.

        Columns are adopted, not copied, and never written, so read-only
        views (shared memory, a memory-mapped file) serve every path.
        Fields of ``header`` this class does not know are ignored.  The
        sweep schedule and every memo are derived afresh; the shipped
        ``depth`` column spares the Python depth pass.
        """
        self = cls.__new__(cls)
        for name in _FROZEN_COLUMNS:
            setattr(self, name, columns[name])
        self.op_names = list(header["op_names"])
        self.labels = {int(j): label for j, label in header["labels"]}
        self.guards = [_decode_guard(g) for g in header["guards"]]
        self._derive()
        return self

    def __reduce__(self):
        # Pickle the frozen form: derived schedules, plan and sweep work
        # buffers are rebuilt by thaw, not shipped.
        return (CompiledTape.thaw, self.freeze())

    def __len__(self) -> int:
        return self.n

    # ------------------------------------------------------------------
    # Level schedule
    # ------------------------------------------------------------------
    def _derive(self) -> None:
        """Everything that is not a frozen column: sizes, the edge-source
        column, the level schedule and empty memos (all vectorized)."""
        n = self.n = int(self.opcodes.shape[0])
        e = self.n_edges = int(self.row_ptr[n])
        self.interval_mode = bool(self.value_is_interval.any())
        self._edge_src = edge_src = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(self.row_ptr)
        )
        parent_idx = self.parent_idx
        self._fplan: Any = None
        n_levels = int(self.depth.max()) + 1 if n else 0
        self.n_levels = n_levels
        self._rank_cache: dict[int, list[np.ndarray]] = {}
        self._split_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # Free list of sweep work-buffer sets (see _scratch_checkout).
        self._scratch: list[dict[str, np.ndarray]] = []

        if e == 0:
            self._contrib_schedule = [
                np.empty(0, dtype=np.int64) for _ in range(n_levels)
            ]
            self._apply_flat = [
                np.empty(0, dtype=np.int64) for _ in range(n_levels)
            ]
            return

        # Contribution schedule: edges grouped by the consumer's depth —
        # computed right after that depth's adjoints are finalized.
        d_src = self.depth[edge_src]
        order = np.argsort(d_src, kind="stable")
        bounds = np.searchsorted(d_src[order], np.arange(n_levels + 1))
        self._contrib_schedule = [
            order[bounds[lvl] : bounds[lvl + 1]] for lvl in range(n_levels)
        ]

        # Apply schedule: per destination, incoming edges ordered by
        # (-consumer index, parent position); edge ids are already sorted
        # by (consumer asc, position asc), so lexsort on (edge id asc,
        # consumer desc, destination asc) yields the required order.
        # Grouping that order by the destination's depth (stably) gives one
        # flat edge list per level; within it each destination's run is
        # contiguous and in exactly the object sweep's accumulation order.
        edge_ids = np.arange(e, dtype=np.int64)
        by_dst = np.lexsort((edge_ids, -edge_src, parent_idx))
        d_dst = self.depth[parent_idx[by_dst]]
        order2 = np.argsort(d_dst, kind="stable")
        bounds2 = np.searchsorted(d_dst[order2], np.arange(n_levels + 1))
        self._apply_flat = [
            by_dst[order2[bounds2[lvl] : bounds2[lvl + 1]]]
            for lvl in range(n_levels)
        ]

    @contextmanager
    def _scratch_checkout(self) -> Iterator[dict[str, np.ndarray]]:
        """Borrow one set of float64 work buffers for the duration of a call.

        Fresh multi-megabyte sweep temporaries per call cost more in page
        faults than the arithmetic on them.  A lone caller keeps reusing
        one set; N concurrent callers hold N sets (``list.pop`` and
        ``append`` are atomic, so no lock).  Only buffers whose contents
        are dead after the call may live here.
        """
        pool = self._scratch
        try:
            scratch = pool.pop()
        except IndexError:
            scratch = {}
        try:
            yield scratch
        finally:
            pool.append(scratch)

    def _first_rest(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Split a level's flat apply list into (first, rest).

        ``first`` holds each destination's first incoming contribution —
        all destinations distinct, so a plain fancy-indexed add applies
        it.  ``rest`` keeps the remaining edges in flat order, which per
        destination is still ascending accumulation order, so an
        ``np.add.at`` over it continues each destination's fold exactly
        where ``first`` left off.  Most nodes have one consumer, so this
        routes the bulk of the apply work around the slow unbuffered
        ``add.at`` path without changing any accumulation order.
        """
        pair = self._split_cache.get(level)
        if pair is None:
            sel = self._apply_flat[level]
            if sel.size == 0:
                pair = (sel, sel)
            else:
                dst = self.parent_idx[sel]
                first = np.empty(sel.size, dtype=bool)
                first[0] = True
                np.not_equal(dst[1:], dst[:-1], out=first[1:])
                pair = (sel[first], sel[~first])
            self._split_cache[level] = pair
        return pair

    def _rank_steps(self, level: int) -> list[np.ndarray]:
        """Split a level's flat apply list into rank steps.

        Rank k holds each destination's k-th incoming contribution, so all
        destinations within one step are distinct (plain gather/add/scatter
        — needed by the rounded sweep, which must interleave ``nextafter``
        between consecutive adds to the same destination).  Built lazily:
        only rounded sweeps pay for it.
        """
        steps = self._rank_cache.get(level)
        if steps is None:
            sel = self._apply_flat[level]
            k = sel.size
            if k == 0:
                steps = []
            else:
                dst = self.parent_idx[sel]
                new_dst = np.empty(k, dtype=bool)
                new_dst[0] = True
                np.not_equal(dst[1:], dst[:-1], out=new_dst[1:])
                run_starts = np.flatnonzero(new_dst)
                rank = np.arange(k, dtype=np.int64) - np.repeat(
                    run_starts, np.diff(np.append(run_starts, k))
                )
                order = np.argsort(rank, kind="stable")
                rank_sorted = rank[order]
                rbounds = np.searchsorted(
                    rank_sorted, np.arange(int(rank_sorted[-1]) + 2)
                )
                steps = [
                    sel[order[rbounds[r] : rbounds[r + 1]]]
                    for r in range(len(rbounds) - 1)
                ]
            self._rank_cache[level] = steps
        return steps

    # ------------------------------------------------------------------
    # Vectorized reverse sweeps
    # ------------------------------------------------------------------
    def adjoint(
        self, seeds: Mapping[int, Any]
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`ReplayState.adjoint` over the recorded state."""
        return self._recorded().adjoint(seeds)

    def adjoint_vector(
        self, outputs: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`ReplayState.adjoint_vector` over the recorded state."""
        return self._recorded().adjoint_vector(outputs)

    def _recorded(self) -> "ReplayState":
        return ReplayState(
            self, self.value_lo, self.value_hi, self.partial_lo, self.partial_hi
        )

    def _sweep(
        self,
        alo: np.ndarray,
        ahi: np.ndarray,
        partial_lo: np.ndarray,
        partial_hi: np.ndarray,
        scratch: dict[str, np.ndarray],
        *,
        interval: bool,
        rnd: bool,
        clean_nan: bool | None = None,
    ) -> None:
        """Run the scheduled reverse sweep in place on ``(n, m)`` bounds.

        ``partial_lo``/``partial_hi`` are the swept state's edge partials;
        ``scratch`` is a :meth:`_scratch_checkout` set.  ``interval``
        selects the endpoint product rule (else the plain float product);
        ``clean_nan`` applies the ``0·inf → 0`` cleanup of
        ``Interval.__mul__`` (defaults to ``interval`` — the vector sweep
        disables it because ``Tape.adjoint_vector`` lets NaN propagate).
        """
        if clean_nan is None:
            clean_nan = interval
        e = self.n_edges
        if e == 0:
            return
        edge_src = self._edge_src
        edge_dst = self.parent_idx
        m = alo.shape[1]
        # Work buffers (reused across sweeps, keyed by m so scalar and
        # vector sweeps on one tape don't evict each other).  `w4`/`w5`
        # for the non-degenerate product path are fetched lazily below.
        bkey = str(m)
        contrib_lo = _buf(scratch, "contrib_lo" + bkey, (e, m))
        contrib_hi = (
            contrib_lo
            if not interval
            else _buf(scratch, "contrib_hi" + bkey, (e, m))
        )
        g_lo = _buf(scratch, "sweep_glo" + bkey, (e, m))
        g_hi = (
            g_lo if not interval else _buf(scratch, "sweep_ghi" + bkey, (e, m))
        )
        if interval:
            w1 = _buf(scratch, "sweep_w1" + bkey, (e, m))
            w2 = _buf(scratch, "sweep_w2" + bkey, (e, m))
            w3 = _buf(scratch, "sweep_w3" + bkey, (e, m))
        active = np.zeros(e, dtype=bool)

        for level in range(self.n_levels):
            # 1. Finalize this level's adjoints by applying the stored
            #    incoming contributions.  The flat per-level edge list is
            #    ordered so each destination sees its contributions in
            #    exactly the object sweep's order (consumer desc, parent
            #    position asc); `np.add.at` is unbuffered and processes
            #    indices sequentially, so one call accumulates every
            #    destination in that order.  Rounded sweeps need a
            #    `nextafter` between consecutive adds to one destination,
            #    which `add.at` cannot interleave — they fall back to
            #    rank-by-rank steps (distinct destinations per step).
            flat = self._apply_flat[level]
            if flat.size:
                if rnd:
                    for sel in self._rank_steps(level):
                        sub = sel[active[sel]]
                        if not sub.size:
                            continue
                        dst = edge_dst[sub]
                        new_lo = np.nextafter(
                            alo[dst] + contrib_lo[sub], _NEG_INF
                        )
                        alo[dst] = new_lo
                        new_hi = np.nextafter(
                            ahi[dst] + contrib_hi[sub], _POS_INF
                        )
                        ahi[dst] = new_hi
                else:
                    first, rest = self._first_rest(level)
                    sub = first[active[first]]
                    if sub.size:
                        dst = edge_dst[sub]
                        alo[dst] += contrib_lo[sub]
                        if interval:
                            ahi[dst] += contrib_hi[sub]
                    sub = rest[active[rest]]
                    if sub.size:
                        dst = edge_dst[sub]
                        np.add.at(alo, dst, contrib_lo[sub])
                        if interval:
                            np.add.at(ahi, dst, contrib_hi[sub])

            # 2. Emit this level's outgoing edge contributions (sources
            #    are final now); zero-adjoint sources are skipped exactly
            #    like the object sweep's `_is_zero` shortcut.
            sel = self._contrib_schedule[level]
            if not sel.size:
                continue
            k = sel.size
            src = edge_src[sel]
            salo = np.take(alo, src, axis=0, out=g_lo[:k])
            if interval:
                sahi = np.take(ahi, src, axis=0, out=g_hi[:k])
                act = (salo != 0.0).any(axis=1) | (sahi != 0.0).any(
                    axis=1
                )
            else:
                act = (salo != 0.0).any(axis=1)
            active[sel] = act
            if act.all():
                # All sources live (the usual case once the sweep is a
                # few levels in) — skip the boolean-compress copies.
                sub = sel
            else:
                sub = sel[act]
                if not sub.size:
                    continue
                salo = salo[act]
            plo1 = partial_lo[sub]
            plo = plo1[:, None]
            if not interval:
                contrib_lo[sub] = plo * salo
                continue
            if sub is not sel:
                sahi = sahi[act]
            phi1 = partial_hi[sub]
            phi = phi1[:, None]
            k2 = sub.size
            if plo1.tobytes() == phi1.tobytes():
                # Degenerate partials (bitwise ``plo == phi``, the common
                # case: add/sub and multiply-by-constant nodes).  Then
                # ``p3`` and ``p4`` repeat ``p1`` and ``p2`` bit-for-bit
                # and the fold-left min/max below keeps the first of any
                # tie, so two products suffice — same bits, half the work.
                p1 = np.multiply(plo, salo, out=w1[:k2])
                p2 = np.multiply(plo, sahi, out=w2[:k2])
                if clean_nan:
                    p1[np.isnan(p1)] = 0.0
                    p2[np.isnan(p2)] = 0.0
                    clo = np.where(p2 < p1, p2, p1)
                    chi = np.where(p2 > p1, p2, p1)
                else:
                    clo = np.minimum(p1, p2, out=w3[:k2])
                    chi = np.maximum(p1, p2, out=p2)
                if rnd:
                    clo = np.nextafter(clo, _NEG_INF)
                    chi = np.nextafter(chi, _POS_INF)
                contrib_lo[sub] = clo
                contrib_hi[sub] = chi
                continue
            p1 = np.multiply(plo, salo, out=w1[:k2])
            p2 = np.multiply(plo, sahi, out=w2[:k2])
            p3 = np.multiply(
                phi, salo, out=_buf(scratch, "sweep_w4" + bkey, (e, m))[:k2]
            )
            p4 = np.multiply(
                phi, sahi, out=_buf(scratch, "sweep_w5" + bkey, (e, m))[:k2]
            )
            if clean_nan:
                for p in (p1, p2, p3, p4):
                    p[np.isnan(p)] = 0.0
                # Fold-left min/max with keep-first tie-breaking — the
                # exact semantics of Python's min()/max() over the four
                # products in Interval.__mul__.
                clo = np.where(p2 < p1, p2, p1)
                clo = np.where(p3 < clo, p3, clo)
                clo = np.where(p4 < clo, p4, clo)
                chi = np.where(p2 > p1, p2, p1)
                chi = np.where(p3 > chi, p3, chi)
                chi = np.where(p4 > chi, p4, chi)
            else:
                # Tape.adjoint_vector's exact association order (in-place
                # variants reuse the product buffers; results unchanged).
                clo = np.minimum(p1, p2, out=w3[:k2])
                t = np.minimum(
                    p3, p4, out=_buf(scratch, "sweep_w6" + bkey, (e, m))[:k2]
                )
                np.minimum(clo, t, out=clo)
                chi = np.maximum(p1, p2, out=p2)
                np.maximum(p3, p4, out=p4)
                chi = np.maximum(chi, p4, out=chi)
            if rnd:
                clo = np.nextafter(clo, _NEG_INF)
                chi = np.nextafter(chi, _POS_INF)
            contrib_lo[sub] = clo
            contrib_hi[sub] = chi

    def _sweep_lanes(
        self,
        alo: np.ndarray,
        ahi: np.ndarray,
        partial_lo: np.ndarray,
        partial_hi: np.ndarray,
        *,
        rnd: bool,
        clean_nan: bool,
    ) -> None:
        """Reverse sweep over ``(n, L, m)`` bounds with per-lane partials.

        The lane-batched twin of :meth:`_sweep` used by replayed lanes:
        partials come from the replay's ``(e, L)`` arrays instead of the
        recorded per-edge scalars, and the object sweep's zero-adjoint
        shortcut is honoured **per lane** — a lane whose source adjoint is
        exactly zero must contribute nothing to its parents, even though
        other lanes of the same edge do (bit-relevant under rounding, and
        it also stops NaN pollution when ``clean_nan`` is off).
        """
        e = self.n_edges
        if e == 0:
            return
        edge_src = self._edge_src
        edge_dst = self.parent_idx
        n, L, m = alo.shape
        contrib_lo = np.empty((e, L, m), dtype=np.float64)
        contrib_hi = np.empty((e, L, m), dtype=np.float64)
        lane_act = np.zeros((e, L), dtype=bool)
        edge_any = np.zeros(e, dtype=bool)

        for level in range(self.n_levels):
            flat = self._apply_flat[level]
            if flat.size:
                if rnd:
                    # Rank steps keep destinations distinct so a masked
                    # where() can interleave nextafter per accumulation
                    # while leaving inactive lanes untouched.
                    for sel in self._rank_steps(level):
                        sub = sel[edge_any[sel]]
                        if not sub.size:
                            continue
                        dst = edge_dst[sub]
                        mask = lane_act[sub][:, :, None]
                        cur = alo[dst]
                        alo[dst] = np.where(
                            mask,
                            np.nextafter(cur + contrib_lo[sub], _NEG_INF),
                            cur,
                        )
                        cur = ahi[dst]
                        ahi[dst] = np.where(
                            mask,
                            np.nextafter(cur + contrib_hi[sub], _POS_INF),
                            cur,
                        )
                else:
                    # Inactive-lane contributions were zeroed at emit, and
                    # adding 0.0 never flips a bound's bits (the running
                    # adjoint is never -0.0), so one add.at per level keeps
                    # the object sweep's per-destination order.
                    sub = flat[edge_any[flat]]
                    if sub.size:
                        dst = edge_dst[sub]
                        np.add.at(alo, dst, contrib_lo[sub])
                        np.add.at(ahi, dst, contrib_hi[sub])

            sel = self._contrib_schedule[level]
            if not sel.size:
                continue
            src = edge_src[sel]
            salo = alo[src]
            sahi = ahi[src]
            act = np.any(salo != 0.0, axis=2) | np.any(sahi != 0.0, axis=2)
            lane_act[sel] = act
            any_act = act.any(axis=1)
            edge_any[sel] = any_act
            sub = sel[any_act]
            if not sub.size:
                continue
            salo = salo[any_act]
            sahi = sahi[any_act]
            act = act[any_act]
            plo = partial_lo[sub][:, :, None]
            phi = partial_hi[sub][:, :, None]
            p1 = plo * salo
            p2 = plo * sahi
            p3 = phi * salo
            p4 = phi * sahi
            if clean_nan:
                for p in (p1, p2, p3, p4):
                    p[np.isnan(p)] = 0.0
                clo = np.where(p2 < p1, p2, p1)
                clo = np.where(p3 < clo, p3, clo)
                clo = np.where(p4 < clo, p4, clo)
                chi = np.where(p2 > p1, p2, p1)
                chi = np.where(p3 > chi, p3, chi)
                chi = np.where(p4 > chi, p4, chi)
            else:
                clo = np.minimum(p1, p2)
                t = np.minimum(p3, p4)
                np.minimum(clo, t, out=clo)
                chi = np.maximum(p1, p2, out=p2)
                np.maximum(p3, p4, out=p4)
                chi = np.maximum(chi, p4, out=chi)
            if rnd:
                clo = np.nextafter(clo, _NEG_INF)
                chi = np.nextafter(chi, _POS_INF)
            else:
                inactive = ~act
                if inactive.any():
                    clo[inactive] = 0.0
                    chi[inactive] = 0.0
            contrib_lo[sub] = clo
            contrib_hi[sub] = chi

    # ------------------------------------------------------------------
    # Forward replay (record once, replay many)
    # ------------------------------------------------------------------
    def _forward_plan(self):
        """Build (lazily) and cache the forward replay plan.

        Raises :class:`~repro.ad.replay.ReplayError` when the trace is not
        a replayable straight-line interval trace.
        """
        plan = self._fplan
        if plan is None:
            from .replay import ForwardPlan

            plan = ForwardPlan(self)
            self._fplan = plan
        return plan

    @property
    def input_nodes(self) -> list[int]:
        """Indices of the registered input nodes, in registration order."""
        return self._forward_plan().input_nodes

    def forward(
        self,
        inputs: Mapping[int, Any] | Sequence[Any],
        *,
        check_guards: bool = True,
    ) -> "ReplayState":
        """Re-evaluate the frozen trace on fresh input intervals.

        ``inputs`` is either a sequence of intervals parallel to the
        registered input nodes or a mapping from input-node index to
        interval.  The returned :class:`ReplayState` owns fresh value and
        partial columns holding exactly the bounds a recording of the
        same program on these inputs would produce (bit for bit,
        honouring the global rounding flag at call time).  The compiled
        tape itself is not modified.

        With ``check_guards`` (default) the comparisons recorded on the
        recording are re-evaluated on the replayed values; a flipped or
        ambiguous outcome raises
        :class:`~repro.ad.replay.GuardDivergenceError` /
        :class:`~repro.intervals.AmbiguousComparisonError` so callers can
        fall back to re-recording.
        """
        from .replay import check_guards as _check

        plan = self._forward_plan()
        input_nodes = plan.input_nodes
        if isinstance(inputs, Mapping):
            values = [inputs[j] for j in input_nodes]
        else:
            values = list(inputs)
            if len(values) != len(input_nodes):
                raise ValueError(
                    f"trace has {len(input_nodes)} inputs, got {len(values)}"
                )
        # Writable copies (np.array also unwraps memmaps); constants keep
        # their recorded values, everything else is overwritten.
        vlo = np.array(self.value_lo)
        vhi = np.array(self.value_hi)
        plo = np.array(self.partial_lo)
        phi = np.array(self.partial_hi)
        for j, value in zip(input_nodes, values):
            iv = as_interval(value)
            vlo[j] = iv.lo
            vhi[j] = iv.hi
        _C_FORWARDS.inc()
        with _span("ad.forward") as sp:
            sp.set(nodes=self.n)
            plan.run(vlo, vhi, plo, phi, rounding_enabled())
            if check_guards:
                _check(self.guards, vlo, vhi)
        return ReplayState(self, vlo, vhi, plo, phi)

    def forward_lanes(
        self,
        inputs_lo: np.ndarray,
        inputs_hi: np.ndarray,
        *,
        check_guards: bool = True,
    ) -> "ReplayLanes":
        """Replay the trace on ``(n_inputs, L)`` batched input bounds.

        Each lane is an independent replay of the recorded program; the
        returned :class:`ReplayLanes` exposes lane-batched reverse sweeps
        whose per-lane results are bit-identical to replaying (and hence
        recording) each lane on its own.  The compiled tape itself is not
        modified.
        """
        from .replay import check_guards as _check

        plan = self._forward_plan()
        input_nodes = plan.input_nodes
        inputs_lo = np.asarray(inputs_lo, dtype=np.float64)
        inputs_hi = np.asarray(inputs_hi, dtype=np.float64)
        if inputs_lo.ndim != 2 or inputs_lo.shape != inputs_hi.shape:
            raise ValueError(
                "forward_lanes expects matching (n_inputs, L) bound arrays"
            )
        if inputs_lo.shape[0] != len(input_nodes):
            raise ValueError(
                f"trace has {len(input_nodes)} inputs, "
                f"got {inputs_lo.shape[0]}"
            )
        L = inputs_lo.shape[1]
        # Broadcast the recorded columns across lanes: constants keep
        # their values, everything else is overwritten by the sweep.
        vlo = np.repeat(self.value_lo[:, None], L, axis=1)
        vhi = np.repeat(self.value_hi[:, None], L, axis=1)
        plo = np.repeat(self.partial_lo[:, None], L, axis=1)
        phi = np.repeat(self.partial_hi[:, None], L, axis=1)
        vlo[input_nodes] = inputs_lo
        vhi[input_nodes] = inputs_hi
        _C_FORWARD_LANES.inc()
        with _span("ad.forward_lanes") as sp:
            sp.set(nodes=self.n, lanes=L)
            plan.run(vlo, vhi, plo, phi, rounding_enabled())
            if check_guards:
                _check(self.guards, vlo, vhi)
        return ReplayLanes(self, vlo, vhi, plo, phi)

    # ------------------------------------------------------------------
    # Convenience views
    # ------------------------------------------------------------------
    def op_name(self, index: int) -> str:
        """Operation name of node ``index``."""
        return self.op_names[self.opcodes[index]]

    def parents_of(self, index: int) -> np.ndarray:
        """CSR parent slice of node ``index`` (recorded order)."""
        return self.parent_idx[self.row_ptr[index] : self.row_ptr[index + 1]]


class ReplayState:
    """The state of one scalar forward replay.

    Holds the ``(n,)`` value bounds and ``(e,)`` edge-partial bounds
    produced by :meth:`CompiledTape.forward`, and runs the reverse sweeps
    over them — bit-identical to recording the program on the replayed
    inputs and sweeping the object tape.  Each replay owns its state, so
    concurrent replays of one tape never share an array.
    """

    __slots__ = ("ct", "value_lo", "value_hi", "partial_lo", "partial_hi")

    def __init__(self, ct, vlo, vhi, plo, phi):
        self.ct = ct
        self.value_lo = vlo
        self.value_hi = vhi
        self.partial_lo = plo
        self.partial_hi = phi

    def adjoint(
        self, seeds: Mapping[int, Any]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Level-parallel Eq. 7–9 sweep; bit-identical to ``Tape.adjoint``.

        Returns ``(lo, hi)`` arrays of shape ``(n,)``.  For float tapes
        ``lo is hi``.  Unlike the object sweep this does **not** write
        ``node.adjoint`` back — adapters do that when materializing.
        """
        if not seeds:
            raise ValueError("adjoint sweep needs at least one seeded output")
        _C_SWEEPS.inc()
        ct = self.ct
        n = ct.n
        interval = ct.interval_mode
        rnd = interval and rounding_enabled()
        alo = np.zeros(n, dtype=np.float64)
        ahi = alo if not interval else np.zeros(n, dtype=np.float64)
        for index, seed in seeds.items():
            if not (0 <= index < n):
                raise IndexError(f"seed index {index} outside tape")
            if isinstance(seed, Interval):
                slo, shi = seed.lo, seed.hi
            else:
                slo = shi = float(seed)
            # The object sweep seeds via `zero + seed`, which is an
            # outward-rounded interval add in interval mode.
            if interval:
                new_lo = alo[index] + slo
                new_hi = ahi[index] + shi
                if rnd:
                    new_lo = np.nextafter(new_lo, _NEG_INF)
                    new_hi = np.nextafter(new_hi, _POS_INF)
                alo[index] = new_lo
                ahi[index] = new_hi
            else:
                alo[index] = alo[index] + slo

        with _span("ad.sweep") as sp, ct._scratch_checkout() as scratch:
            sp.set(nodes=n, mode="scalar")
            ct._sweep(
                alo[:, None],
                ahi[:, None],
                self.partial_lo,
                self.partial_hi,
                scratch,
                interval=interval,
                rnd=rnd,
            )
        lo = alo.reshape(n)
        hi = ahi.reshape(n)
        return (lo, lo) if not interval else (lo, hi)

    def adjoint_vector(
        self, outputs: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Level-parallel vector sweep; bit-identical to
        ``Tape.adjoint_vector`` (endpoint rule, no outward rounding)."""
        m = len(outputs)
        if m == 0:
            raise ValueError("adjoint_vector needs at least one output")
        _C_SWEEPS.inc()
        ct = self.ct
        n = ct.n
        lo = np.zeros((n, m), dtype=np.float64)
        hi = np.zeros((n, m), dtype=np.float64)
        for j, idx in enumerate(outputs):
            if not (0 <= idx < n):
                raise IndexError(f"output index {idx} outside tape")
            lo[idx, j] += 1.0
            hi[idx, j] += 1.0
        with _span("ad.sweep") as sp, ct._scratch_checkout() as scratch:
            sp.set(nodes=n, mode="vector", outputs=m)
            ct._sweep(
                lo,
                hi,
                self.partial_lo,
                self.partial_hi,
                scratch,
                interval=True,
                rnd=False,
                clean_nan=False,
            )
        return lo, hi


class ReplayLanes(ReplayState):
    """The state of one lane-batched forward replay.

    Holds the ``(n, L)`` value bounds and ``(e, L)`` edge-partial bounds
    produced by :meth:`CompiledTape.forward_lanes`, and runs lane-batched
    reverse sweeps over them.  Lane ``l`` of every result is bit-identical
    to recording the program on lane ``l``'s inputs and sweeping the
    object tape.
    """

    __slots__ = ()

    @property
    def n_lanes(self) -> int:
        return self.value_lo.shape[1]

    def adjoint(
        self, seeds: Mapping[int, Any]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lane-batched Eq. 7–9 sweep; per lane bit-identical to
        ``Tape.adjoint`` on that lane's recording.

        Returns ``(lo, hi)`` arrays of shape ``(n, L)``.
        """
        if not seeds:
            raise ValueError("adjoint sweep needs at least one seeded output")
        n, L = self.value_lo.shape
        rnd = rounding_enabled()
        alo = np.zeros((n, L, 1), dtype=np.float64)
        ahi = np.zeros((n, L, 1), dtype=np.float64)
        for index, seed in seeds.items():
            if not (0 <= index < n):
                raise IndexError(f"seed index {index} outside tape")
            if isinstance(seed, Interval):
                slo, shi = seed.lo, seed.hi
            else:
                slo = shi = float(seed)
            new_lo = alo[index] + slo
            new_hi = ahi[index] + shi
            if rnd:
                new_lo = np.nextafter(new_lo, _NEG_INF)
                new_hi = np.nextafter(new_hi, _POS_INF)
            alo[index] = new_lo
            ahi[index] = new_hi
        self.ct._sweep_lanes(
            alo, ahi, self.partial_lo, self.partial_hi, rnd=rnd, clean_nan=True
        )
        return alo[..., 0], ahi[..., 0]

    def adjoint_vector(
        self, outputs: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lane-batched vector sweep; per lane bit-identical to
        ``Tape.adjoint_vector`` (endpoint rule, no outward rounding).

        Returns ``(lo, hi)`` arrays of shape ``(n, L, m)``.
        """
        m = len(outputs)
        if m == 0:
            raise ValueError("adjoint_vector needs at least one output")
        n, L = self.value_lo.shape
        lo = np.zeros((n, L, m), dtype=np.float64)
        hi = np.zeros((n, L, m), dtype=np.float64)
        for j, idx in enumerate(outputs):
            if not (0 <= idx < n):
                raise IndexError(f"output index {idx} outside tape")
            lo[idx, :, j] += 1.0
            hi[idx, :, j] += 1.0
        self.ct._sweep_lanes(
            lo, hi, self.partial_lo, self.partial_hi, rnd=False, clean_nan=False
        )
        return lo, hi
