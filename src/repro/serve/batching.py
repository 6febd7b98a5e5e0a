"""Work-conserving micro-batching of concurrent /analyse calls per kernel.

A warm ``/analyse`` request is one vectorized replay — a forward sweep,
an adjoint sweep and Eq. 11 over the kernel's cached trace.  Those
sweeps are *lane-batched* all the way down
(:meth:`~repro.ad.compiled.CompiledTape.forward_lanes` →
:func:`~repro.scorpio.compiled.analyse_replay_lanes`), so L concurrent
requests for the same kernel can share ONE sweep at marginal cost per
extra lane instead of L sweeps.  This module is the service-side
coalescer that finds those L requests.

:class:`KernelBatcher` lives on the event loop (one per kernel) and owns
``slots`` dispatch slots — how many of the kernel's batches may be in
flight at once.  It is *work-conserving*: ``submit`` queues the request
and pumps, and while a slot is free the pump slices off up to
``max_batch`` queued requests and dispatches them immediately, so a
request that arrives alone never waits.  When a batch finishes, its slot
pumps again, and everything that queued while the slots were busy leaves
together as the next lane batch — batches form exactly when the pool is
busy, which is the only time coalescing can help (as in continuous
batching, and as the significance-aware runtime of arXiv:1412.5150
dispatches a task as soon as a worker is free).

The service sizes the slots from its backend: the process backend gets
one slot per pool worker (two batches of one kernel run on two workers
in parallel), the thread backend gets one, because a second in-flight
sweep would only contend for the GIL.  An optional positive *batch
window* (``--batch-window-ms``, default 0) makes a free slot hold its
dispatch that long for companions while fewer than ``max_batch``
requests are queued.

Responses are byte-identical to the unbatched path — that is the pinned
contract of :meth:`TraceCache.analyse_batch_outcome
<repro.scorpio.trace_cache.TraceCache.analyse_batch_outcome>` — and each
carries ``X-Repro-Batch: <size>/<index>`` so callers (and the tests) can
see the coalescing.  Batch sizes are observed in the ``serve.batch.size``
histogram.

Error isolation: the dispatch returns one *tagged item* per request —
``("ok", body, outcome)`` or ``("err", detail)``, where ``detail`` is the
string the request's 500 answer carries, the same on both backends — so
one bad request in a batch fails alone while its companions answer
normally, exactly as if each had been dispatched by itself.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Sequence

from repro.obs import context as obs_context
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = ["KernelBatcher", "BATCH_SIZE_HISTOGRAM"]

#: Lanes per dispatched sweep; scraped via GET /metrics.
BATCH_SIZE_HISTOGRAM = obs_metrics.histogram("serve.batch.size")

# One tagged item per request, in submission order.
DispatchFn = Callable[[Sequence[Any]], Awaitable[list]]


@dataclass
class _Member:
    """One queued submission."""

    request: Any
    future: asyncio.Future
    # The submitter's trace context: slot tasks are created by whichever
    # request happened to pump, so each batch re-derives its identity
    # from its *members'* contexts at dispatch time.
    context: "obs_context.TraceContext | None"
    submitted: float  # time.perf_counter() at submit
    stages: "dict[str, float] | None"


class KernelBatcher:
    """Coalesce concurrent submissions into batched dispatch calls.

    Single-threaded by construction: every method runs on the event
    loop, so the queue needs no lock.  ``submit`` resolves to
    ``(item, batch_size, lane_index)`` where ``item`` is the dispatch's
    tagged result for this request.  At most ``slots`` dispatch calls
    are in flight at once.
    """

    def __init__(
        self,
        *,
        window: float,
        max_batch: int,
        dispatch: DispatchFn,
        name: str = "",
        slots: int = 1,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.window = max(0.0, float(window))
        self.max_batch = int(max_batch)
        self.slots = int(slots)
        self.name = name
        self._dispatch = dispatch
        self._pending: list[_Member] = []
        # In-flight slot task -> the members riding its batch.
        self._inflight: dict[asyncio.Task, list[_Member]] = {}
        # Armed while a free slot holds its dispatch for one window.
        self._timer: asyncio.TimerHandle | None = None
        self._closed = False

    async def submit(
        self, request: Any, *, stages: "dict[str, float] | None" = None
    ) -> tuple[Any, int, int]:
        """Queue one request; await its slice of a batched dispatch.

        When ``stages`` is given, ``stages["queue"]`` receives the
        seconds from this call to the start of its batch's dispatch.
        """
        if self._closed:
            raise RuntimeError("batcher is closed")
        loop = asyncio.get_running_loop()
        member = _Member(
            request,
            loop.create_future(),
            obs_context.current(),
            time.perf_counter(),
            stages,
        )
        self._pending.append(member)
        self._pump()
        return await member.future

    def _pump(self, window_elapsed: bool = False) -> None:
        """Dispatch queued requests while a slot is free."""
        while self._pending and len(self._inflight) < self.slots:
            if (
                self.window > 0.0
                and not window_elapsed
                and len(self._pending) < self.max_batch
            ):
                if self._timer is None:
                    self._timer = asyncio.get_running_loop().call_later(
                        self.window, self._window_elapsed
                    )
                return
            window_elapsed = False
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            batch = self._pending[: self.max_batch]
            del self._pending[: len(batch)]
            task = asyncio.get_running_loop().create_task(
                self._run_batch(batch)
            )
            self._inflight[task] = batch
            task.add_done_callback(self._slot_done)

    def _window_elapsed(self) -> None:
        self._timer = None
        self._pump(window_elapsed=True)

    def _slot_done(self, task: asyncio.Task) -> None:
        # _run_batch settles its members' futures itself, so the task
        # carries no result to retrieve.  A closed batcher never pumps.
        self._inflight.pop(task, None)
        if not self._closed:
            self._pump()

    async def _run_batch(self, batch: list[_Member]) -> None:
        started = time.perf_counter()
        for member in batch:
            if member.stages is not None:
                member.stages["queue"] = started - member.submitted
        size = len(batch)
        BATCH_SIZE_HISTOGRAM.observe(float(size))
        # One shared span for the whole coalesced sweep.  It joins the
        # *head* member's trace (its context parents the span) and
        # carries every member's trace id in ``links``/``lanes``, so
        # GET /debug/trace/<id> resolves the batch for each of the
        # requests that rode it, not just the first.
        contexts = [member.context for member in batch]
        head_ctx = next((c for c in contexts if c is not None), None)
        batch_ctx = head_ctx.child() if head_ctx is not None else None
        sp = obs_trace.manual_span("serve.batch", batch_ctx)
        sp.set(
            kernel=self.name,
            size=size,
            links=[c.trace_id for c in contexts if c is not None],
            lanes=[c.to_header() if c is not None else None for c in contexts],
        )
        try:
            with obs_context.use(batch_ctx):
                items = await self._dispatch([m.request for m in batch])
            if len(items) != size:
                raise RuntimeError(
                    f"batch dispatch returned {len(items)} items "
                    f"for {size} requests"
                )
        except BaseException as exc:  # noqa: BLE001 - fanned out
            sp.set(error=f"{type(exc).__name__}: {exc}")
            obs_trace.adopt([sp.finish()])
            if isinstance(exc, asyncio.CancelledError):
                # Shutdown: members get a RuntimeError, never a bare
                # CancelledError their handlers would not expect.
                _fail(batch, _shutdown_error("in flight"))
            else:
                _fail(batch, exc)
            if not isinstance(exc, Exception):
                raise
            return
        obs_trace.adopt([sp.finish()])
        for index, (member, item) in enumerate(zip(batch, items)):
            if not member.future.done():
                member.future.set_result((item, size, index))

    def close(self) -> None:
        """Fail every queued and in-flight request; cancel the slots.

        Each waiting ``submit`` raises ``RuntimeError``; later calls to
        ``submit`` raise at once.
        """
        self._closed = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        pending, self._pending = self._pending, []
        _fail(pending, _shutdown_error("queued"))
        for task, batch in list(self._inflight.items()):
            _fail(batch, _shutdown_error("in flight"))
            task.cancel()


def _shutdown_error(where: str) -> RuntimeError:
    return RuntimeError(f"service shut down with requests {where}")


def _fail(members: list[_Member], exc: BaseException) -> None:
    for member in members:
        if not member.future.done():
            member.future.set_exception(exc)
