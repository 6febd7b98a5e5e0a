"""The significance-analysis service: routes, handlers, caches, workers.

:class:`SignificanceService` wires the kernel registry
(:mod:`repro.serve.kernels`) to the asyncio HTTP layer
(:mod:`repro.serve.http`):

* ``POST /analyse`` — kernel id + input ranges -> the full
  :class:`~repro.scorpio.report.SignificanceReport` as JSON.  The body is
  exactly ``repro.scorpio.serialize.report_to_json`` output, so a service
  response is byte-identical to an in-process analysis; the
  ``X-Repro-Cache`` header says whether it was served by recording,
  replay or divergence fallback.
* ``POST /advise`` — same analysis, answered with fastmath substitution
  advice from :mod:`repro.scorpio.advisor`.
* ``POST /tune`` — ratio-knob search via :mod:`repro.runtime.tuning`;
  answers a ready-to-use ``taskwait(ratio=...)`` recommendation.
* ``GET /metrics`` — Prometheus text exposition of the process-global
  :mod:`repro.obs` registry (per-endpoint latency, cache hit/divergence
  counters, and everything the pipeline itself counts).
* ``GET /healthz`` / ``GET /kernels`` — liveness and discovery.

Analysis work never runs on the event loop, so a cold recording (tens of
milliseconds of operator-overloaded taping) does not stall concurrently
arriving warm requests, which are pure vectorized replay.  Each endpoint
has one body, a module-level function ``(entry, cache, *args) ->
picklable result``; :meth:`SignificanceService._run` is the only code
that knows the backend, and decides only where that body runs: on a
service thread against the service's own per-kernel
:class:`~repro.scorpio.TraceCache`, or in a :mod:`repro.mp` pool worker
against the worker's.  Kernel identity is the cache key, and the cache's
own per-key record lock guarantees two racing cold requests record
exactly once.
"""

from __future__ import annotations

import asyncio
import functools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import __version__ as _VERSION
from repro.obs import context as obs_context
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.obs.flight import FlightRecorder, RequestRecord
from repro.scorpio import TraceCache
from repro.scorpio.serialize import report_to_json

from .batching import KernelBatcher
from .http import HttpError, HttpServer, Request, Response, Router, json_response
from .kernels import KernelEntry, default_registry, parse_intervals, tune_setup

__all__ = ["ServiceConfig", "SignificanceService", "ServiceThread"]


@dataclass
class ServiceConfig:
    """Tunables of one service instance."""

    host: str = "127.0.0.1"
    port: int = 8077
    request_timeout: float = 30.0
    max_body: int = 4 * 1024 * 1024
    workers: int = 4  # analysis thread / process pool size
    validate: bool = False  # TraceCache re-record validation
    # Analysis backend for the /analyse, /advise and /tune bodies:
    # "thread" runs them on service threads (the default); "process"
    # ships them to a :class:`repro.mp.ProcessExecutor` whose long-lived
    # workers each keep their own per-process TraceCache (record once
    # per worker, replay after — responses are byte-identical either
    # way, which is the cache's pinned invariant).
    executor: str = "thread"
    # Work-conserving micro-batching of POST /analyse: a request
    # dispatches at once while its kernel has a free slot (one per pool
    # worker on the process backend, one on the thread backend);
    # requests that queue while the slots are busy leave together as one
    # lane-batched replay sweep of up to max_batch lanes (responses stay
    # byte-identical to the unbatched path).  A positive batch_window_ms
    # makes a free slot wait that long for companions.  max_batch=1
    # disables coalescing entirely.
    batch_window_ms: float = 0.0
    max_batch: int = 16
    # Persistent tape store directory (None -> $REPRO_TAPE_DIR if set).
    # With a store, a restarted service loads recorded tapes from disk
    # and serves its very first request per kernel as a replay.
    store_dir: str | None = None
    # Span recording for the service's lifetime.  The service enables the
    # process-global obs tracing flag on construction and restores the
    # previous value on close(), so embedding a service (tests, examples)
    # never leaks the flag.  The flight recorder below is independent of
    # this and always on.
    tracing: bool = True
    # Per-request flight recorder: ring size of retained request
    # summaries served at GET /debug/requests and /debug/trace/<id>.
    flight_capacity: int = 256
    # Blanket per-kernel latency SLO in ms applied to every kernel whose
    # KernelEntry does not pin its own slo_ms (None = no objective).  A
    # kernel whose most recent request exceeded its SLO turns /healthz
    # "degraded".
    default_slo_ms: float | None = None


# Per-endpoint observability: one latency histogram per route plus
# request/error totals, all in the process-global obs registry so
# GET /metrics exposes them alongside the pipeline's own counters.
_H_LATENCY = {
    name: obs_metrics.histogram(f"serve.latency_ms.{name}")
    for name in (
        "analyse", "advise", "tune", "metrics", "healthz", "kernels", "debug",
    )
}
_C_REQUESTS = obs_metrics.counter("serve.requests")
_C_ERRORS = obs_metrics.counter("serve.errors")
_C_HITS = obs_metrics.counter("serve.analyse.cache_hits")
_C_MISSES = obs_metrics.counter("serve.analyse.cache_misses")
_C_DIVERGENCES = obs_metrics.counter("serve.analyse.divergences")

# Cache outcome -> (its TraceCache.stats() key, its service counter).
_OUTCOMES = {
    "record": ("records", _C_MISSES),
    "replay": ("replays", _C_HITS),
    "divergence": ("divergences", _C_DIVERGENCES),
}

# Per-request flight-record scratch, set by _timed() for the duration of
# one handler invocation.  A contextvar (not an attribute on the request)
# because handlers fan work out through closures; anything running in the
# request's asyncio context can annotate the record via _request_info().
_REQ_INFO: ContextVar["dict[str, Any] | None"] = ContextVar(
    "repro_serve_request_info", default=None
)


def _request_info() -> "dict[str, Any] | None":
    """The in-flight request's flight-record scratch dict (or None)."""
    return _REQ_INFO.get()


def _assemble_trace(trace_id: str) -> list[dict[str, Any]]:
    """One trace's span forest, re-linked across recording boundaries.

    Root spans reach the ring separately (the request's manual span, the
    batch span, spans adopted from pool workers); each still carries its
    context's ``parent_id``, so any root whose parent is present in the
    same trace is re-attached as a child — the returned forest shows the
    HTTP handling, the batch and the worker-side replay as one tree
    whenever the ids connect.
    """
    dicts = obs_profile.spans_to_dicts(obs_trace.spans_for_trace(trace_id))
    by_id: dict[str, dict[str, Any]] = {}

    def index(node: dict[str, Any]) -> None:
        span_id = node.get("span_id")
        if span_id:
            by_id[span_id] = node
        for child in node["children"]:
            index(child)

    for node in dicts:
        index(node)
    forest: list[dict[str, Any]] = []
    for node in dicts:
        parent = by_id.get(node.get("parent_id") or "")
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            forest.append(node)
    forest.sort(key=lambda node: node.get("start_epoch") or 0.0)
    return forest

# Per-worker-process serving state for the "process" analysis backend:
# each long-lived pool worker lazily builds the default registry and one
# TraceCache per kernel, so it records a kernel's trace once and replays
# it for every later request it handles.
_WORKER_STATE: dict[str, Any] | None = None


def _worker_entry_cache(
    kernel_id: str, validate: bool, store_dir: "str | None"
) -> tuple[KernelEntry, TraceCache]:
    """This worker's registry entry and TraceCache for one kernel.

    With a ``store_dir`` every pool worker attaches the *persisted* tape
    instead of re-recording its own copy: the first worker to record a
    kernel saves the tape, and every other worker (and every restart)
    warm-starts from disk.
    """
    global _WORKER_STATE
    if _WORKER_STATE is None:
        _WORKER_STATE = {"registry": default_registry(), "caches": {}}
    entry = _WORKER_STATE["registry"][kernel_id]
    cache = _WORKER_STATE["caches"].get(kernel_id)
    if cache is None:
        cache = _WORKER_STATE["caches"].setdefault(
            kernel_id, TraceCache(validate=validate, store_dir=store_dir)
        )
    return entry, cache


def _in_pool_worker(
    body: Callable[..., Any],
    kernel_id: str,
    validate: bool,
    store_dir: "str | None",
    *args: Any,
) -> Any:
    """Run one endpoint body against this pool worker's entry and cache."""
    entry, cache = _worker_entry_cache(kernel_id, validate, store_dir)
    return body(entry, cache, *args)


# ----------------------------------------------------------------------
# Endpoint bodies.  Each is ``(entry, cache, *args) -> picklable result``
# and runs unchanged on either backend: SignificanceService._run decides
# only *where* (a service thread against the service's caches, or a pool
# worker against the worker's own caches).  Their results are
# byte-identical across backends because recording and replay serialize
# identically.
# ----------------------------------------------------------------------
def _analyse_batch(entry: KernelEntry, cache: TraceCache, batch: list) -> list:
    """One coalesced /analyse batch: a tagged item per request.

    Items are ``("ok", body, outcome)`` or ``("err", detail)``, where
    ``detail`` is the 500 detail the request answers with.  Bodies are
    byte-identical to what the same requests would answer one by one.
    """
    try:
        outcomes = cache.analyse_batch_outcome(
            entry.cache_key, entry.recorder, batch, simplify=entry.simplify
        )
        return [
            ("ok", report_to_json(report).encode("utf-8"), outcome)
            for report, outcome in outcomes
        ]
    except Exception:
        # Batch-level failure (e.g. an ambiguous comparison poisoning the
        # shared sweep): retry each request alone so only the culprits
        # fail, exactly as if they had never been batched.
        items: list = []
        for intervals in batch:
            try:
                report, outcome = cache.analyse_outcome(
                    entry.cache_key,
                    entry.recorder,
                    intervals,
                    simplify=entry.simplify,
                )
                items.append(
                    ("ok", report_to_json(report).encode("utf-8"), outcome)
                )
            except Exception as exc:  # noqa: BLE001 - per-request isolation
                items.append(("err", f"unhandled error: {exc!r}"))
        return items


def _advise(
    entry: KernelEntry, cache: TraceCache, intervals: list, threshold: float
) -> tuple[dict, str]:
    """One /advise body: (response payload, cache outcome)."""
    from repro.scorpio.advisor import render_advice, suggest_approximations

    report, outcome = cache.analyse_outcome(
        entry.cache_key, entry.recorder, intervals, simplify=entry.simplify
    )
    suggestions = suggest_approximations(report, threshold)
    return (
        {
            "kernel": entry.kernel_id,
            "threshold": threshold,
            "suggestions": [
                {
                    "node_id": s.node_id,
                    "op": s.op,
                    "replacement": s.replacement,
                    "significance": s.significance,
                    "cost_saving": s.cost_saving,
                    "score": s.score,
                }
                for s in suggestions
            ],
            "advice": render_advice(suggestions),
        },
        outcome,
    )


def _tune(
    entry: KernelEntry,
    cache: TraceCache,
    size: "int | None",
    target_quality: "float | None",
    energy_budget: "float | None",
) -> dict:
    """One /tune body: the ratio-search payload (no trace cache needed)."""
    from repro.runtime.tuning import (
        best_quality_under_energy,
        min_ratio_for_quality,
    )

    setup = tune_setup(entry.kernel_id, size)
    if target_quality is not None:
        result = min_ratio_for_quality(
            setup.evaluate,
            target_quality,
            higher_is_better=setup.higher_is_better,
        )
        mode = "target_quality"
    else:
        result = best_quality_under_energy(
            setup.evaluate,
            energy_budget,
            higher_is_better=setup.higher_is_better,
        )
        mode = "energy_budget"
    return {
        "kernel": entry.kernel_id,
        "mode": mode,
        "taskwait": {"ratio": result.ratio},
        "ratio": result.ratio,
        "quality": result.quality,
        "quality_metric": setup.quality_metric,
        "energy": result.energy,
        "satisfied": result.satisfied,
        "workload": setup.workload,
        "probes": {
            f"{ratio:.6g}": {"quality": q, "energy": e}
            for ratio, (q, e) in sorted(result.probes.items())
        },
    }


class SignificanceService:
    """Significance-analysis-as-a-service over a kernel registry."""

    def __init__(
        self,
        registry: dict[str, KernelEntry] | None = None,
        config: ServiceConfig | None = None,
    ):
        self.registry = registry if registry is not None else default_registry()
        self.config = config or ServiceConfig()
        backend = (self.config.executor or "thread").strip().lower()
        if backend not in ("thread", "process"):
            raise ValueError(
                f"unknown serve executor {self.config.executor!r}; "
                "expected 'thread' or 'process'"
            )
        self.config.executor = backend
        self._mp = None
        if backend == "process":
            if registry is not None:
                raise ValueError(
                    "executor='process' serves the default registry only "
                    "(pool workers rebuild it; a custom registry would "
                    "not reach them)"
                )
            from repro.mp import ProcessExecutor

            self._mp = ProcessExecutor(
                max_workers=self.config.workers
            ).warm()
        # Resolve the persistent tape store once so /healthz (and the
        # pool workers) see the effective directory, env var included.
        if self.config.store_dir is None:
            self.config.store_dir = os.environ.get("REPRO_TAPE_DIR") or None
        if self.config.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        # The thread backend keeps one TraceCache per kernel and runs each
        # kernel's batches on a long-lived analysis thread private to the
        # kernel: with no batch window, the next dispatch often arrives
        # before a shared pool's previous thread has marked itself idle,
        # so the pool would spawn another thread and spread the kernel's
        # temporaries over a second malloc arena.  The process backend's
        # caches live in the pool workers instead.
        self.caches: dict[str, TraceCache] = {}
        self._kernel_threads: dict[str, ThreadPoolExecutor] = {}
        if self._mp is None:
            for kid in self.registry:
                self.caches[kid] = TraceCache(
                    validate=self.config.validate,
                    store_dir=self.config.store_dir,
                )
                self._kernel_threads[kid] = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix=f"repro-serve-{kid}"
                )
        # Per-kernel tally of the cache outcomes the service answered with
        # (GET /kernels on the process backend, whose caches it cannot see).
        self._outcomes: dict[str, dict[str, int]] = {
            kid: {stat: 0 for stat, _ in _OUTCOMES.values()}
            for kid in self.registry
        }
        # One request coalescer per kernel; every /analyse goes through it
        # (max_batch=1 dispatches each request alone).  The process backend
        # runs one batch per pool worker at once; the thread backend one,
        # since a second in-flight sweep would only contend for the GIL.
        window = max(0.0, self.config.batch_window_ms) / 1000.0
        slots = self.config.workers if self._mp is not None else 1
        self._batchers = {
            kid: KernelBatcher(
                window=window,
                max_batch=self.config.max_batch,
                # The whole coalesced batch runs as ONE lane-batched sweep.
                dispatch=functools.partial(
                    self._run,
                    _analyse_batch,
                    entry,
                    executor=self._kernel_threads.get(kid),
                ),
                name=kid,
                slots=slots,
            )
            for kid, entry in self.registry.items()
        }
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve",
        )
        # The always-on flight recorder behind GET /debug/requests and
        # /debug/trace/<id>, with the per-kernel latency SLOs.
        self.flight = FlightRecorder(capacity=self.config.flight_capacity)
        for kid, entry in self.registry.items():
            slo = (
                entry.slo_ms
                if entry.slo_ms is not None
                else self.config.default_slo_ms
            )
            if slo is not None:
                self.flight.set_slo(kid, slo)
        self._started = time.time()
        self.server = HttpServer(
            self._build_router(),
            host=self.config.host,
            port=self.config.port,
            request_timeout=self.config.request_timeout,
            max_body=self.config.max_body,
        )
        # Last: turn on span recording for the service's lifetime (the
        # pool, if any, was warmed above, so fork-started workers do not
        # inherit the flag — _worker_run carries it per task instead).
        # close() restores the caller's flag.
        self._prev_tracing: "bool | None" = None
        if self.config.tracing:
            self._prev_tracing = obs_trace.set_enabled(True)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind the listening socket; returns the bound (host, port)."""
        return await self.server.start()

    async def serve_forever(self) -> None:
        await self.server.serve_forever()

    async def close(self) -> None:
        await self.server.close()
        for batcher in self._batchers.values():
            batcher.close()
        self._executor.shutdown(wait=False)
        for thread in self._kernel_threads.values():
            thread.shutdown(wait=False)
        if self._mp is not None:
            self._mp.close()
        if self._prev_tracing is not None:
            obs_trace.set_enabled(self._prev_tracing)
            self._prev_tracing = None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _build_router(self) -> Router:
        router = Router()
        router.get("/healthz", self._timed("healthz", self._handle_healthz))
        router.get("/kernels", self._timed("kernels", self._handle_kernels))
        router.get("/metrics", self._timed("metrics", self._handle_metrics))
        router.post("/analyse", self._timed("analyse", self._handle_analyse))
        router.post("/advise", self._timed("advise", self._handle_advise))
        router.post("/tune", self._timed("tune", self._handle_tune))
        router.get(
            "/debug/requests",
            self._timed("debug", self._handle_debug_requests),
        )
        router.get_prefix(
            "/debug/trace/",
            self._timed("debug", self._handle_debug_trace),
        )
        return router

    def _timed(
        self,
        name: str,
        handler: Callable[[Request], Any],
    ) -> Callable[[Request], Any]:
        """Wrap a handler with latency metrics, trace context and the
        flight recorder.

        Each request's ``X-Repro-Trace`` header is parsed (or a fresh
        trace minted), a manual request span is opened under it — manual
        because the handler awaits, so a stack-based span would mis-nest
        concurrently interleaving requests — and the span's own context
        is made current for the handler, parenting everything downstream
        (batcher, thread pool, process workers).  The span's context is
        stamped back onto the response so callers can fetch
        ``/debug/trace/<id>``; one :class:`RequestRecord` lands in the
        flight recorder whatever the outcome.
        """
        histogram = _H_LATENCY[name]

        async def wrapped(request: Request) -> Response:
            _C_REQUESTS.inc()
            ctx_in = obs_context.parse_header(
                request.headers.get("x-repro-trace")
            )
            if ctx_in is None:
                ctx_in = obs_context.new_trace()
            own = ctx_in.child()
            sp = obs_trace.manual_span(
                f"serve.{name}", own, method=request.method, path=request.path
            )
            info: dict[str, Any] = {"stages": {}}
            info_token = _REQ_INFO.set(info)
            status = 200
            error = ""
            t0 = time.perf_counter()
            try:
                with obs_context.use(own):
                    response = await handler(request)
                status = response.status
                response.headers.setdefault(
                    obs_context.HEADER, own.to_header()
                )
                return response
            except HttpError as exc:
                status = exc.status
                error = exc.detail or exc.reason
                _C_ERRORS.inc()
                raise
            except Exception as exc:
                status = 500
                error = f"{type(exc).__name__}: {exc}"
                _C_ERRORS.inc()
                raise
            finally:
                elapsed = time.perf_counter() - t0
                histogram.observe(elapsed * 1000.0)
                _REQ_INFO.reset(info_token)
                sp.set(status=status)
                if error:
                    sp.set(error=error)
                obs_trace.adopt([sp.finish()])
                if name not in ("metrics", "healthz", "debug"):
                    self.flight.record(
                        RequestRecord(
                            trace_id=own.trace_id,
                            path=request.path,
                            kernel=info.get("kernel", ""),
                            status=status,
                            outcome=info.get("outcome", ""),
                            batch_size=info.get("batch_size", 1),
                            batch_index=info.get("batch_index", 0),
                            executor=self.config.executor,
                            duration_seconds=elapsed,
                            stages=info["stages"],
                            error=error,
                        )
                    )

        return wrapped

    async def _run(
        self,
        body: Callable[..., Any],
        entry: KernelEntry,
        *args: Any,
        executor: "ThreadPoolExecutor | None" = None,
    ) -> Any:
        """Run one endpoint body off the event loop; return its result.

        The only code that knows the backend.  The thread backend calls
        ``body(entry, cache, *args)`` with the service's cache for the
        kernel; the process backend ships the same call to a pool worker,
        which supplies its own entry and cache.  Either way the blocking
        part runs on ``executor`` (the shared pool by default).
        ``run_in_executor`` does not carry contextvars onto the pool
        thread; :func:`repro.obs.context.run_with` is the explicit hop
        that keeps the request's trace context attached to its work.
        """
        if self._mp is None:
            cache = self.caches[entry.kernel_id]

            def work() -> Any:
                return body(entry, cache, *args)

        else:
            from repro.runtime.task import ExecutionMode, Task

            task = Task(
                fn=_in_pool_worker,
                args=(
                    body,
                    entry.kernel_id,
                    self.config.validate,
                    self.config.store_dir,
                    *args,
                ),
                label=f"serve.{body.__name__.lstrip('_')}",
            )

            def work() -> Any:
                [result] = self._mp.run([task], [ExecutionMode.ACCURATE])
                return result.value

        loop = asyncio.get_running_loop()
        ctx = obs_context.current()
        return await loop.run_in_executor(
            executor or self._executor, lambda: obs_context.run_with(ctx, work)
        )

    def _count(self, kernel_id: str, outcome: str) -> None:
        """Count one answered cache outcome (on the event loop)."""
        known = _OUTCOMES.get(outcome)
        if known is not None:
            stat, counter = known
            counter.inc()
            self._outcomes[kernel_id][stat] += 1

    def _entry(self, payload: dict) -> KernelEntry:
        kernel_id = payload.get("kernel")
        if not isinstance(kernel_id, str) or not kernel_id:
            raise HttpError(400, "missing required field 'kernel'")
        entry = self.registry.get(kernel_id)
        if entry is None:
            raise HttpError(
                404,
                f"unknown kernel {kernel_id!r}; "
                f"known: {', '.join(sorted(self.registry))}",
            )
        return entry

    def _intervals(self, payload: dict, entry: KernelEntry):
        try:
            return parse_intervals(payload.get("inputs"), entry)
        except ValueError as exc:
            raise HttpError(400, str(exc)) from exc

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    async def _handle_healthz(self, request: Request) -> Response:
        degraded = self.flight.degraded_kernels()
        return json_response(
            {
                "status": "ok",
                "version": _VERSION,
                "uptime_seconds": round(time.time() - self._started, 3),
                "kernels": sorted(self.registry),
                # The analysis backend, so deploy smoke checks can assert
                # which executor actually serves /analyse.
                "executor": self.config.executor,
                "workers": self.config.workers,
                # Micro-batching + warm-start configuration, so deploys
                # can assert the coalescer and tape store are live.
                "batch_window_ms": self.config.batch_window_ms,
                "max_batch": self.config.max_batch,
                "store_dir": self.config.store_dir,
                # Observability: span recording state and the flight
                # recorder's SLO verdict.  "degraded" means at least one
                # kernel's most recent request exceeded its latency SLO.
                "tracing": obs_trace.enabled(),
                "degraded": bool(degraded),
                "degraded_kernels": degraded,
            }
        )

    async def _handle_kernels(self, request: Request) -> Response:
        kernels = []
        for kid in sorted(self.registry):
            entry = self.registry[kid]
            kernels.append(
                {
                    "id": kid,
                    "summary": entry.summary,
                    "inputs": entry.n_inputs,
                    "input_names": list(entry.input_names),
                    "simplify": entry.simplify,
                    "quality_metric": entry.quality_metric,
                    "cache": (
                        self.caches[kid].stats()
                        if self.caches
                        else dict(self._outcomes[kid])
                    ),
                }
            )
        return json_response({"kernels": kernels})

    async def _handle_metrics(self, request: Request) -> Response:
        return Response(
            body=obs_metrics.to_prometheus().encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    async def _handle_debug_requests(self, request: Request) -> Response:
        try:
            limit = int(request.query.get("limit", "50"))
        except ValueError as exc:
            raise HttpError(400, "'limit' must be an integer") from exc
        return json_response(
            {
                "requests": self.flight.requests(limit=limit),
                "recorded": len(self.flight),
                "degraded_kernels": self.flight.degraded_kernels(),
            }
        )

    async def _handle_debug_trace(self, request: Request) -> Response:
        trace_id = request.path.removeprefix("/debug/trace/").strip("/")
        if obs_context.parse_header(trace_id) is None:
            raise HttpError(
                400, f"{trace_id!r} is not a trace id (32 hex chars)"
            )
        record = self.flight.for_trace(trace_id)
        spans = _assemble_trace(trace_id)
        if record is None and not spans:
            raise HttpError(
                404,
                f"trace {trace_id} not found (flight recorder keeps the "
                f"last {self.config.flight_capacity} requests; span "
                "recording requires tracing)",
            )
        return json_response(
            {"trace_id": trace_id, "request": record, "spans": spans}
        )

    async def _handle_analyse(self, request: Request) -> Response:
        payload = request.json()
        entry = self._entry(payload)
        intervals = self._intervals(payload, entry)
        info = _request_info()
        if info is not None:
            info["kernel"] = entry.kernel_id
        t_dispatch = time.perf_counter()
        item, size, index = await self._batchers[entry.kernel_id].submit(
            intervals, stages=info["stages"] if info is not None else None
        )
        if info is not None:
            info["stages"]["dispatch"] = time.perf_counter() - t_dispatch
            info["batch_size"] = size
            info["batch_index"] = index
        if item[0] != "ok":
            raise HttpError(500, item[1])
        # The body is exactly the in-process serialisation — byte-identical
        # to report_to_json of a local analysis of the same ranges.
        _, body, outcome = item
        self._count(entry.kernel_id, outcome)
        if info is not None:
            info["outcome"] = outcome
        return Response(
            body=body,
            headers={
                "X-Repro-Cache": outcome,
                "X-Repro-Kernel": entry.kernel_id,
                # "<batch size>/<lane index>": how many requests shared
                # this response's replay sweep and which lane this one
                # was.  "1/0" means it rode alone.
                "X-Repro-Batch": f"{size}/{index}",
            },
        )

    async def _handle_advise(self, request: Request) -> Response:
        payload = request.json()
        entry = self._entry(payload)
        intervals = self._intervals(payload, entry)
        threshold = payload.get("threshold", 0.25)
        if not isinstance(threshold, (int, float)) or isinstance(
            threshold, bool
        ):
            raise HttpError(400, "'threshold' must be a number")
        payload_out, outcome = await self._run(
            _advise, entry, intervals, float(threshold)
        )
        self._count(entry.kernel_id, outcome)
        return json_response(payload_out, headers={"X-Repro-Cache": outcome})

    async def _handle_tune(self, request: Request) -> Response:
        payload = request.json()
        entry = self._entry(payload)
        target_quality = payload.get("target_quality")
        energy_budget = payload.get("energy_budget")
        if (target_quality is None) == (energy_budget is None):
            raise HttpError(
                400,
                "provide exactly one of 'target_quality' (min ratio "
                "meeting a quality floor) or 'energy_budget' (best "
                "quality within a budget)",
            )
        size = payload.get("size")
        if size is not None and (
            not isinstance(size, int) or isinstance(size, bool) or size < 2
        ):
            raise HttpError(400, "'size' must be an integer >= 2")
        return json_response(
            await self._run(
                _tune,
                entry,
                size,
                None if target_quality is None else float(target_quality),
                None if energy_budget is None else float(energy_budget),
            )
        )


class ServiceThread:
    """Run a :class:`SignificanceService` on a background thread.

    The in-process deployment used by the example tenants, the tests and
    the load generator::

        with ServiceThread() as service:
            client = service.client()
            report = client.analyse("blackscholes")

    Binds port 0 by default (the OS picks a free port) and publishes the
    bound address via :attr:`host`/:attr:`port` once :meth:`start`
    returns.
    """

    def __init__(
        self,
        registry: dict[str, KernelEntry] | None = None,
        config: ServiceConfig | None = None,
    ):
        if config is None:
            config = ServiceConfig(port=0)
        self.service = SignificanceService(registry, config)
        self.host: str | None = None
        self.port: int | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self) -> "ServiceThread":
        if self._thread is not None:
            raise RuntimeError("service thread already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("service failed to start within 30s")
        if self._startup_error is not None:
            raise RuntimeError(
                "service failed to start"
            ) from self._startup_error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - reported to starter
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self.host, self.port = await self.service.start()
        except BaseException as exc:  # noqa: BLE001
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.service.close()

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30.0)
        self._thread = None

    def client(self, timeout: float = 60.0):
        from .client import ServiceClient

        assert self.host is not None and self.port is not None
        return ServiceClient(self.host, self.port, timeout=timeout)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
