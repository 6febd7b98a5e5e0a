"""The three serving workloads, their end-to-end runs and traced runs.

============  ================================================  ====
workload      what runs                                         tail
============  ================================================  ====
lone_small    1 connection, thread backend; sobel, blackscholes,  p90
              fisheye and nbody in a seeded rotation, fresh ±1%
              ranges on every request
lone_dct      1 connection, thread backend; dct on seeded 8x8     p75
              blocks of a natural image (±0.5)
pair_process  2 connections, ``--executor process --workers 2``;  p90
              blackscholes only, fresh ±1% ranges
============  ================================================  ====

Every loop is closed: a client sends its next request when the previous
reply has fully arrived.  ``tail`` is the percentile the run stamp
reports beside the median.  It is fixed per workload so that runs stay
comparable, and it has at least ten samples beyond it in a 20-second
run on the code the benchmark was written against.  It is not a bounded
metric: on a shared two-core host, p90 moved by a third from run to run
whenever other guests took CPU time.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import inputs
import layers
import loadgen
import server
from stats import percentile

# Launches per run; setup_s is their median.
SETUPS = 5
# Untimed load between set-up and the timed phase.
WARMUP_SECONDS = 1.0
# Longest warm-up spent waiting for every pool worker to record.
WARMUP_CAP_SECONDS = 15.0
# Requests generated per second of run time (the list wraps past it).
REQUESTS_PER_SECOND = 1500
# The traced run reads GET /debug/requests after this many replies; the
# flight recorder keeps the last 256.
POLL_EVERY = 64


@dataclass(frozen=True)
class Workload:
    name: str
    tail: float
    kernels: tuple
    connections: int = 1
    flags: tuple = ()
    pool_workers: int = 1  # processes that each record every kernel once

    def requests(self, seed: int, seconds: float) -> list:
        if self.name == "lone_dct":
            return inputs.dct_blocks(seed, 16)
        count = int(seconds * REQUESTS_PER_SECOND) + 100
        if self.name == "lone_small":
            return inputs.small_mix(seed, count)
        return inputs.single_kernel(self.kernels[0], seed, count)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lone_small", 90, inputs.SMALL_KERNELS),
        Workload("lone_dct", 75, ("dct",)),
        Workload(
            "pair_process",
            90,
            ("blackscholes",),
            connections=2,
            flags=("--executor", "process", "--workers", "2"),
            pool_workers=2,
        ),
    )
}


@dataclass
class Outcome:
    """What one run prints: metrics, op counts, and why it failed."""

    stamp: dict
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def count(self, verdicts) -> None:
        self.attempted += len(verdicts)
        self.failed += sum(1 for ok in verdicts if not ok)

    def result(self) -> dict:
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": max(self.attempted, 1),
            "failed": self.failed if self.attempted else 1,
            "metrics": self.metrics,
        }


def stamp(workload: Workload, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "server_flags": list(workload.flags),
        "tail_percentile": workload.tail,
    }


# ----------------------------------------------------------------------
# Set-up and warm-up
# ----------------------------------------------------------------------
def _launch(workload: Workload, firsts: list, oracles: list, out: Outcome):
    """Start a server and send each kernel's first request.

    Returns the server and the seconds from launch to the last correct
    first answer (None if any first answer was wrong).
    """
    t0 = time.perf_counter()
    srv = server.Server(list(workload.flags))
    conn = loadgen.Connection(srv.host, srv.port)
    verdicts = []
    try:
        for request, oracle in zip(firsts, oracles):
            try:
                status, _, body = conn.request("POST", "/analyse", request.body)
                verdicts.append(status == 200 and body == oracle)
            except loadgen.TransportError:
                verdicts.append(False)
    finally:
        conn.close()
    elapsed = time.perf_counter() - t0
    out.count(verdicts)
    return srv, (elapsed if all(verdicts) else None)


def _set_up(workload: Workload, requests: list, setups: int, out: Outcome):
    """Launch ``setups`` servers and keep the last one.

    Returns the server and the median set-up seconds.
    """
    firsts = [
        next(r for r in requests if r.kernel == k) for k in workload.kernels
    ]
    oracles = [r.oracle() for r in firsts]
    times = []
    for i in range(setups):
        srv, elapsed = _launch(workload, firsts, oracles, out)
        if elapsed is not None:
            times.append(elapsed)
        if i < setups - 1:
            out.problems.extend(srv.stop())
    if not times:
        out.problems.append("no launch answered its first requests correctly")
    return srv, (statistics.median(times) if times else float("nan"))


def _warm_up(workload: Workload, srv, seed: int) -> None:
    """Untimed load until every pool worker has recorded every kernel.

    Uses requests from another seed stream, so the timed phase still
    sends only ranges the server has not seen.
    """
    warm = workload.requests(seed + 7919, WARMUP_SECONDS)
    want = workload.pool_workers * len(workload.kernels)
    records = len(workload.kernels)  # set-up recorded once per kernel
    deadline = time.perf_counter() + WARMUP_CAP_SECONDS
    while True:
        samples, _ = loadgen.closed_loop(
            srv.host,
            srv.port,
            warm,
            connections=workload.connections,
            seconds=WARMUP_SECONDS,
        )
        records += sum(
            1 for s in samples if s.headers.get("x-repro-cache") == "record"
        )
        if records >= want or time.perf_counter() >= deadline:
            return


def _cpu_ticks() -> list[int]:
    """Host-wide CPU ticks from /proc/stat (user ... steal)."""
    with open("/proc/stat") as stat:
        return [int(v) for v in stat.readline().split()[1:9]]


def _steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(1, sum(delta))


def _replay_share(samples) -> float:
    outcomes = Counter(s.headers.get("x-repro-cache") for s in samples)
    return outcomes["replay"] / max(1, len(samples))


# ----------------------------------------------------------------------
# End-to-end run
# ----------------------------------------------------------------------
def run_end_to_end(workload: Workload, seed: int, seconds: float) -> Outcome:
    out = Outcome(stamp(workload, seed, seconds, 0))
    requests = workload.requests(seed, seconds)
    srv, setup_s = _set_up(workload, requests, SETUPS, out)
    try:
        _warm_up(workload, srv, seed)
        ticks = _cpu_ticks()
        samples, wall = loadgen.closed_loop(
            srv.host,
            srv.port,
            requests,
            connections=workload.connections,
            seconds=seconds,
        )
        out.stamp["cpu_steal_share"] = _steal_share(ticks, _cpu_ticks())
        rss = srv.peak_rss_mb()
    finally:
        out.problems.extend(srv.stop())
    verdicts = loadgen.check(samples, requests, {})
    out.count(verdicts)
    good = [s.seconds * 1000.0 for s, ok in zip(samples, verdicts) if ok]
    out.add("setup_s", setup_s, "s")
    out.add("req_per_s", len(good) / wall, "1/s")
    out.add("latency_p50_ms", percentile(good, 50), "ms")
    out.add("rss_mb", rss, "MB")
    out.stamp["latency_samples"] = len(good)
    out.stamp["latency_tail_ms"] = percentile(good, workload.tail)
    out.stamp["replay_share"] = _replay_share(samples)
    return out


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
class _FlightPoller:
    """Reads GET /debug/requests every POLL_EVERY replies."""

    def __init__(self, host: str, port: int):
        self.conn = loadgen.Connection(host, port)
        self.records: dict[str, dict] = {}
        self._replies = 0
        self._lock = threading.Lock()

    def on_sample(self, _sample) -> None:
        with self._lock:
            self._replies += 1
            if self._replies % POLL_EVERY == 0:
                self.poll()

    def poll(self) -> None:
        status, _, body = self.conn.request("GET", "/debug/requests?limit=256")
        if status != 200:
            raise RuntimeError(f"GET /debug/requests answered {status}")
        for record in json.loads(body)["requests"]:
            if record["path"] == "/analyse":
                self.records[record["trace_id"]] = record


def _serve_attribution(
    workload: Workload, srv, requests: list, seed: int, seconds: float, out
) -> tuple[dict, Counter, list]:
    """The traced serving loop.

    The first half runs exactly as the end-to-end run does.  The second
    half stamps each request with its own trace id and reads the flight
    recorder, so every reply joins its server-side record.  The
    difference of the halves' medians is the tracing overhead.  Also
    returns how many traced requests each kernel got, and every sample
    for the oracle check.
    """
    plain, _ = loadgen.closed_loop(
        srv.host, srv.port, requests,
        connections=workload.connections, seconds=seconds / 2,
    )
    poller = _FlightPoller(srv.host, srv.port)
    prefix = f"{random.Random(seed).getrandbits(64):016x}"

    def trace_id(seq: int) -> str:
        return f"{prefix}{seq:016x}"

    try:
        traced, _ = loadgen.closed_loop(
            srv.host, srv.port, requests,
            connections=workload.connections, seconds=seconds / 2,
            headers_for=lambda seq: {"X-Repro-Trace": trace_id(seq)},
            on_sample=poller.on_sample,
        )
        poller.poll()
    finally:
        poller.conn.close()
    samples = plain + traced

    handler, dispatch, outside = [], [], []
    for sample in traced:
        record = poller.records.get(trace_id(sample.seq))
        if record is None or sample.error:
            continue
        handler.append(record["duration_ms"])
        dispatch.append(record["stages_ms"].get("dispatch", 0.0))
        outside.append(sample.seconds * 1000.0 - record["duration_ms"])
    if len(handler) < len(traced) // 2:
        out.problems.append(
            f"only {len(handler)} of {len(traced)} traced replies joined "
            "a flight record"
        )
    sizes = [
        int(s.headers.get("x-repro-batch", "1/0").split("/")[0])
        for s in traced
        if not s.error
    ]
    p50_plain = statistics.median(s.seconds * 1000.0 for s in plain)
    p50_traced = statistics.median(s.seconds * 1000.0 for s in traced)
    metrics = {
        "serve.app.handler_ms": statistics.median(handler),
        "serve.app.dispatch_ms": statistics.median(dispatch),
        "serve.http.outside_handler_ms": statistics.median(outside),
        "serve.batching.batch_size_mean": statistics.fmean(sizes),
        "scorpio.trace_cache.replay_share": _replay_share(samples),
        "trace.latency_p50_ms": p50_traced,
        "trace.overhead_p50_ms": p50_traced - p50_plain,
    }
    return metrics, Counter(requests[s.index].kernel for s in traced), samples


def _attribution(metrics: dict, mix: Counter, process: bool) -> dict:
    """The parts of the client p50 that isolated calls measure.

    Per-kernel parts are weighted by the kernels' shares of the traced
    requests.
    """
    total = sum(mix.values())
    names = [
        "serve.http.read_request_ms",
        "serve.kernels.parse_intervals_ms",
        "serve.batching.wait_ms",
    ]
    if process:
        names.append("mp.executor.overhead_ms")
    parts = {name: metrics[name] for name in names}
    for prefix in (
        "scorpio.trace_cache.replay_ms",
        "scorpio.serialize.report_to_json_ms",
    ):
        parts[prefix] = sum(
            metrics[f"{prefix}.{k}"] * n / total for k, n in mix.items()
        )
    return parts


def run_traced(workload: Workload, seed: int, seconds: float) -> Outcome:
    """Every per-layer metric, from a run separate from the timed one.

    Launches once, warms up, runs the traced loop and tears the server
    down; then times the public calls of every layer in this process.
    Prints the client p50 beside its attributed parts.
    """
    out = Outcome(stamp(workload, seed, seconds, 1))
    requests = workload.requests(seed, seconds)
    srv, _ = _set_up(workload, requests, 1, out)
    try:
        _warm_up(workload, srv, seed)
        metrics, mix, samples = _serve_attribution(
            workload, srv, requests, seed, seconds, out
        )
    finally:
        out.problems.extend(srv.stop())
    out.count(loadgen.check(samples, requests, {}))
    metrics.update(layers.probe_all(seed, requests))
    lane_metrics, verdicts = layers.lane_layers(seed, 5)
    metrics.update(lane_metrics)
    out.count(verdicts)

    parts = _attribution(metrics, mix, "process" in workload.flags)
    client = metrics["trace.latency_p50_ms"]
    parts["serve.unattributed_ms"] = client - sum(parts.values())
    metrics["serve.unattributed_ms"] = parts["serve.unattributed_ms"]
    print(f"client-observed p50 {client:10.3f} ms")
    for name, value in parts.items():
        print(f"  {name:<40} {value:10.3f} ms")

    for name, value in metrics.items():
        out.add(name, value, _unit(name))
    return out


def _unit(name: str) -> str:
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if "body_kb" in name:
        return "KB"
    if "replay_share" in name:
        return "ratio"
    return "count"
