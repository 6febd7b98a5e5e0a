"""Micro-batched /analyse throughput vs the per-request path.

Drives one kernel with 16 concurrent clients against two in-process
servers: one with dynamic micro-batching enabled (the default config)
and one with ``max_batch=1`` (every request pays its own replay sweep).
Under concurrency the coalescer packs companion requests as extra lanes
of one ``forward_lanes`` + lane-batched adjoint sweep, so batched
throughput should scale well past the per-request ceiling.  Records
``service.batched_req_per_sec`` (with the measured speedup as metadata)
to ``BENCH_core.json`` via :mod:`record`.

It also records ``service.lone_p50_ms``: one client on the default
config, where every request arrives alone.  The work-conserving batcher
dispatches such a request at once, so its median should match the
unbatched path's instead of paying a gathering window.
"""

import os
import statistics
import threading
import time

from record import record_value

from repro.serve import ServiceConfig, ServiceThread

KERNEL = "blackscholes"
CLIENTS = 16
REQUESTS_PER_CLIENT = 12
LONE_REQUESTS = 100


def _drive(service, n_clients: int, per_client: int):
    """Concurrent warm-path requests; returns (wall seconds, batch sizes)."""
    barrier = threading.Barrier(n_clients)
    sizes: list[int] = []
    errors: list[BaseException] = []
    lock = threading.Lock()

    def worker() -> None:
        try:
            with service.client() as client:
                barrier.wait()
                local = []
                for _ in range(per_client):
                    _, _, (size, _), _ = client.analyse_detail(KERNEL)
                    local.append(size)
            with lock:
                sizes.extend(local)
        except BaseException as exc:
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(n_clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    assert not errors, errors
    return wall, sizes


def _throughput(config: ServiceConfig) -> tuple[float, list[int]]:
    with ServiceThread(config=config) as service:
        with service.client() as client:
            _, outcome = client.analyse_raw(KERNEL)
            assert outcome == "record"
            _, outcome = client.analyse_raw(KERNEL)
            assert outcome == "replay"
        wall, sizes = _drive(service, CLIENTS, REQUESTS_PER_CLIENT)
    total = CLIENTS * REQUESTS_PER_CLIENT
    assert len(sizes) == total
    return total / wall, sizes


def test_batched_throughput(benchmark):
    """Coalesced lane sweeps beat per-request replay under concurrency."""
    batched_rps, sizes = _throughput(ServiceConfig(port=0))
    unbatched_rps, solo_sizes = _throughput(
        ServiceConfig(port=0, max_batch=1)
    )
    assert all(size == 1 for size in solo_sizes)
    assert max(sizes) > 1, "the coalescer never batched anything"
    speedup = batched_rps / unbatched_rps
    mean_batch = sum(sizes) / len(sizes)

    # One batched warm request for pytest-benchmark's own table.
    with ServiceThread(config=ServiceConfig(port=0)) as service:
        with service.client() as client:
            client.analyse_raw(KERNEL)
            benchmark.pedantic(
                client.analyse_raw, args=(KERNEL,), rounds=5, iterations=1
            )

    benchmark.extra_info["batched_req_per_sec"] = round(batched_rps, 1)
    benchmark.extra_info["unbatched_req_per_sec"] = round(unbatched_rps, 1)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["mean_batch"] = round(mean_batch, 2)
    record_value(
        "service.batched_req_per_sec",
        batched_rps,
        unit="req/s",
        clients=CLIENTS,
        requests=CLIENTS * REQUESTS_PER_CLIENT,
        kernel=KERNEL,
        unbatched_req_per_sec=round(unbatched_rps, 1),
        speedup=round(speedup, 2),
        mean_batch=round(mean_batch, 2),
    )

    # The acceptance bar: at 16 concurrent clients, coalescing must at
    # least double the per-request path's throughput.
    assert speedup >= 2.0, (
        f"batched {batched_rps:.1f} req/s is only {speedup:.2f}x the "
        f"per-request {unbatched_rps:.1f} req/s"
    )


def test_lone_client_latency(benchmark):
    """A request that arrives alone is not held for companions.

    One sequential client on the default config and one on
    ``max_batch=1``; the two servers run side by side and take requests
    in turn, so a change in host load moves both medians alike.
    """
    batched = ServiceThread(config=ServiceConfig(port=0))
    unbatched = ServiceThread(config=ServiceConfig(port=0, max_batch=1))
    with batched, unbatched:
        with batched.client() as lone, unbatched.client() as solo:
            lone_s, solo_s = [], []
            lone.analyse_raw(KERNEL)
            solo.analyse_raw(KERNEL)
            for _ in range(LONE_REQUESTS):
                for client, sink in ((lone, lone_s), (solo, solo_s)):
                    t0 = time.perf_counter()
                    _, outcome = client.analyse_raw(KERNEL)
                    sink.append(time.perf_counter() - t0)
                    assert outcome == "replay"
            benchmark.pedantic(
                lone.analyse_raw, args=(KERNEL,), rounds=5, iterations=1
            )
    lone_ms = statistics.median(lone_s) * 1000.0
    unbatched_ms = statistics.median(solo_s) * 1000.0

    benchmark.extra_info["lone_p50_ms"] = round(lone_ms, 3)
    benchmark.extra_info["unbatched_p50_ms"] = round(unbatched_ms, 3)
    record_value(
        "service.lone_p50_ms",
        lone_ms,
        unit="ms",
        clients=1,
        kernel=KERNEL,
        requests=LONE_REQUESTS,
        unbatched_p50_ms=round(unbatched_ms, 3),
        cpus=os.cpu_count(),
    )

    # The acceptance bar: a lone request rides alone, so it must cost
    # what the unbatched path costs, not that plus a gathering window
    # (the old 2 ms default would fail this by a full millisecond).
    assert lone_ms < unbatched_ms + 1.0, (
        f"lone p50 {lone_ms:.2f} ms vs unbatched {unbatched_ms:.2f} ms: "
        "requests that arrive alone are being held"
    )
