"""Concurrent /analyse requests with distinct inputs never see each other.

The service-level twin of the trace-cache concurrency property: many
clients at once, each with its *own* seeded input ranges, on both
analysis backends.  Requests coalesce into lane batches and, on the
process backend, one kernel's batches run on several pool workers at
once; every body must still be byte-identical to an in-process analysis
of that request's own inputs.  Identical-input hammering cannot see
this kind of crosstalk, because every wrong answer would look right.
"""

import random
import threading

import pytest

from repro.scorpio.serialize import report_to_json
from repro.serve import ServiceConfig, ServiceThread, default_registry
from repro.serve.kernels import parse_intervals

KERNELS = ("sobel", "blackscholes", "nbody")
CLIENTS = 6
REQUESTS_PER_CLIENT = 3


def _seeded_inputs(entry, rng: random.Random) -> list[list[float]]:
    """The kernel's default ranges, each centre moved by up to ±1%."""
    inputs = []
    for iv in parse_intervals(None, entry):
        shift = rng.uniform(-0.01, 0.01) * max(1.0, abs(iv.lo + iv.hi) / 2)
        inputs.append([iv.lo + shift, iv.hi + shift])
    return inputs


@pytest.fixture(scope="module", params=["thread", "process"])
def service(request):
    config = ServiceConfig(port=0, executor=request.param, workers=2)
    with ServiceThread(config=config) as thread:
        yield thread


@pytest.mark.parametrize("kernel", KERNELS)
def test_distinct_concurrent_inputs_get_their_own_bytes(service, kernel):
    entry = default_registry()[kernel]
    rng = random.Random(f"crosstalk-{kernel}")
    inputs = [
        [_seeded_inputs(entry, rng) for _ in range(REQUESTS_PER_CLIENT)]
        for _ in range(CLIENTS)
    ]
    with service.client() as client:
        client.analyse_raw(kernel)  # warm: the round below replays

    barrier = threading.Barrier(CLIENTS)
    bodies: list[list[bytes]] = [[] for _ in range(CLIENTS)]
    errors: list[BaseException] = []

    def worker(i: int) -> None:
        try:
            with service.client() as client:
                barrier.wait(timeout=30.0)
                for ranges in inputs[i]:
                    body, _ = client.analyse_raw(kernel, ranges)
                    bodies[i].append(body)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(CLIENTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    assert not any(t.is_alive() for t in threads), "a client hung"
    assert not errors, errors

    for i in range(CLIENTS):
        assert len(bodies[i]) == REQUESTS_PER_CLIENT
        for j, ranges in enumerate(inputs[i]):
            report = entry.analyse_in_process(parse_intervals(ranges, entry))
            expect = report_to_json(report).encode("utf-8")
            assert bodies[i][j] == expect, (
                f"client {i} request {j}: body is not the analysis of "
                "its own inputs"
            )
