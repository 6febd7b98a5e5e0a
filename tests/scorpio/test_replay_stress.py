"""Concurrent replays of one trace never see each other's inputs.

Eight threads share one :class:`TraceCache` key, each with its own seeded
inputs, mixing scalar (``analyse_outcome``) and lane-batched
(``analyse_batch_outcome``) calls.  A one-microsecond switch interval
makes the interpreter hand the GIL over between almost every bytecode, so
any state two replays share — value columns, partials, sweep or Eq. 11
work buffers — shows up as a report computed on another thread's inputs.
Every body must be byte-identical to a direct recording of its own
inputs, on a cold cache (the threads race the first recording), a warm
one, and one loaded from a :class:`TapeStore`.  The multi-output recorder
takes the vector-mode sweep and Eq. 11 path.
"""

import random
import sys
import threading

import pytest

from repro.ad import intrinsics as op
from repro.intervals import Interval
from repro.scorpio import Analysis, TraceCache
from repro.scorpio.serialize import report_to_json

THREADS = 8
CALLS_PER_THREAD = 4
KEY = ("stress",)


def _record_single(ivs) -> Analysis:
    an = Analysis()
    with an:
        x = an.input(ivs[0], name="x")
        y = an.input(ivs[1], name="y")
        t = an.intermediate(op.sin(x * y) + x, "t")
        an.output(t * t + y / 4.0, name="out")
    return an


def _record_pair(ivs) -> Analysis:
    an = Analysis()
    with an:
        x = an.input(ivs[0], name="x")
        y = an.input(ivs[1], name="y")
        t = an.intermediate(op.sin(x * y) + x, "t")
        an.output(t * t + y / 4.0, name="u")
        an.output(op.exp(-t) * x - y, name="v")
    return an


def _inputs(rng: random.Random) -> list[Interval]:
    return [
        Interval.centered(rng.uniform(0.2, 2.0), rng.uniform(0.01, 0.2)),
        Interval.centered(rng.uniform(0.2, 2.0), rng.uniform(0.01, 0.2)),
    ]


def _cache(kind: str, recorder, tmp_path) -> TraceCache:
    seed_inputs = _inputs(random.Random(-1))
    if kind == "cold":
        return TraceCache()
    if kind == "warm":
        cache = TraceCache()
        cache.analyse(KEY, recorder, seed_inputs)
        return cache
    TraceCache(store_dir=str(tmp_path)).analyse(KEY, recorder, seed_inputs)
    return TraceCache(store_dir=str(tmp_path))


@pytest.mark.parametrize("recorder", [_record_single, _record_pair])
@pytest.mark.parametrize("kind", ["cold", "warm", "store"])
def test_concurrent_bodies_match_recording(kind, recorder, tmp_path):
    cache = _cache(kind, recorder, tmp_path)
    barrier = threading.Barrier(THREADS)
    served: list[tuple[list[Interval], str]] = []
    errors: list[BaseException] = []
    lock = threading.Lock()

    def worker(index: int) -> None:
        rng = random.Random(index)
        try:
            barrier.wait(timeout=60)
            for call in range(CALLS_PER_THREAD):
                if (index + call) % 2:
                    batch = [_inputs(rng) for _ in range(rng.randint(2, 3))]
                    results = cache.analyse_batch_outcome(
                        KEY, recorder, batch
                    )
                else:
                    batch = [_inputs(rng)]
                    results = [cache.analyse_outcome(KEY, recorder, batch[0])]
                bodies = [report_to_json(report) for report, _ in results]
                with lock:
                    served.extend(zip(batch, bodies))
        except BaseException as exc:  # surfaced below, not lost in a thread
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
    ]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)

    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert len({tuple(ivs) for ivs, _ in served}) == len(served)
    for ivs, body in served:
        expected = recorder(ivs).analyse(compiled=True)
        assert body == report_to_json(expected), ivs
