"""Micro-batched /analyse (:mod:`repro.serve.batching`) + warm starts.

The contract under test: coalescing concurrent requests into one
lane-batched sweep changes *nothing* about the responses — N parallel
batched answers are byte-identical to the same N requests issued
sequentially against an unbatched server (and to in-process analysis) —
and a server restarted over a populated tape store serves its first
request as a replay.
"""

import asyncio
import gc
import threading
import warnings

import pytest

from repro.scorpio import TraceCache
from repro.scorpio.serialize import report_to_json
from repro.serve import ServiceConfig, ServiceThread, default_registry
from repro.serve.batching import KernelBatcher
from repro.serve.kernels import parse_intervals

KERNELS = ("dct", "sobel", "blackscholes", "fisheye", "nbody")


def _inputs_for(entry, i: int):
    """Request i's input ranges: the kernel defaults, nudged per i."""
    return [
        [iv.lo - 0.001 * i, iv.hi + 0.001 * i]
        for iv in parse_intervals(None, entry)
    ]


def _parallel(service, kernel, inputs_list):
    """One thread per request, all released together; ordered results."""
    n = len(inputs_list)
    barrier = threading.Barrier(n)
    results = [None] * n
    errors = []

    def worker(i):
        try:
            with service.client() as client:
                barrier.wait()
                results[i] = client.analyse_detail(kernel, inputs_list[i])
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    return results


class TestBatchedByteIdentity:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_parallel_batched_equals_sequential_unbatched(self, kernel):
        registry = default_registry()
        entry = registry[kernel]
        n = 4
        inputs_list = [_inputs_for(entry, i) for i in range(n)]

        # Reference: in-process analysis through a plain TraceCache —
        # the same bytes an unbatched server would answer.
        cache = TraceCache()
        expect = []
        for inputs in inputs_list:
            report, _ = cache.analyse_outcome(
                entry.cache_key,
                entry.recorder,
                parse_intervals(inputs, entry),
                simplify=entry.simplify,
            )
            expect.append(report_to_json(report).encode("utf-8"))

        with ServiceThread() as service:
            # Warm the trace so every parallel request is a replay lane.
            with service.client() as client:
                client.analyse(kernel, inputs_list[0])
            results = _parallel(service, kernel, inputs_list)

        for i, (body, outcome, (size, index), trace_id) in enumerate(results):
            assert body == expect[i], f"lane {i} not byte-identical"
            assert outcome == "replay"
            assert 1 <= size <= 16 and 0 <= index < size
            assert len(trace_id) == 32

    def test_concurrent_requests_coalesce(self):
        registry = default_registry()
        entry = registry["sobel"]
        n = 8
        inputs_list = [_inputs_for(entry, 0)] * n
        with ServiceThread() as service:
            with service.client() as client:
                client.analyse("sobel", inputs_list[0])
            results = _parallel(service, "sobel", inputs_list)
        sizes = [size for _, _, (size, _), _ in results]
        assert max(sizes) > 1, f"nothing coalesced: {sizes}"
        indices = [
            (size, index) for _, _, (size, index), _ in results if size > 1
        ]
        # Lane indices within one batch size are distinct per batch.
        assert all(0 <= index < size for size, index in indices)


class TestConfigSurface:
    def test_healthz_reports_batching_config(self, tmp_path):
        config = ServiceConfig(
            port=0,
            batch_window_ms=1.5,
            max_batch=7,
            store_dir=str(tmp_path),
        )
        with ServiceThread(config=config) as service:
            with service.client() as client:
                health = client.healthz()
        assert health["batch_window_ms"] == 1.5
        assert health["max_batch"] == 7
        assert health["store_dir"] == str(tmp_path)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_max_batch_one_disables_batching(self, backend):
        entry = default_registry()["blackscholes"]
        expect = report_to_json(
            entry.analyse_in_process(entry.defaults())
        ).encode("utf-8")
        with ServiceThread(
            config=ServiceConfig(
                port=0, max_batch=1, executor=backend, workers=2
            )
        ) as service:
            with service.client() as client:
                body, _, batch, _ = client.analyse_detail("blackscholes")
                assert batch == (1, 0)
                assert body == expect
                body, _, batch, _ = client.analyse_detail("blackscholes")
                assert batch == (1, 0)
                assert body == expect

    def test_store_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TAPE_DIR", str(tmp_path))
        with ServiceThread() as service:
            assert service.service.config.store_dir == str(tmp_path)
            with service.client() as client:
                assert client.healthz()["store_dir"] == str(tmp_path)


class TestWarmStart:
    def test_restart_serves_first_request_as_replay(self, tmp_path):
        config = lambda: ServiceConfig(port=0, store_dir=str(tmp_path))
        with ServiceThread(config=config()) as service:
            with service.client() as client:
                body, outcome, _, _ = client.analyse_detail("blackscholes")
                assert outcome == "record"

        # A brand-new server over the same store: no recording at all.
        with ServiceThread(config=config()) as service:
            with service.client() as client:
                body2, outcome2, _, _ = client.analyse_detail("blackscholes")
            stats = service.service.caches["blackscholes"].stats()
        assert outcome2 == "replay"
        assert body2 == body
        assert stats["records"] == 0 and stats["replays"] == 1


class TestKernelBatcher:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_coalesces_up_to_max_batch(self):
        calls = []

        async def main():
            async def dispatch(batch):
                calls.append(len(batch))
                return [("ok", item) for item in batch]

            batcher = KernelBatcher(
                window=0.01, max_batch=3, dispatch=dispatch
            )
            results = await asyncio.gather(
                *(batcher.submit(i) for i in range(7))
            )
            return results

        results = self._run(main())
        assert [item[1] for item, _, _ in results] == list(range(7))
        assert all(1 <= size <= 3 and 0 <= index < size for _, size, index in results)
        assert max(calls) <= 3 and sum(calls) == 7

    def test_per_request_error_isolation(self):
        async def main():
            async def dispatch(batch):
                return [
                    ("err", ValueError("bad lane"))
                    if item == "poison"
                    else ("ok", item)
                    for item in batch
                ]

            batcher = KernelBatcher(
                window=0.005, max_batch=8, dispatch=dispatch
            )
            return await asyncio.gather(
                batcher.submit("a"),
                batcher.submit("poison"),
                batcher.submit("b"),
            )

        a, poison, b = self._run(main())
        assert a[0] == ("ok", "a") and b[0] == ("ok", "b")
        assert poison[0][0] == "err"
        assert isinstance(poison[0][1], ValueError)

    def test_dispatch_exception_fans_out(self):
        async def main():
            async def dispatch(batch):
                raise RuntimeError("sweep exploded")

            batcher = KernelBatcher(
                window=0.005, max_batch=8, dispatch=dispatch
            )
            results = await asyncio.gather(
                batcher.submit(1),
                batcher.submit(2),
                return_exceptions=True,
            )
            return results

        results = self._run(main())
        assert all(
            isinstance(r, RuntimeError) and "sweep exploded" in str(r)
            for r in results
        )

    def test_wrong_item_count_is_an_error(self):
        async def main():
            async def dispatch(batch):
                return [("ok", 1)] * (len(batch) + 1)

            batcher = KernelBatcher(window=0.0, max_batch=4, dispatch=dispatch)
            return await asyncio.gather(
                batcher.submit(1), return_exceptions=True
            )

        [result] = self._run(main())
        assert isinstance(result, RuntimeError)

    def test_rejects_bad_max_batch(self):
        with pytest.raises(ValueError):
            KernelBatcher(window=0.0, max_batch=0, dispatch=None)


class _FrozenClockLoop(asyncio.SelectorEventLoop):
    """An event loop whose clock never advances: no timer ever fires, so
    anything a test sees happen took no timed wait."""

    def time(self) -> float:
        return 0.0


def _run_frozen(coro, max_steps: int = 1000):
    """Run ``coro`` on a frozen-clock loop, one iteration at a time.

    Fails instead of hanging when the coroutine needs the clock to move.
    """
    loop = _FrozenClockLoop()
    try:
        task = loop.create_task(coro)
        for _ in range(max_steps):
            loop.call_soon(loop.stop)
            loop.run_forever()
            if task.done():
                return task.result()
        task.cancel()
        raise AssertionError("the coroutine waited on the clock")
    finally:
        loop.close()


async def _spin(steps: int = 5) -> None:
    """Let ready callbacks and tasks run, without letting time pass."""
    for _ in range(steps):
        await asyncio.sleep(0)


def _gated_dispatch(calls: list, gate: asyncio.Event):
    """A stub dispatch that records each batch, then waits for ``gate``."""

    async def dispatch(batch):
        calls.append(list(batch))
        await gate.wait()
        return [("ok", item) for item in batch]

    return dispatch


class TestWorkConservingBatcher:
    def test_lone_submit_dispatches_without_timed_wait(self):
        calls = []

        async def main():
            gate = asyncio.Event()
            gate.set()
            batcher = KernelBatcher(
                window=ServiceConfig().batch_window_ms / 1000.0,
                max_batch=16,
                dispatch=_gated_dispatch(calls, gate),
            )
            task = asyncio.ensure_future(batcher.submit("a"))
            await _spin()
            assert task.done(), "a lone request waited on the clock"
            return task.result()

        item, size, index = _run_frozen(main())
        assert calls == [["a"]]
        assert (item, size, index) == (("ok", "a"), 1, 0)

    def test_queued_requests_leave_together_capped_at_max_batch(self):
        calls = []

        async def main():
            gate = asyncio.Event()
            batcher = KernelBatcher(
                window=0.0, max_batch=3, dispatch=_gated_dispatch(calls, gate)
            )
            first = asyncio.ensure_future(batcher.submit("a"))
            await _spin()
            assert calls == [["a"]]
            rest = [
                asyncio.ensure_future(batcher.submit(x)) for x in "bcde"
            ]
            await _spin()
            # One slot, and it is busy: everything else waits in the queue.
            assert calls == [["a"]]
            gate.set()
            return await asyncio.gather(first, *rest)

        results = _run_frozen(main())
        assert calls == [["a"], ["b", "c", "d"], ["e"]]
        assert [(size, index) for _, size, index in results] == [
            (1, 0), (3, 0), (3, 1), (3, 2), (1, 0),
        ]
        assert [item for item, _, _ in results] == [
            ("ok", x) for x in "abcde"
        ]

    def test_two_slots_run_two_batches_at_once(self):
        calls = []

        async def main():
            arrived = 0
            both_in = asyncio.Event()

            async def dispatch(batch):
                nonlocal arrived
                calls.append(list(batch))
                arrived += 1
                if arrived == 2:
                    both_in.set()
                # A barrier both batches must reach: with one slot the
                # second batch could not start and this would time out.
                await asyncio.wait_for(both_in.wait(), timeout=10.0)
                return [("ok", item) for item in batch]

            batcher = KernelBatcher(
                window=0.0, max_batch=4, dispatch=dispatch, slots=2
            )
            first = asyncio.ensure_future(batcher.submit("a"))
            await _spin()
            second = asyncio.ensure_future(batcher.submit("b"))
            return await asyncio.gather(first, second)

        results = asyncio.run(main())
        assert calls == [["a"], ["b"]]
        assert [item for item, _, _ in results] == [("ok", "a"), ("ok", "b")]

    def test_positive_window_holds_a_free_slot_for_companions(self):
        calls = []

        async def main():
            gate = asyncio.Event()
            gate.set()
            batcher = KernelBatcher(
                window=0.002, max_batch=3, dispatch=_gated_dispatch(calls, gate)
            )
            tasks = [asyncio.ensure_future(batcher.submit(x)) for x in "ab"]
            await _spin()
            # The clock is frozen, so the window never closes by itself.
            assert calls == []
            # Reaching max_batch releases the held dispatch at once.
            tasks.append(asyncio.ensure_future(batcher.submit("c")))
            return await asyncio.gather(*tasks)

        results = _run_frozen(main())
        assert calls == [["a", "b", "c"]]
        assert [(size, index) for _, size, index in results] == [
            (3, 0), (3, 1), (3, 2),
        ]

    def test_positive_window_coalesces_up_to_max_batch(self):
        calls = []

        async def main():
            gate = asyncio.Event()
            gate.set()
            batcher = KernelBatcher(
                window=0.01, max_batch=3, dispatch=_gated_dispatch(calls, gate)
            )
            return await asyncio.gather(*(batcher.submit(i) for i in range(7)))

        results = asyncio.run(main())
        assert calls == [[0, 1, 2], [3, 4, 5], [6]]
        assert [item[1] for item, _, _ in results] == list(range(7))

    def test_submit_reports_queue_time(self):
        async def main():
            gate = asyncio.Event()
            batcher = KernelBatcher(
                window=0.0, max_batch=4, dispatch=_gated_dispatch([], gate)
            )
            first, second = {}, {}
            a = asyncio.ensure_future(batcher.submit("a", stages=first))
            await _spin()
            b = asyncio.ensure_future(batcher.submit("b", stages=second))
            await _spin()
            # "b" has not been dispatched yet: no queue time so far.
            assert "queue" in first and "queue" not in second
            gate.set()
            await asyncio.gather(a, b)
            return first, second

        first, second = asyncio.run(main())
        assert first["queue"] >= 0.0 and second["queue"] >= 0.0

    def test_rejects_bad_slots(self):
        with pytest.raises(ValueError):
            KernelBatcher(window=0.0, max_batch=4, dispatch=None, slots=0)

    def test_close_mid_dispatch_fails_everything_cleanly(self):
        problems = []
        cancelled = []

        async def main():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: problems.append(context["message"])
            )
            entered = asyncio.Event()
            gate = asyncio.Event()

            async def dispatch(batch):
                entered.set()
                try:
                    await gate.wait()
                except asyncio.CancelledError:
                    cancelled.append(list(batch))
                    raise
                return [("ok", item) for item in batch]

            batcher = KernelBatcher(window=0.0, max_batch=4, dispatch=dispatch)
            in_flight = asyncio.ensure_future(batcher.submit("a"))
            await asyncio.wait_for(entered.wait(), timeout=10.0)
            queued = asyncio.ensure_future(batcher.submit("b"))
            await _spin()
            batcher.close()
            results = await asyncio.gather(
                in_flight, queued, return_exceptions=True
            )
            await _spin()
            with pytest.raises(RuntimeError):
                await asyncio.wait_for(batcher.submit("late"), timeout=10.0)
            return results

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = asyncio.run(main(), debug=True)
            gc.collect()
        assert all(
            isinstance(r, RuntimeError) and "shut down" in str(r)
            for r in results
        ), results
        assert cancelled == [["a"]]
        assert problems == []
