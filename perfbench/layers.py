"""Per-layer timings, taken by calling each layer's public API directly.

Nothing here reaches inside ``src/``: every number is the wall time of
one public call (or a difference of two), measured in the benchmark's
own process with nothing else running, and reported as the median over
repetitions.  The calls and the metrics they produce:

=====================================  ==================================
call                                   metric
=====================================  ==================================
``KernelEntry.recorder`` (ad.tape)     ``ad.tape.record_ms.<k>``
``CompiledTape(tape)``                 ``ad.compiled.compile_ms.<k>``
``TraceStructure(...)``                ``scorpio.compiled.structure_ms.<k>``
``TraceCache.analyse_outcome`` warm    ``scorpio.trace_cache.replay_ms.<k>``
``CompiledTape.forward``               ``ad.compiled.forward_ms.<k>``
``adjoint`` / ``adjoint_vector``       ``ad.compiled.sweep_ms.<k>``
``eq11_from_sweep`` / ``eq11_vector``  ``scorpio.compiled.eq11_ms.<k>``
``analyse_compiled_tape`` - the two    ``scorpio.compiled.assemble_ms.<k>``
``report_to_json``                     ``scorpio.serialize.report_to_json_ms.<k>``
``read_request``                       ``serve.http.read_request_ms``
``parse_intervals``                    ``serve.kernels.parse_intervals_ms``
``KernelBatcher.submit`` -> dispatch   ``serve.batching.wait_ms``
``ProcessExecutor.run`` - task time    ``mp.executor.overhead_ms``
``analyse_batch_outcome`` (L=2)        ``scorpio.trace_cache.replay_batch_ms.blackscholes``
``CachedTrace.forward_lanes``          ``ad.compiled.forward_lanes_ms.<lanes>``
``CachedTrace.lane_significances``     ``scorpio.trace_cache.lane_significances_ms.<lanes>``
=====================================  ==================================
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import random
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import loadgen
from repro.ad.compiled import CompiledTape
from repro.scorpio import CachedTrace, TraceCache, TraceStructure
from repro.scorpio import analyse_compiled_tape
from repro.scorpio.compiled import eq11_from_sweep, eq11_vector
from repro.scorpio.serialize import report_to_json
from repro.serve.kernels import parse_intervals

KERNELS = ("dct", "sobel", "blackscholes", "fisheye", "nbody")
LANE_VARIANTS = 16
LANE_IMAGE_SIDE = 128
LANE_OPTIONS = 4096
LANES_EXPECTED = Path(__file__).resolve().parent / "lanes_expected.json"
# Timings taken per kernel; each kernel also reports
# scorpio.serialize.body_kb.<k> and ad.compiled.nodes.<k>.
PER_KERNEL_MS = (
    "ad.tape.record_ms",
    "ad.compiled.compile_ms",
    "scorpio.compiled.structure_ms",
    "scorpio.trace_cache.replay_ms",
    "ad.compiled.forward_ms",
    "ad.compiled.sweep_ms",
    "scorpio.compiled.eq11_ms",
    "scorpio.compiled.assemble_ms",
    "scorpio.serialize.report_to_json_ms",
)


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def kernel_layers(kernel: str, requests: list, reps: int) -> dict:
    """Record, compile, structure, replay and every replay stage of one
    kernel, on ``reps`` of the workload's own requests."""
    entry = inputs.registry()[kernel]
    samples = [parse_intervals(r.inputs, entry) for r in requests[:reps]]
    cols: dict[str, list[float]] = {name: [] for name in PER_KERNEL_MS}
    trace = None
    for ivs in samples:
        seconds, analysis = _timed(entry.recorder, ivs)
        cols["ad.tape.record_ms"].append(seconds)
        seconds, ct = _timed(CompiledTape, analysis.tape)
        cols["ad.compiled.compile_ms"].append(seconds)
        trace = CachedTrace(analysis, simplify=entry.simplify)
        seconds, _ = _timed(
            TraceStructure, ct, trace.output_ids, simplify=entry.simplify
        )
        cols["scorpio.compiled.structure_ms"].append(seconds)

    cache = TraceCache()
    cache.analyse_outcome(
        entry.cache_key, entry.recorder, samples[0], simplify=entry.simplify
    )
    for ivs in samples:
        seconds, (report, outcome) = _timed(
            cache.analyse_outcome,
            entry.cache_key,
            entry.recorder,
            ivs,
            simplify=entry.simplify,
        )
        if outcome != "replay":
            raise RuntimeError(f"{kernel}: warm call was a {outcome}")
        cols["scorpio.trace_cache.replay_ms"].append(seconds)

    ct = trace.ct
    outputs = trace.output_ids
    scratch: dict = {}
    body = b""
    for ivs in samples:
        seconds, _ = _timed(ct.forward, ivs)
        cols["ad.compiled.forward_ms"].append(seconds)
        if len(outputs) == 1:
            sweep, (alo, ahi) = _timed(ct.adjoint, {outputs[0]: 1.0})
            eq11, _ = _timed(
                eq11_from_sweep,
                ct.value_lo,
                ct.value_hi,
                alo,
                ahi,
                interval_mode=ct.interval_mode,
            )
        else:
            sweep, (alo, ahi) = _timed(ct.adjoint_vector, outputs)
            eq11, _ = _timed(
                eq11_vector,
                ct.value_lo,
                ct.value_hi,
                alo,
                ahi,
                interval_mode=ct.interval_mode,
                scratch=scratch,
            )
        total, report = _timed(
            analyse_compiled_tape,
            ct,
            outputs,
            input_ids=trace.input_ids,
            intermediate_ids=trace.intermediate_ids,
            delta=trace.delta,
            simplify=trace.simplify,
            structure=trace.structure,
        )
        cols["ad.compiled.sweep_ms"].append(sweep)
        cols["scorpio.compiled.eq11_ms"].append(eq11)
        cols["scorpio.compiled.assemble_ms"].append(total - sweep - eq11)
        seconds, text = _timed(report_to_json, report)
        cols["scorpio.serialize.report_to_json_ms"].append(seconds)
        body = text.encode("utf-8")
    if body != requests[len(samples) - 1].oracle():
        raise RuntimeError(f"{kernel}: replayed report differs from oracle")

    out = {
        f"{name}.{kernel}": _ms(statistics.median(values))
        for name, values in cols.items()
    }
    out[f"scorpio.serialize.body_kb.{kernel}"] = len(body) / 1024.0
    out[f"ad.compiled.nodes.{kernel}"] = float(ct.n)
    return out


def http_layers(requests: list, reps: int) -> dict:
    """``read_request`` on the exact request bytes, ``parse_intervals``
    on their decoded payloads."""
    from repro.serve.http import read_request

    chosen = requests[:reps]
    raw = [
        loadgen.encode_request("127.0.0.1", "POST", "/analyse", r.body)
        for r in chosen
    ]

    async def read_all() -> list[float]:
        times = []
        for data in raw:
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            t0 = time.perf_counter()
            await read_request(reader)
            times.append(time.perf_counter() - t0)
        return times

    read_times = asyncio.run(read_all())
    parse_times = []
    for r in chosen:
        raw_inputs = r.inputs
        entry = inputs.registry()[r.kernel]
        seconds, _ = _timed(parse_intervals, raw_inputs, entry)
        parse_times.append(seconds)
    return {
        "serve.http.read_request_ms": _ms(statistics.median(read_times)),
        "serve.kernels.parse_intervals_ms": _ms(
            statistics.median(parse_times)
        ),
    }


def batching_wait(reps: int) -> dict:
    """Time from ``KernelBatcher.submit`` to the dispatch call for a
    request that arrives alone, with the service's shipped window."""
    from repro.serve import ServiceConfig
    from repro.serve.batching import KernelBatcher

    config = ServiceConfig()

    async def probe() -> list[float]:
        starts: list[float] = []

        async def dispatch(batch):
            starts.append(time.perf_counter())
            return [("ok", b"", "replay")] * len(batch)

        batcher = KernelBatcher(
            window=config.batch_window_ms / 1000.0,
            max_batch=config.max_batch,
            dispatch=dispatch,
            name="probe",
        )
        waits = []
        try:
            for _ in range(reps):
                t0 = time.perf_counter()
                await batcher.submit(None)
                waits.append(starts[-1] - t0)
        finally:
            batcher.close()
        return waits

    return {"serve.batching.wait_ms": _ms(statistics.median(asyncio.run(probe())))}


def self_timed_analyse(kernel: str, raw_inputs: list) -> tuple[bytes, float]:
    """A pool task that times its own compute (runs in the worker)."""
    t0 = time.perf_counter()
    entry = inputs.registry()[kernel]
    report = entry.analyse_in_process(parse_intervals(raw_inputs, entry))
    body = report_to_json(report).encode("utf-8")
    return body, time.perf_counter() - t0


def executor_overhead(requests: list, reps: int) -> dict:
    """``ProcessExecutor.run([Task])`` wall minus the task's own time."""
    from repro.mp import ProcessExecutor
    from repro.runtime.task import ExecutionMode, Task

    overheads = []
    with ProcessExecutor(max_workers=2) as executor:
        for i in range(reps + 4):
            request = requests[i % len(requests)]
            task = Task(
                fn=self_timed_analyse,
                args=(request.kernel, request.inputs),
                label="perfbench.overhead",
            )
            t0 = time.perf_counter()
            [result] = executor.run([task], [ExecutionMode.ACCURATE])
            wall = time.perf_counter() - t0
            _, compute = result.value
            if i >= 4:  # the first calls start the workers
                overheads.append(wall - compute)
    return {"mp.executor.overhead_ms": _ms(statistics.median(overheads))}


def replay_batch(requests: list, reps: int) -> dict:
    """Warm ``TraceCache.analyse_batch_outcome`` on pairs of
    blackscholes requests (what pair_process coalesces)."""
    entry = inputs.registry()["blackscholes"]
    samples = [
        parse_intervals(r.inputs, entry)
        for r in requests
        if r.kernel == "blackscholes"
    ][: 2 * reps + 1]
    cache = TraceCache()
    cache.analyse_outcome(
        entry.cache_key, entry.recorder, samples[0], simplify=entry.simplify
    )
    times = []
    for i in range(1, len(samples) - 1, 2):
        seconds, results = _timed(
            cache.analyse_batch_outcome,
            entry.cache_key,
            entry.recorder,
            samples[i : i + 2],
            simplify=entry.simplify,
        )
        if [outcome for _, outcome in results] != ["replay", "replay"]:
            raise RuntimeError("blackscholes batch was not a replay")
        times.append(seconds)
    return {
        "scorpio.trace_cache.replay_batch_ms.blackscholes": _ms(
            statistics.median(times)
        )
    }


def _lane_sets(variant: int) -> dict:
    """(trace, lanes_lo, lanes_hi) of the two lane sets of one variant.

    These are the lanes ``analyse_sobel_map`` replays on a 128x128
    natural image (16,384 pixels, ±0.5) and ``analyse_blackscholes``
    replays on a 4,096-option portfolio (±2% per parameter), built here
    from the service registry's recorders.
    """
    from repro.images import natural_image
    from repro.intervals import Interval
    from repro.kernels.blackscholes import make_portfolio

    registry = inputs.registry()
    image = natural_image(LANE_IMAGE_SIDE, LANE_IMAGE_SIDE, seed=100 + variant)
    padded = np.pad(image, 1, mode="edge")
    h, w = image.shape
    windows = np.stack(
        [
            padded[dy : dy + h, dx : dx + w].reshape(-1)
            for dy in range(3)
            for dx in range(3)
        ]
    )
    first = [Interval.centered(float(v), 0.5) for v in windows[:, 0]]
    sobel = CachedTrace(registry["sobel"].recorder(first), simplify=True)

    portfolio = make_portfolio(count=LANE_OPTIONS, seed=200 + variant)
    params = np.stack(
        [
            portfolio.spots,
            portfolio.strikes,
            portfolio.rates,
            portfolio.volatilities,
            portfolio.expiries,
        ]
    ).astype(np.float64)
    radius = 0.02 * params
    first = [Interval.centered(float(p), 0.02 * float(p)) for p in params[:, 0]]
    bs = CachedTrace(registry["blackscholes"].recorder(first), simplify=False)
    return {
        "sobel_map": (sobel, windows - 0.5, windows + 0.5),
        "bs4096": (bs, params - radius, params + radius),
    }


def _lane_sweep(trace, lo, hi, reps: int):
    """Median seconds of forward_lanes and lane_significances, and the
    digest of the significance matrix."""
    fwd, sig = [], []
    for _ in range(reps):
        seconds, lanes = _timed(trace.forward_lanes, lo, hi)
        fwd.append(seconds)
        seconds, matrix = _timed(trace.lane_significances, lanes)
        sig.append(seconds)
    digest = hashlib.sha256(np.ascontiguousarray(matrix).tobytes()).hexdigest()
    return statistics.median(fwd), statistics.median(sig), digest


def lane_layers(seed: int, reps: int) -> tuple[dict, list[bool]]:
    """``forward_lanes`` and ``lane_significances`` at thousands of lanes.

    The seed picks one of 16 input variants.  Each significance matrix
    must match the digest stored from the code this benchmark was
    written against; the verdicts are returned with the timings.
    """
    variant = random.Random(seed).randrange(LANE_VARIANTS)
    expected = json.loads(LANES_EXPECTED.read_text())[str(variant)]
    out, verdicts = {}, []
    for name, (trace, lo, hi) in _lane_sets(variant).items():
        fwd, sig, digest = _lane_sweep(trace, lo, hi, reps)
        out[f"ad.compiled.forward_lanes_ms.{name}"] = _ms(fwd)
        out[f"scorpio.trace_cache.lane_significances_ms.{name}"] = _ms(sig)
        verdicts.append(digest == expected[name])
    return out, verdicts


def write_lanes_expected() -> None:
    """Store the lane digests of every variant.

    Run only when the lane significances are meant to change.
    """
    digests = {
        str(v): {
            name: _lane_sweep(trace, lo, hi, 1)[2]
            for name, (trace, lo, hi) in _lane_sets(v).items()
        }
        for v in range(LANE_VARIANTS)
    }
    LANES_EXPECTED.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def probe_all(seed: int, requests: list) -> dict:
    """Every in-process layer metric.

    ``requests`` is the workload's own request list; kernels it does not
    use are probed on seeded requests of the lone_small or lone_dct kind.
    """
    # Move the benchmark's own long-lived objects out of the collector's
    # way, so a probe's garbage collections do not scan them.
    gc.collect()
    gc.freeze()
    small = inputs.small_mix(seed, 200)
    by_kernel = {k: [r for r in requests if r.kernel == k] for k in KERNELS}
    by_kernel["dct"] = by_kernel["dct"] or inputs.dct_blocks(seed, 3)
    metrics: dict = {}
    for kernel in KERNELS:
        pool = by_kernel[kernel] or [r for r in small if r.kernel == kernel]
        metrics.update(kernel_layers(kernel, pool, 3 if kernel == "dct" else 25))
    metrics.update(http_layers(requests, 100))
    metrics.update(batching_wait(50))
    bs_pool = by_kernel["blackscholes"] or [
        r for r in small if r.kernel == "blackscholes"
    ]
    metrics.update(executor_overhead(bs_pool, 40))
    metrics.update(replay_batch(bs_pool, 20))
    return metrics


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-expected"]:
        sys.exit("usage: PYTHONPATH=src python3 perfbench/layers.py --write-expected")
    write_lanes_expected()
