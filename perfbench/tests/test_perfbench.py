"""The benchmark's own checks: statistics, oracle, failure accounting,
and a short smoke run of every workload.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import random
import shutil
import socket
import subprocess
import sys

import pytest

import inputs
import loadgen
import workloads
from stats import TooFewSamples, percentile

ROOT = workloads.server.ROOT


def test_percentile_needs_ten_samples_beyond():
    assert percentile(range(20), 50) == 9
    with pytest.raises(TooFewSamples):
        percentile(range(19), 50)
    assert percentile(range(1000), 99) == 989
    with pytest.raises(TooFewSamples):
        percentile(range(999), 99)


def test_oracle_catches_one_flipped_byte():
    request = inputs.jittered("sobel", random.Random(3))
    good = request.oracle()
    flipped = bytearray(good)
    flipped[len(flipped) // 2] ^= 0x01
    samples = [
        loadgen.Sample(0, 0, 0.0, 0.001, 200, {}, good),
        loadgen.Sample(1, 0, 0.0, 0.001, 200, {}, bytes(flipped)),
        loadgen.Sample(2, 0, 0.0, 0.001, 500, {}, good),
    ]
    assert loadgen.check(samples, [request], {}) == [True, False, False]


def test_refused_connection_counts_as_failure():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    requests = inputs.small_mix(1, 4)
    samples, _ = loadgen.closed_loop(
        "127.0.0.1", port, requests, connections=1, seconds=0.2
    )
    assert samples and all(s.error for s in samples)
    assert not any(loadgen.check(samples, requests, {}))


def test_same_seed_same_inputs():
    assert [r.body for r in inputs.small_mix(5, 12)] == [
        r.body for r in inputs.small_mix(5, 12)
    ]
    assert inputs.dct_blocks(5, 2)[0].body != inputs.dct_blocks(6, 2)[0].body


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lone_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert run.returncode != 0
    assert '"correct"' not in run.stdout


# Short enough to finish quickly, long enough for 20 samples (p50).
SMOKE_SECONDS = {"lone_small": 1.0, "lone_dct": 7.0, "pair_process": 1.0}


@pytest.mark.parametrize("name", sorted(SMOKE_SECONDS))
def test_smoke_run(name, monkeypatch):
    monkeypatch.setattr(workloads, "SETUPS", 1)
    workload = dataclasses.replace(workloads.WORKLOADS[name], tail=50)
    out = workloads.run_end_to_end(workload, 1, SMOKE_SECONDS[name])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(out.metrics) == sorted(m["name"] for m in declared["end_to_end"])
    result = out.result()
    assert out.problems == []
    assert result["correct"] and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric():
    out = workloads.run_traced(workloads.WORKLOADS["lone_small"], 2, 2.0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(out.metrics) == sorted(m["name"] for m in declared["per_layer"])
    assert out.problems == [] and out.result()["correct"]


def test_entry_point_kills_and_reaps_orphans():
    script = (
        "import os, subprocess, sys, time\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "import run\n"
        "assert run.become_subreaper()\n"
        "subprocess.run(['sh', '-c', 'sleep 300 &'], check=True)\n"
        "time.sleep(0.2)\n"
        "killed = run.end_tree(0.5)\n"
        "print(len(killed), len(run.descendants(os.getpid())))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "0"]
