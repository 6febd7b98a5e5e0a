"""Seeded request inputs and their byte-exact oracle bodies.

Every workload draws its inputs from ``random.Random(seed)`` (plus the
repository's own seeded image and portfolio generators), so one seed
always produces the same request sequence.  The program under test only
ever sees the generated ranges; the oracle is the in-process reference
path the service promises to match byte for byte::

    report_to_json(entry.analyse_in_process(parse_intervals(inputs, entry)))
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass

from repro.scorpio.serialize import report_to_json
from repro.serve.kernels import default_registry, parse_intervals

# Kernels of the lone_small mix: every trace here is 40-250 nodes.
SMALL_KERNELS = ("sobel", "blackscholes", "fisheye", "nbody")
# Relative jitter of each range's centre around the registry default.
JITTER = 0.01
# Side of the natural image lone_dct cuts its 8x8 blocks from.
DCT_IMAGE_SIDE = 128
DCT_UNCERTAINTY = 0.5


@functools.cache
def registry():
    """The service's kernel registry (built once per process)."""
    return default_registry()


@functools.cache
def _default_ranges(kernel: str) -> tuple:
    return tuple((iv.lo, iv.hi) for iv in registry()[kernel].defaults())


@dataclass
class Request:
    """One pre-built /analyse request: its kernel and encoded body."""

    kernel: str
    body: bytes

    @property
    def inputs(self) -> list:
        """The ``[[lo, hi], ...]`` ranges exactly as sent."""
        return json.loads(self.body)["inputs"]

    def oracle(self) -> bytes:
        """The response body the service must return, byte for byte."""
        entry = registry()[self.kernel]
        report = entry.analyse_in_process(parse_intervals(self.inputs, entry))
        return report_to_json(report).encode("utf-8")


def _request(kernel: str, inputs: list) -> Request:
    payload = {"kernel": kernel, "inputs": inputs}
    return Request(kernel, json.dumps(payload).encode("utf-8"))


def jittered(kernel: str, rng: random.Random) -> Request:
    """The kernel's default ranges, each centre moved by up to ±1%.

    Radii are kept.  Centres at zero move by 1% of the radius, so every
    input of every request is fresh.
    """
    inputs = []
    for lo, hi in _default_ranges(kernel):
        centre = (lo + hi) / 2.0
        radius = (hi - lo) / 2.0
        scale = max(abs(centre), radius)
        centre += rng.uniform(-JITTER, JITTER) * scale
        inputs.append([centre - radius, centre + radius])
    return _request(kernel, inputs)


def small_mix(seed: int, count: int) -> list[Request]:
    """lone_small: kernels in a seeded rotation, fresh ranges each."""
    rng = random.Random(seed)
    out: list[Request] = []
    while len(out) < count:
        order = list(SMALL_KERNELS)
        rng.shuffle(order)
        out.extend(jittered(k, rng) for k in order)
    return out[:count]


def single_kernel(kernel: str, seed: int, count: int) -> list[Request]:
    """pair_process: one kernel, fresh ranges each."""
    rng = random.Random(seed)
    return [jittered(kernel, rng) for _ in range(count)]


def dct_blocks(seed: int, count: int) -> list[Request]:
    """lone_dct: 8x8 blocks cut at seeded offsets, ±0.5 per pixel."""
    from repro.images import natural_image

    image = natural_image(DCT_IMAGE_SIDE, DCT_IMAGE_SIDE, seed=5)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        y = rng.randrange(DCT_IMAGE_SIDE - 8)
        x = rng.randrange(DCT_IMAGE_SIDE - 8)
        block = image[y : y + 8, x : x + 8].ravel().tolist()
        out.append(
            _request(
                "dct",
                [[v - DCT_UNCERTAINTY, v + DCT_UNCERTAINTY] for v in block],
            )
        )
    return out
