"""Percentiles that the sample can support."""

from __future__ import annotations

import math

# A percentile is reported only when at least this many samples lie
# beyond it; with fewer, its value is set by a handful of outliers.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Raises :class:`TooFewSamples` unless at least :data:`MIN_BEYOND`
    samples rank above it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {n - rank} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return ordered[rank - 1]

