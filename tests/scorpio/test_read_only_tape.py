"""Nothing writes a compiled tape after compilation.

Every array column of a freshly compiled tape is frozen with
``setflags(write=False)``; every replay path must still run on it and
stay byte-identical to recording: scalar forward and both reverse
sweeps, lane replay, ``CachedTrace.analyse`` / ``analyse_batch`` and a
validate-mode cache.  Tapes rebuilt by the tape store and by
:class:`repro.mp.SharedTape` keep read-only columns too.
"""

import numpy as np
import pytest

from repro.ad import CompiledTape
from repro.ad import intrinsics as op
from repro.ad.compiled import _FROZEN_COLUMNS
from repro.intervals import Interval
from repro.mp import SharedTape
from repro.scorpio import Analysis, CachedTrace, TapeStore, TraceCache
from repro.scorpio.serialize import report_to_json

VALUE_COLUMNS = ("value_lo", "value_hi", "partial_lo", "partial_hi")


def _record(ivs) -> Analysis:
    an = Analysis()
    with an:
        x = an.input(ivs[0], name="x")
        y = an.input(ivs[1], name="y")
        t = an.intermediate(op.sin(x * y) + x, "t")
        an.output(t * t + y / 4.0, name="u")
        an.output(op.exp(-t) * x - y, name="v")
    return an


def _ivs(cx, cy, r=0.1):
    return [Interval.centered(cx, r), Interval.centered(cy, r)]


RECORDED = _ivs(0.7, 1.2)
FRESH = [_ivs(0.4, 0.9), _ivs(1.3, 0.6), _ivs(0.8, 1.7)]


def _freeze(ct: CompiledTape) -> CompiledTape:
    for value in vars(ct).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return ct


def _direct(ivs) -> str:
    return report_to_json(_record(ivs).analyse(compiled=True))


@pytest.fixture
def trace() -> CachedTrace:
    trace = CachedTrace(_record(RECORDED))
    _freeze(trace.ct)
    return trace


def test_sweeps_on_read_only_tape(trace):
    ct = trace.ct
    outputs = trace.output_ids
    for ivs in FRESH:
        state = ct.forward(ivs)
        ref = CompiledTape(_record(ivs).tape)
        for col in VALUE_COLUMNS:
            assert getattr(state, col).tobytes() == getattr(ref, col).tobytes()
        for got, want in zip(
            state.adjoint({outputs[0]: 1.0}), ref.adjoint({outputs[0]: 1.0})
        ):
            assert got.tobytes() == want.tobytes()
        for got, want in zip(
            state.adjoint_vector(outputs), ref.adjoint_vector(outputs)
        ):
            assert got.tobytes() == want.tobytes()
    recorded = CompiledTape(_record(RECORDED).tape)
    for got, want in zip(
        ct.adjoint_vector(outputs), recorded.adjoint_vector(outputs)
    ):
        assert got.tobytes() == want.tobytes()


def test_lanes_on_read_only_tape(trace):
    ct = trace.ct
    lo = np.array([[iv.lo for iv in ivs] for ivs in FRESH]).T
    hi = np.array([[iv.hi for iv in ivs] for ivs in FRESH]).T
    lanes = ct.forward_lanes(lo, hi)
    alo, ahi = lanes.adjoint({trace.output_ids[0]: 1.0})
    for lane, ivs in enumerate(FRESH):
        state = ct.forward(ivs)
        assert lanes.value_lo[:, lane].tobytes() == state.value_lo.tobytes()
        slo, shi = state.adjoint({trace.output_ids[0]: 1.0})
        assert alo[:, lane].tobytes() == slo.tobytes()
        assert ahi[:, lane].tobytes() == shi.tobytes()


def test_analyses_on_read_only_tape(trace):
    for ivs in FRESH:
        assert report_to_json(trace.analyse(ivs)) == _direct(ivs)
    for report, ivs in zip(trace.analyse_batch(FRESH), FRESH):
        assert report_to_json(report) == _direct(ivs)


def test_validate_mode_on_read_only_tape():
    cache = TraceCache(validate=True)
    cache.analyse(("k",), _record, RECORDED)
    _freeze(cache._traces[("k",)].ct)
    for ivs in FRESH:
        report, outcome = cache.analyse_outcome(("k",), _record, ivs)
        assert outcome == "replay"
        assert report_to_json(report) == _direct(ivs)
    assert cache.stats()["validations"] == 1


def test_store_loads_read_only_columns(tmp_path):
    store = TapeStore(tmp_path)
    assert store.save(("k",), CachedTrace(_record(RECORDED)))
    loaded = store.load(("k",))
    for col in _FROZEN_COLUMNS:
        assert not getattr(loaded.ct, col).flags.writeable, col
    assert report_to_json(loaded.analyse(FRESH[0])) == _direct(FRESH[0])


def test_shared_tape_attaches_read_only_columns():
    trace = CachedTrace(_record(RECORDED))
    with SharedTape.freeze(trace.ct) as shared:
        ct = shared.attach()
        for col in _FROZEN_COLUMNS:
            assert not getattr(ct, col).flags.writeable, col
        state = ct.forward(FRESH[0])
        assert state.value_lo.tobytes() == trace.ct.forward(
            FRESH[0]
        ).value_lo.tobytes()
