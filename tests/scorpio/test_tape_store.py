"""Persistent tape store (:mod:`repro.scorpio.tape_store`) and the
frozen-trace format it shares with pickle and :class:`repro.mp.SharedTape`.

The store's contract: a save→load round-trip yields a trace whose
replays are *bitwise identical* to the live trace's — same reports byte
for byte, same guard divergences — and every failure mode (missing,
version-mismatched, truncated, corrupt files) degrades to an ordinary
cache miss, never an exception.  Pickle and shared memory carry the same
frozen form and must replay the same bytes.
"""

import contextlib
import json
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ad import intrinsics as op
from repro.ad.replay import GuardDivergenceError
from repro.intervals import Interval
from repro.mp import SharedTape
from repro.scorpio import Analysis, CachedTrace, TapeStore, TraceCache
from repro.scorpio.serialize import report_to_json
from repro.scorpio.tape_store import STORE_VERSION, store_key_digest
from repro.serve.kernels import default_registry

REGISTRY = default_registry()


def _record_poly(ivs) -> Analysis:
    an = Analysis()
    with an:
        x = an.input(ivs[0], name="x")
        y = an.input(ivs[1], name="y")
        t = an.intermediate(op.sin(x * y) + x, "t")
        an.output(t * t + y / 4.0, name="out")
    return an


def _record_branchy(ivs) -> Analysis:
    an = Analysis()
    with an:
        x = an.input(ivs[0], name="x")
        y = an.input(ivs[1], name="y")
        z = x * y if x < y else x + y
        an.output(z, name="out")
    return an


def _record_clip(ivs) -> Analysis:
    # clip carries an aux payload; constants fold aux too — both must
    # survive serialization.
    an = Analysis()
    with an:
        x = an.input(ivs[0], name="x")
        y = an.input(ivs[1], name="y")
        an.output(op.clip(x * 2.0 + y, 0.25, 3.5), name="out")
    return an


def _ivs(cx, cy, r=0.1):
    return [Interval.centered(cx, r), Interval.centered(cy, r)]


KEY = ("poly",)


def _fresh_pair(rng):
    # x strictly below y so the branchy kernel's recorded x < y guard
    # stays decidable (and taken) on every replay.
    return _ivs(rng.uniform(0.3, 0.7), rng.uniform(1.1, 1.5))


def _fresh_registry(kernel):
    """The kernel's default ranges, each centre moved by up to ±0.5%."""

    def fresh(rng):
        out = []
        for iv in REGISTRY[kernel].defaults():
            scale = max(abs(iv.midpoint), iv.radius)
            shift = rng.uniform(-0.005, 0.005) * scale
            out.append(Interval.centered(iv.midpoint + shift, iv.radius))
        return out

    return fresh


# The three transports of a trace's frozen form.  Each takes a live
# trace and returns the trace rebuilt on the far side.
def _via_pickle(trace, tmp_path, stack):
    return pickle.loads(pickle.dumps(trace))


def _via_shared(trace, tmp_path, stack):
    shared = stack.enter_context(SharedTape.freeze(trace))
    handle = pickle.loads(pickle.dumps(shared))  # travels by segment name
    views = {name: h.view() for name, h in handle.arrays.items()}
    return CachedTrace.thaw(handle.header, views)


def _via_store(trace, tmp_path, stack):
    store = TapeStore(tmp_path)
    assert store.save(KEY, trace)
    return store.load(KEY)


TRANSPORTS = {"pickle": _via_pickle, "shared": _via_shared, "store": _via_store}


def _round_trip_cases():
    cases = []
    for transport in TRANSPORTS:
        # The tape-store cases keep the ids they had before the other
        # transports joined the parametrisation.
        prefix = "" if transport == "store" else f"{transport}-"
        for simplify in (False, True):
            for recorder in (_record_branchy, _record_clip, _record_poly):
                cases.append(
                    pytest.param(
                        transport,
                        recorder,
                        _ivs(0.7, 1.2),
                        simplify,
                        _fresh_pair,
                        id=f"{prefix}{simplify}-{recorder.__name__}",
                    )
                )
        for kernel, entry in REGISTRY.items():
            cases.append(
                pytest.param(
                    transport,
                    entry.recorder,
                    entry.defaults(),
                    entry.simplify,
                    _fresh_registry(kernel),
                    id=f"{transport}-{kernel}",
                )
            )
    return cases


class TestRoundTrip:
    @pytest.mark.parametrize(
        "transport, recorder, recorded, simplify, fresh", _round_trip_cases()
    )
    def test_replays_bitwise_identical(
        self, tmp_path, transport, recorder, recorded, simplify, fresh
    ):
        live = CachedTrace(recorder(recorded), simplify=simplify)
        rng = np.random.default_rng(11)
        live.analyse(fresh(rng))
        if transport == "pickle" and recorder is REGISTRY["dct"].recorder:
            # Only the frozen form travels, whatever ran on the trace:
            # no recording, plan, schedule or sweep buffers.
            column_bytes = sum(c.nbytes for c in live.freeze()[1].values())
            assert len(pickle.dumps(live)) <= 1.10 * column_bytes
        with contextlib.ExitStack() as stack:
            loaded = TRANSPORTS[transport](live, tmp_path, stack)
            assert loaded is not None
            assert not hasattr(loaded.ct, "tape")
            assert loaded.op_hash == live.op_hash
            assert loaded.input_ids == live.input_ids
            assert loaded.output_ids == live.output_ids
            for _ in range(4):
                ivs = fresh(rng)
                want = report_to_json(
                    recorder(ivs).analyse(simplify=simplify, compiled=True)
                )
                assert report_to_json(loaded.analyse(ivs)) == want
                assert report_to_json(live.analyse(ivs)) == want

    @settings(max_examples=20, deadline=None)
    @given(
        cx=st.floats(0.2, 2.0),
        cy=st.floats(0.2, 2.0),
        r=st.floats(0.01, 0.3),
    )
    def test_forward_bitwise_identical_property(self, cx, cy, r):
        import tempfile

        live = CachedTrace(_record_poly(_ivs(0.7, 1.2)), simplify=False)
        with tempfile.TemporaryDirectory() as root:
            store = TapeStore(root)
            store.save(KEY, live)
            loaded = store.load(KEY)
            ivs = [Interval.centered(cx, r), Interval.centered(cy, r)]
            live_state = live.ct.forward(ivs)
            loaded_state = loaded.ct.forward(ivs)
            for col in ("value_lo", "value_hi"):
                a = getattr(live_state, col)
                b = getattr(loaded_state, col)
                assert np.array_equal(a, b), col  # bitwise: same floats

    def test_guard_divergence_still_raises(self, tmp_path):
        live = CachedTrace(_record_branchy(_ivs(0.5, 1.5)))  # x < y taken
        store = TapeStore(tmp_path)
        store.save(KEY, live)
        loaded = store.load(KEY)
        # Same branch replays fine; the flipped branch must still trip
        # the deserialized guard.
        loaded.analyse(_ivs(0.6, 1.4))
        with pytest.raises(GuardDivergenceError):
            loaded.analyse(_ivs(1.8, 0.4))


def _edit_column(column, row, edit):
    """Overwrite one entry of a stored column with ``edit(entry)``."""

    def corrupt(header_path, blob_path):
        spec = json.loads(open(header_path).read())["arrays"][column]
        dtype = np.dtype(spec["dtype"])
        with open(blob_path, "r+b") as f:
            f.seek(spec["offset"] + row * dtype.itemsize)
            entry = np.frombuffer(f.read(dtype.itemsize), dtype)[0]
            f.seek(spec["offset"] + row * dtype.itemsize)
            f.write(np.asarray(edit(entry), dtype).tobytes())

    return corrupt


def _flip_first_guard(header_path, blob_path):
    header = json.loads(open(header_path).read())
    guard = header["trace"]["guards"][0]
    guard[3] = not guard[3]
    with open(header_path, "w") as f:
        json.dump(header, f)


_BS = REGISTRY["blackscholes"]
# name -> (key, recorder, inputs, simplify, corrupt(header_path, blob_path))
CORRUPTIONS = {
    # A shifted schedule level reorders adjoint accumulation: the
    # replayed report differs from a recording.
    "depth": (
        _BS.cache_key, _BS.recorder, _BS.defaults(), _BS.simplify,
        _edit_column("depth", 15, lambda d: d + 1),
    ),
    "partial_lo": (
        _BS.cache_key, _BS.recorder, _BS.defaults(), _BS.simplify,
        _edit_column("partial_lo", 0, lambda p: p + 1.0),
    ),
    "const_lo": (
        _BS.cache_key, _BS.recorder, _BS.defaults(), _BS.simplify,
        _edit_column("const_lo", 0, lambda c: c + 1.0),
    ),
    "guard": (KEY, _record_branchy, _ivs(0.5, 1.5), True, _flip_first_guard),
}


class TestFailureModes:
    def test_missing_is_a_miss(self, tmp_path):
        assert TapeStore(tmp_path).load(KEY) is None

    def test_version_mismatch_is_a_miss(self, tmp_path):
        store = TapeStore(tmp_path)
        store.save(KEY, CachedTrace(_record_poly(_ivs(0.7, 1.2))))
        header_path, _ = store.paths_for(KEY)
        header = json.loads(open(header_path).read())
        header["store_version"] = STORE_VERSION + 1
        with open(header_path, "w") as f:
            json.dump(header, f)
        assert store.load(KEY) is None

    def test_repro_version_mismatch_is_a_miss(self, tmp_path):
        # The key is the kernel identity alone: a recording stored by
        # another release must not replay under this one.
        store = TapeStore(tmp_path)
        store.save(KEY, CachedTrace(_record_poly(_ivs(0.7, 1.2))))
        header_path, _ = store.paths_for(KEY)
        header = json.loads(open(header_path).read())
        header["repro_version"] = "0.0.0-other"
        with open(header_path, "w") as f:
            json.dump(header, f)
        assert store.load(KEY) is None

    def test_truncated_blob_is_a_miss(self, tmp_path):
        store = TapeStore(tmp_path)
        store.save(KEY, CachedTrace(_record_poly(_ivs(0.7, 1.2))))
        _, blob_path = store.paths_for(KEY)
        with open(blob_path, "r+b") as f:
            f.truncate(os.path.getsize(blob_path) // 2)
        assert store.load(KEY) is None

    def test_corrupt_structure_rejected_by_hash(self, tmp_path):
        store = TapeStore(tmp_path)
        store.save(KEY, CachedTrace(_record_poly(_ivs(0.7, 1.2))))
        header_path, blob_path = store.paths_for(KEY)
        spec = json.loads(open(header_path).read())["arrays"]["opcodes"]
        with open(blob_path, "r+b") as f:
            f.seek(spec["offset"])
            f.write(b"\xff" * 4)  # scribble on the opcode column
        assert store.load(KEY) is None

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corrupt_entry_falls_back_to_recording(self, tmp_path, corruption):
        key, recorder, ivs, simplify, corrupt = CORRUPTIONS[corruption]
        seeder = TraceCache(store_dir=tmp_path)
        seeder.analyse(key, recorder, ivs, simplify=simplify)
        corrupt(*TapeStore(tmp_path).paths_for(key))
        report, outcome = TraceCache(store_dir=tmp_path).analyse_outcome(
            key, recorder, ivs, simplify=simplify
        )
        assert outcome == "record"
        assert report_to_json(report) == report_to_json(
            recorder(ivs).analyse(simplify=simplify, compiled=True)
        )

    def test_corrupt_header_is_soft(self, tmp_path):
        store = TapeStore(tmp_path)
        store.save(KEY, CachedTrace(_record_poly(_ivs(0.7, 1.2))))
        header_path, _ = store.paths_for(KEY)
        with open(header_path, "w") as f:
            f.write("{not json")
        assert store.load(KEY) is None

    def test_digest_is_stable_and_filenamesafe(self):
        d = store_key_digest(("sobel",))
        assert d == store_key_digest(("sobel",))
        assert d != store_key_digest(("dct",))
        assert d.isalnum()


class TestTraceCacheIntegration:
    def test_restart_serves_first_request_as_replay(self, tmp_path):
        ivs = _ivs(0.7, 1.2)
        warm = TraceCache(store_dir=tmp_path)
        report, outcome = warm.analyse_outcome(KEY, _record_poly, ivs)
        assert outcome == "record"
        expect = report_to_json(report)

        # "Restart": a brand-new cache over the same store directory.
        cold = TraceCache(store_dir=tmp_path)
        report, outcome = cold.analyse_outcome(KEY, _record_poly, ivs)
        assert outcome == "replay"
        assert report_to_json(report) == expect
        assert cold.stats()["records"] == 0

    def test_store_errors_fall_back_to_recording(self, tmp_path):
        # A store rooted at a *file* path cannot write; analysis must
        # still succeed as plain record.
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        cache = TraceCache(store_dir=blocker / "sub")
        report, outcome = cache.analyse_outcome(KEY, _record_poly, _ivs(0.7, 1.2))
        assert outcome == "record"
        assert report is not None

    def test_no_store_dir_means_no_store(self):
        assert TraceCache().store is None


class TestBatchOutcome:
    def test_batch_matches_scalar_byte_for_byte(self):
        rng = np.random.default_rng(5)
        batches = [
            _ivs(rng.uniform(0.4, 1.4), rng.uniform(0.6, 1.6))
            for _ in range(5)
        ]
        scalar = TraceCache()
        expect = [
            report_to_json(
                scalar.analyse_outcome(KEY, _record_poly, ivs)[0]
            )
            for ivs in batches
        ]
        batched = TraceCache()
        outs = batched.analyse_batch_outcome(KEY, _record_poly, batches)
        assert [o for _, o in outs] == ["record"] + ["replay"] * 4
        assert [report_to_json(r) for r, _ in outs] == expect
        # All four warm lanes shared one sweep.
        assert batched.stats()["replays"] == 4

    def test_divergent_lane_falls_back_per_item(self):
        cache = TraceCache()
        cache.analyse_outcome(KEY, _record_branchy, _ivs(0.5, 1.5))
        outs = cache.analyse_batch_outcome(
            KEY,
            _record_branchy,
            [_ivs(0.6, 1.4), _ivs(1.8, 0.4), _ivs(0.4, 1.6)],
        )
        assert [o for _, o in outs] == ["replay", "divergence", "replay"]
        for (report, _), ivs in zip(
            outs, [_ivs(0.6, 1.4), _ivs(1.8, 0.4), _ivs(0.4, 1.6)]
        ):
            ref = _record_branchy(ivs).analyse(compiled=True)
            assert report_to_json(report) == report_to_json(ref)

    def test_empty_and_single(self):
        cache = TraceCache()
        assert cache.analyse_batch_outcome(KEY, _record_poly, []) == []
        outs = cache.analyse_batch_outcome(
            KEY, _record_poly, [_ivs(0.7, 1.2)]
        )
        assert len(outs) == 1 and outs[0][1] == "record"
