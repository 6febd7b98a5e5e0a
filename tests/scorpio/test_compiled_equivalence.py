"""analyse(compiled=True) must be byte-identical to the object pipeline.

The compiled path replaces the reverse sweep, Eq. 11, simplify and the
variance scan with array code, but keeps the object pipeline as its
oracle: for every bundled kernel the serialized report (JSON, including
graph structure, adjoints, significances, levels and variances) must
match exactly.
"""

import numpy as np
import pytest

from repro.intervals import Interval
from repro.intervals.rounding import rounded_mode
from repro.kernels.blackscholes.analysis import analyse_option
from repro.kernels.dct.analysis import analyse_dct_block
from repro.kernels.maclaurin import analyse_maclaurin
from repro.kernels.sobel.analysis import analyse_sobel_pixel
from repro.scorpio import Analysis, CachedTrace, TraceCache, analyse_compiled
from repro.scorpio.serialize import report_to_json
from repro.serve.kernels import default_registry


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(7)


class TestKernelEquivalence:
    def test_maclaurin_report_json(self):
        obj = analyse_maclaurin(n=9)
        cmp = analyse_maclaurin(n=9, compiled=True)
        assert report_to_json(obj.report) == report_to_json(cmp.report)

    def test_maclaurin_rounding_disabled(self):
        with rounded_mode(False):
            obj = analyse_maclaurin(n=9)
            cmp = analyse_maclaurin(n=9, compiled=True)
        assert report_to_json(obj.report) == report_to_json(cmp.report)

    def test_sobel_pixel(self, rng):
        window = rng.uniform(0, 255, (3, 3))
        assert analyse_sobel_pixel(window) == analyse_sobel_pixel(
            window, compiled=True
        )

    def test_blackscholes_option(self):
        obj = analyse_option(100.0, 105.0, 0.02, 0.3, 1.5)
        cmp = analyse_option(100.0, 105.0, 0.02, 0.3, 1.5, compiled=True)
        assert obj == cmp

    def test_dct_block_maps_bitwise(self, rng):
        block = rng.uniform(0, 255, (8, 8))
        obj = analyse_dct_block(block)
        cmp = analyse_dct_block(block, compiled=True)
        assert np.array_equal(obj, cmp)


class TestApiBehaviour:
    def _analysis(self):
        an = Analysis()
        with an:
            x = an.input(2.0, width=0.5, name="x")
            z = an.intermediate(x * x, "z")
            an.output(z + x, name="y")
        return an

    def test_full_report_json(self):
        obj = self._analysis().analyse()
        cmp = self._analysis().analyse(compiled=True)
        assert report_to_json(obj) == report_to_json(cmp)

    def test_first_call_wins_cache(self):
        an = self._analysis()
        first = an.analyse(compiled=True)
        assert an.analyse() is first

    def test_report_views_match(self):
        obj = self._analysis().analyse()
        cmp = self._analysis().analyse(compiled=True)
        assert obj.labelled_significances() == cmp.labelled_significances()
        assert obj.input_significances() == cmp.input_significances()
        assert obj.significance_of("z") == cmp.significance_of("z")
        with pytest.raises(KeyError):
            cmp.significance_of("nope")

    def test_needs_an_output(self):
        an = Analysis()
        with an:
            an.input(1.0, width=0.1, name="x")
        with pytest.raises(Exception):
            an.analyse(compiled=True)

    def test_analyse_compiled_rejects_no_outputs(self):
        an = self._analysis()
        with pytest.raises(ValueError):
            analyse_compiled(an.tape, [])

    def test_simplify_false_identity(self):
        rep = self._analysis().analyse(compiled=True)
        # found-or-not, the graph triple keeps the object pipeline's
        # instance-sharing behaviour on serialization-relevant sizes
        obj = self._analysis().analyse()
        assert len(rep.raw_graph) == len(obj.raw_graph)
        assert len(rep.simplified_graph) == len(obj.simplified_graph)


def _shifted(ivs, by):
    return [Interval(iv.lo + by, iv.hi + by) for iv in ivs]


class TestDeferredGraphs:
    """Compiled reports build node objects only for the graphs read."""

    @pytest.mark.parametrize("simplify", [False, True])
    def test_serialising_a_replay_report_leaves_full_graphs_unbuilt(
        self, simplify
    ):
        entry = default_registry()["dct"]
        cache = TraceCache()
        inputs = entry.defaults()
        cache.analyse(
            entry.cache_key, entry.recorder, inputs, simplify=simplify
        )
        inputs = _shifted(inputs, 0.25)
        report, outcome = cache.analyse_outcome(
            entry.cache_key, entry.recorder, inputs, simplify=simplify
        )
        assert outcome == "replay"
        obj = entry.recorder(inputs).analyse(simplify=simplify)

        assert report_to_json(report) == report_to_json(obj)
        assert report.raw_graph._materialized is None
        assert report.simplified_graph._materialized is None
        assert len(report.raw_graph) == len(obj.raw_graph)
        assert len(report.simplified_graph) == len(obj.simplified_graph)

    @pytest.mark.parametrize("kernel", ["blackscholes", "dct"])
    def test_deferred_graphs_show_the_analysed_inputs(self, kernel):
        # A report's graphs are built after later replays overwrote the
        # trace's value arrays; they must still show the report's inputs.
        entry = default_registry()[kernel]
        a = entry.defaults()
        b = _shifted(a, 0.01)
        trace = CachedTrace(entry.recorder(a), simplify=entry.simplify)
        scalar_a = trace.analyse(a)
        batched_a = trace.analyse_batch([a, b])[0]
        trace.analyse(b)
        trace.analyse_batch([b, b])

        ref = entry.recorder(a).analyse(simplify=entry.simplify)
        ref_nodes = list(ref.raw_graph)
        for report in (scalar_a, batched_a):
            assert report.raw_graph._materialized is None
            assert list(report.raw_graph) == ref_nodes
