"""The benchmark's own arithmetic: tail rule, self time, declarations."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.layers import PER_LAYER, layer_metrics
from perfbench.measure import percentile, tail
from perfbench.result import END_TO_END
from perfbench.tracing import Tracer, self_times, summarize, within

ROOT = Path(__file__).resolve().parent.parent


class TestTail:
    def test_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 1001))
        assert tail(values) == (99.0, 990, 1000)

    def test_steps_down_when_samples_are_few(self):
        # p99 of 999 leaves 9 beyond, p90 leaves 99.
        assert tail(list(range(1, 1000))) == (90.0, 900, 999)
        assert tail(list(range(1, 101))) == (90.0, 90, 100)
        assert tail(list(range(1, 21))) == (50.0, 10, 20)

    def test_too_few_samples_report_the_maximum(self):
        assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 3)

    def test_order_of_input_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        assert tail(values) == tail(sorted(values))

    def test_nearest_rank_percentile(self):
        assert percentile([1, 2, 3, 4], 50) == 2
        assert percentile([1, 2, 3, 4], 51) == 3
        assert percentile([7], 99.9) == 7


def _span(span_id, start, end, parent=None, name="x"):
    return (span_id, name, start, end, parent, None)


class TestSelfTime:
    def test_children_union_is_subtracted_once(self):
        spans = [
            _span(1, 0.0, 10.0),
            _span(2, 1.0, 3.0, parent=1),
            _span(3, 2.0, 5.0, parent=1),  # overlaps span 2
            _span(4, 9.0, 12.0, parent=1),  # runs past its parent
        ]
        selfs = self_times(spans)
        assert selfs[1] == pytest.approx(10.0 - 4.0 - 1.0)
        assert selfs[2] == pytest.approx(2.0)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [
            _span(1, 0.0, 10.0),
            _span(2, 2.0, 6.0, parent=1),
            _span(3, 3.0, 4.0, parent=2),
        ]
        selfs = self_times(spans)
        assert selfs[1] == pytest.approx(6.0)
        assert selfs[2] == pytest.approx(3.0)
        assert selfs[3] == pytest.approx(1.0)

    def test_summary_adds_per_name(self):
        spans = [
            _span(1, 0.0, 4.0, name="a"),
            _span(2, 1.0, 2.0, parent=1, name="b"),
            _span(3, 5.0, 6.0, name="b"),
        ]
        summary = summarize(spans)
        assert summary["a"] == {"calls": 1, "total_s": 4.0, "self_s": 3.0}
        assert summary["b"]["calls"] == 2
        assert summary["b"]["self_s"] == pytest.approx(2.0)

    def test_within_keeps_spans_started_inside_intervals(self):
        spans = [_span(1, 0.5, 9.0), _span(2, 1.5, 1.7), _span(3, 3.0, 3.1)]
        kept = within(spans, [(0.0, 1.0), (2.5, 3.0)])
        assert [span[0] for span in kept] == [1, 3]


class TestTracer:
    def test_nested_calls_record_parents(self):
        tracer = Tracer()

        def inner():
            return 1

        traced_inner = tracer.wrap(inner, "inner")

        def outer():
            return traced_inner() + 1

        assert tracer.wrap(outer, "outer")() == 2
        spans = {span[1]: span for span in tracer.spans}
        assert spans["inner"][4] == spans["outer"][0]
        assert spans["outer"][4] is None

    def test_generator_span_covers_iteration(self):
        tracer = Tracer()

        def numbers():
            yield from range(3)

        assert list(tracer.wrap(numbers, "gen")()) == [0, 1, 2]
        assert [span[1] for span in tracer.spans] == ["gen"]

    def test_install_replaces_call_site_bindings_and_restores(self):
        import repro.core.classify
        import repro.core.engine

        original = repro.core.classify.classify_against_partner
        tracer = Tracer()
        tracer.install()
        try:
            assert repro.core.engine.classify_against_partner is not original
            assert (
                repro.core.engine.classify_against_partner
                is repro.core.classify.classify_against_partner
            )
        finally:
            tracer.uninstall()
        assert repro.core.engine.classify_against_partner is original


class TestStopChildren:
    def test_resource_tracker_is_stopped_and_reaped(self):
        # In a child interpreter: stopping the tracker of this test
        # process would unlink segments other tests still use.
        script = (
            "import os\n"
            "from multiprocessing import resource_tracker, shared_memory\n"
            "from perfbench.measure import stop_resource_tracker\n"
            "segment = shared_memory.SharedMemory(create=True, size=16)\n"
            "segment.close(); segment.unlink()\n"
            "pid = resource_tracker._resource_tracker._pid\n"
            "stop_resource_tracker()\n"
            "try:\n"
            "    os.kill(pid, 0)\n"
            "except ProcessLookupError:\n"
            "    print('stopped')\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=ROOT, capture_output=True,
            text=True, timeout=60,
        )
        assert done.stdout.strip() == "stopped", done.stderr


class TestDeclarations:
    def test_benchmark_json_names_the_reported_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)

    def test_layer_metrics_cover_every_declared_name(self):
        metrics = layer_metrics(1, {}, {})
        assert list(metrics) == [name for name, _ in PER_LAYER]
