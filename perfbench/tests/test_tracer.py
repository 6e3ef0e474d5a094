import sys
import threading
import types

import pytest

from perfbench import tracer
from perfbench.tracer import (
    END, ID, NAME, PARENT, REQUEST, START, SpanRecorder, Target, covered, self_times,
)


def span(span_id, parent, start, end, name="x", request=0, phase="window"):
    return (span_id, parent, request, name, start, end, phase)


class TestSelfTime:
    def test_leaf_self_time_is_its_duration(self):
        assert self_times([span(1, 0, 2.0, 5.0)]) == {1: 3.0}

    def test_nested_spans_subtract_only_direct_children(self):
        spans = [span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 4.0), span(3, 2, 2.0, 3.0),
                 span(4, 1, 6.0, 7.0)]
        assert self_times(spans) == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}

    def test_overlapping_children_are_counted_once(self):
        spans = [span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 5.0), span(3, 1, 3.0, 8.0)]
        assert self_times(spans)[1] == pytest.approx(3.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(1, 0, 0.0, 10.0), span(2, 1, 8.0, 12.0), span(3, 1, -1.0, 1.0)]
        assert self_times(spans)[1] == pytest.approx(7.0)

    def test_contained_child_adds_nothing(self):
        assert covered([(1.0, 9.0), (2.0, 3.0), (4.0, 5.0)], 0.0, 10.0) == 8.0

    def test_disjoint_intervals_sum(self):
        assert covered([(5.0, 6.0), (1.0, 2.0)], 0.0, 10.0) == 2.0


def _fake_layer():
    module = types.ModuleType("perfbench_fake_layer")

    def leaf(example):
        return example

    class Outer:
        def run(self, example):
            return module.leaf(example)

    module.leaf = leaf
    module.Outer = Outer
    return module


class TestRecorder:
    @pytest.fixture
    def layer(self, monkeypatch):
        module = _fake_layer()
        monkeypatch.setitem(sys.modules, module.__name__, module)
        return module

    def targets(self, layer):
        return (Target("fake", layer.__name__, "Outer.run"),
                Target("fake", layer.__name__, "leaf"))

    def test_install_wraps_and_uninstall_restores(self, layer):
        original_run, original_leaf = layer.Outer.run, layer.leaf
        recorder = SpanRecorder(self.targets(layer))
        with recorder:
            assert layer.Outer.run is not original_run
            assert layer.leaf is not original_leaf
            assert layer.Outer().run("q") == "q"
        assert layer.Outer.run is original_run
        assert layer.leaf is original_leaf
        outer, inner = sorted(recorder.spans(), key=lambda s: s[START])
        assert (outer[NAME], inner[NAME]) == ("Outer.run", "leaf")
        assert outer[PARENT] == 0 and inner[PARENT] == outer[ID]
        assert outer[START] <= inner[START] <= inner[END] <= outer[END]

    def test_request_follows_the_example_to_another_thread(self, layer):
        recorder = SpanRecorder(self.targets(layer))
        with recorder:
            private = recorder.bind(7, object())
            worker = threading.Thread(target=layer.Outer().run, args=(private,))
            worker.start()
            worker.join(5)
            assert not worker.is_alive()
            recorder.end_request()
            layer.leaf("unbound")
        by_name = {}
        for recorded in recorder.spans():
            by_name.setdefault(recorded[NAME], []).append(recorded[REQUEST])
        assert by_name["Outer.run"] == [7]
        assert sorted(by_name["leaf"]) == [0, 7]

    def test_outcome_counts_are_kept_per_phase(self, layer):
        target = Target("fake", layer.__name__, "leaf",
                        outcome=lambda result: "seen" if result else None)
        recorder = SpanRecorder((target,))
        with recorder:
            recorder.phase = "window"
            layer.leaf(1)
            layer.leaf(0)
        assert recorder.counts() == {("window", "seen"): 1}


def test_every_target_resolves():
    recorder = SpanRecorder()
    with recorder:
        assert len(recorder._patches) >= len(tracer.TARGETS)
    assert not recorder._patches
