"""S1: BackendTracer ring-buffer semantics and dropped-event surfacing."""

from __future__ import annotations

from repro.trace.capture import BackendTracer
from repro.trace.format import format_trace


class TestRingBuffer:
    def test_below_capacity_nothing_dropped(self):
        tracer = BackendTracer(system=None, capacity=8)
        for i in range(5):
            tracer.record("load", vid=0, addr=i * 64, value=i)
        assert len(tracer.events) == 5
        assert tracer.dropped == 0

    def test_overflow_evicts_oldest_keeps_newest(self):
        tracer = BackendTracer(system=None, capacity=5)
        for i in range(12):
            tracer.record("store", vid=0, addr=i * 64, value=i)
        assert len(tracer.events) == 5
        assert tracer.dropped == 7
        # The surviving window is the most recent one, in order.
        assert [e.seq for e in tracer.events] == [8, 9, 10, 11, 12]
        assert [e.value for e in tracer.events] == [7, 8, 9, 10, 11]

    def test_capacity_adjustable_after_construction(self):
        tracer = BackendTracer(system=None)
        tracer.capacity = 3
        for i in range(10):
            tracer.record("load", vid=0, addr=i * 64, value=i)
        assert len(tracer.events) == 3
        assert tracer.dropped == 7


class TestDroppedSurfacing:
    def test_format_trace_header_warns_on_drop(self):
        tracer = BackendTracer(system=None, capacity=2)
        for i in range(6):
            tracer.record("load", vid=0, addr=i * 64, value=i)
        text = format_trace(tracer.events, dropped=tracer.dropped)
        first = text.splitlines()[0]
        assert "ring overflow" in first
        assert "4 oldest events dropped" in first
        assert "most recent 2" in first

    def test_complete_trace_has_no_warning(self):
        tracer = BackendTracer(system=None, capacity=16)
        tracer.record("commit", vid=1, detail="VID 1")
        text = format_trace(tracer.events, dropped=tracer.dropped)
        assert "ring overflow" not in text
