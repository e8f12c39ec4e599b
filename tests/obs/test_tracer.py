"""Tracer contract tests: the falsy null default and the recorder."""

import pytest

from repro.obs import NULL_TRACER, MemoryTracer, NullTracer, Tracer
from repro.obs.events import EventType, TraceEvent


class TestNullTracer:
    def test_falsy(self):
        assert not NullTracer()
        assert not NULL_TRACER

    def test_emit_is_noop(self):
        NULL_TRACER.emit(EventType.HOP, 3, "router0", packet_id=1)

    def test_guard_pattern_skips_null_and_none(self):
        # The emission sites guard with plain truthiness; both defaults
        # must short-circuit identically.
        for tracer in (None, NULL_TRACER):
            fired = False
            if tracer:
                fired = True
            assert not fired


class TestMemoryTracer:
    def test_truthy_even_when_empty(self):
        # __len__ == 0 must not make an attached tracer falsy, or no
        # event would ever be recorded.
        tracer = MemoryTracer()
        assert len(tracer) == 0
        assert tracer

    def test_records_events(self):
        tracer = MemoryTracer()
        tracer.emit(EventType.INJECT, 5, "core0", packet_id=1, request_id=2)
        tracer.emit(EventType.COMPLETE, 9, "core0", request_id=2, latency=4)
        assert len(tracer) == 2
        first = tracer.events[0]
        assert first.type is EventType.INJECT
        assert first.cycle == 5
        assert first.component == "core0"
        assert first.packet_id == 1
        assert first.request_id == 2

    def test_extra_kwargs_land_in_args(self):
        tracer = MemoryTracer()
        tracer.emit(EventType.HOP, 1, "router3", port="EAST", flits=4)
        assert tracer.events[0].args == {"port": "EAST", "flits": 4}

    def test_limit_counts_dropped(self):
        tracer = MemoryTracer(limit=2)
        for cycle in range(5):
            tracer.emit(EventType.HOP, cycle, "router0")
        assert len(tracer) == 2
        assert tracer.dropped == 3

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            MemoryTracer(limit=0)

    def test_of_type_and_by_request(self):
        tracer = MemoryTracer()
        tracer.emit(EventType.INJECT, 1, "core0", request_id=7)
        tracer.emit(EventType.HOP, 2, "router0", request_id=7)
        tracer.emit(EventType.INJECT, 3, "core1", request_id=8)
        assert len(tracer.of_type(EventType.INJECT)) == 2
        assert [e.cycle for e in tracer if e.request_id == 7] == [1, 2]

    def test_counts(self):
        tracer = MemoryTracer()
        tracer.emit(EventType.HOP, 1, "router0")
        tracer.emit(EventType.HOP, 2, "router1")
        tracer.emit(EventType.COMPLETE, 3, "core0")
        assert tracer.counts() == {"HOP": 2, "COMPLETE": 1}

    def test_iteration(self):
        tracer = MemoryTracer()
        tracer.emit(EventType.HOP, 1, "router0")
        assert [e.type for e in tracer] == [EventType.HOP]


class TestTraceEvent:
    def test_to_dict_omits_missing_ids(self):
        event = TraceEvent(EventType.DRAM_CMD, 4, "bank1")
        record = event.to_dict()
        assert record == {"type": "DRAM_CMD", "cycle": 4, "component": "bank1"}

    def test_to_dict_round_trips_args(self):
        event = TraceEvent(
            EventType.DATA_BEAT, 10, "bank0", request_id=3,
            args={"data_end": 13},
        )
        record = event.to_dict()
        assert record["request_id"] == 3
        assert record["args"] == {"data_end": 13}

    def test_repr_mentions_ids(self):
        event = TraceEvent(EventType.HOP, 2, "router1", packet_id=5)
        assert "pkt=5" in repr(event)

    def test_base_tracer_emit_abstract(self):
        with pytest.raises(NotImplementedError):
            Tracer().emit(EventType.HOP, 0, "router0")
