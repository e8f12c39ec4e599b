"""DPQ arbiter unit tests: grant order, serial service, bound math."""

import pytest

from tests.helpers import make_request
from repro.dram.device import SdramDevice
from repro.dram.dpq import (
    DPQ_QUEUE_CAPACITY,
    DpqScheduler,
    dpq_latency_bound,
    service_slot_cycles,
)


def make_dpq(timing, **kwargs):
    return DpqScheduler(SdramDevice(timing), timing, **kwargs)


def drive(scheduler, requests, max_cycles=50_000):
    pending = list(requests)
    finished = []
    cycle = 0
    while (pending or not scheduler.idle) and cycle < max_cycles:
        while pending and scheduler.can_accept(pending[0]):
            scheduler.enqueue(pending.pop(0), cycle)
        scheduler.tick(cycle)
        finished.extend(scheduler.drain_finished())
        cycle += 1
    return finished, cycle


class TestGrantOrder:
    def test_served_requestor_drops_to_tail(self, ddr2_timing):
        dpq = make_dpq(ddr2_timing)
        for master in (0, 1, 2):
            dpq.enqueue(make_request(master=master, bank=master), 0)
            dpq.enqueue(make_request(master=master, bank=master), 0)
        first = dpq._grant()
        assert first.master == 0
        assert dpq.order == [1, 2, 0]
        second = dpq._grant()
        assert second.master == 1
        assert dpq.order == [2, 0, 1]

    def test_at_most_n_minus_1_foreign_grants_between_own(self, ddr2_timing):
        """The DPQ invariant the bound rests on: between two consecutive
        grants to one requestor, every other requestor is granted at most
        once — checked over a full saturated grant trace."""
        dpq = make_dpq(ddr2_timing)
        masters = (0, 1, 2, 3)
        trace = []
        backlog = {
            m: [make_request(master=m, bank=m % 8, row=i) for i in range(20)]
            for m in masters
        }
        for _ in range(60):
            for m in masters:  # keep every FIFO topped up
                while backlog[m] and dpq.can_accept(backlog[m][0]):
                    dpq.enqueue(backlog[m].pop(0), 0)
            granted = dpq._grant()
            assert granted is not None
            trace.append(granted.master)
        for m in masters:
            own = [i for i, g in enumerate(trace) if g == m]
            for a, b in zip(own, own[1:]):
                between = trace[a + 1:b]
                assert len(between) <= len(masters) - 1
                assert len(set(between)) == len(between)

    def test_empty_fifo_skipped_without_reorder(self, ddr2_timing):
        dpq = make_dpq(ddr2_timing)
        dpq.enqueue(make_request(master=0), 0)
        dpq.enqueue(make_request(master=1), 0)
        # Drain master 0's only request; order is now [1, 0].
        assert dpq._grant().master == 0
        # Master 0's FIFO is empty: grant falls through to master 1 and
        # only master 1 moves to the tail.
        assert dpq._grant().master == 1
        assert dpq.order == [0, 1]

    def test_grant_none_when_all_empty(self, ddr2_timing):
        dpq = make_dpq(ddr2_timing)
        assert dpq._grant() is None


class TestService:
    def test_serial_single_outstanding(self, ddr2_timing):
        dpq = make_dpq(ddr2_timing)
        assert dpq.engine.window_size == 1

    def test_serves_all_requestors(self, ddr2_timing):
        dpq = make_dpq(ddr2_timing)
        requests = [
            make_request(master=i % 3, bank=i % 8, row=i) for i in range(9)
        ]
        finished, _ = drive(dpq, requests)
        assert len(finished) == 9
        assert dpq.idle
        stats = dpq.scheduler_stats()
        assert stats["requestors"] == 3.0
        assert sum(
            stats[f"requestor{m}.grants"] for m in range(3)
        ) == 9.0

    def test_backpressure_per_requestor(self, ddr2_timing):
        dpq = make_dpq(ddr2_timing, queue_capacity=2)
        dpq.enqueue(make_request(master=0), 0)
        dpq.enqueue(make_request(master=0), 0)
        assert not dpq.can_accept(make_request(master=0))
        assert dpq.can_accept(make_request(master=1))
        with pytest.raises(RuntimeError):
            dpq.enqueue(make_request(master=0), 0)

    def test_queue_capacity_positive(self, ddr2_timing):
        with pytest.raises(ValueError):
            make_dpq(ddr2_timing, queue_capacity=0)


class TestBound:
    def test_slot_covers_all_constraints(self, ddr2_timing):
        slot = service_slot_cycles(ddr2_timing, burst_beats=8, max_beats=8)
        t = ddr2_timing
        assert slot >= t.t_rcd + t.t_ras + t.t_rp
        assert slot >= t.burst_cycles(8) + max(t.cas_latency, t.write_latency)

    def test_slot_scales_with_beats(self, ddr2_timing):
        small = service_slot_cycles(ddr2_timing, 8, 8)
        large = service_slot_cycles(ddr2_timing, 8, 64)
        per_burst = max(
            ddr2_timing.t_ccd,
            ddr2_timing.burst_cycles(8),
            ddr2_timing.t_rrd,
        )
        assert large - small == 7 * per_burst

    def test_bound_formula(self, ddr2_timing):
        slot = service_slot_cycles(ddr2_timing, 8, 8)
        assert dpq_latency_bound(
            ddr2_timing, requestors=3, queue_capacity=4,
            burst_beats=8, max_beats=8,
        ) == (4 * 3 + 1) * slot

    def test_bound_requires_requestors(self, ddr2_timing):
        with pytest.raises(ValueError):
            dpq_latency_bound(ddr2_timing, 0, 4, 8, 8)

    def test_latency_bound_none_before_traffic(self, ddr2_timing):
        dpq = make_dpq(ddr2_timing)
        assert dpq.latency_bound() is None

    def test_latency_bound_tracks_admitted_population(self, ddr2_timing):
        dpq = make_dpq(ddr2_timing)
        dpq.enqueue(make_request(master=0, beats=8), 0)
        one = dpq.latency_bound()
        assert one == dpq_latency_bound(
            ddr2_timing, 1, DPQ_QUEUE_CAPACITY, 8, 8
        )
        dpq.enqueue(make_request(master=1, beats=32), 0)
        two = dpq.latency_bound()
        assert two == dpq_latency_bound(
            ddr2_timing, 2, DPQ_QUEUE_CAPACITY, 8, 32
        )
        assert two > one

    def test_measured_worst_case_within_bound(self, ddr2_timing):
        """Deterministic end-to-end check of the soundness claim (the
        hypothesis test randomizes it): saturate four requestors with a
        row-conflict-heavy mix and compare p100 against the bound."""
        dpq = make_dpq(ddr2_timing)
        requests = [
            make_request(
                master=i % 4,
                bank=i % 8,
                row=i * 7 % 32,
                beats=8 if i % 3 else 32,
                is_read=bool(i % 2),
            )
            for i in range(48)
        ]
        finished, _ = drive(dpq, requests)
        assert len(finished) == 48
        assert dpq.service_latency.p100 <= dpq.latency_bound()
