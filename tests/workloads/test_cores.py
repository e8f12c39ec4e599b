"""Synthetic core generator tests."""

from itertools import count

import pytest
from hypothesis import given, strategies as st

from repro.dram.address_map import AddressMap
from repro.workloads.cores import (
    CoreSpec,
    Stream,
    SyntheticCore,
    cpu_core,
    display_core,
    enhancer_core,
    h264_codec_core,
)


def build_core(spec=None, master=0, seed=1, priority_demand=False):
    return SyntheticCore(
        master=master,
        spec=spec or h264_codec_core(),
        address_map=AddressMap(banks=8),
        region_index=master,
        region_count=8,
        request_ids=count(),
        seed=seed,
        priority_demand=priority_demand,
    )


def collect(core, cycles):
    requests = []
    for cycle in range(cycles):
        requests.extend(core.generate(cycle))
    return requests


class TestGeneration:
    def test_outstanding_cap_enforced(self):
        core = build_core()
        cap = core.spec.max_outstanding
        requests = collect(core, 2_000)
        assert len(requests) == cap
        core.on_complete(requests[0].request_id, 2_000)
        more = []
        for cycle in range(2_000, 4_000):
            more.extend(core.generate(cycle))
        assert len(more) == 1

    def test_gap_paces_issues(self):
        spec = h264_codec_core(gap_mean=50.0)
        spec = CoreSpec(name=spec.name, streams=spec.streams, gap_mean=50.0,
                        max_outstanding=100)
        core = build_core(spec)
        issues = []
        for cycle in range(3_000):
            for request in core.generate(cycle):
                issues.append(cycle)
        mean_gap = (issues[-1] - issues[0]) / (len(issues) - 1)
        assert 25 < mean_gap < 100

    def test_deterministic_per_seed(self):
        a = collect(build_core(seed=42), 500)
        b = collect(build_core(seed=42), 500)
        assert [(r.bank, r.row, r.column, r.beats) for r in a] == \
               [(r.bank, r.row, r.column, r.beats) for r in b]

    def test_different_seeds_differ(self):
        a = collect(build_core(seed=1), 500)
        b = collect(build_core(seed=2), 500)
        assert [(r.bank, r.row, r.column) for r in a] != \
               [(r.bank, r.row, r.column) for r in b]


class TestAddressing:
    def test_requests_stay_in_bank_set(self):
        core = build_core()
        requests = []
        for cycle in range(5_000):
            produced = core.generate(cycle)
            requests.extend(produced)
            for request in produced:
                core.on_complete(request.request_id, cycle)
        assert requests
        assert {r.bank for r in requests} <= set(core._bank_set)

    def test_bank_set_has_four_banks(self):
        core = build_core()
        assert len(core._bank_set) == 4

    def test_requests_never_cross_row_boundary(self):
        spec = enhancer_core(gap_mean=1.0)
        core = build_core(spec)
        for cycle in range(5_000):
            for request in core.generate(cycle):
                assert request.column + request.beats <= 1024
                core.on_complete(request.request_id, cycle)

    def test_sequential_stream_is_row_local(self):
        """Consecutive same-stream requests mostly hit the same row."""
        spec = enhancer_core(gap_mean=1.0)
        core = build_core(spec)
        requests = []
        for cycle in range(4_000):
            produced = core.generate(cycle)
            requests.extend(produced)
            for request in produced:
                core.on_complete(request.request_id, cycle)
        same = sum(
            1 for a, b in zip(requests, requests[1:])
            if (a.bank, a.row) == (b.bank, b.row)
        )
        assert same / len(requests) > 0.5


class TestDemandClass:
    def test_cpu_generates_demands(self):
        core = build_core(cpu_core(gap_mean=2.0), priority_demand=True)
        requests = []
        for cycle in range(4_000):
            produced = core.generate(cycle)
            requests.extend(produced)
            for request in produced:
                core.on_complete(request.request_id, cycle)
        demands = [r for r in requests if r.is_demand]
        assert demands
        assert all(r.is_priority for r in demands)
        assert any(not r.is_demand for r in requests)

    def test_priority_disabled_keeps_best_effort(self):
        core = build_core(cpu_core(gap_mean=2.0), priority_demand=False)
        requests = collect(core, 500)
        assert all(not r.is_priority for r in requests)

    def test_codec_has_no_demands(self):
        core = build_core(h264_codec_core(), priority_demand=True)
        requests = collect(core, 500)
        assert all(not r.is_demand for r in requests)


class TestRunBehaviour:
    def test_direction_runs_exist(self):
        """Stream runs: direction flips are rarer than per-request flips."""
        spec = enhancer_core(gap_mean=1.0)
        core = build_core(spec)
        requests = []
        for cycle in range(4_000):
            produced = core.generate(cycle)
            requests.extend(produced)
            for request in produced:
                core.on_complete(request.request_id, cycle)
        flips = sum(1 for a, b in zip(requests, requests[1:])
                    if a.is_read != b.is_read)
        assert flips / len(requests) < 0.4

    def test_completion_without_outstanding_raises(self):
        core = build_core()
        with pytest.raises(RuntimeError):
            core.on_complete(0, 0)


class TestIssueContract:
    """The core NI calls generate() only from next_issue_cycle on and
    sleeps while issue_blocked.  Skipping the other calls is
    bit-identical only because each of them is a strict no-op: it issues
    nothing and draws no random number."""

    @given(
        factory=st.sampled_from(
            [cpu_core, h264_codec_core, enhancer_core, display_core]
        ),
        seed=st.integers(0, 2**16),
        schedule=st.lists(
            st.tuples(st.integers(0, 60), st.booleans()),
            min_size=1, max_size=80,
        ),
    )
    def test_generate_is_a_no_op_until_it_may_issue(
        self, factory, seed, schedule
    ):
        core = build_core(factory(), seed=seed)
        outstanding = []
        cycle = 0
        for advance, complete in schedule:
            cycle += advance
            if complete and outstanding:
                core.on_complete(outstanding.pop(0).request_id, cycle)
            idle = cycle < core.next_issue_cycle or core.issue_blocked
            state = core.rng.getstate()
            issued = core.generate(cycle)
            if idle:
                assert issued == []
                assert core.rng.getstate() == state
            outstanding.extend(issued)
