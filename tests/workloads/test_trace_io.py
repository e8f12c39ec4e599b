"""Trace persistence and system capture/replay tests."""

import pytest

from tests.helpers import make_request
from repro.core.system import build_system
from repro.sim.config import NocDesign, SystemConfig
from repro.workloads.trace import (
    TraceEntry,
    load_traces,
    record_system,
    replay_into_system,
    save_traces,
)


def sample_traces():
    return {
        0: [TraceEntry(5, make_request(request_id=1, bank=2, row=3,
                                       beats=8, priority=True, demand=True))],
        3: [TraceEntry(9, make_request(request_id=2, master=3, is_read=False))],
    }


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        original = sample_traces()
        save_traces(original, path)
        loaded = load_traces(path)
        assert set(loaded) == {0, 3}
        entry = loaded[0][0]
        assert entry.cycle == 5
        assert entry.request.bank == 2
        assert entry.request.is_priority
        assert entry.request.is_demand
        assert loaded[3][0].request.is_write

    def test_json_is_human_readable(self, tmp_path):
        path = tmp_path / "trace.json"
        save_traces(sample_traces(), path)
        text = path.read_text()
        assert '"bank": 2' in text


class TestSystemCapture:
    def test_record_system_captures_all_masters(self):
        system = build_system(SystemConfig(app="bluray", cycles=1_500,
                                           warmup=200))
        recorders = record_system(system)
        system.run()
        assert set(recorders) == {core.master for core in system.cores}
        assert sum(len(r.entries) for r in recorders.values()) > 20

    def test_replay_serves_the_same_requests(self):
        config = SystemConfig(app="bluray", cycles=2_000, warmup=300)
        reference = build_system(config)
        recorders = record_system(reference)
        reference.run()
        traces = {m: r.entries for m, r in recorders.items()}
        total = sum(len(entries) for entries in traces.values())

        replayed = build_system(config.with_(design=NocDesign.SDRAM_AWARE))
        replay_into_system(replayed, traces)
        metrics = replayed.run(cycles=6_000)
        # the replayed system must serve (nearly) the whole trace
        served = sum(core_if.completed_requests
                     for core_if in replayed.core_interfaces)
        assert served >= total * 0.95
