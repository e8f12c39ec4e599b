"""Waveform capture/rendering tests."""

import pytest

from tests.helpers import make_request
from repro.dram.controller import CommandEngine, PagePolicy
from repro.dram.device import SdramDevice
from repro.dram.waveform import WaveformCapture, attach


def run_with_capture(ddr_timing, requests, **engine_kwargs):
    device = SdramDevice(ddr_timing)
    capture = attach(device)
    engine = CommandEngine(device, **engine_kwargs)
    pending = list(requests)
    cycle = 0
    while (pending or not engine.idle) and cycle < 2_000:
        if pending and engine.has_space:
            engine.accept(pending.pop(0), cycle)
        engine.tick(cycle)
        engine.drain_finished()
        cycle += 1
    return capture


class TestCapture:
    def test_commands_and_bursts_recorded(self, ddr2_timing):
        capture = run_with_capture(ddr2_timing, [make_request(beats=8)],
                                   burst_beats=8)
        kinds = [cmd.kind.value for _, cmd in capture.commands]
        assert kinds == ["ACT", "RD"]
        assert len(capture.data_intervals) == 1
        start, end, is_write = capture.data_intervals[0]
        assert end - start + 1 == 4  # BL8 = 4 data cycles
        assert not is_write

    def test_horizon_covers_last_event(self, ddr2_timing):
        capture = run_with_capture(ddr2_timing, [make_request(beats=8)],
                                   burst_beats=8)
        assert capture.horizon > capture.data_intervals[0][1]


class TestRender:
    def test_lanes_present(self, ddr2_timing):
        capture = run_with_capture(
            ddr2_timing,
            [make_request(bank=0, beats=8), make_request(bank=1, beats=8)],
            burst_beats=8,
        )
        text = capture.render()
        assert "cmd" in text and "bank0" in text and "bank1" in text
        assert "data" in text
        assert "A" in text and "R" in text

    def test_auto_precharge_lowercase(self, ddr2_timing):
        capture = run_with_capture(
            ddr2_timing,
            [make_request(beats=4, ap_tag=True)],
            burst_beats=4,
            page_policy=PagePolicy.PARTIALLY_OPEN,
        )
        text = capture.render()
        assert "r" in text  # lowercase CAS = auto-precharge

    def test_write_bursts_marked(self, ddr2_timing):
        capture = run_with_capture(
            ddr2_timing, [make_request(beats=8, is_read=False)], burst_beats=8
        )
        data_line = next(line for line in capture.render().splitlines()
                         if line.startswith("data"))
        assert "W" in data_line

    def test_window_selection(self, ddr2_timing):
        capture = run_with_capture(ddr2_timing, [make_request(beats=8)],
                                   burst_beats=8)
        windowed = capture.render(start=0, end=3)
        full = capture.render()
        assert len(windowed.splitlines()[2]) < len(full.splitlines()[2])

    def test_empty_window_rejected(self, ddr2_timing):
        capture = run_with_capture(ddr2_timing, [make_request(beats=8)],
                                   burst_beats=8)
        with pytest.raises(ValueError):
            capture.render(start=10, end=10)

    def test_bank_filter(self, ddr2_timing):
        capture = run_with_capture(
            ddr2_timing,
            [make_request(bank=0, beats=8), make_request(bank=1, beats=8)],
            burst_beats=8,
        )
        text = capture.render(banks=[1])
        assert "bank1" in text and "bank0" not in text


class TestGolden:
    def test_bl4_partially_open_schedule(self, ddr2_timing):
        """Golden rendering of a small BL 4 schedule (Fig. 5 territory).

        Two BL 4 reads to the same row: one ACT, two CAS (tCCD apart), the
        second carrying the SAGM auto-precharge tag (lowercase ``r``), and
        their data back-to-back on the bus.  Pins the exact command
        placement *and* the renderer's output format — a change to either
        shows up as a readable diff.
        """
        capture = run_with_capture(
            ddr2_timing,
            [
                make_request(request_id=0, bank=0, row=1, column=0, beats=4),
                make_request(
                    request_id=1, bank=0, row=1, column=4, beats=4,
                    ap_tag=True,
                ),
            ],
            burst_beats=4,
            page_policy=PagePolicy.PARTIALLY_OPEN,
        )
        expected = "\n".join(
            [
                "cycle      0         1         2   ",
                "           012345678901234567890123",
                "cmd        A....R.r................",
                "bank0      A....R.r................",
                "data       ..........RRRR..........",
                "           A=ACT R/W=CAS (lowercase = auto-precharge) P=PRE "
                "F=REF",
            ]
        )
        assert capture.render(end=24) == expected
