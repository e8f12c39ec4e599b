"""ASCII timing diagrams of SDRAM activity (Fig. 5 style).

:class:`WaveformCapture` records the command stream and the data-bus
occupancy of a :class:`~repro.dram.device.SdramDevice` run and renders
them as per-bank lanes plus a data-bus lane — the view the paper uses in
Fig. 5 to show BL 4 command congestion and its auto-precharge fix::

    cycle      0         1         2
               0123456789012345678901234567
    cmd        A----A----R---R-A---R---
    bank0      |ACT........|RD=====|
    bank1           |ACT........|RD=====|
    data                  ####____####

Intended for debugging and documentation, not measurement — the numbers
come from :class:`~repro.sim.stats.StatsCollector`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .commands import CommandKind, DramCommand
from .device import SdramDevice

_CMD_GLYPH = {
    CommandKind.ACTIVATE: "A",
    CommandKind.READ: "R",
    CommandKind.WRITE: "W",
    CommandKind.PRECHARGE: "P",
    CommandKind.REFRESH: "F",
    CommandKind.NOP: "-",
}


@dataclass
class WaveformCapture:
    """Records (cycle, command) events and data-bus busy intervals."""

    commands: List[Tuple[int, DramCommand]] = field(default_factory=list)
    data_intervals: List[Tuple[int, int, bool]] = field(default_factory=list)

    def record_command(self, cycle: int, command: DramCommand) -> None:
        if command.kind is CommandKind.NOP:
            return
        self.commands.append((cycle, command))

    def record_burst(self, start: int, end: int, is_write: bool) -> None:
        self.data_intervals.append((start, end, is_write))

    # ------------------------------------------------------------------ #

    @property
    def horizon(self) -> int:
        last_cmd = max((c for c, _ in self.commands), default=0)
        last_data = max((end for _, end, _ in self.data_intervals), default=0)
        return max(last_cmd, last_data) + 1

    def render(self, start: int = 0, end: Optional[int] = None,
               banks: Optional[List[int]] = None) -> str:
        """Render the captured window as ASCII lanes."""
        end = self.horizon if end is None else end
        if end <= start:
            raise ValueError("empty window")
        width = end - start
        seen_banks = sorted({
            cmd.bank for _, cmd in self.commands
            if cmd.kind is not CommandKind.REFRESH
        })
        lanes = banks if banks is not None else seen_banks

        def blank() -> List[str]:
            return ["."] * width

        ruler_tens = "".join(
            str(((start + i) // 10) % 10) if (start + i) % 10 == 0 else " "
            for i in range(width)
        )
        ruler_ones = "".join(str((start + i) % 10) for i in range(width))

        cmd_lane = blank()
        bank_lanes: Dict[int, List[str]] = {bank: blank() for bank in lanes}
        for cycle, command in self.commands:
            if not start <= cycle < end:
                continue
            offset = cycle - start
            glyph = _CMD_GLYPH[command.kind]
            if command.kind.is_cas and command.auto_precharge:
                glyph = glyph.lower()  # ap-tagged CAS rendered lowercase
            cmd_lane[offset] = glyph
            if command.kind is CommandKind.REFRESH:
                for lane in bank_lanes.values():  # REF refreshes every bank
                    lane[offset] = glyph
            elif command.bank in bank_lanes:
                bank_lanes[command.bank][offset] = glyph

        data_lane = blank()
        for burst_start, burst_end, is_write in self.data_intervals:
            for cycle in range(max(burst_start, start), min(burst_end + 1, end)):
                data_lane[cycle - start] = "W" if is_write else "R"

        label = max(10, *(len(f"bank{b}") for b in lanes)) if lanes else 10
        lines = [
            f"{'cycle':<{label}} {ruler_tens}",
            f"{'':<{label}} {ruler_ones}",
            f"{'cmd':<{label}} {''.join(cmd_lane)}",
        ]
        for bank in lanes:
            lines.append(f"{f'bank{bank}':<{label}} {''.join(bank_lanes[bank])}")
        lines.append(f"{'data':<{label}} {''.join(data_lane)}")
        lines.append(
            f"{'':<{label}} A=ACT R/W=CAS (lowercase = auto-precharge) P=PRE "
            "F=REF"
        )
        return "\n".join(lines)


def attach(device: SdramDevice) -> WaveformCapture:
    """Instrument ``device`` so every issued command and data burst is
    captured.  Returns the capture; detach by restoring ``device._apply``.

    Wraps ``_apply`` — the single funnel both :meth:`SdramDevice.issue`
    and the controller's pre-vetted :meth:`SdramDevice.issue_vetted` path
    go through — so the capture sees every command either way."""
    capture = WaveformCapture()
    original_apply = device._apply

    def _apply(cycle: int, command: DramCommand):
        completion = original_apply(cycle, command)
        capture.record_command(cycle, command)
        if completion is not None:
            capture.record_burst(
                completion.data_start, completion.data_end, not completion.is_read
            )
        return completion

    device._apply = _apply  # type: ignore[method-assign]
    return capture
