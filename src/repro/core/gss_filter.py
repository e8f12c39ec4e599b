"""The Fig. 4 filter chains and selection cascade.

Candidates enter token-tiered tables ``T(1) .. T(6)`` according to how many
tokens they hold; every candidate additionally enters ``T(0)`` (Algorithm 1,
lines 16-17).  Each tier is filtered against the SDRAM conditions relative
to the last scheduled packet ``h(n)``:

* **bank conflict** — same bank, different row (the costliest condition);
* **data contention** — read/write direction flips on the bidirectional
  data bus;
* **short turn-around bank interleaving (STI)** — the candidate's bank has
  not finished its deactivate/re-activate window since its last access
  (only in the Fig. 4(b) variant, worth it for high-clock DDR III).

The higher a candidate's tier (more tokens — i.e. older, or priority with a
large PCT), the fewer conditions it must satisfy, so starved and priority
packets escape the filter progressively.  The filtered outputs feed the
``SP = A ? B ? C`` cascade: a passing *priority* packet with the most tokens
wins first; otherwise a passing *row-buffer-hit* candidate from ``T_o(0)``
(the likely next short packet split from the same SAGM parent — Section
IV-C); otherwise a passing best-effort packet with the most tokens.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..dram.request import MemoryRequest
from ..noc.flow_control import Candidate
from .tokens import MAX_TOKENS, TokenTable


@dataclass
class SchedulerState:
    """SDRAM-visible state a GSS flow controller maintains (Section IV-B).

    The short-turnaround condition is tracked two ways:

    * the paper's per-bank cycle counters, armed to tWR+tRP (write) / tRP
      (read) when a packet finishes delivery — exact when the memory
      pipeline behind the router is shallow;
    * a *schedule-distance* window over the last ``sti_distance`` scheduled
      packets: because the downstream pipeline serves packets in this
      router's order, two same-bank different-row packets closer than the
      turnaround time (in packet-service slots) will stall the in-order
      controller no matter when they physically arrive.  This keeps the
      condition meaningful when queueing delays outgrow the raw counters.
    """

    last_request: Optional[MemoryRequest] = None
    #: Per-bank cycle until which re-activation stalls (the STI counters,
    #: set to tWR+tRP after a write and tRP after a read).
    bank_ready_at: Dict[int, int] = field(default_factory=dict)
    #: Row each bank was last scheduled to (a row hit needs no reactivation).
    bank_last_row: Dict[int, int] = field(default_factory=dict)
    #: Same-bank reuse window, in scheduled packets.
    sti_distance: int = 0
    recent: Deque = field(default_factory=deque)

    def row_hit(self, request: MemoryRequest) -> bool:
        return self.last_request is not None and request.row_hit_with(
            self.last_request
        )

    def sti_blocked(self, request: MemoryRequest, cycle: int) -> bool:
        """Bank still in its turn-around window and the access would need a
        fresh activation (a row hit re-uses the open row: no STI issue)."""
        if self.bank_last_row.get(request.bank) == request.row:
            return False
        if self.bank_ready_at.get(request.bank, 0) > cycle:
            return True
        return any(
            bank == request.bank and row != request.row
            for bank, row in self.recent
        )

    def note_scheduled(self, request: MemoryRequest) -> None:
        self.last_request = request
        self.bank_last_row[request.bank] = request.row
        if self.sti_distance > 0:
            self.recent.append((request.bank, request.row))
            if len(self.recent) > self.sti_distance:
                self.recent.popleft()

    def note_delivered(
        self, request: MemoryRequest, cycle: int, write_window: int, read_window: int
    ) -> None:
        window = write_window if request.is_write else read_window
        self.bank_ready_at[request.bank] = cycle + window


def tier_conditions(tokens: int, sti_enabled: bool) -> Tuple[bool, bool, bool]:
    """Which conditions tier ``tokens`` must satisfy:
    returns (check_bank_conflict, check_data_contention, check_sti).

    Conditions relax with seniority: the short-turnaround and contention
    checks are released at tier 5, the bank-conflict check only at the
    maximum tier (the Algorithm 1 escape loop's last resort)."""
    if tokens >= MAX_TOKENS:
        return (False, False, False)
    if tokens >= 5:
        return (True, False, False)
    return (True, True, sti_enabled and tokens <= 2)


#: ``tier_conditions`` memoized per tier (it is pure); tiers above
#: MAX_TOKENS share the unconditional-accept row.
_TIER_TABLE = {
    False: [tier_conditions(t, False) for t in range(MAX_TOKENS + 1)],
    True: [tier_conditions(t, True) for t in range(MAX_TOKENS + 1)],
}


def passes_filter(
    state: SchedulerState,
    request: MemoryRequest,
    tokens: int,
    cycle: int,
    sti_enabled: bool,
) -> bool:
    """Does this candidate pass its token tier's filter (Fig. 4)?

    A row-buffer hit always passes: it is the condition the paper's
    scheduler *encourages* (it implies no bank conflict, and back-to-back
    same-direction split packets dominate the row-hit case).
    """
    last = state.last_request
    if last is not None and request.row_hit_with(last):
        return True
    check_bc, check_dc, check_sti = _TIER_TABLE[sti_enabled][
        tokens if tokens < MAX_TOKENS else MAX_TOKENS
    ]
    if check_bc and last is not None and request.bank_conflict_with(last):
        return False
    if check_dc and last is not None and request.data_contention_with(last):
        return False
    if check_sti and state.sti_blocked(request, cycle):
        return False
    return True


def select(
    state: SchedulerState,
    table: TokenTable,
    candidates: Sequence[Candidate],
    cycle: int,
    sti_enabled: bool,
    priority_aware: bool = True,
    row_hit_stage: bool = True,
) -> Optional[Candidate]:
    """Run the Fig. 4 cascade; age tokens (lines 19-24) until someone passes.

    With ``priority_aware`` False the cascade skips the priority stage and
    with ``row_hit_stage`` False it also skips the ``T_o(0)`` row-hit stage
    — together that is the SDRAM-aware baseline [4]: a priority-equal,
    oldest-first scheduler that merely avoids bad SDRAM conditions.  The
    ``T_o(0)`` preference is this paper's addition (it keeps SAGM split
    chains together, Section IV-B).
    """
    # Lines 4-6: only a pending priority packet excludes anyone.
    eligible = candidates
    if table._pending_priority:
        eligible = [
            c for c in candidates if not table.is_excluded(c[1], c[0])
        ]
    if not eligible:
        return None
    # Lines 19-24: if nothing passes, grant extra tokens and retry.  The
    # extra tokens are applied transiently (per arbitration) rather than
    # written back: a forced lax-tier schedule should not permanently
    # weaken the SDRAM filters for every packet still queued.
    if len(eligible) == 1:
        # Every cascade stage returns a member of ``passing``, and the
        # MAX_TOKENS bump tier passes everything, so a lone eligible
        # candidate is selected whichever tier first lets it through.
        return eligible[0]
    tokens = table.tokens
    tiers = [(c, tokens(c[1])) for c in eligible]
    for bump in range(MAX_TOKENS + 1):
        passing = [
            tier
            for tier in tiers
            if passes_filter(state, tier[0][1].request, tier[1] + bump,
                             cycle, sti_enabled)
        ]
        if passing:
            return _cascade(state, table, passing, priority_aware,
                            row_hit_stage, cycle=cycle,
                            sti_enabled=sti_enabled)
    # Unreachable: at MAX_TOKENS the filter accepts everything.
    raise AssertionError("GSS filter failed to converge")


def _cascade(
    state: SchedulerState,
    table: TokenTable,
    passing: List[Tuple[Candidate, int]],
    priority_aware: bool,
    row_hit_stage: bool,
    cycle: int = 0,
    sti_enabled: bool = False,
) -> Candidate:
    """SP = A ? B ? C (Fig. 4): priority > row-hit (T_o(0)) > best-effort.

    ``passing`` pairs each candidate that passed its filter with its
    tokens.  With STI enabled, candidates whose bank is still inside its
    turn-around window rank behind ready-bank candidates of the same
    stage — a preference, so a turnaround-bound packet is only delayed
    while a better-ordered alternative actually exists (Fig. 4(b)).
    """
    if len(passing) == 1:
        # All three stages return a member of ``passing``.
        return passing[0][0]

    def seniority(tier: Tuple[Candidate, int]):
        candidate, tokens = tier
        packet = candidate[1]
        ready = 1
        if sti_enabled and state.sti_blocked(packet.request, cycle):
            ready = 0
        return (ready, tokens, -table.entry(packet).arrival_cycle)

    if priority_aware:
        priority = [tier for tier in passing if tier[0][1].is_priority]
        if priority:
            return max(priority, key=seniority)[0]
    if row_hit_stage:
        row_hits = [
            tier for tier in passing if state.row_hit(tier[0][1].request)
        ]
        if row_hits:
            return max(row_hits, key=seniority)[0]
    return max(passing, key=seniority)[0]
