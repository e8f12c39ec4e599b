"""Fault injection and resilience.

The paper's GSS/SAGM pipeline guarantees SDRAM service over a *perfect*
fabric; this package supplies the failure half of that contract:

* :mod:`repro.resilience.faults` — a deterministic, seeded
  :class:`FaultInjector` that corrupts or drops flits on links, flips bits
  in router input buffers, and injects SDRAM data errors, driven by
  per-site rates or a scripted schedule;
* :mod:`repro.resilience.protection` — the :class:`ResilienceController`:
  link-level CRC with NACK-triggered retransmission and bounded
  exponential backoff at the network interfaces, DRAM re-reads on
  uncorrectable ECC errors, and the fault ledger that accounts for every
  injected fault (corrected / recovered / failed / pending);
* :mod:`repro.resilience.watchdog` — a per-request watchdog that re-issues
  timed-out requests up to a cap, then surfaces them as failed instead of
  hanging the simulation;
* :mod:`repro.resilience.invariants` — a live :class:`InvariantChecker`,
  a simulator component registered last, asserting GSS token
  conservation, link credit conservation, and a packet-age
  (livelock/deadlock) bound.

Everything here is opt-in: with ``SystemConfig.faults`` left ``None`` no
resilience object is built and simulation results are bit-identical to a
system without this package.
"""

from .._lazy import lazy_exports

# Resolved on first use: `SystemConfig` validation and `SocSystem`
# import only the modules a faulty or checked run needs.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".faults": ("FaultConfig", "FaultInjector", "FaultSite",
                "ScheduledFault"),
    ".invariants": ("InvariantChecker", "InvariantViolation"),
    ".protection": ("ResilienceController",),
    ".watchdog": ("RequestWatchdog",),
})

__all__ = [
    "FaultConfig",
    "FaultInjector",
    "FaultSite",
    "InvariantChecker",
    "InvariantViolation",
    "RequestWatchdog",
    "ResilienceController",
    "ScheduledFault",
]
