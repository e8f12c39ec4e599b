"""One measured run in a fresh single-threaded process.

Run as ``python -m bench.child '<json spec>'`` with ``repro`` importable;
prints one JSON result line.  ``setup_s`` starts at this module's first
line and ends once the system is built, so it covers the imports and
``build_system``; a spec with ``cycles`` 0 stops there.  The horizon runs as ``Simulator.run(CHUNK_CYCLES)``
chunks, each timed on its own and each followed by one timed
:func:`calibrate` call, so every chunk carries a measure of how fast
the host was at that moment.
"""

from time import perf_counter

_START = perf_counter()

import hashlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402

from .workloads import CHUNK_CYCLES, MIN_CYCLES, WORKLOADS  # noqa: E402

#: Simulated cycles ``SocSystem.drain`` may take after the horizon.
DRAIN_CYCLES = 50_000


class _Slot:
    __slots__ = ("key", "count")

    def __init__(self, key: int) -> None:
        self.key = key
        self.count = 0

    def bump(self, amount: int) -> int:
        self.count += amount
        return self.count


def calibrate() -> int:
    """A fixed ~1.5 ms pure-Python kernel of the operations the simulator
    spends its time on: attribute updates on slotted objects, method
    calls, dict reads and writes, and a small FIFO.  Its host time is
    the benchmark's measure of host speed; it never changes with the
    simulator."""
    slots = [_Slot(i) for i in range(64)]
    table = {}
    fifo = []
    for i in range(8000):
        slot = slots[i & 63]
        table[slot.key] = table.get(slot.key, 0) + slot.bump(i & 7)
        fifo.append(slot)
        if len(fifo) > 16:
            fifo.pop(0)
    return len(table)


def run_metrics(system):
    """``RunMetrics`` at the current cycle, as ``SocSystem.run`` builds it."""
    from repro import RunMetrics

    # Trees before the scheduler seam take no ``scheduler`` argument.
    if "scheduler" in inspect.signature(RunMetrics.from_collector).parameters:
        return RunMetrics.from_collector(
            system.stats, system.simulator.cycle, scheduler=system.subsystem
        )
    return RunMetrics.from_collector(system.stats, system.simulator.cycle)


def fingerprint(metrics, snapshot) -> str:
    """sha256 over ``RunMetrics`` and the ``collect_metrics`` snapshot."""
    document = json.dumps(
        {"run_metrics": asdict(metrics), "registry": snapshot},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(document.encode()).hexdigest()


def registry_snapshot(system) -> dict:
    """``system.collect_metrics().snapshot()``."""
    registry = system.collect_metrics()
    # Trees before the telemetry stream name it ``as_dict``.
    snapshot = getattr(registry, "snapshot", None) or registry.as_dict
    return snapshot()


def system_fingerprint(system) -> str:
    return fingerprint(run_metrics(system), registry_snapshot(system))


def measure(spec: dict) -> dict:
    trace = None
    if spec["trace"]:
        from .trace import install

        trace = install()
    from repro import build_system

    workload = WORKLOADS[spec["workload"]]
    cycles = spec["cycles"]
    system = build_system(workload.config(spec["seed"], max(cycles, MIN_CYCLES)))
    setup_s = perf_counter() - _START
    if cycles == 0:
        return {"setup_s": setup_s}

    run = system.simulator.run
    chunks = []
    calibrations = []
    for _ in range(cycles // CHUNK_CYCLES):
        start = perf_counter()
        run(CHUNK_CYCLES)
        middle = perf_counter()
        calibrate()
        chunks.append(middle - start)
        calibrations.append(perf_counter() - middle)

    metrics = run_metrics(system)
    digest = fingerprint(metrics, registry_snapshot(system))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    simulator = system.simulator
    injector = system.fault_injector
    result = {
        "setup_s": setup_s,
        "chunks_s": chunks,
        "calibrations_s": calibrations,
        "fingerprint": digest,
        "peak_rss_mb": rss_mb,
        "model": {
            "utilization": metrics.utilization,
            "latency_demand": metrics.latency_demand,
            # Absent before the scheduler seam.
            "service_p100": getattr(metrics, "service_p100", 0.0),
            "completed": metrics.completed,
        },
        "system": {
            "jumped_cycles": simulator.fast_forwarded_cycles,
            # Trees before the event core record no mode: always stepped.
            "stepped": int(getattr(simulator, "last_dispatch_mode", "stepped")
                           != "event"),
            "faults_injected": injector.total_injected if injector else 0,
            "requests_failed": sum(
                ni.failed_requests for ni in system.core_interfaces
            ),
        },
    }
    if trace is not None:
        result["trace"] = trace.totals()
        trace.uninstall()
    if system.resilience is not None:
        # Outside the timed region: every injected fault must end
        # corrected, recovered or failed once the fabric drains.
        drained = system.drain(DRAIN_CYCLES)
        result["ledger"] = {
            "drained": drained,
            "unresolved": system.resilience.unresolved,
        }
    return result


def main(argv) -> int:
    spec = json.loads(argv[0])
    print(json.dumps(measure(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
