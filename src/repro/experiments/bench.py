"""Standing simulator benchmarks: the machine-readable perf trajectory.

Every growth PR extends ``BENCH_<n>.json`` so the simulator's
cycles-per-second history is a first-class, reviewable artifact next to
the paper exhibits.  Three benchmarks cover the layers that dominate wall
time:

* ``full_system_gss_sagm`` — the paper's headline configuration (8 DTV
  cores, GSS routers, SAGM thin controller): NoC plan/commit, GSS filter
  chains, and the SDRAM pipeline all hot;
* ``full_system_conv`` — the conventional design (MemMax + Databahn), a
  different scheduler mix with the same fabric;
* ``dram_engine`` — the CommandEngine + SdramDevice pair alone, no
  network, so DRAM-model regressions are visible even when the NoC
  dominates the full system.

Wall-clock on shared hosts is noisy in a *structured* way: CPUs ramp
frequency over the first seconds of a process and neighbours steal time,
so raw cycles/sec numbers from different runs are not comparable.  The
harness therefore (a) runs warm-up repetitions and keeps the best timed
repetition — the standard min-of-trials estimator for the machine's true
capability — and (b) records a **calibration score** from a fixed
pure-Python workload alongside every measurement.  Comparing two
trajectory points from different machines (or CPU regimes) means scaling
by the calibration ratio first; :func:`check_regression` and the speed
tests in ``benchmarks/`` do exactly that.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass
from itertools import count
from typing import Callable, Dict, List, Optional

from ..sim.config import DdrGeneration, NocDesign, SystemConfig

#: Trajectory file written by this PR (bump per growth PR).
TRAJECTORY_FILE = "BENCH_7.json"

#: Default measurement protocol (mirrors ``benchmarks/conftest.py``).
DEFAULT_CYCLES = 12_000
DEFAULT_REPS = 5
DEFAULT_WARMUP_REPS = 2


@dataclass(frozen=True)
class BenchResult:
    """One benchmark's best repetition."""

    name: str
    cycles: int
    wall_seconds: float
    cycles_per_second: float


def _best_of(
    work: Callable[[], float],
    reps: int,
    warmup_reps: int,
    on_rep: Optional[Callable[[int, float, bool], None]] = None,
) -> float:
    """Run ``work`` (returns elapsed seconds) ``reps`` times; discard the
    first ``warmup_reps`` (allocator, bytecode, and CPU-frequency warm-up)
    and return the minimum of the rest.  ``on_rep(rep, elapsed, warmup)``
    observes every repetition — the telemetry hook."""
    if reps <= warmup_reps:
        raise ValueError("need at least one measured repetition")
    best: Optional[float] = None
    for rep in range(reps):
        elapsed = work()
        if on_rep is not None:
            on_rep(rep, elapsed, rep < warmup_reps)
        if rep < warmup_reps:
            continue
        if best is None or elapsed < best:
            best = elapsed
    assert best is not None
    return best


def calibrate(reps: int = 3) -> float:
    """Machine-speed score in kilo-operations/second from a fixed
    pure-Python workload (attribute access, method calls, deque traffic —
    the same bytecode mix the simulator's hot loops execute).  Recorded
    next to every measurement so trajectory points taken on different
    machines or CPU-frequency regimes can be compared after scaling."""

    class _Cell:
        __slots__ = ("value", "due")

        def __init__(self, value: int) -> None:
            self.value = value
            self.due = value % 7

        def step(self, cycle: int) -> int:
            if cycle < self.due:
                return 0
            self.value += 1
            return self.value

    def work() -> float:
        cells = [_Cell(i) for i in range(64)]
        fifo: deque = deque()
        total = 0
        start = time.perf_counter()
        for cycle in range(4_000):
            for cell in cells:
                total += cell.step(cycle)
            fifo.append(cycle)
            if len(fifo) > 16:
                fifo.popleft()
        elapsed = time.perf_counter() - start
        assert total != 0 and fifo
        return elapsed

    best = _best_of(work, reps + 1, 1)
    operations = 4_000 * 64
    return operations / best / 1_000.0


def bench_full_system(
    design: NocDesign = NocDesign.GSS_SAGM,
    app: str = "single_dtv",
    cycles: int = DEFAULT_CYCLES,
    reps: int = DEFAULT_REPS,
    warmup_reps: int = DEFAULT_WARMUP_REPS,
    on_rep: Optional[Callable[[int, float, bool], None]] = None,
) -> BenchResult:
    """Simulated cycles/second of a freshly built full system."""
    from ..core.system import build_system

    def work() -> float:
        system = build_system(
            SystemConfig(app=app, cycles=cycles, warmup=0, design=design)
        )
        start = time.perf_counter()
        system.simulator.run(cycles)
        return time.perf_counter() - start

    best = _best_of(work, reps, warmup_reps, on_rep)
    name = f"full_system_{design.value.replace('+', '_')}"
    return BenchResult(name, cycles, best, cycles / best)


def bench_dram_engine(
    cycles: int = 60_000,
    requests: int = 2_048,
    reps: int = DEFAULT_REPS,
    warmup_reps: int = DEFAULT_WARMUP_REPS,
    on_rep: Optional[Callable[[int, float, bool], None]] = None,
) -> BenchResult:
    """CommandEngine + SdramDevice alone (no NoC in the loop)."""
    from ..dram.controller import CommandEngine
    from ..dram.device import SdramDevice
    from ..dram.request import MemoryRequest
    from ..dram.timing import DramTiming

    timing = DramTiming.for_clock(DdrGeneration.DDR2, 333)
    ids = count()
    executed = [0]

    def work() -> float:
        device = SdramDevice(timing)
        engine = CommandEngine(device, burst_beats=8)
        pending = deque(
            MemoryRequest(
                request_id=next(ids), master=0, bank=i % 8, row=i // 8,
                column=0, beats=16, is_read=True,
            )
            for i in range(requests)
        )
        cycle = 0
        start = time.perf_counter()
        while (pending or not engine.idle) and cycle < cycles:
            if pending and engine.has_space:
                engine.accept(pending.popleft(), cycle)
            engine.tick(cycle)
            engine.drain_finished()
            cycle += 1
        # The batch usually drains before the cap: report the cycles the
        # engine actually simulated, or cycles/sec is inflated.
        executed[0] = cycle
        return time.perf_counter() - start

    best = _best_of(work, reps, warmup_reps, on_rep)
    return BenchResult("dram_engine", executed[0], best, executed[0] / best)


def _round_publisher(telemetry, name: str):
    """An ``on_rep`` hook emitting one ``bench_round`` record per timed
    repetition into a telemetry stream (None telemetry = no hook)."""
    if telemetry is None:
        return None

    def on_rep(rep: int, elapsed: float, warmup: bool) -> None:
        telemetry.emit(
            "bench_round", bench=name, rep=rep,
            wall_s=elapsed, warmup=warmup,
        )

    return on_rep


def run_benchmarks(
    cycles: int = DEFAULT_CYCLES,
    reps: int = DEFAULT_REPS,
    warmup_reps: int = DEFAULT_WARMUP_REPS,
    telemetry=None,
) -> Dict[str, object]:
    """Run the standing benchmark set; returns the trajectory-point dict.

    ``telemetry`` (a :class:`~repro.obs.stream.TelemetryWriter`) gets one
    ``bench_round`` record per repetition, so a monitor shows benchmark
    progress live instead of staring at a silent multi-second run.
    """
    # Calibrate before *and* after the timed benchmarks and keep the
    # faster score: CPU-frequency regimes shift between the two, and an
    # underestimated machine speed only makes a regression check lenient,
    # while an overestimate would fail it spuriously.
    calibration = calibrate()
    results = [
        bench_full_system(
            NocDesign.GSS_SAGM, "single_dtv", cycles, reps, warmup_reps,
            on_rep=_round_publisher(telemetry, "full_system_gss_sagm"),
        ),
        bench_full_system(
            NocDesign.CONV, "dual_dtv", cycles, reps, warmup_reps,
            on_rep=_round_publisher(telemetry, "full_system_conv"),
        ),
        bench_dram_engine(
            reps=reps, warmup_reps=warmup_reps,
            on_rep=_round_publisher(telemetry, "dram_engine"),
        ),
    ]
    calibration = max(calibration, calibrate())
    point: Dict[str, object] = {
        "calibration_kops": round(calibration, 1),
    }
    for result in results:
        point[result.name] = {
            "cycles": result.cycles,
            "wall_seconds": round(result.wall_seconds, 4),
            "cycles_per_second": round(result.cycles_per_second, 1),
        }
    return point


# ---------------------------------------------------------------------- #
# Trajectory file I/O
# ---------------------------------------------------------------------- #

def load_trajectory(path: str) -> Dict[str, object]:
    with open(path) as handle:
        return json.load(handle)


def write_trajectory(
    path: str,
    current: Dict[str, object],
    baseline: Optional[Dict[str, object]] = None,
    protocol: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Write a trajectory file containing the recorded ``baseline`` (the
    measurement this PR started from) and the ``current`` point, plus the
    calibration-scaled speedups between them."""
    from ..obs.stream import host_manifest

    document: Dict[str, object] = {
        "bench": TRAJECTORY_FILE.rsplit(".", 1)[0],
        "schema": 1,
        "protocol": protocol or {
            "cycles": DEFAULT_CYCLES,
            "reps": DEFAULT_REPS,
            "warmup_reps": DEFAULT_WARMUP_REPS,
            "estimator": "min over measured reps",
        },
        # Who measured: calibration scaling absorbs speed differences,
        # but python/numpy/host changes shift the *shape* of the work —
        # host_mismatch() flags those when comparing trajectories.
        "host": host_manifest(),
        "current": current,
    }
    if baseline is not None:
        document["baseline"] = baseline
        document["speedup"] = {
            name: round(ratio, 3)
            for name, ratio in _speedups(baseline, current).items()
        }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return document


def _speedups(
    baseline: Dict[str, object], current: Dict[str, object]
) -> Dict[str, float]:
    """Raw speedups for every benchmark both points share.

    Baseline and current are recorded from interleaved runs on the same
    host, so the raw cycles/sec ratio is the fair comparison; calibration
    scaling (:func:`machine_scale`) is for *checking* a fresh measurement
    from a possibly different host against the file."""
    out: Dict[str, float] = {}
    for name, entry in current.items():
        if not isinstance(entry, dict) or "cycles_per_second" not in entry:
            continue
        base_entry = baseline.get(name)
        if not isinstance(base_entry, dict):
            continue
        base_cps = float(base_entry["cycles_per_second"])
        out[name] = float(entry["cycles_per_second"]) / base_cps
    return out


#: Host-manifest fields whose change makes raw trajectory comparison
#: suspect even after calibration scaling (the interpreter and host
#: shift the bytecode-vs-simulation cost mix; an installed numpy marks
#: a different environment).
_HOST_COMPARE_FIELDS = ("python", "implementation", "numpy", "hostname")


def host_mismatch(
    recorded: Optional[Dict[str, object]],
    observed: Optional[Dict[str, object]] = None,
) -> List[str]:
    """Fields on which two host manifests disagree, as warning strings.

    ``observed=None`` compares against this process's own manifest.  A
    recorded trajectory without a host manifest (pre-schema files)
    produces no warnings — absence is not a mismatch.
    """
    if not recorded:
        return []
    if observed is None:
        from ..obs.stream import host_manifest

        observed = host_manifest()
    warnings: List[str] = []
    for field in _HOST_COMPARE_FIELDS:
        before, after = recorded.get(field), observed.get(field)
        if before is not None and after is not None and before != after:
            warnings.append(f"{field}: recorded on {before!r}, now {after!r}")
    return warnings


def machine_scale(
    recorded: Dict[str, object], observed: Dict[str, object]
) -> float:
    """How much faster the observed machine/regime is than the recorded
    one, per the calibration workload (1.0 when either side lacks a
    calibration score)."""
    recorded_kops = recorded.get("calibration_kops")
    observed_kops = observed.get("calibration_kops")
    if not recorded_kops or not observed_kops:
        return 1.0
    return float(observed_kops) / float(recorded_kops)


def check_regression(
    recorded: Dict[str, object],
    current: Dict[str, object],
    max_regression: float = 0.2,
) -> List[str]:
    """Compare ``current`` against the trajectory file's recorded point.

    Returns failure messages for every benchmark whose calibration-scaled
    cycles/second fell more than ``max_regression`` below the recorded
    value; empty means the trajectory holds."""
    failures: List[str] = []
    # Clamp at 1.0: a slower host lowers the floor (the rescue this scale
    # exists for), but calibration noise must never *raise* it above the
    # recorded absolute numbers.
    scale = min(machine_scale(recorded, current), 1.0)
    for name, entry in recorded.items():
        if not isinstance(entry, dict) or "cycles_per_second" not in entry:
            continue
        observed = current.get(name)
        if not isinstance(observed, dict):
            failures.append(f"{name}: missing from current measurement")
            continue
        floor = float(entry["cycles_per_second"]) * scale * (1.0 - max_regression)
        cps = float(observed["cycles_per_second"])
        if cps < floor:
            failures.append(
                f"{name}: {cps:.0f} c/s is below the regression floor "
                f"{floor:.0f} c/s (recorded {entry['cycles_per_second']} "
                f"c/s, machine scale {scale:.2f})"
            )
    return failures


def render(point: Dict[str, object]) -> str:
    """Human-readable one-point summary."""
    lines = [f"calibration   : {point.get('calibration_kops', '?')} kops/s"]
    for name, entry in sorted(point.items()):
        if isinstance(entry, dict) and "cycles_per_second" in entry:
            lines.append(
                f"{name:<24}: {entry['cycles_per_second']:>10} cycles/s "
                f"({entry['wall_seconds']}s for {entry['cycles']} cycles)"
            )
    return "\n".join(lines)
