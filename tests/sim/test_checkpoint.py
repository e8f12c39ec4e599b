"""Checkpoint/restore: golden resume identity and snapshot integrity.

The contract under test (see :mod:`repro.sim.checkpoint`): for any
cycle k, ``run(N)`` and ``run(k); save; load; run(N-k)`` are
bit-identical — same metrics, same resilience ledger, same trace-event
stream — in both dispatch modes and under cycle-by-cycle ``step()``,
clean and faulty, for both NoC designs.  Alongside the identity, the
snapshot file format itself: atomic writes, CRC/schema/truncation
rejection with precise errors.
"""

import dataclasses
import pickle

import pytest

from repro.core.system import build_system
from repro.resilience.faults import FaultConfig
from repro.resilience.watchdog import RequestWatchdog
from repro.sim.checkpoint import (
    MAGIC,
    SCHEMA_VERSION,
    CheckpointError,
    load_checkpoint,
    read_header,
    save_checkpoint,
)
from repro.sim.config import NocDesign, SystemConfig
from repro.sim.stats import RunMetrics

CYCLES = 1_800
WARMUP = 300
MID = 700  # mid-run split: inside warmup-adjacent steady state

FAULTS = FaultConfig(link_corrupt_rate=1e-3, sdram_bit_rate=1e-3)


def _config(design, faults) -> SystemConfig:
    return SystemConfig(
        app="single_dtv", cycles=CYCLES, warmup=WARMUP,
        design=design, seed=2010, faults=faults,
    )


def _advance(mode: str, simulator, cycles: int) -> None:
    """Advance ``cycles`` cycles: ``run()`` under event dispatch or naive
    stepping, or cycle-by-cycle ``Simulator.step()`` ("stepped")."""
    if mode == "stepped":
        for _ in range(cycles):
            simulator.step()
        return
    simulator.idle_skip = mode == "event"
    simulator.run(cycles)
    assert simulator.last_dispatch_mode == mode


def _observe(system) -> dict:
    """Metrics plus the full resilience ledger, for exact comparison."""
    observed = dataclasses.asdict(
        RunMetrics.from_collector(system.stats, system.simulator.cycle)
    )
    resilience = system.resilience
    if resilience is not None:
        observed["resilience"] = {
            "recovered": resilience.recovered,
            "failed_faults": resilience.failed_faults,
            "crc_retries": resilience.crc_retries,
            "dram_rereads": resilience.dram_reread_count,
            "watchdog_reissues": resilience.watchdog_reissues,
            "failed_requests": resilience.failed_requests,
            "stale_responses": resilience.stale_responses,
            "injected": dict(resilience.injector.injected),
        }
    return observed


def _diffs(a: dict, b: dict) -> dict:
    return {key: (a[key], b[key]) for key in a if a[key] != b[key]}


# ---------------------------------------------------------------------- #
# Golden resume identity
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("mode", ["event", "stepped", "naive"])
@pytest.mark.parametrize("design", [NocDesign.GSS_SAGM, NocDesign.CONV])
@pytest.mark.parametrize("faults", [None, FAULTS], ids=["clean", "faulty"])
def test_resume_identity_all_tiers(tmp_path, mode, design, faults):
    """run(N) == run(k); save; load; run(N-k) for k in {0, mid-run},
    bit-identically, in both dispatch modes and under step()."""
    baseline = build_system(_config(design, faults))
    _advance(mode, baseline.simulator, CYCLES)
    expected = _observe(baseline)

    for k in (0, MID):
        system = build_system(_config(design, faults))
        _advance(mode, system.simulator, k)
        path = save_checkpoint(tmp_path / f"k{k}.ckpt", system)
        restored = load_checkpoint(path)
        _advance(mode, restored.simulator, CYCLES - k)
        assert restored.simulator.cycle == CYCLES
        diffs = _diffs(_observe(restored), expected)
        assert not diffs, f"resume at k={k} diverged ({mode}): {diffs}"


@pytest.mark.parametrize("mode", ["event", "stepped", "naive"])
@pytest.mark.parametrize("design", [NocDesign.GSS_SAGM, NocDesign.CONV])
@pytest.mark.parametrize("faults", [None, FAULTS], ids=["clean", "faulty"])
def test_resume_identity_post_drain(tmp_path, mode, design, faults):
    """A snapshot taken after drain-to-quiescence resumes exactly: the
    extended run jumps the same idle horizon and metrics match a
    never-serialized continuation."""
    extra = 5_000

    def run_drain(system):
        _advance(mode, system.simulator, CYCLES)
        system.drain()

    baseline = build_system(_config(design, faults))
    run_drain(baseline)
    _advance(mode, baseline.simulator, extra)
    expected = _observe(baseline)

    system = build_system(_config(design, faults))
    run_drain(system)
    restored = load_checkpoint(
        save_checkpoint(tmp_path / "drained.ckpt", system)
    )
    before = restored.simulator.fast_forwarded_cycles
    _advance(mode, restored.simulator, extra)
    diffs = _diffs(_observe(restored), expected)
    assert not diffs, f"post-drain resume diverged ({mode}): {diffs}"
    if mode == "event":
        # Restoration keeps event dispatch: the quiescent horizon is
        # still jumped, not ticked.
        jumped = restored.simulator.fast_forwarded_cycles - before
        assert jumped > extra * 0.9


@pytest.mark.parametrize("design", [NocDesign.GSS_SAGM, NocDesign.CONV])
def test_resume_trace_stream_bit_identical(tmp_path, design):
    """The post-resume trace-event stream continues the pre-save stream
    exactly — compared field-by-field (TraceEvent has no __eq__)."""
    from repro.obs import MemoryTracer

    def events(system):
        return [event.to_dict() for event in system.tracer.events]

    baseline = build_system(_config(design, FAULTS), tracer=MemoryTracer())
    baseline.simulator.run(CYCLES)

    system = build_system(_config(design, FAULTS), tracer=MemoryTracer())
    system.simulator.run(MID)
    restored = load_checkpoint(
        save_checkpoint(tmp_path / "trace.ckpt", system)
    )
    restored.simulator.run(CYCLES - MID)
    assert events(restored) == events(baseline)


def test_resume_identity_with_sampler(tmp_path):
    """A snapshot carries its time-series sampler (windows intact); the
    resumed run keeps sampling on the event tier, stays metrics-
    bit-identical to a straight run, and its sample stream matches an
    unserialized run split at the same cycle (the sampler flushes a
    partial window at every run exit, serialized or not)."""
    def build(seen):
        system = build_system(_config(NocDesign.GSS_SAGM, None))
        system.attach_sampler(250, on_sample=seen.append)
        return system

    straight = build([])
    straight.simulator.run(CYCLES)

    split_seen = []
    split = build(split_seen)
    split.simulator.run(MID)
    split.simulator.run(CYCLES - MID)

    seen = []
    system = build(seen)
    system.simulator.run(MID)
    restored = load_checkpoint(
        save_checkpoint(tmp_path / "sampled.ckpt", system)
    )
    assert restored.sampler.on_sample is None
    restored.sampler.on_sample = seen.append
    restored.simulator.run(CYCLES - MID)
    assert restored.simulator.last_dispatch_mode == "event"
    assert not _diffs(_observe(restored), _observe(straight))
    assert [dict(s.to_dict(), wall_s=0.0) for s in seen] == [
        dict(s.to_dict(), wall_s=0.0) for s in split_seen
    ]


ARBITERS = ("engine", "memmax", "databahn", "dpq", "bank-reg")


@pytest.mark.parametrize("arbiter", ARBITERS)
@pytest.mark.parametrize("faults", [None, FAULTS], ids=["clean", "faulty"])
def test_resume_identity_every_arbiter(tmp_path, arbiter, faults):
    """Every Scheduler backend round-trips through a mid-run snapshot
    bit-identically: metrics (including the backend-sourced WCET pair)
    and the full scheduler_stats surface — queue contents, priority
    order, budget ledgers — match a never-serialized run."""
    def config():
        return SystemConfig(
            app="single_dtv", cycles=CYCLES, warmup=WARMUP,
            design=NocDesign.GSS_SAGM, seed=2010, faults=faults,
            arbiter=arbiter,
        )

    def observe(system):
        observed = _observe(system)
        observed["metrics"] = dataclasses.asdict(
            RunMetrics.from_collector(
                system.stats, system.simulator.cycle,
                scheduler=system.subsystem,
            )
        )
        observed["scheduler"] = system.subsystem.scheduler_stats()
        return observed

    baseline = build_system(config())
    baseline.simulator.run(CYCLES)
    expected = observe(baseline)

    system = build_system(config())
    system.simulator.run(MID)
    restored = load_checkpoint(
        save_checkpoint(tmp_path / f"{arbiter}.ckpt", system)
    )
    restored.simulator.run(CYCLES - MID)
    assert restored.simulator.cycle == CYCLES
    diffs = _diffs(observe(restored), expected)
    assert not diffs, f"{arbiter} resume diverged: {diffs}"


@pytest.mark.parametrize("design", [NocDesign.GSS_SAGM, NocDesign.CONV])
def test_resume_without_engine_plan(tmp_path, design):
    """A snapshot whose command engine carries no plan attributes resumes
    bit-identically: the plan is derived state with class-level
    defaults, so the restored engine replans on first use."""
    baseline = build_system(_config(design, None))
    baseline.simulator.run(CYCLES)
    expected = _observe(baseline)

    system = build_system(_config(design, None))
    system.simulator.run(MID)
    restored = load_checkpoint(save_checkpoint(tmp_path / "plan.ckpt", system))
    engine = restored.subsystem.engine
    stripped = [
        name for name in ("_plan_at", "_plan_kind", "_plan_entry")
        if vars(engine).pop(name, None) is not None
    ]
    assert stripped, "the engine had planned before the snapshot"
    restored.simulator.run(CYCLES - MID)
    diffs = _diffs(_observe(restored), expected)
    assert not diffs, f"resume without a plan diverged: {diffs}"


def test_restored_system_saves_again_before_running(tmp_path):
    """A restored system is a complete object graph: saving it again
    before it runs (a resumed run checkpointing at once) keeps every
    component, so the twice-restored run matches a straight one."""
    config = SystemConfig(app="single_dtv", cycles=6_000, warmup=1_000,
                          seed=2010)
    expected = build_system(config).run()

    system = build_system(config)
    system.run(3_000)
    for name in ("first.ckpt", "second.ckpt"):
        system = load_checkpoint(save_checkpoint(tmp_path / name, system))
    assert system.run(3_000) == expected


# ---------------------------------------------------------------------- #
# checkpoint_every segmentation
# ---------------------------------------------------------------------- #


def test_checkpoint_every_calls_back_on_schedule():
    system = build_system(_config(NocDesign.GSS_SAGM, None))
    seen = []
    system.run(2_000, checkpoint_every=300, on_checkpoint=seen.append)
    assert seen == [300, 600, 900, 1200, 1500, 1800, 2000]


def test_checkpoint_every_preserves_metrics_and_fast_forward():
    plain = build_system(_config(NocDesign.GSS_SAGM, None))
    plain.simulator.run(CYCLES)
    plain.drain()
    plain.simulator.run(6_000)

    segmented = build_system(_config(NocDesign.GSS_SAGM, None))
    segmented.simulator.run(CYCLES, checkpoint_every=137)
    segmented.drain()
    segmented.simulator.run(6_000, checkpoint_every=137)
    assert not _diffs(_observe(segmented), _observe(plain))
    # Segmentation keeps gap jumping: jumps are clamped to segment ends
    # (each segment processes its entry cycle), so the drained horizon
    # is still almost entirely elided, never ticked through.
    boundaries = 6_000 // 137 + CYCLES // 137 + 2
    assert (
        segmented.simulator.fast_forwarded_cycles
        >= plain.simulator.fast_forwarded_cycles - boundaries
    )


def test_on_checkpoint_true_stops_the_run():
    system = build_system(_config(NocDesign.GSS_SAGM, None))
    system.run(2_000, checkpoint_every=400, on_checkpoint=lambda c: c >= 800)
    assert system.simulator.cycle == 800


def test_run_argument_validation():
    system = build_system(_config(NocDesign.GSS_SAGM, None))
    with pytest.raises(ValueError):
        system.simulator.run(-1)
    with pytest.raises(ValueError):
        system.simulator.run(100, checkpoint_every=0)


# ---------------------------------------------------------------------- #
# Snapshot file integrity
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """One real snapshot shared by the integrity tests (cheap reads)."""
    system = build_system(_config(NocDesign.GSS_SAGM, None))
    system.simulator.run(400)
    path = tmp_path_factory.mktemp("ckpt") / "base.ckpt"
    save_checkpoint(path, system, meta={"note": "integrity"})
    return path


class TestSnapshotFile:
    def test_header_round_trip(self, snapshot):
        header = read_header(snapshot)
        assert header["schema"] == SCHEMA_VERSION
        assert header["cycle"] == 400
        assert header["meta"] == {"note": "integrity"}
        assert header["label"]  # config label recorded

    def test_write_is_atomic_no_temp_residue(self, snapshot):
        leftovers = [
            p for p in snapshot.parent.iterdir() if ".tmp." in p.name
        ]
        assert leftovers == []

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "not.ckpt"
        path.write_bytes(b"JUNKJUNK" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, snapshot, tmp_path):
        path = tmp_path / "trunc.ckpt"
        path.write_bytes(snapshot.read_bytes()[:-64])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_bytes(MAGIC + b"\x01")
        with pytest.raises(CheckpointError, match="truncated"):
            read_header(path)

    def test_bit_flip_fails_crc(self, snapshot, tmp_path):
        raw = bytearray(snapshot.read_bytes())
        raw[-20] ^= 0xFF
        path = tmp_path / "flipped.ckpt"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="CRC"):
            load_checkpoint(path)

    def test_schema_mismatch_is_explicit(self, tmp_path):
        import json
        import struct
        import zlib

        payload = b"x"
        header = json.dumps({
            "schema": SCHEMA_VERSION + 7,
            "crc32": zlib.crc32(payload),
            "payload_bytes": 1,
        }).encode()
        path = tmp_path / "future.ckpt"
        path.write_bytes(
            MAGIC + struct.pack("<I", len(header)) + header + payload
        )
        with pytest.raises(CheckpointError, match="schema"):
            load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_unserializable_system_rejected_cleanly(self, tmp_path):
        with pytest.raises(CheckpointError, match="not serializable"):
            save_checkpoint(tmp_path / "bad.ckpt", lambda: None)


# ---------------------------------------------------------------------- #
# Engine serialization plumbing
# ---------------------------------------------------------------------- #


def test_plain_pickle_round_trip_equivalent():
    """The checkpoint file format wraps ordinary pickling: a raw pickle
    round-trip must already resume exactly (the engine's lazy rebind)."""
    baseline = build_system(_config(NocDesign.GSS_SAGM, FAULTS))
    baseline.simulator.run(CYCLES)

    system = build_system(_config(NocDesign.GSS_SAGM, FAULTS))
    system.simulator.run(MID)
    restored = pickle.loads(pickle.dumps(system))
    restored.simulator.run(CYCLES - MID)
    assert not _diffs(_observe(restored), _observe(baseline))


def test_watchdog_on_hang_hook_fires_and_is_not_load_bearing():
    """The hang hook fires once per exhausted request with (cycle,
    parent, master); a raising hook is swallowed (never load-bearing);
    the hook is dropped from snapshots."""

    class Tracker:
        last_activity = 0

    class Generator:
        master = 3

    class Interface:
        _reassembly = {17: Tracker()}
        generator = Generator()

    class Controller:
        def __init__(self):
            self.failed = []

        def fail_request(self, cycle, parent, master, reason):
            self.failed.append((cycle, parent, master, reason))

    controller = Controller()
    interface = Interface()
    watchdog = RequestWatchdog(
        controller, [interface],
        FaultConfig(watchdog_timeout=10, watchdog_retry_limit=0),
    )
    calls = []
    watchdog.on_hang = lambda cycle, parent, master: calls.append(
        (cycle, parent, master)
    )
    watchdog.tick(64)
    assert controller.failed == [(64, 17, 3, "watchdog")]
    assert calls == [(64, 17, 3)]

    # Raising hook: logged, never propagated.
    def explode(cycle, parent, master):
        raise RuntimeError("post-mortem hook bug")

    interface._reassembly = {18: Tracker()}
    watchdog.on_hang = explode
    watchdog.tick(128)  # must not raise
    assert controller.failed[-1][1] == 18


def test_watchdog_on_hang_hook_dropped_from_snapshots():
    system = build_system(_config(NocDesign.GSS_SAGM, FAULTS))
    system.watchdog.on_hang = lambda cycle, parent, master: None
    restored = pickle.loads(pickle.dumps(system))
    assert restored.watchdog.on_hang is None
