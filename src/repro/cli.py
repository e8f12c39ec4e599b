"""Command-line interface: run configurations and regenerate exhibits.

Examples::

    python -m repro run --app bluray --design gss+sagm --priority
    python -m repro run --percentiles
    python -m repro trace --cycles 5000 -o trace.json
    python -m repro profile --window 1000
    python -m repro table1 --cycles 12000
    python -m repro fig8 --max-routers 5
    python -m repro table4
    python -m repro all --cycles 8000
    python -m repro sweep fault --rates 0 1e-3 --seeds 2010 2011 --jobs 4
    python -m repro sweep fig8 --max-routers 3 --jobs 8
    python -m repro sweep grid --axis app=bluray,single_dtv \
        --axis fault_rate=0,1e-3 --set cycles=4000 --jobs 4
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

from .core.system import build_system
from .sim.config import (
    PAPER_CLOCK_POINTS, DdrGeneration, NocDesign, SystemConfig,
)
from .sim.stats import QUANTILES, quantiles


#: Default content-addressed result store shared by `repro all` and
#: `repro sweep` — exhibits and sweeps hit each other's cached points.
DEFAULT_STORE_PATH = ".repro-cache/results.jsonl"


def _design(value: str) -> NocDesign:
    for design in NocDesign:
        if design.value == value:
            return design
    raise argparse.ArgumentTypeError(
        f"unknown design {value!r}; choose from "
        f"{[d.value for d in NocDesign]}"
    )


def _ddr(value: str) -> DdrGeneration:
    for generation in DdrGeneration:
        if generation.value == value:
            return generation
    raise argparse.ArgumentTypeError(f"unknown DDR generation {value!r}")


def _arbiter(value: str) -> str:
    from .dram.subsystem import registered_backends

    if value not in registered_backends():
        raise argparse.ArgumentTypeError(
            f"unknown memory-arbiter backend {value!r}; choose from "
            f"{registered_backends()}"
        )
    return value


def _app(value: str) -> str:
    from .workloads.apps import APP_MODELS

    if value not in APP_MODELS:
        raise argparse.ArgumentTypeError(
            f"unknown application model {value!r}; choose from "
            f"{sorted(APP_MODELS)}"
        )
    return value


def _int_at_least(minimum: int):
    """argparse ``type`` for integers no smaller than ``minimum``, so bad
    counts are usage errors (exit 2), not tracebacks from deep inside a
    run."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}"
            )
        return value

    return parse


_positive = _int_at_least(1)
_non_negative = _int_at_least(0)


def _rate(text: str) -> float:
    """argparse ``type`` for a fault rate: a probability in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}"
        ) from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be a rate in [0, 1], got {text}"
        )
    return value


def _seconds(text: str) -> float:
    """argparse ``type`` for a duration: a positive, finite number of
    seconds (zero would busy-poll or disable a deadline silently)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number of seconds, got {text!r}"
        ) from None
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"must be a positive, finite number of seconds, got {text}"
        )
    return value


def _output_path(text: str) -> str:
    """argparse ``type`` for a file a command writes.  A directory, or a
    path under an existing file, can never be written, so it is a usage
    error before anything is simulated; missing parent directories are
    created when the file is written."""
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text} is a directory")
    for ancestor in Path(text).parents:
        if os.path.exists(ancestor):
            if not os.path.isdir(ancestor):
                raise argparse.ArgumentTypeError(
                    f"{ancestor} is not a directory"
                )
            break
    return text


def _ensure_parent(path: str) -> None:
    """Create the directory an output file goes into."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Application-aware NoC design for efficient SDRAM access "
            "(Jang & Pan, DAC 2010) — simulation and experiment driver"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one configuration")
    _add_config_args(run)
    run.add_argument(
        "--percentiles", action="store_true",
        help=(
            f"also report {'/'.join(name for name, _ in QUANTILES)} "
            "latency (keeps per-request samples)"
        ),
    )
    run.add_argument(
        "--telemetry", type=_output_path, metavar="PATH", default=None,
        help="stream newline-JSON telemetry (run manifest, periodic "
        "samples, end-of-run summary) to PATH; watch live with "
        "`repro monitor PATH --follow`",
    )
    run.add_argument(
        "--sample-interval", type=_positive, default=1_000, metavar="CYCLES",
        help="cycles per telemetry sample window (default: 1000)",
    )
    run.add_argument(
        "--prom", type=_output_path, metavar="PATH", default=None,
        help="after the run, write the metrics registry as a "
        "Prometheus text-format snapshot",
    )
    run.add_argument(
        "--checkpoint", type=_output_path, metavar="PATH", default=None,
        help="snapshot the full simulator state to PATH — periodically "
        "with --checkpoint-every, on SIGINT/SIGTERM (checkpoint, then "
        "exit 130/143), and at the end of the run; continue "
        "bit-identically with --resume PATH",
    )
    run.add_argument(
        "--checkpoint-every", type=_positive, default=None, metavar="CYCLES",
        help="cycles between periodic snapshots (implies --checkpoint "
        "with a label-derived default path under .repro-cache/)",
    )
    run.add_argument(
        "--resume", metavar="CKPT", default=None,
        help="restore state from a snapshot and run on to --cycles (or "
        "the snapshot's configured total, whichever is larger); the "
        "snapshot carries its configuration, so --app/--design/... are "
        "ignored",
    )

    monitor = sub.add_parser(
        "monitor",
        help="render a telemetry stream: a final snapshot by default, "
        "a live updating view with --follow",
    )
    monitor.add_argument(
        "stream", help="telemetry ndjson path (written by --telemetry)"
    )
    monitor.add_argument(
        "-f", "--follow", action="store_true",
        help="tail the stream and redraw until the run/sweep finishes",
    )
    monitor.add_argument(
        "--once", action="store_true",
        help="parse the whole stream once and render one snapshot "
        "(exit 1 if it holds no records) — the CI parse check",
    )
    monitor.add_argument(
        "--refresh", type=_seconds, default=1.0, metavar="SECONDS",
        help="redraw period with --follow (default: 1.0)",
    )
    monitor.add_argument(
        "--max-seconds", type=_seconds, default=None, metavar="SECONDS",
        help="give up following after this long",
    )

    faults = sub.add_parser(
        "faults",
        help="fault-injection sweep: utilization/latency vs fault rate, "
        "with the full fault ledger (exits nonzero on hung requests or "
        "unaccounted faults)",
    )
    faults.add_argument(
        "--rates", type=_rate, nargs="+", default=None, metavar="RATE",
        help="uniform fault rates to sweep (default: 0 1e-4 1e-3 1e-2)",
    )
    faults.add_argument("--app", type=_app, default="single_dtv")
    faults.add_argument("--cycles", type=_positive, default=None)
    faults.add_argument("--warmup", type=_non_negative, default=None)
    faults.add_argument("--seed", type=int, default=2010)

    trace = sub.add_parser(
        "trace",
        help="simulate one configuration with packet-lifecycle tracing",
    )
    _add_config_args(trace, default_cycles=5_000, default_warmup=0)
    trace.add_argument(
        "-o", "--output", type=_output_path, default="trace.json",
        metavar="PATH",
        help="Chrome trace-event JSON output (load in Perfetto / "
        "chrome://tracing)",
    )
    trace.add_argument(
        "--jsonl", type=_output_path, default=None, metavar="PATH",
        help="also dump raw events as JSON Lines",
    )
    trace.add_argument(
        "--limit", type=_positive, default=None, metavar="N",
        help="cap recorded events (overflow is counted, not silent)",
    )
    trace.add_argument(
        "--slowest", type=_non_negative, default=8, metavar="N",
        help="slowest requests listed in the latency breakdown",
    )

    profile = sub.add_parser(
        "profile",
        help="simulate one configuration and profile simulator time per layer",
    )
    _add_config_args(profile, default_cycles=20_000, default_warmup=0)
    profile.add_argument(
        "--window", type=_positive, default=1_000, metavar="CYCLES",
        help="simulated cycles per profiling window",
    )
    profile.add_argument(
        "--windows", type=_positive, default=3, metavar="N",
        help="most recent windows to list",
    )

    for name in ("table1", "table2", "table3"):
        exhibit = sub.add_parser(name, help=f"regenerate {name}")
        exhibit.add_argument("--cycles", type=_positive, default=None)
        exhibit.add_argument("--warmup", type=_non_negative, default=None)
        exhibit.add_argument("--seeds", type=int, nargs="+", default=None)

    sub.add_parser("table4", help="regenerate Table IV (gate counts)")
    sub.add_parser("table5", help="regenerate Table V (power)")

    fig = sub.add_parser("fig8", help="regenerate Fig. 8 (GSS router sweep)")
    fig.add_argument("--cycles", type=_positive, default=None)
    fig.add_argument("--warmup", type=_non_negative, default=None)
    fig.add_argument("--seeds", type=int, nargs="+", default=None)
    fig.add_argument("--max-routers", type=_non_negative, default=None)

    arbiters_cmd = sub.add_parser(
        "arbiters",
        help="memory-arbiter comparison: sweep the Scheduler backends "
        "over the (app x DDR) grid at a fixed NoC design, with a WCET "
        "column (measured p100 vs analytic bound)",
    )
    arbiters_cmd.add_argument(
        "--arbiters", type=_arbiter, nargs="+", default=None,
        metavar="BACKEND",
        help="backends to compare (default: every builtin)",
    )
    arbiters_cmd.add_argument(
        "--design", type=_design, default=NocDesign.GSS_SAGM,
        help="fixed NoC design for every cell (default gss+sagm)",
    )
    arbiters_cmd.add_argument("--priority", action="store_true")
    arbiters_cmd.add_argument(
        "--apps", nargs="+", choices=tuple(PAPER_CLOCK_POINTS), default=None,
        metavar="APP",
        help="restrict the application rows (default: all three)",
    )
    arbiters_cmd.add_argument("--cycles", type=_positive, default=None)
    arbiters_cmd.add_argument("--warmup", type=_non_negative, default=None)
    arbiters_cmd.add_argument("--seeds", type=int, nargs="+", default=None)
    arbiters_cmd.add_argument(
        "--store", type=_output_path, default=None, metavar="PATH",
        help="serve/record cells through a content-addressed result "
        "store (shared with `repro sweep` and `repro all`)",
    )

    everything = sub.add_parser("all", help="regenerate every exhibit")
    everything.add_argument("--cycles", type=_positive, default=None)
    everything.add_argument("--warmup", type=_non_negative, default=None)
    everything.add_argument("--seeds", type=int, nargs="+", default=None)
    everything.add_argument(
        "--store", type=_output_path, default=DEFAULT_STORE_PATH,
        metavar="PATH",
        help="content-addressed result store consulted before every "
        f"simulation (default: {DEFAULT_STORE_PATH}); a second "
        "invocation is served from it",
    )
    everything.add_argument(
        "--no-cache", action="store_true",
        help="ignore the result store and simulate every point afresh",
    )

    sweep = sub.add_parser(
        "sweep",
        help="sharded parameter sweeps: expand a grid into jobs, run "
        "them across worker processes, persist every point in a "
        "content-addressed result store (re-runs are cache hits)",
    )
    grids_sub = sweep.add_subparsers(dest="grid", required=True)

    sweep_fault = grids_sub.add_parser(
        "fault", help="fault-rate × seed grid (the `repro faults` sweep, "
        "sharded)",
    )
    sweep_fault.add_argument(
        "--rates", type=_rate, nargs="+", default=None, metavar="RATE",
        help="uniform fault rates (default: 0 1e-4 1e-3 1e-2)",
    )
    sweep_fault.add_argument("--seeds", type=int, nargs="+", default=[2010])
    sweep_fault.add_argument("--app", type=_app, default="single_dtv")
    sweep_fault.add_argument("--cycles", type=_positive, default=None)
    sweep_fault.add_argument("--warmup", type=_non_negative, default=None)
    sweep_fault.add_argument("--drain-cycles", type=_non_negative, default=None)
    _add_sweep_args(sweep_fault)

    sweep_fig8 = grids_sub.add_parser(
        "fig8", help="Fig. 8 GSS-router-count grid, one job per "
        "(operating point, router count, seed)",
    )
    sweep_fig8.add_argument("--cycles", type=_positive, default=None)
    sweep_fig8.add_argument("--warmup", type=_non_negative, default=None)
    sweep_fig8.add_argument("--seeds", type=int, nargs="+", default=None)
    sweep_fig8.add_argument("--max-routers", type=_non_negative, default=None)
    _add_sweep_args(sweep_fig8)

    sweep_grid = grids_sub.add_parser(
        "grid", help="arbitrary SystemConfig grid: cross every --axis, "
        "pin --set fields, derive per-job seeds unless seed is an axis",
    )
    sweep_grid.add_argument(
        "--axis", type=_axis, action="append", default=[],
        metavar="FIELD=V1,V2,...",
        help="swept field and its values (repeatable); fields are "
        "SystemConfig fields plus fault_rate",
    )
    sweep_grid.add_argument(
        "--set", type=_pin, action="append", default=[],
        metavar="FIELD=VALUE", dest="pins",
        help="pinned field override (repeatable)",
    )
    sweep_grid.add_argument(
        "--replicates", type=_positive, default=1, metavar="N",
        help="derived-seed replicates per grid point",
    )
    sweep_grid.add_argument("--root-seed", type=int, default=2010)
    sweep_grid.add_argument("--name", default="grid")
    _add_sweep_args(sweep_grid)

    export = sub.add_parser(
        "export", help="run every exhibit and write results as JSON"
    )
    export.add_argument(
        "output", type=_output_path,
        help="path of the JSON document to write",
    )
    export.add_argument("--cycles", type=_positive, default=None)
    export.add_argument("--warmup", type=_non_negative, default=None)
    export.add_argument("--seeds", type=int, nargs="+", default=None)

    return parser


def _add_sweep_args(parser: argparse.ArgumentParser) -> None:
    """The orchestration flags shared by every `repro sweep` grid."""
    parser.add_argument(
        "--jobs", type=_positive, default=os.cpu_count() or 1, metavar="N",
        help="worker processes (default: all cores); 1 runs in-process",
    )
    parser.add_argument(
        "--store", type=_output_path, default=DEFAULT_STORE_PATH,
        metavar="PATH",
        help=f"result store JSONL (default: {DEFAULT_STORE_PATH})",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="repair the store first (truncate any corrupt tail left by "
        "a crash), then serve already-stored points from it — an "
        "interrupted or killed sweep continues where it stopped",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="re-simulate every point, overwriting stored results",
    )
    parser.add_argument(
        "--retry-failed", action="store_true",
        help="re-execute stored failed points instead of serving them "
        "from the store",
    )
    parser.add_argument(
        "--require-all-cached", action="store_true",
        help="exit 2 if any point had to be simulated (CI assertion "
        "that a sweep is fully cached)",
    )
    parser.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="render results as a text table or a JSON document",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the stderr progress line",
    )
    parser.add_argument(
        "--telemetry", type=_output_path, metavar="PATH", default=None,
        help="stream sweep lifecycle telemetry (job events, worker "
        "heartbeats, progress/ETA) to PATH; watch live with "
        "`repro monitor PATH --follow`",
    )
    parser.add_argument(
        "--fsync-store", action="store_true",
        help="fsync the result store after every append, so no "
        "completed job is lost even to a power failure",
    )


def _add_config_args(
    parser: argparse.ArgumentParser,
    default_cycles: int = 20_000,
    default_warmup: int = 3_000,
) -> None:
    """The shared single-configuration flags (run / trace / profile)."""
    parser.add_argument("--app", type=_app, default="single_dtv")
    parser.add_argument("--design", type=_design, default=NocDesign.GSS_SAGM)
    parser.add_argument("--ddr", type=_ddr, default=DdrGeneration.DDR2)
    parser.add_argument("--clock", type=_positive, default=333, metavar="MHZ")
    parser.add_argument("--cycles", type=_positive, default=default_cycles)
    parser.add_argument("--warmup", type=_non_negative, default=default_warmup)
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument("--pct", type=int, choices=range(1, 7), default=5)
    parser.add_argument(
        "--arbiter", type=_arbiter, default=None, metavar="BACKEND",
        help="memory-arbiter backend (engine | memmax | databahn | dpq | "
        "bank-reg); default: the design-matched subsystem",
    )
    parser.add_argument("--priority", action="store_true")
    parser.add_argument("--sti", action="store_true")
    parser.add_argument("--adaptive", action="store_true")
    parser.add_argument("--gss-routers", type=_non_negative, default=None)
    parser.add_argument(
        "--vcs", type=int, choices=range(1, 3), default=1,
        help="virtual channels per link (2 adds a priority lane)",
    )
    parser.add_argument(
        "--link-buffers", type=_positive, default=12, metavar="FLITS"
    )
    parser.add_argument(
        "--fault-rate", type=_rate, default=0.0, metavar="RATE",
        help="uniform fault-injection rate (0 builds no resilience "
        "machinery at all; see repro.resilience)",
    )
    parser.add_argument(
        "--check-invariants", action="store_true",
        help="attach the live invariant checker (credit/token "
        "conservation, packet-age bound)",
    )


def _config_from(args) -> SystemConfig:
    faults = None
    if getattr(args, "fault_rate", 0.0) > 0.0:
        from .resilience import FaultConfig

        faults = FaultConfig.uniform(args.fault_rate)
    return SystemConfig(
        app=args.app,
        design=args.design,
        ddr=args.ddr,
        clock_mhz=args.clock,
        cycles=args.cycles,
        warmup=args.warmup,
        seed=args.seed,
        pct=args.pct,
        priority_enabled=args.priority,
        sti=args.sti,
        adaptive_routing=args.adaptive,
        num_gss_routers=args.gss_routers,
        virtual_channels=args.vcs,
        link_buffer_flits=args.link_buffers,
        faults=faults,
        check_invariants=getattr(args, "check_invariants", False),
        arbiter=getattr(args, "arbiter", None),
    )


def _seeds(args) -> dict:
    """The exhibit horizon flags; omitted ones keep the driver default."""
    kwargs = dict(cycles=args.cycles, warmup=args.warmup)
    if args.seeds is not None:
        kwargs["seeds"] = tuple(args.seeds)
    return kwargs


def _default_checkpoint_path(label: str) -> str:
    import re

    slug = re.sub(r"[^A-Za-z0-9._-]+", "-", label).strip("-")
    return f".repro-cache/run-{slug or 'run'}.ckpt"


def _cmd_run(args) -> int:
    import signal

    telemetry_path = getattr(args, "telemetry", None)
    # Percentiles, Prometheus quantiles and telemetry sample windows all
    # need per-request latency samples.
    sample_flags = [
        flag for flag, value in (
            ("--percentiles", args.percentiles),
            ("--prom", getattr(args, "prom", None) is not None),
            ("--telemetry", telemetry_path is not None),
        ) if value
    ]
    started = time.time()
    resume_path = getattr(args, "resume", None)
    if resume_path is not None:
        from .sim.checkpoint import CheckpointError, load_checkpoint

        try:
            system = load_checkpoint(resume_path)
        except CheckpointError as exc:
            raise SystemExit(f"error: {exc}")
        if sample_flags and not system.stats.keep_samples:
            # Sampling switched on now would see only the post-resume
            # completions, so its percentiles would be wrong.
            print(
                f"error: cannot use {', '.join(sample_flags)} with "
                f"--resume {resume_path}: its run kept no per-request "
                "samples (it had none of --percentiles, --prom, "
                "--telemetry); re-run from scratch",
                file=sys.stderr,
            )
            return 2
        config = system.config
        print(
            f"resumed       : {resume_path} "
            f"(cycle {system.simulator.cycle})"
        )
    else:
        config = _config_from(args)
        # Sample retention never perturbs simulated metrics.
        system = build_system(config, keep_samples=bool(sample_flags))
    writer = None
    if telemetry_path is not None:
        from .obs.stream import TelemetryWriter, run_manifest

        writer = TelemetryWriter(telemetry_path)
        writer.emit(
            "run_start", **run_manifest(config, args.sample_interval)
        )
        if system.sampler is not None:
            # A resumed snapshot carries its sampler (windows intact);
            # only the process-local stream callback needs rewiring.
            system.sampler.on_sample = writer.sample
        else:
            system.attach_sampler(
                args.sample_interval, on_sample=writer.sample
            )

    # Checkpoint policy: an explicit path, a label-derived default when
    # only a cadence (or a resume source) is given, or none at all.
    ckpt_every = getattr(args, "checkpoint_every", None)
    ckpt_path = getattr(args, "checkpoint", None)
    if ckpt_path is None and (ckpt_every is not None or resume_path):
        ckpt_path = resume_path or _default_checkpoint_path(config.label)

    if ckpt_path is not None and system.watchdog is not None:
        # Post-mortem hook: the instant a request exhausts its watchdog
        # re-issue budget, dump the full simulator state next to the
        # regular snapshot so the hang can be dissected offline.
        def snapshot_hang(cycle: int, parent: int, master: int) -> None:
            from .sim.checkpoint import save_checkpoint

            hang_path = f"{ckpt_path}.hang"
            save_checkpoint(
                hang_path, system,
                meta={"reason": "watchdog-hang", "request": parent,
                      "master": master},
            )
            print(
                f"watchdog hang : request {parent} (master {master}) at "
                f"cycle {cycle}; state dumped to {hang_path}",
                file=sys.stderr,
            )

        system.watchdog.on_hang = snapshot_hang

    # With a checkpoint target, SIGINT/SIGTERM mean "snapshot, then
    # exit 130/143" instead of dying mid-cycle: the handler only sets a
    # flag, and the run loop notices it at the next segment boundary.
    stop_signals: List[int] = []
    previous_handlers = {}
    if ckpt_path is not None:
        def request_stop(signum, frame):
            stop_signals.append(signum)

        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[signum] = signal.signal(signum, request_stop)

    def on_checkpoint(cycle: int) -> bool:
        from .sim.checkpoint import save_checkpoint

        interrupted = bool(stop_signals)
        if ckpt_every is not None or interrupted:
            save_checkpoint(ckpt_path, system)
            if writer is not None:
                writer.emit(
                    "checkpoint", cycle=cycle, path=str(ckpt_path),
                    reason="signal" if interrupted else "interval",
                )
        return interrupted

    total_target = (
        args.cycles if resume_path is None
        else max(args.cycles, config.cycles)
    )
    remaining = max(0, total_target - system.simulator.cycle)
    try:
        metrics = system.run(
            remaining,
            # Segment the run when any checkpointing is live, so signal
            # checks happen at least every 1000 cycles.
            checkpoint_every=(
                (ckpt_every or 1_000) if ckpt_path is not None else None
            ),
            on_checkpoint=on_checkpoint if ckpt_path is not None else None,
        )
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
    elapsed = time.time() - started

    if stop_signals:
        print(
            f"interrupted   : snapshot at cycle {system.simulator.cycle} "
            f"-> {ckpt_path}"
        )
        print(f"resume with   : repro run --resume {ckpt_path}")
        if writer is not None:
            writer.close()
        return 130 if signal.SIGINT in stop_signals else 143
    print(f"configuration : {config.label}")
    print(f"cycles        : {metrics.cycles} ({elapsed:.1f}s wall)")
    print(f"utilization   : {metrics.utilization:.3f} "
          f"(bus occupancy {metrics.raw_utilization:.3f})")
    print(f"latency (all) : {metrics.latency_all:.1f} cycles")
    print(f"latency (dem) : {metrics.latency_demand:.1f} cycles")
    print(f"row-hit rate  : {metrics.row_hit_rate:.2f}")
    print(f"completed     : {metrics.completed} requests")
    if metrics.service_p100:
        bound = (
            f" (analytic bound {metrics.wcet_bound:.0f})"
            if metrics.wcet_bound is not None else ""
        )
        print(f"service p100  : {metrics.service_p100:.0f} cycles{bound}")
    if args.percentiles:
        series = system.stats.all_packets
        if series.count:
            summary = " ".join(
                f"{name}={value:.0f}"
                for name, value in quantiles(series.samples).items()
            )
            print(f"percentiles   : {summary} cycles")
        else:
            print("percentiles   : n/a (no completed requests)")
    if system.resilience is not None:
        quiesced = system.drain()
        controller = system.resilience
        print(
            "faults        : "
            f"injected={controller.injected_total} "
            f"corrected={controller.corrected} "
            f"recovered={controller.recovered} "
            f"failed={controller.failed_faults} "
            f"unresolved={controller.unresolved}"
        )
        print(
            "recovery      : "
            f"crc_retries={controller.crc_retries} "
            f"dram_rereads={controller.dram_reread_count} "
            f"watchdog={controller.watchdog_reissues} "
            f"failed_requests={controller.failed_requests}"
        )
        if not quiesced:
            print("WARNING       : system did not drain to quiescence",
                  file=sys.stderr)
    if writer is not None:
        from dataclasses import asdict

        writer.emit(
            "run_end", label=config.label, wall_s=elapsed, **asdict(metrics)
        )
        writer.close()
        print(
            f"telemetry     : {telemetry_path} "
            f"({writer.records_written} records)"
        )
    if getattr(args, "prom", None):
        from .obs.stream import prometheus_exposition

        registry = system.collect_metrics()
        registry.publish("latency.all", system.stats.all_packets)
        registry.publish("latency.demand", system.stats.demand_packets)
        _ensure_parent(args.prom)
        Path(args.prom).write_text(
            prometheus_exposition(registry), encoding="utf-8"
        )
        print(f"prometheus    : {args.prom} ({len(registry)} metrics)")
    if getattr(args, "checkpoint", None):
        # An explicit --checkpoint also snapshots the *completed* run,
        # so it can later be extended with --resume and more --cycles.
        from .sim.checkpoint import save_checkpoint

        save_checkpoint(args.checkpoint, system)
        print(
            f"checkpoint    : {args.checkpoint} "
            f"(cycle {system.simulator.cycle})"
        )
    return 0


def _cmd_trace(args) -> None:
    from .obs import MemoryTracer
    from .obs.exporters import (
        render_latency_report,
        write_chrome_trace,
        write_jsonl,
    )

    for path in (args.output, args.jsonl):
        if path:
            _ensure_parent(path)
    config = _config_from(args)
    tracer = MemoryTracer(limit=args.limit)
    system = build_system(config, tracer=tracer)
    metrics = system.run()
    print(f"configuration : {config.label}")
    print(f"cycles        : {metrics.cycles}")
    counts = tracer.counts()
    summary = "  ".join(f"{name}={counts[name]}" for name in sorted(counts))
    print(f"events        : {len(tracer)}  ({summary})")
    if tracer.dropped:
        print(f"dropped       : {tracer.dropped} (over --limit)")
    write_chrome_trace(tracer.events, args.output)
    print(f"chrome trace  : {args.output} (open in https://ui.perfetto.dev)")
    if args.jsonl:
        write_jsonl(tracer.events, args.jsonl)
        print(f"jsonl dump    : {args.jsonl}")
    print()
    print(render_latency_report(tracer.events, slowest=args.slowest))


def _cmd_faults(args) -> int:
    from .experiments import fault_sweep

    points = fault_sweep.run_fault_sweep(
        tuple(args.rates or fault_sweep.FAULT_SWEEP_RATES),
        args.cycles, args.warmup, seeds=(args.seed,), app=args.app,
    )
    print(fault_sweep.render(points))
    failing = [p for p in points if p.failure_reason() is not None]
    for point in failing:
        print(f"FAIL: {point.failure_reason()}", file=sys.stderr)
    return 1 if failing else 0


def _cmd_profile(args) -> None:
    from .obs import profile_run

    config = _config_from(args)
    system = build_system(config)
    profile = profile_run(system, config.cycles, args.window)
    print(f"configuration : {config.label}")
    print(f"cycles        : {system.simulator.cycle}")
    print(profile.report(windows=args.windows))


#: SystemConfig fields the generic grid can sweep or pin, with their
#: value parsers (`fault_rate` is the uniform-profile pseudo-field).
_SWEEP_BOOL_FIELDS = frozenset(
    ["priority_enabled", "sti", "adaptive_routing", "check_invariants"]
)
_SWEEP_INT_FIELDS = frozenset([
    "clock_mhz", "pct", "num_gss_routers", "cycles", "warmup", "seed",
    "input_buffer_flits", "link_buffer_flits", "virtual_channels",
])


def _grid_value(field: str, text: str):
    """Parse one `--axis`/`--set` value for a SystemConfig field."""
    if field == "design":
        return _design(text)
    if field == "ddr":
        return _ddr(text)
    if field == "app":
        return _app(text)
    if field in _SWEEP_BOOL_FIELDS:
        lowered = text.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise argparse.ArgumentTypeError(
            f"{field} expects a boolean, got {text!r}"
        )
    if field == "arbiter":
        return _arbiter(text)
    if field == "fault_rate":
        return _rate(text)
    if field in _SWEEP_INT_FIELDS:
        try:
            return int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{field} expects an integer, got {text!r}"
            ) from None
    raise argparse.ArgumentTypeError(
        f"unknown sweep field {field!r}; sweepable fields: app, arbiter, "
        f"design, ddr, fault_rate, "
        f"{', '.join(sorted(_SWEEP_BOOL_FIELDS | _SWEEP_INT_FIELDS))}"
    )


def _parse_assignment(text: str, multi: bool):
    """Split `field=v` / `field=v1,v2,...` and coerce the values."""
    field, _, raw = text.partition("=")
    if not _ or not field or not raw:
        raise argparse.ArgumentTypeError(
            f"expected FIELD=VALUE{'S' if multi else ''}, got {text!r}"
        )
    if multi:
        return field, [_grid_value(field, part) for part in raw.split(",")]
    return field, _grid_value(field, raw)


def _axis(text: str):
    """argparse ``type`` for `--axis FIELD=V1,V2,...`."""
    return _parse_assignment(text, multi=True)


def _pin(text: str):
    """argparse ``type`` for `--set FIELD=VALUE`."""
    return _parse_assignment(text, multi=False)


def _sweep_document(report) -> dict:
    return {
        "summary": {
            "total": report.total,
            "cache_hits": report.hits,
            "executed": report.executed,
            "failed": report.failed,
            "duplicates": report.duplicates,
            "elapsed_s": round(report.elapsed_s, 3),
            "interrupted": report.interrupted,
        },
        "records": [dict(outcome.record) for outcome in report.outcomes],
    }


def _render_grid_table(report) -> str:
    lines = [
        f"{'status':>6s} {'util':>7s} {'lat(all)':>9s} {'lat(dem)':>9s} "
        f"{'done':>6s}  job"
    ]
    for outcome in report.outcomes:
        result = outcome.record.get("result") or {}
        if outcome.ok:
            lines.append(
                f"{'ok':>6s} {result['utilization']:7.3f} "
                f"{result['latency_all']:9.1f} "
                f"{result['latency_demand']:9.1f} "
                f"{int(result['completed']):>6d}  {outcome.job.label}"
            )
        else:
            lines.append(
                f"{'FAIL':>6s} {'-':>7s} {'-':>9s} {'-':>9s} {'-':>6s}  "
                f"{outcome.job.label}"
            )
    return "\n".join(lines)


class _NoExhibit(Exception):
    """Stops an exhibit driver from rebuilding its results out of a sweep
    report: JSON output needs only the report, and a report with a job
    left without a result has nothing to rebuild from."""


def _cmd_sweep(args, parser: argparse.ArgumentParser) -> int:
    import json

    from .experiments import fault_sweep, fig8
    from .sweep import ProgressPrinter, ResultStore, config_grid_spec, run_sweep

    store = ResultStore(args.store, fsync=args.fsync_store)
    if args.resume:
        repaired = store.repair()
        if repaired:
            print(
                f"store repaired: truncated {repaired} corrupt byte(s) "
                f"from {args.store}",
                file=sys.stderr,
            )
    progress = None if args.quiet else ProgressPrinter()
    telemetry = None
    if getattr(args, "telemetry", None):
        from .obs.stream import TelemetryWriter

        telemetry = TelemetryWriter(args.telemetry)
    report = None

    def run_jobs(jobs):
        nonlocal report
        # One close point: terminate the tty progress line (and the
        # stream) before any table lands on stdout.
        try:
            report = run_sweep(
                jobs,
                store=store,
                workers=args.jobs,
                use_cache=not args.no_cache,
                retry_failed=args.retry_failed,
                progress=progress,
                telemetry=telemetry,
                handle_signals=True,
            )
        finally:
            if progress is not None:
                progress.close()
            if telemetry is not None:
                telemetry.close()
                print(
                    f"telemetry: {args.telemetry} "
                    f"({telemetry.records_written} records)",
                    file=sys.stderr,
                )
        return report

    def exhibit_sweep(jobs):
        run_jobs(jobs)
        if (
            args.format == "json"
            or report.interrupted
            or any(o.record.get("result") is None for o in report.outcomes)
        ):
            raise _NoExhibit
        return report

    exhibit = None
    try:
        if args.grid == "fault":
            rates = tuple(args.rates or fault_sweep.FAULT_SWEEP_RATES)
            drain = args.drain_cycles
            points = fault_sweep.run_fault_sweep(
                rates, args.cycles, args.warmup, tuple(args.seeds), args.app,
                fault_sweep.DRAIN_CYCLES if drain is None else drain,
                sweep=exhibit_sweep,
            )
            n = len(rates)  # points come seed-major
            exhibit = "\n\n".join(
                f"seed {seed}\n{fault_sweep.render(points[i * n:(i + 1) * n])}"
                for i, seed in enumerate(args.seeds)
            )
        elif args.grid == "fig8":
            curves = fig8.run_fig8(
                max_routers=args.max_routers, sweep=exhibit_sweep,
                **_seeds(args),
            )
            exhibit = fig8.render(curves)
        else:  # generic SystemConfig grid
            axes = dict(args.axis)
            base = dict(args.pins)
            if not axes:
                print("error: at least one --axis is required", file=sys.stderr)
                return 2
            try:
                # SweepSpec checks the grid's shape and SystemConfig
                # validates every point as the grid expands.
                jobs = config_grid_spec(
                    base, axes, replicates=args.replicates,
                    root_seed=args.root_seed, name=args.name,
                ).expand()
            except ValueError as error:
                parser.error(f"sweep grid: {error}")
            exhibit = _render_grid_table(run_jobs(jobs))
    except _NoExhibit:
        pass

    if args.format == "json":
        print(json.dumps(_sweep_document(report), indent=1))
    else:
        if exhibit is not None:
            print(exhibit)
            print()
        print(report.summary())

    for outcome in report.outcomes:
        if not outcome.ok:
            print(
                f"FAIL: {outcome.job.label}: {outcome.record.get('error')}",
                file=sys.stderr,
            )
    if report.interrupted:
        print(
            "sweep interrupted — completed points are stored; re-run "
            "the same command (with --resume) to continue",
            file=sys.stderr,
        )
        return 130
    if args.require_all_cached and not report.all_cached:
        print(
            f"FAIL: --require-all-cached but {report.executed} point(s) "
            f"were simulated",
            file=sys.stderr,
        )
        return 2
    return 1 if report.failed else 0


def _render_all(kwargs) -> None:
    from .experiments import fig8, table1, table2, table3, table4, table5

    print(table1.render(table1.run_table1(**kwargs)))
    print()
    print(table2.render(table2.run_table2(**kwargs)))
    print()
    print(table3.render(table3.run_table3(**kwargs)))
    print()
    print(table4.render())
    print()
    print(table5.render())
    print()
    print(fig8.render(fig8.run_fig8(**kwargs)))


def _cached_sweep(store):
    """Resolve exhibit jobs through ``store``: stored results are served,
    stored failures are simulated again."""
    from functools import partial

    from .sweep import run_sweep

    return partial(run_sweep, store=store, retry_failed=True)


def _cmd_all(args) -> None:
    kwargs = _seeds(args)
    if args.no_cache:
        _render_all(kwargs)
        return
    from .sweep import ResultStore

    store = ResultStore(args.store)
    _render_all(dict(kwargs, sweep=_cached_sweep(store)))
    print()
    print(
        f"result store  : {args.store} "
        f"({store.hits} hit(s), {store.misses} simulated)"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    warmup = getattr(args, "warmup", None)
    if warmup is not None and not (args.command == "run" and args.resume):
        # Exhibit and sweep commands leave an omitted --cycles to the
        # experiment default; `run --resume` takes it from the snapshot.
        cycles = args.cycles
        if cycles is None:
            from .experiments.runner import DEFAULT_CYCLES

            cycles = DEFAULT_CYCLES
        if warmup >= cycles:
            parser.error(
                f"--warmup ({warmup}) must be smaller than --cycles ({cycles})"
            )
    if args.command == "run":
        return _cmd_run(args)
    elif args.command == "faults":
        return _cmd_faults(args)
    elif args.command == "trace":
        _cmd_trace(args)
    elif args.command == "profile":
        _cmd_profile(args)
    elif args.command == "table1":
        from .experiments import table1

        print(table1.render(table1.run_table1(**_seeds(args))))
    elif args.command == "table2":
        from .experiments import table2

        print(table2.render(table2.run_table2(**_seeds(args))))
    elif args.command == "table3":
        from .experiments import table3

        print(table3.render(table3.run_table3(**_seeds(args))))
    elif args.command == "table4":
        from .experiments import table4

        print(table4.render())
    elif args.command == "table5":
        from .experiments import table5

        print(table5.render())
    elif args.command == "fig8":
        from .experiments import fig8

        curves = fig8.run_fig8(max_routers=args.max_routers, **_seeds(args))
        print(fig8.render(curves))
    elif args.command == "export":
        from .experiments.export import export_all

        kwargs = _seeds(args)
        kwargs.setdefault("seeds", (2010,))
        _ensure_parent(args.output)
        export_all(args.output, **kwargs)
        print(f"wrote {args.output}")
    elif args.command == "monitor":
        from .obs.monitor import run_monitor

        try:
            return run_monitor(
                args.stream,
                follow=args.follow,
                once=args.once,
                refresh_s=args.refresh,
                max_seconds=args.max_seconds,
            )
        except OSError as exc:
            if exc.filename is None:
                raise  # not the stream failing, e.g. a closed stdout
            raise SystemExit(
                f"error: cannot read {args.stream}: {exc.strerror}"
            )
    elif args.command == "arbiters":
        from .experiments.comparison import (
            run_arbiter_comparison,
            render_arbiter_comparison,
        )

        kwargs = _seeds(args)
        if args.arbiters is not None:
            kwargs["arbiters"] = tuple(args.arbiters)
        if args.apps is not None:
            kwargs["apps"] = tuple(args.apps)
        if args.store is not None:
            from .sweep import ResultStore

            kwargs["sweep"] = _cached_sweep(ResultStore(args.store))
        result = run_arbiter_comparison(
            design=args.design, priority=args.priority, **kwargs
        )
        print(render_arbiter_comparison(result))
        if result.bound_violations():
            return 1
    elif args.command == "sweep":
        return _cmd_sweep(args, parser)
    elif args.command == "all":
        _cmd_all(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
