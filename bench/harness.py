"""The benchmark harness: runs children, checks their outputs, summarizes.

At most two processes exist at a time and only one is busy: this process
waits while one single-threaded child runs.  One discarded warm-up
child comes first (it also compiles bytecode in a fresh checkout).
Then each *round* runs every selected workload once, in an order
rotated by one each round so slow host periods spread over the
workloads.  ``--trace`` selects what the rounds measure:

* unset: untraced rounds for the end-to-end metrics, then one traced
  round for the per-layer metrics;
* ``0``: untraced rounds only;
* ``1``: each round runs an untraced and a traced child per workload,
  and only per-layer metrics (with the tracing overhead) are reported.

Every child's fingerprint must equal the committed golden digest when
one exists for its workload, seed and horizon, and must equal every
other child's fingerprint of the same workload in the run.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from .trace import LAYER_METRICS, layer_metrics
from .workloads import CHUNK_CYCLES, MIN_CYCLES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: Seeds with committed fingerprints: the paper's default and one held
#: out from everything the benchmark was tuned on.
GOLDEN_SEEDS = (2010, 7)

#: End-to-end metrics declared in BENCHMARK.json: name -> (unit, which
#: direction is better).  ``ref_*`` metrics are host time rescaled to the
#: reference host speed (see :func:`reference_costs`).
E2E_METRICS = {
    "ref_cycles_per_s": ("cycles/s", "higher"),
    "ref_chunk_ms.p50": ("ms", "lower"),
    "ref_chunk_ms.p90": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Reported next to the end-to-end metrics but carrying no bound: raw
#: host throughput moves with other tenants of a shared host by more
#: than the largest bound a benchmark may declare (bench/README.md).
RAW_METRICS = {"cycles_per_s": ("cycles/s", "higher")}

#: Time of one ``bench.child.calibrate`` call on the reference host (the
#: baseline's, unloaded): the unit ``ref_*`` metrics rescale host time to.
CAL_REF_S = 0.0015

#: Model outputs, printed with every run but not scored.
MODEL_UNITS = {
    "utilization": "share",
    "latency_demand": "cycles",
    "service_p100": "cycles",
    "completed": "requests",
}

#: Set-up-only children per workload and untraced round, so ``setup_s``
#: is the median of several set-ups per round, not one.
SETUP_PROBES = 2

#: Rounds ``--seconds`` keeps at least, so medians have something to
#: take the middle of (one traced child is enough for exact counts).
MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 1

CHILD_TIMEOUT_S = 120.0
WARMUP_TIMEOUT_S = 30.0
#: How far past ``--seconds`` the last child may run before it is killed.
SLACK_S = 90.0


class SourceMissing(RuntimeError):
    """The tree to benchmark has no ``repro`` package."""


@dataclass
class Options:
    workloads: Sequence[str]
    seed: int = 2010
    rounds: int = 5
    seconds: Optional[float] = None
    trace: Optional[int] = None
    cycles_scale: float = 1.0
    src: Path = ROOT / "src"


#: Child kinds: a timed horizon, a traced horizon, or set-up only.
MEASURED, TRACED, SETUP = "measured", "traced", "setup"


@dataclass
class Child:
    """One child run: its result, or why it failed."""

    workload: str
    kind: str
    result: Optional[dict]
    errors: List[str]


def child_env(src: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(ROOT)])
    # One busy thread per child: numpy is imported by repro.dram.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Fixed string hashing, so dict layouts do not vary between children.
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(spec: dict, env: Dict[str, str], timeout: float):
    """Run one child to completion; returns (result, error)."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bench.child", json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return None, f"exit code {proc.returncode}: {tail}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, ValueError):
        return None, "no result line on stdout"


def load_golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def regenerate_golden(opts: Options) -> int:
    """Print fresh full-horizon fingerprints for :data:`GOLDEN_SEEDS`, a
    diff against the committed ones, and the merged golden document.
    Writes nothing: a changed fingerprint is a change of simulated
    behaviour, which a person must decide to accept."""
    _require_source(opts.src)
    env = child_env(opts.src)
    old = load_golden() if GOLDEN_PATH.exists() else {}
    merged = dict(old)
    status = 0
    for name in opts.workloads:
        cycles = WORKLOADS[name].cycles
        before = old.get(name, {})
        seeds = {}
        for seed in GOLDEN_SEEDS:
            result, error = spawn({"workload": name, "seed": seed,
                                   "cycles": cycles, "trace": False},
                                  env, CHILD_TIMEOUT_S)
            errors = [error] if error else check(name, seed, cycles, result, {}, {})
            if errors:
                print(f"FAILED {name} seed {seed}: {'; '.join(errors)}",
                      file=sys.stderr)
                status = 1
                continue
            digest = result["fingerprint"]
            seeds[str(seed)] = digest
            was = (before.get("seeds", {}).get(str(seed))
                   if before.get("cycles") == cycles else None)
            change = "unchanged" if was == digest else f"was {was}"
            print(f"{name} seed {seed} at {cycles} cycles: {digest} ({change})")
        merged[name] = {"cycles": cycles, "seeds": seeds}
    print(json.dumps(merged, indent=1))
    return status


def host_manifest() -> dict:
    """``repro.obs.stream.host_manifest()`` from this checkout's source."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs.stream import host_manifest as manifest

    return manifest()


def _require_source(src: Path) -> None:
    if not (src / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no repro package under {src}")


def check(workload: str, seed: int, cycles: int, result: dict,
          golden: dict, seen: Dict[str, str]) -> List[str]:
    """Why ``result`` is wrong, or an empty list."""
    errors = []
    if len(result["chunks_s"]) != cycles // CHUNK_CYCLES:
        errors.append("horizon not fully run")
    digest = result["fingerprint"]
    entry = golden.get(workload, {})
    expected = entry.get("seeds", {}).get(str(seed))
    if expected is not None and entry.get("cycles") == cycles and digest != expected:
        errors.append(f"fingerprint {digest[:12]} != golden {expected[:12]}")
    first = seen.setdefault(workload, digest)
    if digest != first:
        errors.append(f"fingerprint {digest[:12]} != this run's {first[:12]}")
    model = result["model"]
    if model["completed"] <= 0 or not 0.0 < model["utilization"] <= 1.0:
        errors.append(f"implausible model outputs {model}")
    ledger = result.get("ledger")
    if ledger is not None and not (ledger["drained"] and ledger["unresolved"] == 0):
        errors.append(f"fault ledger unbalanced after drain: {ledger}")
    return errors


def run(opts: Options) -> dict:
    """Run the benchmark; returns the report (see :func:`summarize`)."""
    _require_source(opts.src)
    golden = load_golden()
    env = child_env(opts.src)
    horizons = {name: WORKLOADS[name].horizon(opts.cycles_scale)
                for name in opts.workloads}
    seen: Dict[str, str] = {}
    children: List[Child] = []

    # With --seconds, every child must end by this deadline, so a hung
    # child cannot hold the whole run past its time limit.
    deadline = (None if opts.seconds is None
                else perf_counter() + WARMUP_TIMEOUT_S + opts.seconds + SLACK_S)

    def one(name: str, kind: str) -> None:
        timeout = CHILD_TIMEOUT_S
        if deadline is not None:
            timeout = max(1.0, min(timeout, deadline - perf_counter()))
        cycles = 0 if kind == SETUP else horizons[name]
        spec = {"workload": name, "seed": opts.seed, "cycles": cycles,
                "trace": kind == TRACED}
        result, error = spawn(spec, env, timeout)
        if error:
            errors = [error]
        elif kind == SETUP:
            errors = []
        else:
            errors = check(name, opts.seed, cycles, result, golden, seen)
        for message in errors:
            print(f"FAILED {name} ({kind}): {message}", file=sys.stderr)
        children.append(Child(name, kind, result, errors))

    # Discarded warm-up: page cache, bytecode, CPU frequency.
    spawn({"workload": opts.workloads[0], "seed": opts.seed,
           "cycles": MIN_CYCLES, "trace": False}, env, WARMUP_TIMEOUT_S)

    traced_each_round = opts.trace == 1
    min_rounds = MIN_TRACE_ROUNDS if traced_each_round else MIN_ROUNDS
    start = perf_counter()
    longest = 0.0
    rounds = 0
    while True:
        if opts.seconds is None:
            if rounds >= opts.rounds:
                break
        elif perf_counter() >= deadline or rounds >= min_rounds and (
            perf_counter() - start + longest > opts.seconds
        ):
            break
        began = perf_counter()
        shift = rounds % len(opts.workloads)
        for name in list(opts.workloads[shift:]) + list(opts.workloads[:shift]):
            one(name, MEASURED)
            if traced_each_round:
                one(name, TRACED)
            else:
                for _ in range(SETUP_PROBES):
                    one(name, SETUP)
        longest = max(longest, perf_counter() - began)
        rounds += 1
    if opts.trace is None:
        for name in opts.workloads:
            one(name, TRACED)
    return summarize(opts, horizons, children, rounds)


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0 < p < 100), exclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[round(p) - 1]


def reference_costs(result: dict) -> List[float]:
    """Each chunk's host time rescaled to the reference host speed: the
    chunk's time times :data:`CAL_REF_S` over the time of the
    calibration kernel that ran right after it.  A host slowed by
    contention slows both, so the ratio keeps the simulator's own cost."""
    return [chunk / cal * CAL_REF_S
            for chunk, cal in zip(result["chunks_s"], result["calibrations_s"])]


def e2e_metrics(cycles: int, results: List[dict],
                setups: List[float]) -> Dict[str, dict]:
    """End-to-end metrics of one workload's untraced rounds.

    ``samples`` are the values behind each metric: one per round, except
    ``setup_s``, which has one per set-up.  The value is their median
    (``peak_rss_mb``: their maximum), except that the ``ref_chunk_ms``
    percentiles pool the chunks of all rounds.
    """
    costs = [reference_costs(r) for r in results]
    pooled_ms = [t * 1e3 for chunks in costs for t in chunks]
    values = {
        "cycles_per_s": (None, [cycles / sum(r["chunks_s"]) for r in results]),
        "ref_cycles_per_s": (None, [cycles / sum(chunks) for chunks in costs]),
        "ref_chunk_ms.p50": (percentile(pooled_ms, 50),
                             [percentile([t * 1e3 for t in c], 50) for c in costs]),
        "ref_chunk_ms.p90": (percentile(pooled_ms, 90),
                             [percentile([t * 1e3 for t in c], 90) for c in costs]),
        "setup_s": (None, setups),
        "peak_rss_mb": (None, [r["peak_rss_mb"] for r in results]),
    }
    out = {}
    for name, (value, samples) in values.items():
        q1, median, q3 = quartiles(samples)
        if value is None:
            value = max(samples) if name == "peak_rss_mb" else median
        unit = (E2E_METRICS.get(name) or RAW_METRICS[name])[0]
        out[name] = {"value": value, "unit": unit,
                     "q1": q1, "median": median, "q3": q3,
                     "n": len(samples), "samples": samples}
    for name in ("ref_chunk_ms.p50", "ref_chunk_ms.p90"):
        out[name]["chunks"] = len(pooled_ms)
    return out


def summarize(opts: Options, horizons: Dict[str, int],
              children: List[Child], rounds: int) -> dict:
    workloads = {}
    for name in opts.workloads:
        mine = [c for c in children if c.workload == name]
        good = [c.result for c in mine if not c.errors and c.kind == MEASURED]
        traced = [c.result for c in mine if not c.errors and c.kind == TRACED]
        setups = [c.result["setup_s"] for c in mine
                  if not c.errors and c.kind != TRACED]
        entry = {
            "cycles": horizons[name],
            "attempted": len(mine),
            "failed": sum(1 for c in mine if c.errors),
            "errors": [e for c in mine for e in c.errors],
            "fingerprint": next((c.result["fingerprint"] for c in mine
                                 if c.result is not None and c.kind != SETUP),
                                None),
        }
        entry["ops_failed_share"] = entry["failed"] / max(1, entry["attempted"])
        sample = (good or traced or [None])[0]
        if sample is not None:
            entry["model"] = {key: {"value": sample["model"][key], "unit": unit}
                              for key, unit in MODEL_UNITS.items()}
        if good and opts.trace != 1:
            entry["e2e"] = e2e_metrics(horizons[name], good, setups)
        if traced:
            entry["layers"] = traced_layers(good, traced)
            entry["spans_skipped"] = traced[0]["trace"]["skipped"]
        workloads[name] = entry
    attempted = sum(w["attempted"] for w in workloads.values())
    failed = sum(w["failed"] for w in workloads.values())
    return {
        "seed": opts.seed,
        "rounds": rounds,
        "cycles_scale": opts.cycles_scale,
        "trace": opts.trace,
        "attempted": attempted,
        "failed": failed,
        "workloads": workloads,
    }


def traced_layers(untraced: List[dict], traced: List[dict]) -> Dict[str, dict]:
    """Per-layer metrics of the traced child with the median reference
    cost, and the tracing overhead: that cost over the untraced median."""
    costs = [sum(reference_costs(r)) for r in traced]
    middle = sorted(range(len(traced)), key=costs.__getitem__)[len(traced) // 2]
    chosen = traced[middle]
    values = layer_metrics(chosen["trace"], sum(chosen["chunks_s"]),
                           chosen["system"],
                           CAL_REF_S / statistics.median(chosen["calibrations_s"]))
    values["trace.overhead"] = (
        costs[middle] / statistics.median(sum(reference_costs(r)) for r in untraced)
        if untraced else 0.0
    )
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _) in LAYER_METRICS.items()}
