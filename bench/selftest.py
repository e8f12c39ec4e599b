"""``python -m bench selftest``: checks on the benchmark itself (~20 s).

* ``BENCHMARK.json`` has the declared shape and names exactly the
  workloads and metrics this package produces;
* for every workload at 3000 cycles, the traced run, the untraced
  chunked run and one ``SocSystem.run()`` call give one fingerprint, so
  the span wrappers and the chunking do not change what is simulated;
* ``bench run --smoke`` emits every declared metric with its unit;
* the CLI turns bad input into usage errors, not tracebacks.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from typing import List

from .harness import E2E_METRICS, ROOT, child_env
from .trace import LAYER_METRICS, install
from .workloads import CHUNK_CYCLES, MIN_CYCLES, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"}


def check_spec(spec: dict) -> List[str]:
    errors = []
    if set(spec) != SPEC_KEYS:
        errors.append(f"keys {sorted(spec)} != {sorted(SPEC_KEYS)}")
        return errors
    if not 1 <= spec["run_seconds"] <= 60 or not isinstance(spec["run_seconds"], int):
        errors.append("run_seconds must be a whole number in 1..60")
    for path in spec["paths"]:
        if not (ROOT / path).is_dir():
            errors.append(f"path {path} is not a directory")
    workloads, e2e, layers = spec["workloads"], spec["end_to_end"], spec["per_layer"]
    if not 2 <= len(workloads) <= 8:
        errors.append(f"{len(workloads)} workloads, need 2..8")
    if not 1 <= len(e2e) <= 16:
        errors.append(f"{len(e2e)} end-to-end metrics, need 1..16")
    if not 1 <= len(layers) <= 128:
        errors.append(f"{len(layers)} per-layer metrics, need 1..128")
    names = [w["name"] for w in workloads] + [m["name"] for m in e2e + layers]
    for name in names:
        if not NAME.match(name):
            errors.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        errors.append("names are not unique")
    for w in workloads:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"workload {w.get('name')}: needs name and a one-line why")
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            errors.append(f"end-to-end metric {m.get('name')} malformed")
    for m in layers:
        if set(m) != {"name", "unit", "better"}:
            errors.append(f"per-layer metric {m.get('name')} malformed")
    for m in e2e + layers:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            errors.append(f"metric {m['name']}: bad unit or direction")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s (unit s, lower is better) is missing")
    elif setup[0]["bound"] < max(m["bound"] for m in e2e):
        errors.append("setup_s must carry the largest bound")
    if [w["name"] for w in workloads] != list(WORKLOADS):
        errors.append("workloads differ from bench/workloads.py")
    if {m["name"]: (m["unit"], m["better"]) for m in e2e} != E2E_METRICS:
        errors.append("end-to-end metrics differ from bench/harness.py")
    if {m["name"]: (m["unit"], m["better"]) for m in layers} != LAYER_METRICS:
        errors.append("per-layer metrics differ from bench/trace.py")
    return errors


def check_transparency() -> List[str]:
    """Traced, untraced-chunked and one-shot runs simulate the same."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro import build_system

    from .child import system_fingerprint

    errors = []
    cycles = MIN_CYCLES
    for name, workload in WORKLOADS.items():
        config = workload.config(2010, cycles)
        system = build_system(config)
        system.run(cycles)
        digests = {"one-shot": system_fingerprint(system)}
        for label in ("chunked", "traced"):
            trace = install() if label == "traced" else None
            try:
                system = build_system(config)
                for _ in range(cycles // CHUNK_CYCLES):
                    system.simulator.run(CHUNK_CYCLES)
                digests[label] = system_fingerprint(system)
            finally:
                if trace is not None:
                    trace.uninstall()
            if trace is not None and trace.skipped:
                errors.append(f"spans missing in this tree: {trace.skipped}")
        if len(set(digests.values())) != 1:
            errors.append(f"{name}: fingerprints differ {digests}")
    return errors


def bench(*args: str, timeout: float = 300):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=ROOT,
        env=child_env(ROOT / "src"), capture_output=True, text=True,
        timeout=timeout,
    )


def check_smoke() -> List[str]:
    proc = bench("run", "--smoke")
    if proc.returncode != 0:
        return [f"smoke run exited {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not result["correct"]:
        errors.append("smoke run reported incorrect outputs")
    declared = dict(E2E_METRICS)
    declared.update(LAYER_METRICS)
    for workload in WORKLOADS:
        metrics = result["metrics"].get(workload, {})
        for name, (unit, _) in declared.items():
            m = metrics.get(name)
            if m is None or m["unit"] != unit or not isinstance(m["value"], (int, float)):
                errors.append(f"{workload}: {name} missing or without unit {unit}")
    return errors


def check_cli() -> List[str]:
    errors = []
    for args in (["run", "--workload", "nosuch"], ["run", "--rounds", "0"],
                 ["run", "--cycles-scale", "0"], ["run", "--cycles-scale", "-1"]):
        proc = bench(*args, timeout=60)
        if proc.returncode != 2 or "usage:" not in proc.stderr or "Traceback" in proc.stderr:
            errors.append(f"{' '.join(args)}: exit {proc.returncode}, {proc.stderr[-200:]}")
    return errors


def selftest() -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    checks = [
        ("BENCHMARK.json", lambda: check_spec(spec)),
        ("transparency", check_transparency),
        ("smoke", check_smoke),
        ("cli", check_cli),
    ]
    failed = 0
    for label, fn in checks:
        errors = fn()
        print(f"{label}: {'ok' if not errors else 'FAILED'}")
        for error in errors:
            print(f"  {error}")
        failed += bool(errors)
    return 1 if failed else 0
