"""Golden fixture: the observability output of one small run, pinned.

One ``repro run --app bluray --cycles 3000 --warmup 500 --percentiles
--prom P --telemetry T --sample-interval 1000`` (seed 2010) pins, exactly:

* the Prometheus exposition ``P``, both latency series included;
* the ``percentiles`` line ``repro run`` prints;
* every telemetry ``sample`` record of ``T``, as
  :meth:`~repro.obs.timeseries.Sample.to_dict` without ``wall_s``;
* the :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` of the same
  run's ``collect_metrics()`` registry with both latency series
  published.

The fixture records intended behaviour.  After a deliberate change to
what these surfaces print, regenerate it from the repository root with::

    PYTHONPATH=src python -m tests.obs.test_golden_output

which prints every value that moved before rewriting the file.
"""

import contextlib
import io
import json
import pathlib
import tempfile

from repro.cli import main
from repro.core.system import build_system
from repro.sim.config import SystemConfig

FIXTURE = pathlib.Path(__file__).with_name("golden_output.json")

APP = "bluray"
CYCLES = 3_000
WARMUP = 500
SEED = 2010
INTERVAL = 1_000


def observe() -> dict:
    """The four pinned surfaces of the fixed run, JSON-normalised."""
    with tempfile.TemporaryDirectory() as tmp:
        prom = pathlib.Path(tmp) / "run.prom"
        telemetry = pathlib.Path(tmp) / "run.ndjson"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main([
                "run", "--app", APP, "--cycles", str(CYCLES),
                "--warmup", str(WARMUP), "--seed", str(SEED),
                "--percentiles", "--prom", str(prom),
                "--telemetry", str(telemetry),
                "--sample-interval", str(INTERVAL),
            ])
        assert status == 0
        exposition = prom.read_text(encoding="utf-8").splitlines()
        samples = []
        for line in telemetry.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if record["type"] == "sample":
                for key in ("type", "ts", "wall_s"):
                    del record[key]
                samples.append(record)
    percentiles = [
        line for line in out.getvalue().splitlines()
        if line.startswith("percentiles")
    ]
    system = build_system(
        SystemConfig(app=APP, cycles=CYCLES, warmup=WARMUP, seed=SEED),
        keep_samples=True,
    )
    system.run()
    registry = system.collect_metrics()
    registry.publish("latency.all", system.stats.all_packets)
    registry.publish("latency.demand", system.stats.demand_packets)
    return json.loads(json.dumps({
        "prometheus": exposition,
        "percentiles": percentiles,
        "samples": samples,
        "snapshot": registry.snapshot(),
    }))


def _dump(fixture: dict) -> str:
    return json.dumps(fixture, indent=1) + "\n"


def test_output_matches_golden_fixture():
    # Text, not parsed values: 37272 and 37272.0 must differ.
    assert _dump(observe()) == FIXTURE.read_text(encoding="utf-8")


def differences(old, new, path="") -> list:
    """One line per leaf that differs between ``old`` and ``new``."""
    if isinstance(old, dict) and isinstance(new, dict):
        keys = list(old) + [key for key in new if key not in old]
        return [
            line for key in keys
            for line in differences(
                old.get(key, "<absent>"), new.get(key, "<absent>"),
                f"{path}.{key}" if path else key,
            )
        ]
    if isinstance(old, list) and isinstance(new, list):
        return [
            line for index in range(max(len(old), len(new)))
            for line in differences(
                old[index] if index < len(old) else "<absent>",
                new[index] if index < len(new) else "<absent>",
                f"{path}[{index}]",
            )
        ]
    if json.dumps(old) == json.dumps(new):
        return []
    return [f"  {path}: fixture={old!r} fresh={new!r}"]


def regenerate() -> None:
    fresh = observe()
    if FIXTURE.exists():
        old = json.loads(FIXTURE.read_text(encoding="utf-8"))
        for line in differences(old, fresh):
            print(line)
    FIXTURE.write_text(_dump(fresh), encoding="utf-8")


if __name__ == "__main__":
    regenerate()
