"""Exhibit grids resolved through the sweep orchestrator.

Every exhibit enumerates its jobs once and resolves them through one
``sweep`` callable.  Sharding that sweep over worker processes must give
the exact FaultSweepPoint / Fig8Curve / RunMetrics values an in-process
sweep computes — same floats, bit for bit — and a re-run against the
same store must be served entirely from it.
"""

import sys
from functools import partial

import pytest

from repro import run_config
from repro.experiments import run_cells
from repro.experiments.fault_sweep import run_fault_sweep
from repro.experiments.fig8 import run_fig8
from repro.experiments.runner import experiment_config
from repro.sim.stats import RunMetrics
from repro.sweep import ResultStore, SweepReport, config_grid_spec, run_sweep

needs_fork = pytest.mark.skipif(
    sys.platform == "win32", reason="fork start method required"
)

TINY = dict(cycles=1_500, warmup=300)
RATES = (0.0, 1e-3)


class RecordingSweep:
    """A sweep callable that keeps the report of every call."""

    def __init__(self, **options):
        self.options = options
        self.reports = []

    def __call__(self, jobs):
        report = run_sweep(jobs, **self.options)
        self.reports.append(report)
        return report


@pytest.fixture(scope="module")
def serial_points():
    return run_fault_sweep(rates=RATES, **TINY)


@needs_fork
class TestFaultGridGolden:
    def test_two_worker_sweep_bit_identical_to_serial(self, serial_points):
        sweep = RecordingSweep(store=ResultStore(), workers=2)
        points = run_fault_sweep(rates=RATES, sweep=sweep, **TINY)
        assert sweep.reports[0].executed == len(RATES)
        assert points == serial_points

    def test_rerun_is_all_cache_hits(self, serial_points):
        sweep = RecordingSweep(store=ResultStore(), workers=2)
        run_fault_sweep(rates=RATES, sweep=sweep, **TINY)
        points = run_fault_sweep(rates=RATES, sweep=sweep, **TINY)
        assert sweep.reports[1].all_cached
        assert points == serial_points


class TestFaultGrid:
    def test_spec_resolves_defaults_into_key_material(self):
        # cycles/warmup left as None must resolve to the experiment
        # defaults so the key covers the actual horizon; the params and
        # label are the ones stores already hold, so old keys still hit.
        jobs = []

        def unresolved(batch):
            jobs.extend(batch)
            return SweepReport()

        with pytest.raises(RuntimeError, match="never run"):
            run_fault_sweep(rates=(0.0,), sweep=unresolved)
        assert [(job.kind, job.label) for job in jobs] == [
            ("fault-point", "seed=2010,rate=0.0")
        ]
        assert jobs[0].params == {
            "app": "single_dtv", "cycles": 20_000, "warmup": 3_000,
            "drain_cycles": 50_000, "seed": 2010, "rate": 0.0,
        }

    def test_hung_point_surfaces_as_failed_job(self, monkeypatch):
        from repro.experiments import fault_sweep as fs

        real = fs.run_fault_point

        def hang(rate, **kwargs):
            import dataclasses

            point = real(rate, **kwargs)
            if rate > 0:
                point = dataclasses.replace(point, quiesced=False)
            return point

        monkeypatch.setattr(fs, "run_fault_point", hang)
        sweep = RecordingSweep(store=ResultStore())  # workers=1: in-process
        points = run_fault_sweep(rates=RATES, sweep=sweep, **TINY)
        report = sweep.reports[0]
        assert report.failed == 1
        failed = [o for o in report.outcomes if not o.ok][0]
        assert failed.record["status"] == "failed"
        # the error names the rate and the exhausted drain budget
        assert "rate=0.001" in failed.record["error"]
        assert "50000-cycle drain budget" in failed.record["error"]
        # the partial metrics still come back as a point, not silently
        assert [p.quiesced for p in points] == [True, False]


@needs_fork
class TestFig8GridGolden:
    def test_two_worker_grid_bit_identical_to_serial(self):
        kwargs = dict(cycles=1_000, warmup=200, seeds=(2010,), max_routers=1)
        serial = run_fig8(**kwargs)
        sweep = RecordingSweep(store=ResultStore(), workers=2)
        assert run_fig8(sweep=sweep, **kwargs) == serial
        report = sweep.reports[0]
        assert report.executed == 6  # 3 operating points x 2 counts
        assert [o.job.label for o in report.outcomes[:2]] == [
            "single_dtv/gss=0/seed=2010", "single_dtv/gss=1/seed=2010",
        ]
        assert run_fig8(sweep=sweep, **kwargs) == serial
        assert sweep.reports[1].all_cached


class TestConfigGrid:
    def test_fault_rate_pseudo_field_expands_to_uniform_profile(self):
        spec = config_grid_spec(
            base={"cycles": 1_000, "warmup": 200, "seed": 7},
            axes={"fault_rate": [0.0, 1e-3]},
        )
        clean, faulty = [job.params for job in spec.expand()]
        assert clean["faults"] is None
        assert faulty["faults"]["link_corrupt_rate"] == 1e-3

    def test_payload_covers_defaulted_fields(self):
        spec = config_grid_spec(
            base={"cycles": 1_000, "warmup": 200, "seed": 7},
            axes={"app": ["bluray"]},
        )
        params = spec.expand()[0].params
        # key material must include fields the grid never mentioned
        assert params["design"] == "gss+sagm"
        assert params["link_buffer_flits"] == 12


@needs_fork
class TestArbiterMatrixGolden:
    """The grid CI's arbiter job runs: `sweep grid --axis arbiter=...`."""

    ARBITERS = ("engine", "dpq", "bank-reg")

    @staticmethod
    def matrix_spec(arbiters):
        return config_grid_spec(
            base={"seed": 2010, **TINY}, axes={"arbiter": list(arbiters)}
        )

    def test_two_worker_matrix_bit_identical_to_serial(self):
        serial = [
            run_config(experiment_config(seed=2010, arbiter=arbiter, **TINY))
            for arbiter in self.ARBITERS
        ]
        spec = self.matrix_spec(self.ARBITERS)
        store = ResultStore()

        def stored_metrics():
            return [
                RunMetrics(**store.get(job.key)["result"])
                for job in spec.expand()
            ]

        report = run_sweep(spec, store=store, workers=2)
        assert report.executed == len(self.ARBITERS)
        assert stored_metrics() == serial
        report2 = run_sweep(spec, store=store, workers=2)
        assert report2.all_cached
        assert stored_metrics() == serial

    def test_matrix_spec_keys_cover_the_arbiter_field(self):
        spec = self.matrix_spec(("engine", "dpq"))
        params = [job.params for job in spec.expand()]
        assert [p["arbiter"] for p in params] == ["engine", "dpq"]
        assert params[0]["cycles"] == TINY["cycles"]


class TestExhibitCache:
    def test_run_once_serves_identical_metrics_from_store(self, tmp_path):
        # A cell read back from the JSON store equals the simulated one.
        config = experiment_config(app="bluray", **TINY)
        path = tmp_path / "store.jsonl"
        fresh = run_cells(
            [config], (2010,), partial(run_sweep, store=ResultStore(path))
        )
        reloaded = ResultStore(path)
        cached = run_cells(
            [config], (2010,), partial(run_sweep, store=reloaded)
        )
        assert (reloaded.hits, reloaded.misses) == (1, 0)
        assert cached == fresh

    def test_exhibit_and_sweep_share_keys(self):
        # A cell an exhibit simulated must be a hit for `repro sweep
        # grid` (and vice versa): same job, same key.
        store = ResultStore()
        run_cells(
            [experiment_config(app="bluray", **TINY)], (2010,),
            partial(run_sweep, store=store),
        )
        spec = config_grid_spec(
            base={"seed": 2010, **TINY}, axes={"app": ["bluray"]}
        )
        assert run_sweep(spec, store=store).all_cached
