"""Canonical grids: parallel sweeps bit-identical to the serial drivers.

The acceptance bar for the orchestrator: a sharded run must produce the
exact FaultSweepPoint / Fig8Curve values the serial experiment code
computes — same floats, bit for bit — and a re-run must be served
entirely from the store.
"""

import sys

import pytest

from repro.experiments import cached_runs, run_once
from repro.experiments.fault_sweep import run_fault_sweep
from repro.experiments.fig8 import run_fig8
from repro.experiments.runner import experiment_config
from repro.sim.stats import RunMetrics
from repro.sweep import (
    ResultStore,
    config_grid_spec,
    fault_points,
    fault_sweep_spec,
    fig8_curves,
    fig8_jobs,
    metrics_job,
    run_sweep,
)

needs_fork = pytest.mark.skipif(
    sys.platform == "win32", reason="fork start method required"
)

TINY = dict(cycles=1_500, warmup=300)
RATES = (0.0, 1e-3)


@pytest.fixture(scope="module")
def serial_points():
    return run_fault_sweep(rates=RATES, seed=2010, **TINY)


@needs_fork
class TestFaultGridGolden:
    SPEC = fault_sweep_spec(rates=RATES, seeds=(2010,), **TINY)

    def test_two_worker_sweep_bit_identical_to_serial(self, serial_points):
        store = ResultStore()
        report = run_sweep(self.SPEC, store=store, workers=2)
        assert report.executed == len(RATES)
        points = fault_points(store, self.SPEC)
        assert [p for _, p in points] == serial_points

    def test_rerun_is_all_cache_hits(self, serial_points):
        store = ResultStore()
        run_sweep(self.SPEC, store=store, workers=2)
        report = run_sweep(self.SPEC, store=store, workers=2)
        assert report.all_cached
        points = fault_points(store, self.SPEC)
        assert [p for _, p in points] == serial_points


class TestFaultGrid:
    def test_spec_resolves_defaults_into_key_material(self):
        # cycles/warmup left as None must resolve to the experiment
        # defaults so the key covers the actual horizon.
        spec = fault_sweep_spec(rates=(0.0,), seeds=(2010,))
        params = spec.expand()[0].params
        assert params["cycles"] == 20_000 and params["warmup"] == 3_000

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
        store = ResultStore()
        spec = fault_sweep_spec(rates=RATES, seeds=(2010,), **TINY)
        report = run_sweep(spec, store=store)  # workers=1: in-process
        assert report.failed == 1
        failed = [o for o in report.outcomes if not o.ok][0]
        assert failed.record["status"] == "failed"
        # the error names the rate and the exhausted drain budget
        assert "rate=0.001" in failed.record["error"]
        assert "50000-cycle drain budget" in failed.record["error"]
        # the partial metrics are still reconstructable, not silent
        points = fault_points(store, spec)
        assert [p.quiesced for _, p in points] == [True, False]


@needs_fork
class TestFig8GridGolden:
    def test_two_worker_grid_bit_identical_to_serial(self):
        kwargs = dict(cycles=1_000, warmup=200, seeds=(2010,), max_routers=1)
        serial = run_fig8(**kwargs)
        store = ResultStore()
        report = run_sweep(fig8_jobs(**kwargs), store=store, workers=2)
        assert fig8_curves(store, **kwargs) == serial
        assert report.executed == 6  # 3 operating points x 2 counts
        report2 = run_sweep(fig8_jobs(**kwargs), store=store, workers=2)
        assert report2.all_cached
        assert fig8_curves(store, **kwargs) == serial


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
            run_once(experiment_config(seed=2010, arbiter=arbiter, **TINY))
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
    def test_run_once_serves_identical_metrics_from_store(self):
        config = experiment_config(app="bluray", seed=2010, **TINY)
        store = ResultStore()
        with cached_runs(store):
            fresh = run_once(config)
            cached = run_once(config)
        assert store.hits == 1
        assert cached == fresh

    def test_exhibit_and_sweep_share_keys(self):
        # A point simulated by run_once must be a hit for the sweep
        # orchestrator (and vice versa): same job, same key.
        config = experiment_config(app="bluray", seed=2010, **TINY)
        store = ResultStore()
        with cached_runs(store):
            run_once(config)
        report = run_sweep([metrics_job(config)], store=store)
        assert report.all_cached

    def test_cache_scope_restored_on_exit(self):
        from repro.experiments import active_store

        store = ResultStore()
        with cached_runs(store):
            assert active_store() is store
        assert active_store() is None
