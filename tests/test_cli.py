"""CLI tests."""

import re

import pytest

from repro.cli import build_parser, main
from repro.sim.config import DdrGeneration, NocDesign


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.design is NocDesign.GSS_SAGM
        assert args.ddr is DdrGeneration.DDR2

    def test_design_parsing(self):
        args = build_parser().parse_args(["run", "--design", "sdram-aware"])
        assert args.design is NocDesign.SDRAM_AWARE

    def test_bad_design_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--design", "bogus"])

    def test_bad_ddr_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--ddr", "ddr9"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_only_run_takes_snapshot_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "grid", "--help"])
        sweep_help = capsys.readouterr().out
        for flag in ("--job-timeout", "--job-retries", "--checkpoint-dir",
                     "--checkpoint-every"):
            assert flag not in sweep_help
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        assert "--checkpoint-every" in capsys.readouterr().out


#: Stands for a result-store path under the test's ``tmp_path``.
STORE = "<store>"
#: Stands for the test's ``tmp_path`` directory itself.
DIR = "<dir>"
#: Stands for a path under a regular file in the test's ``tmp_path``.
UNDER_FILE = "<under-file>"


class TestInputHardening:
    """Bad counts, rates, apps and sweep-grid values are argparse usage
    errors (exit 2), not tracebacks."""

    @pytest.mark.parametrize("argv", [
        ["run", "--cycles", "0"],
        ["run", "--cycles", "-5"],
        ["run", "--warmup", "-1"],
        ["run", "--cycles", "ten"],
        ["run", "--pct", "0"],
        ["run", "--vcs", "5"],
        ["run", "--telemetry", "t.ndjson", "--sample-interval", "0"],
        ["run", "--checkpoint-every", "0"],
        ["profile", "--window", "0"],
        ["profile", "--windows", "0"],
        ["trace", "--limit", "-1"],
        ["table1", "--cycles", "0"],
        ["fig8", "--max-routers", "-1"],
        ["faults", "--warmup", "-3"],
        ["sweep", "grid", "--axis", "seed=1", "--jobs", "0"],
        ["run", "--app", "nosuch"],
        ["run", "--cycles", "1200", "--warmup", "200", "--fault-rate", "-0.001"],
        ["faults", "--rates", "0", "2"],
        ["sweep", "fault", "--rates", "nan"],
        ["trace", "--app", "nosuch"],
        ["profile", "--app", "nosuch"],
        ["faults", "--app", "nosuch"],
        ["sweep", "fault", "--app", "nosuch", "--store", STORE],
        ["arbiters", "--apps", "nosuch"],
        ["sweep", "grid", "--axis", "app=nosuch", "--store", STORE],
        ["sweep", "grid", "--axis", "bogus=1", "--store", STORE],
        ["sweep", "grid", "--axis", "seed=", "--store", STORE],
        ["sweep", "grid", "--axis", "seed=abc", "--store", STORE],
        ["sweep", "grid", "--axis", "fault_rate=2", "--store", STORE],
        ["sweep", "grid", "--axis", "seed=1", "--set", "cycles=ten",
         "--store", STORE],
        ["sweep", "grid", "--axis", "seed=1", "--set", "cycles=0",
         "--store", STORE],
        ["sweep", "grid", "--axis", "pct=9", "--store", STORE],
        ["monitor", STORE, "--refresh", "0"],
        ["monitor", STORE, "--refresh", "-1"],
        ["monitor", STORE, "--max-seconds", "-1"],
        ["fig8", "--warmup", "25000", "--max-routers", "0", "--seeds", "2010"],
        ["table3", "--warmup", "20000", "--seeds", "2010"],
        ["faults", "--warmup", "25000", "--rates", "0"],
        ["sweep", "fault", "--warmup", "25000", "--rates", "0",
         "--store", STORE],
        ["sweep", "grid", "--axis", "seed=1,2", "--replicates", "2",
         "--store", STORE],
        ["sweep", "grid", "--axis", "app=bluray", "--set", "app=single_dtv",
         "--store", STORE],
        ["export", DIR, "--cycles", "700", "--warmup", "100",
         "--seeds", "2010"],
        ["trace", "--cycles", "700", "-o", DIR],
        ["trace", "--cycles", "700", "-o", STORE, "--jsonl", DIR],
        ["trace", "--cycles", "700", "-o", UNDER_FILE],
        ["run", "--cycles", "700", "--warmup", "100", "--telemetry", DIR],
        ["run", "--cycles", "700", "--warmup", "100", "--prom", DIR],
        ["run", "--cycles", "700", "--warmup", "100", "--prom", UNDER_FILE],
        ["run", "--cycles", "700", "--warmup", "100", "--checkpoint", DIR],
        ["sweep", "fault", "--cycles", "700", "--warmup", "100",
         "--rates", "0", "--jobs", "1", "--store", DIR],
        ["sweep", "fig8", "--cycles", "700", "--warmup", "100",
         "--seeds", "2010", "--max-routers", "0", "--jobs", "1",
         "--store", DIR],
        ["sweep", "grid", "--axis", "seed=1", "--set", "cycles=700",
         "--set", "warmup=100", "--jobs", "1", "--store", DIR],
        ["sweep", "grid", "--axis", "seed=1", "--set", "cycles=700",
         "--set", "warmup=100", "--jobs", "1", "--store", UNDER_FILE],
        ["all", "--cycles", "700", "--warmup", "100", "--seeds", "2010",
         "--store", DIR],
        ["arbiters", "--apps", "single_dtv", "--arbiters", "engine",
         "--cycles", "700", "--warmup", "100", "--seeds", "2010",
         "--store", DIR],
        ["run", "--vcs", "3"],
        ["sweep", "grid", "--axis", "max_outstanding=1,4", "--store", STORE],
        ["sweep", "grid", "--axis", "virtual_channels=3", "--store", STORE],
    ])
    def test_bad_value_is_usage_error(self, argv, capsys, tmp_path):
        (tmp_path / "file").write_text("")
        placeholders = {
            STORE: str(tmp_path / "store.jsonl"),
            DIR: str(tmp_path),
            UNDER_FILE: str(tmp_path / "file" / "out"),
        }
        argv = [placeholders.get(arg, arg) for arg in argv]
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_limit_zero_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as raised:
            main(["trace", "--cycles", "700", "--limit", "0",
                  "-o", str(tmp_path / "trace.json")])
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert "argument --limit: must be at least 1, got 0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "trace.json").exists()

    def test_warmup_must_be_below_cycles(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["run", "--cycles", "1000"])  # default warmup 3000
        assert raised.value.code == 2
        assert "--warmup (3000)" in capsys.readouterr().err

    def test_valid_bounds_accepted(self):
        args = build_parser().parse_args(
            ["run", "--cycles", "1", "--warmup", "0", "--pct", "6"]
        )
        assert (args.cycles, args.warmup, args.pct) == (1, 0, 6)


class TestCommands:
    def test_run_prints_metrics(self, capsys):
        code = main(["run", "--app", "bluray", "--cycles", "1500",
                     "--warmup", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "utilization" in out
        assert "completed" in out

    def test_run_with_flags(self, capsys):
        code = main([
            "run", "--cycles", "1200", "--warmup", "200", "--priority",
            "--sti", "--adaptive", "--gss-routers", "2", "--pct", "4",
        ])
        assert code == 0
        assert "gss+sagm+sti" in capsys.readouterr().out

    def test_run_percentiles(self, capsys):
        code = main(["run", "--cycles", "1500", "--warmup", "200",
                     "--percentiles"])
        assert code == 0
        out = capsys.readouterr().out
        assert "percentiles" in out
        assert "p50=" in out and "p95=" in out and "p99=" in out

    def test_run_without_percentiles_omits_line(self, capsys):
        assert main(["run", "--cycles", "1200", "--warmup", "200"]) == 0
        assert "percentiles" not in capsys.readouterr().out

    def test_run_with_arbiter_prints_wcet(self, capsys):
        code = main(["run", "--cycles", "2500", "--warmup", "300",
                     "--arbiter", "dpq"])
        assert code == 0
        out = capsys.readouterr().out
        assert "/dpq" in out
        assert "service p100" in out
        assert "analytic bound" in out

    def test_run_engine_arbiter_has_no_bound_line(self, capsys):
        code = main(["run", "--cycles", "1500", "--warmup", "300",
                     "--arbiter", "engine"])
        assert code == 0
        out = capsys.readouterr().out
        assert "service p100" in out
        assert "analytic bound" not in out

    def test_run_rejects_unknown_arbiter(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--arbiter", "bogus"])

    def test_arbiters_command_renders_wcet_table(self, capsys):
        code = main([
            "arbiters", "--cycles", "1500", "--warmup", "300",
            "--seeds", "2010", "--apps", "single_dtv",
            "--arbiters", "engine", "dpq",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Memory-arbiter comparison" in out
        assert "dpq:wcet" in out
        assert "BOUND VIOLATIONS" not in out

    def test_table4_renders(self, capsys):
        assert main(["table4"]) == 0
        assert "Table IV" in capsys.readouterr().out

    def test_table5_renders(self, capsys):
        assert main(["table5"]) == 0
        assert "Table V" in capsys.readouterr().out

    def test_table3_small(self, capsys):
        code = main(["table3", "--cycles", "1200", "--warmup", "200",
                     "--seeds", "2010"])
        assert code == 0
        assert "Table III" in capsys.readouterr().out

    def test_fig8_small(self, capsys):
        code = main(["fig8", "--cycles", "1000", "--warmup", "200",
                     "--seeds", "2010", "--max-routers", "1"])
        assert code == 0
        assert "#GSS" in capsys.readouterr().out


class TestFaultCommands:
    def test_run_without_faults_prints_no_ledger(self, capsys):
        assert main(["run", "--cycles", "1200", "--warmup", "200"]) == 0
        assert "faults" not in capsys.readouterr().out

    def test_run_with_fault_rate_prints_ledger(self, capsys):
        code = main(["run", "--cycles", "2000", "--warmup", "400",
                     "--fault-rate", "1e-3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "faults" in out
        assert "unresolved=0" in out
        assert "recovery" in out

    def test_run_with_invariant_checking(self, capsys):
        code = main(["run", "--cycles", "1200", "--warmup", "200",
                     "--check-invariants"])
        assert code == 0

    def test_bad_fault_rate_rejected(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["run", "--cycles", "1200", "--warmup", "200",
                  "--fault-rate", "2.0"])
        assert raised.value.code == 2
        assert "rate in [0, 1]" in capsys.readouterr().err

    def test_faults_sweep_renders_and_exits_clean(self, capsys):
        code = main(["faults", "--cycles", "1500", "--warmup", "300",
                     "--rates", "0", "1e-3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fault-rate sweep" in out
        assert "unres" in out


class TestResumeCommand:
    @pytest.fixture
    def unsampled_snapshot(self, tmp_path, capsys):
        path = tmp_path / "a.ckpt"
        assert main([
            "run", "--app", "bluray", "--cycles", "4000", "--warmup", "1000",
            "--checkpoint", str(path),
        ]) == 0
        capsys.readouterr()
        return path

    @pytest.mark.parametrize("flag", ["--percentiles", "--prom", "--telemetry"])
    def test_sample_flag_rejected_when_snapshot_kept_no_samples(
        self, flag, unsampled_snapshot, tmp_path, capsys
    ):
        argv = ["run", "--resume", str(unsampled_snapshot), "--cycles", "8000",
                flag]
        output = tmp_path / "out"
        if flag != "--percentiles":
            argv.append(str(output))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and flag in captured.err
        assert "configuration" not in captured.out  # nothing simulated
        assert not output.exists()

    def test_resumed_percentiles_match_straight_run(self, tmp_path, capsys):
        def metric_lines(out):
            return [
                line.split(" (")[0] if line.startswith("cycles") else line
                for line in out.splitlines()
                if not line.startswith(("resumed", "checkpoint"))
            ]

        common = ["--app", "bluray", "--warmup", "1000", "--percentiles"]
        assert main(["run", "--cycles", "6000", *common]) == 0
        straight = metric_lines(capsys.readouterr().out)
        path = tmp_path / "p.ckpt"
        assert main([
            "run", "--cycles", "3000", "--checkpoint", str(path), *common,
        ]) == 0
        capsys.readouterr()
        assert main([
            "run", "--resume", str(path), "--cycles", "6000", "--percentiles",
        ]) == 0
        resumed = metric_lines(capsys.readouterr().out)
        assert any(line.startswith("percentiles") for line in straight)
        assert resumed == straight


class TestExhibitCommands:
    def test_table1_small(self, capsys):
        code = main(["table1", "--cycles", "700", "--warmup", "100",
                     "--seeds", "2010"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Ratio" in out

    def test_export_small(self, capsys, tmp_path):
        path = tmp_path / "missing" / "out.json"
        code = main(["export", str(path), "--cycles", "700",
                     "--warmup", "100", "--seeds", "2010"])
        assert code == 0
        assert path.exists()


class TestTraceCommand:
    def test_trace_writes_valid_chrome_json(self, capsys, tmp_path):
        import json

        from repro.obs.events import LIFECYCLE_EVENT_TYPES
        from repro.obs.exporters import validate_chrome_trace

        path = tmp_path / "trace.json"
        code = main(["trace", "--cycles", "2500", "-o", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "events" in out and "latency breakdown" in out
        document = json.loads(path.read_text())
        validate_chrome_trace(document)
        names = {
            record["name"]
            for record in document["traceEvents"]
            if record["ph"] != "M"
        }
        assert names == {t.value for t in LIFECYCLE_EVENT_TYPES}

    def test_trace_jsonl_dump(self, capsys, tmp_path):
        from repro.obs.exporters import read_jsonl

        trace = tmp_path / "trace.json"
        jsonl = tmp_path / "events.jsonl"
        code = main(["trace", "--cycles", "1500", "-o", str(trace),
                     "--jsonl", str(jsonl)])
        assert code == 0
        records = read_jsonl(str(jsonl))
        assert records
        assert all("type" in r and "cycle" in r for r in records)

    def test_trace_creates_missing_directories(self, capsys, tmp_path):
        trace = tmp_path / "chrome" / "trace.json"
        jsonl = tmp_path / "events" / "events.jsonl"
        code = main(["trace", "--cycles", "1500", "-o", str(trace),
                     "--jsonl", str(jsonl)])
        assert code == 0
        assert trace.exists() and jsonl.exists()

    def test_trace_limit_reports_drops(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        code = main(["trace", "--cycles", "2000", "-o", str(path),
                     "--limit", "50"])
        assert code == 0
        assert "dropped" in capsys.readouterr().out


class TestProfileCommand:
    def test_profile_reports_component_shares(self, capsys):
        code = main(["profile", "--cycles", "1500", "--window", "500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 window(s) of 500 cycles" in out
        rows = {
            line.split()[0]: line.split()[1:]
            for line in out.splitlines()
            if re.match(r"[a-z_.]+ +\d+\.\d% +\d+\.\d{3} +\d+\.\d$", line)
        }
        for layer in ("noc.router", "dram.controller", "sim.engine"):
            assert layer in rows
        assert "cycle     1000+" in out


class TestSweepCommand:
    def fault_args(self, store, extra=()):
        return [
            "sweep", "fault", "--cycles", "1200", "--warmup", "200",
            "--rates", "0", "1e-3", "--seeds", "2010", "--jobs", "1",
            "--store", str(store), "--quiet", *extra,
        ]

    def test_parser_requires_grid(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_parser_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "fault"])
        assert args.jobs >= 1
        assert args.format == "table"
        assert not args.no_cache

    def test_fault_sweep_runs_and_renders(self, capsys, tmp_path):
        store = tmp_path / "store.jsonl"
        assert main(self.fault_args(store)) == 0
        out = capsys.readouterr().out
        assert "seed 2010" in out
        assert "Fault-rate sweep" in out
        assert "2 executed" in out
        assert store.exists()

    def test_second_pass_is_all_cache_hits(self, capsys, tmp_path):
        store = tmp_path / "store.jsonl"
        assert main(self.fault_args(store)) == 0
        capsys.readouterr()
        assert main(self.fault_args(store, ["--require-all-cached"])) == 0
        assert "2 cache hit(s), 0 executed" in capsys.readouterr().out

    def test_require_all_cached_fails_on_cold_store(self, capsys, tmp_path):
        store = tmp_path / "store.jsonl"
        code = main(self.fault_args(store, ["--require-all-cached"]))
        assert code == 2
        assert "--require-all-cached" in capsys.readouterr().err

    def test_json_format_documents_summary_and_records(
        self, capsys, tmp_path
    ):
        import json

        store = tmp_path / "store.jsonl"
        assert main(self.fault_args(store, ["--format", "json"])) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["total"] == 2
        assert len(document["records"]) == 2
        assert all(r["status"] == "ok" for r in document["records"])

    def test_grid_command_sweeps_arbitrary_fields(self, capsys, tmp_path):
        store = tmp_path / "store.jsonl"
        code = main([
            "sweep", "grid",
            "--axis", "app=bluray,single_dtv",
            "--axis", "fault_rate=0,1e-3",
            "--set", "cycles=1200", "--set", "warmup=200",
            "--set", "seed=7",
            "--jobs", "1", "--store", str(store), "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "4 job(s)" in out
        assert out.count("ok") >= 4

    def test_grid_without_axes_is_an_error(self, capsys, tmp_path):
        code = main([
            "sweep", "grid", "--jobs", "1",
            "--store", str(tmp_path / "s.jsonl"), "--quiet",
        ])
        assert code == 2
        assert "--axis" in capsys.readouterr().err

    def test_grid_rejects_unknown_field(self, tmp_path):
        with pytest.raises(SystemExit) as raised:
            main([
                "sweep", "grid", "--axis", "bogus_field=1,2",
                "--jobs", "1", "--store", str(tmp_path / "s.jsonl"),
                "--quiet",
            ])
        assert raised.value.code == 2

    def test_grid_sweeps_arbiter_axis(self, capsys, tmp_path):
        store = tmp_path / "store.jsonl"
        code = main([
            "sweep", "grid",
            "--axis", "arbiter=engine,dpq",
            "--set", "cycles=1200", "--set", "warmup=200",
            "--set", "seed=7",
            "--jobs", "1", "--store", str(store), "--quiet",
        ])
        assert code == 0
        assert "2 job(s)" in capsys.readouterr().out

    def test_grid_rejects_unknown_arbiter(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as raised:
            main([
                "sweep", "grid", "--axis", "arbiter=bogus",
                "--jobs", "1", "--store", str(tmp_path / "s.jsonl"),
                "--quiet",
            ])
        assert raised.value.code == 2
        assert "memory-arbiter" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, kind, extra", [
        ("fault", "fault-point", ["--rates", "0"]),
        ("fig8", "metrics", ["--max-routers", "0"]),
    ])
    def test_job_without_result_prints_fail_lines(
        self, grid, kind, extra, monkeypatch, capsys, tmp_path
    ):
        from repro.sweep import JOB_RUNNERS

        def planted(params):
            raise ValueError("planted runner failure")

        monkeypatch.setitem(JOB_RUNNERS, kind, planted)
        code = main([
            "sweep", grid, "--cycles", "1000", "--warmup", "200",
            "--seeds", "2010", *extra, "--jobs", "1",
            "--store", str(tmp_path / "store.jsonl"), "--quiet",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "FAIL:" in captured.err
        assert "ValueError: planted runner failure" in captured.err
        assert "failed" in captured.out  # the summary line
        assert "util" not in captured.out  # no exhibit table

    def test_fig8_sweep_small(self, capsys, tmp_path):
        store = tmp_path / "store.jsonl"
        code = main([
            "sweep", "fig8", "--cycles", "800", "--warmup", "200",
            "--seeds", "2010", "--max-routers", "0",
            "--jobs", "1", "--store", str(store), "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "#GSS" in out
        assert "3 job(s)" in out


class TestAllCachedCommand:
    def test_all_parser_has_cache_flags(self):
        args = build_parser().parse_args(["all"])
        assert args.store.endswith("results.jsonl")
        assert not args.no_cache

    def test_exhibit_store_serves_cells_and_resimulates_failures(
        self, capsys, tmp_path
    ):
        import json

        store = tmp_path / "store.jsonl"
        argv = [
            "arbiters", "--arbiters", "engine", "dpq", "--apps", "single_dtv",
            "--cycles", "700", "--warmup", "100", "--seeds", "2010",
            "--store", str(store),
        ]
        assert main(argv) == 0
        table = capsys.readouterr().out
        cold = store.read_text().splitlines()
        assert main(argv) == 0
        assert capsys.readouterr().out == table
        assert store.read_text().splitlines() == cold  # all served
        # A stored failure is simulated again, not served.
        planted = dict(
            json.loads(cold[0]), status="failed", result=None, error="planted"
        )
        with store.open("a") as handle:
            handle.write(json.dumps(planted) + "\n")
        assert main(argv) == 0
        assert capsys.readouterr().out == table
        rerun = store.read_text().splitlines()
        assert len(rerun) == len(cold) + 2
        assert json.loads(rerun[-1])["key"] == planted["key"]
        assert json.loads(rerun[-1])["status"] == "ok"


class TestTelemetryCommands:
    def test_run_telemetry_writes_stream(self, capsys, tmp_path):
        from repro.obs.stream import read_stream, validate_stream

        path = tmp_path / "run.ndjson"
        main([
            "run", "--cycles", "2500", "--warmup", "300",
            "--telemetry", str(path), "--sample-interval", "500",
        ])
        out = capsys.readouterr().out
        assert "telemetry" in out
        records = read_stream(path)
        counts = validate_stream(records)
        assert counts["run_start"] == 1
        assert counts["run_end"] == 1
        assert counts["sample"] >= 4
        manifest = records[0]
        assert manifest["type"] == "run_start"
        assert manifest["sample_interval"] == 500
        assert "host" in manifest and "config_key" in manifest
        summary = records[-1]
        assert summary["type"] == "run_end"
        assert summary["completed"] > 0

    def test_run_rejects_bad_sample_interval(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "run", "--cycles", "1000", "--warmup", "0",
                "--telemetry", str(tmp_path / "x.ndjson"),
                "--sample-interval", "0",
            ])

    def test_run_prom_snapshot(self, capsys, tmp_path):
        path = tmp_path / "run.prom"
        main([
            "run", "--cycles", "2000", "--warmup", "200",
            "--prom", str(path),
        ])
        assert "prometheus" in capsys.readouterr().out
        text = path.read_text()
        assert "# TYPE repro_dram_commands counter" in text
        assert 'repro_latency_all{quantile="0.95"}' in text

    def test_run_prom_creates_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "missing" / "run.prom"
        assert main([
            "run", "--cycles", "1500", "--warmup", "200",
            "--prom", str(path),
        ]) == 0
        assert "# TYPE repro_latency_all summary" in path.read_text()

    def test_monitor_parser_flags(self):
        args = build_parser().parse_args(
            ["monitor", "s.ndjson", "--follow", "--refresh", "0.5"]
        )
        assert args.stream == "s.ndjson"
        assert args.follow
        assert args.refresh == 0.5

    def test_monitor_once_renders_run_stream(self, capsys, tmp_path):
        path = tmp_path / "run.ndjson"
        main([
            "run", "--cycles", "2000", "--warmup", "200",
            "--telemetry", str(path),
        ])
        capsys.readouterr()
        assert main(["monitor", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run done" in out
        assert "cycle" in out

    def test_monitor_empty_stream_exits_one(self, capsys, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_text("")
        assert main(["monitor", str(path)]) == 1

    def test_monitor_missing_stream_is_one_error_line(self, tmp_path):
        path = tmp_path / "missing.ndjson"
        with pytest.raises(SystemExit) as raised:
            main(["monitor", str(path)])
        # A string code: the interpreter prints it and exits with 1.
        assert raised.value.code == (
            f"error: cannot read {path}: No such file or directory"
        )

    def test_sweep_telemetry_stream(self, capsys, tmp_path):
        from repro.obs.stream import read_stream, validate_stream

        path = tmp_path / "sweep.ndjson"
        store = tmp_path / "store.jsonl"
        assert main([
            "sweep", "grid", "--axis", "seed=2010,2011",
            "--set", "cycles=1200", "--set", "warmup=200",
            "--jobs", "1", "--store", str(store), "--quiet",
            "--telemetry", str(path),
        ]) == 0
        counts = validate_stream(read_stream(path))
        assert counts["sweep_start"] == 1
        assert counts["job_done"] == 2
        assert counts["sweep_end"] == 1
        capsys.readouterr()
        assert main(["monitor", str(path)]) == 0
        assert "2/2 done" in capsys.readouterr().out
