"""Command line: ``python -m bench {run,compare,selftest}``.

``run`` prints every metric by name with its unit and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  With one
``--workload`` the metrics map is flat: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``, both without
``--trace``.  With several workloads it maps each workload to such a
map.  Exit codes: 0 all outputs correct, 1 a check failed, 2 bad usage
or no ``repro`` source to benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness
from .workloads import WORKLOADS


def _positive(kind):
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__}: {text!r}")
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    return parse


def _workload(text: str) -> str:
    if text not in WORKLOADS:
        raise argparse.ArgumentTypeError(
            f"unknown workload {text!r}; choose from {', '.join(WORKLOADS)}"
        )
    return text


def parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    commands = top.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure the workloads")
    run.add_argument("--workload", action="append", type=_workload,
                     help="workload to run (repeatable; default: all)")
    run.add_argument("--seed", type=int, default=2010,
                     help="seed the workload inputs are made from")
    length = run.add_mutually_exclusive_group()
    length.add_argument("--rounds", type=_positive(int), default=5,
                        help="measured rounds (default 5)")
    length.add_argument("--seconds", type=_positive(float),
                        help="measure for about this long instead of a "
                             "fixed number of rounds")
    run.add_argument("--trace", type=int, choices=(0, 1),
                     help="0: end-to-end only; 1: per-layer only; "
                          "unset: both")
    run.add_argument("--cycles-scale", type=_positive(float), default=1.0,
                     help="multiply every workload's horizon")
    run.add_argument("--smoke", action="store_true",
                     help="one round at the shortest horizon")
    run.add_argument("--regen-golden", action="store_true",
                     help="print fresh golden fingerprints and a diff "
                          "against bench/golden.json; writes nothing")
    run.add_argument("--src", type=Path, default=harness.ROOT / "src",
                     help="source tree holding the repro package")
    run.add_argument("--json", type=Path, metavar="PATH",
                     help="also write the full report here")

    compare = commands.add_parser("compare", help="compare saved reports")
    compare.add_argument("base", help="report file(s) of the base side, "
                                      "comma-separated")
    compare.add_argument("new", nargs="+", help="report file(s) of each "
                                                "side judged against base")

    commands.add_parser("selftest", help="check the benchmark itself")
    return top


def main(argv=None) -> int:
    args = parser().parse_args(argv)
    if args.command == "compare":
        from .compare import compare

        return compare(args.base, args.new)
    if args.command == "selftest":
        from .selftest import selftest

        return selftest()
    names = list(dict.fromkeys(args.workload or WORKLOADS))
    opts = harness.Options(
        workloads=names, seed=args.seed, rounds=args.rounds,
        seconds=args.seconds, trace=args.trace,
        cycles_scale=args.cycles_scale, src=args.src,
    )
    if args.smoke:
        opts.rounds, opts.seconds, opts.cycles_scale = 1, None, 0.0
    try:
        if args.regen_golden:
            return harness.regenerate_golden(opts)
        report = harness.run(opts)
    except harness.SourceMissing as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    if args.json is not None:
        report["host"] = harness.host_manifest()
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    print_report(report)
    print(json.dumps(result_line(report, opts)))
    return 0 if report["failed"] == 0 else 1


def print_report(report: dict) -> None:
    print(f"seed {report['seed']}, {report['rounds']} rounds, "
          f"{report['attempted']} child runs, {report['failed']} failed")
    for name, entry in report["workloads"].items():
        print(f"\n{name}: {entry['cycles']} cycles, fingerprint "
              f"{(entry['fingerprint'] or '-')[:16]}")
        for metric, m in entry.get("e2e", {}).items():
            extra = f"  chunks={m['chunks']}" if "chunks" in m else ""
            print(f"  {metric:34s} {m['value']:14.6g} {m['unit']:10s} "
                  f"q1 {m['q1']:.6g}  median {m['median']:.6g}  "
                  f"q3 {m['q3']:.6g}  n={m['n']}{extra}")
        print(f"  {'ops_failed_share':34s} {entry['ops_failed_share']:14.6g} "
              f"{'share':10s} ({entry['failed']}/{entry['attempted']} "
              "child runs)")
        for metric, m in entry.get("model", {}).items():
            print(f"  model.{metric:28s} {m['value']:14.6g} {m['unit']}")
        for metric, m in entry.get("layers", {}).items():
            print(f"  {metric:34s} {m['value']:14.6g} {m['unit']}")
        if entry.get("spans_skipped"):
            print(f"  spans missing in this tree: {', '.join(entry['spans_skipped'])}")


def result_line(report: dict, opts: harness.Options) -> dict:
    per_workload = {}
    for name, entry in report["workloads"].items():
        metrics = {}
        for group in ("e2e", "layers"):
            for metric, m in entry.get(group, {}).items():
                if metric not in harness.RAW_METRICS:
                    metrics[metric] = {"value": m["value"], "unit": m["unit"]}
        per_workload[name] = metrics
    expected = len(opts.workloads)
    correct = report["failed"] == 0 and len(per_workload) == expected and all(
        per_workload.values())
    metrics = (per_workload[opts.workloads[0]] if expected == 1
               else per_workload)
    return {"correct": correct, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
