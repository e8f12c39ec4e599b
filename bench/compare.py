"""``python -m bench compare``: judge one set of runs against another.

Each side is one report written by ``bench run --json``, or several
joined by commas; a side's samples are the per-round values of all its
reports, in order, so runs made in alternation line up as pairs.  The
verdict per metric and workload follows the claim rules the benchmark
is held to:

* ``better`` when the new side wins at least nine tenths of the pairs
  and its median moved by more than the base side's quartile spread,
  or when every new sample beats every base sample;
* ``worse`` when the new median is worse than the base median by more
  than the metric's bound;
* ``unresolved`` when the base side's spread exceeds the bound (and not
  every new sample is better);
* ``same`` otherwise.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from .harness import E2E_METRICS, ROOT, quartiles


def load_side(arg: str) -> List[dict]:
    reports = []
    for path in arg.split(","):
        with open(path) as handle:
            reports.append(json.load(handle))
    return reports


def bounds() -> Dict[str, float]:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}


def pooled(reports: Sequence[dict], workload: str, metric: str) -> List[float]:
    values: List[float] = []
    for report in reports:
        e2e = report["workloads"].get(workload, {}).get("e2e", {})
        if metric in e2e:
            values.extend(e2e[metric]["samples"])
    return values


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float) -> Dict[str, object]:
    sign = 1.0 if better == "higher" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    n_q1, n_med, n_q3 = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    win_fraction = wins / len(pairs)
    spread = (b_q3 - b_q1) / b_med
    change = sign * (n_med - b_med) / b_med
    if min(sign * v for v in new) > max(sign * v for v in base):
        outcome = "better"
    elif spread > bound:
        outcome = "unresolved"
    elif change < -bound:
        outcome = "worse"
    elif win_fraction >= 0.9 and abs(n_med - b_med) > b_q3 - b_q1 and change > 0:
        outcome = "better"
    else:
        outcome = "same"
    return {
        "base": (b_q1, b_med, b_q3), "new": (n_q1, n_med, n_q3),
        "change": change, "spread": spread, "win_fraction": win_fraction,
        "pairs": len(pairs), "verdict": outcome,
    }


def compare(base_arg: str, new_args: Sequence[str]) -> int:
    """Print a verdict table per new side; returns 1 if any is worse."""
    limits = bounds()
    base = load_side(base_arg)
    names = list(base[0]["workloads"])
    status = 0
    for new_arg in new_args:
        new = load_side(new_arg)
        print(f"{_label(new_arg)} vs {_label(base_arg)}")
        print(f"  {'workload':20s} {'metric':18s} {'base q1/med/q3':>28s} "
            f"{'new q1/med/q3':>28s} {'change':>8s} {'wins':>6s}  verdict")
        for workload in names:
            for metric, (_, better) in E2E_METRICS.items():
                b = pooled(base, workload, metric)
                n = pooled(new, workload, metric)
                if not b or not n or metric not in limits:
                    continue
                v = verdict(b, n, better, limits[metric])
                if v["verdict"] == "worse":
                    status = 1
                print(f"  {workload:20s} {metric:18s} "
                    f"{_triple(v['base']):>28s} {_triple(v['new']):>28s} "
                    f"{v['change']:+8.1%} {v['win_fraction']:6.0%}  "
                    f"{v['verdict']} (spread {v['spread']:.1%}, "
                    f"bound {limits[metric]:.0%}, {v['pairs']} pairs)")
    return status


def _label(arg: str) -> str:
    paths = arg.split(",")
    return paths[0] if len(paths) == 1 else f"{paths[0]} and {len(paths) - 1} more"


def _triple(values) -> str:
    return "/".join(f"{v:.4g}" for v in values)
