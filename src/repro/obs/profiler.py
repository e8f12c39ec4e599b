"""Simulator time per layer, under :mod:`cProfile`.

A *layer* is the ``repro`` module defining a function; the paper's
mechanisms live in separate ones (``core.gss_filter``, ``core.tokens``,
``noc.router``, ``dram.device``).  :func:`profile_run` runs windows of
exactly ``window`` simulated cycles, each one ``Simulator.run`` call
under its own profile, so the kernel needs no hook.  Time and calls
outside ``repro`` (built-ins, the stdlib, generated dataclass
``__init__``s) are charged to the calling layer, through callers outside
``repro`` in proportion to their calls.  Calls are deterministic; the
seconds include cProfile's overhead.  Entries come from
``Profile.getstats()``: :mod:`pstats` keys by (file, line, name) and so
merges the generated ``__init__``s.
"""

from __future__ import annotations

import cProfile
import gc
import os
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Source prefix of the ``repro`` package, in the form code objects use.
_PREFIX = os.path.dirname(os.path.dirname(__file__)) + os.sep


def layer_of(code) -> Optional[str]:
    """The ``repro`` module defining ``code`` (``noc.router``), or
    ``None`` outside ``repro`` (cProfile names built-ins by a string)."""
    filename = getattr(code, "co_filename", "")
    if not filename.startswith(_PREFIX) or not filename.endswith(".py"):
        return None
    module = filename[len(_PREFIX):-3].replace(os.sep, ".")
    return module.removesuffix("__init__").rstrip(".") or "repro"


@dataclass
class LayerStat:
    seconds: float = 0.0
    calls: float = 0.0


@dataclass
class Window:
    start: int
    cycles: int
    layers: Dict[str, LayerStat]


def _charge(entries) -> Dict[str, LayerStat]:
    """Charge raw ``Profile.getstats()`` entries to layers."""
    callers = defaultdict(list)
    for entry in entries:
        for sub in entry.calls or ():
            callers[sub.code].append((entry.code, sub))
    memo: Dict[object, Dict[str, float]] = {}

    def owners(code) -> Dict[str, float]:
        """Layer -> share of ``code``'s calls made on its behalf."""
        layer = layer_of(code)
        if layer is not None:
            return {layer: 1.0}
        if code not in memo:
            memo[code] = {}  # a call cycle outside repro charges nothing
            shares = defaultdict(float)
            edges = callers.get(code, ())
            total = sum(sub.callcount for _, sub in edges)
            for caller, sub in edges:
                for name, share in owners(caller).items():
                    shares[name] += share * sub.callcount / total
            memo[code] = shares
        return memo[code]

    layers: Dict[str, LayerStat] = defaultdict(LayerStat)
    for entry in entries:
        own = layer_of(entry.code) is not None
        for code, row in [(entry.code, entry)] if own else callers[entry.code]:
            for name, share in owners(code).items():
                layers[name].seconds += share * row.inlinetime
                layers[name].calls += share * row.callcount
    return dict(layers)


@dataclass
class LayerProfile:
    window: int
    windows: List[Window]
    #: Self time of every profiled function, charged to a layer or not.
    total_seconds: float

    def layers(self) -> Dict[str, LayerStat]:
        """Totals over every window, per layer."""
        totals: Dict[str, LayerStat] = defaultdict(LayerStat)
        for window in self.windows:
            for name, stat in window.layers.items():
                totals[name].seconds += stat.seconds
                totals[name].calls += stat.calls
        return dict(totals)

    def report(self, windows: int = 3) -> str:
        """Layer table, busiest first, then the busiest layers of the
        ``windows`` most recent windows."""
        layers = self.layers()
        total = self.total_seconds or 1.0
        kcycles = max(1, sum(w.cycles for w in self.windows)) / 1000
        covered = sum(stat.seconds for stat in layers.values()) / total
        lines = [
            f"profiled      : {len(self.windows)} window(s) of {self.window}"
            f" cycles, {self.total_seconds:.3f}s self time, {covered:.1%}"
            " of it in repro layers",
            "",
            f"{'layer':<24s} {'share':>7s} {'seconds':>9s} "
            f"{'calls/kcycle':>13s}",
        ]
        for name, stat in sorted(layers.items(), key=lambda kv: -kv[1].seconds):
            lines.append(
                f"{name:<24s} {stat.seconds / total:>7.1%} "
                f"{stat.seconds:>9.3f} {stat.calls / kcycles:>13.1f}"
            )
        recent = self.windows[max(0, len(self.windows) - windows):]
        if recent:
            lines += ["", f"most recent {len(recent)} window(s), busiest "
                      "layers (ms of self time):"]
        for window in recent:
            busiest = sorted(window.layers.items(),
                             key=lambda kv: -kv[1].seconds)[:3]
            lines.append(f"  cycle {window.start:>8d}+: " + ", ".join(
                f"{name}={stat.seconds * 1e3:.1f}" for name, stat in busiest
            ))
        return "\n".join(lines)


def profile_run(system, cycles: int, window: int = 1_000) -> LayerProfile:
    """Advance ``system`` (a :class:`~repro.core.system.SocSystem` or a
    :class:`~repro.sim.engine.Simulator`) by ``cycles`` cycles in
    profiled windows of ``window`` cycles (the last may be shorter)."""
    if window <= 0 or cycles < 0:
        raise ValueError("window must be positive and cycles non-negative")
    simulator = getattr(system, "simulator", system)
    end = simulator.cycle + cycles
    windows: List[Window] = []
    total = 0.0
    while simulator.cycle < end:
        start = simulator.cycle
        # Empty young generations: collections, and any ``gc.callbacks``
        # code cProfile charges to the frame it interrupts, then fall on
        # the same allocations in every run.
        gc.collect()
        profile = cProfile.Profile()
        profile.runcall(simulator.run, min(window, end - start))
        entries = profile.getstats()
        total += sum(entry.inlinetime for entry in entries)
        windows.append(Window(start, simulator.cycle - start, _charge(entries)))
    return LayerProfile(window, windows, total)
