"""Per-layer spans, installed from outside the simulator.

:func:`install` replaces selected public methods of ``repro`` classes
with wrappers that time each call on a span stack: a span's *self time*
is its duration minus the time of the spans nested inside it.  Nothing
in ``src/`` knows about the wrappers.  They must be installed before
``build_system``, because the simulator binds each component's ``tick``
when the component is registered.

A span re-entered directly from itself (``PriorityFirst.pick`` calling
``RoundRobin.pick`` through ``super()``, or ``Dual.pick`` handing off to
its round-robin arbiter) folds into the outer call, so ``calls`` counts
one arbitration once.  Targets whose module, class or method does not
exist are skipped and listed in :attr:`Trace.skipped`, so the same
benchmark can trace older trees.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: span name -> (module, class or None for a module function, methods).
SPANS: Dict[str, List[Tuple[str, Optional[str], Tuple[str, ...]]]] = {
    "sim.dispatch": [("repro.sim.engine", "Simulator", ("run",))],
    "noc.network.tick": [("repro.noc.network", "MeshNetwork", ("tick",))],
    "noc.router.plan": [("repro.noc.router", "Router", ("plan",))],
    "noc.router.commit": [("repro.noc.router", "Router", ("commit",))],
    "noc.flow_control.pick": [
        ("repro.noc.flow_control", "RoundRobinFlowController", ("pick",)),
        ("repro.noc.flow_control", "PriorityFirstFlowController", ("pick",)),
        ("repro.noc.flow_control", "DualFlowController", ("pick",)),
        ("repro.core.gss_flow_control", "PfsMemoryFlowController", ("pick",)),
    ],
    "core.gss.pick": [
        ("repro.core.gss_flow_control", "GssFlowController", ("pick",)),
    ],
    "core.tokens": [
        ("repro.core.tokens", "TokenTable", ("on_arrival", "on_scheduled")),
    ],
    "core.sagm.split": [("repro.core.sagm", "SagmSplitter", ("split",))],
    "noc.ni_core.tick": [("repro.noc.interface", "CoreInterface", ("tick",))],
    "noc.ni_memory.tick": [
        ("repro.noc.interface", "MemoryInterface", ("tick",)),
    ],
    "workloads.generate": [
        ("repro.workloads.cores", "SyntheticCore", ("generate",)),
    ],
    "dram.scheduler.tick": [
        ("repro.dram.subsystem", "ThinMemorySubsystem", ("tick",)),
        ("repro.dram.subsystem", "ConvMemorySubsystem", ("tick",)),
        ("repro.dram.dpq", "DpqScheduler", ("tick",)),
        ("repro.dram.bankreg", "BankRegulatedScheduler", ("tick",)),
    ],
    "dram.memmax.pop": [("repro.dram.memmax", "MemMaxScheduler", ("pop_next",))],
    "dram.engine.tick": [("repro.dram.controller", "CommandEngine", ("tick",))],
    "dram.device.issue": [
        ("repro.dram.device", "SdramDevice", ("issue_vetted", "issue")),
    ],
    "resilience.tick": [
        ("repro.resilience.protection", "ResilienceController", ("tick",)),
        ("repro.resilience.watchdog", "RequestWatchdog", ("tick",)),
    ],
    "resilience.invariant": [
        ("repro.resilience.invariants", "InvariantChecker", ("on_cycle",)),
    ],
}

#: Call counters without timing: name -> (module, function); the tally
#: counts truthy results.  ``passes_filter`` runs too often and too
#: briefly to time without distorting its caller; its time stays in
#: ``core.gss.pick``.
COUNTERS: Dict[str, Tuple[str, str]] = {
    "core.gss.filter": ("repro.core.gss_filter", "passes_filter"),
}

#: Spans whose results are tallied: the number of SAGM parts returned.
_RESULT_SIZE = {"core.sagm.split"}


class Trace:
    """Span totals for one process; see the module docstring."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = {name: 0.0 for name in SPANS}
        #: Per counter or sized span: summed truthiness or result length.
        self.tally: Counter = Counter()
        self.skipped: List[str] = []
        self._stack: List[list] = []
        self._restore: List[Tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        tally = self.tally
        sized = name in _RESULT_SIZE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            calls[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if sized:
                tally[name] += len(result)
            return result

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        calls = self.calls
        tally = self.tally

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name] += 1
            if result:
                tally[name] += 1
            return result

        return counted

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> "Trace":
        for name, targets in SPANS.items():
            for module_name, class_name, methods in targets:
                owner = _resolve(module_name, class_name)
                for method in methods:
                    # Only a method the class defines itself: an inherited
                    # one is wrapped on the class that defines it.
                    if owner is None or method not in vars(owner):
                        self.skipped.append(f"{module_name}.{class_name}.{method}")
                        continue
                    self._patch(owner, method, self.span(name, getattr(owner, method)))
        for name, (module_name, function) in COUNTERS.items():
            module = _resolve(module_name, None)
            if module is None or function not in vars(module):
                self.skipped.append(f"{module_name}.{function}")
                continue
            self._patch(module, function, self.counter(name, getattr(module, function)))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def totals(self) -> Dict[str, object]:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "tally": dict(self.tally),
            "skipped": list(self.skipped),
        }


def _resolve(module_name: str, class_name: Optional[str]):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    if class_name is None:
        return module
    return getattr(module, class_name, None)


def install() -> Trace:
    """Wrap every span and counter target; returns the live trace."""
    return Trace().install()


#: Per-layer metric -> (unit, which direction is better), in report
#: order.  A ``self_share`` is the span's self time over the traced wall
#: time of the horizon.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "sim.dispatch.self_share": ("share", "lower"),
    "sim.jumped_cycles": ("cycles", "higher"),
    "sim.stepped": ("flag", "lower"),
    "noc.network.tick.calls": ("count", "lower"),
    "noc.network.tick.self_share": ("share", "lower"),
    "noc.router.plan.calls": ("count", "lower"),
    "noc.router.plan.self_share": ("share", "lower"),
    "noc.router.plan.us_per_call": ("ref_us", "lower"),
    "noc.router.commit.self_share": ("share", "lower"),
    "noc.router.plans_per_tick": ("plans/tick", "lower"),
    "noc.flow_control.pick.calls": ("count", "lower"),
    "noc.flow_control.pick.self_share": ("share", "lower"),
    "core.gss.pick.calls": ("count", "lower"),
    "core.gss.pick.self_share": ("share", "lower"),
    "core.gss.pick.us_per_call": ("ref_us", "lower"),
    "core.gss.filter.evals": ("count", "lower"),
    "core.gss.filter.evals_per_pick": ("evals/pick", "lower"),
    "core.gss.filter.pass_ratio": ("ratio", "higher"),
    "core.tokens.calls": ("count", "lower"),
    "core.tokens.self_share": ("share", "lower"),
    "core.sagm.split.calls": ("count", "lower"),
    "core.sagm.parts_per_split": ("parts/split", "lower"),
    "noc.ni_core.tick.calls": ("count", "lower"),
    "noc.ni_core.tick.self_share": ("share", "lower"),
    "noc.ni_memory.tick.calls": ("count", "lower"),
    "noc.ni_memory.tick.self_share": ("share", "lower"),
    "workloads.generate.calls": ("count", "lower"),
    "workloads.generate.self_share": ("share", "lower"),
    "dram.scheduler.tick.self_share": ("share", "lower"),
    "dram.memmax.pop.calls": ("count", "lower"),
    "dram.engine.tick.calls": ("count", "lower"),
    "dram.engine.tick.self_share": ("share", "lower"),
    "dram.engine.issue_ratio": ("ratio", "higher"),
    "dram.device.issue.calls": ("count", "lower"),
    "dram.device.issue.self_share": ("share", "lower"),
    "resilience.tick.self_share": ("share", "lower"),
    "resilience.invariant.calls": ("count", "lower"),
    "resilience.invariant.self_share": ("share", "lower"),
    "resilience.faults_injected": ("count", "lower"),
    "resilience.requests_failed": ("count", "lower"),
    "trace.coverage": ("share", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


def layer_metrics(totals: Dict[str, object], wall_s: float,
                  system: Dict[str, float], ref_scale: float) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    ``totals`` is :meth:`Trace.totals` over the timed horizon, ``wall_s``
    the traced wall time of that horizon, and ``system`` the counters the
    child read from the system itself (jumped cycles, dispatch tier,
    faults injected, requests failed).  ``ref_scale`` turns host time
    into reference host time for the ``us_per_call`` metrics, as the
    ``ref_*`` end-to-end metrics do.
    """
    calls = totals["calls"]
    self_s = totals["self_s"]
    tally = totals["tally"]

    def n(name: str) -> int:
        return calls.get(name, 0)

    def share(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names) / wall_s

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def us_per_call(name: str) -> float:
        return ratio(self_s.get(name, 0.0) * 1e6 * ref_scale, n(name))

    return {
        "sim.dispatch.self_share": share("sim.dispatch"),
        "sim.jumped_cycles": system["jumped_cycles"],
        "sim.stepped": system["stepped"],
        "noc.network.tick.calls": n("noc.network.tick"),
        "noc.network.tick.self_share": share("noc.network.tick"),
        "noc.router.plan.calls": n("noc.router.plan"),
        "noc.router.plan.self_share": share("noc.router.plan"),
        "noc.router.plan.us_per_call": us_per_call("noc.router.plan"),
        "noc.router.commit.self_share": share("noc.router.commit"),
        "noc.router.plans_per_tick": ratio(n("noc.router.plan"),
                                           n("noc.network.tick")),
        "noc.flow_control.pick.calls": n("noc.flow_control.pick"),
        "noc.flow_control.pick.self_share": share("noc.flow_control.pick"),
        "core.gss.pick.calls": n("core.gss.pick"),
        "core.gss.pick.self_share": share("core.gss.pick"),
        "core.gss.pick.us_per_call": us_per_call("core.gss.pick"),
        "core.gss.filter.evals": n("core.gss.filter"),
        "core.gss.filter.evals_per_pick": ratio(n("core.gss.filter"),
                                                n("core.gss.pick")),
        "core.gss.filter.pass_ratio": ratio(tally.get("core.gss.filter", 0),
                                            n("core.gss.filter")),
        "core.tokens.calls": n("core.tokens"),
        "core.tokens.self_share": share("core.tokens"),
        "core.sagm.split.calls": n("core.sagm.split"),
        "core.sagm.parts_per_split": ratio(tally.get("core.sagm.split", 0),
                                           n("core.sagm.split")),
        "noc.ni_core.tick.calls": n("noc.ni_core.tick"),
        "noc.ni_core.tick.self_share": share("noc.ni_core.tick"),
        "noc.ni_memory.tick.calls": n("noc.ni_memory.tick"),
        "noc.ni_memory.tick.self_share": share("noc.ni_memory.tick"),
        "workloads.generate.calls": n("workloads.generate"),
        "workloads.generate.self_share": share("workloads.generate"),
        "dram.scheduler.tick.self_share": share("dram.scheduler.tick"),
        "dram.memmax.pop.calls": n("dram.memmax.pop"),
        "dram.engine.tick.calls": n("dram.engine.tick"),
        "dram.engine.tick.self_share": share("dram.engine.tick"),
        "dram.engine.issue_ratio": ratio(n("dram.device.issue"),
                                         n("dram.engine.tick")),
        "dram.device.issue.calls": n("dram.device.issue"),
        "dram.device.issue.self_share": share("dram.device.issue"),
        "resilience.tick.self_share": share("resilience.tick"),
        "resilience.invariant.calls": n("resilience.invariant"),
        "resilience.invariant.self_share": share("resilience.invariant"),
        "resilience.faults_injected": system["faults_injected"],
        "resilience.requests_failed": system["requests_failed"],
        "trace.coverage": share(*SPANS),
    }
