"""Scheduler base class: conformance, registry, and builder routing.

Every memory-arbiter backend — the three paper-era subsystems and the
two newer arbiters — must subclass :class:`Scheduler`, be listed under a
stable name, and be reachable both through ``SystemConfig.arbiter`` and
through the design defaults (CONV designs route to MemMax, the rest to
the thin controller).
"""

import pytest

from tests.helpers import make_request
from repro.dram.controller import PagePolicy
from repro.dram.scheduler import Scheduler
from repro.dram.subsystem import (
    DATABAHN_LOOKAHEAD,
    ConvMemorySubsystem,
    ThinMemorySubsystem,
    build_memory_subsystem,
    default_backend_for,
    registered_backends,
    resolve_backend,
)
from repro.dram.dpq import DpqScheduler
from repro.dram.bankreg import BankRegulatedScheduler
from repro.sim.config import DdrGeneration, NocDesign, SystemConfig

ALL_BACKENDS = ("bank-reg", "databahn", "dpq", "engine", "memmax")


def build_backend(name, design=NocDesign.GSS_SAGM):
    config = SystemConfig(design=design, arbiter=name)
    return build_memory_subsystem(config)[1]


class TestRegistry:
    def test_builtins_registered(self):
        assert registered_backends() == list(ALL_BACKENDS)

    def test_resolve_unknown_lists_backends(self):
        with pytest.raises(KeyError) as excinfo:
            resolve_backend("tdm")
        message = str(excinfo.value)
        for name in ALL_BACKENDS:
            assert name in message

    def test_default_backend_for(self):
        assert default_backend_for(NocDesign.CONV) == "memmax"
        assert default_backend_for(NocDesign.CONV_PFS) == "memmax"
        for design in (
            NocDesign.SDRAM_AWARE, NocDesign.GSS, NocDesign.GSS_SAGM
        ):
            assert default_backend_for(design) == "engine"


class TestConformance:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_full_member_surface(self, name):
        backend = build_backend(name)
        assert isinstance(backend, Scheduler)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_serves_traffic_and_reports_stats(self, name):
        backend = build_backend(name)
        requests = [
            make_request(master=i % 4, bank=i % 8, row=i, beats=8)
            for i in range(6)
        ]
        pending = list(requests)
        finished = []
        cycle = 0
        while (pending or not backend.idle) and cycle < 20_000:
            while pending and backend.can_accept(pending[0]):
                backend.enqueue(pending.pop(0), cycle)
            backend.tick(cycle)
            finished.extend(backend.drain_finished())
            cycle += 1
        assert len(finished) == 6, f"{name} completed {len(finished)}/6"
        stats = backend.scheduler_stats()
        assert stats["service.count"] == 6
        assert stats["service.p100"] >= stats["service.mean"] > 0
        assert backend.idle

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_event_contract_idle_none(self, name):
        backend = build_backend(name)
        assert backend.next_event_cycle(0) is None
        assert backend.idle

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_next_event_soon_after_enqueue(self, name):
        backend = build_backend(name)
        backend.enqueue(make_request(beats=8), 0)
        wake = backend.next_event_cycle(0)
        assert wake is not None and wake >= 1

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_admission_contract(self, name):
        """``can_accept`` changes only through ``enqueue`` and ``tick``, and
        no tick before ``next_event_cycle`` changes anything: a memory NI
        whose head request is refused may sleep until that cycle."""
        import random

        backend = build_backend(name)
        rng = random.Random(7)
        total = 200
        pending = [
            make_request(
                master=rng.randrange(2), bank=rng.randrange(8),
                row=rng.randrange(4), beats=rng.choice((8, 16, 32)),
                is_read=rng.random() < 0.6,
            )
            for _ in range(total)
        ]

        def observed():
            return (
                backend.pending, backend.device.issued_commands,
                bool(pending) and backend.can_accept(pending[0]),
            )

        cycle = finished = refused = 0
        while (pending or not backend.idle) and cycle < 100_000:
            while pending and backend.can_accept(pending[0]):
                backend.enqueue(pending.pop(0), cycle)
            refused += bool(pending)
            backend.tick(cycle)
            finished += len(backend.drain_finished())
            wake = backend.next_event_cycle(cycle)
            if pending and backend.can_accept(pending[0]):
                wake = cycle + 1
            stop = cycle + 1 if wake is None or wake <= cycle else wake
            for quiet in range(cycle + 1, stop):
                before = observed()
                backend.tick(quiet)
                assert observed() == before, f"tick at {quiet} < {stop}"
                assert not backend.drain_finished()
            cycle = stop
        assert finished == total
        assert refused > 0  # the queue did fill and refuse requests

    def test_only_dpq_has_a_bound(self):
        for name in ALL_BACKENDS:
            backend = build_backend(name)
            backend.enqueue(make_request(beats=8), 0)
            bound = backend.latency_bound()
            if name == "dpq":
                assert bound is not None and bound > 0
            else:
                assert bound is None


class TestBuilderRouting:
    def test_none_arbiter_routes_by_design(self):
        _, conv = build_memory_subsystem(SystemConfig(design=NocDesign.CONV))
        assert isinstance(conv, ConvMemorySubsystem)
        _, sagm = build_memory_subsystem(
            SystemConfig(design=NocDesign.GSS_SAGM)
        )
        assert isinstance(sagm, ThinMemorySubsystem)
        assert sagm.engine.page_policy is PagePolicy.PARTIALLY_OPEN

    def test_explicit_arbiter_overrides_design_default(self):
        backend = build_backend("memmax", design=NocDesign.GSS_SAGM)
        assert isinstance(backend, ConvMemorySubsystem)
        assert not backend.scheduler.priority_first
        backend = build_backend("dpq", design=NocDesign.CONV)
        assert isinstance(backend, DpqScheduler)

    def test_memmax_backend_honours_pfs(self):
        backend = build_backend("memmax", design=NocDesign.CONV_PFS)
        assert backend.scheduler.priority_first

    def test_bankreg_backend_type(self):
        assert isinstance(build_backend("bank-reg"), BankRegulatedScheduler)

    def test_databahn_backend_matches_design_path(self):
        """Whatever the NoC design, ``databahn`` is the thin subsystem
        with the Databahn lookahead window: open page, BL 8."""
        explicit = build_backend("databahn", design=NocDesign.GSS_SAGM)
        assert isinstance(explicit, ThinMemorySubsystem)
        assert explicit.engine.window_size == DATABAHN_LOOKAHEAD
        assert explicit.engine.page_policy is PagePolicy.OPEN_PAGE
        assert explicit.engine.burst_beats == 8

    def test_dpq_closed_page_serial_engine(self):
        backend = build_backend("dpq")
        assert backend.engine.page_policy is PagePolicy.CLOSED_PAGE
        assert backend.engine.window_size == 1
