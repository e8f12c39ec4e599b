"""NoC telemetry tests."""

import pytest

from repro.core.system import build_system
from repro.obs.analysis import (
    buffer_highwater,
    hottest_links,
    link_stats,
    node_throughput,
    register_metrics,
    render_link_report,
)
from repro.noc.topology import Port
from repro.obs.metrics import MetricsRegistry
from repro.sim.config import NocDesign, SystemConfig


@pytest.fixture(scope="module")
def ran_system():
    system = build_system(SystemConfig(app="single_dtv", cycles=3_000,
                                       warmup=500,
                                       design=NocDesign.SDRAM_AWARE))
    system.run()
    return system


class TestLinkStats:
    def test_one_entry_per_output_channel(self, ran_system):
        stats = link_stats(ran_system.network, 3_000)
        expected = sum(
            len(router.outputs) for router in ran_system.network.routers
        )
        assert len(stats) == expected

    def test_utilization_bounded_by_capacity(self, ran_system):
        for stat in link_stats(ran_system.network, 3_000):
            assert 0.0 <= stat.utilization <= 1.0

    def test_flit_conservation_per_channel(self, ran_system):
        for stat in link_stats(ran_system.network, 3_000):
            assert stat.flits >= stat.packets  # every packet has >= 1 flit

    def test_cycles_must_be_positive(self, ran_system):
        with pytest.raises(ValueError):
            link_stats(ran_system.network, 0)


class TestHotspots:
    def test_memory_funnel_is_hottest(self, ran_system):
        """All memory traffic exits through node 0's LOCAL channel."""
        hottest = hottest_links(ran_system.network, 3_000, top=3)
        assert any(
            s.node == 0 and s.port in (Port.LOCAL, Port.EAST, Port.SOUTH)
            for s in hottest
        )

    def test_top_bound(self, ran_system):
        assert len(hottest_links(ran_system.network, 3_000, top=2)) == 2
        with pytest.raises(ValueError):
            hottest_links(ran_system.network, 3_000, top=0)

    def test_node_throughput_covers_all_nodes(self, ran_system):
        totals = node_throughput(ran_system.network, 3_000)
        assert set(totals) == set(ran_system.network.mesh.nodes())

    def test_report_renders(self, ran_system):
        text = render_link_report(ran_system.network, 3_000)
        assert "per-node" in text
        assert "LOCAL" in text


class TestHottestOrdering:
    def test_sorted_by_flits_descending(self, ran_system):
        ordered = hottest_links(ran_system.network, 3_000, top=10)
        flits = [stat.flits for stat in ordered]
        assert flits == sorted(flits, reverse=True)

    def test_ties_break_by_node_then_port(self, ran_system):
        all_links = hottest_links(ran_system.network, 3_000, top=10_000)
        for earlier, later in zip(all_links, all_links[1:]):
            if earlier.flits == later.flits:
                assert (earlier.node, earlier.port.name) < (
                    later.node,
                    later.port.name,
                )

    def test_idle_links_tie_deterministically(self, ran_system):
        """Repeated calls return the identical ordering (no set/dict-order
        or sort-stability dependence), including the all-zero tail."""
        first = hottest_links(ran_system.network, 3_000, top=10_000)
        second = hottest_links(ran_system.network, 3_000, top=10_000)
        assert [(s.node, s.port) for s in first] == [
            (s.node, s.port) for s in second
        ]


class TestBufferHighwater:
    def test_one_mark_per_input_lane(self, ran_system):
        marks = buffer_highwater(ran_system.network)
        expected = sum(
            len(lanes)
            for router in ran_system.network.routers
            for lanes in router.inputs.values()
        )
        assert len(marks) == expected

    def test_marks_bounded_by_capacity(self, ran_system):
        marks = buffer_highwater(ran_system.network)
        for (node, port, lane), mark in marks.items():
            router = ran_system.network.routers[node]
            buffer = router.inputs[Port[port]][lane]
            assert 0 <= mark <= buffer.capacity_flits

    def test_traffic_raised_some_mark(self, ran_system):
        assert any(mark > 0 for mark in buffer_highwater(ran_system.network).values())


class TestRegisterMetrics:
    def test_registers_links_and_highwater(self, ran_system):
        registry = MetricsRegistry()
        register_metrics(ran_system.network, registry, 3_000)
        assert registry.names("noc.link.flits")
        assert registry.names("noc.link.packets")
        assert registry.names("noc.buffer.highwater")

    def test_flit_counts_match_link_stats(self, ran_system):
        registry = MetricsRegistry()
        register_metrics(ran_system.network, registry, 3_000)
        total = sum(
            registry.get(name).value
            for name in registry.names("noc.link.flits")
        )
        assert total == sum(
            stat.flits for stat in link_stats(ran_system.network, 3_000)
        )
