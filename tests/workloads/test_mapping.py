"""Placement (Fig. 7 / A3MAP substitute) tests."""

from repro.workloads.apps import bluray_model, dual_dtv_model
from repro.workloads.mapping import MEMORY_NODE, gss_router_order, place


class TestPlacement:
    def test_memory_in_corner(self):
        placement = place(bluray_model())
        assert placement.memory_node == MEMORY_NODE == 0

    def test_every_core_gets_unique_node(self):
        placement = place(dual_dtv_model())
        nodes = list(placement.core_nodes.values())
        assert len(nodes) == len(set(nodes)) == 15
        assert MEMORY_NODE not in nodes

    def test_all_mesh_nodes_used(self):
        placement = place(bluray_model())
        used = set(placement.core_nodes.values()) | {placement.memory_node}
        assert used == set(placement.mesh.nodes())

    def test_heavy_cores_near_memory(self):
        app = bluray_model()
        placement = place(app)
        mesh = placement.mesh
        weights = {i: spec.bandwidth_weight for i, spec in enumerate(app.cores)}
        heaviest = max(weights, key=weights.get)
        lightest = min(weights, key=weights.get)
        d_heavy = mesh.hop_distance(MEMORY_NODE, placement.node_of_core(heaviest))
        d_light = mesh.hop_distance(MEMORY_NODE, placement.node_of_core(lightest))
        assert d_heavy <= d_light


class TestGssOrder:
    def test_order_monotonic_in_distance(self):
        placement = place(bluray_model())
        order = gss_router_order(placement)
        mesh = placement.mesh
        distances = [mesh.hop_distance(MEMORY_NODE, node) for node in order]
        assert distances == sorted(distances)

    def test_memory_router_first(self):
        placement = place(bluray_model())
        assert gss_router_order(placement)[0] == MEMORY_NODE

    def test_covers_all_routers(self):
        placement = place(dual_dtv_model())
        assert sorted(gss_router_order(placement)) == list(range(16))
