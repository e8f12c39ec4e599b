"""Core-to-node placement (the paper's Fig. 7 / A3MAP substitute).

The paper maps cores with A3MAP [28], an analytic mapper that minimizes
weighted communication distance; with a single memory subsystem, the
dominant term is each core's bandwidth demand times its hop distance to the
memory corner.  We reproduce that objective greedily: the memory subsystem
occupies corner node 0 (Fig. 7 places it in a corner), and cores are placed
in decreasing bandwidth order onto remaining nodes in increasing hop
distance from the memory node — heavy streamers end up adjacent to memory,
sparse cores at the far corner, matching the structure of Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..noc.topology import Mesh, Mesh3D
from .apps import AppModel

#: The memory subsystem's mesh node (upper-left corner, per Fig. 7).
MEMORY_NODE = 0


@dataclass(frozen=True)
class Placement:
    """A full placement: memory node plus core -> node assignments."""

    mesh: object  # Mesh or Mesh3D (duck-typed: ports/neighbor/hop_distance)
    memory_node: int
    core_nodes: Dict[int, int]      # core index in app.cores -> node

    def node_of_core(self, core_index: int) -> int:
        return self.core_nodes[core_index]


def place(app: AppModel) -> Placement:
    """Greedy bandwidth-times-distance placement (A3MAP substitute)."""
    if app.is_3d:
        mesh = Mesh3D(app.mesh_width, app.mesh_height, app.mesh_depth)
    else:
        mesh = Mesh(app.mesh_width, app.mesh_height)
    free_nodes = sorted(
        (node for node in mesh.nodes() if node != MEMORY_NODE),
        key=lambda node: (mesh.hop_distance(MEMORY_NODE, node), node),
    )
    order = sorted(
        range(len(app.cores)),
        key=lambda i: (-app.cores[i].bandwidth_weight, i),
    )
    core_nodes = {
        core_index: node for core_index, node in zip(order, free_nodes)
    }
    return Placement(mesh=mesh, memory_node=MEMORY_NODE, core_nodes=core_nodes)


def gss_router_order(placement: Placement) -> List[int]:
    """Routers in GSS-replacement order for the Fig. 8 sweep.

    The paper replaces conventional routers with GSS routers starting from
    the router closest to the memory subsystem and finishing with the
    farthest one.
    """
    mesh = placement.mesh
    return sorted(
        mesh.nodes(),
        key=lambda node: (mesh.hop_distance(placement.memory_node, node), node),
    )
