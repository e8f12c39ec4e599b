"""Routing logics (Section IV-A).

The paper's experiments use deterministic XY routing — minimal,
deadlock-free, livelock-free — but note that "our GSS router can be
implemented to either deterministic or adaptive routers".  This module
provides both:

* :func:`xy_route` — dimension-ordered XY (the paper's configuration);
* :func:`admissible_ports` with ``RoutingPolicy.WEST_FIRST`` — minimal
  adaptive routing under the west-first turn model (Glass & Ni): westward
  movement must complete first, after which any minimal productive port is
  admissible, so the router can pick the least-congested one.  West-first
  prohibits the two turns into WEST, which breaks every cycle in the
  channel-dependency graph: deadlock-free; minimal: livelock-free.
"""

from __future__ import annotations

import enum
from typing import List, Tuple

from .topology import Mesh, Mesh3D, Port


class RoutingPolicy(enum.Enum):
    XY = "xy"
    WEST_FIRST = "west-first"


def xy_route(mesh, node: int, dst: int) -> Port:
    """Dimension-ordered route at ``node`` toward ``dst``.

    On a :class:`Mesh3D` this is XYZ routing: X, then Y, then Z — the same
    turn restrictions per plane, so equally deadlock/livelock free with
    the paper's p = 7 routers.
    """
    if node == dst:
        return Port.LOCAL
    if isinstance(mesh, Mesh3D):
        x, y, z = mesh.coordinates(node)
        dx, dy, dz = mesh.coordinates(dst)
        if x != dx:
            return Port.EAST if x < dx else Port.WEST
        if y != dy:
            return Port.SOUTH if y < dy else Port.NORTH
        return Port.DOWN if z < dz else Port.UP
    x, y = mesh.coordinates(node)
    dx, dy = mesh.coordinates(dst)
    if x < dx:
        return Port.EAST
    if x > dx:
        return Port.WEST
    return Port.SOUTH if y < dy else Port.NORTH


def admissible_ports(
    mesh: Mesh, node: int, dst: int, policy: RoutingPolicy = RoutingPolicy.XY
) -> List[Port]:
    """Minimal output ports a packet at ``node`` may take toward ``dst``.

    XY returns exactly one port; WEST_FIRST returns every minimal port the
    turn model admits (WEST exclusively while westward distance remains).
    """
    if node == dst:
        return [Port.LOCAL]
    if policy is RoutingPolicy.XY or isinstance(mesh, Mesh3D):
        # 3-D meshes use deterministic XYZ routing only.
        return [xy_route(mesh, node, dst)]
    x, y = mesh.coordinates(node)
    dx, dy = mesh.coordinates(dst)
    if dx < x:
        # West-first: all westward hops happen before anything else.
        return [Port.WEST]
    ports: List[Port] = []
    if dx > x:
        ports.append(Port.EAST)
    if dy > y:
        ports.append(Port.SOUTH)
    elif dy < y:
        ports.append(Port.NORTH)
    return ports


def build_route_table(
    mesh, node: int, policy: RoutingPolicy = RoutingPolicy.XY
) -> List[Tuple[Port, ...]]:
    """Admissible output ports from ``node`` to every destination, indexed
    by destination node id.

    Routing is static — it depends only on (mesh, node, dst, policy) — so
    routers precompute this table once and the per-packet hot path becomes
    a single list index instead of re-deriving coordinates and turn rules
    for every candidate every cycle.
    """
    return [
        tuple(admissible_ports(mesh, node, dst, policy))
        for dst in mesh.nodes()
    ]
