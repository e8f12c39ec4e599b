"""XY routing tests: minimality, dimension order, livelock freedom."""

from hypothesis import given, strategies as st

from repro.noc.routing import xy_route
from repro.noc.topology import Mesh, Port


def test_local_delivery_at_destination():
    mesh = Mesh(3, 3)
    assert xy_route(mesh, 4, 4) is Port.LOCAL


def test_x_resolved_before_y():
    mesh = Mesh(3, 3)
    # from (0,0) to (2,2): move east first
    assert xy_route(mesh, 0, 8) is Port.EAST
    # from (2,0) to (2,2): x aligned, move south
    assert xy_route(mesh, 2, 8) is Port.SOUTH


def test_westward_and_northward():
    mesh = Mesh(3, 3)
    assert xy_route(mesh, 8, 0) is Port.WEST
    assert xy_route(mesh, 6, 0) is Port.NORTH


def xy_path(mesh, src, dst):
    """The nodes a packet visits from ``src`` to ``dst``, following
    ``xy_route`` one hop at a time."""
    path = [src]
    while path[-1] != dst:
        nxt = mesh.neighbor(path[-1], xy_route(mesh, path[-1], dst))
        assert nxt is not None
        path.append(nxt)
        assert len(path) <= mesh.num_nodes
    return path


@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_paths_are_minimal(width, height, data):
    mesh = Mesh(width, height)
    src = data.draw(st.integers(0, mesh.num_nodes - 1))
    dst = data.draw(st.integers(0, mesh.num_nodes - 1))
    path = xy_path(mesh, src, dst)
    assert path[0] == src and path[-1] == dst
    assert len(path) - 1 == mesh.hop_distance(src, dst)


@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_every_hop_reduces_distance(width, height, data):
    """Livelock freedom: each hop strictly approaches the destination."""
    mesh = Mesh(width, height)
    src = data.draw(st.integers(0, mesh.num_nodes - 1))
    dst = data.draw(st.integers(0, mesh.num_nodes - 1))
    path = xy_path(mesh, src, dst)
    for here, there in zip(path, path[1:]):
        assert mesh.hop_distance(there, dst) == mesh.hop_distance(here, dst) - 1
