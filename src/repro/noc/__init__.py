"""NoC substrate: topology, routing, buffering, routers, and interfaces."""

from .buffers import InputBuffer
from .flow_control import (
    Candidate,
    DualFlowController,
    FlowController,
    MemoryFlowController,
    PriorityFirstFlowController,
    RoundRobinFlowController,
)
from .interface import CoreInterface, MemoryInterface, TrafficGenerator
from .network import MeshNetwork
from .packet import Packet, PacketKind, flits_for_beats, request_packet, response_packet
from .router import ControllerFactory, OutputPort, Router
from .routing import RoutingPolicy, admissible_ports, route_path, xy_route
from .topology import Mesh, Mesh3D, Port

__all__ = [
    "Candidate",
    "ControllerFactory",
    "CoreInterface",
    "DualFlowController",
    "FlowController",
    "InputBuffer",
    "MemoryFlowController",
    "MemoryInterface",
    "Mesh",
    "Mesh3D",
    "MeshNetwork",
    "OutputPort",
    "Packet",
    "PacketKind",
    "Port",
    "PriorityFirstFlowController",
    "RoundRobinFlowController",
    "RoutingPolicy",
    "Router",
    "TrafficGenerator",
    "flits_for_beats",
    "request_packet",
    "response_packet",
    "admissible_ports",
    "route_path",
    "xy_route",
]
