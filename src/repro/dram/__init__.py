"""SDRAM substrate: devices, timing, controllers, and memory subsystems."""

from .address_map import AddressMap
from .bank import Bank, BankState, TimingViolation
from .bankreg import BankRegulatedScheduler
from .commands import CommandKind, DramCommand
from .controller import CommandEngine, FinishedRequest, PagePolicy, WindowEntry
from .device import BurstCompletion, SdramDevice
from .dpq import DpqScheduler, dpq_latency_bound, service_slot_cycles
from .memmax import MemMaxScheduler, ThreadQueue
from .protocol import ProtocolChecker, Violation, audit_engine
from .refresh import RefreshTimer
from .scheduler import (
    SCHEDULER_BACKENDS,
    Scheduler,
    register_scheduler,
    registered_backends,
    resolve_backend,
)
from .waveform import WaveformCapture, attach as attach_waveform
from .request import MemoryRequest, ServiceClass
from .subsystem import (
    DATABAHN_LOOKAHEAD,
    ConvMemorySubsystem,
    ThinMemorySubsystem,
    build_memory_subsystem,
    default_backend_for,
)
from .timing import GENERATION_TIMING, AnalogTiming, DramTiming

__all__ = [
    "AddressMap",
    "AnalogTiming",
    "Bank",
    "BankRegulatedScheduler",
    "BankState",
    "BurstCompletion",
    "CommandEngine",
    "CommandKind",
    "ConvMemorySubsystem",
    "DATABAHN_LOOKAHEAD",
    "DpqScheduler",
    "DramCommand",
    "DramTiming",
    "FinishedRequest",
    "GENERATION_TIMING",
    "MemMaxScheduler",
    "MemoryRequest",
    "PagePolicy",
    "ProtocolChecker",
    "RefreshTimer",
    "SCHEDULER_BACKENDS",
    "Scheduler",
    "Violation",
    "WaveformCapture",
    "SdramDevice",
    "ServiceClass",
    "ThinMemorySubsystem",
    "ThreadQueue",
    "TimingViolation",
    "WindowEntry",
    "attach_waveform",
    "audit_engine",
    "build_memory_subsystem",
    "default_backend_for",
    "dpq_latency_bound",
    "register_scheduler",
    "registered_backends",
    "resolve_backend",
    "service_slot_cycles",
]
