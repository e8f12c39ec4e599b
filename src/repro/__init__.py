"""Application-aware NoC design for efficient SDRAM access.

Full-system cycle-level reproduction of W. Jang and D. Z. Pan,
"Application-Aware NoC Design for Efficient SDRAM Access" (DAC 2010 /
IEEE TCAD 30(10), 2011): the GSS (guaranteed SDRAM service) router, SAGM
(SDRAM access granularity matching), the SDRAM-aware baseline [4], and the
conventional MemMax/Databahn-style memory subsystem, over cycle-level DDR
I/II/III device models and a wormhole 2-D mesh NoC.

Quick start::

    from repro import SystemConfig, NocDesign, run_config

    config = SystemConfig(app="single_dtv", design=NocDesign.GSS_SAGM,
                          priority_enabled=True, cycles=20_000)
    metrics = run_config(config)
    print(metrics.utilization, metrics.latency_all, metrics.latency_demand)
"""

from ._lazy import lazy_exports

# Each public name loads its submodule on first use, so `import repro`
# loads no simulator layer and a run loads none of obs' exporters,
# resilience or the sweep orchestrator unless it asks for them.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".core.system": ("SocSystem", "build_system", "run_config"),
    ".obs": ("MemoryTracer", "MetricsRegistry", "NullTracer",
             "profile_run"),
    ".resilience": ("FaultConfig", "FaultInjector", "FaultSite",
                    "ScheduledFault"),
    ".sim.config": ("ConfigError", "DdrGeneration", "NocDesign",
                    "SystemConfig", "paper_configs"),
    ".sim.stats": ("RunMetrics",),
    ".sweep": ("Job", "ResultStore", "SweepSpec", "run_sweep"),
})

__version__ = "1.3.0"

__all__ = [
    "ConfigError",
    "DdrGeneration",
    "FaultConfig",
    "FaultInjector",
    "FaultSite",
    "Job",
    "MemoryTracer",
    "MetricsRegistry",
    "NocDesign",
    "NullTracer",
    "ResultStore",
    "RunMetrics",
    "ScheduledFault",
    "SocSystem",
    "SweepSpec",
    "SystemConfig",
    "build_system",
    "paper_configs",
    "profile_run",
    "run_config",
    "run_sweep",
    "__version__",
]
