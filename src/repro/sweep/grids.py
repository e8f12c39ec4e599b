"""The one canonical grid left in :mod:`repro.sweep`: arbitrary
:class:`~repro.sim.config.SystemConfig` field grids (``repro sweep grid
--axis field=v1,v2 ...``).

The paper's exhibits enumerate their own jobs in
:mod:`repro.experiments` and resolve them through
:func:`~repro.sweep.orchestrator.run_sweep`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from .spec import SweepSpec


def config_grid_spec(
    base: Mapping[str, object],
    axes: Mapping[str, Iterable[object]],
    replicates: int = 1,
    root_seed: int = 2010,
    name: str = "grid",
) -> SweepSpec:
    """A grid over arbitrary :class:`SystemConfig` fields.

    ``base`` and ``axes`` hold constructor-level values (enums allowed);
    each assignment is resolved through :func:`experiment_config` into a
    complete configuration payload, so the cache key covers every field
    — including the ones the grid left at their defaults.
    """

    def resolve(params: Dict[str, object]) -> Mapping[str, object]:
        from ..experiments.runner import experiment_config
        from ..resilience.faults import FaultConfig
        from .runners import config_payload

        params = dict(params)
        # `fault_rate` is a pseudo-field: a nonzero rate expands to the
        # uniform mixed-fault profile, zero builds no resilience at all
        # (mirrors the `repro run --fault-rate` CLI semantics).
        rate = params.pop("fault_rate", 0.0)
        if rate:
            params["faults"] = FaultConfig.uniform(rate)
        return config_payload(experiment_config(**params))

    return SweepSpec(
        name=name,
        kind="metrics",
        base=dict(base),
        axes={axis: list(values) for axis, values in axes.items()},
        replicates=replicates,
        root_seed=root_seed,
        resolver=resolve,
    )

