"""Declarative sweep specification: parameter grids expanded into jobs.

A :class:`SweepSpec` names a grid — fixed ``base`` parameters plus
``axes`` that are crossed (full Cartesian product, in declaration
order) — and :meth:`SweepSpec.expand` turns it into a list of
:class:`Job` objects, each carrying the fully-resolved parameter
mapping the worker needs and nothing else.  The job's content-addressed
``key`` (see :mod:`repro.sweep.store`) is derived from exactly those
parameters, so any field change is a cache miss and no field change is
a re-run.

Seeds are deterministic by construction.  If a grid names ``seed`` (in
``base`` or as an axis) the explicit values pass through untouched.
Otherwise every job gets a seed derived with
:func:`repro.sim.rng.derive_seed` from the spec's ``root_seed``, the
spec name, the job's axis coordinates, and its replicate index:
decoupled streams, stable across processes, and independent of
expansion order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..sim.rng import derive_seed
from .store import canonical_json, job_key


@dataclass(frozen=True)
class Job:
    """One fully-resolved unit of sweep work.

    ``params`` must be canonically JSON-serializable (scalars, lists,
    nested dicts — no enums or dataclasses); :attr:`key` hashes it
    together with ``kind`` and the store schema version.
    """

    kind: str
    params: Mapping[str, object]
    label: str = ""

    def __post_init__(self) -> None:
        # Fail at construction, not at store time: params must encode
        # canonically or the content address is meaningless.
        canonical_json(dict(self.params))

    @property
    def key(self) -> str:
        return job_key(self.kind, self.params)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative parameter grid.

    ``resolver`` optionally maps each merged parameter assignment to
    the final job params — the hook grids use to expand a handful of
    swept fields into a complete, fully-resolved system configuration
    payload (defaults pinned, enums flattened) before hashing.
    """

    name: str
    kind: str = "metrics"
    base: Mapping[str, object] = field(default_factory=dict)
    axes: Mapping[str, Sequence[object]] = field(default_factory=dict)
    replicates: int = 1
    root_seed: int = 2010
    resolver: Optional[Callable[[Dict[str, object]], Mapping[str, object]]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("spec name must be non-empty")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        overlap = set(self.base) & set(self.axes)
        if overlap:
            raise ValueError(
                f"fields {sorted(overlap)} appear in both base and axes; "
                f"a swept field must not also be pinned"
            )
        for axis, values in self.axes.items():
            if not values:
                raise ValueError(f"axis {axis!r} has no values")
        if self.replicates > 1 and (
            "seed" in self.base or "seed" in self.axes
        ):
            raise ValueError(
                "replicates > 1 derives one seed per replicate; "
                "it cannot be combined with an explicit seed"
            )

    @property
    def size(self) -> int:
        total = self.replicates
        for values in self.axes.values():
            total *= len(values)
        return total

    def expand(self) -> List[Job]:
        """The grid's jobs: full cross product × replicates, in axis
        declaration order with replicates innermost."""
        axis_names = list(self.axes)
        jobs: List[Job] = []
        for combo in itertools.product(
            *(self.axes[name] for name in axis_names)
        ):
            assignment = dict(zip(axis_names, combo))
            coords = [f"{name}={assignment[name]}" for name in axis_names]
            for replicate in range(self.replicates):
                params: Dict[str, object] = {**self.base, **assignment}
                if "seed" not in params:
                    params["seed"] = derive_seed(
                        self.root_seed, "sweep", self.name, *coords, replicate
                    )
                label = ",".join(coords) if coords else self.name
                if self.replicates > 1:
                    label += f",rep={replicate}"
                if self.resolver is not None:
                    params = dict(self.resolver(params))
                jobs.append(Job(kind=self.kind, params=params, label=label))
        return jobs


def dedupe(jobs: Sequence[Job]) -> List[Job]:
    """Jobs with duplicate keys collapsed, first occurrence kept."""
    seen: Dict[str, None] = {}
    unique: List[Job] = []
    for job in jobs:
        if job.key not in seen:
            seen[job.key] = None
            unique.append(job)
    return unique
