"""Deterministic RNG stream derivation.

Every stochastic component in the simulator draws from its own
:class:`random.Random` instance whose seed is *derived* from the single
``SystemConfig.seed`` — never from module-level ``random`` calls, whose
hidden global state would couple unrelated components and break
reproducibility.  This module is the one place seeds are turned into
streams:

* :func:`derive_seed` / :func:`derive_rng` — scope-labelled derivation for
  new consumers (fault injection sites, future stochastic models).  The
  mix is a SHA-256 digest of the root seed plus the scope labels, so
  streams are decoupled (adding draws to one site never perturbs another)
  and stable across Python versions and processes.
* :func:`core_rng` — the *frozen* legacy derivation the workload
  generators have always used.  It is kept bit-exact on purpose: golden
  waveforms and the recorded experiment numbers depend on this exact
  stream.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["core_rng", "derive_rng", "derive_seed"]


def derive_seed(root: int, *scope) -> int:
    """A 64-bit seed derived from ``root`` and the ``scope`` labels.

    The derivation is a cryptographic mix, so distinct scopes give
    statistically independent streams even for adjacent root seeds.
    """
    material = "|".join([str(int(root)), *map(str, scope)])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(root: int, *scope) -> random.Random:
    """A :class:`random.Random` stream for ``scope`` under ``root``.

    With no scope labels this is exactly ``random.Random(root)`` (the
    historical stream of seed-only consumers); with labels the seed is
    mixed through :func:`derive_seed`.
    """
    if not scope:
        return random.Random(root)
    return random.Random(derive_seed(root, *scope))


def core_rng(seed: int, master: int) -> random.Random:
    """The frozen per-core workload stream: ``Random((seed << 8) ^ master)``.

    Do not change this derivation — the paper-exhibit numbers recorded in
    EXPERIMENTS.md and the golden waveform tests are produced from it.
    """
    return random.Random((seed << 8) ^ master)
