"""The repository benchmark: four paper workloads, fingerprint-checked
simulator throughput, and per-layer spans taken from outside ``src/``.

Run from the repository root::

    python3 -m bench run                # every workload, 5 rounds + a traced round
    python3 -m bench run --workload conv_dual --seconds 25 --trace 0
    python3 -m bench compare base.json new.json
    python3 -m bench selftest

See ``bench/README.md`` for the workloads, metrics and noise floor.
"""
