"""The repository's benchmark: three serving-stack workloads, one command.

``python3 helixbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload through the public API of ``src/repro``
and prints its metrics. See ``helixbench/rationale.json`` for why each
workload and metric exists.
"""
