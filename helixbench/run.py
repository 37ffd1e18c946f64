"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 helixbench/run.py --workload geo-azure --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; host-clock ones
are reported at a reference machine speed (see ``calibration.py``).
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics, the traced pass's own end-to-end numbers, and the
tracing overhead. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The command exits 1 when any
correctness check fails.

Files the benchmark writes (the span dumps of traced runs, the verify
store while it runs) live under ``.helixbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _format(value: float) -> str:
    return repr(float(value))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.core.machine import machine_stamp

    from helixbench.tracing import PER_LAYER
    from helixbench.workloads import END_TO_END, run_workload

    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        state_dir=ROOT / ".helixbench",
    )
    print(f"workload {result.workload}  seed {result.seed}  "
          f"passes {result.passes}  machine {json.dumps(machine_stamp())}")
    print(f"plan digest {result.digests['plan']}  "
          f"simulated-outcome digest {result.digests['sim']}")
    print(f"machine slowness {result.slowness:.4f} (host metrics are "
          "reported at the reference speed; net = wall time here)")
    for note in result.notes:
        print(note)
    traced = result.traced_end_to_end or {}
    for name, (unit, clock) in END_TO_END.items():
        line = (f"{name:<16} {_format(result.end_to_end[name]):>24} "
                f"{unit:<6} [{clock}]")
        if clock == "host":
            line += f"  net {_format(result.net_end_to_end[name])}"
        if name in traced:
            line += f"  traced {_format(traced[name])}"
        print(line)
    for name, value in result.outcomes.items():
        print(f"{name:<16} {_format(value):>24} (workload outcome, sim)")
    if result.per_layer is not None:
        for name, unit in PER_LAYER.items():
            print(f"{name:<34} {_format(result.per_layer[name]):>24} {unit}")
    for failure in result.failures:
        print(f"CHECK FAILED: {failure}")

    if result.per_layer is not None:
        metrics = {
            name: {"value": float(result.per_layer[name]), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": float(result.end_to_end[name]), "unit": unit}
            for name, (unit, _) in END_TO_END.items()
        }
    print(json.dumps({
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if not result.failures else 1


if __name__ == "__main__":
    sys.exit(main())
