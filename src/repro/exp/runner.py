"""The experiment runner: resumable, process-parallel manifest execution.

``run_experiment`` expands the spec's manifest, skips every cell whose
content hash already has a record in the store, and executes the rest —
inline for ``workers <= 1``, else on a :class:`ProcessPoolExecutor`.
Records are written the moment each cell completes, so killing the run at
any point loses at most the in-flight cells; a re-invocation picks up
exactly the missing ones. Results are aggregated in manifest order, so
the aggregate is identical regardless of worker count or completion
order.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.machine import machine_stamp
from repro.exp.aggregate import AGGREGATORS
from repro.exp.cells import CELL_KINDS
from repro.exp.spec import ExperimentSpec, RunCell
from repro.exp.store import DEFAULT_ROOT, RunStore, update_index


@dataclass
class RunReport:
    """What one ``run_experiment`` invocation did."""

    experiment: str
    total_cells: int
    executed: int
    skipped: int
    failures: int
    wall_seconds: float
    workers: int
    aggregate: dict
    machine: dict = field(default_factory=dict)
    failing_cells: list[dict] = field(default_factory=list)


def execute_cell(cell: RunCell) -> dict:
    """Run one cell in the current process (the worker entry point).

    Cell functions convert their own crashes to ``sweep_crash`` records;
    this wrapper is the last-resort net for cells that don't, so a bad
    cell fails its record instead of tearing down the worker pool.
    """
    params = cell.params_dict
    fn = CELL_KINDS[cell.kind]
    try:
        record = fn(params)
    except Exception:  # noqa: BLE001
        import traceback

        record = {
            "ok": False,
            "violations": [{
                "invariant": "sweep_crash",
                "detail": f"unhandled exception:\n{traceback.format_exc()}",
            }],
        }
    record.setdefault("ok", False)
    return {"kind": cell.kind, "params": params, **record}


def _progress(cell: RunCell, record: dict, done: int, total: int) -> None:
    status = "ok  " if record.get("ok") else "FAIL"
    seconds = record.get("seconds")
    timing = f" {seconds}s" if seconds is not None else ""
    print(f"{status} [{done}/{total}] {cell.label()}{timing}", flush=True)


def run_experiment(
    spec: ExperimentSpec,
    *,
    workers: int = 1,
    results_root: Path | str = DEFAULT_ROOT,
    force: bool = False,
    quiet: bool = False,
) -> RunReport:
    """Execute an experiment's manifest, resuming from completed cells.

    Args:
        spec: The experiment to run.
        workers: Process count; ``<= 1`` executes inline (no pool), which
            is also the fallback the determinism tests compare against.
        results_root: Store root (``benchmarks/results/exp`` by default).
        force: Re-execute every cell even if its record exists.
        quiet: Suppress per-cell progress lines.

    Returns:
        A :class:`RunReport`; ``report.aggregate`` is the experiment's
        headline document (also written to ``aggregate.json``).
    """
    started = time.perf_counter()
    store = RunStore(results_root, spec.name)
    manifest = spec.manifest()
    store.write_manifest(manifest)

    cells = spec.cells()
    completed = set() if force else store.completed_hashes()
    pending = [cell for cell in cells if cell.cell_hash not in completed]
    skipped = len(cells) - len(pending)
    total = len(cells)
    done = skipped

    if pending:
        if workers <= 1:
            for cell in pending:
                record = execute_cell(cell)
                store.write_record(cell.cell_hash, record)
                done += 1
                if not quiet:
                    _progress(cell, record, done, total)
        else:
            # Submit everything up front; write each record as its future
            # lands so a kill only ever loses in-flight cells.
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(execute_cell, cell): cell for cell in pending
                }
                remaining = set(futures)
                while remaining:
                    finished, remaining = wait(
                        remaining, return_when=FIRST_COMPLETED
                    )
                    for future in finished:
                        cell = futures[future]
                        record = future.result()
                        store.write_record(cell.cell_hash, record)
                        done += 1
                        if not quiet:
                            _progress(cell, record, done, total)

    # Aggregate from the store in manifest order: identical output no
    # matter how many workers ran or which invocation finished which cell.
    records = store.read_records(manifest)
    machine = machine_stamp(workers=workers)
    aggregator = AGGREGATORS[spec.aggregate]
    aggregate = aggregator(spec, records)
    aggregate["machine"] = machine
    store.write_aggregate(aggregate)
    store.write_csv(records)
    update_index(Path(results_root))

    failing = [r for r in records if not r.get("ok")]
    return RunReport(
        experiment=spec.name,
        total_cells=total,
        executed=len(pending),
        skipped=skipped,
        failures=len(failing),
        wall_seconds=round(time.perf_counter() - started, 3),
        workers=workers,
        aggregate=aggregate,
        machine=machine,
        failing_cells=[
            {
                "hash": r.get("hash"),
                "kind": r.get("kind"),
                "params": r.get("params"),
                "repro": r.get("repro"),
                "violations": r.get("violations", []),
            }
            for r in failing
        ],
    )
