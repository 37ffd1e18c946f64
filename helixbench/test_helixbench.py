"""Tests of the benchmark itself: smoke-sized workloads and its checkers."""

from __future__ import annotations

import gc
import math
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.core.placement_types import ModelPlacement  # noqa: E402
from repro.sim.metrics import RequestRecord  # noqa: E402

from helixbench import checks  # noqa: E402
from helixbench.calibration import SpeedProbe, timed_slice  # noqa: E402
from helixbench.tracing import PER_LAYER  # noqa: E402
from helixbench.workloads import END_TO_END, WORKLOADS, run_workload  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, tmp_path):
    result = run_workload(
        workload, seed=5, seconds=0.0, trace=True, state_dir=tmp_path,
        size="smoke",
    )
    assert result.failures == []
    assert result.attempted >= 1 and result.failed == 0
    for name in END_TO_END:
        assert math.isfinite(result.end_to_end[name]), name
        assert math.isfinite(result.traced_end_to_end[name]), name
    assert set(result.per_layer) == set(PER_LAYER)
    assert all(math.isfinite(v) for v in result.per_layer.values())
    # Simulated-clock metrics are identical with and without tracing.
    for name, (_, clock) in END_TO_END.items():
        if clock == "sim":
            assert result.traced_end_to_end[name] == result.end_to_end[name]
    assert (tmp_path / f"spans-{workload}-seed5.json").exists()


def _records(count: int) -> list[RequestRecord]:
    records = []
    for index in range(count):
        record = RequestRecord(f"r{index}", 8, 4, arrival_time=0.0)
        record.first_token_time = 1.0
        record.finish_time = 2.0
        record.tokens_generated = 4
        record.token_times = [1.0, 1.25, 1.5, 2.0]
        records.append(record)
    return records


def test_checker_rejects_dropped_request():
    records = _records(5)
    intact = checks.ServingOutcome.from_records("run", 5, records)
    assert checks.check_serving(intact) == []
    dropped = checks.ServingOutcome.from_records("run", 5, records[1:])
    assert checks.check_serving(dropped)
    assert checks.check_all_served(dropped)


def test_checker_rejects_missing_tokens():
    records = _records(3)
    records[0].tokens_generated = 3
    outcome = checks.ServingOutcome.from_records("run", 3, records)
    assert any("decode tokens" in f for f in checks.check_serving(outcome))


def test_checker_rejects_changed_plan_digest():
    placement = ModelPlacement.from_intervals(8, {"a": (0, 4), "b": (4, 8)})
    moved = ModelPlacement.from_intervals(8, {"a": (0, 5), "b": (5, 8)})
    plan = checks.plan_digest(placement, 1704.2)
    same = checks.plan_digest(placement, 1704.2)
    assert checks.check_same("plan", [plan, same]) == []
    assert checks.check_same("plan", [plan, checks.plan_digest(moved, 1704.2)])
    assert checks.check_same("plan", [plan, checks.plan_digest(placement, 1704.3)])


def test_speed_probe_is_independent_of_the_program_heap():
    """A probe slice runs no garbage collection and leaves the program's
    collection schedule where it was, however large the live heap."""
    live_heap = [(i, [i]) for i in range(200_000)]
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    # Start from an empty generation 0, so the test's own few allocations
    # cannot reach the collection threshold while it watches.
    gc.collect()
    gc.callbacks.append(record)
    try:
        for _ in range(20):
            before = gc.get_count()[0]
            timed_slice()
            # A handful of tracked objects (the count tuples themselves),
            # not one per heap entry.
            assert gc.get_count()[0] - before <= 8
        probe = SpeedProbe()
        with probe:
            deadline = time.perf_counter() + 0.3
            while time.perf_counter() < deadline:
                pass
    finally:
        gc.callbacks.remove(record)
    assert collections == []
    assert len(probe.durations) >= 2
    assert probe.slowness() > 0
    del live_heap


def test_checker_rejects_throughput_above_flow_bound():
    assert checks.check_flow_bound(100.0, 1704.2) == []
    assert checks.check_flow_bound(1800.0, 1704.2)
