"""Tests for the perf-tracking harness (``repro.bench.perftrack``)."""

import json
import math

import pytest

from repro.bench.perftrack import (
    FLOW_GATES,
    MILP_GATES,
    ONLINE_GATES,
    PerfTracker,
    bench_cluster,
    candidate_placements,
    gate_violations,
    run_flow_bench,
    run_milp_bench,
)
from repro.models.specs import LLAMA_70B


class TestPerfTracker:
    def test_time_records_laps(self):
        tracker = PerfTracker(label="unit")
        timing = tracker.time("noop", lambda: None, repeats=3, tag="x")
        assert timing.repeats == 3
        assert timing.best_s <= timing.mean_s <= timing.total_s
        assert timing.meta == {"tag": "x"}
        assert tracker.timings == [timing]

    def test_time_rejects_zero_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            PerfTracker().time("noop", lambda: None, repeats=0)

    def test_speedup_and_write_roundtrip(self, tmp_path):
        tracker = PerfTracker(label="unit")
        slow = tracker.time("slow", lambda: sum(range(20_000)), repeats=2)
        fast = tracker.time("fast", lambda: None, repeats=2)
        ratio = tracker.speedup("ratio", slow, fast)
        assert ratio > 1.0
        path = tracker.write(tmp_path / "BENCH_unit.json")
        doc = json.loads(path.read_text())
        assert doc["label"] == "unit"
        assert doc["derived"]["ratio"] == pytest.approx(ratio)
        assert [t["name"] for t in doc["timings"]] == ["slow", "fast"]


#: Every full-size acceptance gate, pinned: (suite table, metric,
#: comparator, threshold).
FULL_GATES = [
    (FLOW_GATES, "placement_eval_speedup", ">=", 5.0),
    (FLOW_GATES, "kernel_reuse_speedup", ">", 1.0),
    (MILP_GATES, "milp_planner_speedup", ">=", 3.0),
    (MILP_GATES, "milp_planner_backend_parity", "<=", 1e-6),
    (MILP_GATES, "bnb_node_factor", ">", 1.0),
    (MILP_GATES, "milp_compile_speedup", ">", 1.0),
    (MILP_GATES, "milp_feascheck_speedup", ">", 1.0),
    (ONLINE_GATES, "online_recovery_ratio", ">=", 0.7),
    (ONLINE_GATES, "online_replan_wall_s", "<", 2.0),
    (ONLINE_GATES, "online_replan_count", ">=", 1),
    (ONLINE_GATES, "soak_replans_applied", ">=", 1),
    (ONLINE_GATES, "soak_churn_goodput", ">", 0),
]


class TestFullGates:
    def test_gate_tables_hold_exactly_the_pinned_targets(self):
        for table in (FLOW_GATES, MILP_GATES, ONLINE_GATES):
            pinned = {
                metric: (comparator, threshold)
                for owner, metric, comparator, threshold in FULL_GATES
                if owner is table
            }
            assert table == pinned

    @pytest.mark.parametrize(
        "table,metric,comparator,threshold", FULL_GATES,
        ids=[gate[1] for gate in FULL_GATES],
    )
    def test_gate_boundary(self, table, metric, comparator, threshold):
        passing = {
            name: (target + 1.0 if op.startswith(">") else target / 2)
            for name, (op, target) in table.items()
        }
        assert gate_violations(passing, table) == []

        def missed(value):
            violations = gate_violations({**passing, metric: value}, table)
            assert all(metric in v["detail"] for v in violations)
            return [v["invariant"] for v in violations]

        upward = comparator.startswith(">")
        inside = math.nextafter(threshold, math.inf if upward else -math.inf)
        outside = math.nextafter(threshold, -math.inf if upward else math.inf)
        strict = comparator in (">", "<")
        assert missed(threshold) == (["perf_gate"] if strict else [])
        assert missed(inside) == []
        assert missed(outside) == ["perf_gate"]

    def test_missing_or_nan_metric_is_a_violation(self):
        violations = gate_violations({}, FLOW_GATES)
        assert [v["detail"].split()[0] for v in violations] == list(FLOW_GATES)
        nan = gate_violations(
            {"placement_eval_speedup": math.nan, "kernel_reuse_speedup": 2.0},
            FLOW_GATES,
        )
        assert len(nan) == 1 and "placement_eval_speedup" in nan[0]["detail"]


class TestCandidateStream:
    def test_candidates_are_valid_and_distinct(self):
        cluster = bench_cluster(8)
        placements = candidate_placements(cluster, LLAMA_70B, 6, seed=3)
        assert len(placements) == 6
        for placement in placements:
            placement.validate()  # full layer coverage, bounds respected
        signatures = {
            tuple(sorted(
                (nid, s.start, s.end) for nid, s in p.assignments.items()
            ))
            for p in placements
        }
        assert len(signatures) > 1  # the stream actually moves nodes


@pytest.mark.perf
def test_milp_bench_smoke_writes_artifact(tmp_path):
    """Tier-1-safe smoke run of the MILP perf harness: tiny sizes, but the
    cross-checked scenarios and ``BENCH_milp.json`` generation path are
    exercised end to end."""
    path = tmp_path / "BENCH_milp.json"
    doc = run_milp_bench(smoke=True, path=path)
    assert path.exists()
    on_disk = json.loads(path.read_text())
    assert on_disk["derived"] == doc["derived"]
    # The incremental compile and vectorized feasibility check must not be
    # slower than the loops they replaced even at smoke sizes.
    assert doc["derived"]["milp_compile_speedup"] > 1.0
    assert doc["derived"]["milp_feascheck_speedup"] > 0.5
    assert doc["derived"]["bnb_node_factor"] > 0.0
    names = [t["name"] for t in doc["timings"]]
    assert "milp_compile_incremental" in names
    assert "bnb_plain" in names and "bnb_smart" in names


@pytest.mark.perf
def test_flow_bench_smoke_writes_artifact(tmp_path):
    """Tier-1-safe smoke run: tiny sizes, but the full harness and the
    ``BENCH_flow.json`` generation path are exercised end to end."""
    path = tmp_path / "BENCH_flow.json"
    doc = run_flow_bench(smoke=True, path=path)
    assert path.exists()
    on_disk = json.loads(path.read_text())
    assert on_disk["derived"] == doc["derived"]
    assert doc["derived"]["placement_eval_speedup"] > 1.0
    assert doc["derived"]["kernel_reuse_speedup"] > 0.0
    names = [t["name"] for t in doc["timings"]]
    assert "eval_rebuild_per_candidate" in names
    assert "eval_incremental" in names


@pytest.mark.perf
def test_sim_bench_smoke_writes_artifact(tmp_path):
    """Tier-1-safe smoke run of the simulator perf harness.

    Small tiers with a heuristic placement, but the flooded / Poisson /
    churn / diurnal scenarios, every reference engine, and the
    ``BENCH_sim.json`` generation path are exercised end to end. The
    flooded smoke tier must show the hop-table engine at >=2x the frozen
    baseline — far under the >=10x the full-size flood records, so CI
    noise cannot flake it.
    """
    from repro.bench.simbench import run_sim_bench

    path = tmp_path / "BENCH_sim.json"
    doc = run_sim_bench(smoke=True, path=path)
    assert path.exists()
    on_disk = json.loads(path.read_text())
    assert on_disk["derived"] == doc["derived"]
    assert doc["derived"]["sim_flooded_small_speedup"] >= 2.0
    assert doc["derived"]["sim_poisson_small_speedup"] > 1.0
    assert doc["derived"]["sim_churn_small_speedup"] > 1.0
    # The fast-forward headline gate: >=8.7x the per-hop reference
    # (``coalescing=False``) on the diurnal smoke tier, where closed
    # windows dominate and the vectorized steady-state fast-forward is
    # what's being measured. 8.7x is twice the 4.34x that scalar-only
    # fast-forwarding reached over per-hop on a 2-core box, so the gate
    # fails if the vectorized macro-stepping stops engaging.
    assert doc["derived"]["sim_diurnal_small_vs_per_hop"] >= 8.7
    assert doc["derived"]["sim_diurnal_small_span_days"] > 1.0
    names = [t["name"] for t in doc["timings"]]
    assert "sim_flooded_small_legacy" in names
    assert "sim_flooded_small_hop_table" in names
    assert "sim_diurnal_small_hop_table" in names
    assert "sim_diurnal_small_per_hop" in names
    # Telemetry proves the coalescing machinery actually engaged.
    hop_rows = [
        t for t in doc["timings"] if t["name"].endswith("_hop_table")
    ]
    assert any(row["meta"].get("grouped_hops", 0) > 0 for row in hop_rows)
    assert any(
        row["meta"].get("fast_forwarded_tokens", 0) > 0 for row in hop_rows
    )
    # ... and that the vectorized macro-stepping did the diurnal work.
    diurnal = next(
        t for t in doc["timings"] if t["name"] == "sim_diurnal_small_hop_table"
    )
    tokens = diurnal["meta"]["tokens"]
    assert diurnal["meta"]["vec_fast_forwarded_tokens"] > 0.5 * tokens
