"""Tests for the experiment orchestration harness (:mod:`repro.exp`).

The properties the perf trajectory depends on:

* manifests are deterministic and content hashes are order-independent;
* a killed sweep resumes — only missing cells execute, and the final
  aggregate is byte-identical to an uninterrupted serial run;
* worker count never changes results — ``--workers 1`` and
  ``--workers 8`` produce identical per-run fingerprints on a
  12-address mini-grid;
* a crashing cell becomes a ``sweep_crash`` record instead of killing
  the pool, and the aggregate counts it as a failure;
* the store's derived artifacts (runs.csv, index.json, machine stamp)
  are present and well-formed.
"""

from __future__ import annotations

import json

import pytest

from repro.exp import (
    CELL_KINDS,
    ExperimentSpec,
    RunCell,
    RunStore,
    get_experiment,
    run_experiment,
)
from repro.exp.experiments import scenario_sweep
from repro.exp.spec import _canonical

#: The 12-address mini-grid: 4 classic families x 3 seeds at smoke size.
MINI = scenario_sweep(seeds=3, size="smoke")


def _crashing_cell(params: dict) -> dict:
    raise RuntimeError("cell exploded")


def _marker_cell(params: dict) -> dict:
    return {"ok": True, "marker": params["marker"]}


class TestSpec:
    def test_manifest_is_deterministic(self):
        first = MINI.manifest()
        second = scenario_sweep(seeds=3, size="smoke").manifest()
        assert first == second
        assert first["total_cells"] == 12

    def test_grid_expands_in_declaration_order(self):
        cells = MINI.cells()
        params = [c.params_dict for c in cells]
        assert params[0]["family"] == "full_mesh"
        assert [p["seed"] for p in params[:3]] == [0, 1, 2]
        # Families iterate slower than seeds (axis declaration order).
        assert params[3]["family"] == "geo_regions"

    def test_cell_hash_is_param_order_independent(self):
        a = RunCell.make("verify", {"family": "star", "seed": 1, "size": "smoke"})
        b = RunCell.make("verify", {"size": "smoke", "seed": 1, "family": "star"})
        assert a.cell_hash == b.cell_hash

    def test_cell_hash_distinguishes_params_and_kind(self):
        base = RunCell.make("verify", {"family": "star", "seed": 1})
        other_seed = RunCell.make("verify", {"family": "star", "seed": 2})
        other_kind = RunCell.make("policy_eval", {"family": "star", "seed": 1})
        assert len({base.cell_hash, other_seed.cell_hash, other_kind.cell_hash}) == 3

    def test_canonical_rejects_non_json_params(self):
        with pytest.raises(TypeError):
            RunCell.make("verify", {"fn": object()})

    def test_every_registered_experiment_expands(self):
        from repro.exp.experiments import EXPERIMENTS

        for name in EXPERIMENTS:
            spec = get_experiment(name)
            manifest = spec.manifest()
            assert manifest["total_cells"] >= 1
            assert spec.kind in CELL_KINDS or not spec.grid
            for entry in manifest["cells"]:
                assert entry["kind"] in CELL_KINDS

    def test_gridless_spec_has_only_extra_cells(self):
        spec = get_experiment("bench-flow")
        cells = spec.cells()
        assert len(cells) == 1
        assert cells[0].params_dict == {"suite": "flow", "size": "full"}

    def test_get_experiment_applies_known_overrides_only(self):
        spec = get_experiment("chaos-sweep", seeds=2, diurnal_tier="small")
        assert len(spec.cells()) == 2
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("no-such-experiment")


class TestResume:
    def test_interrupted_run_resumes_and_matches_serial(self, tmp_path):
        """Kill-resume semantics: byte-identical aggregate, no redone cells."""
        serial_root = tmp_path / "serial"
        resumed_root = tmp_path / "resumed"

        uninterrupted = run_experiment(
            MINI, workers=1, results_root=serial_root, quiet=True
        )
        assert uninterrupted.executed == 12
        assert uninterrupted.failures == 0

        # Simulate a mid-run kill: a complete pass, then lose 5 records.
        run_experiment(MINI, workers=1, results_root=resumed_root, quiet=True)
        store = RunStore(resumed_root, MINI.name)
        victims = sorted(store.completed_hashes())[:5]
        for cell_hash in victims:
            store.run_path(cell_hash).unlink()

        resumed = run_experiment(
            MINI, workers=1, results_root=resumed_root, quiet=True
        )
        assert resumed.executed == 5
        assert resumed.skipped == 7

        serial_bytes = (
            serial_root / MINI.name / "aggregate.json"
        ).read_bytes()
        resumed_bytes = (
            resumed_root / MINI.name / "aggregate.json"
        ).read_bytes()
        assert serial_bytes == resumed_bytes

    def test_completed_run_is_a_noop(self, tmp_path):
        run_experiment(MINI, workers=1, results_root=tmp_path, quiet=True)
        again = run_experiment(
            MINI, workers=1, results_root=tmp_path, quiet=True
        )
        assert again.executed == 0
        assert again.skipped == 12

    def test_force_reexecutes_everything(self, tmp_path):
        run_experiment(MINI, workers=1, results_root=tmp_path, quiet=True)
        forced = run_experiment(
            MINI, workers=1, results_root=tmp_path, quiet=True, force=True
        )
        assert forced.executed == 12


class TestParallelDeterminism:
    def test_workers_1_vs_8_identical_fingerprints(self, tmp_path):
        """The satellite's contract: worker count never changes results."""
        serial = run_experiment(
            MINI, workers=1, results_root=tmp_path / "w1", quiet=True
        )
        parallel = run_experiment(
            MINI, workers=8, results_root=tmp_path / "w8", quiet=True
        )
        assert serial.failures == 0
        assert parallel.failures == 0

        manifest = MINI.manifest()
        fp1 = {
            r["hash"]: r["fingerprint"]
            for r in RunStore(tmp_path / "w1", MINI.name).read_records(manifest)
        }
        fp8 = {
            r["hash"]: r["fingerprint"]
            for r in RunStore(tmp_path / "w8", MINI.name).read_records(manifest)
        }
        assert len(fp1) == 12
        assert fp1 == fp8
        assert all(fp1.values())  # every cell produced a real fingerprint

        # And the aggregates agree modulo the recorded worker count.
        a1 = {**serial.aggregate, "machine": None}
        a8 = {**parallel.aggregate, "machine": None}
        assert a1 == a8


class TestFailureHandling:
    def test_crashing_cell_becomes_failed_record(self, tmp_path, monkeypatch):
        monkeypatch.setitem(CELL_KINDS, "boom", _crashing_cell)
        spec = ExperimentSpec.make(
            name="boom-test",
            description="crash handling",
            kind="boom",
            grid={"marker": [1, 2]},
        )
        report = run_experiment(
            spec, workers=1, results_root=tmp_path, quiet=True
        )
        assert report.failures == 2
        assert report.aggregate["failures"] == 2
        record = RunStore(tmp_path, "boom-test").read_records(spec.manifest())[0]
        assert record["ok"] is False
        assert "cell exploded" in record["violations"][0]["detail"]

    def test_sweep_crash_inside_verify_cell(self):
        record = CELL_KINDS["verify"](
            {"family": "no_such_family", "seed": 0, "size": "smoke"}
        )
        assert record["ok"] is False
        assert record["violations"][0]["invariant"] == "sweep_crash"


class TestStoreArtifacts:
    def test_csv_index_and_machine_stamp(self, tmp_path, monkeypatch):
        monkeypatch.setitem(CELL_KINDS, "marker", _marker_cell)
        spec = ExperimentSpec.make(
            name="marker-test",
            description="store artifacts",
            kind="marker",
            grid={"marker": ["a", "b", "c"]},
        )
        report = run_experiment(
            spec, workers=1, results_root=tmp_path, quiet=True
        )
        exp_dir = tmp_path / "marker-test"

        csv_text = (exp_dir / "runs.csv").read_text().splitlines()
        assert csv_text[0].startswith("hash,kind,")
        assert len(csv_text) == 4  # header + 3 records

        index = json.loads((tmp_path / "index.json").read_text())
        entry = index["experiments"]["marker-test"]
        assert entry["total_cells"] == 3
        assert entry["completed_cells"] == 3
        assert entry["aggregate"] == "marker-test/aggregate.json"

        machine = report.aggregate["machine"]
        assert machine["cpu_count"] >= 1
        assert machine["workers"] == 1
        assert machine["python"].count(".") == 2
        assert machine["cpu_model"]

    def test_perftracker_carries_machine_stamp(self):
        from repro.bench.perftrack import PerfTracker

        doc = PerfTracker(label="stamp-test").to_dict()
        assert doc["machine"]["cpu_count"] >= 1
        assert doc["machine"]["cpu_model"]

    def test_canonical_normalizes_tuples(self):
        assert _canonical((1, 2)) == [1, 2]
        assert _canonical({"b": (1,), "a": None}) == {"b": [1], "a": None}


class TestPolicyCells:
    def test_policy_eval_reuses_plan_and_records_scheduler(self):
        from repro.exp.cells import _PLAN_CACHE, policy_eval_cell

        _PLAN_CACHE.clear()
        first = policy_eval_cell({
            "family": "full_mesh", "seed": 0, "size": "smoke",
            "scheduler": "helix",
        })
        assert first["ok"], first.get("violations")
        assert first["scheduler"] == "helix"
        assert ("full_mesh", 0, "smoke") in _PLAN_CACHE

        second = policy_eval_cell({
            "family": "full_mesh", "seed": 0, "size": "smoke",
            "scheduler": "random",
        })
        assert second["ok"], second.get("violations")
        # Same address, same planner decision — only the policy differs.
        assert second["planner"] == first["planner"]


class TestCLI:
    def test_run_list_and_exit_codes(self, tmp_path, capsys):
        from repro.exp.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "scenario-sweep" in out

        code = main([
            "run", "chaos-sweep", "--seeds", "1", "--size", "smoke",
            "--results-dir", str(tmp_path), "--quiet",
            "--headline-out", str(tmp_path / "BENCH_chaos.json"),
        ])
        assert code == 0
        headline = json.loads((tmp_path / "BENCH_chaos.json").read_text())
        assert headline["bench"] == "chaos_sweep"
        assert set(headline) == {"bench", "size", "seeds", "derived", "machine"}

    def test_headline_out_rejected_without_headline(self, tmp_path, capsys):
        from repro.exp.__main__ import main

        code = main([
            "run", "scenario-sweep", "--seeds", "1", "--size", "smoke",
            "--families", "full_mesh",
            "--results-dir", str(tmp_path), "--quiet",
            "--headline-out", str(tmp_path / "nope.json"),
        ])
        assert code == 2


class TestPerfSuiteGates:
    """Full-size ``bench-*`` runs enforce the suite's gate table."""

    @pytest.fixture
    def slow_flow(self, monkeypatch):
        """Replace the flow suite with one that misses its headline."""
        from repro.bench import perftrack

        calls = []

        def fake_run(smoke=False, path=None):
            calls.append(smoke)
            return {
                "label": "flow-smoke" if smoke else "flow-full",
                "derived": {
                    "placement_eval_speedup": 4.0,
                    "kernel_reuse_speedup": 2.0,
                },
            }

        monkeypatch.setattr(perftrack, "run_flow_bench", fake_run)
        return calls

    def test_full_size_miss_fails_the_cell(self, slow_flow):
        from repro.exp.cells import perf_suite_cell

        record = perf_suite_cell({"suite": "flow", "size": "full"})
        assert slow_flow == [False]
        assert record["ok"] is False
        assert [v["invariant"] for v in record["violations"]] == ["perf_gate"]
        assert "placement_eval_speedup" in record["violations"][0]["detail"]

    def test_smoke_size_skips_the_full_gates(self, slow_flow):
        from repro.exp.cells import perf_suite_cell

        record = perf_suite_cell({"suite": "flow", "size": "smoke"})
        assert slow_flow == [True]
        assert record["ok"] is True
        assert record["label"] == "flow-smoke"
        assert record["violations"] == []

    def test_cli_exits_1_and_names_the_missed_metric(
        self, slow_flow, tmp_path, capsys
    ):
        from repro.exp.__main__ import main

        code = main([
            "run", "bench-flow", "--results-dir", str(tmp_path), "--quiet",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "perf_gate: placement_eval_speedup = 4.0" in out

    def test_size_smoke_runs_the_smoke_suite(self, tmp_path, monkeypatch):
        from repro.bench import perftrack
        from repro.exp.__main__ import main

        monkeypatch.setattr(perftrack, "REPO_ROOT", tmp_path)
        code = main([
            "run", "bench-flow", "--size", "smoke",
            "--results-dir", str(tmp_path / "exp"), "--quiet",
            "--output", str(tmp_path / "report.json"),
        ])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert [row["label"] for row in report["results"]] == ["flow-smoke"]
        # The smoke artifact lands beside, never on, the committed one.
        assert (tmp_path / "BENCH_flow.smoke.json").exists()
        assert not (tmp_path / "BENCH_flow.json").exists()
