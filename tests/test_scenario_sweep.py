"""Tier-1 smoke sweep: the scenario matrix under full verification.

Every address runs end-to-end — plan, schedule, simulate (with churn
where the draw includes it) — with all cross-layer invariants, the
``FlowGraph.reevaluate`` differential oracle, and a double-run
determinism check. Any failure message ends with the exact
``python -m repro.testkit <family> <seed>`` command that replays it.

The extended many-seed sweep is ``python -m repro.exp run scenario-sweep
--size full`` (also the scheduled CI job).
"""

import json
from pathlib import Path

import pytest

from repro.scenarios import SCENARIO_FAMILIES, generate_scenario, scenario_matrix
from repro.testkit import (
    assert_scenario_ok,
    run_scenario,
    verify_scenario,
)
from repro.testkit.harness import ScenarioReport, verify_scenario_record
from repro.testkit.invariants import Violation

#: 6 seeds x 4 families = 24 addresses in tier-1 (acceptance: >= 20
#: scenarios across >= 3 families).
SMOKE_MATRIX = scenario_matrix(seeds=range(6))


@pytest.mark.scenario
@pytest.mark.parametrize(
    "family,seed,size",
    SMOKE_MATRIX,
    ids=[f"{family}-{seed}" for family, seed, size in SMOKE_MATRIX],
)
def test_scenario_invariants_hold(family, seed, size):
    report = verify_scenario(
        family, seed, size, determinism=True, flow_differential=True
    )
    assert_scenario_ok(report)


class TestSweepMachinery:
    def test_failure_message_carries_repro_command(self):
        scenario = generate_scenario("full_mesh", 0)
        report = ScenarioReport(scenario=scenario)
        report.violations.append(Violation("demo", "synthetic breach"))
        message = report.failure_message()
        assert "synthetic breach" in message
        assert scenario.repro_command() in message
        with pytest.raises(AssertionError, match="repro.testkit full_mesh 0"):
            assert_scenario_ok(report)

    def test_report_ok_when_no_violations(self):
        report = run_scenario(generate_scenario("star", 1))
        assert report.ok
        assert report.planned_throughput > 0
        assert report.metrics is not None
        assert report.fingerprint

    def test_churny_scenarios_present_in_matrix(self):
        # The matrix must actually exercise online dynamics: at least one
        # smoke address per sweep carries churn events.
        churny = [
            (family, seed)
            for family, seed, size in SMOKE_MATRIX
            if generate_scenario(family, seed, size).churn
        ]
        assert churny, "no smoke scenario draws a churn schedule"

    def test_matrix_spans_planners_and_schedulers(self):
        planners = set()
        schedulers = set()
        for family, seed, size in SMOKE_MATRIX:
            scenario = generate_scenario(family, seed, size)
            planners.add(scenario.planner_method)
            schedulers.add(scenario.scheduler_method)
        assert len(planners) >= 2
        assert len(schedulers) >= 3

    def test_cli_verifies_one_address(self, capsys):
        from repro.testkit.__main__ import main

        exit_code = main(["star", "1", "--skip-determinism"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "OK: every invariant and oracle held" in out

    def test_cli_rejects_unknown_family(self):
        from repro.testkit.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["moebius", "0"])
        assert excinfo.value.code == 2


#: The committed nightly sweep reports and the per-family telemetry each
#: row carries next to its fingerprint and counters.
_SWEEP_REPORTS = {
    "chaos": ("chaos_sweep.json", "disruption"),
    "elastic": ("elastic_sweep.json", "elasticity"),
    "tenant": ("tenant_sweep.json", "tenancy"),
}
_RESULTS_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


@pytest.mark.scenario
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family", sorted(_SWEEP_REPORTS))
def test_committed_sweep_rows_reproduce(family, seed):
    """Control-plane outcomes match the committed sweep report.

    ``coalescing=False`` shares the node-lifecycle code with the default
    path, so the fast-path differential cannot see a change there; the
    committed rows can. Regenerate the reports (``python -m repro.exp run
    <family>-sweep --seeds 25 --size full --output
    benchmarks/results/<family>_sweep.json``) only on purpose.
    """
    filename, section = _SWEEP_REPORTS[family]
    report = json.loads((_RESULTS_DIR / filename).read_text())
    (row,) = [
        r for r in report["results"]
        if r.get("family") == family and r.get("seed") == seed
    ]
    fresh = verify_scenario_record(
        family, seed, row["size"], determinism=False, flow_differential=False
    )
    # A JSON round trip turns tuples into lists, as in the report.
    fresh = json.loads(json.dumps(fresh))
    assert fresh["fingerprint"] == row["fingerprint"], fresh["repro"]
    assert fresh["counters"] == row["counters"]
    assert fresh[section] == row[section]
