"""End-to-end scenario execution with invariant and oracle checking.

:func:`run_scenario` plays one generated scenario through the full stack
— plan, schedule, simulate (applying any churn schedule) — collecting
:class:`~repro.testkit.invariants.Violation` objects instead of raising,
and fingerprints the run for determinism comparisons.
:func:`verify_scenario` is the sweep entry point: it generates the
scenario from its ``(family, seed, size)`` address, runs it (twice when
checking determinism — churn and serving mutate the cluster, so each run
gets a fresh generation), optionally cross-validates the incremental flow
evaluator, and folds everything into one :class:`ScenarioReport` whose
failure text always carries the one-line repro command.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
from dataclasses import dataclass, field, replace

from repro.bench.runner import make_planner, make_scheduler
from repro.core.errors import ReproError
from repro.core.placement_types import ModelPlacement
from repro.flow.graph import FlowGraph
from repro.online.autoscale import Autoscaler
from repro.online.controller import OnlineController
from repro.placement.base import PlannerResult
from repro.scenarios.generator import Scenario, generate_scenario
from repro.sim.metrics import (
    DisruptionReport,
    ServingMetrics,
    aggregate_tenant_metrics,
)
from repro.sim.simulator import Simulation
from repro.testkit.differential import check_reevaluate_vs_rebuild
from repro.testkit.invariants import (
    SchedulerAuditor,
    TenantKVSampler,
    Violation,
    check_chaos,
    check_elastic,
    check_planner_result,
    check_simulation,
    check_tenancy,
)

#: Planner fallback order when a scenario's suggested method cannot serve
#: its draw (heuristics are topology-blind and may legitimately fail).
_PLANNER_FALLBACKS = ("swarm", "petals", "sp+")


@dataclass
class ScenarioReport:
    """Everything one verified scenario run produced.

    Attributes:
        scenario: The (post-run, mutated) scenario object.
        planner_used: The placement method that actually served.
        planned_throughput: Max-flow value of the placement.
        metrics: Aggregate serving metrics of the run.
        disruption: Detection/recovery telemetry (MTTD, false positives,
            goodput recovery) — for detection-mode (chaos) and elastic
            runs.
        elasticity: Residency/drain/autoscaler telemetry — only for
            elastic runs (warm-up count/seconds/bytes, drains, scaling
            actions).
        tenancy: Multi-tenant telemetry — only for tenancy-enabled runs
            (per-tenant :class:`~repro.sim.metrics.TenantMetrics`, the
            end-of-run Jain fairness index, starvation/shed counts, and
            how many live KV-accounting samples the run survived).
        violations: Every invariant/oracle breach found (empty = pass).
        fingerprint: Digest of the run's observable outcome, stable
            across identical replays.
    """

    scenario: Scenario
    planner_used: str = "?"
    planned_throughput: float = 0.0
    metrics: ServingMetrics | None = None
    disruption: DisruptionReport | None = None
    elasticity: dict | None = None
    tenancy: dict | None = None
    violations: list[Violation] = field(default_factory=list)
    fingerprint: str = ""
    #: The simulation object itself (post-run). Kept so differential
    #: oracles can compare full engine observables across configurations
    #: the plain engine matrix cannot express (detection-mode chaos,
    #: elastic residency, tenancy).
    sim: Simulation | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        """Whether the run satisfied every checked invariant."""
        return not self.violations

    def failure_message(self) -> str:
        """Multi-line report ending with the one-line repro command."""
        lines = [self.scenario.describe()]
        lines += [f"  {v}" for v in self.violations]
        lines.append(f"  reproduce: {self.scenario.repro_command()}")
        return "\n".join(lines)


def _plan(scenario: Scenario) -> tuple[str, object, PlannerResult]:
    """Plan the scenario, falling back across heuristic methods.

    Elastic scenarios start with their spare pool out of service, so the
    initial plan goes on the *available* subcluster — exactly what a real
    deployment would see before the autoscaler loans anything in.
    """
    cluster = scenario.cluster
    if cluster.down_node_ids:
        cluster = cluster.subcluster()
    errors: list[str] = []
    tried = [scenario.planner_method] + [
        method for method in _PLANNER_FALLBACKS
        if method != scenario.planner_method
    ]
    for method in tried:
        try:
            planner = make_planner(method, cluster, scenario.model)
            result = planner.plan()
        except ReproError as exc:
            errors.append(f"{method}: {exc}")
            continue
        if result.max_throughput > 0:
            return method, planner, result
        errors.append(f"{method}: zero-throughput placement")
    raise ReproError(
        "no planner produced a servable placement for "
        f"{scenario.describe()} ({'; '.join(errors)}); "
        f"reproduce: {scenario.repro_command()}"
    )


def plan_scenario(scenario: Scenario) -> tuple[str, PlannerResult]:
    """Plan a scenario and return ``(method, result)`` without running it.

    The planner search is deterministic per address, so callers evaluating
    the *same* scenario under several scheduling policies (a policy-grid
    experiment) can plan once, serialize the placement intervals, and
    replay them through :func:`run_scenario`'s ``plan`` argument instead
    of re-running the search per policy cell.
    """
    method, _, result = _plan(scenario)
    return method, result


def placement_intervals(result: PlannerResult) -> dict[str, tuple[int, int]]:
    """The plain ``{node_id: (start, end)}`` form of a planned placement.

    This is the picklable currency of the experiment harness's per-process
    plan cache: intervals survive process boundaries and fresh scenario
    generations, unlike the planner/flow objects bound to one cluster
    instance.
    """
    return {
        node_id: (stage.start, stage.end)
        for node_id, stage in result.placement.assignments.items()
    }


def _plan_from_hint(
    scenario: Scenario, plan: tuple[str, dict[str, tuple[int, int]]]
) -> tuple[str, PlannerResult]:
    """Rebuild a planner result from cached ``(method, intervals)``.

    The max-flow solve is recomputed on the fresh cluster (cheap) so the
    result is bound to *this* generation — only the expensive placement
    search is skipped. Bit-identical to planning from scratch because the
    planners are deterministic per address.
    """
    method, intervals = plan
    cluster = scenario.cluster
    if cluster.down_node_ids:
        cluster = cluster.subcluster()
    placement = ModelPlacement.from_intervals(
        scenario.model.num_layers,
        {node_id: tuple(span) for node_id, span in intervals.items()},
    )
    flow = FlowGraph(cluster, scenario.model, placement).solve()
    return method, PlannerResult(
        planner_name=method, placement=placement, flow=flow
    )


def _fingerprint(sim: Simulation, metrics: ServingMetrics) -> str:
    """Digest of a run's observable outcome (exact, not rounded)."""
    payload = repr((
        metrics.requests_finished,
        metrics.requests_submitted,
        metrics.decode_tokens,
        metrics.decode_throughput,
        metrics.requests_retried,
        metrics.requests_migrated,
        metrics.requests_shed,
        metrics.requests_lost,
        sim.token_timeline,
    )).encode()
    return hashlib.sha256(payload).hexdigest()


def run_scenario(
    scenario: Scenario,
    coalescing: bool = True,
    plan: tuple[str, dict[str, tuple[int, int]]] | None = None,
) -> ScenarioReport:
    """Play one scenario end-to-end, collecting invariant violations.

    The scenario object is consumed: serving and churn mutate its cluster
    (availability, link bandwidths). Regenerate for a second run.

    Args:
        scenario: The generated scenario to serve.
        coalescing: ``Simulation(coalescing=...)``; ``False`` serves on
            the per-hop reference path. Every invariant must hold on both.
        plan: Cached ``(method, intervals)`` from an earlier
            :func:`plan_scenario` of the same address, to skip the
            placement search (policy-grid cells evaluate one plan under
            several schedulers).
    """
    report = ScenarioReport(scenario=scenario)
    planner = None
    try:
        if plan is not None:
            method, planner_result = _plan_from_hint(scenario, plan)
        else:
            method, planner, planner_result = _plan(scenario)
    except ReproError as exc:
        report.violations.append(Violation("planner_serves", str(exc)))
        return report
    report.planner_used = method
    report.planned_throughput = planner_result.max_throughput

    report.violations.extend(
        check_planner_result(
            planner_result, scenario.cluster, scenario.model,
            # SP relaxes the half-VRAM rule; bound it at its own fraction.
            max_weight_fraction=getattr(planner, "max_weight_fraction", None),
        )
    )

    scheduler = make_scheduler(
        scenario.scheduler_method,
        scenario.cluster,
        scenario.model,
        planner_result,
        seed=scenario.seed,
    )
    elastic = (
        scenario.residency is not None or scenario.autoscaler is not None
    )
    controller = None
    autoscaler = None
    if scenario.detection:
        # Chaos scenarios route churn through the online controller so
        # failures happen *silently* and only the failure detector's
        # confirmation masks the node (tier-1 flow rewrite; the slow
        # replanning path stays off to keep sweeps fast). debug_validate
        # re-validates the cluster after every applied event.
        controller = OnlineController(
            scenario.model,
            events=scenario.churn,
            replan=False,
            detection_mode=True,
        )
    elif elastic:
        # Elastic scenarios need the slow path (replanning folds loaned
        # spares in), but in the deterministic ``lns_rounds=0`` mode —
        # wall-clock-budgeted LNS would break fingerprint replay.
        if scenario.autoscaler is not None:
            autoscaler = Autoscaler(scenario.autoscaler, scenario.spares)
        controller = OnlineController(
            scenario.model,
            events=scenario.churn,
            replan=True,
            replan_lns_rounds=0,
            autoscaler=autoscaler,
        )
    sim = Simulation(
        cluster=scenario.cluster,
        model=scenario.model,
        placement=planner_result.placement,
        scheduler=scheduler,
        requests=scenario.requests,
        max_time=scenario.max_time,
        seed=scenario.seed,
        controller=controller,
        policy=scenario.policy,
        debug_validate=scenario.detection,
        residency=scenario.residency,
        tenancy=scenario.tenancy,
        coalescing=coalescing,
    )
    report.sim = sim
    auditor = SchedulerAuditor(scheduler, residency=sim.residency)
    kv_sampler = None
    if scenario.tenancy is not None:
        kv_sampler = TenantKVSampler()
        kv_sampler.install(sim)
    if controller is None:
        for event in scenario.churn:
            if event.time <= scenario.max_time:
                sim.schedule_event(
                    event.time, lambda s, ev=event: s.apply_event(ev)
                )

    metrics = sim.run()
    report.metrics = metrics
    if controller is not None:
        report.disruption = controller.report(sim)
    if elastic:
        residency = sim.residency
        report.elasticity = {
            "warmups": len(residency.warmup_log) if residency else 0,
            "warmup_seconds_total": (
                sum(r.duration for r in residency.warmup_log)
                if residency else 0.0
            ),
            "warmup_bytes_total": (
                sum(r.bytes_pulled for r in residency.warmup_log)
                if residency else 0
            ),
            "evictions": len(residency.eviction_log) if residency else 0,
            "drains": len(sim.drain_log),
            "autoscaler_actions": (
                list(autoscaler.actions) if autoscaler is not None else []
            ),
        }
    report.fingerprint = _fingerprint(sim, metrics)
    sim_violations = check_simulation(sim, metrics, planner_result.flow)
    if elastic:
        # Scale-up can add capacity beyond the *initial* plan, so the
        # goodput-vs-planned bound does not apply to elastic runs.
        sim_violations = [
            v for v in sim_violations if v.invariant != "goodput_le_planned"
        ]
    report.violations.extend(sim_violations)
    if elastic:
        report.violations.extend(check_elastic(sim, metrics))
    elif scenario.tenancy is not None:
        report.violations.extend(check_tenancy(sim, metrics))
    elif scenario.detection or scenario.policy is not None:
        report.violations.extend(check_chaos(sim, metrics))
    if scenario.tenancy is not None:
        manager = sim.tenancy
        registry = scenario.tenancy.registry
        end_time = max(min(sim.now, sim.max_time), sim.warmup + 1e-9)
        per_tenant = aggregate_tenant_metrics(
            sim.records,
            warmup=sim.warmup,
            end_time=end_time,
            slo_targets={
                spec.tenant_id: (
                    spec.slo.ttft_target,
                    spec.slo.tbt_target,
                    spec.slo.percentile,
                )
                for spec in registry
            },
        )
        report.tenancy = {
            "per_tenant": per_tenant,
            "fairness_index": manager.fairness_index(end_time),
            "starvation_events": len(manager.starvation_events),
            "shed_by_priority": dict(metrics.requests_shed_by_priority),
            "kv_samples": kv_sampler.samples if kv_sampler else 0,
        }
        if kv_sampler is not None:
            report.violations.extend(kv_sampler.violations)
    report.violations.extend(auditor.violations)
    if auditor.pipelines_audited == 0:
        report.violations.append(Violation(
            "pipelines_scheduled",
            "the run never scheduled a single pipeline",
        ))
    return report


def verify_scenario(
    family: str,
    seed: int,
    size: str = "smoke",
    determinism: bool = True,
    flow_differential: bool = True,
    coalescing: bool = True,
    scheduler: str | None = None,
    plan: tuple[str, dict[str, tuple[int, int]]] | None = None,
) -> ScenarioReport:
    """Generate, run, and cross-check the scenario at one address.

    Args:
        family: Topology family.
        seed: Scenario seed.
        size: Sweep tier (``"smoke"`` or ``"full"``).
        determinism: Replay the address a second time (fresh generation)
            and require a bit-identical outcome fingerprint.
        flow_differential: Cross-validate ``FlowGraph.reevaluate`` against
            fresh rebuilds on seeded random placements of this scenario.
        coalescing: Serve with coalescing on (the default) or on the
            per-hop reference path.
        scheduler: Scheduling-policy override (``None`` = the scenario's
            own draw) — policy-grid experiments sweep this axis.
        plan: Cached ``(method, intervals)`` plan hint, forwarded to
            :func:`run_scenario` on every (re)play.
    """
    def fresh() -> Scenario:
        scenario = generate_scenario(family, seed, size)
        if scheduler is not None:
            scenario = replace(scenario, scheduler_method=scheduler)
        return scenario

    report = run_scenario(fresh(), coalescing=coalescing, plan=plan)
    if flow_differential:
        # Fresh generation: the first run mutated the cluster.
        report.violations.extend(
            check_reevaluate_vs_rebuild(generate_scenario(family, seed, size))
        )
    if determinism:
        replay = run_scenario(fresh(), coalescing=coalescing, plan=plan)
        if replay.fingerprint != report.fingerprint:
            report.violations.append(Violation(
                "per_seed_determinism",
                "two runs of the same (family, seed, size) produced "
                f"different outcomes ({report.fingerprint[:12]} vs "
                f"{replay.fingerprint[:12]})",
            ))
    return report


def _finite(value: float | None) -> float | None:
    """NaN/inf -> ``None`` so records serialize as strict RFC-8259 JSON."""
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def verify_scenario_record(
    family: str,
    seed: int,
    size: str = "full",
    milp_oracles: bool = False,
    determinism: bool = True,
    flow_differential: bool = True,
    scheduler: str | None = None,
    plan: tuple[str, dict[str, tuple[int, int]]] | None = None,
) -> dict:
    """One sweep cell as a pure, picklable function returning plain JSON.

    This is the experiment harness's unit of work: everything the sweep
    aggregators consume (status, fingerprint, counters, per-family
    telemetry) lands in one JSON-serializable dict, and any crash inside
    the address is converted to a ``sweep_crash`` violation so a worker
    never takes the whole sweep down with it. Importable and callable at
    module top level — :mod:`multiprocessing` workers can pickle it.
    """
    from repro.testkit.differential import check_milp_oracles

    started = time.perf_counter()
    repro = (
        "PYTHONPATH=src python -m repro.testkit "
        f"{family} {seed} --size {size}"
    )
    record: dict = {
        "family": family,
        "seed": seed,
        "size": size,
        "planner": "?",
        "planned_throughput": 0.0,
        "fingerprint": "",
        "repro": repro,
    }
    if scheduler is not None:
        record["scheduler"] = scheduler
    try:
        report = verify_scenario(
            family, seed, size,
            determinism=determinism, flow_differential=flow_differential,
            scheduler=scheduler, plan=plan,
        )
        violations = list(report.violations)
        if milp_oracles:
            violations += check_milp_oracles(family, seed, size)
        record["planner"] = report.planner_used
        record["planned_throughput"] = report.planned_throughput
        record["fingerprint"] = report.fingerprint
        record["repro"] = report.scenario.repro_command()
        metrics = report.metrics
        if metrics is not None:
            record["counters"] = {
                "submitted": metrics.requests_submitted,
                "finished": metrics.requests_finished,
                "shed": metrics.requests_shed,
                "lost": metrics.requests_lost,
            }
            record["decode_throughput"] = _finite(metrics.decode_throughput)
        disruption = report.disruption
        if disruption is not None:
            record["disruption"] = {
                "mttd_mean_s": _finite(disruption.mttd_mean),
                "mttd_max_s": _finite(disruption.mttd_max),
                "mttr_s": _finite(disruption.mttr),
                "time_to_recovery_s": _finite(disruption.time_to_recovery),
                "recovery_ratio": _finite(disruption.recovery_ratio),
                "false_positives": disruption.false_positives,
            }
        if report.elasticity is not None:
            elasticity = dict(report.elasticity)
            elasticity["autoscaler_actions"] = [
                list(action) for action in elasticity["autoscaler_actions"]
            ]
            record["elasticity"] = elasticity
        if report.tenancy is not None:
            per_tenant = report.tenancy["per_tenant"]
            record["tenancy"] = {
                "tenants": len(per_tenant),
                "fairness_index": _finite(report.tenancy["fairness_index"]),
                "starvation_events": report.tenancy["starvation_events"],
                "shed_by_priority": {
                    str(priority): count
                    for priority, count
                    in report.tenancy["shed_by_priority"].items()
                },
                "kv_samples": report.tenancy["kv_samples"],
                "slo_pairs": len(per_tenant),
                "slo_met": sum(
                    1 for tm in per_tenant.values() if tm.slo_met
                ),
            }
    except Exception:  # noqa: BLE001 — a cell must never kill the sweep
        violations = [Violation(
            "sweep_crash",
            f"unhandled exception:\n{traceback.format_exc()}",
        )]
    record["ok"] = not violations
    if violations:
        record["violations"] = [
            {"invariant": v.invariant, "detail": v.detail}
            for v in violations
        ]
    record["seconds"] = round(time.perf_counter() - started, 3)
    return record


def assert_scenario_ok(report: ScenarioReport) -> None:
    """Raise ``AssertionError`` with the repro command on any violation."""
    if not report.ok:
        raise AssertionError(report.failure_message())
