"""Differential oracles: fast paths must agree with their reference paths.

PRs 1-3 added incremental machinery whose only specification is "same
answer as the slow path": :meth:`FlowGraph.reevaluate` vs. a fresh graph
rebuild, incremental :meth:`MilpProblem.compile` vs. a cold compile, the
bounds-tightening LNS vs. ``lns_mode="rebuild"``, and the ``bnb`` vs.
``highs`` MILP backends. Each checker here runs both paths on material
derived from one generated scenario and returns :class:`Violation` lists,
so a sweep cross-validates the whole stack instead of spot-checking
hand-written fixtures.
"""

from __future__ import annotations

import random

import numpy as np

from repro.core.errors import PlacementError
from repro.core.placement_types import ModelPlacement
from repro.flow.graph import FlowGraph
from repro.milp.branch_and_bound import BranchAndBoundSolver
from repro.milp.scipy_backend import solve_with_highs
from repro.placement.helix_milp import HelixMilpPlanner
from repro.scenarios.generator import Scenario, _small_model
from repro.testkit.invariants import Violation

#: Nodes kept when a check shrinks a scenario cluster to bound MILP cost.
_MILP_NODE_CAP = 4


def _rng(scenario: Scenario, salt: str) -> random.Random:
    """A derived generator: deterministic per (scenario address, check)."""
    return random.Random(
        f"testkit:{salt}:{scenario.family}:{scenario.seed}:{scenario.size}"
    )


def _milp_material(scenario: Scenario):
    """A bounded (cluster, model) pair for MILP-backed checks.

    MILP differential oracles must terminate quickly on every address in
    a sweep, so they run on at most :data:`_MILP_NODE_CAP` nodes of the
    scenario's topology and always on the small model shape (the wide
    shapes are exercised by the flow-layer checks, which are cheap).
    """
    cluster = scenario.cluster
    if len(cluster) > _MILP_NODE_CAP:
        cluster = cluster.subcluster(
            cluster.node_ids[:_MILP_NODE_CAP],
            name=f"{cluster.name}-milp",
        )
    model = _small_model(_rng(scenario, "milp-model"))
    return cluster, model


# ----------------------------------------------------------------------
# Flow layer: reevaluate vs. rebuild
# ----------------------------------------------------------------------
def random_placements(
    scenario: Scenario, count: int = 12
) -> list[ModelPlacement]:
    """Seeded random placements on the scenario's cluster.

    Placements always pin a first-layer and a last-layer holder (so the
    flow graph accepts them) but are otherwise unconstrained — partial
    covers and zero-flow configurations are deliberately included, since
    the incremental evaluator must agree with the rebuild on those too.
    """
    rng = _rng(scenario, "placements")
    cluster = scenario.cluster
    model = scenario.model
    node_ids = list(cluster.node_ids)
    helper = _bounds_helper(scenario)
    bounds = {nid: max(1, helper[nid]) for nid in node_ids}
    num_layers = model.num_layers

    placements = []
    for _ in range(count):
        intervals: dict[str, tuple[int, int]] = {}
        for nid in node_ids:
            if rng.random() < 0.25:
                continue  # node sits out this placement
            span = rng.randint(1, min(bounds[nid], num_layers))
            start = rng.randrange(num_layers - span + 1)
            intervals[nid] = (start, start + span)
        # Pin entry and exit holders so the placement is graph-admissible.
        first = rng.choice(node_ids)
        span = rng.randint(1, min(bounds[first], num_layers))
        intervals[first] = (0, span)
        last = rng.choice(node_ids)
        span = rng.randint(1, min(bounds[last], num_layers))
        intervals[last] = (num_layers - span, num_layers)
        placements.append(ModelPlacement.from_intervals(num_layers, intervals))
    return placements


def _bounds_helper(scenario: Scenario) -> dict[str, int]:
    from repro.cluster.profiler import Profiler

    profiler = Profiler()
    return {
        nid: min(
            profiler.max_layers(scenario.cluster.node(nid), scenario.model),
            scenario.model.num_layers,
        )
        for nid in scenario.cluster.node_ids
    }


def check_reevaluate_vs_rebuild(
    scenario: Scenario, count: int = 12
) -> list[Violation]:
    """`FlowGraph.reevaluate` must match a from-scratch rebuild exactly."""
    violations: list[Violation] = []
    placements = random_placements(scenario, count)
    evaluator: FlowGraph | None = None
    for index, placement in enumerate(placements):
        try:
            fresh = FlowGraph(
                scenario.cluster, scenario.model, placement
            ).solve()
        except PlacementError:
            # The rebuild rejects it; the incremental path must agree.
            if evaluator is not None:
                try:
                    evaluator.reevaluate(placement)
                except PlacementError:
                    pass
                else:
                    violations.append(Violation(
                        "reevaluate_vs_rebuild",
                        f"placement #{index}: rebuild rejected the "
                        "placement but reevaluate accepted it",
                    ))
            continue
        if evaluator is None:
            evaluator = FlowGraph(
                scenario.cluster, scenario.model, placement
            )
            incremental = evaluator.solve()
        else:
            try:
                incremental = evaluator.reevaluate(placement)
            except PlacementError as exc:
                violations.append(Violation(
                    "reevaluate_vs_rebuild",
                    f"placement #{index}: rebuild accepted the placement "
                    f"but reevaluate rejected it ({exc})",
                ))
                continue
        scale = max(1.0, abs(fresh.max_flow))
        if abs(incremental.max_flow - fresh.max_flow) > 1e-6 * scale:
            violations.append(Violation(
                "reevaluate_vs_rebuild",
                f"placement #{index}: incremental max flow "
                f"{incremental.max_flow} != rebuild {fresh.max_flow}",
            ))
        for key, value in fresh.connection_flows.items():
            other = incremental.connection_flows.get(key)
            if other is None:
                violations.append(Violation(
                    "reevaluate_vs_rebuild",
                    f"placement #{index}: connection {key} missing from "
                    "the incremental solution",
                ))
            # Per-connection flows may legitimately differ between two
            # optimal solutions; only the valid-connection *sets* and the
            # value must agree, checked above and here.
    return violations


# ----------------------------------------------------------------------
# MILP layer: backend agreement
# ----------------------------------------------------------------------
def check_backend_agreement(
    scenario: Scenario,
    time_limit: float = 20.0,
) -> list[Violation]:
    """The ``bnb`` and ``highs`` backends must find equal optima.

    Solves the Helix formulation of a bounded slice of the scenario's
    cluster to (near-)optimality with both backends and compares
    objectives.
    """
    cluster, model = _milp_material(scenario)
    planner = HelixMilpPlanner(cluster, model)
    formulation = planner.build_formulation()
    highs = solve_with_highs(formulation.problem, time_limit=time_limit)
    bnb = BranchAndBoundSolver(
        formulation.problem, time_limit=2 * time_limit, gap_tolerance=1e-6
    ).solve()
    violations: list[Violation] = []
    if not highs.status.has_solution or not bnb.status.has_solution:
        violations.append(Violation(
            "backend_agreement",
            f"missing solution: highs={highs.status.value} "
            f"bnb={bnb.status.value}",
        ))
        return violations
    scale = max(1.0, abs(highs.objective))
    if abs(highs.objective - bnb.objective) > 1e-5 * scale:
        violations.append(Violation(
            "backend_agreement",
            f"objectives disagree: highs={highs.objective} "
            f"bnb={bnb.objective}",
        ))
    return violations


# ----------------------------------------------------------------------
# MILP layer: incremental LNS vs. rebuild LNS
# ----------------------------------------------------------------------
def check_lns_modes_agree(
    scenario: Scenario,
    rounds: int = 3,
    time_limit: float = 5.0,
) -> list[Violation]:
    """Bounds-tightening LNS must match the rebuild-mode reference.

    Both planners run the same seeded window sequence (``lns_window=2``
    keeps the effective window identical across modes) from the same
    warm start, so their final throughputs must agree.
    """
    cluster, model = _milp_material(scenario)
    results = {}
    for mode in ("incremental", "rebuild"):
        planner = HelixMilpPlanner(
            cluster, model,
            time_limit=time_limit,
            lns_rounds=rounds,
            lns_window=2,
            lns_time_limit=time_limit,
            lns_mode=mode,
            lns_seed=scenario.seed,
        )
        results[mode] = planner.plan().max_throughput
    scale = max(1.0, abs(results["rebuild"]))
    if abs(results["incremental"] - results["rebuild"]) > 1e-5 * scale:
        return [Violation(
            "lns_modes_agree",
            f"incremental LNS throughput {results['incremental']} != "
            f"rebuild {results['rebuild']}",
        )]
    return []


# ----------------------------------------------------------------------
# MILP layer: incremental compile vs. cold compile
# ----------------------------------------------------------------------
def check_incremental_compile(scenario: Scenario) -> list[Violation]:
    """Append/truncate compiles must equal an invalidated cold compile."""
    cluster, model = _milp_material(scenario)
    planner = HelixMilpPlanner(cluster, model)
    formulation = planner.build_formulation()
    problem = formulation.problem

    violations: list[Violation] = []

    def compare(tag: str) -> None:
        warm = problem.compile()
        problem.invalidate()
        cold = problem.compile()
        if not np.array_equal(
            warm.a_matrix.toarray(), cold.a_matrix.toarray()
        ):
            violations.append(Violation(
                "incremental_compile",
                f"{tag}: constraint matrices diverge between incremental "
                "and cold compile",
            ))
        for name in ("c", "constraint_lower", "constraint_upper",
                     "lower", "upper", "integrality"):
            if not np.array_equal(getattr(warm, name), getattr(cold, name)):
                violations.append(Violation(
                    "incremental_compile",
                    f"{tag}: array {name!r} diverges between incremental "
                    "and cold compile",
                ))

    problem.compile()  # prime the cache
    some_var = problem.variables[0]
    base_len = len(problem.constraints)
    problem.add_constraint(some_var <= some_var.upper, name="testkit_append")
    compare("append")
    del problem.constraints[base_len:]
    compare("truncate")
    return violations


def check_milp_oracles(
    family: str, seed: int, size: str = "smoke"
) -> list[Violation]:
    """All MILP differential oracles for one scenario address.

    Each check gets a freshly-generated scenario (planning mutates
    nothing, but the oracles must not share evaluator state), so this is
    the one entry point the CLI and the extended sweep both use.
    """
    from repro.scenarios.generator import generate_scenario

    violations: list[Violation] = []
    for check in (
        check_backend_agreement,
        check_lns_modes_agree,
        check_incremental_compile,
    ):
        violations.extend(check(generate_scenario(family, seed, size)))
    return violations


# ----------------------------------------------------------------------
# Simulation engines: fast paths vs. per-hop vs. the frozen baseline
# ----------------------------------------------------------------------
def _nan_equal(a: float, b: float) -> bool:
    """Exact float equality with NaN == NaN (unset timestamps)."""
    return a == b or (a != a and b != b)


def _run_engine(family: str, seed: int, size: str, engine: str):
    """Plan and serve one freshly-generated scenario on one engine.

    ``engine`` is ``"legacy"`` (the frozen pre-overhaul loop),
    ``"default"`` (the current engine), or ``"perhop"`` (the current
    engine with coalescing disabled — one heap event per hop). Every
    engine gets its own generation: serving and churn mutate the
    cluster, and schedulers are stateful.
    """
    from repro.bench.runner import make_planner, make_scheduler
    from repro.core.errors import ReproError
    from repro.scenarios.generator import generate_scenario
    from repro.sim._legacy_reference import LegacySimulation
    from repro.sim.simulator import Simulation

    scenario = generate_scenario(family, seed, size)
    tried = [scenario.planner_method] + [
        method for method in ("swarm", "petals", "sp+")
        if method != scenario.planner_method
    ]
    planner = result = None
    for method in tried:
        try:
            planner = make_planner(method, scenario.cluster, scenario.model)
            result = planner.plan()
        except ReproError:
            continue
        if result.max_throughput > 0:
            break
    else:  # pragma: no cover - harness guarantees a planner serves
        raise ReproError(f"no planner serves {scenario.describe()}")
    scheduler = make_scheduler(
        scenario.scheduler_method, scenario.cluster, scenario.model,
        result, seed=scenario.seed,
    )
    kwargs = {}
    if engine == "legacy":
        sim_cls = LegacySimulation
    else:
        sim_cls = Simulation
        if engine == "perhop":
            kwargs["coalescing"] = False
    sim = sim_cls(
        cluster=scenario.cluster,
        model=scenario.model,
        placement=result.placement,
        scheduler=scheduler,
        requests=scenario.requests,
        max_time=scenario.max_time,
        seed=scenario.seed,
        **kwargs,
    )
    for event in scenario.churn:
        if event.time <= scenario.max_time:
            sim.schedule_event(event.time, event.apply)
    metrics = sim.run()
    return sim, metrics


def _engine_observables(sim, metrics) -> dict:
    """Every externally-visible quantity an engine run produces."""
    from repro.sim.metrics import TokenTimeline

    records = {}
    for record in sim.records:
        records[record.request_id] = (
            record.tokens_generated,
            tuple(record.token_times),
            record.arrival_time,
            record.schedule_time,
            record.first_token_time,
            record.finish_time,
            record.retries,
            record.migrations,
            record.tokens_lost,
        )
    pools = {
        node_id: (pool.used_tokens, pool.peak_tokens, pool.overflow_events)
        for node_id, pool in sim.kv_pools.items()
    }
    executors = {
        node_id: (
            executor.stats.batches,
            executor.stats.busy_time,
            executor.stats.token_layers,
            executor.stats.tokens,
        )
        for node_id, executor in sim.executors.items()
    }
    channels = {
        key: (
            channel.messages_sent,
            channel.bytes_sent,
            channel.next_free_time,
            channel.total_queueing_delay,
            channel.max_queueing_delay,
        )
        for key, channel in sim.channels.items()
    }
    # The legacy engine keeps exact token times; fold them into the new
    # engine's bucket layout so the timelines compare like for like.
    if hasattr(sim, "token_buckets"):
        buckets = sim.token_buckets
    else:
        timeline = TokenTimeline()
        for when in sim.token_timeline:
            timeline.add(when)
        buckets = timeline.bucket_counts()
    while buckets and buckets[-1] == 0:
        buckets.pop()
    tenancy = None
    manager = getattr(sim, "tenancy", None)
    if manager is not None:
        tenancy = {
            "tokens_by_tenant": dict(manager.tokens_by_tenant),
            "starvation_events": len(manager.starvation_events),
        }
    return {
        "records": records,
        "pools": pools,
        "executors": executors,
        "channels": channels,
        "buckets": buckets,
        "metrics": metrics,
        "now": sim.now,
        "tenancy": tenancy,
    }


def _compare_observables(tag: str, ours: dict, reference: dict) -> list[Violation]:
    """Exact comparison of two engines' observables (NaN-tolerant)."""
    violations: list[Violation] = []

    def flag(what: str, detail: str) -> None:
        violations.append(Violation(
            "sim_engine_equivalence", f"[{tag}] {what}: {detail}"
        ))

    for name in ("records", "pools", "executors", "channels"):
        a, b = ours[name], reference[name]
        if set(a) != set(b):
            flag(name, f"key sets differ: {set(a) ^ set(b)}")
            continue
        for key in a:
            row_a, row_b = a[key], b[key]
            same = len(row_a) == len(row_b) and all(
                x == y or (isinstance(x, float) and isinstance(y, float)
                           and _nan_equal(x, y))
                for x, y in zip(row_a, row_b)
            )
            if not same:
                flag(name, f"{key!r}: {row_a} != {row_b}")
    if ours["buckets"] != reference["buckets"]:
        flag("token_timeline", "bucket counts differ")
    if ours.get("tenancy") != reference.get("tenancy"):
        flag(
            "tenancy",
            f"{ours.get('tenancy')} != {reference.get('tenancy')}",
        )
    if not _nan_equal(ours["now"], reference["now"]):
        flag("now", f"{ours['now']} != {reference['now']}")
    m_a, m_b = ours["metrics"], reference["metrics"]
    for field_name in (
        "decode_throughput", "requests_finished", "requests_submitted",
        "duration", "decode_tokens", "kv_overflow_events",
        "avg_pipeline_depth", "requests_retried", "requests_migrated",
        "tokens_lost",
    ):
        if not _nan_equal(
            float(getattr(m_a, field_name)), float(getattr(m_b, field_name))
        ):
            flag("metrics", f"{field_name}: {getattr(m_a, field_name)} != "
                            f"{getattr(m_b, field_name)}")
    for dist in ("prompt_latency", "decode_latency"):
        stats_a, stats_b = getattr(m_a, dist), getattr(m_b, dist)
        for q in ("count", "mean", "p5", "p25", "p50", "p75", "p95"):
            if not _nan_equal(
                float(getattr(stats_a, q)), float(getattr(stats_b, q))
            ):
                flag("metrics", f"{dist}.{q}: {getattr(stats_a, q)} != "
                                f"{getattr(stats_b, q)}")
    return violations


def check_sim_engines(
    family: str, seed: int, size: str = "smoke"
) -> list[Violation]:
    """The simulator-overhaul differential oracle for one address.

    Replays the scenario through the frozen pre-overhaul engine, the
    current engine, and the current engine with coalescing disabled, and
    requires *exactly* equal observables — per-request token times,
    serving metrics, KV pools, executor utilization, and per-channel
    network statistics. This is the guarantee behind the overhaul: hop
    groups, the vectorized cohorts, and the closed-window fast-forward
    change wall-clock speed and nothing else.
    """
    legacy = _engine_observables(*_run_engine(family, seed, size, "legacy"))
    default = _engine_observables(*_run_engine(family, seed, size, "default"))
    perhop = _engine_observables(*_run_engine(family, seed, size, "perhop"))
    violations = _compare_observables("default-vs-legacy", default, legacy)
    violations.extend(_compare_observables("perhop-vs-legacy", perhop, legacy))
    return violations


def check_fast_paths(
    family: str, seed: int, size: str = "smoke"
) -> list[Violation]:
    """Fast-path differential for full-config scenario addresses.

    The plain engine matrix (:func:`check_sim_engines`) serves requests
    and raw churn only; this oracle replays one address through the
    *complete* harness configuration — detection-mode chaos controllers,
    elastic residency and autoscaling, tenancy with fair queueing and
    admission — with coalescing on (the default) and off (the per-hop
    reference), and requires exactly equal observables (per-tenant token
    accounting included). Works for every family in
    :data:`repro.scenarios.generator.ALL_FAMILIES`; the chaos / elastic /
    tenant families are the ones only this oracle covers.
    """
    # Imported lazily: the harness imports this module at load time.
    from repro.scenarios.generator import generate_scenario
    from repro.testkit.harness import run_scenario

    runs = {}
    violations: list[Violation] = []
    for label, coalescing in (("default", True), ("perhop", False)):
        report = run_scenario(
            generate_scenario(family, seed, size), coalescing=coalescing
        )
        for violation in report.violations:
            violations.append(Violation(
                violation.invariant, f"[{label}] {violation.detail}",
            ))
        runs[label] = _engine_observables(report.sim, report.metrics)
    violations.extend(_compare_observables(
        "default-vs-perhop", runs["default"], runs["perhop"]
    ))
    return violations
