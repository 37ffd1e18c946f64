"""The simulator's batch-level fast paths must match per-hop stepping.

The default engine advances same-channel decode cohorts with vectorized
folds, fast-forwards closed windows while other requests are parked,
and macro-steps whole decode rounds through the vectorized steady-state
fast-forward. All of it is specified as *speed only*: these tests replay
scenarios with coalescing on (the default) and off (``coalescing=False``,
one heap event per hop) and require exactly equal observables, including
the full-config families the plain engine matrix cannot express
(detection-mode chaos, elastic residency, tenancy).

``tests/test_sim_equivalence.py`` covers the classic 24-address
legacy / default / per-hop matrix via ``check_sim_engines``.
"""

import pytest

from repro.cluster import A100_40G, L4, T4, Cluster, Profiler
from repro.core.placement_types import ModelPlacement
from repro.core.units import GBIT
from repro.flow.graph import FlowGraph
from repro.models.specs import ModelSpec
from repro.scenarios import CHAOS_FAMILY, ELASTIC_FAMILY, TENANT_FAMILY
from repro.scheduling import HelixScheduler, SwarmScheduler
from repro.sim import Request, Simulation
from repro.testkit.differential import (
    _compare_observables,
    _engine_observables,
    check_fast_paths,
)

SEEDS = range(3)
FULL_CONFIG_MATRIX = [
    (family, seed)
    for family in (CHAOS_FAMILY, ELASTIC_FAMILY, TENANT_FAMILY)
    for seed in SEEDS
]


@pytest.mark.scenario
@pytest.mark.parametrize(
    "family,seed", FULL_CONFIG_MATRIX,
    ids=[f"{f}-{s}" for f, s in FULL_CONFIG_MATRIX],
)
def test_batch_engine_matches_on_full_config_address(family, seed):
    """Chaos / elastic / tenant addresses: exactly equal observables."""
    violations = check_fast_paths(family, seed, "smoke")
    assert not violations, "\n".join(str(v) for v in violations)


# ----------------------------------------------------------------------
# Scripted single-pipeline scenarios (the fast-forward regime)
# ----------------------------------------------------------------------
def _single_stage_material():
    """One A100 holding every layer: the diurnal bench's pipeline."""
    model = ModelSpec(
        name="batch-tiny-8L", num_layers=8, hidden_size=1024, num_heads=8,
        num_kv_heads=8, intermediate_size=2816,
        nominal_params=8 * (4 * 1024**2 + 3 * 1024 * 2816),
    )
    cluster = Cluster(name="batch-engine-test")
    cluster.add_node("a100-0", A100_40G, region="r0")
    cluster.connect_full_mesh(
        ["a100-0"], 10 * GBIT, 0.001, include_coordinator=True
    )
    cluster.validate()
    placement = ModelPlacement.from_intervals(8, {"a100-0": (0, 8)})
    flow = FlowGraph(cluster, model, placement).solve()
    return cluster, model, placement, flow


def _replica_material():
    """Two stages, two unequal replicas each, on a 10 Gb/s full mesh."""
    _, model, _, _ = _single_stage_material()
    cluster = Cluster(name="batch-engine-replicas")
    for node_id, gpu in (
        ("a100-0", A100_40G), ("l4-0", L4), ("t4-0", T4), ("t4-1", T4)
    ):
        cluster.add_node(node_id, gpu, region="r0")
    cluster.connect_full_mesh(
        ["a100-0", "l4-0", "t4-0", "t4-1"], 10 * GBIT, 0.001,
        include_coordinator=True,
    )
    cluster.validate()
    placement = ModelPlacement.from_intervals(
        8, {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
    )
    flow = FlowGraph(cluster, model, placement).solve()
    return cluster, model, placement, flow


def _serve(requests, coalescing=True, tenancy=None, events=(),
           material=_single_stage_material, swarm=False, **sim_kwargs):
    cluster, model, placement, flow = material()
    profiler = Profiler()
    if swarm:
        scheduler = SwarmScheduler(cluster, model, placement, profiler)
    else:
        scheduler = HelixScheduler(
            cluster, model, placement, profiler, flow=flow,
            expected_output_len=float(requests[0].output_len),
        )
    sim = Simulation(
        cluster, model, placement, scheduler, list(requests),
        profiler=profiler, max_time=1e9, seed=0, coalescing=coalescing,
        tenancy=tenancy, **sim_kwargs,
    )
    for when, action in events:
        sim.schedule_event(when, action)
    metrics = sim.run()
    return sim, metrics


def _assert_engines_agree(requests, **serve_kwargs):
    """Serve with and without coalescing; returns the two simulations."""
    perhop = _serve(requests, False, **serve_kwargs)
    default = _serve(requests, True, **serve_kwargs)
    violations = _compare_observables(
        "default-vs-perhop",
        _engine_observables(*default),
        _engine_observables(*perhop),
    )
    assert not violations, "\n".join(str(v) for v in violations)
    return perhop[0], default[0]


def test_single_request_trace_macro_steps_almost_everything():
    # Arrival at t=10 rather than t=0: very close to zero the
    # extrapolated round guess can diverge from the replayed chain by an
    # ulp within a few rounds, and the engine (correctly) falls back to
    # scalar stepping rather than commit an inexact prefix.
    requests = [Request("solo", 64, 300, 10.0)]
    _, default = _assert_engines_agree(requests)
    # One request on an idle pipeline is one long closed window; all but
    # the boundary rounds commit through the vectorized fast-forward.
    assert default.vec_fast_forwarded_tokens > 250
    assert default.record_of("solo").tokens_generated == 300


def test_single_request_at_time_zero_still_matches():
    """The ulp-divergent regime: scalar fallback, still bit-identical."""
    requests = [Request("solo", 64, 300, 0.0)]
    _, default = _assert_engines_agree(requests)
    assert default.fast_forwarded_tokens == 299


def test_simultaneous_completions_keep_tie_order():
    """Identical flooded requests finish at the same instant.

    Completion events then tie on time and are ordered by heap sequence
    number alone; the vectorized cohort advancement must allocate
    sequence numbers so ties break exactly as per-hop stepping's.
    """
    model = ModelSpec(
        name="batch-twin-8L", num_layers=8, hidden_size=1024, num_heads=8,
        num_kv_heads=8, intermediate_size=2816,
        nominal_params=8 * (4 * 1024**2 + 3 * 1024 * 2816),
    )
    cluster = Cluster(name="batch-twin-test")
    cluster.add_node("a100-0", A100_40G, region="r0")
    cluster.add_node("a100-1", A100_40G, region="r0")
    cluster.connect_full_mesh(
        ["a100-0", "a100-1"], 10 * GBIT, 0.001, include_coordinator=True
    )
    cluster.validate()
    # Two identical single-node pipelines: symmetric request halves run
    # in lockstep on disjoint channels, finishing at the same instants.
    placement = ModelPlacement.from_intervals(
        8, {"a100-0": (0, 8), "a100-1": (0, 8)}
    )
    flow = FlowGraph(cluster, model, placement).solve()
    requests = [Request(f"r{i:02d}", 16, 40, 0.0) for i in range(8)]
    runs = {}
    for coalescing in (True, False):
        scheduler = HelixScheduler(
            cluster, model, placement, flow=flow, expected_output_len=40.0
        )
        sim = Simulation(
            cluster, model, placement, scheduler, list(requests),
            max_time=1e9, seed=0, coalescing=coalescing,
        )
        metrics = sim.run()
        runs[coalescing] = _engine_observables(sim, metrics)
    violations = _compare_observables(
        "default-vs-perhop", runs[True], runs[False]
    )
    assert not violations, "\n".join(str(v) for v in violations)
    finishes = [row[5] for row in runs[True]["records"].values()]
    assert len(set(finishes)) < len(finishes)  # ties actually occurred


def test_mid_macro_step_churn_invalidates_window():
    """A failure lands inside the fast-forward window: cut and retry."""
    requests = [Request("victim", 16, 400, 0.0)]

    def fail(sim):
        sim.fail_node("a100-0")
        sim.schedule_event(
            sim.now + 5.0, lambda s: s.restore_node("a100-0")
        )

    events = [(1.0, fail)]
    _, default = _assert_engines_agree(requests, events=events)
    assert default.vec_fast_forwarded_tokens > 0
    record = default.record_of("victim")
    assert record.retries == 1
    assert record.tokens_generated == 400


def test_group_fast_forward_covers_concurrent_closed_windows():
    """Multiple live requests, all executors idle: the window still forms."""
    from repro.trace.arrival import diurnal_arrivals

    base = [Request(f"d{i:03d}", 64, 400) for i in range(60)]
    # Offered load ~0.4: arrivals overlap, so a sole-live-request
    # trigger would never see most of these windows.
    trace = diurnal_arrivals(base, 0.4 / 3.16, seed=0)
    _, default = _assert_engines_agree(trace)
    assert default.group_fast_forwards > 0
    assert default.vec_fast_forwarded_tokens > 10_000


def test_tenancy_tagged_trace_matches_on_vec_paths():
    from repro.tenancy import (
        FairnessConfig, TenancyConfig, TenantRegistry, TenantSpec,
    )

    def tenancy():
        return TenancyConfig(
            TenantRegistry([
                TenantSpec("alpha", rate_share=2.0),
                TenantSpec("beta", rate_share=1.0),
            ]),
            fairness=FairnessConfig(mode="W", window=1.0),
        )

    requests = [
        Request(
            f"{'alpha' if i % 3 else 'beta'}:{i:02d}", 32, 60,
            arrival_time=i * 0.4,
            tenant_id="alpha" if i % 3 else "beta",
        )
        for i in range(30)
    ]
    perhop, default = _assert_engines_agree(requests, tenancy=tenancy())
    assert (
        default.tenancy.tokens_by_tenant == perhop.tenancy.tokens_by_tenant
    )
    # Per-token tenant accounting is order-sensitive; the vectorized
    # fast-forward replays it token by token in scalar order.
    assert default.vec_fast_forwarded_tokens > 0


# ----------------------------------------------------------------------
# One hot path: faults, flaky links and progress hooks keep it engaged
# ----------------------------------------------------------------------
def test_stale_works_after_a_failure_are_cut_from_cohorts():
    """A stage-1 crash leaves its attempts' re-entry works in flight
    toward the busy stage-0 executors they share with live attempts;
    the cohort enqueue must stop at each stale one."""
    requests = [
        Request(f"r{i:02d}", 32, 40, arrival_time=i * 0.002)
        for i in range(60)
    ]
    grouped_at_failure = []

    def fail(sim):
        grouped_at_failure.append(sim.grouped_hops)
        sim.fail_node("l4-0")

    _, default = _assert_engines_agree(
        requests, events=[(0.1, fail)], material=_replica_material
    )
    assert sum(record.retries for record in default.records) > 0
    # Hop groups keep forming after the crash (no disruption mode).
    assert default.grouped_hops > grouped_at_failure[-1]


def test_flaky_link_leaves_other_channels_coalescing():
    """A live fault on one stage link: its arrivals go one heap event
    each, every other channel keeps its hop groups and vector runs."""
    requests = [
        Request(f"r{i:02d}", 32, 40, arrival_time=i * 0.002)
        for i in range(60)
    ]
    events = [
        (0.0, lambda s: s.set_link_flaky("a100-0", "l4-0", 0.3, 0.002))
    ]
    _, default = _assert_engines_agree(
        requests, events=events, material=_replica_material
    )
    fault = default.channels[("a100-0", "l4-0")].fault
    assert fault is not None and fault.drops > 0
    assert default.grouped_hops > 0
    assert default.vectorized_tokens > 0


def test_swarm_progress_hook_is_replayed_through_fast_forward():
    """Swarm observes every batch; the vectorized fast-forward must feed
    its throughput estimates the same per-hop, per-round updates."""
    requests = [
        Request(f"s{i}", 32, 40, arrival_time=10.0 + i * 5.0)
        for i in range(6)
    ]
    perhop, default = _assert_engines_agree(
        requests, material=_replica_material, swarm=True
    )
    assert default.vec_fast_forwarded_tokens > 0
    for node_id in default.executors:
        assert default.scheduler.throughput_estimate(node_id) == (
            perhop.scheduler.throughput_estimate(node_id)
        )


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------
def test_engine_stats_exposes_batch_telemetry():
    sim, _ = _serve([Request("solo", 64, 300, 0.0)])
    stats = sim.engine_stats
    for key in (
        "events_popped", "grouped_hops", "fast_forwarded_tokens",
        "vectorized_tokens", "vec_fast_forwarded_tokens",
        "group_fast_forwards",
    ):
        assert key in stats
    assert stats["vec_fast_forwarded_tokens"] <= stats["fast_forwarded_tokens"]
