"""The simulator overhaul must not change any observable metric.

The hop-table engine (groups, closed-window fast-forward, vectorized
forwarding and cohorts) is specified as *bit-identical* to the frozen
pre-overhaul event loop. These tests enforce that specification:

* the differential oracle replays every tier-1 scenario address (all 4
  families x 6 seeds, churny addresses included) through the legacy
  engine, the default engine, and the default engine with coalescing
  disabled, and requires exactly equal observables
  (``tests/test_batch_engine.py`` extends the coverage to the chaos /
  elastic / tenant families);
* a scripted closed-window scenario proves the fast-forward engages and
  that a churn event lands mid-window, forcing invalidation (the window
  re-materializes its in-flight hop and falls back to stepping);
* the precomputed roofline constants are checked bit-for-bit against
  ``Profiler.batch_time``, and numpy's ``add.accumulate`` against the
  strict left fold the scalar transmit chain performs.
"""

import math

import numpy as np
import pytest

from repro.cluster import ComputeNode, Profiler, T4, small_cluster_fig12
from repro.core.placement_types import ModelPlacement
from repro.flow.graph import FlowGraph
from repro.models.specs import LLAMA_30B
from repro.scenarios.generator import SCENARIO_FAMILIES
from repro.scheduling import HelixScheduler
from repro.sim import NodeExecutor, Request, Simulation, StageWork
from repro.sim._legacy_reference import LegacySimulation
from repro.testkit.differential import check_sim_engines

SEEDS = range(6)
MATRIX = [
    (family, seed) for family in SCENARIO_FAMILIES for seed in SEEDS
]


@pytest.mark.scenario
@pytest.mark.parametrize(
    "family,seed", MATRIX, ids=[f"{f}-{s}" for f, s in MATRIX]
)
def test_engines_agree_on_matrix_address(family, seed):
    """Legacy vs. default vs. per-hop: equal observables."""
    violations = check_sim_engines(family, seed, "smoke")
    assert not violations, "\n".join(str(v) for v in violations)


# ----------------------------------------------------------------------
# Closed-window fast-forward: engagement and mid-window invalidation
# ----------------------------------------------------------------------
def _fig12_serving(requests, **sim_kwargs):
    from repro.placement.petals import PetalsPlanner

    cluster = small_cluster_fig12()
    model = LLAMA_30B
    profiler = Profiler()
    result = PetalsPlanner(cluster, model, profiler).plan()
    scheduler = HelixScheduler(
        cluster, model, result.placement, profiler, flow=result.flow,
        expected_output_len=float(requests[0].output_len),
    )
    sim_cls = sim_kwargs.pop("sim_cls", Simulation)
    return sim_cls(
        cluster, model, result.placement, scheduler, requests,
        profiler=profiler, **sim_kwargs,
    )


def test_fast_forward_engages_on_sequential_stream():
    requests = [
        Request(f"r{i}", 16, 300, arrival_time=i * 500.0) for i in range(3)
    ]
    sim = _fig12_serving(list(requests), max_time=1e9, seed=0)
    metrics = sim.run()
    assert metrics.requests_finished == 3
    # Nearly every decode token of every request should be macro-stepped.
    assert sim.fast_forwarded_tokens > 800

    legacy = _fig12_serving(list(requests), max_time=1e9, seed=0,
                            sim_cls=LegacySimulation)
    legacy_metrics = legacy.run()
    for request in requests:
        assert (
            sim.record_of(request.request_id).token_times
            == legacy.record_of(request.request_id).token_times
        )
    assert metrics.decode_throughput == legacy_metrics.decode_throughput


def test_churn_event_invalidates_fast_forward_window():
    """A failure scheduled mid-decode cuts the window and still matches."""
    requests = [Request("victim", 16, 400)]

    def build(sim_cls):
        sim = _fig12_serving(
            list(requests), max_time=1e9, seed=0, sim_cls=sim_cls
        )
        # Fail a pipeline node mid-decode, restore it later: the window
        # must stop at the env event, the attempt is disrupted, and the
        # retried attempt finishes after recovery.
        def fail(s):
            node_id = s.placement.used_nodes[0]
            s.fail_node(node_id)
            s.schedule_event(s.now + 5.0, lambda s2: s2.restore_node(node_id))

        sim.schedule_event(8.0, fail)
        return sim

    fast = build(Simulation)
    fast_metrics = fast.run()
    # The window formed (tokens were fast-forwarded) and was invalidated
    # (the request was disrupted mid-run and retried).
    assert fast.fast_forwarded_tokens > 0
    assert fast_metrics.requests_retried == 1
    assert fast_metrics.requests_finished == 1

    legacy = build(LegacySimulation)
    legacy_metrics = legacy.run()
    assert (
        fast.record_of("victim").token_times
        == legacy.record_of("victim").token_times
    )
    assert fast_metrics.tokens_lost == legacy_metrics.tokens_lost
    assert fast_metrics.decode_throughput == legacy_metrics.decode_throughput


def test_announced_failure_requeues_in_active_order(small_cluster, tiny_model):
    """Requeued requests re-enter the pending queue in ``_active`` order.

    Three single-stage replicas of unequal speed: the crash of the
    fastest requeues several mid-decode requests of unequal lengths onto
    the two slower ones, so the order they are re-dispatched in decides
    which request lands where. The frozen engine requeues in ``_active``
    order; every token time must match it.
    """
    placement = ModelPlacement.from_intervals(
        8, {"a100-0": (0, 8), "l4-0": (0, 8), "t4-0": (0, 8)}
    )
    requests = [
        Request(f"r{i}", 16 + 8 * i, 20 + 3 * i) for i in range(9)
    ]

    def build(sim_cls):
        flow = FlowGraph(small_cluster, tiny_model, placement).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement, Profiler(), flow=flow
        )
        sim = sim_cls(
            small_cluster, tiny_model, placement, scheduler, list(requests),
            max_time=1e9, seed=0,
        )
        requeued = []
        sim.schedule_event(
            0.05, lambda s: requeued.extend(s.fail_node("a100-0"))
        )
        return sim, requeued

    fast, fast_requeued = build(Simulation)
    fast_metrics = fast.run()
    small_cluster.set_node_available("a100-0", True)
    legacy, legacy_requeued = build(LegacySimulation)
    legacy.run()
    assert len(fast_requeued) >= 2
    assert fast_requeued == legacy_requeued
    assert fast_metrics.requests_finished == len(requests)
    for request in requests:
        assert (
            fast.record_of(request.request_id).token_times
            == legacy.record_of(request.request_id).token_times
        ), request.request_id


def test_flooded_equivalence_with_batch_cohorts():
    """A saturated uniform flood (vectorized cohorts) matches exactly."""
    requests = [Request(f"r{i:04d}", 16, 24) for i in range(120)]
    fast = _fig12_serving(list(requests), max_time=1e9, seed=0,
                          max_batch_tokens=2048)
    fast.run()
    assert fast.grouped_hops > 0
    legacy = _fig12_serving(list(requests), max_time=1e9, seed=0,
                            max_batch_tokens=2048, sim_cls=LegacySimulation)
    legacy.run()
    for request in requests:
        assert (
            fast.record_of(request.request_id).token_times
            == legacy.record_of(request.request_id).token_times
        )
    for key, channel in legacy.channels.items():
        fast_channel = fast.channels[key]
        assert fast_channel.bytes_sent == channel.bytes_sent
        assert fast_channel.total_queueing_delay == channel.total_queueing_delay


def test_max_time_truncation_matches_legacy():
    requests = [Request(f"r{i}", 64, 500) for i in range(30)]
    fast = _fig12_serving(list(requests), max_time=6.0, seed=0)
    fast_metrics = fast.run()
    legacy = _fig12_serving(list(requests), max_time=6.0, seed=0,
                            sim_cls=LegacySimulation)
    legacy_metrics = legacy.run()
    assert fast_metrics.requests_finished == legacy_metrics.requests_finished
    assert fast_metrics.decode_tokens == legacy_metrics.decode_tokens
    assert fast_metrics.duration == legacy_metrics.duration
    assert fast.now == legacy.now


# ----------------------------------------------------------------------
# The arithmetic-identity claims behind the hot path
# ----------------------------------------------------------------------
def test_precomputed_batch_constants_match_profiler(tiny_model):
    node = ComputeNode("t4", T4)
    profiler = Profiler()
    executor = NodeExecutor(node, tiny_model, profiler, resident_layers=4)
    for tokens in (1, 7, 64, 513):
        batch = [StageWork("r", 0, tokens, 4, False, tl=tokens * 4)]
        reference = executor.batch_time(batch)
        fast = (
            (tokens * 4) / executor.compute_rate
            + executor.weights_time
            + executor.overhead
        )
        assert fast == reference  # bitwise, not approx


def test_numpy_accumulate_is_strict_left_fold():
    rng = np.random.default_rng(7)
    for _ in range(50):
        k = int(rng.integers(2, 400))
        init = float(rng.uniform(0, 1e9))
        constant = float(rng.uniform(1e-9, 1e3))
        sequential = []
        acc = init
        for _ in range(k):
            acc += constant
            sequential.append(acc)
        chain = np.empty(k + 1)
        chain[0] = init
        chain[1:] = constant
        assert np.add.accumulate(chain)[1:].tolist() == sequential


def test_take_batch_counters_stay_consistent(tiny_model):
    executor = NodeExecutor(
        ComputeNode("t4", T4), tiny_model, Profiler(), 4, max_batch_tokens=25
    )
    for i in range(6):
        executor.enqueue(StageWork(f"r{i}", 0, 10, 4, True, tl=40))
    batch, tokens, tl = executor.take_batch()
    assert len(batch) == 2
    assert (tokens, tl) == (20, 80)
    assert executor.queue_tokens == 40
    assert executor.queue_tl == 160
    while executor.has_work():
        executor.take_batch()
    assert executor.queue_tokens == 0
    assert executor.queue_tl == 0


def test_token_timeline_bucketing_matches_goodput():
    """Derived bucket view == exact times for window-multiple goodput."""
    from repro.sim.metrics import TokenTimeline, goodput_timeline

    rng = np.random.default_rng(3)
    times = sorted(float(t) for t in rng.uniform(0.0, 30.0, size=500))
    timeline = TokenTimeline()
    for t in times:
        timeline.add(t)
    derived = timeline.times()
    assert len(derived) == len(times)
    for window in (0.25, 1.0, 2.0, 3.0):
        assert goodput_timeline(derived, window, 30.0) == goodput_timeline(
            times, window, 30.0
        )


def test_token_timeline_memory_is_bounded():
    from repro.sim.metrics import TokenTimeline

    timeline = TokenTimeline(resolution=0.5)
    for i in range(100_000):
        timeline.add(12.25)  # all in one bucket
    assert timeline.count == 100_000
    assert len(timeline.bucket_counts()) == 25  # horizon-, not token-bound


def test_timeline_resolution_validation():
    from repro.sim.metrics import TokenTimeline

    with pytest.raises(ValueError):
        TokenTimeline(resolution=0.0)
    with pytest.raises(ValueError):
        TokenTimeline(resolution=math.inf)


def test_simulation_exposes_engine_stats(small_cluster, tiny_model):
    placement = ModelPlacement.from_intervals(
        8, {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
    )
    flow = FlowGraph(small_cluster, tiny_model, placement).solve()
    scheduler = HelixScheduler(
        small_cluster, tiny_model, placement, flow=flow
    )
    sim = Simulation(
        small_cluster, tiny_model, placement, scheduler,
        [Request("r0", 16, 40)],
    )
    sim.run()
    stats = sim.engine_stats
    assert stats["events_popped"] > 0
    assert stats["fast_forwarded_tokens"] > 0  # single request: closed window
    assert sim.tokens_emitted == 40
    assert len(sim.token_timeline) == 40
