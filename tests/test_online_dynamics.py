"""Online dynamics: churn events, failure semantics, and live replanning."""

import math

import pytest

from repro.core.errors import SimulationError
from repro.core.placement_types import ModelPlacement
from repro.flow.graph import FlowGraph
from repro.online import (
    ChurnConfig,
    LinkDegradation,
    LinkRecovery,
    NetworkPartition,
    NodeFailure,
    NodeJoin,
    NodeRecovery,
    OnlineController,
    PartitionHeal,
    random_churn,
    scripted_schedule,
)
from repro.placement.helix_milp import HelixMilpPlanner
from repro.scheduling import HelixScheduler
from repro.sim import Request, Simulation
from repro.sim.metrics import disruption_report, goodput_timeline


@pytest.fixture()
def placement8():
    return ModelPlacement.from_intervals(
        8, {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
    )


def make_simulation(cluster, model, placement, requests, scheduler_kwargs=None,
                    **kwargs):
    flow = FlowGraph(cluster, model, placement).solve()
    scheduler = HelixScheduler(
        cluster, model, placement, flow=flow, **(scheduler_kwargs or {})
    )
    return Simulation(cluster, model, placement, scheduler, requests, **kwargs)


class TestFailureSemantics:
    def test_fail_node_requeues_and_reroutes(
        self, small_cluster, tiny_model, placement8
    ):
        """Layer replicas absorb a failure: everything still finishes."""
        requests = [Request(f"r{i}", 32, 6, arrival_time=i * 0.01) for i in range(40)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)
        sim.schedule_event(0.05, lambda s: s.fail_node("a100-0"))
        metrics = sim.run()
        assert metrics.requests_finished == 40
        assert metrics.requests_retried > 0
        # No finished pipeline may route through the dead node.
        for i in range(40):
            record = sim.record_of(f"r{i}")
            assert record.finished
        assert "a100-0" in sim.down_nodes

    def test_failed_node_kv_state_is_lost(
        self, small_cluster, tiny_model, placement8
    ):
        requests = [Request(f"r{i}", 64, 12) for i in range(20)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)

        observed = {}

        def fail(s):
            observed["before"] = s.kv_pools["a100-0"].used_tokens
            s.fail_node("a100-0")
            observed["after"] = s.kv_pools["a100-0"].used_tokens

        sim.schedule_event(0.03, fail)
        sim.run()
        assert observed["before"] > 0
        assert observed["after"] == 0

    def test_kv_pools_drain_after_failure_and_recovery(
        self, small_cluster, tiny_model, placement8
    ):
        requests = [Request(f"r{i}", 32, 6) for i in range(30)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)
        sim.schedule_event(0.04, lambda s: s.fail_node("t4-1"))
        sim.schedule_event(0.30, lambda s: s.restore_node("t4-1"))
        metrics = sim.run()
        assert metrics.requests_finished == 30
        for pool in sim.kv_pools.values():
            assert pool.used_tokens == 0

    def test_fail_node_is_idempotent(self, small_cluster, tiny_model, placement8):
        requests = [Request("r0", 16, 2)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)
        sim.fail_node("t4-0")
        assert sim.fail_node("t4-0") == []
        sim.restore_node("t4-0")
        sim.restore_node("t4-0")  # no-op
        assert sim.run().requests_finished == 1

    def test_retry_metrics_and_tokens_lost(
        self, small_cluster, tiny_model, placement8
    ):
        requests = [Request(f"r{i}", 32, 20) for i in range(10)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)
        # Fail late enough that some decode tokens exist and are wasted.
        sim.schedule_event(0.2, lambda s: s.fail_node("a100-0"))
        metrics = sim.run()
        assert metrics.requests_finished == 10
        if metrics.requests_retried:
            assert metrics.tokens_lost >= 0
            retried = [
                sim.record_of(f"r{i}") for i in range(10)
                if sim.record_of(f"r{i}").retries > 0
            ]
            # Retried requests still generated their full output.
            assert all(r.tokens_generated == 20 for r in retried)


class TestPendingQueueUnderMasking:
    def test_pending_retry_path_with_kv_masking_and_failure(
        self, small_cluster, tiny_model, placement8
    ):
        """KV masking queues requests; a failure mid-drain still resolves."""
        flow = FlowGraph(small_cluster, tiny_model, placement8).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement8, flow=flow,
            expected_output_len=4.0,
            kv_high_water_mark=0.2,  # tight: forces queuing
        )
        requests = [Request(f"r{i}", 512, 4) for i in range(120)]
        sim = Simulation(
            small_cluster, tiny_model, placement8, scheduler, requests,
            max_time=10_000.0,
        )
        sim.schedule_event(1.0, lambda s: s.fail_node("a100-0"))
        sim.schedule_event(5.0, lambda s: s.restore_node("a100-0"))
        metrics = sim.run()
        assert metrics.requests_finished == 120
        assert metrics.kv_overflow_events == 0

    def test_all_successors_down_pends_then_drains(
        self, small_cluster, tiny_model, placement8
    ):
        """When a selector's every successor is down, requests pend."""
        flow = FlowGraph(small_cluster, tiny_model, placement8).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement8, flow=flow
        )
        # Both holders of layers [0, 4) down: the coordinator selector has
        # no live successor and scheduling must return None, not crash.
        scheduler.mark_node_down("a100-0")
        scheduler.mark_node_down("t4-1")
        assert scheduler.schedule("probe", 16) is None

        requests = [Request(f"r{i}", 16, 3, arrival_time=0.0) for i in range(5)]
        # The simulation starts with the cluster's unavailable nodes down.
        small_cluster.set_node_available("a100-0", False)
        small_cluster.set_node_available("t4-1", False)
        sim = Simulation(
            small_cluster, tiny_model, placement8, scheduler, requests,
            max_time=60.0,
        )
        assert sim.down_nodes == {"a100-0", "t4-1"}
        sim.schedule_event(1.0, lambda s: s.restore_node("a100-0"))
        metrics = sim.run()
        assert metrics.requests_finished == 5
        # Nothing could schedule before the recovery at t=1.
        assert all(
            sim.record_of(f"r{i}").schedule_time >= 1.0 for i in range(5)
        )


class TestNodeLifecycle:
    """Every (state, call) pair of a node's lifecycle.

    Health is one of up, zombie, silent-down and down; draining is a
    separate mark that a gray fault does not clear. The traffic in
    ``busy_sim`` keeps attempts routed through ``a100-0`` at t=0.03, so
    a drain started then cannot finalize at once.
    """

    @staticmethod
    def busy_sim(cluster, model, placement):
        requests = [Request(f"r{i}", 64, 12) for i in range(20)]
        return make_simulation(
            cluster, model, placement, requests, max_time=60.0, seed=0
        )

    @staticmethod
    def go_gray(sim, node_id, fault):
        if fault == "zombie":
            sim.make_zombie(node_id)
        else:
            sim.fail_node(node_id, announce=False)

    @staticmethod
    def snapshot(sim):
        return {
            "down": sim.down_nodes,
            "silent": sim.silent_down_nodes,
            "zombie": sim.zombie_nodes,
            "draining": sim.draining_nodes,
            "fault_times": sim.fault_times,
        }

    @pytest.mark.parametrize("fault", ["zombie", "silent"])
    def test_draining_a_gray_node_confirms_it(
        self, small_cluster, tiny_model, placement8, fault
    ):
        sim = self.busy_sim(small_cluster, tiny_model, placement8)
        seen = {}

        def act(s):
            self.go_gray(s, "a100-0", fault)
            s.drain_node("a100-0")
            seen.update(self.snapshot(s))

        sim.schedule_event(0.03, act)
        metrics = sim.run()
        assert seen == {
            "down": {"a100-0"}, "silent": set(), "zombie": set(),
            "draining": set(), "fault_times": {"a100-0": 0.03},
        }
        assert sim.drain_log == []
        assert sim.dead_node_token_violations() == []
        assert metrics.requests_finished == 20

    @pytest.mark.parametrize("fault", ["zombie", "silent"])
    def test_draining_node_that_turns_gray_stays_draining(
        self, small_cluster, tiny_model, placement8, fault
    ):
        sim = self.busy_sim(small_cluster, tiny_model, placement8)
        seen = {}

        def act(s):
            s.drain_node("a100-0")
            seen["drain_pending"] = s.draining_nodes
            self.go_gray(s, "a100-0", fault)
            seen["gray"] = self.snapshot(s)

        def confirm(s):
            seen["latency"] = s.confirm_node_failure("a100-0")
            seen["confirmed"] = self.snapshot(s)

        sim.schedule_event(0.03, act)
        sim.schedule_event(0.5, confirm)
        metrics = sim.run()
        assert seen["drain_pending"] == {"a100-0"}
        gray = {"a100-0"}
        assert seen["gray"] == {
            "down": set(),
            "silent": gray if fault == "silent" else set(),
            "zombie": gray if fault == "zombie" else set(),
            "draining": {"a100-0"},
            "fault_times": {"a100-0": 0.03},
        }
        assert seen["latency"] == pytest.approx(0.47)
        assert seen["confirmed"] == {
            "down": {"a100-0"}, "silent": set(), "zombie": set(),
            "draining": set(), "fault_times": {"a100-0": 0.03},
        }
        assert sim.drain_log == []
        assert metrics.requests_finished == 20

    def test_drain_finalizes_when_its_last_attempt_finishes(
        self, small_cluster, tiny_model, placement8
    ):
        sim = self.busy_sim(small_cluster, tiny_model, placement8)
        seen = {}

        def drain(s):
            s.drain_node("a100-0")
            seen.update(self.snapshot(s))

        sim.schedule_event(0.03, drain)
        metrics = sim.run()
        assert seen == {
            "down": set(), "silent": set(), "zombie": set(),
            "draining": {"a100-0"}, "fault_times": {},
        }
        (record,) = sim.drain_log
        assert record.node_id == "a100-0"
        assert record.completed > record.started == 0.03
        assert record.kv_leaked == 0
        assert sim.down_nodes == {"a100-0"}
        assert sim.draining_nodes == set()
        assert metrics.requests_finished == 20
        assert metrics.requests_retried == 0

    @pytest.mark.parametrize("crash", ["fail", "confirm"])
    def test_crash_during_drain_writes_no_drain_record(
        self, small_cluster, tiny_model, placement8, crash
    ):
        sim = self.busy_sim(small_cluster, tiny_model, placement8)
        seen = {}
        sim.schedule_event(0.03, lambda s: s.drain_node("a100-0"))

        def kill(s):
            seen["draining"] = s.draining_nodes
            if crash == "fail":
                seen["requeued"] = s.fail_node("a100-0")
            else:
                seen["latency"] = s.confirm_node_failure("a100-0")

        sim.schedule_event(0.04, kill)
        metrics = sim.run()
        assert seen["draining"] == {"a100-0"}
        if crash == "fail":
            assert seen["requeued"]
        else:
            assert math.isnan(seen["latency"])  # it was healthy
        assert sim.drain_log == []
        assert sim.down_nodes == {"a100-0"}
        assert sim.draining_nodes == set()
        assert metrics.requests_finished == 20

    def test_confirming_a_healthy_node_returns_nan_and_takes_it_down(
        self, small_cluster, tiny_model, placement8
    ):
        sim = self.busy_sim(small_cluster, tiny_model, placement8)
        assert math.isnan(sim.confirm_node_failure("t4-0"))
        assert sim.down_nodes == {"t4-0"}
        assert sim.fault_times == {}
        assert "t4-0" in sim.scheduler.down_nodes
        assert "t4-0" in small_cluster.down_node_ids
        assert math.isnan(sim.confirm_node_failure("t4-0"))  # already down
        assert sim.run().requests_finished == 20
        assert sim.dead_node_token_violations() == []

    def test_fault_times_keep_a_confirmed_node_until_restore(
        self, small_cluster, tiny_model, placement8
    ):
        sim = self.busy_sim(small_cluster, tiny_model, placement8)
        seen = {}
        sim.schedule_event(0.03, lambda s: s.make_zombie("a100-0"))
        sim.schedule_event(
            0.5, lambda s: seen.update(
                latency=s.confirm_node_failure("a100-0"),
                confirmed=s.fault_times,
            )
        )
        sim.schedule_event(
            1.0, lambda s: (
                s.restore_node("a100-0"),
                seen.update(restored=s.fault_times, down=s.down_nodes),
            )
        )
        metrics = sim.run()
        assert seen["latency"] == pytest.approx(0.47)
        assert seen["confirmed"] == {"a100-0": 0.03}
        assert seen["restored"] == {}
        assert seen["down"] == set()
        assert metrics.requests_finished == 20

    def test_announced_crash_of_a_silent_node_drops_its_fault_time(
        self, small_cluster, tiny_model, placement8
    ):
        sim = self.busy_sim(small_cluster, tiny_model, placement8)
        seen = {}
        sim.schedule_event(
            0.03, lambda s: s.fail_node("a100-0", announce=False)
        )
        sim.schedule_event(
            0.5, lambda s: seen.update(
                requeued=s.fail_node("a100-0"), state=self.snapshot(s)
            )
        )
        metrics = sim.run()
        assert seen["requeued"]  # the stalled attempts
        assert seen["state"] == {
            "down": {"a100-0"}, "silent": set(), "zombie": set(),
            "draining": set(), "fault_times": {},
        }
        assert metrics.requests_finished == 20

    @pytest.mark.parametrize("fault", ["zombie", "silent"])
    def test_restore_of_a_gray_node_confirms_then_rejoins(
        self, small_cluster, tiny_model, placement8, fault
    ):
        sim = self.busy_sim(small_cluster, tiny_model, placement8)
        seen = {}
        sim.schedule_event(
            0.03, lambda s: self.go_gray(s, "a100-0", fault)
        )

        def restore(s):
            s.restore_node("a100-0")
            seen.update(self.snapshot(s))
            seen["masked"] = "a100-0" in s.scheduler.down_nodes
            seen["available"] = "a100-0" not in s.cluster.down_node_ids

        sim.schedule_event(0.5, restore)
        metrics = sim.run()
        assert seen == {
            "down": set(), "silent": set(), "zombie": set(),
            "draining": set(), "fault_times": {},
            "masked": False, "available": True,
        }
        # The confirmation requeued the attempts stalled on the node.
        assert metrics.requests_retried > 0
        assert metrics.requests_finished == 20
        assert sim.dead_node_token_violations() == []

    def test_make_zombie_on_a_dead_node_does_nothing(
        self, small_cluster, tiny_model, placement8
    ):
        sim = self.busy_sim(small_cluster, tiny_model, placement8)
        sim.fail_node("a100-0")
        sim.fail_node("t4-0", announce=False)
        sim.make_zombie("a100-0")
        sim.make_zombie("t4-0")
        assert sim.zombie_nodes == set()
        assert sim.down_nodes == {"a100-0"}
        assert sim.silent_down_nodes == {"t4-0"}
        assert sim.fault_times == {"t4-0": 0.0}

    def test_fail_node_returns_requeued_ids_in_active_order(
        self, small_cluster, tiny_model, placement8
    ):
        sim = self.busy_sim(small_cluster, tiny_model, placement8)
        seen = {}

        def act(s):
            seen["expected"] = [
                rid for rid, active in s._active.items()
                if "a100-0" in active.pipeline.node_ids
            ]
            seen["silent"] = s.fail_node("t4-0", announce=False)
            seen["requeued"] = s.fail_node("a100-0")
            seen["again"] = s.fail_node("a100-0")

        sim.schedule_event(0.03, act)
        sim.schedule_event(0.5, lambda s: s.restore_node("t4-0"))
        sim.schedule_event(0.5, lambda s: s.restore_node("a100-0"))
        metrics = sim.run()
        assert seen["expected"]
        assert seen["requeued"] == seen["expected"]
        assert seen["silent"] == [] and seen["again"] == []
        for rid in seen["requeued"]:
            assert sim.record_of(rid).retries >= 1
        assert metrics.requests_finished == 20


class TestControlInputValidation:
    @pytest.mark.parametrize("call, argument", [
        (lambda s: s.schedule_event(math.nan, lambda _: None), "when"),
        (lambda s: s.degrade_link("a100-0", "l4-0", math.nan), "factor"),
        (lambda s: s.set_compute_slowdown("a100-0", math.nan), "factor"),
        (lambda s: s.set_compute_slowdown("a100-0", math.inf), "factor"),
        (lambda s: s.set_link_flaky("a100-0", "l4-0", 0.5, math.nan),
         "retransmit_delay"),
        (lambda s: s.set_link_flaky("a100-0", "l4-0", 0.5, math.inf),
         "retransmit_delay"),
    ], ids=["event-nan", "degrade-nan", "slowdown-nan", "slowdown-inf",
            "flaky-delay-nan", "flaky-delay-inf"])
    def test_non_finite_input_is_rejected_by_name(
        self, small_cluster, tiny_model, placement8, call, argument
    ):
        requests = [Request("r0", 16, 2)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)
        with pytest.raises(SimulationError, match=rf"\b{argument}\b"):
            call(sim)


class TestLinkEvents:
    def test_degrade_and_restore_link(self, small_cluster, tiny_model, placement8):
        requests = [Request("r0", 16, 2)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)
        original = small_cluster.link("a100-0", "l4-0").bandwidth
        sim.degrade_link("a100-0", "l4-0", 0.1)
        assert small_cluster.link("a100-0", "l4-0").bandwidth == pytest.approx(
            original * 0.1
        )
        assert small_cluster.link("l4-0", "a100-0").bandwidth == pytest.approx(
            original * 0.1
        )
        # The live channel sees the degraded link immediately.
        assert sim.channels[("a100-0", "l4-0")].link.bandwidth == pytest.approx(
            original * 0.1
        )
        # Degradation factors are relative to the original bandwidth.
        sim.degrade_link("a100-0", "l4-0", 0.5)
        assert small_cluster.link("a100-0", "l4-0").bandwidth == pytest.approx(
            original * 0.5
        )
        sim.restore_link("a100-0", "l4-0")
        assert small_cluster.link("a100-0", "l4-0").bandwidth == pytest.approx(
            original
        )

    def test_degrade_asymmetric_link_skips_missing_reverse(
        self, tiny_model
    ):
        from repro.cluster import presets

        cluster = presets.toy_cluster_fig2()  # all links unidirectional
        placement = ModelPlacement.from_intervals(
            8, {"a100": (0, 4), "t4-1": (4, 8), "t4-2": (4, 8)}
        )
        requests = [Request("r0", 16, 2)]
        sim = make_simulation(cluster, tiny_model, placement, requests)
        original = cluster.link("a100", "t4-1").bandwidth
        sim.degrade_link("a100", "t4-1", 0.5)  # no reverse link: no crash
        assert cluster.link("a100", "t4-1").bandwidth == pytest.approx(
            original * 0.5
        )
        assert not cluster.has_link("t4-1", "a100")
        sim.restore_link("a100", "t4-1")
        assert cluster.link("a100", "t4-1").bandwidth == pytest.approx(original)

    def test_flow_graph_refresh_links_tracks_degradation(
        self, small_cluster, tiny_model, placement8
    ):
        graph = FlowGraph(small_cluster, tiny_model, placement8)
        before = graph.solve().max_flow
        for nid in ("a100-0", "t4-1"):
            small_cluster.set_link_bandwidth("coordinator", nid, 1e3)
        changed = graph.refresh_links()
        assert ("coordinator", "a100-0") in changed
        after = graph.solve().max_flow
        assert after < before
        # A no-op refresh reports nothing and keeps the cached solution.
        assert graph.refresh_links() == []

    def test_partition_and_heal_events(self, small_cluster, tiny_model, placement8):
        requests = [Request("r0", 16, 2)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)
        original = small_cluster.link("a100-0", "l4-0").bandwidth
        partition = NetworkPartition(
            0.0, group_a=("a100-0",), group_b=("l4-0", "t4-0"), factor=0.02
        )
        heal = PartitionHeal(
            0.0, group_a=("a100-0",), group_b=("l4-0", "t4-0")
        )
        partition.apply(sim)
        # Both directions of the cut crawl.
        assert small_cluster.link("a100-0", "l4-0").bandwidth == pytest.approx(
            original * 0.02
        )
        assert small_cluster.link("l4-0", "a100-0").bandwidth == pytest.approx(
            original * 0.02
        )
        heal.apply(sim)
        assert small_cluster.link("a100-0", "l4-0").bandwidth == pytest.approx(
            original
        )
        assert small_cluster.link("l4-0", "a100-0").bandwidth == pytest.approx(
            original
        )


class TestPlacementHotSwap:
    def test_apply_placement_migrates_invalidated_requests(
        self, small_cluster, tiny_model, placement8
    ):
        requests = [Request(f"r{i}", 64, 30) for i in range(12)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)

        swapped = ModelPlacement.from_intervals(
            8,
            {"a100-0": (0, 8), "l4-0": (0, 4), "t4-0": (4, 8), "t4-1": (0, 4)},
        )

        def swap(s):
            flow = FlowGraph(small_cluster, tiny_model, swapped).solve()
            migrated = s.apply_placement(swapped, flow)
            assert migrated  # in-flight pipelines crossed changed nodes

        sim.schedule_event(0.2, swap)
        metrics = sim.run()
        assert metrics.requests_finished == 12
        assert metrics.requests_migrated > 0
        for pool in sim.kv_pools.values():
            assert pool.used_tokens == 0

    def test_grown_interval_rebind_migrates_resident_requests(
        self, small_cluster, tiny_model, placement8
    ):
        """A node whose interval *grows* is re-bound; requests there must
        be migrated even though their stage still fits the new interval."""
        requests = [Request(f"r{i}", 64, 40) for i in range(10)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)

        # a100-0 grows from [0, 4) to [0, 8): stages [0, 4) on it still fit,
        # but the executor/KV rebind would orphan their in-flight work.
        grown = ModelPlacement.from_intervals(
            8,
            {"a100-0": (0, 8), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)},
        )

        def swap(s):
            flow = FlowGraph(small_cluster, tiny_model, grown).solve()
            migrated = s.apply_placement(grown, flow)
            assert migrated
            # No active pipeline may still carry an old-interval stage on
            # the re-bound node (retries may already use the new [0, 8)).
            for active in s._active.values():
                for stage in active.pipeline.stages:
                    if stage.node_id == "a100-0":
                        assert (stage.start, stage.end) == (0, 8)

        sim.schedule_event(0.3, swap)
        metrics = sim.run()
        assert metrics.requests_finished == 10  # nobody got orphaned

    def test_apply_placement_rejects_empty_flow_before_mutating(
        self, small_cluster, tiny_model, placement8
    ):
        from types import SimpleNamespace

        requests = [Request("r0", 16, 2)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)
        other = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 8), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
        )
        with pytest.raises(SimulationError, match="no flow"):
            sim.apply_placement(other, SimpleNamespace(max_flow=0.0))
        assert sim.placement is placement8  # nothing was mutated

    def test_rebind_preserves_overflow_history(
        self, small_cluster, tiny_model, placement8
    ):
        requests = [Request("r0", 16, 2)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)
        sim.kv_pools["a100-0"].overflow_events = 3
        grown = ModelPlacement.from_intervals(
            8,
            {"a100-0": (0, 8), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)},
        )
        flow = FlowGraph(small_cluster, tiny_model, grown).solve()
        sim.apply_placement(grown, flow)  # a100-0 is re-bound
        assert sim.kv_pools["a100-0"].overflow_events == 3
        assert sim.run().kv_overflow_events >= 3

    def test_fail_joined_node_that_never_served(
        self, small_cluster, tiny_model, placement8
    ):
        requests = [Request("r0", 16, 2)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)
        from repro.cluster import L4

        small_cluster.add_node("late", L4, region="r0")
        small_cluster.connect("coordinator", "late", 1e9)
        assert sim.fail_node("late") == []  # no epoch entry yet; no crash
        sim.restore_node("late")
        assert sim.run().requests_finished == 1

    def test_scheduler_hot_swap_rebuilds_selectors(
        self, small_cluster, tiny_model, placement8
    ):
        flow = FlowGraph(small_cluster, tiny_model, placement8).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement8, flow=flow
        )
        degraded = ModelPlacement.from_intervals(
            8, {"t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
        )
        degraded_flow = FlowGraph(small_cluster, tiny_model, degraded).solve()
        scheduler.apply_placement(degraded, flow=degraded_flow)
        weights = scheduler.selector_weights("coordinator")
        assert "a100-0" not in weights
        assert "t4-1" in weights


class TestOnlineController:
    def test_fail_replan_recover_end_to_end(self, small_cluster, tiny_model):
        placement = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
        )
        flow = FlowGraph(small_cluster, tiny_model, placement).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement, flow=flow
        )
        requests = [
            Request(f"r{i}", 32, 8, arrival_time=i * 0.002) for i in range(400)
        ]
        events = scripted_schedule(
            NodeFailure(0.3, "a100-0"),
            NodeRecovery(0.8, "a100-0"),
            NodeFailure(1.2, "a100-0"),
            NodeRecovery(1.6, "a100-0"),
        )
        controller = OnlineController(
            tiny_model, events=events, replan_lns_rounds=1,
            replan_time_limit=0.5,
        )
        sim = Simulation(
            small_cluster, tiny_model, placement, scheduler, requests,
            max_time=5.0, seed=0, controller=controller,
        )
        metrics = sim.run()
        assert metrics.requests_finished == 400
        assert metrics.requests_retried > 0
        statuses = [r.status for r in controller.replans]
        assert "applied" in statuses
        assert len(controller.event_log) == 4
        # Only the failures are disruptions; recoveries replan but do not
        # move the disruption clock.
        assert controller.disruption_times == [0.3, 1.2]
        # Every recovery invalidates the planner cache (the restored
        # node's links were absent from the cached formulations), so only
        # the membership seen since the last recovery is still cached.
        assert len(controller._planners) == 1
        report = controller.report(sim, window=0.25)
        assert report.replan_count >= 1
        assert report.requests_retried == metrics.requests_retried

    def test_unique_layer_holder_failure_needs_replan(
        self, small_cluster, tiny_model
    ):
        """Fast path fails (lost layers), the LNS replan repairs coverage."""
        placement = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
        )
        flow = FlowGraph(small_cluster, tiny_model, placement).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement, flow=flow
        )
        requests = [
            Request(f"r{i}", 32, 6, arrival_time=i * 0.005) for i in range(100)
        ]
        controller = OnlineController(
            tiny_model, events=[NodeFailure(0.2, "a100-0")],
            replan_lns_rounds=1, replan_time_limit=0.5,
        )
        sim = Simulation(
            small_cluster, tiny_model, placement, scheduler, requests,
            max_time=10.0, seed=0, controller=controller,
        )
        metrics = sim.run()
        # a100-0 held layers [0, 4) alone: only the replan (re-spreading
        # layers over t4-1 and the survivors) can restore serving.
        assert metrics.requests_finished == 100
        record = controller.replans[-1]
        assert record.status == "applied"
        assert "a100-0" not in {
            nid for nid in sim.placement.used_nodes
        }

    def test_replan_disabled_leaves_degraded_flow(
        self, small_cluster, tiny_model
    ):
        placement = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
        )
        flow = FlowGraph(small_cluster, tiny_model, placement).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement, flow=flow
        )
        requests = [Request(f"r{i}", 32, 4) for i in range(50)]
        controller = OnlineController(
            tiny_model, events=[NodeFailure(0.1, "t4-1")], replan=False
        )
        sim = Simulation(
            small_cluster, tiny_model, placement, scheduler, requests,
            max_time=30.0, seed=0, controller=controller,
        )
        metrics = sim.run()
        assert metrics.requests_finished == 50
        assert [r.status for r in controller.replans] == ["degraded-only"]
        assert "t4-1" not in sim.placement.used_nodes

    def test_replan_disabled_recovery_restores_assignment(
        self, small_cluster, tiny_model
    ):
        """Without replanning, a recovered node regains its old layers
        (tier 1 degrades the *reference* placement, not the live one)."""
        placement = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
        )
        flow = FlowGraph(small_cluster, tiny_model, placement).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement, flow=flow
        )
        requests = [
            Request(f"r{i}", 32, 5, arrival_time=i * 0.01) for i in range(80)
        ]
        events = [NodeFailure(0.2, "t4-1"), NodeRecovery(0.5, "t4-1")]
        controller = OnlineController(
            tiny_model, events=events, replan=False
        )
        sim = Simulation(
            small_cluster, tiny_model, placement, scheduler, requests,
            max_time=30.0, seed=0, controller=controller,
        )
        metrics = sim.run()
        assert metrics.requests_finished == 80
        assert "t4-1" in sim.placement.used_nodes
        assert sim.placement.interval("t4-1").start == 0

    def test_first_event_link_degradation_reweights_selectors(
        self, small_cluster, tiny_model
    ):
        """Tier 1 must hot-swap even when its flow graph is built after
        the degradation already applied (refresh_links sees no delta)."""
        placement = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
        )
        flow = FlowGraph(small_cluster, tiny_model, placement).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement, flow=flow
        )
        before = dict(scheduler.selector_weights("coordinator"))
        requests = [Request(f"r{i}", 32, 4) for i in range(30)]
        # Token-id links are light (4 B/token), so the degradation must be
        # extreme before the link binds below the node's throughput.
        controller = OnlineController(
            tiny_model,
            events=[LinkDegradation(0.1, "coordinator", "a100-0", 1e-5)],
            replan=False,
        )
        sim = Simulation(
            small_cluster, tiny_model, placement, scheduler, requests,
            max_time=60.0, seed=0, controller=controller,
        )
        metrics = sim.run()
        assert metrics.requests_finished == 30
        after = scheduler.selector_weights("coordinator")
        # The coordinator->a100-0 weight collapsed to the link capacity.
        assert after.get("a100-0", 0.0) < before["a100-0"] * 0.5

    def test_replan_delay_defers_the_swap_and_records_migration(
        self, small_cluster, tiny_model
    ):
        placement = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
        )
        flow = FlowGraph(small_cluster, tiny_model, placement).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement, flow=flow
        )
        requests = [
            Request(f"r{i}", 32, 6, arrival_time=i * 0.005) for i in range(80)
        ]
        controller = OnlineController(
            tiny_model, events=[NodeFailure(0.2, "a100-0")],
            replan_lns_rounds=1, replan_time_limit=0.5, replan_delay=0.25,
        )
        sim = Simulation(
            small_cluster, tiny_model, placement, scheduler, requests,
            max_time=10.0, seed=0, controller=controller,
        )
        metrics = sim.run()
        assert metrics.requests_finished == 80
        record = controller.replans[-1]
        assert record.status == "applied"
        # The deferred swap back-fills the migration count when it applies.
        assert record.migrated >= 0
        assert "a100-0" not in sim.placement.used_nodes

    def test_deferred_swap_cut_by_horizon_stays_scheduled(
        self, small_cluster, tiny_model
    ):
        placement = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
        )
        flow = FlowGraph(small_cluster, tiny_model, placement).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement, flow=flow
        )
        requests = [Request(f"r{i}", 32, 50) for i in range(20)]
        controller = OnlineController(
            tiny_model, events=[NodeFailure(0.4, "t4-1")],
            replan_lns_rounds=1, replan_time_limit=0.5, replan_delay=10.0,
        )
        sim = Simulation(
            small_cluster, tiny_model, placement, scheduler, requests,
            max_time=0.5, seed=0, controller=controller,  # swap never lands
        )
        sim.run()
        assert [r.status for r in controller.replans] == ["scheduled"]
        assert controller.applied_replans == []

    def test_node_join_expands_the_cluster(self, small_cluster, tiny_model):
        from repro.cluster import L4

        placement = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
        )
        flow = FlowGraph(small_cluster, tiny_model, placement).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement, flow=flow
        )
        requests = [
            Request(f"r{i}", 32, 6, arrival_time=i * 0.002) for i in range(200)
        ]
        join = NodeJoin(0.2, node_id="l4-new", gpu=L4, region="r0")
        controller = OnlineController(
            tiny_model, events=[join], replan_lns_rounds=1,
            replan_time_limit=0.5,
        )
        sim = Simulation(
            small_cluster, tiny_model, placement, scheduler, requests,
            max_time=5.0, seed=0, controller=controller,
        )
        metrics = sim.run()
        assert metrics.requests_finished == 200
        assert "l4-new" in small_cluster.node_ids
        assert controller.replans[-1].status == "applied"
        # The joined node was put to work by the replan.
        assert "l4-new" in sim.placement.used_nodes

    def test_seeded_runs_are_reproducible(self, small_cluster, tiny_model):
        placement = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
        )

        def run(seed):
            events = random_churn(
                small_cluster.node_ids,
                ChurnConfig(
                    duration=2.0,
                    mean_time_to_failure=0.6,
                    mean_time_to_recovery=0.4,
                ),
                seed=seed,
            )
            flow = FlowGraph(small_cluster, tiny_model, placement).solve()
            scheduler = HelixScheduler(
                small_cluster, tiny_model, placement, flow=flow
            )
            requests = [
                Request(f"r{i}", 24, 5, arrival_time=i * 0.004)
                for i in range(150)
            ]
            controller = OnlineController(
                tiny_model, events=events, replan_lns_rounds=1,
                replan_time_limit=0.5,
            )
            sim = Simulation(
                small_cluster, tiny_model, placement, scheduler, requests,
                max_time=6.0, seed=seed, controller=controller,
            )
            metrics = sim.run()
            for nid in list(sim.down_nodes):
                sim.cluster.set_node_available(nid, True)  # reset fixture
            return (
                metrics.decode_throughput,
                metrics.requests_finished,
                metrics.requests_retried,
                metrics.tokens_lost,
                tuple(t for t, _ in controller.event_log),
            )

        first = run(seed=7)
        second = run(seed=7)
        different = run(seed=8)
        assert first == second
        assert first[4] != different[4]  # the churn schedule moved


class TestChurnGeneration:
    def test_random_churn_is_deterministic(self):
        config = ChurnConfig(
            duration=100.0,
            mean_time_to_failure=10.0,
            mean_time_to_recovery=5.0,
            link_mean_time_to_degrade=15.0,
        )
        nodes = [f"n{i}" for i in range(6)]
        links = [("n0", "n1"), ("n2", "n3")]
        a = random_churn(nodes, config, seed=3, link_keys=links)
        b = random_churn(nodes, config, seed=3, link_keys=links)
        assert a == b
        assert a != random_churn(nodes, config, seed=4, link_keys=links)

    def test_random_churn_pairs_failures_with_recoveries(self):
        config = ChurnConfig(
            duration=200.0, mean_time_to_failure=8.0, mean_time_to_recovery=4.0
        )
        events = random_churn([f"n{i}" for i in range(4)], config, seed=0)
        failures = [e for e in events if isinstance(e, NodeFailure)]
        recoveries = [e for e in events if isinstance(e, NodeRecovery)]
        assert failures and len(failures) == len(recoveries)
        assert events == sorted(events, key=lambda e: e.time)
        # max_concurrent_failures=1: failures never overlap.
        down_until = 0.0
        for failure in failures:
            assert failure.time >= down_until
            recovery = next(
                r for r in recoveries if r.node_id == failure.node_id
                and r.time > failure.time
            )
            down_until = recovery.time

    def test_link_churn_emits_degradations(self):
        config = ChurnConfig(
            duration=300.0,
            mean_time_to_failure=1e9,  # node churn off
            mean_time_to_recovery=1.0,
            link_mean_time_to_degrade=10.0,
            link_degradation_factor=0.25,
        )
        events = random_churn(
            ["n0", "n1"], config, seed=1, link_keys=[("n0", "n1")]
        )
        degradations = [e for e in events if isinstance(e, LinkDegradation)]
        repairs = [e for e in events if isinstance(e, LinkRecovery)]
        assert degradations and len(degradations) == len(repairs)
        assert all(e.factor == 0.25 for e in degradations)


class TestDisruptionMetrics:
    def test_goodput_timeline_buckets(self):
        times = [0.1, 0.2, 1.5, 2.1, 2.2, 2.3, 9.9]
        timeline = goodput_timeline(times, window=1.0, end_time=3.0)
        assert timeline == [(0.0, 2.0), (1.0, 1.0), (2.0, 3.0)]
        assert goodput_timeline([], window=1.0, end_time=0.5) == []
        with pytest.raises(ValueError, match="window"):
            goodput_timeline(times, window=0.0, end_time=3.0)

    def test_goodput_timeline_horizon_end_token_joins_final_bucket(self):
        # A token emitted exactly at the covered horizon end must land in
        # the final bucket, not a phantom bucket past the horizon.
        timeline = goodput_timeline([0.5, 1.5, 3.0], window=1.0, end_time=3.0)
        assert timeline == [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]
        # Past the horizon (not exactly on it) is still dropped.
        timeline = goodput_timeline([0.5, 3.25], window=1.0, end_time=3.0)
        assert timeline == [(0.0, 1.0), (1.0, 0.0), (2.0, 0.0)]

    def test_goodput_timeline_rejects_non_multiple_window(self):
        # Bucketed token times only reproduce the exact curve when the
        # window is an integer multiple of the timeline resolution.
        with pytest.raises(ValueError, match="multiple"):
            goodput_timeline(
                [0.1], window=0.75, end_time=3.0, resolution=0.5
            )
        with pytest.raises(ValueError, match="resolution"):
            goodput_timeline(
                [0.1], window=1.0, end_time=3.0, resolution=0.0
            )
        assert goodput_timeline(
            [0.1], window=1.0, end_time=1.0, resolution=0.5
        ) == [(0.0, 1.0)]

    def test_goodput_timeline_excludes_pre_window_tokens(self):
        # int() truncates toward zero: a token at start-0.5 must not land
        # in bucket 0.
        timeline = goodput_timeline(
            [4.5, 5.5], window=1.0, end_time=10.0, start=5.0
        )
        assert timeline[0] == (5.0, 1.0)

    def test_disruption_report_math(self):
        # 10 tok/s for 10s, outage at 10-12, 8 tok/s afterwards.
        times = [i * 0.1 for i in range(100)]
        times += [12.0 + i * 0.125 for i in range(64)]
        report = disruption_report(
            times,
            window=2.0,
            end_time=20.0,
            first_disruption=10.0,
            recovered_from=12.0,
            replan_latencies=[0.5, 0.3],
            requests_retried=3,
        )
        assert report.pre_disruption_goodput == pytest.approx(10.0)
        assert report.post_recovery_goodput == pytest.approx(8.0)
        assert report.recovery_ratio == pytest.approx(0.8)
        # The outage bucket [10, 12) is dead; goodput regains 70% of its
        # pre-disruption level in the bucket starting at 12.
        assert report.time_to_recovery == pytest.approx(2.0)
        assert report.replan_count == 2
        assert report.replan_latency_max == pytest.approx(0.5)
        assert report.requests_retried == 3
        assert "recovery 80%" in report.summary()

    def test_disruption_report_without_pre_window(self):
        report = disruption_report(
            [0.5, 1.5],
            window=1.0,
            end_time=2.0,
            first_disruption=0.0,
            recovered_from=0.0,
        )
        assert math.isnan(report.pre_disruption_goodput)
        assert math.isnan(report.recovery_ratio)


class TestReplanEntryPoint:
    def test_replan_improves_unservable_base(self, small_cluster, tiny_model):
        base = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
        )
        survivors = small_cluster.subcluster(["l4-0", "t4-0", "t4-1"])
        planner = HelixMilpPlanner(
            survivors, tiny_model, time_limit=5.0,
            lns_time_limit=0.5, mip_rel_gap=0.05,
        )
        result = planner.replan(base=base, lns_rounds=1)
        assert result.max_throughput > 0
        result.placement.validate()
        assert set(result.placement.used_nodes) <= {"l4-0", "t4-0", "t4-1"}

    def test_replan_keeps_servable_base_value(self, small_cluster, tiny_model):
        base = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
        )
        planner = HelixMilpPlanner(
            small_cluster, tiny_model, time_limit=5.0,
            lns_time_limit=0.5, mip_rel_gap=0.05,
        )
        base_value = planner.placement_throughput(base)
        result = planner.replan(base=base, lns_rounds=2)
        assert result.max_throughput >= base_value - 1e-6


@pytest.mark.perf
def test_online_churn_bench_meets_acceptance(tmp_path):
    """The fig12-small kill-a-planned-node scenario, tier-1 sized.

    Acceptance: windowed goodput recovers to >= 70% of its pre-failure
    level after the repaired placement applies, and the replanning itself
    rides the incremental paths (warm-started LNS re-solve < 2 s wall).
    """
    import json

    from repro.bench.perftrack import run_online_bench

    path = tmp_path / "BENCH_online.json"
    doc = run_online_bench(smoke=True, path=path)
    assert path.exists()
    on_disk = json.loads(path.read_text())
    assert on_disk["derived"] == doc["derived"]
    derived = doc["derived"]
    assert derived["online_recovery_ratio"] >= 0.7, (
        "fig12 churn scenario failed to recover: "
        f"ratio {derived['online_recovery_ratio']:.2f}"
    )
    assert derived["online_replan_wall_s"] < 2.0
    assert derived["online_replan_count"] >= 1
    assert derived["online_requests_retried"] > 0
    assert derived["online_kv_overflows"] == 0


class TestScheduleValidation:
    """validate_schedule rejects malformed schedules before the run."""

    def test_valid_schedule_passes(self, small_cluster):
        from repro.online import validate_schedule

        validate_schedule(
            [
                NodeFailure(1.0, "a100-0"),
                NodeRecovery(2.0, "a100-0"),
                LinkDegradation(3.0, "a100-0", "l4-0"),
                LinkRecovery(4.0, "a100-0", "l4-0"),
            ],
            small_cluster,
        )

    def test_negative_time_rejected(self, small_cluster):
        from repro.core.errors import ClusterError
        from repro.online import validate_schedule

        with pytest.raises(ClusterError, match="negative time"):
            validate_schedule([NodeFailure(-1.0, "a100-0")], small_cluster)

    def test_unknown_node_rejected(self, small_cluster):
        from repro.core.errors import ClusterError
        from repro.online import validate_schedule

        with pytest.raises(ClusterError, match="unknown node"):
            validate_schedule([NodeFailure(1.0, "nope-0")], small_cluster)

    def test_unknown_link_rejected(self, small_cluster):
        from repro.core.errors import ClusterError
        from repro.online import validate_schedule

        with pytest.raises(ClusterError, match="unknown link"):
            validate_schedule(
                [LinkDegradation(1.0, "a100-0", "nope-0")], small_cluster
            )

    def test_recovery_without_failure_rejected(self, small_cluster):
        from repro.core.errors import ClusterError
        from repro.online import validate_schedule

        with pytest.raises(ClusterError, match="never failed"):
            validate_schedule([NodeRecovery(1.0, "a100-0")], small_cluster)

    def test_zombie_counts_as_failure_for_recovery(self, small_cluster):
        from repro.online import ZombieNode, validate_schedule

        validate_schedule(
            [ZombieNode(1.0, "t4-0"), NodeRecovery(5.0, "t4-0")],
            small_cluster,
        )

    def test_overlapping_partitions_rejected(self, small_cluster):
        from repro.core.errors import ClusterError
        from repro.online import validate_schedule

        with pytest.raises(ClusterError, match="overlaps"):
            validate_schedule(
                [
                    NetworkPartition(1.0, ("a100-0",), ("t4-0",)),
                    NetworkPartition(2.0, ("a100-0",), ("t4-1",)),
                ],
                small_cluster,
            )

    def test_healed_partition_allows_reuse(self, small_cluster):
        from repro.online import validate_schedule

        validate_schedule(
            [
                NetworkPartition(1.0, ("a100-0",), ("t4-0",)),
                PartitionHeal(2.0, ("a100-0",), ("t4-0",)),
                NetworkPartition(3.0, ("a100-0",), ("t4-1",)),
            ],
            small_cluster,
        )

    def test_node_join_collision_rejected(self, small_cluster):
        from repro.cluster import T4
        from repro.core.errors import ClusterError
        from repro.online import validate_schedule

        with pytest.raises(ClusterError, match="collides"):
            validate_schedule(
                [NodeJoin(1.0, "a100-0", gpu=T4)], small_cluster
            )

    def test_controller_start_validates(self, small_cluster, tiny_model,
                                        placement8):
        from repro.core.errors import ClusterError

        requests = [Request("r0", 16, 2)]
        flow = FlowGraph(small_cluster, tiny_model, placement8).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement8, flow=flow
        )
        controller = OnlineController(
            tiny_model, events=[NodeFailure(1.0, "typo-node")], replan=False
        )
        sim = Simulation(
            small_cluster, tiny_model, placement8, scheduler, requests,
            controller=controller,
        )
        with pytest.raises(ClusterError, match="unknown node"):
            sim.run()


class TestDetectorDeterminism:
    """Same seed + schedule => identical detection behavior (satellite)."""

    @staticmethod
    def _run_chaos(seed):
        from repro.bench.runner import make_scheduler
        from repro.scenarios.generator import generate_scenario
        from repro.testkit.harness import _plan

        scenario = generate_scenario("chaos", seed, "smoke")
        _, _, planner_result = _plan(scenario)
        scheduler = make_scheduler(
            scenario.scheduler_method, scenario.cluster, scenario.model,
            planner_result, seed=scenario.seed,
        )
        controller = OnlineController(
            scenario.model, events=scenario.churn, replan=False,
            detection_mode=True,
        )
        sim = Simulation(
            scenario.cluster, scenario.model, planner_result.placement,
            scheduler, scenario.requests, max_time=scenario.max_time,
            seed=scenario.seed, controller=controller,
            policy=scenario.policy, debug_validate=True,
        )
        sim.run()
        detector = controller.detector
        return (
            detector.timeline,
            controller.detections,
            detector.false_positives,
            detector.heartbeats_sent,
            detector.heartbeats_dropped,
            sim.token_timeline,
        )

    @pytest.mark.parametrize("seed", [0, 3])
    def test_same_seed_identical_detection(self, seed):
        first = self._run_chaos(seed)
        second = self._run_chaos(seed)
        assert first == second

    def test_detection_actually_happens(self):
        timeline, detections, false_positives, *_ = self._run_chaos(0)
        assert detections, "seed 0 must exercise a confirmed detection"
        assert false_positives == 0
        assert any(row[1].startswith("suspect:") for row in timeline)
        assert any(row[1].startswith("confirm:") for row in timeline)


class TestPhiAccrualPaths:
    """Exercise the heartbeat/phi branches the watchdog usually shadows."""

    def test_crash_detected_by_phi_when_watchdog_disabled(
        self, small_cluster, tiny_model, placement8
    ):
        from repro.online import DetectorConfig

        requests = [
            Request(f"r{i}", 32, 8, arrival_time=i * 0.2) for i in range(60)
        ]
        flow = FlowGraph(small_cluster, tiny_model, placement8).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement8, flow=flow
        )
        controller = OnlineController(
            tiny_model,
            events=[NodeFailure(2.0, "a100-0")],
            replan=False,
            detection_mode=True,
            # Effectively disable the progress watchdog so the missing
            # heartbeats (phi accrual) must carry the detection.
            detector_config=DetectorConfig(zombie_timeout=1e9),
        )
        sim = Simulation(
            small_cluster, tiny_model, placement8, scheduler, requests,
            max_time=60.0, seed=0, controller=controller,
        )
        metrics = sim.run()
        assert len(controller.detections) == 1
        _, node_id, kind, mttd = controller.detections[0]
        assert node_id == "a100-0"
        assert kind == "crash"
        assert 0.0 < mttd < 15.0
        assert controller.detector.false_positives == 0
        assert metrics.requests_finished == 60

    def test_flap_clears_suspicion_damps_threshold_and_counts_fp(self):
        """A late heartbeat while suspected = a flap: clear + damp + FP."""
        from repro.online import DetectorConfig, FailureDetector

        class FakeSim:
            def __init__(self):
                self.now = 0.0
                self.down_nodes = set()
                self.channels = {}
                self.executors = {}
                self.fault_times = {}
                self.scheduled = []

            def schedule_event(self, when, fn):
                self.scheduled.append((when, fn))

            def node_health(self, node_id):
                return "up"

        from repro.online.detect import _NodeState

        sim = FakeSim()
        config = DetectorConfig(min_samples=3, phi_threshold=2.0)
        detector = FailureDetector(sim, config)
        detector._nodes["n0"] = state = _NodeState(0.0, config.phi_threshold)
        # Three on-time heartbeats establish the interval window.
        for t in (0.25, 0.5, 0.75):
            sim.now = t
            detector._on_heartbeat("n0")
        assert len(state.intervals) == 3
        # Silence long enough that phi crosses the threshold.
        sim.now = 3.0
        detector._check()
        assert detector.suspected == {"n0": "crash"}
        assert (3.0, "suspect:crash", "n0") in detector.timeline
        # The node heartbeats after all: suspicion clears, the threshold
        # damps, and (no ground-truth fault) a false positive is counted.
        sim.now = 3.1
        detector._on_heartbeat("n0")
        assert detector.suspected == {}
        assert state.threshold == config.phi_threshold * config.flap_damping
        assert detector.false_positives == 1
        assert any(row[1] == "clear:crash" for row in detector.timeline)
