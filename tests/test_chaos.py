"""Gray-failure chaos suite: detection, lifecycle policy, fault injection.

The acceptance criteria of the robustness PR, as tier-1 smoke tests:

* killing the most-loaded node in detection mode confirms within a
  bounded MTTD with zero false positives on a fault-free control trace;
* request conservation (injected == finished + shed + lost + in-flight)
  holds on chaos scenario addresses;
* goodput recovers to >= 75% of its pre-fault level after detection;
* a default-constructed :class:`RequestPolicy` is bit-identical to the
  legacy (no-policy) semantics.
"""

import math

import pytest

from repro.core.placement_types import ModelPlacement
from repro.flow.graph import FlowGraph
from repro.online import (
    FlakyLink,
    NodeFailure,
    OnlineController,
    StragglerEnd,
    StragglerStart,
    ZombieNode,
)
from repro.scheduling import HelixScheduler
from repro.sim import Request, RequestPolicy, Simulation
from repro.testkit import assert_scenario_ok, check_chaos, verify_scenario


@pytest.fixture()
def placement8():
    return ModelPlacement.from_intervals(
        8, {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
    )


def make_simulation(cluster, model, placement, requests, **kwargs):
    flow = FlowGraph(cluster, model, placement).solve()
    scheduler = HelixScheduler(cluster, model, placement, flow=flow)
    return Simulation(cluster, model, placement, scheduler, requests, **kwargs)


def steady_trace(n, spacing, input_len=32, output_len=8):
    return [
        Request(f"r{i}", input_len, output_len, arrival_time=i * spacing)
        for i in range(n)
    ]


def assert_conserved(sim, metrics):
    __tracebackhide__ = True
    violations = check_chaos(sim, metrics)
    assert not violations, "\n".join(str(v) for v in violations)


# ----------------------------------------------------------------------
# Failure detection
# ----------------------------------------------------------------------
class TestDetection:
    def test_kill_most_loaded_node_confirms_within_bounded_mttd(
        self, small_cluster, tiny_model, placement8
    ):
        """A silent crash of the strongest node is confirmed, bounded MTTD."""
        requests = steady_trace(60, 0.2)
        controller = OnlineController(
            tiny_model,
            events=[NodeFailure(2.0, "a100-0")],
            replan=False,
            detection_mode=True,
        )
        sim = make_simulation(
            small_cluster, tiny_model, placement8, requests,
            max_time=60.0, seed=0, controller=controller, debug_validate=True,
        )
        metrics = sim.run()

        assert len(controller.detections) == 1
        _, node_id, _, mttd = controller.detections[0]
        assert node_id == "a100-0"
        assert 0.0 < mttd < 6.0
        assert controller.detector.false_positives == 0
        assert "a100-0" in sim.down_nodes
        # The replica absorbs the failure: everything still finishes.
        assert metrics.requests_finished == 60
        assert metrics.requests_retried > 0
        assert sim.dead_node_token_violations() == []
        assert_conserved(sim, metrics)

        report = controller.report(sim)
        assert report.mttd_mean == pytest.approx(mttd)
        assert report.false_positives == 0
        # End-to-end repair time: goodput regains its bar only after the
        # confirmation reacted, so detection always precedes recovery.
        # (The default 2 s window has no full pre-fault bucket before the
        # t=2 kill; 1 s buckets resolve the pre-fault goodput.)
        repair = controller.report(sim, window=1.0)
        assert math.isfinite(repair.mttr)
        assert repair.mttd_max <= repair.mttr

    def test_simultaneous_node_failures_are_all_detected(
        self, small_cluster, tiny_model, placement8
    ):
        """Two nodes dying at the same instant each get their own verdict.

        Regression guard for the detector's suspicion bookkeeping: a
        confirmation must not clear (or mask) the other node's pending
        suspicion.
        """
        requests = steady_trace(60, 0.2)
        controller = OnlineController(
            tiny_model,
            events=[NodeFailure(2.0, "a100-0"), NodeFailure(2.0, "l4-0")],
            replan=False,
            detection_mode=True,
        )
        sim = make_simulation(
            small_cluster, tiny_model, placement8, requests,
            max_time=60.0, seed=0, controller=controller,
        )
        metrics = sim.run()
        assert {row[1] for row in controller.detections} == {"a100-0", "l4-0"}
        for _, _, _, mttd in controller.detections:
            assert 0.0 < mttd < 6.0
        assert controller.detector.false_positives == 0
        assert sim.down_nodes >= {"a100-0", "l4-0"}
        # The surviving replica pair ({t4-1} x {t4-0}) carries the trace.
        assert metrics.requests_finished == 60
        assert sim.dead_node_token_violations() == []
        assert_conserved(sim, metrics)

    def test_fault_free_control_has_zero_false_positives(
        self, small_cluster, tiny_model, placement8
    ):
        """Detection over a healthy run: no suspicion survives, no FPs."""
        requests = steady_trace(40, 0.2)
        controller = OnlineController(
            tiny_model, events=[], replan=False, detection_mode=True
        )
        sim = make_simulation(
            small_cluster, tiny_model, placement8, requests,
            max_time=60.0, seed=0, controller=controller,
        )
        metrics = sim.run()
        assert controller.detections == []
        assert controller.detector.false_positives == 0
        assert controller.detector.heartbeats_sent > 0
        assert metrics.requests_finished == 40
        assert_conserved(sim, metrics)

    def test_detection_does_not_perturb_data_plane(
        self, small_cluster, tiny_model, placement8
    ):
        """Heartbeats ride a control plane: token timings are untouched."""
        requests = steady_trace(30, 0.1)
        plain = make_simulation(
            small_cluster, tiny_model, placement8, list(requests),
            max_time=60.0, seed=0,
        )
        plain_metrics = plain.run()

        controller = OnlineController(
            tiny_model, events=[], replan=False, detection_mode=True
        )
        detected = make_simulation(
            small_cluster, tiny_model, placement8, list(requests),
            max_time=60.0, seed=0, controller=controller,
        )
        detected_metrics = detected.run()

        assert detected.token_timeline == plain.token_timeline
        assert detected_metrics.requests_finished == plain_metrics.requests_finished
        assert detected_metrics.decode_tokens == plain_metrics.decode_tokens

    def test_goodput_recovers_after_detection(
        self, small_cluster, tiny_model, placement8
    ):
        """Post-detection goodput regains >= 75% of the pre-fault level."""
        requests = steady_trace(120, 0.25)
        controller = OnlineController(
            tiny_model,
            events=[NodeFailure(8.0, "a100-0")],
            replan=False,
            detection_mode=True,
        )
        sim = make_simulation(
            small_cluster, tiny_model, placement8, requests,
            max_time=90.0, seed=0, controller=controller,
        )
        metrics = sim.run()
        assert metrics.requests_finished == 120
        report = controller.report(sim)
        assert report.pre_disruption_goodput > 0
        assert report.recovery_ratio >= 0.75

    def test_zombie_is_detected_by_progress_watchdog(
        self, small_cluster, tiny_model, placement8
    ):
        """A zombie heartbeats forever; only the watchdog catches it."""
        requests = steady_trace(60, 0.2)
        controller = OnlineController(
            tiny_model,
            events=[ZombieNode(2.0, "a100-0")],
            replan=False,
            detection_mode=True,
        )
        sim = make_simulation(
            small_cluster, tiny_model, placement8, requests,
            max_time=60.0, seed=0, controller=controller, debug_validate=True,
        )
        metrics = sim.run()
        assert len(controller.detections) == 1
        _, node_id, kind, mttd = controller.detections[0]
        assert node_id == "a100-0"
        assert kind == "zombie"
        assert 0.0 < mttd < 6.0
        assert controller.detector.false_positives == 0
        assert metrics.requests_finished == 60
        assert sim.dead_node_token_violations() == []
        assert_conserved(sim, metrics)


# ----------------------------------------------------------------------
# Request lifecycle policy
# ----------------------------------------------------------------------
class TestRequestPolicy:
    def test_default_policy_is_legacy(self):
        assert RequestPolicy().is_legacy
        assert not RequestPolicy(max_retries=3).is_legacy

    def test_retry_delay_is_deterministic_and_backs_off(self):
        policy = RequestPolicy(retry_backoff=0.2, backoff_factor=2.0, jitter=0.5)
        d1 = policy.retry_delay("r0", 1)
        d2 = policy.retry_delay("r0", 2)
        assert d1 == policy.retry_delay("r0", 1)  # pure function
        assert d2 > d1  # exponential growth dominates the jitter
        assert policy.retry_delay("r0", 1) != policy.retry_delay("r1", 1)

    def test_default_policy_matches_no_policy_bit_identically(
        self, small_cluster, tiny_model, placement8
    ):
        requests = steady_trace(30, 0.1)
        legacy = make_simulation(
            small_cluster, tiny_model, placement8, list(requests),
            max_time=60.0, seed=0,
        )
        legacy_metrics = legacy.run()
        policied = make_simulation(
            small_cluster, tiny_model, placement8, list(requests),
            max_time=60.0, seed=0, policy=RequestPolicy(),
        )
        policied_metrics = policied.run()
        assert policied.token_timeline == legacy.token_timeline
        assert policied_metrics.requests_finished == legacy_metrics.requests_finished
        assert policied_metrics.decode_throughput == legacy_metrics.decode_throughput

    def test_admission_control_sheds_when_unschedulable(
        self, small_cluster, tiny_model, placement8
    ):
        """Both stage-0 replicas down: one request queues, the rest shed."""
        requests = steady_trace(10, 0.01, output_len=4)
        sim = make_simulation(
            small_cluster, tiny_model, placement8,
            [Request(r.request_id, r.input_len, r.output_len,
                     arrival_time=r.arrival_time + 0.05) for r in requests],
            max_time=10.0, seed=0,
            policy=RequestPolicy(max_pending=1, deadline=0.5),
        )
        sim.schedule_event(0.0, lambda s: s.fail_node("a100-0"))
        sim.schedule_event(0.0, lambda s: s.fail_node("t4-1"))
        metrics = sim.run()
        assert metrics.requests_shed == 9
        assert metrics.requests_lost == 1  # the queued one hits its deadline
        assert metrics.requests_finished == 0
        assert sim.in_flight_requests == 0
        assert_conserved(sim, metrics)

    def test_deadline_abandons_stuck_requests(
        self, small_cluster, tiny_model, placement8
    ):
        """Requests pending past their deadline are lost, not stuck."""
        requests = steady_trace(10, 0.01, output_len=4)
        sim = make_simulation(
            small_cluster, tiny_model, placement8,
            [Request(r.request_id, r.input_len, r.output_len,
                     arrival_time=r.arrival_time + 0.05) for r in requests],
            max_time=10.0, seed=0, policy=RequestPolicy(deadline=0.5),
        )
        sim.schedule_event(0.0, lambda s: s.fail_node("a100-0"))
        sim.schedule_event(0.0, lambda s: s.fail_node("t4-1"))
        metrics = sim.run()
        assert metrics.requests_lost == 10
        assert metrics.requests_finished == 0
        assert sim.in_flight_requests == 0
        assert_conserved(sim, metrics)

    def test_ttft_timeout_exhausts_retry_budget_on_zombie(
        self, small_cluster, tiny_model
    ):
        """With a single (zombie) serving node, the retry budget runs out."""
        placement = ModelPlacement.from_intervals(8, {"a100-0": (0, 8)})
        requests = [
            Request(f"r{i}", 32, 4, arrival_time=0.05 + i * 0.01)
            for i in range(5)
        ]
        sim = make_simulation(
            small_cluster, tiny_model, placement, requests,
            max_time=30.0, seed=0,
            policy=RequestPolicy(
                ttft_timeout=0.2, max_retries=1, retry_backoff=0.01,
            ),
        )
        sim.schedule_event(0.0, lambda s: s.make_zombie("a100-0"))
        metrics = sim.run()
        assert metrics.requests_lost == 5
        assert metrics.requests_finished == 0
        assert sim.in_flight_requests == 0
        assert_conserved(sim, metrics)

    def test_ttft_timeout_rescues_requests_from_zombie(
        self, small_cluster, tiny_model, placement8
    ):
        """With a replica available, TTFT retries route around the zombie."""
        requests = steady_trace(20, 0.05, output_len=4)
        sim = make_simulation(
            small_cluster, tiny_model, placement8, requests,
            max_time=60.0, seed=0,
            policy=RequestPolicy(
                ttft_timeout=0.3, max_retries=8, retry_backoff=0.02,
            ),
        )
        sim.schedule_event(0.2, lambda s: s.make_zombie("a100-0"))
        metrics = sim.run()
        # Every request ends terminal; the healthy replica serves retries.
        assert metrics.requests_finished + metrics.requests_lost == 20
        assert metrics.requests_finished > 0
        assert metrics.requests_retried > 0
        assert sim.in_flight_requests == 0
        assert_conserved(sim, metrics)

    def test_hedged_dispatch_races_a_straggler(
        self, small_cluster, tiny_model, placement8
    ):
        """Hedging launches a shadow attempt; the winner cancels the loser."""
        requests = [Request("r0", 64, 4, arrival_time=0.0)]
        sim = make_simulation(
            small_cluster, tiny_model, placement8, requests,
            max_time=30.0, seed=0,
            policy=RequestPolicy(hedge_after=0.05),
        )
        # Slow both stage-0 replicas so the first token cannot beat the
        # hedge timer.
        sim.set_compute_slowdown("a100-0", 50.0)
        sim.set_compute_slowdown("t4-1", 50.0)

        hedge_ids = []
        inner = sim.scheduler.schedule

        def spy(request_id, input_len):
            if request_id.endswith("#hedge"):
                hedge_ids.append(request_id)
            return inner(request_id, input_len)

        sim.scheduler.schedule = spy
        metrics = sim.run()
        assert hedge_ids == ["r0#hedge"]
        assert metrics.requests_finished == 1
        assert sim.in_flight_requests == 0
        assert sim.scheduler.active_requests == 0
        assert_conserved(sim, metrics)


# ----------------------------------------------------------------------
# Gray fault injection
# ----------------------------------------------------------------------
class TestGrayFaults:
    def test_straggler_slows_serving_and_restores_bit_identically(
        self, small_cluster, tiny_model, placement8
    ):
        requests = steady_trace(20, 0.05)
        baseline = make_simulation(
            small_cluster, tiny_model, placement8, list(requests),
            max_time=60.0, seed=0,
        )
        baseline_metrics = baseline.run()

        slow = make_simulation(
            small_cluster, tiny_model, placement8, list(requests),
            max_time=60.0, seed=0,
        )
        slow.schedule_event(
            0.0, lambda s, ev=StragglerStart(0.0, "a100-0", 8.0): s.apply_event(ev)
        )
        slow_metrics = slow.run()
        assert slow_metrics.requests_finished == 20
        assert slow_metrics.decode_throughput < baseline_metrics.decode_throughput

        # Straggle and recover before any work arrives: the run must be
        # bit-identical to the baseline (set_slowdown(1.0) restores the
        # executor exactly).
        restored = make_simulation(
            small_cluster, tiny_model, placement8, list(requests),
            max_time=60.0, seed=0,
        )
        restored.schedule_event(
            0.0, lambda s, ev=StragglerStart(0.0, "a100-0", 8.0): s.apply_event(ev)
        )
        restored.schedule_event(
            0.001, lambda s, ev=StragglerEnd(0.001, "a100-0"): s.apply_event(ev)
        )
        restored_metrics = restored.run()
        assert restored.token_timeline == baseline.token_timeline
        assert restored_metrics.decode_throughput == (
            baseline_metrics.decode_throughput
        )

    def test_flaky_link_delays_messages_but_conserves_tokens(
        self, small_cluster, tiny_model, placement8
    ):
        requests = steady_trace(20, 0.05)
        baseline = make_simulation(
            small_cluster, tiny_model, placement8, list(requests),
            max_time=60.0, seed=0,
        )
        baseline_metrics = baseline.run()

        flaky = make_simulation(
            small_cluster, tiny_model, placement8, list(requests),
            max_time=60.0, seed=0,
        )
        event = FlakyLink(0.0, "a100-0", "l4-0",
                          drop_probability=0.5, retransmit_delay=0.05)
        flaky.schedule_event(0.0, lambda s, ev=event: s.apply_event(ev))
        flaky_metrics = flaky.run()

        fault = flaky.channels[("a100-0", "l4-0")].fault
        assert fault is not None
        assert fault.messages > 0
        assert fault.drops > 0
        # TCP-style retransmits: every token still arrives, just later.
        assert flaky_metrics.requests_finished == 20
        assert flaky_metrics.decode_tokens == baseline_metrics.decode_tokens
        assert flaky_metrics.decode_throughput <= (
            baseline_metrics.decode_throughput
        )
        assert_conserved(flaky, flaky_metrics)

        flaky.clear_link_flaky("a100-0", "l4-0")
        assert flaky.channels[("a100-0", "l4-0")].fault is None
        assert flaky.channels[("l4-0", "a100-0")].fault is None

    def test_gray_mode_unlatches_when_every_fault_heals(
        self, small_cluster, tiny_model, placement8
    ):
        """Healing a flaky link restores the fault-free run.

        A flaky link that appears and fully heals *before any traffic
        crosses it* must leave a run indistinguishable from one that
        never saw a fault: exact token times and exact throughput.
        """
        requests = [
            Request(f"r{i}", 32, 8, arrival_time=1.0 + i * 0.05)
            for i in range(20)
        ]
        baseline = make_simulation(
            small_cluster, tiny_model, placement8, list(requests),
            max_time=60.0, seed=0,
        )
        baseline_metrics = baseline.run()

        healed = make_simulation(
            small_cluster, tiny_model, placement8, list(requests),
            max_time=60.0, seed=0,
        )
        healed.schedule_event(
            0.2, lambda s: s.set_link_flaky("a100-0", "l4-0", 0.5, 0.05)
        )
        healed.schedule_event(
            0.5, lambda s: s.clear_link_flaky("a100-0", "l4-0")
        )
        healed_metrics = healed.run()
        assert healed.token_timeline == baseline.token_timeline
        assert healed_metrics.decode_throughput == (
            baseline_metrics.decode_throughput
        )
        assert healed_metrics.requests_finished == 20

        # A heal in the middle of live traffic keeps the run conserved
        # even with drops and retransmits behind it.
        mid = make_simulation(
            small_cluster, tiny_model, placement8, steady_trace(20, 0.05),
            max_time=60.0, seed=0,
        )
        mid.schedule_event(
            0.2, lambda s: s.set_link_flaky("a100-0", "l4-0", 0.5, 0.05)
        )
        mid.schedule_event(
            2.0, lambda s: s.clear_link_flaky("a100-0", "l4-0")
        )
        mid_metrics = mid.run()
        assert mid_metrics.requests_finished == 20
        assert_conserved(mid, mid_metrics)

    def test_silent_failure_blackholes_until_confirmed(
        self, small_cluster, tiny_model, placement8
    ):
        """Unannounced crash: the scheduler keeps routing to the corpse."""
        requests = steady_trace(20, 0.05, output_len=4)
        sim = make_simulation(
            small_cluster, tiny_model, placement8, requests,
            max_time=30.0, seed=0,
        )
        sim.schedule_event(0.2, lambda s: s.fail_node("a100-0", announce=False))
        sim.schedule_event(2.0, lambda s: s.confirm_node_failure("a100-0"))
        metrics = sim.run()
        assert metrics.requests_finished == 20
        assert metrics.requests_retried > 0
        assert "a100-0" in sim.down_nodes
        assert sim.dead_node_token_violations() == []
        assert_conserved(sim, metrics)


# ----------------------------------------------------------------------
# Chaos scenario family (generated addresses)
# ----------------------------------------------------------------------
class TestChaosScenarios:
    @pytest.mark.parametrize("seed", range(3))
    def test_chaos_address_verifies(self, seed):
        """Invariants (incl. request conservation) hold, runs reproduce."""
        assert_scenario_ok(verify_scenario("chaos", seed, "smoke"))

    def test_legacy_families_are_unaffected(self):
        from repro.scenarios.generator import (
            SCENARIO_FAMILIES, generate_scenario,
        )
        for family in SCENARIO_FAMILIES:
            scenario = generate_scenario(family, 0, "smoke")
            assert scenario.detection is False
            assert scenario.policy is None

    def test_chaos_scenarios_carry_detection_and_policy(self):
        from repro.scenarios.generator import generate_scenario
        hit_policy = False
        for seed in range(6):
            scenario = generate_scenario("chaos", seed, "smoke")
            assert scenario.detection is True
            assert scenario.churn, "chaos scenarios must inject faults"
            hit_policy = hit_policy or scenario.policy is not None
        assert hit_policy
