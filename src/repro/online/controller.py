"""The online control loop: observe churn, rewrite flows, replan, hot-swap.

:class:`OnlineController` turns the static plan-once pipeline into a closed
loop. It registers a churn schedule with the simulator's event loop and,
after each event, reacts in two tiers that mirror the repo's two
incremental machines:

1. **Fast path — flow rewrite.** The reference placement restricted to
   surviving nodes is pushed through a persistent
   :meth:`FlowGraph.reevaluate() <repro.flow.graph.FlowGraph.reevaluate>`
   (the PR-1 incremental evaluator: only capacities of changed edges are
   rewritten). If the degraded placement still carries flow, the solution
   is hot-swapped into the scheduler's IWRR selectors whenever a repaired
   placement is not about to land in the same instant — replanning
   disabled, delayed (``replan_delay``), or failed — so serving continues
   on the surviving replicas.
2. **Slow path — warm-started replanning.**
   :meth:`HelixMilpPlanner.replan()
   <repro.placement.helix_milp.HelixMilpPlanner.replan>` runs the PR-2
   incremental LNS loop around the degraded placement on the subcluster of
   available nodes, producing a *repaired* placement that re-spreads the
   lost layers. Its flow solution is hot-swapped the same way; requests
   whose pipelines the swap invalidates are migrated through the pending
   queue.

Replanning happens outside simulated time by default (its wall-clock cost
is recorded as telemetry); set ``replan_delay`` to also charge a
deterministic amount of simulated seconds, keeping seeded runs exactly
reproducible while modeling a control-plane reaction time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.cluster.profiler import Profiler
from repro.core.errors import ClusterError, PlacementError, SolverError
from repro.core.placement_types import ModelPlacement
from repro.flow.graph import FlowGraph
from repro.models.specs import ModelSpec
from repro.online.detect import DetectorConfig, FailureDetector
from repro.online.events import (
    ClusterEvent,
    LinkDegradation,
    LinkRecovery,
    NetworkPartition,
    NodeFailure,
    NodeJoin,
    NodeRecovery,
    validate_schedule,
)
from repro.sim.metrics import DisruptionReport, disruption_report


@dataclass
class ReplanRecord:
    """Telemetry of one replanning reaction.

    Mutable because a delayed replan (``replan_delay > 0``) fills in
    ``migrated`` only when the deferred swap actually applies.

    Attributes:
        sim_time: Simulation time of the triggering event.
        wall_seconds: Wall-clock cost of the warm-started LNS replan.
        throughput: Max-flow throughput of the repaired placement
            (NaN when the replan failed).
        migrated: Requests migrated when the repaired placement applied.
        status: ``"applied"``, ``"scheduled"`` (a delayed swap that has
            not taken effect yet — it stays that way if the simulation
            horizon cuts it off), ``"degraded-only"`` (fast path worked
            but the replan found nothing servable), or ``"failed"``
            (neither tier produced a servable configuration; requests
            queue until the next recovery event).
    """

    sim_time: float
    wall_seconds: float
    throughput: float
    migrated: int
    status: str


class OnlineController:
    """Reacts to cluster churn by rewriting flows and replanning live.

    Args:
        model: The served model (replanning needs it).
        events: The churn schedule (scripted or generated). Sorted
            internally; events beyond the simulation horizon never fire.
        profiler: Performance model; must match the serving profiler.
        replan: Master switch for the slow path. With it off the
            controller only masks/unmasks nodes and rewrites flows — the
            "no replanning" ablation.
        replan_lns_rounds: LNS rounds per replanning.
        replan_time_limit: Per-round LNS solver budget in seconds.
        replan_delay: Simulated seconds between an event and its repaired
            placement taking effect (0 = instantaneous). Deterministic, so
            seeded runs reproduce exactly.
        partial_inference: Forwarded to the replanner.
        planner_factory: ``factory(subcluster) -> planner`` override; the
            planner must expose ``replan(base, lns_rounds)``. Default
            builds a :class:`~repro.placement.helix_milp.HelixMilpPlanner`
            configured for incremental re-solves.
    """

    def __init__(
        self,
        model: ModelSpec,
        events: Iterable[ClusterEvent] = (),
        profiler: Profiler | None = None,
        replan: bool = True,
        replan_lns_rounds: int = 2,
        replan_time_limit: float = 1.0,
        replan_delay: float = 0.0,
        partial_inference: bool = True,
        planner_factory: Callable | None = None,
        detection_mode: bool = False,
        detector_config: DetectorConfig | None = None,
        replan_retries: int = 2,
        replan_retry_backoff: float = 0.5,
        autoscaler=None,
    ) -> None:
        self.model = model
        self.events = sorted(events, key=lambda e: e.time)
        self.profiler = profiler or Profiler()
        self.replan = replan
        self.replan_lns_rounds = replan_lns_rounds
        self.replan_time_limit = replan_time_limit
        self.replan_delay = replan_delay
        self.partial_inference = partial_inference
        self.planner_factory = planner_factory
        #: With detection on, node failures happen *silently*
        #: (``fail_node(announce=False)``) and the controller reacts only
        #: when its failure detector confirms the node — measuring true
        #: MTTD/MTTR instead of assuming an oracle announcement.
        self.detection_mode = detection_mode
        self.detector_config = detector_config
        self.replan_retries = replan_retries
        self.replan_retry_backoff = replan_retry_backoff
        #: Optional :class:`~repro.online.autoscale.Autoscaler`; attached
        #: to the simulation in :meth:`start` so its periodic backlog
        #: checks ride the same event loop as the churn schedule.
        self.autoscaler = autoscaler
        self.detector: FailureDetector | None = None
        #: One ``(sim_time, node_id, kind, mttd)`` row per confirmed
        #: detection; ``mttd`` is NaN for a false positive.
        self.detections: list[tuple[float, str, str, float]] = []
        self._replan_attempt = 0

        #: ``(sim_time, description)`` log of applied events.
        self.event_log: list[tuple[float, str]] = []
        #: Times of disruptive events (failures, degradations, partitions).
        self.disruption_times: list[float] = []
        #: One :class:`ReplanRecord` per reaction.
        self.replans: list[ReplanRecord] = []
        self._flow_graph: FlowGraph | None = None
        # Planners cached by available-node membership, so a recovery that
        # restores a previously-seen membership replans on the already
        # compiled formulation (the PR-2 incremental path end to end).
        self._planners: dict[frozenset, object] = {}
        # The last *planned* placement (initial plan or applied replan).
        # Tier 1 degrades this, never the already-degraded live placement,
        # so a recovery can restore a node's assignment even with
        # replanning disabled.
        self._reference_placement: ModelPlacement | None = None

    # ------------------------------------------------------------------
    # Simulation hook-in
    # ------------------------------------------------------------------
    def start(self, sim) -> None:
        """Register the churn schedule with a simulation's event loop.

        Called by :meth:`Simulation.run` before the first event pops. The
        schedule is validated against the starting cluster first, so a
        malformed scenario fails here with a clear error instead of
        somewhere mid-run.
        """
        validate_schedule(self.events, sim.cluster)
        for event in self.events:
            sim.schedule_event(
                event.time, lambda s, ev=event: self._handle(s, ev)
            )
        if self.detection_mode:
            self.detector = FailureDetector(
                sim, self.detector_config, on_confirm=self._on_confirmed
            )
            self.detector.start()
        if self.autoscaler is not None:
            self.autoscaler.attach(sim, self)

    def _handle(self, sim, event: ClusterEvent) -> None:
        if self.detection_mode and type(event) is NodeFailure:
            # The crash is silent: only the physical half happens, and the
            # control plane learns nothing until the detector confirms.
            sim.fail_node(event.node_id, announce=False)
            self.event_log.append(
                (sim.now, f"node {event.node_id} failed silently (undetected)")
            )
            self.disruption_times.append(sim.now)
            return
        description = sim.apply_event(event)
        self.event_log.append((sim.now, description))
        if event.is_disruptive:
            self.disruption_times.append(sim.now)
        if isinstance(event, NodeJoin):
            # Structural change: the incremental evaluator's edge registry
            # no longer covers the cluster; rebuild lazily.
            self._flow_graph = None
        if isinstance(
            event,
            (
                NodeJoin,
                NodeRecovery,
                LinkDegradation,
                LinkRecovery,
                NetworkPartition,
            ),
        ):
            # Cached planners snapshot link objects/capacities; any event
            # that changes links (join, degradation, partition, repair —
            # PartitionHeal subclasses NetworkPartition) or the available
            # subcluster itself (join, recovery) invalidates them: a
            # recovery restores a node whose links a cached planner built
            # while it was down.
            self._planners.clear()
        if event.triggers_replan:
            self.react(sim)

    def _on_confirmed(self, sim, node_id: str, kind: str) -> None:
        """Detector callback: complete the failure and replan around it."""
        mttd = sim.confirm_node_failure(node_id)
        self.detections.append((sim.now, node_id, kind, mttd))
        self.event_log.append(
            (
                sim.now,
                f"detector confirmed {node_id} dead ({kind}, "
                f"mttd={mttd:.3f}s)",
            )
        )
        if sim.debug_validate:
            sim.cluster.validate()
        self.react(sim)

    # ------------------------------------------------------------------
    # The two-tier reaction
    # ------------------------------------------------------------------
    def _degraded_placement(self, sim) -> ModelPlacement | None:
        """The reference placement restricted to available nodes.

        The reference is the last *planned* placement, not the live one: a
        tier-1 swap already dropped failed nodes from ``sim.placement``,
        and degrading that again would forget their assignments — a later
        recovery could then never restore them without a full replan.
        """
        reference = self._reference_placement or sim.placement
        intervals = {
            nid: (stage.start, stage.end)
            for nid, stage in reference.assignments.items()
            if sim.cluster.node_available(nid)
        }
        if not intervals:
            return None
        return ModelPlacement.from_intervals(reference.num_layers, intervals)

    def _ensure_flow_graph(
        self, sim, placement: ModelPlacement
    ) -> tuple[FlowGraph, bool]:
        """The persistent incremental evaluator, plus whether it was just
        built (a fresh graph already reflects current link bandwidths, so
        ``refresh_links`` cannot report what changed before it existed)."""
        if self._flow_graph is None:
            self._flow_graph = FlowGraph(
                sim.cluster, self.model, placement, self.profiler,
                self.partial_inference,
            )
            return self._flow_graph, True
        return self._flow_graph, False

    def react(self, sim) -> ReplanRecord:
        """Run both reaction tiers and record the outcome."""
        if self._reference_placement is None:
            self._reference_placement = sim.placement
        # Tier 1: incremental flow rewrite over the surviving replicas.
        degraded = self._degraded_placement(sim)
        degraded_flow = None
        flow_state_changed = False
        if degraded is not None:
            try:
                graph, created = self._ensure_flow_graph(sim, degraded)
                flow_state_changed = created or bool(graph.refresh_links())
                solution = graph.reevaluate(degraded)
                if solution.max_flow > 0:
                    degraded_flow = solution
            except PlacementError:
                degraded_flow = None  # survivors cannot cover the model
        degraded_useful = degraded_flow is not None and (
            flow_state_changed
            or degraded.assignments != sim.placement.assignments
        )
        # Skip the tier-1 hot-swap when nothing changed (e.g. a recovery of
        # a node the current placement does not use) — rebuilding selectors
        # mid-serving discards IWRR interleaving state for no gain — and
        # when an *instantaneous* tier-2 replan will supersede it within
        # this same call anyway (replan on, no delay). With a delay, the
        # degraded swap bridges the gap until the repaired placement lands.
        if degraded_useful and (not self.replan or self.replan_delay > 0):
            sim.apply_placement(degraded, degraded_flow)
            degraded_useful = False  # applied; not available as a fallback

        def fallback(wall: float) -> ReplanRecord:
            """Record serving on the surviving replicas (or on nothing)."""
            record = ReplanRecord(
                sim_time=sim.now,
                wall_seconds=wall,
                throughput=(
                    degraded_flow.max_flow if degraded_flow else math.nan
                ),
                migrated=0,
                status="degraded-only" if degraded_flow else "failed",
            )
            self.replans.append(record)
            return record

        if not self.replan:
            return fallback(0.0)

        # Tier 2: warm-started incremental LNS replanning on the subcluster.
        start = time.perf_counter()
        result = None
        try:
            membership = frozenset(sim.cluster.available_node_ids)
            planner = self._planners.get(membership)
            if planner is None:
                planner = self._make_planner(sim.cluster.subcluster())
                self._planners[membership] = planner
            residency = getattr(sim, "residency", None)
            if residency is not None and hasattr(
                planner, "set_residency_hint"
            ):
                # Residency-aware replanning: candidates whose layers are
                # already in VRAM score a warm-start bonus, so the repair
                # prefers a pre-warmed spare over a cold one — lower MTTR.
                planner.set_residency_hint(
                    residency.snapshot(),
                    warm_bonus=residency.config.warm_bonus,
                )
            result = planner.replan(
                base=degraded, lns_rounds=self.replan_lns_rounds
            )
        except (ClusterError, PlacementError, SolverError):
            result = None
        wall = time.perf_counter() - start

        if result is None:
            if degraded_useful:
                # The skipped tier-1 swap becomes the fallback: serve on
                # the surviving replicas since no repair materialized.
                sim.apply_placement(degraded, degraded_flow)
            record = fallback(wall)
            # A failed replan (solver error or no servable repair) retries
            # with exponential backoff instead of giving up until the next
            # event: transient solver failures should not strand the run
            # on a degraded placement forever.
            if self._replan_attempt < self.replan_retries:
                delay = self.replan_retry_backoff * (
                    2.0 ** self._replan_attempt
                )
                self._replan_attempt += 1
                sim.schedule_event(
                    sim.now + delay, lambda s: self.react(s)
                )
            return record
        self._replan_attempt = 0

        placement, flow = result.placement, result.flow
        record = ReplanRecord(
            sim_time=sim.now,
            wall_seconds=wall,
            throughput=flow.max_flow,
            migrated=0,
            status="scheduled",
        )

        def apply(s, record=record):
            record.migrated = len(s.apply_placement(placement, flow))
            record.status = "applied"
            self._reference_placement = placement

        if self.replan_delay > 0:
            sim.schedule_event(sim.now + self.replan_delay, apply)
        else:
            apply(sim)
        self.replans.append(record)
        return record

    def _make_planner(self, subcluster):
        if self.planner_factory is not None:
            return self.planner_factory(subcluster)
        from repro.placement.helix_milp import HelixMilpPlanner

        return HelixMilpPlanner(
            subcluster,
            self.model,
            self.profiler,
            partial_inference=self.partial_inference,
            lns_time_limit=self.replan_time_limit,
            mip_rel_gap=0.05,
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def applied_replans(self) -> list[ReplanRecord]:
        """The replans whose repaired placement actually took effect."""
        return [r for r in self.replans if r.status == "applied"]

    def report(
        self,
        sim,
        window: float = 2.0,
        recovery_threshold: float = 0.7,
    ) -> DisruptionReport:
        """Assemble the run's :class:`~repro.sim.metrics.DisruptionReport`.

        Pre-disruption goodput is measured before the first disruptive
        event; post-recovery goodput after the last applied replan (plus
        its delay) settled. Call after :meth:`Simulation.run` returns.
        """
        end_time = min(sim.now, sim.max_time)
        timeline = sim.token_timeline
        if self.detection_mode and timeline:
            # The detector's heartbeat ticker keeps the event loop alive
            # all the way to the horizon; goodput windows past the last
            # emitted token would measure that idleness, not recovery.
            end_time = min(end_time, timeline[-1] + window)
        first_disruption = (
            self.disruption_times[0] if self.disruption_times else end_time
        )
        applied = self.applied_replans
        recovered_from = (
            applied[-1].sim_time + self.replan_delay
            if applied
            else first_disruption
        )
        # Control-plane reaction instants: detector confirmations and the
        # moments applied replans took effect. MTTR cannot precede the
        # last of these — goodput measured before the control plane even
        # reacted is survival, not recovery.
        reaction_times = [row[0] for row in self.detections]
        reaction_times.extend(
            r.sim_time + self.replan_delay for r in applied
        )
        records = sim.records
        return disruption_report(
            sim.token_timeline,
            window=window,
            end_time=end_time,
            first_disruption=first_disruption,
            recovered_from=recovered_from,
            requests_retried=sum(1 for r in records if r.retries > 0),
            requests_migrated=sum(1 for r in records if r.migrations > 0),
            tokens_lost=sum(r.tokens_lost for r in records),
            replan_latencies=[r.wall_seconds for r in applied],
            recovery_threshold=recovery_threshold,
            mttd_samples=[row[3] for row in self.detections],
            reaction_times=reaction_times,
            false_positives=(
                self.detector.false_positives if self.detector else 0
            ),
            requests_shed=sim.requests_shed,
            requests_lost=sim.requests_lost,
        )
