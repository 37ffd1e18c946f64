"""Spans timed from outside the program, around calls into each layer.

The benchmark never edits ``src/``. Instead, :class:`Instrumentation`
rebinds each layer's public function where its caller looks it up (a
module global such as ``repro.testkit.harness.generate_scenario``, or a
method on its class such as ``Simulation.run``) for the duration of one
pass, and restores every binding afterwards.

Two levels exist:

* probes (always on in verify-control): ``Simulation.run``,
  ``repro.testkit.harness.run_scenario`` and
  ``repro.exp.runner.execute_cell`` are wrapped to time each cell at full
  precision and to read serving observables out of scenarios the harness
  simulates internally. A probe costs one wrapper call per simulation or
  cell, nothing per event;
* spans (``trace=True``): every layer boundary in :data:`SPAN_POINTS`
  records a span — name, start, end, parent — in memory. Spans are
  written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from dataclasses import dataclass, field

import repro.exp.runner as exp_runner
import repro.scenarios.workloads as scenario_workloads
import repro.trace.arrival as arrival
import repro.trace.azure as azure
from repro.flow.graph import FlowGraph
from repro.online.controller import OnlineController
from repro.placement.helix_milp import HelixMilpPlanner
from repro.placement.petals import PetalsPlanner
from repro.placement.separate import SeparatePipelinesPlanner
from repro.placement.swarm import SwarmPlanner
from repro.scheduling.base import Scheduler
from repro.sim.simulator import Simulation
from repro.tenancy.manager import TenantManager
from repro.testkit import harness

#: ``(owner, attribute, span name)``: every layer boundary the traced run
#: times. Owners are the objects callers resolve the name through.
SPAN_POINTS = (
    (harness, "generate_scenario", "scenarios.generate"),
    (azure, "synthesize_azure_trace", "trace.synth"),
    (arrival, "poisson_arrivals", "trace.synth"),
    (arrival, "diurnal_arrivals", "trace.synth"),
    (arrival, "offline_arrivals", "trace.synth"),
    (scenario_workloads, "synthesize_azure_trace", "trace.synth"),
    (scenario_workloads, "poisson_arrivals", "trace.synth"),
    (scenario_workloads, "diurnal_arrivals", "trace.synth"),
    (scenario_workloads, "offline_arrivals", "trace.synth"),
    (SwarmPlanner, "plan", "placement.plan"),
    (PetalsPlanner, "plan", "placement.plan"),
    (SeparatePipelinesPlanner, "plan", "placement.plan"),
    (HelixMilpPlanner, "plan", "placement.plan"),
    (HelixMilpPlanner, "build_formulation", "placement.build_formulation"),
    (HelixMilpPlanner, "replan", "placement.replan"),
    (FlowGraph, "solve", "flow.solve"),
    (FlowGraph, "reevaluate", "flow.reevaluate"),
    (Scheduler, "schedule", "scheduling.schedule"),
    (OnlineController, "react", "online.react"),
    (TenantManager, "select_tenant", "tenancy.select"),
    (harness, "check_planner_result", "testkit.check"),
    (harness, "check_simulation", "testkit.check"),
    (harness, "check_chaos", "testkit.check"),
    (harness, "check_elastic", "testkit.check"),
    (harness, "check_tenancy", "testkit.check"),
    (harness, "check_reevaluate_vs_rebuild", "testkit.flow_differential"),
)


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: ``[name_id, start, end, parent_index]`` rows (parent -1 = root).
        self.spans: list[list] = []
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> list:
        """Start a span under the innermost open one; returns its row."""
        stack = self._stack
        row = [self.name_id(name), time.perf_counter(), 0.0,
               stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(row)
        return row

    def close(self, row: list) -> None:
        row[2] = time.perf_counter()
        self._stack.pop()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, and self seconds.

        Self time is a span's duration minus the time its direct child
        spans cover (children nest strictly in a single-threaded pass).
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            for name in self.names
        }
        for index, (name_id, start, end, _) in enumerate(self.spans):
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out

    def dump(self, path) -> None:
        """Write every span as columns: names, name ids, start, end, parent."""
        origin = self.spans[0][1] if self.spans else 0.0
        document = {
            "names": self.names,
            "name": [row[0] for row in self.spans],
            "start_s": [round(row[1] - origin, 9) for row in self.spans],
            "end_s": [round(row[2] - origin, 9) for row in self.spans],
            "parent": [row[3] for row in self.spans],
        }
        path.write_text(json.dumps(document), encoding="utf-8")


@dataclass
class SimTotals:
    """Engine and modelled-cluster observables summed over simulations."""

    #: ``(start, end)`` perf_counter readings of every Simulation.run.
    run_intervals: list[tuple[float, float]] = field(default_factory=list)
    tokens: int = 0
    events_popped: int = 0
    fast_forwarded_tokens: int = 0
    vectorized_tokens: int = 0
    grouped_hops: int = 0
    node_utils: list[float] = field(default_factory=list)
    batch_tokens: int = 0
    batches: int = 0
    kv_peak_frac_max: float = 0.0
    kv_overflow_events: int = 0
    link_queue_delay_max_s: float = 0.0
    requests_retried: int = 0
    requests_migrated: int = 0
    tokens_lost: int = 0

    def add(
        self, sim: Simulation, interval: tuple[float, float], detail: bool
    ) -> None:
        """Count one finished run; ``detail`` adds the per-layer observables."""
        records = sim.records
        self.run_intervals.append(interval)
        self.tokens += sum(r.tokens_generated for r in records)
        if not detail:
            return
        self.events_popped += sim.events_popped
        self.fast_forwarded_tokens += sim.fast_forwarded_tokens
        self.vectorized_tokens += sim.vectorized_tokens
        self.grouped_hops += sim.grouped_hops
        duration = min(sim.now, sim.max_time)
        for executor in sim.executors.values():
            if duration > 0:
                self.node_utils.append(executor.utilization(duration))
            self.batch_tokens += executor.stats.tokens
            self.batches += executor.stats.batches
        for pool in sim.kv_pools.values():
            if pool.capacity_tokens > 0:
                self.kv_peak_frac_max = max(
                    self.kv_peak_frac_max,
                    pool.peak_tokens / pool.capacity_tokens,
                )
            self.kv_overflow_events += pool.overflow_events
        for channel in sim.channels.values():
            if channel.messages_sent:
                self.link_queue_delay_max_s = max(
                    self.link_queue_delay_max_s, channel.mean_queueing_delay
                )
        self.requests_retried += sum(1 for r in records if r.retries > 0)
        self.requests_migrated += sum(1 for r in records if r.migrations > 0)
        self.tokens_lost += sum(r.tokens_lost for r in records)


class Instrumentation:
    """Rebinds layer entry points for one pass; a context manager.

    Args:
        trace: Record spans at every :data:`SPAN_POINTS` boundary.
        probes: Wrap ``Simulation.run``, the harness's ``run_scenario``
            and the experiment runner's ``execute_cell`` so cell times and
            serving observables of internally simulated scenarios are
            visible (``on_scenario`` receives each first play's report).
        on_scenario: Callback ``fn(report)`` for the first play of every
            scenario address; replays are timed but not reported.
    """

    def __init__(self, trace: bool, probes: bool, on_scenario=None) -> None:
        self.tracer = Tracer() if trace else None
        self.probes = probes
        self.on_scenario = on_scenario
        self.sims = SimTotals()
        #: ``(start, end)`` of every experiment cell, in execution order.
        self.cell_intervals: list[tuple[float, float]] = []
        self.milp_solves = 0
        self.schedule_refused = 0
        self._saved: list[tuple[object, str, object]] = []
        self._played: set[tuple] = set()

    # -- wrappers --------------------------------------------------------
    def _span(self, name: str, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(row)

        return traced

    def _counting_milp(self, fn):
        @functools.wraps(fn)
        def counted(planner, *args, **kwargs):
            try:
                return fn(planner, *args, **kwargs)
            finally:
                self.milp_solves += planner.milp_solve_count

        return counted

    def _counting_refusals(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            pipeline = fn(*args, **kwargs)
            if pipeline is None:
                self.schedule_refused += 1
            return pipeline

        return counted

    def _timed_run(self, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def run(sim):
            row = tracer.open("sim.run") if tracer else None
            started = time.perf_counter()
            try:
                return fn(sim)
            finally:
                interval = (started, time.perf_counter())
                if row is not None:
                    tracer.close(row)
                self.sims.add(sim, interval, detail=tracer is not None)

        return run

    def _scenario_play(self, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def play(scenario, *args, **kwargs):
            key = (scenario.family, scenario.seed, scenario.size)
            replay = key in self._played
            self._played.add(key)
            row = None
            if tracer is not None:
                row = tracer.open("testkit.replay" if replay else "testkit.play")
            try:
                report = fn(scenario, *args, **kwargs)
            finally:
                if row is not None:
                    tracer.close(row)
            if not replay and self.on_scenario is not None:
                self.on_scenario(report)
            return report

        return play

    def _timed_cell(self, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def execute(cell):
            row = tracer.open("exp.cell") if tracer else None
            started = time.perf_counter()
            try:
                return fn(cell)
            finally:
                self.cell_intervals.append((started, time.perf_counter()))
                if row is not None:
                    tracer.close(row)

        return execute

    # -- installation ----------------------------------------------------
    def _rebind(self, owner, attribute: str, wrapper) -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, wrapper(original))

    def __enter__(self) -> "Instrumentation":
        if self.tracer is not None:
            for owner, attribute, name in SPAN_POINTS:
                self._rebind(
                    owner, attribute, functools.partial(self._span, name)
                )
            for attribute in ("plan", "replan"):
                self._rebind(HelixMilpPlanner, attribute, self._counting_milp)
            self._rebind(Scheduler, "schedule", self._counting_refusals)
        if self.tracer is not None or self.probes:
            self._rebind(Simulation, "run", self._timed_run)
        if self.probes:
            self._rebind(harness, "run_scenario", self._scenario_play)
            self._rebind(exp_runner, "execute_cell", self._timed_cell)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()


def finite_median(values) -> float:
    """Median of the finite values (0.0 when there are none)."""
    clean = sorted(v for v in values if v is not None and math.isfinite(v))
    if not clean:
        return 0.0
    mid = len(clean) // 2
    if len(clean) % 2:
        return clean[mid]
    return (clean[mid - 1] + clean[mid]) / 2.0


# ----------------------------------------------------------------------
# Per-layer metrics of a traced pass
# ----------------------------------------------------------------------
#: Per-layer metric names in report order (every traced run reports all;
#: a layer a workload never calls reads 0).
PER_LAYER = {
    "scenarios.generate_calls": "count",
    "scenarios.generate_s": "s",
    "trace.synth_s": "s",
    "placement.plan_s": "s",
    "placement.build_formulation_calls": "count",
    "placement.build_formulation_s": "s",
    "placement.milp_solves": "count",
    "placement.replan_calls": "count",
    "placement.replan_s": "s",
    "placement.planned_tok_per_s": "tok/s",
    "placement.flow_bound_frac": "share",
    "flow.solve_calls": "count",
    "flow.solve_s": "s",
    "flow.reevaluate_calls": "count",
    "flow.reevaluate_s": "s",
    "scheduling.schedule_calls": "count",
    "scheduling.schedule_s": "s",
    "scheduling.refused_frac": "share",
    "sim.run_s": "s",
    "sim.run_self_s": "s",
    "sim.events_popped": "count",
    "sim.events_per_token": "events/tok",
    "sim.ns_per_event": "ns",
    "sim.fast_forward_frac": "share",
    "sim.vectorized_frac": "share",
    "sim.grouped_hops_per_token": "hops/tok",
    "sim.node_util_mean": "share",
    "sim.node_util_max": "share",
    "sim.batch_tokens_mean": "tok",
    "sim.kv_peak_frac_max": "share",
    "sim.kv_overflow_events": "count",
    "sim.link_queue_delay_max_s": "s",
    "sim.requests_retried": "count",
    "sim.requests_migrated": "count",
    "sim.tokens_lost": "count",
    "sim.offline_tok_per_s": "tok/s",
    "sim.slo_rate_rps": "1/s",
    "online.react_calls": "count",
    "online.react_s": "s",
    "online.heartbeats_sent": "count",
    "online.mttd_p50_s": "s",
    "online.mttr_p50_s": "s",
    "online.false_positives": "count",
    "online.recovery_ratio_p50": "share",
    "online.autoscaler_actions": "count",
    "online.warmups": "count",
    "tenancy.select_calls": "count",
    "tenancy.select_s": "s",
    "tenancy.fairness_p50": "share",
    "tenancy.starvation_events": "count",
    "testkit.check_s": "s",
    "testkit.flow_differential_s": "s",
    "testkit.replay_s": "s",
    "testkit.violations": "count",
    "exp.overhead_s": "s",
    "bench.trace_overhead_frac": "share",
}


def layer_metrics(instr: Instrumentation, outcomes: dict) -> dict:
    """Span and counter totals of a traced pass, named per layer."""
    spans = instr.tracer.summary()

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    sims = instr.sims
    tokens = sims.tokens
    events = sims.events_popped
    run_self = spans.get("sim.run", {}).get("self_s", 0.0)
    schedule_calls = calls("scheduling.schedule")
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update({
        "scenarios.generate_calls": calls("scenarios.generate"),
        "scenarios.generate_s": total("scenarios.generate"),
        "trace.synth_s": total("trace.synth"),
        "placement.plan_s": total("placement.plan"),
        "placement.build_formulation_calls": calls("placement.build_formulation"),
        "placement.build_formulation_s": total("placement.build_formulation"),
        "placement.milp_solves": instr.milp_solves,
        "placement.replan_calls": calls("placement.replan"),
        "placement.replan_s": total("placement.replan"),
        "placement.planned_tok_per_s": outcomes["planned_tok_per_s"],
        "placement.flow_bound_frac": outcomes["flow_bound_frac"],
        "flow.solve_calls": calls("flow.solve"),
        "flow.solve_s": total("flow.solve"),
        "flow.reevaluate_calls": calls("flow.reevaluate"),
        "flow.reevaluate_s": total("flow.reevaluate"),
        "scheduling.schedule_calls": schedule_calls,
        "scheduling.schedule_s": total("scheduling.schedule"),
        "scheduling.refused_frac": (
            instr.schedule_refused / schedule_calls if schedule_calls else 0.0
        ),
        "sim.run_s": total("sim.run"),
        "sim.run_self_s": run_self,
        "sim.events_popped": events,
        "sim.events_per_token": events / tokens if tokens else 0.0,
        "sim.ns_per_event": run_self / events * 1e9 if events else 0.0,
        "sim.fast_forward_frac": (
            sims.fast_forwarded_tokens / tokens if tokens else 0.0
        ),
        "sim.vectorized_frac": sims.vectorized_tokens / tokens if tokens else 0.0,
        "sim.grouped_hops_per_token": (
            sims.grouped_hops / tokens if tokens else 0.0
        ),
        "sim.node_util_mean": (
            statistics.fmean(sims.node_utils) if sims.node_utils else 0.0
        ),
        "sim.node_util_max": max(sims.node_utils, default=0.0),
        "sim.batch_tokens_mean": (
            sims.batch_tokens / sims.batches if sims.batches else 0.0
        ),
        "sim.kv_peak_frac_max": sims.kv_peak_frac_max,
        "sim.kv_overflow_events": sims.kv_overflow_events,
        "sim.link_queue_delay_max_s": sims.link_queue_delay_max_s,
        "sim.requests_retried": sims.requests_retried,
        "sim.requests_migrated": sims.requests_migrated,
        "sim.tokens_lost": sims.tokens_lost,
        "sim.offline_tok_per_s": outcomes["offline_tok_per_s"],
        "sim.slo_rate_rps": outcomes["slo_rate_rps"],
        "online.react_calls": calls("online.react"),
        "online.react_s": total("online.react"),
        "online.mttr_p50_s": outcomes.get("mttr_p50_s", 0.0),
        "tenancy.select_calls": calls("tenancy.select"),
        "tenancy.select_s": total("tenancy.select"),
        "testkit.check_s": total("testkit.check"),
        "testkit.flow_differential_s": total("testkit.flow_differential"),
        "testkit.replay_s": total("testkit.replay"),
    })
    return layers
