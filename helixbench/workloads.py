"""The three benchmark workloads, driven through the public API of ``repro``.

Every workload follows one shape: set up K times (``setup_s`` is the
median), then run identical *passes* of a fixed, seed-determined amount of
simulated work until the passes have taken the time budget.

* Host-clock metrics are medians over passes (a per-run percentile is
  taken within each pass first) and are reported at the reference machine
  speed (:mod:`helixbench.calibration`); net wall times are printed too.
* Simulated-clock metrics come from the first pass; every later pass, and
  the traced pass, must reproduce them exactly.

Workloads:

* ``geo-azure`` — LLaMA-70B on the paper's geo-distributed 24-GPU cluster,
  planned by the Helix MILP, scheduled by IWRR over the max flow, fed
  synthetic Azure-Conversation lengths: one offline flood, then a ladder
  of fixed Poisson rates (open loop in simulated time).
* ``diurnal-long`` — a long diurnal trace on a fixed single-stage A100
  pipeline; no planner (open loop in simulated time).
* ``verify-control`` — seed-derived full-size scenario addresses from the
  chaos, elastic, tenant and geo_regions families, each verified as a
  ``verify`` cell by ``repro.exp.run_experiment(..., workers=1)`` into a
  fresh store (closed loop: one address at a time).
"""

from __future__ import annotations

import math
import os
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import repro.trace.arrival as arrival
import repro.trace.azure as azure
from repro.cluster import A100_40G, Cluster, Profiler, geo_distributed_24
from repro.core.placement_types import ModelPlacement
from repro.core.units import GBIT
from repro.exp import ExperimentSpec, RunCell, run_experiment
from repro.exp.store import RunStore
from repro.flow.graph import FlowGraph
from repro.milp import SolveStatus
from repro.models.specs import LLAMA_70B, ModelSpec
from repro.placement.helix_milp import HelixMilpPlanner
from repro.scheduling.helix import HelixScheduler
from repro.sim import Request, Simulation

from helixbench import checks
from helixbench.calibration import SpeedProbe
from helixbench.tracing import Instrumentation, finite_median, layer_metrics

WORKLOADS = ("geo-azure", "diurnal-long", "verify-control")

#: Latency limits and attained share that define "meets the SLO" for a
#: single-tenant serving run: at least SLO_SHARE of the requests *sent*
#: finish with TTFT <= SLO_TTFT_S and mean token gap <= SLO_TBT_S. A
#: request that is lost, shed or unfinished misses.
SLO_TTFT_S = 6.0
SLO_TBT_S = 1.5
SLO_SHARE = 0.9

#: Azure lengths are scaled by this (and KV capacity with them) so the
#: pure-Python simulator serves a 70B flood in about a second while
#: per-node request concurrency matches the full-scale system.
GEO_TRACE_SCALE = 0.25
#: Helix MILP settings for geo-azure. On this cluster HiGHS cannot beat the
#: best heuristic hint (1704 tok/s) within its first 2.5 s slice (nor within
#: 60 s), so the adaptive budget stops on its stall rule and the plan is
#: the same on a fast or a loaded machine. No LNS rounds: they are
#: wall-clock budgeted and would make the plan load-dependent.
GEO_PLANNER = {"time_limit": 20.0, "mip_rel_gap": 0.05, "lns_rounds": 0}

#: Diurnal material: one A100 holds all 8 layers of a small model.
DIURNAL_OUTPUT_LEN = 512
DIURNAL_INPUT_SCALE = 0.085  # Azure input lengths scaled to a ~64 mean
#: Offered load = mean arrival rate x solo latency. At 0.02 every request
#: runs alone and all four latency percentiles are exact constants; at
#: 0.4 about half the requests share the pipeline with another, yet the
#: closed-window fast-forward still produces ~0.6 of all tokens.
DIURNAL_LOAD = 0.4

#: Scenario families of verify-control, in address-list order.
VERIFY_FAMILIES = ("chaos", "elastic", "tenant", "geo_regions")

SIZES = {
    "full": {
        "geo_requests": 800,
        "geo_ladder": (0.5, 1.0, 1.5, 2.5),
        "geo_reference_rate": 1.0,
        "geo_setups": 2,
        "diurnal_requests": 2000,
        # Set-ups of diurnal-long and verify-control take milliseconds, so
        # their median needs many of them to hold still.
        "diurnal_setups": 60,
        # Equal shares, 480 addresses: the per-address p95 rests on 24
        # samples beyond it, the MTTR median on ~75 repaired faults.
        "verify_counts": (120, 120, 120, 120),
        # A traced run verifies its address list twice (untraced, then
        # traced), so it draws half as many to stay as long as an untraced
        # run.
        "verify_trace_counts": (60, 60, 60, 60),
        "verify_setups": 100,
    },
    "smoke": {
        "geo_requests": 40,
        "geo_ladder": (0.5, 2.5),
        "geo_reference_rate": 0.5,
        "geo_setups": 1,
        "diurnal_requests": 60,
        "diurnal_setups": 1,
        "verify_counts": (1, 1, 1, 1),
        "verify_trace_counts": (1, 1, 1, 1),
        "verify_setups": 1,
    },
}

#: End-to-end metrics every workload reports: name -> (unit, clock).
END_TO_END = {
    "setup_s": ("s", "host"),
    "sim_tok_per_s": ("tok/s", "host"),
    "addr_per_s": ("1/s", "host"),
    "addr_p50_s": ("s", "host"),
    "addr_p95_s": ("s", "host"),
    "peak_rss_mb": ("MiB", "host"),
    "ttft_p50_s": ("s", "sim"),
    "ttft_p95_s": ("s", "sim"),
    "tbt_p50_s": ("s", "sim"),
    "tbt_p95_s": ("s", "sim"),
    "ok_frac": ("share", "count"),
    "tenant_slo_frac": ("share", "sim"),
}

Interval = tuple[float, float]
#: Converts a measured interval to seconds (net, or at the reference speed).
Seconds = Callable[..., float]


@dataclass
class Result:
    """What one benchmark invocation measured and checked."""

    workload: str
    seed: int
    #: Reported values (host metrics at the reference machine speed).
    end_to_end: dict[str, float]
    #: Host metrics from net wall time on this machine.
    net_end_to_end: dict[str, float]
    #: Mean probe-slice time over the reference (>1: slower machine).
    slowness: float
    attempted: int
    failed: int
    failures: list[str]
    #: Workload outcomes that only some workloads define (printed; also
    #: reported per layer in the traced run).
    outcomes: dict[str, float]
    digests: dict[str, str]
    passes: int
    notes: list[str] = field(default_factory=list)
    per_layer: dict[str, float] | None = None
    traced_end_to_end: dict[str, float] | None = None


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (the ``LatencyStats`` convention);
    ``inf`` samples (misses) sort last."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    index = q * (len(ordered) - 1)
    low, high = math.floor(index), math.ceil(index)
    if low == high or ordered[low] == ordered[high]:
        return ordered[low]
    frac = index - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


def latency_samples(records) -> tuple[list[float], list[float]]:
    """TTFT and mean-token-gap samples over requests *sent*.

    A request that did not finish contributes ``inf`` to both (a miss).
    A finished request with fewer than two tokens has no token gap and is
    left out of the TBT sample only.
    """
    ttft, tbt = [], []
    for record in records:
        if not record.finished:
            ttft.append(math.inf)
            tbt.append(math.inf)
            continue
        ttft.append(record.prompt_latency)
        if not math.isnan(record.decode_latency):
            tbt.append(record.decode_latency)
    return ttft, tbt


def slo_share(records) -> float:
    """Share of requests sent that meet both SLO limits."""
    met = sum(
        1 for r in records
        if r.finished and r.prompt_latency <= SLO_TTFT_S
        and (math.isnan(r.decode_latency) or r.decode_latency <= SLO_TBT_S)
    )
    return met / len(records) if records else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _clocked(fn):
    """``(fn(), (start, end))`` in perf_counter readings."""
    started = time.perf_counter()
    value = fn()
    return value, (started, time.perf_counter())


def _measure(run_pass, seconds: float) -> list:
    """Run whole passes until they have taken ``seconds`` (at least one)."""
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append(run_pass())
    return passes


def _repeat_setup(setup, digest, repeats: int):
    """Set up ``repeats`` times: the first result, every set-up interval,
    and every result's digest. Later results are dropped as soon as they
    are digested, so the repeats do not grow the heap."""
    first, interval = _clocked(setup)
    intervals, digests = [interval], [digest(first)]
    for _ in range(repeats - 1):
        again, interval = _clocked(setup)
        intervals.append(interval)
        digests.append(digest(again))
        del again
    return first, intervals, digests


def _per_pass(passes, fn) -> float:
    return statistics.median(fn(p) for p in passes)


def _span_path(state_dir: Path, workload: str, seed: int) -> Path:
    return state_dir / f"spans-{workload}-seed{seed}.json"


# ----------------------------------------------------------------------
# Serving workloads (geo-azure, diurnal-long)
# ----------------------------------------------------------------------
@dataclass
class Material:
    """A servable plan plus the generated traces of one serving workload."""

    cluster: Cluster
    model: ModelSpec
    profiler: Profiler
    placement: object
    flow: object
    planned_tok_per_s: float
    expected_output_len: float
    max_batch_tokens: int | None
    #: ``(label, offered rate or None for a flood, trace)`` per serving run.
    runs: list[tuple[str, float | None, list[Request]]]
    #: Set-up seconds a MILP solve spent stopped by its time limit.
    budget_wait_s: float = 0.0

    def scheduler(self) -> HelixScheduler:
        return HelixScheduler(
            self.cluster, self.model, self.placement, self.profiler,
            flow=self.flow, expected_output_len=self.expected_output_len,
        )


@dataclass
class ServingRun:
    label: str
    rate: float | None
    outcome: checks.ServingOutcome
    decode_throughput: float
    ttft: list[float]
    tbt: list[float]
    slo_share: float
    run: Interval  # inside Simulation.run
    wall: Interval  # scheduler, simulation and accounting


@dataclass
class ServingPass:
    runs: list[ServingRun]
    wall: Interval

    def sim_digest(self) -> str:
        return checks.digest([
            [run.label, list(vars(run.outcome).values()),
             repr(run.decode_throughput), [repr(v) for v in run.ttft],
             [repr(v) for v in run.tbt]]
            for run in self.runs
        ])


def serve(material: Material, label: str, rate, trace) -> ServingRun:
    """One checked serving simulation on the workload's plan."""
    started = time.perf_counter()
    sim = Simulation(
        material.cluster, material.model, material.placement,
        material.scheduler(), trace, profiler=material.profiler,
        max_batch_tokens=material.max_batch_tokens, max_time=1e12,
    )
    metrics, run = _clocked(sim.run)
    records = sim.records
    ttft, tbt = latency_samples(records)
    return ServingRun(
        label=label,
        rate=rate,
        outcome=checks.ServingOutcome.from_records(label, len(trace), records),
        decode_throughput=metrics.decode_throughput,
        ttft=ttft,
        tbt=tbt,
        slo_share=slo_share(records),
        run=run,
        wall=(started, time.perf_counter()),
    )


def serving_pass(material: Material) -> ServingPass:
    runs, wall = _clocked(lambda: [serve(material, *r) for r in material.runs])
    return ServingPass(runs, wall)


def geo_setup(seed: int, size: dict) -> Material:
    """Azure trace + arrival ladder + cluster + Helix MILP plan + scheduler."""
    base = azure.synthesize_azure_trace(azure.AzureTraceConfig(
        num_requests=size["geo_requests"], seed=seed, scale=GEO_TRACE_SCALE,
    ))
    runs = [("flood", None, arrival.offline_arrivals(base))]
    for index, rate in enumerate(size["geo_ladder"]):
        runs.append((
            f"poisson@{rate}", rate,
            arrival.poisson_arrivals(base, rate, seed=seed * 100 + index + 1),
        ))
    profiler = Profiler(kv_capacity_scale=GEO_TRACE_SCALE)
    cluster = geo_distributed_24()
    result = HelixMilpPlanner(
        cluster, LLAMA_70B, profiler, **GEO_PLANNER
    ).plan()
    stopped_by_limit = (
        result.milp is not None and result.milp.status is not SolveStatus.OPTIMAL
    )
    material = Material(
        cluster=cluster, model=LLAMA_70B, profiler=profiler,
        placement=result.placement, flow=result.flow,
        planned_tok_per_s=result.max_throughput,
        expected_output_len=sum(r.output_len for r in base) / len(base),
        max_batch_tokens=16384, runs=runs,
        budget_wait_s=result.milp.solve_time if stopped_by_limit else 0.0,
    )
    material.scheduler()  # a servable scheduler is part of set-up
    return material


def diurnal_setup(seed: int, size: dict) -> Material:
    """Pipeline + max flow + solo-latency calibration + trace + scheduler."""
    model = ModelSpec(
        name="diurnal-tiny-8L", num_layers=8, hidden_size=1024, num_heads=8,
        num_kv_heads=8, intermediate_size=2816,
        nominal_params=8 * (4 * 1024**2 + 3 * 1024 * 2816),
    )
    cluster = Cluster(name="bench-diurnal")
    cluster.add_node("a100-0", A100_40G, region="r0")
    cluster.connect_full_mesh(
        ["a100-0"], 10 * GBIT, 0.001, include_coordinator=True
    )
    cluster.validate()
    placement = ModelPlacement.from_intervals(8, {"a100-0": (0, 8)})
    flow = FlowGraph(cluster, model, placement).solve()
    material = Material(
        cluster=cluster, model=model, profiler=Profiler(),
        placement=placement, flow=flow, planned_tok_per_s=flow.max_flow,
        expected_output_len=float(DIURNAL_OUTPUT_LEN),
        max_batch_tokens=None, runs=[],
    )
    # Calibrate the rate on the idle pipeline so the offered load (and so
    # the share of closed windows) is a property of the model, not a guess.
    solo = Simulation(
        cluster, model, placement, material.scheduler(),
        [Request("solo", 64, DIURNAL_OUTPUT_LEN, 0.0)],
        profiler=material.profiler, max_batch_tokens=None, max_time=1e12,
    )
    solo.run()
    rate = DIURNAL_LOAD / solo.records[0].finish_time
    lengths = azure.synthesize_azure_trace(azure.AzureTraceConfig(
        num_requests=size["diurnal_requests"], seed=seed,
        scale=DIURNAL_INPUT_SCALE,
    ))
    base = [
        Request(f"d{i:06d}", r.input_len, DIURNAL_OUTPUT_LEN)
        for i, r in enumerate(lengths)
    ]
    material.runs = [
        ("diurnal", rate, arrival.diurnal_arrivals(base, rate, seed=seed))
    ]
    material.scheduler()
    return material


def serving_host(passes, setups, budget: float, seconds: Seconds) -> dict:
    """Host metrics of serving passes; ``seconds`` converts an interval."""
    def run_walls(p):
        return [seconds(r.wall) for r in p.runs]

    return {
        "setup_s": statistics.median(seconds(iv, budget) for iv in setups),
        "sim_tok_per_s": _per_pass(passes, lambda p: (
            sum(r.outcome.decode_tokens for r in p.runs)
            / sum(seconds(r.run) for r in p.runs)
        )),
        "addr_per_s": _per_pass(passes, lambda p: len(p.runs) / seconds(p.wall)),
        "addr_p50_s": _per_pass(passes, lambda p: percentile(run_walls(p), 0.50)),
        "addr_p95_s": _per_pass(passes, lambda p: percentile(run_walls(p), 0.95)),
        "peak_rss_mb": peak_rss_mb(),
    }


def serving_sim(first: ServingPass, reference: str) -> dict:
    """Simulated-clock and count metrics of one pass."""
    ref = next(run for run in first.runs if run.label == reference)
    rungs = [run for run in first.runs if run.rate is not None]
    return {
        "ttft_p50_s": percentile(ref.ttft, 0.50),
        "ttft_p95_s": percentile(ref.ttft, 0.95),
        "tbt_p50_s": percentile(ref.tbt, 0.50),
        "tbt_p95_s": percentile(ref.tbt, 0.95),
        "ok_frac": (
            sum(r.outcome.finished for r in first.runs)
            / sum(r.outcome.submitted for r in first.runs)
        ),
        "tenant_slo_frac": (
            sum(1 for r in rungs if r.slo_share >= SLO_SHARE) / len(rungs)
        ),
    }


def serving_outcomes(first: ServingPass, planned: float) -> dict:
    flood = [r for r in first.runs if r.rate is None]
    offline = flood[0].decode_throughput if flood else 0.0
    met = [
        r.rate for r in first.runs
        if r.rate is not None and r.slo_share >= SLO_SHARE
    ]
    return {
        "offline_tok_per_s": offline,
        "slo_rate_rps": max(met, default=0.0),
        "planned_tok_per_s": planned,
        "flow_bound_frac": offline / planned if planned > 0 else 0.0,
    }


def run_serving(
    workload: str, seed: int, seconds: float, trace: bool, size: dict,
    state_dir: Path,
) -> Result:
    if workload == "geo-azure":
        setup, repeats = geo_setup, size["geo_setups"]
        reference = f"poisson@{size['geo_reference_rate']}"
    else:
        setup, repeats = diurnal_setup, size["diurnal_setups"]
        reference = "diurnal"
    probe = SpeedProbe()
    with probe:
        material, setups, plan_digests = _repeat_setup(
            lambda: setup(seed, size),
            lambda m: checks.plan_digest(m.placement, m.planned_tok_per_s),
            repeats,
        )
        if trace:
            passes = [serving_pass(material)]
            with Instrumentation(trace=True, probes=False) as instr:
                traced_material, traced_setup = _clocked(
                    lambda: setup(seed, size)
                )
                traced = serving_pass(traced_material)
        else:
            passes = _measure(lambda: serving_pass(material), seconds)

    failures = checks.check_same("plan", plan_digests)
    for run in passes[0].runs:
        failures += checks.check_serving(run.outcome)
        failures += checks.check_all_served(run.outcome)
    failures += checks.check_same(
        "simulated outcome", [p.sim_digest() for p in passes]
    )
    outcomes = serving_outcomes(passes[0], material.planned_tok_per_s)
    if workload == "geo-azure":
        failures += checks.check_flow_bound(
            outcomes["offline_tok_per_s"], outcomes["planned_tok_per_s"]
        )
    budget = material.budget_wait_s
    submitted = sum(r.outcome.submitted for p in passes for r in p.runs)
    finished = sum(r.outcome.finished for p in passes for r in p.runs)
    result = Result(
        workload=workload, seed=seed,
        end_to_end={
            **serving_host(passes, setups, budget, probe.normalized),
            **serving_sim(passes[0], reference),
        },
        net_end_to_end=serving_host(
            passes, setups, budget, lambda iv, _=0.0: probe.net(iv)
        ),
        slowness=probe.slowness(),
        attempted=submitted, failed=submitted - finished, failures=failures,
        outcomes=outcomes,
        digests={"plan": plan_digests[0], "sim": passes[0].sim_digest()},
        passes=len(passes),
        notes=[
            f"run {run.label}: {run.outcome.finished}/{run.outcome.submitted} "
            f"finished, {run.outcome.decode_tokens} tokens, slo share "
            f"{run.slo_share:.3f}, decode {run.decode_throughput:.2f} tok/s"
            for run in passes[0].runs
        ],
    )
    if trace:
        failures += checks.check_same("traced plan", [
            plan_digests[0],
            checks.plan_digest(
                traced_material.placement, traced_material.planned_tok_per_s
            ),
        ])
        failures += checks.check_same(
            "traced simulated outcome",
            [result.digests["sim"], traced.sim_digest()],
        )
        result.traced_end_to_end = {
            **serving_host([traced], [traced_setup], budget, probe.normalized),
            **serving_sim(traced, reference),
        }
        layers = layer_metrics(instr, outcomes)
        layers["bench.trace_overhead_frac"] = (
            (probe.normalized(traced_setup) + probe.normalized(traced.wall))
            / (statistics.median(probe.normalized(iv) for iv in setups)
               + probe.normalized(passes[0].wall))
            - 1.0
        )
        instr.tracer.dump(_span_path(state_dir, workload, seed))
        result.per_layer = layers
    return result


# ----------------------------------------------------------------------
# verify-control
# ----------------------------------------------------------------------
def verify_addresses(seed: int, counts) -> list[tuple[str, int]]:
    """The workload seed's address list: distinct scenario seeds per family."""
    rng = random.Random(f"helixbench:verify-control:{seed}")
    return [
        (family, scenario_seed)
        for family, count in zip(VERIFY_FAMILIES, counts)
        for scenario_seed in rng.sample(range(1_000_000), count)
    ]


def verify_spec(seed: int, counts) -> tuple[ExperimentSpec, dict]:
    """Address list -> experiment spec and its content-hashed manifest."""
    spec = ExperimentSpec.make(
        name="verify-control",
        description="helixbench verify-control address list",
        kind="verify",
        extra_cells=tuple(
            RunCell.make("verify", {"family": f, "seed": s, "size": "full"})
            for f, s in verify_addresses(seed, counts)
        ),
    )
    return spec, spec.manifest()


@dataclass
class AddressObservation:
    """Serving observables of one address's first play (via the probe)."""

    family: str
    seed: int
    workload: str
    ttft_p50: float
    ttft_p95: float
    tbt_p50: float
    tbt_p95: float
    heartbeats: int


@dataclass
class VerifyPass:
    records: list[dict]
    observations: list[AddressObservation]
    wall: Interval  # run_experiment
    instr: Instrumentation

    def sim_digest(self) -> str:
        return checks.digest([
            [r["params"]["family"], r["params"]["seed"], r.get("fingerprint"),
             repr(r.get("planned_throughput"))]
            for r in self.records
        ] + [
            [o.family, o.seed, repr(o.ttft_p50), repr(o.ttft_p95),
             repr(o.tbt_p50), repr(o.tbt_p95)]
            for o in self.observations
        ])


def _observe(observations: list):
    def on_scenario(report) -> None:
        ttft, tbt = latency_samples(report.sim.records)
        detector = getattr(report.sim.controller, "detector", None)
        observations.append(AddressObservation(
            family=report.scenario.family,
            seed=report.scenario.seed,
            workload=report.scenario.workload,
            ttft_p50=percentile(ttft, 0.50),
            ttft_p95=percentile(ttft, 0.95),
            tbt_p50=percentile(tbt, 0.50),
            tbt_p95=percentile(tbt, 0.95),
            heartbeats=detector.heartbeats_sent if detector else 0,
        ))
    return on_scenario


def verify_pass(
    spec: ExperimentSpec, manifest: dict, state_dir: Path, trace: bool
) -> VerifyPass:
    """One run_experiment over the address list into a fresh store."""
    store_root = state_dir / f"exp-store-{os.getpid()}"
    shutil.rmtree(store_root, ignore_errors=True)
    observations: list[AddressObservation] = []
    try:
        with Instrumentation(
            trace=trace, probes=True, on_scenario=_observe(observations)
        ) as instr:
            _, wall = _clocked(lambda: run_experiment(
                spec, workers=1, results_root=store_root, force=True,
                quiet=True,
            ))
        records = RunStore(store_root, spec.name).read_records(manifest)
    finally:
        shutil.rmtree(store_root, ignore_errors=True)
    return VerifyPass(records, observations, wall, instr)


def verify_host(passes, setups, seconds: Seconds) -> dict:
    """Host metrics of verify passes; ``seconds`` converts an interval."""
    def cells(p):
        return [seconds(iv) for iv in p.instr.cell_intervals]

    return {
        "setup_s": statistics.median(seconds(iv) for iv in setups),
        "sim_tok_per_s": _per_pass(passes, lambda p: (
            p.instr.sims.tokens
            / sum(seconds(iv) for iv in p.instr.sims.run_intervals)
        )),
        "addr_per_s": _per_pass(passes, lambda p: len(p.records) / seconds(p.wall)),
        "addr_p50_s": _per_pass(passes, lambda p: percentile(cells(p), 0.50)),
        "addr_p95_s": _per_pass(passes, lambda p: percentile(cells(p), 0.95)),
        "peak_rss_mb": peak_rss_mb(),
    }


def verify_sim(first: VerifyPass) -> dict:
    tenants = [r["tenancy"] for r in first.records if "tenancy" in r]
    obs = first.observations
    return {
        # Per-address percentiles, then the median across addresses: the
        # typical scenario's latency. Pooling requests instead lets a few
        # slow scenarios set the p95, which then swings with the draw.
        "ttft_p50_s": statistics.median(o.ttft_p50 for o in obs),
        "ttft_p95_s": statistics.median(o.ttft_p95 for o in obs),
        "tbt_p50_s": statistics.median(o.tbt_p50 for o in obs),
        "tbt_p95_s": statistics.median(o.tbt_p95 for o in obs),
        "ok_frac": sum(1 for r in first.records if r.get("ok")) / len(first.records),
        "tenant_slo_frac": (
            sum(t["slo_met"] for t in tenants) / sum(t["slo_pairs"] for t in tenants)
            if tenants else 1.0
        ),
    }


def verify_outcomes(first: VerifyPass) -> dict:
    offline = {
        (o.family, o.seed) for o in first.observations if o.workload == "offline"
    }
    offline_records = [
        r for r in first.records
        if (r["params"]["family"], r["params"]["seed"]) in offline
    ]
    return {
        "offline_tok_per_s": finite_median(
            r.get("decode_throughput") for r in offline_records
        ),
        "slo_rate_rps": 0.0,
        "planned_tok_per_s": finite_median(
            r.get("planned_throughput") for r in first.records
        ),
        "flow_bound_frac": finite_median(
            (r.get("decode_throughput") or 0.0) / r["planned_throughput"]
            for r in offline_records if r.get("planned_throughput")
        ),
        "mttr_p50_s": finite_median(
            r["disruption"]["mttr_s"] for r in first.records
            if r.get("disruption") and r["disruption"]["mttr_s"] is not None
        ),
    }


def verify_layers(traced: VerifyPass, seconds: Seconds) -> dict:
    """Per-layer outcomes read from the verify cells' own records."""
    records = traced.records
    disruptions = [r["disruption"] for r in records if r.get("disruption")]
    elastic = [r["elasticity"] for r in records if r.get("elasticity")]
    tenancy = [r["tenancy"] for r in records if r.get("tenancy")]
    return {
        "online.heartbeats_sent": sum(o.heartbeats for o in traced.observations),
        "online.mttd_p50_s": finite_median(d["mttd_mean_s"] for d in disruptions),
        "online.false_positives": sum(d["false_positives"] for d in disruptions),
        "online.recovery_ratio_p50": finite_median(
            d["recovery_ratio"] for d in disruptions
        ),
        "online.autoscaler_actions": sum(
            len(e["autoscaler_actions"]) for e in elastic
        ),
        "online.warmups": sum(e["warmups"] for e in elastic),
        "tenancy.fairness_p50": finite_median(t["fairness_index"] for t in tenancy),
        "tenancy.starvation_events": sum(t["starvation_events"] for t in tenancy),
        "testkit.violations": sum(len(r.get("violations", [])) for r in records),
        "exp.overhead_s": seconds(traced.wall) - sum(
            seconds(iv) for iv in traced.instr.cell_intervals
        ),
    }


def run_verify(
    seed: int, seconds: float, trace: bool, size: dict, state_dir: Path
) -> Result:
    counts = size["verify_trace_counts" if trace else "verify_counts"]
    probe = SpeedProbe()
    with probe:
        (spec, manifest), setups, manifest_digests = _repeat_setup(
            lambda: verify_spec(seed, counts),
            lambda spec_manifest: checks.digest(spec_manifest[1]),
            size["verify_setups"],
        )

        def run_pass(traced: bool = False) -> VerifyPass:
            return verify_pass(spec, manifest, state_dir, traced)

        passes = [run_pass()] if trace else _measure(run_pass, seconds)
        if trace:
            traced = run_pass(traced=True)

    failures = checks.check_same("address manifest", manifest_digests)
    for p in passes + ([traced] if trace else []):
        failures += checks.check_cells(p.records)
        if len(p.observations) != len(p.records):
            failures.append(
                f"probe saw {len(p.observations)} first plays for "
                f"{len(p.records)} cells"
            )
    first = passes[0]
    failures += checks.check_same(
        "simulated outcome", [p.sim_digest() for p in passes]
    )
    plan = checks.digest([
        [r["params"]["family"], r["params"]["seed"], r.get("planner"),
         repr(r.get("planned_throughput"))]
        for r in first.records
    ])
    outcomes = verify_outcomes(first)
    result = Result(
        workload="verify-control", seed=seed,
        end_to_end={
            **verify_host(passes, setups, probe.normalized), **verify_sim(first),
        },
        net_end_to_end=verify_host(passes, setups, probe.net),
        slowness=probe.slowness(),
        attempted=sum(len(p.records) for p in passes),
        failed=sum(1 for p in passes for r in p.records if not r.get("ok")),
        failures=failures, outcomes=outcomes,
        digests={"plan": plan, "sim": first.sim_digest()},
        passes=len(passes),
        notes=["addresses: " + ", ".join(
            f"{family} x{count}" for family, count in zip(VERIFY_FAMILIES, counts)
        )],
    )
    if trace:
        failures += checks.check_same(
            "traced simulated outcome", [first.sim_digest(), traced.sim_digest()]
        )
        result.traced_end_to_end = {
            **verify_host([traced], setups, probe.normalized),
            **verify_sim(traced),
        }
        layers = layer_metrics(traced.instr, outcomes)
        layers.update(verify_layers(traced, probe.normalized))
        layers["bench.trace_overhead_frac"] = (
            probe.normalized(traced.wall) / probe.normalized(first.wall) - 1.0
        )
        traced.instr.tracer.dump(_span_path(state_dir, "verify-control", seed))
        result.per_layer = layers
    return result


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    state_dir: Path,
    size: str = "full",
) -> Result:
    """Run one workload; the result carries metrics and every failure."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    state_dir.mkdir(parents=True, exist_ok=True)
    sizes = SIZES[size]
    if workload == "verify-control":
        result = run_verify(seed, seconds, trace, sizes, state_dir)
    else:
        result = run_serving(workload, seed, seconds, trace, sizes, state_dir)
    for name, value in result.end_to_end.items():
        result.failures += checks.finite_or_fail(name, value)
    return result
