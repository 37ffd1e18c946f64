"""Serving-simulator throughput benchmarks (``BENCH_sim.json``).

The simulator overhaul (hop tables, hop-group decode coalescing,
closed-window fast-forward, vectorized forwarding, allocation-free hot
paths) is specified as *speed only*: every observable metric must equal
the pre-overhaul engine's. That frozen engine survives as
:class:`repro.sim._legacy_reference.LegacySimulation`, so this module can
measure the speedup live on any machine instead of trusting a number
measured once:

* **flooded** — the fig12-small offline flood (LLaMA-30B on the paper's
  Fig. 12 cluster): every request arrives at t=0 and the cluster serves
  at full KV-bounded concurrency. The ``large`` tier floods 5,000
  requests (the ROADMAP's "heavy traffic" regime); this is the tentpole
  scenario for the >=10x simulated-tokens-per-wall-second target.
* **poisson** — Azure-length requests arriving as a homogeneous Poisson
  stream at ~75% of planned throughput (the paper's online setting).
  Lower concurrency means more closed windows: the fast-forward macro
  steps dominate.
* **churn_soak** — a flood with seeded random node failure/recovery
  churn applied through ``schedule_event``; every disruption invalidates
  coalescing windows mid-flight, so this measures the engine under
  constant fallback (and double-checks the disrupted paths agree).
* **diurnal** — a multi-day diurnal arrival trace on a single-stage
  serving pipeline at low offered load: long closed windows where the
  vectorized steady-state fast-forward macro-steps whole decode rounds.
  The ``large`` tier serves 100,000 requests spanning simulated months,
  and the target is >=1M simulated tokens per wall-second
  (``sim_diurnal_large_hop_table_tokens_per_s``). The frozen baseline
  would take hours, so the small tier instead compares against the
  current engine with ``coalescing=False`` (one heap event per hop:
  ``sim_diurnal_small_vs_per_hop``).

Each scenario runs at three trace sizes on the current engine and its
reference (the frozen baseline; per-hop for diurnal-small) and records
simulated-tokens-per-wall-second, events popped, engine telemetry
(grouped hops, fast-forwarded tokens), and peak RSS. Token counts are
asserted equal between engines on every run — the
full observable-equality guarantee is enforced by
``tests/test_sim_equivalence.py`` over the scenario matrix.

``python -m repro.exp run bench-sim`` drives the full configuration; the
tier-1 suite runs ``run_sim_bench(smoke=True)`` so artifact generation
never rots.
"""

from __future__ import annotations

import resource
import time
from pathlib import Path

from types import SimpleNamespace

from repro.bench.perftrack import PerfTracker, artifact_path
from repro.cluster import A100_40G, Cluster, Profiler, small_cluster_fig12
from repro.core.placement_types import ModelPlacement
from repro.core.units import GBIT
from repro.flow.graph import FlowGraph
from repro.models.specs import LLAMA_30B, ModelSpec
from repro.online.events import ChurnConfig, random_churn
from repro.placement.helix_milp import HelixMilpPlanner
from repro.scheduling.helix import HelixScheduler
from repro.sim import Request, Simulation
from repro.sim._legacy_reference import LegacySimulation
from repro.trace.arrival import diurnal_arrivals, poisson_arrivals
from repro.trace.azure import AzureTraceConfig, synthesize_azure_trace

#: (requests, output_len, kv_capacity_scale) per flooded tier.
_FLOOD_TIERS = {
    "small": (300, 48, 4.0),
    "medium": (1500, 96, 8.0),
    "large": (5000, 128, 20.0),
}
#: Requests per poisson tier (Azure-length draws, scaled 0.25).
_POISSON_TIERS = {"small": 150, "medium": 400, "large": 1000}
#: (requests, horizon_seconds) per churn-soak tier.
_CHURN_TIERS = {"small": (150, 60.0), "medium": (400, 120.0), "large": (800, 240.0)}
#: Requests per diurnal tier; the large tier is the nightly 100k case.
_DIURNAL_TIERS = {"small": 2000, "medium": 20000, "large": 100000}
#: Diurnal offered load: mean arrival rate times solo latency. 0.02 keeps
#: the pipeline in the closed-window regime almost always, which is the
#: steady state the vectorized fast-forward exists for.
_DIURNAL_LOAD = 0.02
_DIURNAL_OUTPUT_LEN = 512

#: (label, simulation class, extra constructor kwargs).
_DEFAULT = ("hop_table", Simulation, {})
#: The per-hop reference: every fast path off, one heap event per hop.
_PER_HOP = ("per_hop", Simulation, {"coalescing": False})
_ENGINES = (("legacy", LegacySimulation, {}), _DEFAULT)


def _peak_rss_mb() -> float:
    """Process peak RSS in MiB (monotone over the process lifetime)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _plan(profiler: Profiler, quick: bool = False):
    cluster = small_cluster_fig12()
    if quick:
        # Smoke tiers measure the engine, not the planner: the heuristic
        # placement serves the same trace through both engines instantly.
        from repro.placement.petals import PetalsPlanner

        planner = PetalsPlanner(cluster, LLAMA_30B, profiler)
    else:
        planner = HelixMilpPlanner(
            cluster, LLAMA_30B, profiler, time_limit=8.0, mip_rel_gap=0.05
        )
    return cluster, planner.plan()


def _serve(
    tracker: PerfTracker,
    name: str,
    cluster,
    result,
    profiler: Profiler,
    trace: list[Request],
    expected_output_len: float,
    max_batch_tokens: int | None,
    max_time: float,
    churn_events=None,
    engines=_ENGINES,
    model: ModelSpec = LLAMA_30B,
) -> dict[str, float]:
    """Run one scenario on every engine; record timings and speedups."""
    rows: dict[str, tuple[float, int]] = {}
    for label, sim_cls, extra in engines:
        scheduler = HelixScheduler(
            cluster, model, result.placement, profiler,
            flow=result.flow, expected_output_len=expected_output_len,
        )
        sim = sim_cls(
            cluster, model, result.placement, scheduler, trace,
            profiler=profiler, max_batch_tokens=max_batch_tokens,
            max_time=max_time, seed=0, **extra,
        )
        if churn_events:
            for event in churn_events:
                if event.time <= max_time:
                    sim.schedule_event(event.time, event.apply)
        start = time.perf_counter()
        metrics = sim.run()
        wall = time.perf_counter() - start
        tokens = sum(record.tokens_generated for record in sim.records)
        rows[label] = (wall, tokens)
        meta = {
            "tokens": tokens,
            "tokens_per_wall_second": tokens / wall if wall > 0 else 0.0,
            "decode_throughput": metrics.decode_throughput,
            "requests_finished": metrics.requests_finished,
            "peak_rss_mb": _peak_rss_mb(),
        }
        if hasattr(sim, "engine_stats"):
            meta.update(sim.engine_stats)
        tracker.timings.append(_timing(name, label, wall, meta))
        if churn_events:
            # Churn re-runs mutate the cluster; put it back for the next
            # engine so both replay the identical scenario.
            for node_id in list(sim.down_nodes):
                cluster.set_node_available(node_id, True)
    token_counts = {label: tokens for label, (_, tokens) in rows.items()}
    if len(set(token_counts.values())) != 1:
        raise AssertionError(
            f"{name}: engines generated different token counts "
            f"({token_counts})"
        )
    metrics = {
        f"{name}_{label}_tokens_per_s": tokens / wall
        for label, (wall, tokens) in rows.items()
    }
    if "legacy" in rows and "hop_table" in rows:
        metrics[f"{name}_speedup"] = rows["legacy"][0] / rows["hop_table"][0]
    if "per_hop" in rows and "hop_table" in rows:
        metrics[f"{name}_vs_per_hop"] = (
            rows["per_hop"][0] / rows["hop_table"][0]
        )
    for key, value in metrics.items():
        tracker.record(key, value)
    return metrics


def _timing(name: str, label: str, wall: float, meta: dict):
    from repro.bench.perftrack import Timing

    return Timing(
        name=f"{name}_{label}", repeats=1, total_s=wall,
        mean_s=wall, best_s=wall, meta=meta,
    )


def bench_sim_flooded(
    tracker: PerfTracker, size: str = "large", quick: bool = False
) -> dict:
    """The tentpole scenario: a uniform decode flood of fig12-small."""
    num_requests, output_len, kv_scale = _FLOOD_TIERS[size]
    profiler = Profiler(kv_capacity_scale=kv_scale)
    cluster, result = _plan(profiler, quick)
    trace = [
        Request(f"r{i:06d}", 16, output_len) for i in range(num_requests)
    ]
    return _serve(
        tracker, f"sim_flooded_{size}", cluster, result, profiler, trace,
        expected_output_len=float(output_len), max_batch_tokens=16384,
        max_time=1e9,
    )


def bench_sim_poisson(
    tracker: PerfTracker, size: str = "large", quick: bool = False
) -> dict:
    """Online setting: Poisson arrivals at ~75% of planned throughput."""
    num_requests = _POISSON_TIERS[size]
    scale = 0.25
    profiler = Profiler(kv_capacity_scale=scale)
    cluster, result = _plan(profiler, quick)
    base = synthesize_azure_trace(
        AzureTraceConfig(num_requests=num_requests, seed=0, scale=scale)
    )
    mean_output = sum(r.output_len for r in base) / len(base)
    rate = 0.75 * result.max_throughput / mean_output
    trace = poisson_arrivals(base, rate, seed=0)
    return _serve(
        tracker, f"sim_poisson_{size}", cluster, result, profiler, trace,
        expected_output_len=mean_output, max_batch_tokens=2048, max_time=1e9,
    )


def bench_sim_churn_soak(
    tracker: PerfTracker, size: str = "large", quick: bool = False
) -> dict:
    """A flood under seeded node churn: constant window invalidation."""
    num_requests, horizon = _CHURN_TIERS[size]
    profiler = Profiler(kv_capacity_scale=1.0)
    cluster, result = _plan(profiler, quick)
    trace = [Request(f"r{i:06d}", 16, 96) for i in range(num_requests)]
    events = random_churn(
        cluster.node_ids,
        ChurnConfig(
            duration=horizon * 0.6,
            mean_time_to_failure=horizon * 0.2,
            mean_time_to_recovery=horizon * 0.08,
            max_concurrent_failures=1,
            start=horizon * 0.1,
        ),
        seed=7,
    )
    return _serve(
        tracker, f"sim_churn_{size}", cluster, result, profiler, trace,
        expected_output_len=96.0, max_batch_tokens=2048, max_time=horizon,
        churn_events=events,
    )


def _diurnal_material() -> tuple:
    """Single-stage serving pipeline for the diurnal trace.

    One A100 holds every layer of a small 8-layer model, so a request's
    decode round is entry transmit -> one batch -> token return. At low
    offered load the simulation is almost entirely closed windows of
    identical rounds — exactly the steady state the vectorized
    fast-forward macro-steps. The multi-node regimes are
    covered by the flooded / poisson / churn scenarios above.
    """
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
    return cluster, model, SimpleNamespace(placement=placement, flow=flow)


def _diurnal_solo_latency(cluster, model, result, profiler) -> float:
    """End-to-end latency of one request on the idle diurnal pipeline."""
    scheduler = HelixScheduler(
        cluster, model, result.placement, profiler, flow=result.flow,
        expected_output_len=float(_DIURNAL_OUTPUT_LEN),
    )
    sim = Simulation(
        cluster, model, result.placement, scheduler,
        [Request("solo", 64, _DIURNAL_OUTPUT_LEN, 0.0)],
        profiler=profiler, max_time=1e12, seed=0,
    )
    sim.run()
    record = sim.records[0]
    return record.finish_time - record.arrival_time


def bench_sim_diurnal(
    tracker: PerfTracker, size: str = "large", quick: bool = False
) -> dict:
    """The fast-forward headline: a multi-day diurnal arrival trace.

    The arrival rate is calibrated against the measured solo latency so
    the offered load (and therefore the closed-window fraction) is
    machine-independent. The frozen baseline has no fast-forward at all,
    so even the small tier would take minutes and the 100k tier hours;
    the small tier is compared against the per-hop reference instead.
    """
    del quick  # no planner: the placement is fixed, every tier is cheap
    num_requests = _DIURNAL_TIERS[size]
    profiler = Profiler()
    cluster, model, result = _diurnal_material()
    latency = _diurnal_solo_latency(cluster, model, result, profiler)
    rate = _DIURNAL_LOAD / latency
    base = [
        Request(f"d{i:06d}", 64, _DIURNAL_OUTPUT_LEN)
        for i in range(num_requests)
    ]
    trace = diurnal_arrivals(base, rate, seed=0)
    metrics = _serve(
        tracker, f"sim_diurnal_{size}", cluster, result, profiler, trace,
        expected_output_len=float(_DIURNAL_OUTPUT_LEN),
        max_batch_tokens=None, max_time=1e12,
        # Per-hop steps every token through the heap: minutes already
        # at the medium tier, so only the small tier carries the ratio.
        engines=(_DEFAULT, _PER_HOP) if size == "small" else (_DEFAULT,),
        model=model,
    )
    span_days = trace[-1].arrival_time / 86400.0
    tracker.record(f"sim_diurnal_{size}_span_days", span_days)
    metrics[f"sim_diurnal_{size}_span_days"] = span_days
    return metrics


def run_sim_bench(
    smoke: bool = False, path: Path | str | None = None
) -> dict:
    """Run the simulator benchmarks and write ``BENCH_sim.json``.

    Args:
        smoke: Run only the small tiers (seconds-scale total; exercised
            by the tier-1 perf tests so the artifact generation never
            rots).
        path: Output path override; defaults to
            :func:`~repro.bench.perftrack.artifact_path`.

    Returns:
        The serialized benchmark document (also written to disk).
    """
    tracker = PerfTracker(label="sim-smoke" if smoke else "sim-full")
    sizes = ("small",) if smoke else ("small", "medium", "large")
    for size in sizes:
        bench_sim_flooded(tracker, size, quick=smoke)
        bench_sim_poisson(tracker, size, quick=smoke)
        bench_sim_churn_soak(tracker, size, quick=smoke)
        bench_sim_diurnal(tracker, size, quick=smoke)
    tracker.write(path or artifact_path("sim", smoke))
    return tracker.to_dict()
