"""The discrete-event serving simulation.

One :class:`Simulation` wires together a cluster, a model placement, a
scheduler, and a request trace, then plays the serving system forward:

1. A request arrives at the coordinator and asks the scheduler for a
   per-request pipeline; if every candidate node is KV-masked it waits in
   a pending queue and is retried whenever capacity frees up (§5.2).
2. The prompt iteration ships the prompt (token ids) to the first stage,
   each stage computes its layers and forwards activations, and the last
   stage returns the first output token to the coordinator.
3. Each subsequent decode iteration re-enters the same pipeline from the
   coordinator (§5's runtime design) until ``output_len`` tokens exist.

Nodes batch dynamically (everything queued joins the next batch), links
are FIFO bandwidth/latency queues, and KV pools track true occupancy.

Engine design (the hot-path overhaul; the pre-overhaul engine survives as
:class:`repro.sim._legacy_reference.LegacySimulation` for differential
testing and benchmarking):

* **Hop tables.** At schedule time each request resolves its pipeline
  once into a list of :class:`_Hop` entries — executor, KV pool, outbound
  channel, and the precomputed roofline batch-time constants — so the
  inner loop performs zero ``Profiler`` calls and no per-event dict
  lookups by node/request id. One prompt and one decode
  :class:`~repro.sim.node_exec.StageWork` are built per (attempt, stage)
  and re-enqueued every iteration: steady-state decode allocates no work
  objects.
* **Int-coded events.** Heap entries are ``(when, seq, kind, payload)``
  with integer kinds; ``seq`` is a global monotone counter allocated one
  per *logical* event, so event ordering — including exact-time ties — is
  identical whether or not hops are grouped.
* **Hop groups (decode coalescing).** When a batch completes, the works
  forwarded over one FIFO channel arrive contiguously; they are carried
  in one *group event* instead of one heap event per hop. A group drains
  work-by-work at each work's true arrival time but pauses — re-pushing
  its remainder — the moment any other event (a new arrival, a churn
  callback, another node's batch) is due first, so any contention change
  invalidates the window and falls back to per-hop stepping.  Group
  handlers replay the identical float operations in the identical order
  as per-hop stepping, which makes the two modes bit-identical
  (``coalescing=False`` forces per-hop events; the differential suite
  asserts exact equality across the scenario matrix).
* **Vectorized cohorts.** The coordinator's token drain advances whole
  same-channel cohorts per heap event: a run of mid-decode tokens is
  checked, validated, and committed with array folds
  (:meth:`Simulation._vec_token_run`) instead of per-token Python work,
  and groups carry uniform-token-layer metadata so busy-executor cohort
  enqueues cost O(1).
* **Closed-window fast-forward.** When a request's executors are
  quiescent, the pending queue is empty, and every other live request is
  parked in the heap, nothing can happen before the next scheduled heap
  event except the request's own decode chain: those iterations are
  computed without heap traffic — whole rounds vectorized
  (:meth:`Simulation._vec_fast_forward`), the boundary round in one
  tight scalar loop — stopping exactly at finish, the ``max_time``
  horizon, or the next event's time, where the one in-flight hop is
  re-materialized into the heap and stepping resumes.
* **Bounded timeline.** The global token timeline accumulates into
  fixed-width buckets (:class:`~repro.sim.metrics.TokenTimeline`) online
  instead of appending one float per token forever.

Every fast path replays the identical float operations in the identical
order as per-hop stepping, so ``coalescing=False`` — one heap event per
hop, none of the fast paths above — is the bit-identical reference the
differential suite compares against (the scenario matrix, chaos /
elastic / tenant families included). It is the only switch that changes
which hot-path code runs; faults, hedging, tenancy and progress-observing
schedulers are handled by local facts, not engine modes:

* **Stale work** is work whose attempt is no longer live
  (``work.owner.live``); every path tests it, and a vectorized stretch
  stops at the first stale work so the scalar step drops it.
* **Flaky channels** (a live ``LinkFault``) add a retransmit delay that
  can reorder arrivals, so each arrival over such a channel is its own
  heap event and no vector run or fast-forward window crosses it; every
  other channel keeps coalescing.
* **Per-token hooks** (``TenantManager.note_token``, the scheduler's
  ``notify_node_progress``) are replayed in scalar order after each
  vectorized commit; nothing reads them inside a committed stretch.

The loop also supports *online dynamics* (the ``repro.online`` package):
environment events scheduled with :meth:`Simulation.schedule_event` can
fail and restore nodes, degrade links, and hot-swap a replanned placement
mid-run. Each request attempt owns its works, so work belonging to a
disrupted attempt — in-flight activations, queued batches, pending
completions — is dropped cleanly once the attempt stops being live.

Node lifecycle: a node is *up*, *zombie* (accepts work, never finishes
it; ``make_zombie``), *silent* (crashed unannounced;
``fail_node(announce=False)``) or *down* (an announced ``fail_node``,
``confirm_node_failure``, or a finished drain); ``restore_node`` brings
it back up, confirming a gray fault first. *Draining* (``drain_node``) is
a separate mark that survives the node turning zombie or silent and ends
when its last in-flight attempt finishes (a :class:`DrainRecord`) or a
crash or confirmation supersedes it (no record). The scheduler keeps
routing to zombie and silent nodes until a confirmation masks them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import attrgetter
from typing import Callable

import numpy as _np

from repro.cluster.cluster import Cluster
from repro.cluster.node import COORDINATOR
from repro.cluster.profiler import Profiler
from repro.core.errors import SimulationError
from repro.models.specs import ModelSpec
from repro.scheduling.base import Scheduler
from repro.scheduling.pipelines import RequestPipeline
from repro.sim.kv_cache import KVCachePool
from repro.sim.metrics import (
    RequestRecord,
    ServingMetrics,
    TokenTimeline,
    aggregate_metrics,
)
from repro.sim.network_sim import LinkChannel
from repro.sim.node_exec import NodeExecutor, StageWork
from repro.sim.request import Request

# Integer event kinds (heap entries are ``(when, seq, kind, payload)``).
K_ARRIVAL = 0  #: a trace request reaches the coordinator
K_GROUP = 1    #: contiguous stage arrivals on one channel (hop group)
K_BATCH = 2    #: a node finishes executing one batch
K_TOKEN = 3    #: contiguous token deliveries to the coordinator
K_ENV = 4      #: an environment callback (online dynamics)

#: Minimum same-channel single-token run length worth the numpy setup cost
#: in the batch-forwarding loop.
_VEC_MIN = 16

#: ``work.owner.live`` at C speed, for the liveness scans of cohort slices.
_owner_live = attrgetter("owner.live")

#: Node health values (see "Node lifecycle" in the module docstring).
UP = "up"
ZOMBIE = "zombie"
SILENT = "silent"
DOWN = "down"


class _Hop:
    """One resolved pipeline hop: everything the hot loop needs, no dicts.

    ``decode_time`` caches the single-token batch time on this hop's
    executor (same expression and association order as
    ``Profiler.batch_time``, so it is bit-identical); ``decode_tl`` is the
    matching integer token-layer count.
    """

    __slots__ = (
        "executor", "pool", "node_id", "channel", "final", "stage_index",
        "decode_time", "decode_tl",
    )

    def __init__(self, executor, pool, node_id, channel, final, stage_index):
        self.executor = executor
        self.pool = pool
        self.node_id = node_id
        self.channel = channel
        self.final = final
        self.stage_index = stage_index


class _HopGroup:
    """A run of contiguous arrivals on one FIFO channel (one heap event).

    ``times``/``seqs``/``works`` are parallel arrays; ``index`` is the
    drain cursor. ``seqs`` carries the per-work event sequence numbers, so
    exact-time ties order identically to per-hop stepping.
    """

    __slots__ = ("kind", "times", "seqs", "works", "index", "utl")

    def __init__(self, kind: int) -> None:
        self.kind = kind
        self.times: list[float] = []
        self.seqs: list[int] = []
        self.works: list[StageWork] = []
        self.index = 0
        # Uniform-token-layer metadata: >= 0 asserts every work in the
        # group is single-token with ``tl == utl``, letting the
        # busy-executor cohort enqueue compute its slice totals in O(1).
        # Set by the decode producers, invalidated by any append that
        # cannot prove uniformity; -1 means unknown/mixed.
        self.utl = -1


class _ActiveRequest:
    """Live state of one scheduled request attempt."""

    __slots__ = (
        "request", "request_id", "pipeline", "record", "live",
        "hops", "entry_channel", "prompt_works", "decode_works", "done",
        "output_len", "sched_id", "hedge", "is_hedge", "entry_work",
        "round_floor",
    )

    def __init__(self, request, pipeline, record):
        self.request = request
        self.request_id = request.request_id
        self.pipeline = pipeline
        self.record = record
        self.live = True
        self.output_len = request.output_len
        # The id this attempt is registered under (scheduler + active
        # table). Hedged shadow attempts use ``<request_id>#hedge`` so
        # both members of the race can hold pipelines simultaneously.
        self.sched_id = request.request_id
        self.hedge = None
        self.is_hedge = False
        # Total stage completions of this attempt. A request's iterations
        # are strictly sequential (at most one in-flight work ever), so
        # completions happen in pipeline order: the first ``depth`` are the
        # prompt phase, every later one a decode hop. The exact KV tokens
        # the attempt holds on each stage — freed on finish or disruption —
        # are therefore derivable from this single counter (see
        # ``kv_allocated``), replacing a per-stage counter update on every
        # hop of every token.
        self.done = 0
        self.hops: list[_Hop] = []
        self.entry_channel: LinkChannel | None = None
        self.prompt_works: list[StageWork] = []
        self.decode_works: list[StageWork] = []
        # Stage-0 decode work: the re-entry work the coordinator ships
        # every iteration.
        self.entry_work: StageWork | None = None
        # Lower bound on one decode round: the sum of its single-token
        # batch times (links only add to it).
        self.round_floor = 0.0

    def kv_allocated(self, stage_index: int) -> int:
        """KV tokens this attempt has allocated on ``stage_index``.

        Mirrors the per-batch pool allocations exactly: the prompt batch
        charged ``input_len`` once on every completed stage, and each
        completed decode hop charged one token.
        """
        depth = len(self.hops)
        done = self.done
        prompt = self.request.input_len if stage_index < min(done, depth) else 0
        decode_done = done - depth
        if decode_done <= 0:
            return prompt
        q, r = divmod(decode_done, depth)
        return prompt + q + (1 if stage_index < r else 0)


@dataclass(slots=True)
class _NodeLife:
    """One node's health, drain mark, and fault bookkeeping.

    ``fault_time`` is the ground-truth gray-fault onset (MTTD and
    false-positive accounting), kept until restore. ``dead_mark`` is the
    token counter at confirmation, which a dead node must never move.
    """

    health: str = UP
    draining: bool = False
    fault_time: float | None = None
    dead_mark: float | None = None
    drain_started: float = 0.0
    drain_waiter: Callable | None = None


@dataclass(frozen=True)
class DrainRecord:
    """One completed graceful drain: the node left with zero lost work.

    ``kv_leaked`` is the KV tokens still charged to the node's pool when
    the drain finalized — a clean drain leaks nothing (every attempt that
    routed through the node finished and freed its charges first).
    """

    node_id: str
    started: float
    completed: float
    kv_leaked: int

    @property
    def duration(self) -> float:
        """Seconds between drain request and the node leaving service."""
        return self.completed - self.started


class Simulation:
    """Simulate serving a request trace on a placed cluster.

    Args:
        cluster: The serving cluster.
        model: The served model.
        placement: Model placement in effect.
        scheduler: A configured scheduler (Helix, Swarm, random, ...).
        requests: The trace, sorted or not by arrival time.
        profiler: Timing model; must match the one used for planning.
        max_batch_tokens: Per-batch token cap on every node (bounds the
            batch latency of flooded offline runs).
        max_time: Simulation horizon in seconds; events beyond it are not
            processed.
        warmup: Seconds excluded from the measurement window.
        seed: Top-level seed recorded for the run. The simulation itself is
            deterministic; thread the *same* seed into the trace and churn
            generators (``random_churn(..., seed=...)``) so one value
            reproduces an entire dynamic run exactly.
        controller: Optional online controller (see
            :class:`repro.online.OnlineController`); its ``start(sim)`` is
            called once before the event loop to inject environment events.
        coalescing: Enable hop-group events, the vectorized cohort paths,
            and the closed-window decode fast-forward. ``False`` forces
            one heap event per hop — the bit-identical per-token
            reference the differential suite compares against. Results
            are identical either way; only the wall-clock speed differs.
            This is the only switch that changes which hot-path code
            runs: faults, tenancy and the scheduler's progress hook do
            not.
        timeline_resolution: Bucket width (seconds) of the global token
            timeline; keep it a power of two so windowed goodput over the
            derived view matches the exact timeline (see
            :class:`~repro.sim.metrics.TokenTimeline`).
        residency: Optional :class:`~repro.sim.residency.ResidencyConfig`.
            When set, nodes track which model layers actually live in
            their VRAM: a node that (re)joins the placement *warms up*
            first — its missing layers are pulled as real weight-transfer
            traffic through the link channels (contending with inference
            activations), and it only becomes schedulable when they land.
            ``None`` (the default) keeps the legacy instant-recovery
            semantics bit-identically.
        tenancy: Optional :class:`~repro.tenancy.manager.TenancyConfig`.
            When set, requests are tagged and accounted per tenant, the
            pending queue becomes per-tenant lanes drained by the
            windowed-fairness selector, and admission control sheds
            lowest-priority traffic first (optionally evicting a
            lower-priority queued request to admit a higher-priority
            arrival). ``None`` (the default) keeps the single-tenant
            legacy semantics bit-identically.
    """

    def __init__(
        self,
        cluster: Cluster,
        model: ModelSpec,
        placement,
        scheduler: Scheduler,
        requests: list[Request],
        profiler: Profiler | None = None,
        max_batch_tokens: int | None = 16384,
        max_time: float = 3600.0,
        warmup: float = 0.0,
        seed: int | None = None,
        controller=None,
        coalescing: bool = True,
        timeline_resolution: float = 0.0625,
        policy=None,
        debug_validate: bool = False,
        residency=None,
        tenancy=None,
    ) -> None:
        if not requests:
            raise SimulationError("request trace is empty")
        self.cluster = cluster
        self.model = model
        self.placement = placement
        self.scheduler = scheduler
        self.profiler = profiler or Profiler()
        self.max_time = max_time
        self.warmup = warmup
        self.max_batch_tokens = max_batch_tokens
        self.seed = seed
        self.controller = controller
        #: Optional per-request lifecycle policy (deadlines, timeouts,
        #: bounded retries, hedging, shedding). ``None`` — and any
        #: default-constructed policy — is the legacy semantics.
        self._policy = policy
        #: Run ``cluster.validate()`` after every event applied through
        #: :meth:`apply_event` (chaos/test harnesses turn this on).
        self.debug_validate = debug_validate
        if policy is not None and policy.max_pending is not None:
            scheduler.admission_limit = policy.max_pending

        self.requests = sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
        self.executors: dict[str, NodeExecutor] = {}
        self.kv_pools: dict[str, KVCachePool] = {}
        for node_id in placement.used_nodes:
            self._bind_node(node_id)
        self.channels: dict[tuple[str, str], LinkChannel] = {
            key: LinkChannel(link) for key, link in cluster.links.items()
        }

        self._events: list[tuple] = []
        self._seq = 0  # global event sequence number (tie-break order)
        self._now = 0.0
        self._halt = False
        self._active: dict[str, _ActiveRequest] = {}
        self._pending: deque[Request] = deque()
        self._records: dict[str, RequestRecord] = {}
        self._pipeline_depths: list[int] = []
        self._last_token_time = 0.0
        self._timeline = TokenTimeline(timeline_resolution)
        # Node lifecycle records (created up on first use), and how many
        # are draining: finishing attempts check drains only when one is.
        self._lives: dict[str, _NodeLife] = {}
        self._n_draining = 0
        self._dead_node_breaches: list[str] = []
        self._requests_shed = 0
        self._requests_lost = 0
        #: Requests sitting out a retry backoff (neither active nor in the
        #: pending queue) — needed for request conservation.
        self._backoff_waiting = 0
        self._base_bandwidth: dict[tuple[str, str], float] = {}
        for node_id in cluster.down_node_ids:
            self._life(node_id).health = DOWN
            self.scheduler.mark_node_down(node_id)

        # Layer residency (None on the default path: zero extra work, the
        # engine is bit-identical to the residency-less simulator).
        if residency is not None:
            from repro.sim.residency import ResidencyManager

            self._residency = ResidencyManager(residency, model, placement)
        else:
            self._residency = None
        # Multi-tenancy (None on the default path: the plain deque pending
        # queue and zero per-token work keep the engine bit-identical to
        # the single-tenant simulator).
        if tenancy is not None:
            from repro.tenancy.manager import FairPendingQueue, TenantManager

            self._tenancy = TenantManager(tenancy)
            self._pending = FairPendingQueue(self._tenancy, lambda: self._now)
            admission = tenancy.admission
            if admission is not None:
                scheduler.admission_limit = admission.max_pending
        else:
            self._tenancy = None
        #: Every completed drain, in completion order.
        self.drain_log: list[DrainRecord] = []

        # Hot-loop constants and state.
        self._coalesce = coalescing
        self._token_bytes = model.token_bytes
        self._abpt = model.activation_bytes_per_token
        self._scratch: dict[LinkChannel, _HopGroup] = {}
        # Schedulers that keep the base class's no-op progress hook skip
        # the per-batch callback entirely.
        self._notify_progress = (
            type(scheduler).notify_node_progress
            is not Scheduler.notify_node_progress
        )
        # Engine telemetry (for benchmarks and tests).
        self.events_popped = 0
        self.grouped_hops = 0
        self.fast_forwarded_tokens = 0
        self.vectorized_tokens = 0
        self.vec_fast_forwarded_tokens = 0
        self.group_fast_forwards = 0

    def _bind_node(self, node_id: str) -> None:
        """Create (or re-create) the executor and KV pool for a used node."""
        node = self.cluster.node(node_id)
        stage = self.placement.interval(node_id)
        old_executor = self.executors.get(node_id)
        if old_executor is not None:
            # In-flight batches of the replaced executor must go stale.
            old_executor.epoch += 1
        self.executors[node_id] = NodeExecutor(
            node, self.model, self.profiler, stage.num_layers,
            self.max_batch_tokens,
        )
        pool = KVCachePool(
            node_id=node_id,
            capacity_tokens=self.profiler.kv_capacity(
                node, self.model, stage.num_layers
            ),
        )
        old_pool = self.kv_pools.get(node_id)
        if old_pool is not None:
            # Overflow/peak history is a run-level statistic (metrics sum
            # over current pools); a rebind must not erase it.
            pool.overflow_events = old_pool.overflow_events
            pool.peak_tokens = old_pool.peak_tokens
        self.kv_pools[node_id] = pool

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def schedule_event(
        self, when: float, fn: Callable[["Simulation"], None]
    ) -> None:
        """Schedule an environment callback ``fn(sim)`` at time ``when``.

        This is how online controllers inject cluster churn — node
        failures, recoveries, link degradations, replan applications —
        into the event loop.
        """
        if not when >= self._now - 1e-9:  # also false for NaN
            if math.isnan(when):
                raise SimulationError("schedule_event: when must not be NaN")
            raise SimulationError(
                f"event 'env' scheduled in the past ({when} < {self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._events, (when, seq, K_ENV, fn))

    def apply_event(self, event) -> str:
        """Apply one :class:`~repro.online.events.ClusterEvent` now.

        Single entry point for environment events so the optional
        ``debug_validate`` hook runs after *every* applied event: any
        event that leaves the cluster's invariants broken fails here,
        at the event, not later at some unrelated assertion.
        """
        description = event.apply(self)
        if self.debug_validate:
            self.cluster.validate()
        return description

    def run(self) -> ServingMetrics:
        """Play the trace and return aggregate metrics."""
        if self.controller is not None:
            self.controller.start(self)
        events = self._events
        seq = self._seq
        for request in self.requests:
            heappush(events, (request.arrival_time, seq, K_ARRIVAL, request))
            seq += 1
        self._seq = seq

        max_time = self.max_time
        pops = 0
        while events:
            item = heappop(events)
            when = item[0]
            if when > max_time:
                break
            pops += 1
            self._now = when
            kind = item[2]
            if kind == K_GROUP:
                self._on_group(item[3])
            elif kind == K_BATCH:
                payload = item[3]
                self._on_batch_complete(*payload)
            elif kind == K_TOKEN:
                self._on_token_group(item[3])
            elif kind == K_ARRIVAL:
                self._on_arrival(item[3])
            else:
                item[3](self)
            if self._halt:
                break
        self.events_popped += pops

        end_time = min(self._now, self.max_time)
        end_time = max(end_time, self.warmup + 1e-9)
        if self._tenancy is not None:
            self._tenancy.finalize(end_time)
        return aggregate_metrics(
            records=list(self._records.values()),
            warmup=self.warmup,
            end_time=end_time,
            kv_overflow_events=sum(
                pool.overflow_events for pool in self.kv_pools.values()
            ),
            pipeline_depths=self._pipeline_depths,
        )

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def _on_arrival(self, request: Request) -> None:
        record = RequestRecord(
            request_id=request.request_id,
            input_len=request.input_len,
            output_len=request.output_len,
            arrival_time=request.arrival_time,
            tenant_id=request.tenant_id,
        )
        tenancy = self._tenancy
        if tenancy is not None:
            record.priority = tenancy.priority_of(request.tenant_id)
        self._records[request.request_id] = record
        policy = self._policy
        if policy is not None and policy.deadline is not None:
            rid = request.request_id
            self.schedule_event(
                request.arrival_time + policy.deadline,
                lambda s, rid=rid: s._deadline_check(rid),
            )
        if not self._try_schedule(request):
            has_admission = (
                tenancy is not None and tenancy.config.admission is not None
            )
            if (has_admission or policy is not None) and not self.scheduler.admit(
                request.request_id,
                request.input_len,
                len(self._pending),
                priority=record.priority,
            ):
                if not (has_admission and self._admit_by_eviction(record)):
                    record.shed = True
                    self._requests_shed += 1
                    return
            self._pending.append(request)

    def _admit_by_eviction(self, record: RequestRecord) -> bool:
        """Make room for a higher-priority arrival at a full queue.

        Sheds the newest queued request of the lowest-priority backlogged
        tenant — but only when it is *strictly* lower priority than the
        arrival, so overload still sheds lowest-priority traffic first
        rather than churning within a class. Returns True when a slot was
        freed for the arrival.
        """
        admission = self._tenancy.config.admission
        if not admission.evict_lower_priority:
            return False
        victim = self._pending.lowest_priority_queued()
        if victim is None:
            return False
        victim_record = self._records[victim.request_id]
        if victim_record.priority >= record.priority:
            return False
        self._pending.remove(victim)
        victim_record.shed = True
        self._requests_shed += 1
        return True

    def _try_schedule(self, request: Request) -> bool:
        pipeline = self.scheduler.schedule(request.request_id, request.input_len)
        if pipeline is None:
            return False
        record = self._records[request.request_id]
        record.schedule_time = self._now
        active = _ActiveRequest(request=request, pipeline=pipeline, record=record)
        self._build_hops(active)
        self._dispatch(active)
        policy = self._policy
        if policy is not None:
            if policy.ttft_timeout is not None:
                self.schedule_event(
                    self._now + policy.ttft_timeout,
                    lambda s, a=active: s._ttft_check(a),
                )
            if policy.hedge_after is not None:
                self.schedule_event(
                    self._now + policy.hedge_after,
                    lambda s, a=active: s._try_hedge(a),
                )
        return True

    def _build_hops(self, active: _ActiveRequest) -> None:
        """Resolve the pipeline into hop-table entries and reusable works.

        Raises ``SimulationError`` when a pipeline hop has no link — the
        same condition the per-hop engine reports at transmit time, caught
        here once instead of per message.
        """
        stages = active.pipeline.stages
        depth = len(stages)
        rid = active.request_id
        input_len = active.request.input_len
        channels = self.channels
        hops = active.hops
        prompt_works = active.prompt_works
        decode_works = active.decode_works
        for index, stage in enumerate(stages):
            node_id = stage.node_id
            executor = self.executors[node_id]
            pool = self.kv_pools[node_id]
            if index + 1 < depth:
                key = (node_id, stages[index + 1].node_id)
                final = False
            else:
                key = (node_id, COORDINATOR)
                final = True
            channel = channels.get(key)
            if channel is None:
                raise SimulationError(
                    f"no link {key[0]!r}->{key[1]!r} for transmission"
                )
            hop = _Hop(executor, pool, node_id, channel, final, index)
            num_layers = stage.num_layers
            hop.decode_tl = num_layers
            hop.decode_time = (
                num_layers / executor.compute_rate
                + executor.weights_time
                + executor.overhead
            )
            hops.append(hop)
            active.round_floor += hop.decode_time
            prompt_works.append(StageWork(
                rid, index, input_len, num_layers, True,
                tl=input_len * num_layers, owner=active, hop=hop,
            ))
            decode_works.append(StageWork(
                rid, index, 1, num_layers, False,
                tl=num_layers, owner=active, hop=hop,
            ))
        # Chain each work to the one its stage forwards to (itself at the
        # final stage: the token returns to the coordinator carrying the
        # same owner).
        for index in range(depth):
            nxt = index + 1 if index + 1 < depth else index
            object.__setattr__(prompt_works[index], "next", prompt_works[nxt])
            object.__setattr__(decode_works[index], "next", decode_works[nxt])
        entry_key = (COORDINATOR, stages[0].node_id)
        entry = channels.get(entry_key)
        if entry is None:
            raise SimulationError(
                f"no link {entry_key[0]!r}->{entry_key[1]!r} for transmission"
            )
        active.entry_channel = entry
        active.entry_work = decode_works[0]

    def _retry_pending(self) -> None:
        while self._pending:
            request = self._pending[0]
            if not self._try_schedule(request):
                return
            self._pending.popleft()

    def _dispatch(self, active: _ActiveRequest) -> None:
        """Register an attempt and ship its prompt to the first stage (one
        single-entry group)."""
        self._active[active.sched_id] = active
        if self._tenancy is not None:
            self._tenancy.note_dispatch(
                active.sched_id, active.request.tenant_id, self._now
            )
        num_bytes = active.request.input_len * self._token_bytes
        arrival = active.entry_channel.transmit(self._now, num_bytes)
        fault = active.entry_channel.fault
        if fault is not None:
            arrival += fault.delay()
        seq = self._seq
        self._seq = seq + 1
        self._push_one(arrival, seq, K_GROUP, active.prompt_works[0])

    def _push_one(self, when: float, seq: int, kind: int, work) -> None:
        """Push a single-entry hop group (one work, one heap event)."""
        group = _HopGroup(kind)
        group.times.append(when)
        group.seqs.append(seq)
        group.works.append(work)
        heappush(self._events, (when, seq, kind, group))

    # ------------------------------------------------------------------
    # Hot loop: group drains, batches, tokens
    # ------------------------------------------------------------------
    def _on_group(self, group: _HopGroup) -> None:
        """Drain contiguous stage arrivals, pausing behind earlier events."""
        times = group.times
        seqs = group.seqs
        works = group.works
        i = group.index
        n = len(times)
        events = self._events
        max_time = self.max_time
        coalesce = self._coalesce
        # The heap top only changes when this drain starts a batch, so it
        # is re-read only then instead of per work.
        if events:
            top = events[0]
            top_t = top[0]
            top_seq = top[1]
        else:
            top_t = math.inf
            top_seq = 0
        while True:
            t = times[i]
            if t > top_t or (t == top_t and seqs[i] > top_seq):
                # A drain can only pause after processing at least one
                # entry: the run loop popped this group as the heap
                # minimum, so its first entry is never behind the top.
                group.index = i
                self._now = times[i - 1]
                heappush(events, (t, seqs[i], K_GROUP, group))
                return
            if t > max_time:
                group.index = i
                self._now = times[i - 1]
                self._halt = True
                return
            work = works[i]
            executor = work.hop.executor
            if coalesce and executor.busy and work.owner.live:
                # Arrivals at a busy executor are pure enqueues: take the
                # whole stretch due before the next heap event (or the
                # horizon) in one slice. All works of a group target the
                # same executor (one channel, one destination), and
                # nothing can flip it idle before the next event pops.
                # The slice stops at the first stale work, which the
                # scalar step below drops (per-hop stepping enqueues
                # every work there).
                bound = top_t if top_t < max_time else max_time
                j = bisect_right(times, bound, i, n)
                while j > i and times[j - 1] == top_t and seqs[j - 1] > top_seq:
                    j -= 1
                span = works[i:j]
                if j - i > 1 and not all(map(_owner_live, span)):
                    j = i + list(map(_owner_live, span)).index(False)
                    span = works[i:j]
                utl = group.utl
                if utl >= 0:
                    # Uniform single-token cohort: slice totals are O(1)
                    # integer products, no per-work scan.
                    tokens = j - i
                    tl = tokens * utl
                else:
                    tokens = 0
                    tl = 0
                    for peer in span:
                        tokens += peer.num_tokens
                        tl += peer.tl
                executor.enqueue_run(span, tokens, tl)
                i = j
                if i == n:
                    group.index = n
                    self._now = times[n - 1]
                    return
                continue  # the loop head re-checks pause/halt for i
            i += 1
            if work.owner.live:
                if executor.busy or executor.queue:
                    executor.queue.append(work)
                    executor.queue_tokens += work.num_tokens
                    executor.queue_tl += work.tl
                    if not executor.busy:
                        self._now = t
                        self._start_batch(executor)
                        top = events[0]  # push above guarantees non-empty
                        top_t = top[0]
                        top_seq = top[1]
                else:
                    # Idle node, empty queue: the arrival is the batch.
                    self._now = t
                    executor.busy = True
                    tl = work.tl
                    elapsed = (
                        tl / executor.compute_rate
                        + executor.weights_time
                        + executor.overhead
                    )
                    seq = self._seq
                    self._seq = seq + 1
                    heappush(
                        events,
                        (
                            t + elapsed,
                            seq,
                            K_BATCH,
                            (executor, executor.epoch, [work], elapsed,
                             tl, work.num_tokens),
                        ),
                    )
                    top = events[0]
                    top_t = top[0]
                    top_seq = top[1]
            if i == n:
                group.index = n
                self._now = times[n - 1]
                return

    def _start_batch(self, executor: NodeExecutor) -> None:
        batch, tokens, tl = executor.take_batch()
        if not batch:
            executor.busy = False
            return
        executor.busy = True
        elapsed = (
            tl / executor.compute_rate
            + executor.weights_time
            + executor.overhead
        )
        seq = self._seq
        self._seq = seq + 1
        heappush(
            self._events,
            (
                self._now + elapsed,
                seq,
                K_BATCH,
                (executor, executor.epoch, batch, elapsed, tl, tokens),
            ),
        )

    def _on_batch_complete(
        self,
        executor: NodeExecutor,
        epoch: int,
        batch: list[StageWork],
        elapsed: float,
        tl: int,
        tokens: int,
    ) -> None:
        if epoch != executor.epoch:
            return  # the node failed or was re-bound mid-batch
        executor.busy = False
        stats = executor.stats
        stats.batches += 1
        stats.busy_time += elapsed
        stats.token_layers += tl
        stats.tokens += tokens
        if self._notify_progress:
            self.scheduler.notify_node_progress(executor.node_id, tokens, elapsed)

        now = self._now
        coalesce = self._coalesce
        scratch = self._scratch
        seq = self._seq
        token_bytes = self._token_bytes
        abpt = self._abpt
        # Run caches: consecutive works almost always share a pool (same
        # stage) and a channel (same next hop); their mutable fields live
        # in locals for the duration of the run and are written back when
        # the run ends. The arithmetic (values and order) is unchanged.
        pool = None
        p_used = p_cap = p_peak = p_over = 0
        channel = ch_fault = None
        ch_nf = ch_bytes = ch_qd = ch_maxq = ch_bw = ch_lat = 0.0
        ch_msgs = 0
        final = grouped = False
        kind = K_GROUP
        g_times = g_seqs = g_works = None
        n_works = len(batch)
        # Long runs of single-token works on one channel (the steady-state
        # decode cohort) vectorize: after the first transmit the channel is
        # continuously busy, so every start time equals the previous end
        # time and the whole chain is one strict left fold —
        # np.add.accumulate reproduces it bit-for-bit (asserted in tests).
        # A run stops at the first stale work and needs a fault-free
        # channel (retransmit delays are drawn per message).
        vec_ok = coalesce and n_works >= _VEC_MIN
        scan_limit = 0
        idx = 0
        while idx < n_works:
            work = batch[idx]
            if (
                vec_ok
                and idx >= scan_limit
                and work.num_tokens == 1
                and work.owner.live
            ):
                hop = work.hop
                run_channel = hop.channel
                j = idx + 1
                while j < n_works:
                    peer = batch[j]
                    if (
                        peer.num_tokens != 1
                        or peer.hop.channel is not run_channel
                        or not peer.owner.live
                    ):
                        break
                    j += 1
                k = j - idx
                if k >= _VEC_MIN and run_channel.fault is None:
                    # Write back the scalar run caches before going wide.
                    if pool is not None:
                        pool.used_tokens = p_used
                        pool.peak_tokens = p_peak
                        pool.overflow_events = p_over
                        pool = None
                    if channel is not None:
                        channel.next_free_time = ch_nf
                        channel.bytes_sent = ch_bytes
                        channel.messages_sent = ch_msgs
                        channel.total_queueing_delay = ch_qd
                        channel.max_queueing_delay = ch_maxq
                        channel = None
                    run = batch[idx:j]
                    hop.pool.charge_run(k)
                    nx = []
                    nx_append = nx.append
                    for peer in run:
                        peer.owner.done += 1
                        nx_append(peer.next)
                    run_final = hop.final
                    num_bytes = token_bytes if run_final else 1 * abpt
                    bw = run_channel.bandwidth
                    transmission = num_bytes / bw
                    nf = run_channel.next_free_time
                    start = nf if nf > now else now
                    chain = _np.empty(k)
                    chain[0] = start + transmission
                    chain[1:] = transmission
                    ends = _np.add.accumulate(chain)
                    queueing = _np.empty(k)
                    queueing[0] = start - now
                    queueing[1:] = ends[:-1] - now
                    arrivals = ends + run_channel.latency
                    run_channel.next_free_time = float(ends[-1])
                    fold = _np.empty(k + 1)
                    fold[0] = run_channel.bytes_sent
                    fold[1:] = num_bytes
                    run_channel.bytes_sent = float(_np.add.accumulate(fold)[-1])
                    run_channel.messages_sent += k
                    fold[0] = run_channel.total_queueing_delay
                    fold[1:] = queueing
                    run_channel.total_queueing_delay = float(
                        _np.add.accumulate(fold)[-1]
                    )
                    top_queueing = float(queueing.max())
                    if top_queueing > run_channel.max_queueing_delay:
                        run_channel.max_queueing_delay = top_queueing
                    group = scratch.get(run_channel)
                    if group is None:
                        group = _HopGroup(K_TOKEN if run_final else K_GROUP)
                        scratch[run_channel] = group
                        group.utl = nx[0].tl
                    elif group.utl != nx[0].tl:
                        group.utl = -1
                    group.times.extend(arrivals.tolist())
                    group.seqs.extend(range(seq, seq + k))
                    seq += k
                    group.works.extend(nx)
                    idx = j
                    continue
                scan_limit = j  # short run: process it scalar, no rescans
            idx += 1
            owner = work.owner
            if not owner.live:
                continue  # finished under max_time truncation, or disrupted
            hop = work.hop
            num_tokens = work.num_tokens
            # KV grows on this node: the whole prompt once, then one token
            # per decode iteration.
            p = hop.pool
            if p is not pool:
                if pool is not None:
                    pool.used_tokens = p_used
                    pool.peak_tokens = p_peak
                    pool.overflow_events = p_over
                pool = p
                p_used = p.used_tokens
                p_cap = p.capacity_tokens
                p_peak = p.peak_tokens
                p_over = p.overflow_events
            p_used += num_tokens
            if p_used > p_cap:
                p_over += 1
            if p_used > p_peak:
                p_peak = p_used
            owner.done += 1
            # Forward on this hop's FIFO channel (inline transmit — the
            # identical arithmetic LinkChannel.transmit performs).
            ch = hop.channel
            if ch is not channel:
                if channel is not None:
                    channel.next_free_time = ch_nf
                    channel.bytes_sent = ch_bytes
                    channel.messages_sent = ch_msgs
                    channel.total_queueing_delay = ch_qd
                    channel.max_queueing_delay = ch_maxq
                channel = ch
                ch_nf = ch.next_free_time
                ch_bytes = ch.bytes_sent
                ch_msgs = ch.messages_sent
                ch_qd = ch.total_queueing_delay
                ch_maxq = ch.max_queueing_delay
                ch_bw = ch.bandwidth
                ch_lat = ch.latency
                ch_fault = ch.fault
                final = hop.final
                kind = K_TOKEN if final else K_GROUP
                # Fault delays can reorder a channel's arrivals, so a
                # flaky channel sends each one as its own heap event.
                grouped = coalesce and ch_fault is None
                if grouped:
                    group = scratch.get(ch)
                    if group is None:
                        group = _HopGroup(kind)
                        scratch[ch] = group
                    elif group.utl >= 0:
                        # Scalar appends may mix phases and widths; the
                        # uniformity claim no longer holds.
                        group.utl = -1
                    g_times = group.times
                    g_seqs = group.seqs
                    g_works = group.works
            num_bytes = token_bytes if final else num_tokens * abpt
            start = ch_nf if ch_nf > now else now
            queueing = start - now
            transmission = num_bytes / ch_bw
            end = start + transmission
            ch_nf = end
            ch_bytes += num_bytes
            ch_msgs += 1
            ch_qd += queueing
            if queueing > ch_maxq:
                ch_maxq = queueing
            arrival = end + ch_lat
            if ch_fault is not None:
                arrival += ch_fault.delay()
            if grouped:
                g_times.append(arrival)
                g_seqs.append(seq)
                g_works.append(work.next)
            else:
                self._push_one(arrival, seq, kind, work.next)
            seq += 1
        self._seq = seq
        if pool is not None:
            pool.used_tokens = p_used
            pool.peak_tokens = p_peak
            pool.overflow_events = p_over
        if channel is not None:
            channel.next_free_time = ch_nf
            channel.bytes_sent = ch_bytes
            channel.messages_sent = ch_msgs
            channel.total_queueing_delay = ch_qd
            channel.max_queueing_delay = ch_maxq
        if scratch:
            events = self._events
            for group in scratch.values():
                heappush(
                    events, (group.times[0], group.seqs[0], group.kind, group)
                )
                self.grouped_hops += len(group.times)
            scratch.clear()

        if executor.queue:
            self._start_batch(executor)

    def _on_token_group(self, group: _HopGroup) -> None:
        """Drain contiguous token deliveries at the coordinator."""
        times = group.times
        seqs = group.seqs
        works = group.works
        i = group.index
        n = len(times)
        events = self._events
        max_time = self.max_time
        coalesce = self._coalesce
        scratch = self._scratch
        tenancy = self._tenancy
        token_bytes = self._token_bytes
        timeline = self._timeline
        tl_counts = timeline._counts
        tl_inv = timeline._inv
        tl_added = 0
        vec_scan = i
        # Earliest re-entry arrival accumulated in scratch but not yet in
        # the heap; the drain must not run past it.
        pending_first = math.inf
        # The heap top only changes when a token finishes its request (a
        # pending admission may push prompt events) or, without
        # coalescing, when the re-entry is pushed directly.
        if events:
            top = events[0]
            top_t = top[0]
            top_seq = top[1]
        else:
            top_t = math.inf
            top_seq = 0
        while True:
            t = times[i]
            if t > top_t or (t == top_t and seqs[i] > top_seq):
                break
            if t > pending_first:
                break
            if t > max_time:
                group.index = i
                timeline.count += tl_added
                self._flush_scratch()
                self._halt = True
                return
            if coalesce and i >= vec_scan and n - i >= _VEC_MIN:
                advanced, pending_first = self._vec_token_run(
                    group, i, top_t, pending_first
                )
                if advanced:
                    i += advanced
                    if i == n:
                        group.index = n
                        timeline.count += tl_added
                        self._flush_scratch()
                        return
                    continue
                # Nothing committed: let the scalar path chew through
                # ``_VEC_MIN`` tokens (first/last tokens, channel
                # switches, tie races) before paying the gather again.
                vec_scan = i + _VEC_MIN
            self._now = t
            work = works[i]
            i += 1
            owner = work.owner
            if owner.live:
                record = owner.record
                token_times = record.token_times
                if not token_times:
                    peer = owner.hedge
                    if peer is not None:
                        # First token decides the hedge race: this attempt
                        # wins, the peer is cancelled (and the winner, if
                        # it was the shadow, is promoted to primary).
                        owner.hedge = None
                        peer.hedge = None
                        owner.is_hedge = False
                        if peer.sched_id in self._active:
                            self._cancel_attempt(peer)
                    record.first_token_time = t
                    if tenancy is not None:
                        tenancy.note_first_token(
                            owner.request.tenant_id, t - record.arrival_time
                        )
                token_times.append(t)
                record.tokens_generated += 1
                if tenancy is not None:
                    tenancy.note_token(owner.request.tenant_id, t)
                self._last_token_time = t
                bucket = int(t * tl_inv)
                if bucket < len(tl_counts):
                    tl_counts[bucket] += 1
                    tl_added += 1
                else:
                    timeline.count += tl_added
                    tl_added = 0
                    timeline.add(t)
                if record.tokens_generated >= owner.output_len:
                    self._finish(owner)
                    if events:
                        top = events[0]
                        top_t = top[0]
                        top_seq = top[1]
                    else:
                        top_t = math.inf
                        top_seq = 0
                elif (
                    coalesce
                    and i == n
                    and not scratch
                    and not self._pending
                    and owner.hedge is None
                    and owner.entry_channel.fault is None
                    and not any(
                        hop.executor.busy
                        or hop.executor.queue
                        or hop.channel.fault is not None
                        for hop in owner.hops
                    )
                ):
                    # Closed window: this request decodes over provably
                    # quiescent executors — fast-forward it without the
                    # event loop until it finishes or the next scheduled
                    # event (an arrival, churn, a stale completion) is
                    # due. Every other live request is parked in the heap
                    # (its next transition is a scheduled event at or
                    # past the window limit), so nothing can touch this
                    # request's executors or channels before the limit;
                    # none of those channels is flaky, so the window draws
                    # no retransmit delays.
                    if len(self._active) > 1:
                        self.group_fast_forwards += 1
                    group.index = n
                    timeline.count += tl_added
                    self._fast_forward(owner)
                    return
                else:
                    # Decode re-entry: coordinator ships one token id back
                    # to the first stage (inline transmit).
                    channel = owner.entry_channel
                    nf = channel.next_free_time
                    start = nf if nf > t else t
                    queueing = start - t
                    transmission = token_bytes / channel.bandwidth
                    end = start + transmission
                    channel.next_free_time = end
                    channel.bytes_sent += token_bytes
                    channel.messages_sent += 1
                    channel.total_queueing_delay += queueing
                    if queueing > channel.max_queueing_delay:
                        channel.max_queueing_delay = queueing
                    arrival = end + channel.latency
                    fault = channel.fault
                    if fault is not None:
                        arrival += fault.delay()
                    seq = self._seq
                    self._seq = seq + 1
                    if coalesce and fault is None:
                        subgroup = scratch.get(channel)
                        if subgroup is None:
                            subgroup = _HopGroup(K_GROUP)
                            scratch[channel] = subgroup
                            subgroup.utl = owner.entry_work.tl
                        elif subgroup.utl != owner.entry_work.tl:
                            subgroup.utl = -1
                        subgroup.times.append(arrival)
                        subgroup.seqs.append(seq)
                        subgroup.works.append(owner.decode_works[0])
                        if arrival < pending_first:
                            pending_first = arrival
                    else:
                        self._push_one(
                            arrival, seq, K_GROUP, owner.decode_works[0]
                        )
                        top = events[0]
                        top_t = top[0]
                        top_seq = top[1]
            if i == n:
                group.index = n
                timeline.count += tl_added
                self._flush_scratch()
                return
        # Paused: something else is due first.
        group.index = i
        timeline.count += tl_added
        heappush(events, (times[i], seqs[i], K_TOKEN, group))
        self._flush_scratch()

    def _vec_token_run(
        self,
        group: _HopGroup,
        i: int,
        top_t: float,
        pending_first: float,
    ) -> tuple[int, float]:
        """Advance a run of steady-state decode token deliveries at once.

        The scalar drain in :meth:`_on_token_group` performs, per token:
        record bookkeeping, the timeline bucket update, and the re-entry
        transmit on the owner's entry channel. For a run of *mid-decode*
        tokens whose owners share one entry channel, all of that
        collapses into one walk over the owners plus a handful of array
        folds. Eligibility is decided from the owners in that walk (a
        stale owner ends the run; ``tokens_generated > 0`` excludes first
        tokens and their hedge/TTFT bookkeeping;
        ``tokens_generated + 1 < output_len`` excludes finishing tokens
        and the heap-top refresh they force), and the shared entry
        channel must be fault-free;
        a candidate run is then cut at the heap top (exact-time ties go
        scalar, where the sequence compare decides), the horizon, and
        the earliest re-entry feedback bound, and finally validated
        against one of two bit-exact channel regimes:

        * **saturated** — every transmit starts at the previous end;
          the end times are the same strict left fold
          ``np.add.accumulate`` replays bit-for-bit (asserted in tests);
        * **free** — every transmit starts at the token's own time;
          queueing is exactly ``0.0`` per token, and ``total += 0.0``
          plus the max update are bit-exact no-ops the scalar path also
          performs, so both are skipped.

        The longer valid prefix matches the true scalar behaviour
        step-for-step (at every index only the regime tracking the real
        ``next_free_time`` survives its validity test; where both
        survive the two formulas coincide exactly), so the committed
        prefix is observably identical to scalar processing.

        Returns ``(advanced, pending_first)``: ``advanced`` tokens
        starting at ``group.index == i`` were fully committed (records,
        timeline, tenant token accounting, channel counters, re-entry
        works, event sequence numbers), possibly none.
        """
        times = group.times
        works = group.works
        end = len(times)
        if end - i > 1024:
            end = i + 1024
        channel = works[i].owner.entry_channel
        if channel.fault is not None:
            return 0, pending_first
        owners = []
        append_owner = owners.append
        for work in works[i:end]:
            owner = work.owner
            generated = owner.record.tokens_generated
            if (
                not owner.live
                or not generated
                or generated + 1 >= owner.output_len
                or owner.entry_channel is not channel
            ):
                break
            append_owner(owner)
        k = len(owners)
        if k < _VEC_MIN:
            return 0, pending_first
        t_arr = _np.array(times[i:i + k])
        if t_arr[k - 1] >= top_t:
            k = int(_np.searchsorted(t_arr, top_t, side="left"))
            if k < _VEC_MIN:
                return 0, pending_first
            t_arr = t_arr[:k]
        max_time = self.max_time
        if t_arr[k - 1] > max_time:
            k = int(_np.searchsorted(t_arr, max_time, side="right"))
            if k < _VEC_MIN:
                return 0, pending_first
            t_arr = t_arr[:k]
        token_bytes = self._token_bytes
        transmission = token_bytes / channel.bandwidth
        nf = channel.next_free_time
        t0 = times[i]
        start0 = nf if nf > t0 else t0
        # The drain must not run past the earliest unflushed re-entry;
        # within this run that is the first token's own re-entry arrival
        # (the entry channel is FIFO, so arrivals are nondecreasing).
        bound = start0 + transmission + channel.latency
        if pending_first < bound:
            bound = pending_first
        if t_arr[k - 1] > bound:
            k = int(_np.searchsorted(t_arr, bound, side="right"))
            if k < _VEC_MIN:
                return 0, pending_first
            t_arr = t_arr[:k]
        chain = _np.empty(k)
        chain[0] = start0 + transmission
        chain[1:] = transmission
        ends_sat = _np.add.accumulate(chain)
        later = t_arr[1:]
        bad_sat = _np.flatnonzero(ends_sat[:-1] < later)
        k_sat = int(bad_sat[0]) + 1 if bad_sat.size else k
        if nf > t0:
            k_free = 0
        else:
            bad_free = _np.flatnonzero(t_arr[:-1] + transmission > later)
            k_free = int(bad_free[0]) + 1 if bad_free.size else k
        if k_sat >= k_free:
            saturated = True
            if k_sat < k:
                k = k_sat
                t_arr = t_arr[:k]
            ends = ends_sat[:k]
        else:
            saturated = False
            k = k_free
            t_arr = t_arr[:k]
            ends = t_arr + transmission
        if k < _VEC_MIN:
            return 0, pending_first
        # ---- commit ----
        arrivals = ends + channel.latency
        channel.next_free_time = float(ends[k - 1])
        fold = _np.empty(k + 1)
        fold[0] = channel.bytes_sent
        fold[1:] = token_bytes
        channel.bytes_sent = float(_np.add.accumulate(fold)[-1])
        channel.messages_sent += k
        if saturated:
            queueing = _np.empty(k)
            queueing[0] = start0 - t0
            queueing[1:] = ends_sat[:k - 1] - later[:k - 1]
            fold[0] = channel.total_queueing_delay
            fold[1:] = queueing
            channel.total_queueing_delay = float(
                _np.add.accumulate(fold)[-1]
            )
            top_queueing = float(queueing.max())
            if top_queueing > channel.max_queueing_delay:
                channel.max_queueing_delay = top_queueing
        self._timeline.add_many(t_arr)
        scratch = self._scratch
        sub = scratch.get(channel)
        utl = owners[0].entry_work.tl
        if sub is None:
            sub = _HopGroup(K_GROUP)
            sub.utl = utl
            scratch[channel] = sub
        elif sub.utl != utl:
            sub.utl = -1
        seq = self._seq
        sub.seqs.extend(range(seq, seq + k))
        self._seq = seq + k
        arr_list = arrivals.tolist()
        sub.times.extend(arr_list)
        append_work = sub.works.append
        t_list = times[i:i + k]
        for owner, t in zip(owners[:k], t_list):
            record = owner.record
            record.token_times.append(t)
            record.tokens_generated += 1
            append_work(owner.entry_work)
        tenancy = self._tenancy
        if tenancy is not None:
            for owner, t in zip(owners, t_list):
                tenancy.note_token(owner.request.tenant_id, t)
        last = t_list[k - 1]
        self._now = last
        self._last_token_time = last
        self.vectorized_tokens += k
        if arr_list[0] < pending_first:
            pending_first = arr_list[0]
        return k, pending_first

    def _flush_scratch(self) -> None:
        scratch = self._scratch
        if not scratch:
            return
        events = self._events
        for group in scratch.values():
            heappush(events, (group.times[0], group.seqs[0], group.kind, group))
            self.grouped_hops += len(group.times)
        scratch.clear()

    def _fast_forward(self, owner: _ActiveRequest) -> None:
        """Run the decode of one closed-window request inline (macro-step).

        Preconditions (checked by the caller): empty pending queue, empty
        scratch, all of the request's executors idle with empty queues,
        current time at its just-emitted token, and every *other* live
        request parked in the heap — its next transition a scheduled event
        at or past the window limit. Until the next heap event is due, the
        system is closed: the only thing that can happen is this request's
        own iteration chain. The loop performs the
        identical float operations, in the identical order, as the event
        path would — entry transmit, per-hop batch and forward, token
        delivery — and allocates the identical event sequence numbers, so
        the results (including exact-time tie ordering afterwards) are
        bit-identical; it merely skips the heap, the dispatch, and the
        queue bookkeeping, none of which can be observed inside the
        window. On reaching the boundary — the next heap event's time, or
        the horizon — it stops mid-chain and re-materializes the one
        in-flight event back into the heap.
        """
        events = self._events
        limit = events[0][0] if events else math.inf
        record = owner.record
        hops = owner.hops
        entry = owner.entry_channel
        token_bytes = self._token_bytes
        abpt = self._abpt
        timeline = self._timeline
        notify = self._notify_progress
        notify_fn = self.scheduler.notify_node_progress
        max_time = self.max_time
        token_times = record.token_times
        decode_works = owner.decode_works
        tenancy = self._tenancy
        if limit - self._now > _VEC_MIN * owner.round_floor:
            # Macro-step whole decode rounds vectorized (guess-and-verify;
            # bit-exact committed prefix). The scalar loop below then
            # handles the boundary round. A window shorter than
            # ``_VEC_MIN`` round floors cannot fit the minimum commit.
            self._vec_fast_forward(owner, limit)
            if record.tokens_generated >= owner.output_len:
                self._finish(owner)
                return
        seq = self._seq
        t = self._now
        produced = 0
        stopped = False
        tenant_id = owner.request.tenant_id
        while True:
            # Coordinator ships the token id back to the first stage.
            nf = entry.next_free_time
            start = nf if nf > t else t
            queueing = start - t
            transmission = token_bytes / entry.bandwidth
            end = start + transmission
            entry.next_free_time = end
            entry.bytes_sent += token_bytes
            entry.messages_sent += 1
            entry.total_queueing_delay += queueing
            if queueing > entry.max_queueing_delay:
                entry.max_queueing_delay = queueing
            cur = end + entry.latency
            arrival_seq = seq
            seq += 1
            if cur >= limit:
                # The stage-0 arrival is not ours to run: re-materialize it.
                self._push_one(cur, arrival_seq, K_GROUP, decode_works[0])
                stopped = True
                break
            if cur > max_time:
                # The arrival would pop past the horizon; _now stays at
                # the last processed event (the token at t).
                self._halt = True
                stopped = True
                break
            for hop in hops:
                # Arrival at ``cur`` starts a single-work batch immediately
                # (every executor is provably idle in the window).
                executor = hop.executor
                elapsed = hop.decode_time
                completion = cur + elapsed
                batch_seq = seq
                seq += 1
                if completion >= limit:
                    executor.busy = True
                    self._now = cur
                    heappush(events, (
                        completion, batch_seq, K_BATCH,
                        (executor, executor.epoch,
                         [decode_works[hop.stage_index]], elapsed,
                         hop.decode_tl, 1),
                    ))
                    stopped = True
                    break
                if completion > max_time:
                    # The batch started but its completion never pops.
                    executor.busy = True
                    self._now = cur
                    self._halt = True
                    stopped = True
                    break
                stats = executor.stats
                stats.batches += 1
                stats.busy_time += elapsed
                stats.token_layers += hop.decode_tl
                stats.tokens += 1
                if notify:
                    notify_fn(hop.node_id, 1, elapsed)
                pool = hop.pool
                used = pool.used_tokens + 1
                if used > pool.capacity_tokens:
                    pool.overflow_events += 1
                pool.used_tokens = used
                if used > pool.peak_tokens:
                    pool.peak_tokens = used
                owner.done += 1
                # Forward at the completion time.
                num_bytes = token_bytes if hop.final else abpt
                channel = hop.channel
                nf = channel.next_free_time
                start = nf if nf > completion else completion
                queueing = start - completion
                transmission = num_bytes / channel.bandwidth
                end = start + transmission
                channel.next_free_time = end
                channel.bytes_sent += num_bytes
                channel.messages_sent += 1
                channel.total_queueing_delay += queueing
                if queueing > channel.max_queueing_delay:
                    channel.max_queueing_delay = queueing
                cur = end + channel.latency
                forward_seq = seq
                seq += 1
                if cur >= limit:
                    self._now = completion
                    self._push_one(
                        cur, forward_seq, K_TOKEN if hop.final else K_GROUP,
                        decode_works[hop.stage_index].next,
                    )
                    stopped = True
                    break
                if cur > max_time:
                    # The next arrival (stage or token) never pops.
                    self._now = completion
                    self._halt = True
                    stopped = True
                    break
            if stopped:
                break
            # Token delivered to the coordinator at ``cur``.
            t = cur
            self._now = t
            token_times.append(t)
            record.tokens_generated += 1
            if tenancy is not None:
                tenancy.note_token(tenant_id, t)
            self._last_token_time = t
            timeline.add(t)
            produced += 1
            if record.tokens_generated >= owner.output_len:
                self._seq = seq
                self.fast_forwarded_tokens += produced
                self._finish(owner)
                return
        self._seq = seq
        self.fast_forwarded_tokens += produced

    def _vec_fast_forward(self, owner: _ActiveRequest, limit: float) -> int:
        """Macro-step whole decode rounds of a closed window at once.

        Inside a fast-forward window each round applies the same chain of
        float constants — entry transmit, per-hop batch / forward, token
        delivery — to an evolving scalar time. Float addition is not
        associative, so the sequence of token times cannot be collapsed
        into one multiply; instead the chain is *replayed elementwise*:

        1. run ONE reference round in plain float arithmetic (also
           proving every channel starts free, i.e. zero queueing);
        2. extrapolate candidate token times from its delta with one
           ``np.add.accumulate``;
        3. recompute the whole round chain elementwise over the
           candidate start times — each numpy binary add performs the
           identical IEEE operation the scalar loop would — and keep the
           prefix where (a) the chain's output confirms the candidate it
           was seeded from, (b) every channel stays free (its previous
           end at or before its next start, so queueing is exactly
           ``0.0`` and the ``+= 0.0`` / max updates are bit-exact
           no-ops), and (c) the round's final token lands strictly
           before the window limit and within the horizon (the chain is
           nondecreasing inside a round, so the final token bounds every
           intermediate checkpoint).

        The committed prefix is therefore bit-identical to scalar
        execution: token times come from the replayed chain itself (not
        the guess), per-object counter updates collapse into the same
        strict left folds the scalar chain performs (``add.accumulate``
        for float accumulators; integer totals exactly), and the event
        sequence counter advances by the rounds' exact allocation count.
        The per-token hooks (the scheduler's ``notify_node_progress`` per
        hop per round, ``TenantManager.note_token`` per token) are
        replayed after each commit in scalar order; nothing inside the
        closed window reads them. Returns the tokens produced; the caller's scalar loop handles
        the boundary round (guess misses and saturated channels simply
        end the committed prefix early — correctness never depends on
        the guess being right).
        """
        record = owner.record
        rounds_left = owner.output_len - record.tokens_generated
        entry = owner.entry_channel
        token_bytes = self._token_bytes
        abpt = self._abpt
        hops = owner.hops
        depth = len(hops)
        trans_e = token_bytes / entry.bandwidth
        lat_e = entry.latency
        consts = []
        for hop in hops:
            ch = hop.channel
            nb = token_bytes if hop.final else abpt
            consts.append(
                (hop, ch, nb, nb / ch.bandwidth, ch.latency, hop.decode_time)
            )
        timeline = self._timeline
        token_times = record.token_times
        max_time = self.max_time
        notify = self._notify_progress
        notify_fn = self.scheduler.notify_node_progress
        tenancy = self._tenancy
        tenant_id = owner.request.tenant_id
        seq_per_round = 1 + 2 * depth
        total = 0
        t = self._now
        while rounds_left - total >= _VEC_MIN:
            # Reference round in plain float arithmetic; numpy scalar
            # adds below perform the identical IEEE operations.
            if entry.next_free_time > t:
                break  # saturated entry: scalar handles the queueing
            cur = (t + trans_e) + lat_e
            free = True
            for _hop, ch, _nb, trans, lat, elapsed in consts:
                completion = cur + elapsed
                if ch.next_free_time > completion:
                    free = False
                    break
                cur = (completion + trans) + lat
            if not free or cur >= limit or cur > max_time:
                break
            t1 = cur
            R = rounds_left - total
            if R > 8192:
                R = 8192
            cand = _np.empty(R)
            cand[0] = t1
            cand[1:] = t1 - t
            guess = _np.add.accumulate(cand)
            starts = _np.empty(R)
            starts[0] = t
            starts[1:] = guess[:-1]
            p = R
            e_end = starts + trans_e
            viol = _np.flatnonzero(e_end[:-1] > starts[1:])
            if viol.size:
                v = int(viol[0]) + 1
                if v < p:
                    p = v
            cur_a = e_end + lat_e
            comps = []
            ends = []
            for _hop, ch, _nb, trans, lat, elapsed in consts:
                comp = cur_a + elapsed
                h_end = comp + trans
                viol = _np.flatnonzero(h_end[:-1] > comp[1:])
                if viol.size:
                    v = int(viol[0]) + 1
                    if v < p:
                        p = v
                comps.append(comp)
                ends.append(h_end)
                cur_a = h_end + lat
            # Round r's chain is seeded from guess[r-1]; the chain output
            # is the truth, so a guess/chain mismatch at r-1 invalidates
            # rounds r onward (round r-1 itself is still exact).
            bad = _np.flatnonzero(cur_a != guess)
            if bad.size:
                v = int(bad[0]) + 1
                if v < p:
                    p = v
            cut = _np.flatnonzero(
                (cur_a[:p] >= limit) | (cur_a[:p] > max_time)
            )
            if cut.size:
                v = int(cut[0])
                if v < p:
                    p = v
            if p < _VEC_MIN:
                break
            # ---- commit p full rounds ----
            tok = cur_a[:p]
            fold = _np.empty(p + 1)
            fold[0] = entry.bytes_sent
            fold[1:] = token_bytes
            entry.bytes_sent = float(_np.add.accumulate(fold)[-1])
            entry.messages_sent += p
            entry.next_free_time = float(e_end[p - 1])
            for (hop, ch, nb, _trans, _lat, elapsed), comp, h_end in zip(
                consts, comps, ends
            ):
                executor = hop.executor
                stats = executor.stats
                stats.batches += p
                fold[0] = stats.busy_time
                fold[1:] = elapsed
                stats.busy_time = float(_np.add.accumulate(fold)[-1])
                # Integer-valued float totals: every partial sum of the
                # scalar chain is integral, so one add is exact.
                stats.token_layers += float(p * hop.decode_tl)
                stats.tokens += float(p)
                hop.pool.charge_run(p)
                fold[0] = ch.bytes_sent
                fold[1:] = nb
                ch.bytes_sent = float(_np.add.accumulate(fold)[-1])
                ch.messages_sent += p
                ch.next_free_time = float(h_end[p - 1])
            owner.done += depth * p
            tok_list = tok.tolist()
            token_times.extend(tok_list)
            if notify:
                for _ in range(p):
                    for hop in hops:
                        notify_fn(hop.node_id, 1, hop.decode_time)
            if tenancy is not None:
                for when in tok_list:
                    tenancy.note_token(tenant_id, when)
            record.tokens_generated += p
            timeline.add_many(tok)
            self._seq += seq_per_round * p
            t = float(tok[p - 1])
            self._now = t
            self._last_token_time = t
            total += p
            if p < R:
                break  # cut short: the scalar loop takes over from t
        if total:
            self.fast_forwarded_tokens += total
            self.vec_fast_forwarded_tokens += total
        return total

    def _finish(self, active: _ActiveRequest) -> None:
        record = active.record
        record.finish_time = self._now
        # Recorded on finish, not on schedule: disrupted attempts' pipelines
        # must not contaminate the finished-request depth average.
        self._pipeline_depths.append(active.pipeline.depth)
        for index, hop in enumerate(active.hops):
            hop.pool.free(active.kv_allocated(index))
        self._retire(active, self.scheduler.notify_finished)
        self._retry_pending()

    def _retire(self, active: _ActiveRequest, notify: Callable) -> None:
        """Take a (finished or cancelled) attempt out of service; a drain
        waiting on it may finalize."""
        active.live = False
        del self._active[active.sched_id]
        if self._tenancy is not None:
            self._tenancy.note_release(active.sched_id, self._now)
        notify(active.sched_id)
        if self._n_draining:
            self._check_drains()

    # ------------------------------------------------------------------
    # Online dynamics: failures, repairs, and live replanning
    # ------------------------------------------------------------------
    def _cancel_attempt(self, active: _ActiveRequest) -> None:
        """Kill one attempt without touching its (possibly shared) record.

        Used for hedge losers and abandoned requests: surviving KV charges
        are released, the liveness flip drops every in-flight event, and
        the scheduler forgets the attempt. Unlike :meth:`_requeue` the
        request does not re-enter the pending queue.
        """
        for index, hop in enumerate(active.hops):
            if self._life(hop.node_id).health not in (SILENT, DOWN):
                hop.pool.free(active.kv_allocated(index))
        self._retire(active, self.scheduler.notify_failed)

    def _ttft_check(self, active: _ActiveRequest) -> None:
        """Re-dispatch an attempt that produced no token within the TTFT bound."""
        if not active.live or active.is_hedge:
            return
        if active.record.token_times:
            return
        self._requeue(active, migrated=False)
        self._retry_pending()

    def _deadline_check(self, request_id: str) -> None:
        """Abandon a request that missed its end-to-end deadline."""
        record = self._records.get(request_id)
        if record is None or record.finished or record.shed or record.lost:
            return
        active = self._active.get(request_id)
        if active is not None:
            peer = active.hedge
            if peer is not None:
                active.hedge = None
                peer.hedge = None
                if peer.sched_id in self._active:
                    self._cancel_attempt(peer)
            record.tokens_lost += record.tokens_generated
            record.tokens_generated = 0
            self._cancel_attempt(active)
        else:
            # Waiting in the pending queue (or sitting out a backoff — the
            # re-arm callback checks the lost flag and drops it).
            for request in self._pending:
                if request.request_id == request_id:
                    self._pending.remove(request)
                    break
        record.lost = True
        self._requests_lost += 1
        self._retry_pending()

    def _try_hedge(self, active: _ActiveRequest) -> None:
        """Dispatch a shadow attempt for a first-token-less primary."""
        if not active.live or active.is_hedge or active.hedge is not None:
            return
        record = active.record
        if record.token_times or record.finished:
            return
        hedge_id = active.sched_id + "#hedge"
        if hedge_id in self._active:
            return
        pipeline = self.scheduler.schedule(hedge_id, active.request.input_len)
        if pipeline is None:
            return
        hedge = _ActiveRequest(
            request=active.request, pipeline=pipeline, record=record
        )
        hedge.sched_id = hedge_id
        hedge.is_hedge = True
        try:
            self._build_hops(hedge)
        except SimulationError:
            self.scheduler.notify_failed(hedge_id)
            return
        hedge.hedge = active
        active.hedge = hedge
        self._dispatch(hedge)

    def _requeue(self, active: _ActiveRequest, migrated: bool) -> None:
        """Abort an attempt and send the request back to the pending queue.

        The attempt's tokens become wasted work, its KV charges on
        surviving nodes are released (the failed node's pool was flushed
        wholesale), and the liveness flip makes every event the old
        attempt still has in flight fall on the floor. Under a lifecycle
        policy the re-dispatch may instead wait out a backoff, or — past
        the retry budget — abandon the request (*lost*).
        """
        peer = active.hedge
        if peer is not None:
            active.hedge = None
            peer.hedge = None
        if active.is_hedge:
            # A shadow attempt dies quietly; the primary (also requeued by
            # the same sweep if it routed through the same node) owns the
            # record and the re-dispatch.
            if active.sched_id in self._active:
                self._cancel_attempt(active)
            return
        if peer is not None and peer.sched_id in self._active:
            self._cancel_attempt(peer)
        record = active.record
        record.tokens_lost += record.tokens_generated
        if migrated:
            record.migrations += 1
        else:
            record.retries += 1
        record.tokens_generated = 0
        record.token_times = []
        record.first_token_time = math.nan
        record.schedule_time = math.nan
        self._cancel_attempt(active)
        policy = self._policy
        if policy is None:
            self._pending.append(active.request)
            return
        attempts = record.retries + record.migrations
        if policy.max_retries is not None and attempts > policy.max_retries:
            record.lost = True
            self._requests_lost += 1
            return
        delay = policy.retry_delay(active.request_id, attempts)
        if delay <= 0:
            self._pending.append(active.request)
            return
        self._backoff_waiting += 1

        def rearm(sim, request=active.request, record=record):
            sim._backoff_waiting -= 1
            if record.lost or record.shed or record.finished:
                return
            sim._pending.append(request)
            sim._retry_pending()

        self.schedule_event(self._now + delay, rearm)

    def fail_node(self, node_id: str, announce: bool = True) -> list[str]:
        """A node crashes: its KV state is lost and its work fails.

        With ``announce`` (the default) everything happens at once:
        queued stage work is dropped, the in-flight batch (if any) never
        completes, every request whose pipeline routes through the node
        is requeued for a fresh scheduling attempt on the surviving
        topology, and the scheduler masks the node until
        :meth:`restore_node`.

        With ``announce=False`` only the *physical* half happens — the
        node stops computing and blackholes everything sent to it — while
        the control plane stays oblivious: the scheduler keeps routing
        there and in-flight requests stall. That limbo ends when a
        failure detector calls :meth:`confirm_node_failure` (or the
        environment heals the node). This is the silent-crash gray
        failure.

        Returns the ids of the requeued requests (empty when silent).
        """
        life = self._life(node_id)
        if life.health == DOWN:
            return []
        if announce:
            # Nothing is left for a detector to find: not a gray fault.
            life.fault_time = None
            return self._take_down(node_id, life)
        if life.health == SILENT:
            return []
        life.health = SILENT
        if life.fault_time is None:
            life.fault_time = self._now
        if self._residency is not None:
            # The crash wipes VRAM; the control plane learns when the
            # failure is confirmed, but the physics happens now.
            self._residency.flush(node_id)
        # A permanently-busy executor is a blackhole: arrivals enqueue
        # forever and no batch of the new epoch ever runs.
        self._quiesce(node_id, busy=True)
        self._flush_kv(node_id)
        return []

    def _take_down(self, node_id: str, life: _NodeLife) -> list[str]:
        """The control-plane half of a crash, announced or confirmed:
        returns the ids requeued (in ``_active`` order)."""
        life.health = DOWN
        self._end_drain(life)
        if self._residency is not None:
            self._residency.flush(node_id)
            self.scheduler.mark_node_warm(node_id)
        self.cluster.set_node_available(node_id, False)
        self.scheduler.mark_node_down(node_id)
        self._quiesce(node_id)
        self._flush_kv(node_id)
        requeued = [
            rid
            for rid, active in self._active.items()
            if node_id in active.pipeline.node_ids
        ]
        for rid in requeued:
            active = self._active.get(rid)
            if active is not None:  # hedge peers vanish with their primary
                self._requeue(active, migrated=False)
        self._retry_pending()
        return requeued

    def _quiesce(self, node_id: str, busy: bool = False) -> None:
        """Drop a node's queued stage work and stale its in-flight batch."""
        executor = self.executors.get(node_id)
        if executor is not None:
            executor.epoch += 1
            executor.queue.clear()
            executor.queue_tokens = 0
            executor.queue_tl = 0
            executor.busy = busy

    def _flush_kv(self, node_id: str) -> int:
        """Zero a node's KV pool; returns the tokens it still held."""
        pool = self.kv_pools.get(node_id)
        if pool is None:
            return 0
        held = pool.used_tokens
        pool.used_tokens = 0
        return held

    def confirm_node_failure(self, node_id: str) -> float:
        """A detector confirms a silently-failed/zombie (or healthy) node dead.

        Completes the control-plane half that ``fail_node(announce=False)``
        or :meth:`make_zombie` withheld: the scheduler masks the node,
        stalled requests through it are requeued, and the node's token
        counter is snapshotted — a confirmed-dead node must never emit
        another token (the chaos invariants assert it).

        Returns the detection latency (confirmation time minus the true
        fault onset), or NaN for a false positive: confirming a healthy
        node takes it down all the same, which is exactly the cost a
        trigger-happy detector pays.
        """
        life = self._life(node_id)
        if life.health == DOWN:
            return math.nan
        executor = self.executors.get(node_id)
        if executor is not None:
            life.dead_mark = executor.stats.tokens
        onset = life.fault_time
        self._take_down(node_id, life)
        return math.nan if onset is None else self._now - onset

    def make_zombie(self, node_id: str) -> None:
        """A node wedges: it accepts work (and heartbeats) but never finishes.

        The in-flight batch goes stale, the queue keeps accumulating
        arrivals, and — unlike a crash — the KV pool keeps its contents
        (the process is alive, its memory intact). Heartbeat-only
        detectors never notice; a progress watchdog or the stalled
        requests' TTFT timeouts do.
        """
        life = self._life(node_id)
        if life.health != UP:
            return
        life.health = ZOMBIE
        life.fault_time = self._now
        executor = self.executors.get(node_id)
        if executor is not None:
            executor.epoch += 1  # the running batch never completes
            executor.busy = True  # accepts arrivals, never starts a batch

    def set_compute_slowdown(self, node_id: str, factor: float) -> None:
        """A node silently computes ``factor`` times slower (1.0 = healthy).

        Nothing is announced: the scheduler keeps its cost model and the
        planner its constants — exactly the straggler gray failure. Hop
        tables of live attempts re-cache the node's decode time so future
        iterations (including fast-forwarded ones) price correctly.
        """
        if not 0 < factor < math.inf:
            raise SimulationError(
                f"slowdown factor must be positive and finite, got {factor}"
            )
        self.cluster.node(node_id)
        executor = self.executors.get(node_id)
        if executor is None:
            raise SimulationError(
                f"node {node_id!r} holds no layers; cannot straggle"
            )
        executor.set_slowdown(factor)
        for active in self._active.values():
            for hop in active.hops:
                if hop.executor is executor:
                    hop.decode_time = (
                        hop.decode_tl / executor.compute_rate
                        + executor.weights_time
                        + executor.overhead
                    )

    def set_link_flaky(
        self,
        src: str,
        dst: str,
        drop_probability: float,
        retransmit_delay: float,
        bidirectional: bool = True,
    ) -> None:
        """A link turns lossy: each message may pay retransmit delays.

        Attaches a seeded :class:`~repro.online.faults.LinkFault` to the
        channel(s). Data messages are delayed, never lost; heartbeats
        crossing the link may be dropped outright. Delays can reorder a
        channel's arrivals, so while the fault lives every arrival over
        the channel is its own heap event and no vectorized run or
        fast-forward window crosses it; other channels are unaffected.
        ``retransmit_delay`` must be finite and non-negative.
        """
        from repro.online.faults import LinkFault

        if not 0 <= retransmit_delay < math.inf:  # also false for NaN
            raise SimulationError(
                "retransmit_delay must be finite and >= 0, got "
                f"{retransmit_delay}"
            )
        self.cluster.link(src, dst)  # referential check
        for key in self._link_keys(src, dst, bidirectional):
            channel = self.channels.get(key)
            if channel is None:
                raise SimulationError(
                    f"no channel {key[0]!r}->{key[1]!r} to make flaky"
                )
            channel.fault = LinkFault(
                drop_probability,
                retransmit_delay,
                seed=f"repro-flaky:{self.seed}:{key[0]}:{key[1]}",
            )

    def clear_link_flaky(
        self, src: str, dst: str, bidirectional: bool = True
    ) -> None:
        """A flaky link heals: its channels coalesce again.

        Fault delays only perturb *future* arrivals — everything already
        in the heap was priced when its fault (if any) was live — so the
        healed channels' new hop groups are sorted again. A differential
        test asserts post-heal timelines are unchanged against a per-hop
        run.
        """
        for key in self._link_keys(src, dst, bidirectional):
            channel = self.channels.get(key)
            if channel is not None:
                channel.fault = None

    def restore_node(self, node_id: str) -> None:
        """A failed node rejoins (cold: empty KV, empty queue)."""
        life = self._life(node_id)
        if life.health in (SILENT, ZOMBIE):
            # The environment healed an undetected fault. Surface it as a
            # confirmation first — stalled requests requeue, state resets —
            # then fall through to the normal rejoin.
            self.confirm_node_failure(node_id)
        if life.health != DOWN:
            return
        if self._emitted_since(node_id, life.dead_mark):
            self._dead_node_breaches.append(node_id)
        life.fault_time = life.dead_mark = None
        self.cluster.set_node_available(node_id, True)
        life.health = UP
        self.scheduler.mark_node_up(node_id)
        self._flush_kv(node_id)
        if self._residency is not None and self.placement.holds_layers(node_id):
            # Recovery is not free: the node must pull its assigned layers
            # before it can serve (no-op if they are still resident — a
            # drained warm spare rejoins instantly).
            self._warm_node(node_id)
        self._retry_pending()

    # ------------------------------------------------------------------
    # Graceful drain
    # ------------------------------------------------------------------
    def drain_node(
        self, node_id: str, on_complete: Callable | None = None
    ) -> None:
        """Gracefully remove a node: finish in-flight work, lose nothing.

        The scheduler stops routing *new* pipelines through the node
        immediately (and replans exclude it — its cluster availability
        flips), but every attempt already routed through it runs to
        completion. When the last one finishes, the node leaves service
        for real: it joins the down set, its executor quiesces, its KV
        accounting is released (a clean drain releases zero — everything
        was freed by the finishing requests), a :class:`DrainRecord` lands
        in :attr:`drain_log`, and ``on_complete(sim)`` fires. Resident
        layers are *retained*: a drained node is a warm spare that can
        rejoin without re-pulling weights.

        Draining a silently-dead or zombie node cannot be graceful — it is
        surfaced as a failure confirmation instead.
        """
        life = self._life(node_id)
        if life.health == DOWN or life.draining:
            return
        if life.health != UP:
            self.confirm_node_failure(node_id)
            return
        life.draining = True
        self._n_draining += 1
        life.drain_started = self._now
        life.drain_waiter = on_complete
        self.scheduler.mark_node_down(node_id)
        self.cluster.set_node_available(node_id, False)
        self._check_drains()

    def _check_drains(self) -> None:
        """Finalize every draining node with no remaining in-flight work:
        it goes down and quiesces, and its DrainRecord is logged."""
        lives = self._lives
        for node_id in sorted(n for n, life in lives.items() if life.draining):
            life = lives[node_id]
            if not life.draining or any(  # an earlier waiter crashed it
                node_id in active.pipeline.node_ids
                for active in self._active.values()
            ):
                continue
            started, waiter = life.drain_started, life.drain_waiter
            self._end_drain(life)
            life.health = DOWN
            self._quiesce(node_id)
            kv_leaked = self._flush_kv(node_id)
            self.drain_log.append(
                DrainRecord(node_id, started, self._now, kv_leaked)
            )
            if waiter is not None:
                waiter(self)

    def _end_drain(self, life: _NodeLife) -> None:
        """Clear the drain mark (a crash superseding it logs no record)."""
        if life.draining:
            life.draining = False
            self._n_draining -= 1

    # ------------------------------------------------------------------
    # Layer residency: warm-up pulls and eviction
    # ------------------------------------------------------------------
    def _warm_node(self, node_id: str) -> None:
        """Pull the node's missing assigned layers through the network.

        Each missing layer is one weight transfer on a real link channel
        — from a peer that holds the layer resident when one is reachable,
        else from the coordinator (the weight store) — so warm-up traffic
        queues behind (and delays) inference activations on shared links.
        The node is masked ``warming`` until the last transfer lands.
        Already-resident layers cost nothing; surplus layers are evicted
        when the VRAM layer budget would overflow.
        """
        res = self._residency
        stage = self.placement.interval(node_id)
        needed = set(range(stage.start, stage.end))
        missing = sorted(needed - res.layers_of(node_id))
        if not missing:
            if res.is_warming(node_id):
                res.cancel(node_id)
            self.scheduler.mark_node_warm(node_id)
            return
        if res.is_warming(node_id) and res.pending_layers(node_id) == tuple(
            missing
        ):
            return  # the in-flight pull already covers exactly this need
        budget = self.profiler.max_layers(self.cluster.node(node_id), self.model)
        res.evict_for(node_id, needed, budget, self._now)
        layer_bytes = res.layer_bytes
        now = self._now
        sources: list[str] = []
        latest = now
        for layer in missing:
            src, channel = self._weight_source(node_id, layer)
            sources.append(src)
            arrival = channel.transmit(now, layer_bytes)
            fault = channel.fault
            if fault is not None:
                arrival += fault.delay()
            if arrival > latest:
                latest = arrival
        token = res.begin(
            node_id, tuple(missing), now,
            layer_bytes * len(missing), tuple(sorted(set(sources))),
        )
        self.scheduler.mark_node_warming(node_id)
        self.schedule_event(
            latest,
            lambda s, nid=node_id, tok=token: s._finish_warmup(nid, tok),
        )

    def _weight_source(self, node_id: str, layer: int):
        """Pick where one layer is pulled from: a resident peer, else the
        coordinator (which stands in for the persistent weight store)."""
        res = self._residency
        for src in sorted(res.resident):
            if src == node_id or not self.can_serve(src):
                continue
            if layer in res.resident[src]:
                channel = self.channels.get((src, node_id))
                if channel is not None:
                    return src, channel
        channel = self.channels.get((COORDINATOR, node_id))
        if channel is None:
            raise SimulationError(
                f"no channel to pull weights into {node_id!r}: no resident "
                "peer link and no coordinator link"
            )
        return COORDINATOR, channel

    def _finish_warmup(self, node_id: str, token: int) -> None:
        """The last weight transfer landed: the node becomes schedulable."""
        res = self._residency
        if res is None or not res.still_valid(node_id, token):
            return  # superseded by a newer pull, a crash, or a replan
        if self.node_health(node_id) in (SILENT, DOWN):
            return
        res.complete(node_id, self._now)
        self.scheduler.mark_node_warm(node_id)
        self._retry_pending()

    def _sync_residency(self) -> None:
        """Reconcile residency with a just-applied placement.

        Warming pulls for nodes that lost their assignment are abandoned;
        every (reachable) node the new placement uses warms toward its
        assigned interval — instantly schedulable when already resident.
        """
        res = self._residency
        placement = self.placement
        for node_id in sorted(res.warming_nodes):
            if not placement.holds_layers(node_id):
                res.cancel(node_id)
                self.scheduler.mark_node_warm(node_id)
        for node_id in placement.used_nodes:
            if self.can_serve(node_id):
                self._warm_node(node_id)

    def degrade_link(
        self, src: str, dst: str, factor: float, bidirectional: bool = True
    ) -> None:
        """Scale a link's bandwidth to ``factor`` of its original value.

        Affects every future transmission (in-flight messages keep their
        already-computed arrival times, like packets already on the wire)
        and, through :meth:`~repro.flow.graph.FlowGraph.refresh_links`, the
        flow capacities the next replanning sees. ``factor`` is relative to
        the link's *original* bandwidth, so repeated degradations do not
        compound; :meth:`restore_link` resets it. With ``bidirectional``
        the reverse direction is degraded too when it exists (links may be
        asymmetric).
        """
        if not 0 < factor < math.inf:
            raise SimulationError(
                "degradation factor must be positive and finite, got "
                f"{factor} (sever connectivity by failing nodes instead)"
            )
        self.cluster.link(src, dst)  # referential check before mutating
        for key in self._link_keys(src, dst, bidirectional):
            base = self._base_bandwidth.setdefault(
                key, self.cluster.link(*key).bandwidth
            )
            link = self.cluster.set_link_bandwidth(*key, base * factor)
            channel = self.channels.get(key)
            if channel is not None:
                channel.set_link(link)

    def restore_link(
        self, src: str, dst: str, bidirectional: bool = True
    ) -> None:
        """Restore a degraded link to its original bandwidth."""
        for key in self._link_keys(src, dst, bidirectional):
            base = self._base_bandwidth.pop(key, None)
            if base is None:
                continue
            link = self.cluster.set_link_bandwidth(*key, base)
            channel = self.channels.get(key)
            if channel is not None:
                channel.set_link(link)

    def _link_keys(
        self, src: str, dst: str, bidirectional: bool
    ) -> list[tuple[str, str]]:
        """``(src, dst)``, plus the reverse direction if asked and present."""
        if bidirectional and self.cluster.has_link(dst, src):
            return [(src, dst), (dst, src)]
        return [(src, dst)]

    def _attempt_survives(
        self, pipeline: RequestPipeline, placement, rebound: set[str]
    ) -> bool:
        """Whether an in-flight pipeline is still executable.

        A pipeline dies if any of its nodes is down, left the placement, or
        is about to be *re-bound* (its layer interval changed, so its
        executor and KV pool are replaced — queued and in-flight work there
        would vanish with the old executor). A node that is up, still
        placed, and not re-bound holds the exact interval the pipeline was
        built against, so no further stage check is needed. Draining nodes
        are exempt from every check: the whole point of a graceful drain
        is that in-flight pipelines through the node run to completion.
        """
        for stage in pipeline.stages:
            life = self._life(stage.node_id)
            if life.draining:
                continue
            if life.health == DOWN:
                return False
            if stage.node_id in rebound:
                return False
            if not placement.holds_layers(stage.node_id):
                return False
        return True

    def apply_placement(self, placement, flow=None) -> list[str]:
        """Hot-swap a replanned placement (and flow) into the live run.

        Requests whose pipelines survive the swap — every stage node still
        up, still holding the same layer interval — keep draining
        untouched. The rest are *migrated*: requeued for scheduling under
        the new placement. Nodes entering service get executors and KV
        pools; nodes whose layer interval changed are re-bound (their
        resident weights are reloaded, which also resets their KV pool —
        every request with state there is migrated first).

        Returns the ids of migrated requests.
        """
        placement.validate()
        if flow is not None and flow.max_flow <= 0:
            # Reject before mutating: the scheduler would refuse this flow
            # anyway, and by then requests would already be requeued and
            # executors rebound against a placement it never adopted.
            raise SimulationError(
                "flow solution carries no flow; refusing to hot-swap"
            )
        old_placement = self.placement
        rebound: set[str] = set()
        for node_id in placement.used_nodes:
            if node_id not in self.executors:
                continue  # entering service: no in-flight state to protect
            old_stage = (
                old_placement.interval(node_id)
                if old_placement.holds_layers(node_id)
                else None
            )
            stage = placement.interval(node_id)
            if old_stage is None or (old_stage.start, old_stage.end) != (
                stage.start, stage.end
            ):
                rebound.add(node_id)

        migrated = []
        for rid, active in list(self._active.items()):
            if rid not in self._active:
                continue  # a hedge peer cancelled earlier in this sweep
            if not self._attempt_survives(active.pipeline, placement, rebound):
                migrated.append(rid)
                self._requeue(active, migrated=True)

        self.placement = placement
        for node_id in placement.used_nodes:
            if node_id not in self.executors or node_id in rebound:
                self._bind_node(node_id)  # bumps the old executor's epoch
        # Nodes leaving service quiesce like failed ones: queued stage work
        # is dropped and the in-flight batch (if any) goes stale, so they
        # stop accruing utilization and scheduler progress. Their executors
        # and KV pools stay registered for run-level statistics.
        for node_id in old_placement.used_nodes:
            if placement.holds_layers(node_id):
                continue
            if self._life(node_id).draining:
                # A draining node quiesces when its last in-flight attempt
                # finishes (_check_drains), not here — a hard quiesce now
                # would drop the very batches the drain promised to finish.
                continue
            self._quiesce(node_id)
        # A joined node brings new links; give them channels.
        for key, link in self.cluster.links.items():
            if key not in self.channels:
                self.channels[key] = LinkChannel(link)

        self.scheduler.apply_placement(placement, flow=flow)
        if self._residency is not None:
            self._sync_residency()
        self._retry_pending()
        return migrated

    # ------------------------------------------------------------------
    # Introspection for tests and case studies
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def _life(self, node_id: str) -> _NodeLife:
        """The node's lifecycle record, created (up) on first use; raises
        for a node the cluster does not know."""
        life = self._lives.get(node_id)
        if life is None:
            self.cluster.node(node_id)  # referential check
            life = self._lives[node_id] = _NodeLife()
        return life

    def node_health(self, node_id: str) -> str:
        """The node's health: :data:`UP`, :data:`ZOMBIE`, :data:`SILENT`
        or :data:`DOWN` (draining is separate; see :meth:`can_serve`)."""
        return self._life(node_id).health

    def can_serve(self, node_id: str) -> bool:
        """Whether the node is up and not draining: it can take new work
        and lend its resident weights to a warming peer."""
        life = self._life(node_id)
        return life.health == UP and not life.draining

    def _nodes_with(self, health: str) -> set[str]:
        return {n for n, life in self._lives.items() if life.health == health}

    @property
    def down_nodes(self) -> set[str]:
        """Nodes currently failed."""
        return self._nodes_with(DOWN)

    @property
    def silent_down_nodes(self) -> set[str]:
        """Nodes physically dead but not yet confirmed by any detector."""
        return self._nodes_with(SILENT)

    @property
    def draining_nodes(self) -> set[str]:
        """Nodes finishing in-flight work before leaving service."""
        return {n for n, life in self._lives.items() if life.draining}

    @property
    def residency(self):
        """The layer-residency ledger, or ``None`` when disabled."""
        return self._residency

    @property
    def warming_nodes(self) -> set[str]:
        """Nodes mid-warm-up (pulling weights, unschedulable)."""
        if self._residency is None:
            return set()
        return self._residency.warming_nodes

    @property
    def zombie_nodes(self) -> set[str]:
        """Nodes accepting work (and heartbeating) without making progress."""
        return self._nodes_with(ZOMBIE)

    @property
    def fault_times(self) -> dict[str, float]:
        """Ground-truth onset time of every un-restored gray fault."""
        return {
            n: life.fault_time
            for n, life in self._lives.items()
            if life.fault_time is not None
        }

    @property
    def requests_shed(self) -> int:
        """Arrivals rejected by admission control."""
        return self._requests_shed

    @property
    def requests_lost(self) -> int:
        """Requests abandoned (deadline missed or retry budget exhausted)."""
        return self._requests_lost

    @property
    def in_flight_requests(self) -> int:
        """Requests neither finished, shed, nor lost: active attempts
        (hedge shadows excluded — they share a primary), the pending
        queue, and requests waiting out a retry backoff."""
        active = sum(1 for a in self._active.values() if not a.is_hedge)
        return active + len(self._pending) + self._backoff_waiting

    def dead_node_token_violations(self) -> list[str]:
        """Confirmed-dead nodes whose token counter moved afterwards."""
        return self._dead_node_breaches + [
            node_id
            for node_id, life in self._lives.items()
            if self._emitted_since(node_id, life.dead_mark)
        ]

    def _emitted_since(self, node_id: str, mark: float | None) -> bool:
        """Whether the node's token counter moved off a dead mark."""
        executor = self.executors.get(node_id)
        return None not in (mark, executor) and executor.stats.tokens != mark

    @property
    def pending_requests(self) -> int:
        """Requests waiting in the pending queue."""
        return len(self._pending)

    @property
    def token_timeline(self) -> list[float]:
        """Emission times of every token the system produced, in order.

        Unlike per-request records (reset when an attempt is disrupted),
        this global timeline is append-only: tokens emitted by an attempt
        that later failed stay in it. It is stored in fixed-width buckets
        (``timeline_resolution`` wide), so this derived view reports each
        token at its bucket's start time; memory stays bounded by the
        simulated horizon instead of growing with the token count. Feeding
        it to :func:`~repro.sim.metrics.goodput_timeline` with any window
        that is a multiple of the resolution yields exactly the same
        windowed goodput as the exact times — including the dip around a
        failure and the recovery after replanning.
        """
        return self._timeline.times()

    @property
    def token_buckets(self) -> list[int]:
        """Raw token counts per ``timeline_resolution``-wide bucket."""
        return self._timeline.bucket_counts()

    @property
    def timeline_resolution(self) -> float:
        """Bucket width of the token timeline, in seconds."""
        return self._timeline.resolution

    @property
    def tokens_emitted(self) -> int:
        """Total tokens the system produced (including disrupted attempts)."""
        return self._timeline.count

    @property
    def engine_stats(self) -> dict[str, int]:
        """Hot-loop telemetry: events popped, grouped hops, fast-forwards,
        and the vectorized-path counters."""
        return {
            "events_popped": self.events_popped,
            "grouped_hops": self.grouped_hops,
            "fast_forwarded_tokens": self.fast_forwarded_tokens,
            "vectorized_tokens": self.vectorized_tokens,
            "vec_fast_forwarded_tokens": self.vec_fast_forwarded_tokens,
            "group_fast_forwards": self.group_fast_forwards,
        }

    @property
    def records(self) -> list[RequestRecord]:
        """Records of every request that has arrived so far."""
        return list(self._records.values())

    @property
    def tenancy(self):
        """The run's :class:`~repro.tenancy.manager.TenantManager`
        (``None`` in the single-tenant default configuration)."""
        return self._tenancy

    def kv_usage_by_tenant(self) -> dict[str, dict[str, int]]:
        """KV tokens currently allocated, as ``node_id -> tenant -> tokens``.

        Derived from the per-attempt ``kv_allocated`` counters of every
        in-flight attempt, so by construction each node's per-tenant sum
        equals what those attempts charged to its pool — the tenancy
        invariant compares this against ``pool.used_tokens`` live.
        """
        usage: dict[str, dict[str, int]] = {}
        for active in self._active.values():
            tenant_id = active.request.tenant_id
            for index, hop in enumerate(active.hops):
                allocated = active.kv_allocated(index)
                if allocated:
                    per_node = usage.setdefault(hop.node_id, {})
                    per_node[tenant_id] = (
                        per_node.get(tenant_id, 0) + allocated
                    )
        return usage

    def record_of(self, request_id: str) -> RequestRecord:
        """Per-request record (available after the run)."""
        return self._records[request_id]

    def congestion_report(self, top: int = 5) -> list[tuple[str, str, float]]:
        """Links with the largest mean queueing delay (src, dst, seconds)."""
        ranked = sorted(
            (
                (key[0], key[1], channel.mean_queueing_delay)
                for key, channel in self.channels.items()
                if channel.messages_sent > 0
            ),
            key=lambda row: -row[2],
        )
        return ranked[:top]
