"""Failure detection over the simulated network (phi-accrual + watchdog).

The detection loop closes the gray-failure gap: ``repro.online.events``
failures are *announced* (the scheduler learns instantly), but real
clusters only ever observe symptoms — missing heartbeats, stalled
progress. :class:`FailureDetector` runs inside the simulation and sees
exactly what a real coordinator would:

* **Heartbeats through the simulated network.** Every monitored node
  emits a heartbeat each ``heartbeat_interval``; its delivery time is
  computed from the node's live channel to the coordinator (bandwidth +
  propagation latency, so a degraded link slows heartbeats down and
  raises suspicion exactly as it should). Heartbeats ride a control
  plane: they never occupy the data channel's FIFO slot (no mutation of
  channel state, so enabling detection cannot perturb data-plane timing
  — the differential suite depends on this), but a flaky link's
  :class:`~repro.online.faults.LinkFault` *does* drop them outright.
* **Phi-accrual suspicion.** Per node, the detector keeps a window of
  observed inter-arrival times; suspicion level is the classic
  exponential phi — ``0.434 * elapsed / mean_interval`` — and crossing
  ``phi_threshold`` raises a *crash* suspicion. A late heartbeat clears
  it (a flap), doubles that node's threshold (``flap_damping``), and
  counts toward false-positive accounting.
* **Progress watchdog.** A zombie keeps heartbeating, so phi never
  fires; instead the watchdog suspects any node that is busy or has
  queued work but whose batch counter has not advanced for
  ``zombie_timeout`` seconds.
* **Confirmation.** A suspicion sustained for ``confirm_after`` seconds
  confirms: the ``on_confirm`` callback fires (the controller reacts by
  calling ``sim.confirm_node_failure`` and replanning). Confirming a
  healthy node is allowed — that is what a false positive *is* — and the
  simulation charges its full cost.

Everything is driven by the simulation's event loop and the simulation's
seeded fault state; two runs of the same seed and schedule produce the
identical suspicion timeline, MTTD samples, and false-positive count
(asserted in tests).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.cluster.node import COORDINATOR
from repro.sim.simulator import DOWN, SILENT

#: log10(e) — converts the exponential survival exponent to phi digits.
_LOG10_E = 0.4342944819032518


@dataclass(frozen=True)
class DetectorConfig:
    """Tuning knobs of one :class:`FailureDetector`.

    Attributes:
        heartbeat_interval: Seconds between heartbeats of one node.
        heartbeat_bytes: Heartbeat payload size (its network time is
            ``bytes / bandwidth + latency`` on the node's coordinator
            link).
        phi_threshold: Suspicion level that raises a crash suspicion.
        min_samples: Heartbeat intervals observed before phi is
            meaningful (no suspicion until then).
        confirm_after: Seconds a suspicion must survive before the node
            is confirmed failed.
        flap_damping: Multiplier applied to a node's phi threshold every
            time a suspicion proves premature (the node heartbeats while
            suspected) — a flapping node gets progressively harder to
            suspect.
        zombie_timeout: Seconds of no batch progress (while busy or
            holding queued work) before a zombie suspicion.
        check_interval: Period of the detector's evaluation tick.
    """

    heartbeat_interval: float = 0.25
    heartbeat_bytes: float = 4096.0
    phi_threshold: float = 8.0
    min_samples: int = 3
    confirm_after: float = 0.5
    flap_damping: float = 2.0
    zombie_timeout: float = 3.0
    check_interval: float = 0.125

    def __post_init__(self) -> None:
        for name in (
            "heartbeat_interval", "confirm_after", "zombie_timeout",
            "check_interval", "phi_threshold", "flap_damping",
        ):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.heartbeat_bytes < 0:
            raise ValueError(
                f"heartbeat_bytes must be >= 0, got {self.heartbeat_bytes}"
            )
        if self.min_samples < 1:
            raise ValueError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )


class _NodeState:
    """Per-node monitoring state."""

    __slots__ = (
        "last_arrival", "intervals", "threshold", "suspect_time",
        "suspect_kind", "last_batches", "last_progress_time",
    )

    def __init__(self, now: float, threshold: float) -> None:
        self.last_arrival = now
        self.intervals: deque[float] = deque(maxlen=16)
        self.threshold = threshold
        self.suspect_time: float | None = None
        self.suspect_kind = ""
        self.last_batches = -1
        self.last_progress_time = now


class FailureDetector:
    """Heartbeat/watchdog failure detector inside one simulation.

    Args:
        sim: The running :class:`~repro.sim.simulator.Simulation`.
        config: Detector tuning.
        on_confirm: ``fn(sim, node_id, kind)`` invoked the moment a
            suspicion is confirmed (``kind`` is ``"crash"`` or
            ``"zombie"``). The detector itself never mutates cluster
            state — reacting is the controller's job.
    """

    def __init__(self, sim, config: DetectorConfig | None = None, on_confirm=None):
        self.sim = sim
        self.config = config or DetectorConfig()
        self.on_confirm = on_confirm
        self._nodes: dict[str, _NodeState] = {}
        self.confirmed: set[str] = set()
        #: Chronological ``(time, event, node_id)`` rows; ``event`` is one
        #: of ``suspect:crash``, ``suspect:zombie``, ``clear:crash``,
        #: ``clear:zombie``, ``confirm:crash``, ``confirm:zombie``.
        self.timeline: list[tuple[float, str, str]] = []
        #: Suspicions raised (or confirmations issued) against nodes with
        #: no actual fault.
        self.false_positives = 0
        self.heartbeats_sent = 0
        self.heartbeats_dropped = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin monitoring every node the placement uses."""
        sim = self.sim
        now = sim.now
        interval = self.config.heartbeat_interval
        for node_id in sorted(sim.executors):
            self._nodes[node_id] = _NodeState(now, self.config.phi_threshold)
            sim.schedule_event(
                now + interval,
                lambda s, nid=node_id: self._emit_heartbeat(nid),
            )
        sim.schedule_event(
            now + self.config.check_interval, lambda s: self._check()
        )

    @property
    def suspected(self) -> dict[str, str]:
        """Currently-suspected nodes and the suspicion kind."""
        return {
            node_id: state.suspect_kind
            for node_id, state in self._nodes.items()
            if state.suspect_time is not None
        }

    # ------------------------------------------------------------------
    def _emit_heartbeat(self, node_id: str) -> None:
        sim = self.sim
        now = sim.now
        sim.schedule_event(
            now + self.config.heartbeat_interval,
            lambda s, nid=node_id: self._emit_heartbeat(nid),
        )
        if sim.node_health(node_id) in (SILENT, DOWN):
            return  # dead processes do not heartbeat (zombies do)
        self.heartbeats_sent += 1
        channel = sim.channels.get((node_id, COORDINATOR))
        if channel is None:
            # No direct coordinator link: assume an out-of-band control
            # network with negligible transfer time.
            delivery = now
        else:
            fault = channel.fault
            if fault is not None and fault.drop_heartbeat():
                self.heartbeats_dropped += 1
                return
            delivery = (
                now
                + self.config.heartbeat_bytes / channel.bandwidth
                + channel.latency
            )
        sim.schedule_event(
            delivery, lambda s, nid=node_id: self._on_heartbeat(nid)
        )

    def _on_heartbeat(self, node_id: str) -> None:
        if node_id in self.confirmed:
            return  # the node was already declared dead; too late
        state = self._nodes.get(node_id)
        if state is None:
            return
        now = self.sim.now
        state.intervals.append(now - state.last_arrival)
        state.last_arrival = now
        if state.suspect_time is not None and state.suspect_kind == "crash":
            # The suspicion was premature: clear it and get harder to
            # convince about this node.
            self._clear(node_id, state, now)

    def _clear(self, node_id: str, state: _NodeState, now: float) -> None:
        kind = state.suspect_kind
        state.suspect_time = None
        state.suspect_kind = ""
        state.threshold *= self.config.flap_damping
        self.timeline.append((now, f"clear:{kind}", node_id))
        if node_id not in self.sim.fault_times:
            self.false_positives += 1

    # ------------------------------------------------------------------
    def _check(self) -> None:
        sim = self.sim
        now = sim.now
        sim.schedule_event(
            now + self.config.check_interval, lambda s: self._check()
        )
        config = self.config
        down = sim.down_nodes
        for node_id in sorted(self._nodes):
            if node_id in self.confirmed or node_id in down:
                continue
            state = self._nodes[node_id]
            executor = sim.executors.get(node_id)
            if executor is not None:
                batches = executor.stats.batches
                advanced = batches != state.last_batches
                # An idle node is not *expected* to make progress, so
                # idleness counts as progress — otherwise a node picking
                # up work after a long quiet spell would be instantly
                # zombie-suspected (its last batch is arbitrarily old).
                if advanced or not (executor.busy or executor.queue):
                    state.last_batches = batches
                    state.last_progress_time = now
                    if (
                        state.suspect_time is not None
                        and state.suspect_kind == "zombie"
                    ):
                        self._clear(node_id, state, now)
            if state.suspect_time is None:
                self._maybe_suspect(node_id, state, executor, now)
            elif now - state.suspect_time >= config.confirm_after:
                self._confirm(node_id, state, now)

    def _maybe_suspect(self, node_id, state, executor, now: float) -> None:
        config = self.config
        if len(state.intervals) >= config.min_samples:
            mean = sum(state.intervals) / len(state.intervals)
            if mean > 0:
                phi = _LOG10_E * (now - state.last_arrival) / mean
                if phi > state.threshold:
                    state.suspect_time = now
                    state.suspect_kind = "crash"
                    self.timeline.append((now, "suspect:crash", node_id))
                    return
        if (
            executor is not None
            and (executor.busy or executor.queue)
            and now - state.last_progress_time > config.zombie_timeout
        ):
            state.suspect_time = now
            state.suspect_kind = "zombie"
            self.timeline.append((now, "suspect:zombie", node_id))

    def _confirm(self, node_id, state, now: float) -> None:
        kind = state.suspect_kind
        state.suspect_time = None
        state.suspect_kind = ""
        self.confirmed.add(node_id)
        self.timeline.append((now, f"confirm:{kind}", node_id))
        if node_id not in self.sim.fault_times:
            self.false_positives += 1
        if self.on_confirm is not None:
            self.on_confirm(self.sim, node_id, kind)
