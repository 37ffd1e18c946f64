"""Timed cluster events: the vocabulary of online churn.

An event is a frozen description of one environment change at one
simulation time — a node crashing or rejoining, a new node being
provisioned, a link degrading or being repaired, a partition between two
node groups. Events know how to *apply* themselves to a running
:class:`~repro.sim.simulator.Simulation` (via its online primitives) and
whether the change warrants a replanning.

Schedules come in two flavors:

* scripted — hand-written event lists, for reproducing a precise scenario
  (the fig12 "kill a planned node mid-run" benchmark);
* generated — :func:`random_churn` draws failures/recoveries and link
  degradations from exponential processes, for long stochastic soak runs.
  Generators are pure functions of their seed, so a run is reproduced
  exactly by its top-level seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.cluster.gpus import GPUSpec
from repro.cluster.node import COORDINATOR
from repro.core.errors import ClusterError
from repro.core.units import GBIT


@dataclass(frozen=True)
class ClusterEvent:
    """Base class: one environment change at ``time`` (seconds)."""

    time: float

    #: Whether the controller should replan after applying this event.
    triggers_replan = True
    #: Whether the event takes capacity away (failures, degradations,
    #: partitions). Recovery-type events replan too but do not count as
    #: disruptions in the :class:`~repro.sim.metrics.DisruptionReport`.
    is_disruptive = True

    def apply(self, sim) -> str:
        """Apply the change to a running simulation; returns a log line."""
        raise NotImplementedError


@dataclass(frozen=True)
class NodeFailure(ClusterEvent):
    """A compute node crashes: KV lost, in-flight work fails."""

    node_id: str = ""

    def apply(self, sim) -> str:
        requeued = sim.fail_node(self.node_id)
        return (
            f"node {self.node_id} failed "
            f"({len(requeued)} in-flight requests requeued)"
        )


@dataclass(frozen=True)
class NodeRecovery(ClusterEvent):
    """A failed node rejoins, cold (no KV, no queued work)."""

    node_id: str = ""
    is_disruptive = False

    def apply(self, sim) -> str:
        sim.restore_node(self.node_id)
        return f"node {self.node_id} recovered"


@dataclass(frozen=True)
class NodeDrain(ClusterEvent):
    """Gracefully remove a node: finish in-flight work, lose nothing.

    The scheduler stops routing new pipelines through the node at once,
    but attempts already flowing through it run to completion — zero
    tokens are lost, unlike :class:`NodeFailure`'s crash path. The node
    counts as a disruption (capacity leaves), and a later
    :class:`NodeRecovery` brings it back — with layer residency enabled,
    *instantly*, since a drained node keeps its weights (warm spare).
    """

    node_id: str = ""

    def apply(self, sim) -> str:
        sim.drain_node(self.node_id)
        return f"node {self.node_id} draining"


@dataclass(frozen=True)
class NodeJoin(ClusterEvent):
    """A brand-new node is provisioned into the cluster.

    The node is added to the topology with symmetric links to ``peers``
    (default: every existing node) and to the coordinator; it carries no
    layers until the next replanning assigns it some. Joins change graph
    *structure*, so the controller rebuilds its incremental flow evaluator.

    Attributes:
        node_id: Id of the new node.
        gpu: GPU model installed.
        num_gpus: GPUs in the node.
        region: Region label.
        bandwidth: Bandwidth of the new links, bytes/second.
        latency: One-way latency of the new links, seconds.
        peers: Node ids to connect to; ``None`` means all current nodes.
    """

    node_id: str = ""
    gpu: GPUSpec | None = None
    num_gpus: int = 1
    region: str = "default"
    bandwidth: float = 10 * GBIT
    latency: float = 0.001
    peers: tuple[str, ...] | None = None

    is_disruptive = False

    def apply(self, sim) -> str:
        if self.gpu is None:
            raise ValueError(f"NodeJoin({self.node_id!r}) needs a gpu spec")
        cluster = sim.cluster
        peers = (
            list(self.peers) if self.peers is not None else cluster.node_ids
        )
        cluster.add_node(
            self.node_id, self.gpu, num_gpus=self.num_gpus, region=self.region
        )
        for peer in peers:
            cluster.connect(self.node_id, peer, self.bandwidth, self.latency)
        cluster.connect(
            COORDINATOR, self.node_id, self.bandwidth, self.latency
        )
        return f"node {self.node_id} joined ({len(peers)} links)"


@dataclass(frozen=True)
class LinkDegradation(ClusterEvent):
    """A link's bandwidth drops to ``factor`` of its original value."""

    src: str = ""
    dst: str = ""
    factor: float = 0.1
    bidirectional: bool = True

    def apply(self, sim) -> str:
        sim.degrade_link(self.src, self.dst, self.factor, self.bidirectional)
        return (
            f"link {self.src}<->{self.dst} degraded to "
            f"{self.factor * 100:.0f}% bandwidth"
        )


@dataclass(frozen=True)
class LinkRecovery(ClusterEvent):
    """A degraded link is repaired to its original bandwidth."""

    src: str = ""
    dst: str = ""
    bidirectional: bool = True
    is_disruptive = False

    def apply(self, sim) -> str:
        sim.restore_link(self.src, self.dst, self.bidirectional)
        return f"link {self.src}<->{self.dst} restored"


@dataclass(frozen=True)
class NetworkPartition(ClusterEvent):
    """Connectivity between two node groups collapses.

    Modeled as severe degradation (``factor`` of original bandwidth) of
    every link crossing the cut, in both directions — traffic *can* still
    crawl through, as over a flapping WAN, but replanning will route
    around it. Heal with a matching :class:`PartitionHeal`.
    """

    group_a: tuple[str, ...] = ()
    group_b: tuple[str, ...] = ()
    factor: float = 0.02

    def _cut_links(self, sim):
        links = sim.cluster.links
        for a in self.group_a:
            for b in self.group_b:
                if (a, b) in links:
                    yield a, b
                if (b, a) in links:
                    yield b, a

    def apply(self, sim) -> str:
        count = 0
        for a, b in self._cut_links(sim):
            sim.degrade_link(a, b, self.factor, bidirectional=False)
            count += 1
        return (
            f"partition {self.group_a}|{self.group_b}: {count} links at "
            f"{self.factor * 100:.0f}% bandwidth"
        )


@dataclass(frozen=True)
class PartitionHeal(NetworkPartition):
    """Heal a partition created by a matching :class:`NetworkPartition`."""

    is_disruptive = False

    def apply(self, sim) -> str:
        count = 0
        for a, b in self._cut_links(sim):
            sim.restore_link(a, b, bidirectional=False)
            count += 1
        return f"partition {self.group_a}|{self.group_b} healed ({count} links)"


def scripted_schedule(*events: ClusterEvent) -> list[ClusterEvent]:
    """Sort a hand-written scenario into firing order."""
    return sorted(events, key=lambda e: e.time)


@dataclass(frozen=True)
class ChurnConfig:
    """Parameters of the seeded random churn generator.

    Attributes:
        duration: Horizon over which to draw events, in seconds.
        mean_time_to_failure: Mean seconds between node failures across
            the whole cluster (per-cluster MTBF, exponential).
        mean_time_to_recovery: Mean seconds a failed node stays down
            (exponential).
        link_mean_time_to_degrade: Mean seconds between link-degradation
            events; 0 disables link churn.
        link_degradation_factor: Bandwidth factor applied when a link
            degrades.
        link_mean_time_to_repair: Mean seconds a degraded link stays slow.
        max_concurrent_failures: Never take more than this many nodes down
            at once (a churn run should stress recovery, not guarantee a
            dead cluster).
        start: Earliest event time — leave room for a clean pre-churn
            baseline window.
    """

    duration: float
    mean_time_to_failure: float
    mean_time_to_recovery: float
    link_mean_time_to_degrade: float = 0.0
    link_degradation_factor: float = 0.1
    link_mean_time_to_repair: float = 20.0
    max_concurrent_failures: int = 1
    start: float = 0.0


def random_churn(
    node_ids: Sequence[str],
    config: ChurnConfig,
    seed: int = 0,
    link_keys: Sequence[tuple[str, str]] = (),
    rng: random.Random | None = None,
) -> list[ClusterEvent]:
    """Draw a reproducible churn schedule from exponential processes.

    Node failures arrive at the cluster-wide MTBF rate, strike a uniformly
    random up node, and heal after an exponential downtime; link
    degradations (if enabled and ``link_keys`` given) follow the same
    pattern on uniformly random links. The same ``(config, seed)`` always
    yields the same schedule; an explicit ``rng`` lets callers thread one
    generator through a whole scenario. Global :mod:`random` state is
    never consulted.
    """
    if not node_ids:
        raise ValueError("random_churn needs at least one node id")
    if rng is None:
        rng = random.Random(seed)
    events: list[ClusterEvent] = []

    down_until: dict[str, float] = {}
    t = config.start
    while True:
        t += rng.expovariate(1.0 / config.mean_time_to_failure)
        if t >= config.start + config.duration:
            break
        up = [nid for nid in node_ids if down_until.get(nid, 0.0) <= t]
        if len(node_ids) - len(up) >= config.max_concurrent_failures or not up:
            continue
        victim = rng.choice(up)
        recover_at = t + rng.expovariate(1.0 / config.mean_time_to_recovery)
        down_until[victim] = recover_at
        events.append(NodeFailure(t, victim))
        events.append(NodeRecovery(recover_at, victim))

    if config.link_mean_time_to_degrade > 0 and link_keys:
        slow_until: dict[tuple[str, str], float] = {}
        t = config.start
        while True:
            t += rng.expovariate(1.0 / config.link_mean_time_to_degrade)
            if t >= config.start + config.duration:
                break
            healthy = [k for k in link_keys if slow_until.get(k, 0.0) <= t]
            if not healthy:
                continue
            src, dst = healthy[rng.randrange(len(healthy))]
            repair_at = t + rng.expovariate(
                1.0 / config.link_mean_time_to_repair
            )
            slow_until[(src, dst)] = repair_at
            events.append(
                LinkDegradation(t, src, dst, config.link_degradation_factor)
            )
            events.append(LinkRecovery(repair_at, src, dst))

    return sorted(events, key=lambda e: e.time)


def validate_schedule(events: Sequence[ClusterEvent], cluster) -> None:
    """Reject a malformed event schedule before the run starts.

    A bad schedule — a typo'd node id, a recovery for a node that never
    fails, partitions that overlap — otherwise surfaces mid-run as a
    confusing simulation error (or worse, silently does nothing). This
    checks the whole schedule up front against the starting cluster and
    raises :class:`~repro.core.errors.ClusterError` naming the offending
    event:

    * no event may carry a negative time;
    * every node event must name a known node (a ``NodeJoin`` makes its
      node known from that point on, and must not collide with one);
    * every link event must name an existing link;
    * a ``NodeRecovery`` must be preceded by something that takes its
      node out of service (``NodeFailure``, a gray node fault, or the
      node starting out down);
    * two ``NetworkPartition``\\ s may not overlap in time on any shared
      node (heal the first before cutting the second).
    """
    from repro.online.faults import FlakyLink, FlakyLinkEnd, GRAY_NODE_FAULTS
    from repro.online.faults import StragglerEnd, StragglerStart

    known_nodes = set(cluster.node_ids)
    failed: set[str] = set(cluster.down_node_ids)
    partitions: list[tuple[NetworkPartition, frozenset[str]]] = []

    def check_node(event: ClusterEvent, node_id: str) -> None:
        if node_id not in known_nodes:
            raise ClusterError(
                f"{type(event).__name__} at t={event.time:g} names unknown "
                f"node {node_id!r}"
            )

    def check_link(event: ClusterEvent, src: str, dst: str) -> None:
        if not cluster.has_link(src, dst):
            raise ClusterError(
                f"{type(event).__name__} at t={event.time:g} names unknown "
                f"link {src!r}->{dst!r}"
            )

    for event in sorted(events, key=lambda e: e.time):
        if event.time < 0:
            raise ClusterError(
                f"{type(event).__name__} scheduled at negative time "
                f"{event.time:g}"
            )
        if isinstance(event, (NodeFailure, NodeDrain, *GRAY_NODE_FAULTS)):
            check_node(event, event.node_id)
            failed.add(event.node_id)  # out of service; recovery is legal
        elif isinstance(event, NodeRecovery):
            check_node(event, event.node_id)
            if event.node_id not in failed:
                raise ClusterError(
                    f"NodeRecovery at t={event.time:g} for node "
                    f"{event.node_id!r}, which never failed before it"
                )
            failed.discard(event.node_id)
        elif isinstance(event, NodeJoin):
            if event.node_id in known_nodes:
                raise ClusterError(
                    f"NodeJoin at t={event.time:g} collides with existing "
                    f"node {event.node_id!r}"
                )
            known_nodes.add(event.node_id)
        elif isinstance(event, (StragglerStart, StragglerEnd)):
            check_node(event, event.node_id)
        elif isinstance(
            event, (LinkDegradation, LinkRecovery, FlakyLink, FlakyLinkEnd)
        ):
            check_link(event, event.src, event.dst)
        elif isinstance(event, PartitionHeal):
            groups = (tuple(event.group_a), tuple(event.group_b))
            for index, (partition, _) in enumerate(partitions):
                if (
                    tuple(partition.group_a),
                    tuple(partition.group_b),
                ) == groups:
                    del partitions[index]
                    break
        elif isinstance(event, NetworkPartition):
            for node_id in (*event.group_a, *event.group_b):
                check_node(event, node_id)
            members = frozenset(event.group_a) | frozenset(event.group_b)
            for partition, other in partitions:
                shared = members & other
                if shared:
                    raise ClusterError(
                        f"NetworkPartition at t={event.time:g} overlaps an "
                        f"unhealed partition from t={partition.time:g} on "
                        f"node(s) {sorted(shared)}"
                    )
            partitions.append((event, members))
