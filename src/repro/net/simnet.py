"""A deterministic discrete-event network simulator.

The paper evaluates ORCHESTRA's storage and query layer on a 16-node Gigabit
cluster, on bandwidth/latency-shaped networks (NetEm + HTB), and on up to 100
Amazon EC2 instances.  This module replaces those physical test beds with a
discrete-event simulation so that the same distributed algorithms — the very
same message exchanges — can run on a single machine with a virtual clock.

Model
-----
* Every :class:`SimNode` models one participant machine.  A node owns three
  serial resources: a CPU, an egress link and an ingress link.  Handlers for
  incoming messages run on the CPU; message transmission occupies the sender's
  egress link, then traverses the link latency, then occupies the receiver's
  ingress link.  This simple M/D/1-per-resource model is what produces the
  paper's qualitative behaviours — e.g. the query initiator's ingress link
  becoming the bottleneck for the STBenchmark *Copy* query, or low per-node
  bandwidth dominating run time in the WAN experiments (Figure 17).
* Messages between a node and itself are delivered through a fast local path:
  no latency, no bandwidth charge, and no contribution to the traffic meters
  (the paper's co-location optimisation relies on local index/data accesses
  being free of network cost).
* A :class:`TrafficMeter` records bytes sent per node and in total; benchmark
  figures 8/9/11/12/15/16/19/20 read these counters.
* Node failures (:meth:`Network.fail_node`) stop delivery of all in-flight and
  future messages to/from the failed node and, after a configurable detection
  delay, notify every other live node through registered failure listeners —
  modelling the dropped-TCP-connection signal of Section V-A.
* Crash-*restart* is supported: :meth:`Network.restart_node` brings a failed
  node back under a new *incarnation*.  Scheduled failures and in-flight
  deliveries aimed at an older incarnation are discarded, modelling the fresh
  TCP connections a restarted process accepts (nothing from before the crash
  can arrive on them).
* Deterministic fault injection: when a :class:`repro.faults.FaultInjector`
  is installed (:attr:`Network.fault_injector`), remote messages travel over
  a reliable in-order channel per ordered node pair — sequence numbers,
  receiver-side reordering buffers and sender retransmission — while the
  injector drops, duplicates, delays and reorders the individual
  *transmissions* underneath.  This mirrors real deployments, where the
  paper's engine runs over persistent TCP connections: packet-level chaos
  surfaces to the application only as added latency and as connection churn,
  never as silent loss, duplication or reordering of application messages.
  Without an injector the code path is byte-for-byte the pre-fault one.

The simulation is fully deterministic: events at equal timestamps are ordered
by insertion sequence, and no wall-clock or OS randomness is consulted.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from ..common.errors import NodeFailedError, UnknownNodeError
from ..common.hashing import node_id_for

#: Signature of a message handler registered on a node:
#: ``handler(message) -> None``.  Handlers run in virtual time; CPU work must
#: be reported through :meth:`SimNode.charge_cpu`.
Handler = Callable[["Message"], None]

#: Signature of node-failure listeners: ``listener(failed_address) -> None``.
FailureListener = Callable[[str], None]

#: Sentinel stored in a channel's reordering buffer for a transmission the
#: transport gave up on: later messages must not stall behind it forever.
_LOST = object()


@dataclass(frozen=True)
class HostSpec:
    """Performance characteristics of one simulated machine.

    ``cpu_factor`` scales all CPU costs (1.0 = the paper's 2.4 GHz Xeon
    cluster node; the EC2 "large" instances are modelled slightly slower).
    Bandwidths are bytes/second of the node's own network interface; the LAN
    profile uses Gigabit, the WAN profile throttles this down exactly as the
    paper throttles per-node bandwidth with HTB.
    """

    cpu_factor: float = 1.0
    egress_bandwidth: float = 125_000_000.0  # 1 Gbit/s in bytes/s
    ingress_bandwidth: float = 125_000_000.0
    disk_read_bandwidth: float = 80_000_000.0  # bytes/s sequential read

    def scaled(self, cpu: float | None = None, bandwidth: float | None = None) -> "HostSpec":
        return HostSpec(
            cpu_factor=cpu if cpu is not None else self.cpu_factor,
            egress_bandwidth=bandwidth if bandwidth is not None else self.egress_bandwidth,
            ingress_bandwidth=bandwidth if bandwidth is not None else self.ingress_bandwidth,
            disk_read_bandwidth=self.disk_read_bandwidth,
        )


@dataclass(slots=True)
class Message:
    """A message in flight between two simulated nodes.

    Slotted: the simulator allocates one per send, and benchmarks churn
    through millions — slots cut both the allocation cost and the footprint.
    """

    msg_type: str
    src: str
    dst: str
    payload: Mapping[str, object]
    size: int
    sent_at: float = 0.0
    #: Protocol kind for the traffic breakdown: the inner RPC method name for
    #: rpc-framed messages, the raw message type otherwise.
    kind: str = ""
    #: Propagated :class:`~repro.obs.trace.TraceContext` — ``None`` unless a
    #: tracer is installed on the network.  Its wire cost is charged into
    #: ``size`` for remote sends only when tracing is on, so the default
    #: configuration stays byte-identical to untraced builds.
    trace: object | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.msg_type!r}, kind={self.kind!r}, "
            f"{self.src!r}->{self.dst!r}, {self.size}B, sent_at={self.sent_at:.6f})"
        )


class TrafficMeter:
    """Byte counters for network traffic, per sending node and in total.

    Only *remote* messages are counted; the local fast path bypasses the
    meter.  ``snapshot()`` captures the counters so a benchmark can compute
    the traffic attributable to a single query.  Besides the per-node
    counters, the meter keeps a per-*kind* breakdown (the RPC method name for
    rpc-framed messages, the raw message type otherwise) so benchmarks can
    attribute bytes to protocol stages — plan dissemination, leaf-scan tuple
    requests, exchange data, end-of-stream markers — without instrumenting
    every call site.
    """

    def __init__(self) -> None:
        self.total_bytes = 0
        self.total_messages = 0
        self.bytes_sent: dict[str, int] = {}
        self.bytes_received: dict[str, int] = {}
        self.bytes_by_kind: dict[str, int] = {}
        self.messages_by_kind: dict[str, int] = {}

    def record(self, src: str, dst: str, size: int, kind: str = "") -> None:
        self.total_bytes += size
        self.total_messages += 1
        self.bytes_sent[src] = self.bytes_sent.get(src, 0) + size
        self.bytes_received[dst] = self.bytes_received.get(dst, 0) + size
        if kind:
            self.bytes_by_kind[kind] = self.bytes_by_kind.get(kind, 0) + size
            self.messages_by_kind[kind] = self.messages_by_kind.get(kind, 0) + 1

    def snapshot(self) -> "TrafficSnapshot":
        return TrafficSnapshot(
            total_bytes=self.total_bytes,
            total_messages=self.total_messages,
            bytes_sent=dict(self.bytes_sent),
            bytes_received=dict(self.bytes_received),
            bytes_by_kind=dict(self.bytes_by_kind),
            messages_by_kind=dict(self.messages_by_kind),
        )

    def to_dict(self) -> dict:
        """Common stats-serialization protocol (see :mod:`repro.obs.metrics`)."""
        return self.snapshot().to_dict()

    def metric_series(self):
        """Registry samples with uniform naming: ``rpc.bytes{kind=...}`` etc."""
        samples = [
            ("rpc.bytes", {}, self.total_bytes),
            ("rpc.messages", {}, self.total_messages),
        ]
        for kind in sorted(self.bytes_by_kind):
            samples.append(("rpc.bytes", {"kind": kind}, self.bytes_by_kind[kind]))
        for kind in sorted(self.messages_by_kind):
            samples.append(
                ("rpc.messages", {"kind": kind}, self.messages_by_kind[kind])
            )
        for node in sorted(self.bytes_sent):
            samples.append(
                ("rpc.bytes", {"direction": "sent", "node": node}, self.bytes_sent[node])
            )
        for node in sorted(self.bytes_received):
            samples.append(
                (
                    "rpc.bytes",
                    {"direction": "received", "node": node},
                    self.bytes_received[node],
                )
            )
        return samples


def _nonzero_delta(later: dict[str, int], earlier: dict[str, int]) -> dict[str, int]:
    """Per-key difference with unchanged keys dropped: a key present in both
    snapshots with the same count produced a meaningless ``0`` entry before,
    which made warm-cache deltas (no traffic at all) read as a page of
    zeroes."""
    return {
        key: diff
        for key in sorted(set(later) | set(earlier))
        if (diff := later.get(key, 0) - earlier.get(key, 0))
    }


@dataclass(frozen=True)
class TrafficSnapshot:
    total_bytes: int
    total_messages: int
    bytes_sent: dict[str, int]
    bytes_received: dict[str, int]
    bytes_by_kind: dict[str, int] = field(default_factory=dict)
    messages_by_kind: dict[str, int] = field(default_factory=dict)

    def delta(self, later: "TrafficSnapshot") -> "TrafficSnapshot":
        """Traffic that occurred between this snapshot and ``later``.

        Only nodes/kinds whose counters actually changed appear in the delta
        dicts — an idle node or a protocol stage that moved no bytes is
        absent, not a zero entry.
        """
        return TrafficSnapshot(
            total_bytes=later.total_bytes - self.total_bytes,
            total_messages=later.total_messages - self.total_messages,
            bytes_sent=_nonzero_delta(later.bytes_sent, self.bytes_sent),
            bytes_received=_nonzero_delta(later.bytes_received, self.bytes_received),
            bytes_by_kind=_nonzero_delta(later.bytes_by_kind, self.bytes_by_kind),
            messages_by_kind=_nonzero_delta(
                later.messages_by_kind, self.messages_by_kind
            ),
        )

    def to_dict(self) -> dict:
        """Common stats-serialization protocol (see :mod:`repro.obs.metrics`)."""
        return {
            "total_bytes": self.total_bytes,
            "total_messages": self.total_messages,
            "bytes_sent": dict(self.bytes_sent),
            "bytes_received": dict(self.bytes_received),
            "bytes_by_kind": dict(self.bytes_by_kind),
            "messages_by_kind": dict(self.messages_by_kind),
        }

    def per_node_bytes(self) -> dict[str, int]:
        """Bytes sent + received per node (the paper's per-node traffic metric)."""
        nodes = set(self.bytes_sent) | set(self.bytes_received)
        return {
            node: self.bytes_sent.get(node, 0) + self.bytes_received.get(node, 0)
            for node in nodes
        }

    def max_per_node_bytes(self) -> int:
        per_node = self.per_node_bytes()
        return max(per_node.values()) if per_node else 0

    def mean_per_node_bytes(self) -> float:
        per_node = self.per_node_bytes()
        if not per_node:
            return 0.0
        # Traffic is double counted when summing sent + received over all
        # nodes; per-node averages divide the *total* transferred bytes by the
        # participating node count, matching the paper's per-node figures.
        return self.total_bytes / max(1, len(per_node))


class SimNode:
    """Runtime state of one simulated machine."""

    def __init__(self, network: "Network", address: str, host: HostSpec) -> None:
        self.network = network
        self.address = address
        self.host = host
        self.node_id = node_id_for(address)
        self.alive = True
        #: Bumped on every restart.  Events captured against an older
        #: incarnation (scheduled crashes, in-flight transmissions) are stale
        #: and must not affect the restarted process.
        self.incarnation = 0
        self._handlers: dict[str, Handler] = {}
        self._failure_listeners: list[FailureListener] = []
        #: Arbitrary per-node services (storage engine, query fragments...)
        #: attached by the higher layers.
        self.services: dict[str, object] = {}
        # Serial-resource availability times.
        self._cpu_free_at = 0.0
        self._egress_free_at = 0.0
        self._ingress_free_at = 0.0
        # Accumulated busy time, used to report CPU utilisation in benches.
        self.cpu_busy_seconds = 0.0

    # -- registration --------------------------------------------------------

    def register_handler(self, msg_type: str, handler: Handler) -> None:
        """Register the handler invoked for messages of ``msg_type``."""
        self._handlers[msg_type] = handler

    def unregister_handler(self, msg_type: str) -> None:
        self._handlers.pop(msg_type, None)

    def add_failure_listener(self, listener: FailureListener) -> None:
        """Subscribe to peer-failure notifications (dropped-connection signal)."""
        self._failure_listeners.append(listener)

    def remove_failure_listener(self, listener: FailureListener) -> None:
        if listener in self._failure_listeners:
            self._failure_listeners.remove(listener)

    # -- actions available to handlers ---------------------------------------

    @property
    def now(self) -> float:
        return self.network.now

    def send(self, dst: str, msg_type: str, payload: Mapping[str, object], size: int) -> None:
        """Send a message; convenience wrapper over :meth:`Network.send`."""
        self.network.send(self.address, dst, msg_type, payload, size)

    def charge_cpu(self, seconds: float) -> None:
        """Account ``seconds`` of CPU work for the currently running handler.

        The charge is scaled by the host's CPU factor and pushes back the
        node's CPU availability, delaying subsequent handler executions on
        this node — which is how CPU-bound stages (e.g. local hash joins)
        show up in simulated run time.
        """
        if seconds <= 0:
            return
        scaled = seconds / self.host.cpu_factor
        self._cpu_free_at = max(self._cpu_free_at, self.network.now) + scaled
        self.cpu_busy_seconds += scaled

    @property
    def cpu_queue_delay(self) -> float:
        """Seconds until this node's CPU could start another handler.

        Charges delay *subsequent* handler starts, not the charging handler's
        own sends; a handler that wants its reply to queue behind the work it
        models (e.g. the resilience layer's representative-work probes) reads
        this and schedules the send that far in the future.
        """
        return max(0.0, self._cpu_free_at - self.network.now)

    def charge_disk_read(self, num_bytes: int) -> None:
        """Account a sequential disk read of ``num_bytes`` as CPU-side latency."""
        if num_bytes <= 0:
            return
        self.charge_cpu(num_bytes / self.host.disk_read_bandwidth * self.host.cpu_factor)

    # -- internal -------------------------------------------------------------

    def _dispatch(self, message: Message) -> None:
        if not self.alive:
            return
        handler = self._handlers.get(message.msg_type)
        if handler is None:
            raise UnknownNodeError(
                f"node {self.address!r} has no handler for message type "
                f"{message.msg_type!r}"
            )
        handler(message)

    def _notify_failure(self, failed_address: str) -> None:
        if not self.alive:
            return
        for listener in list(self._failure_listeners):
            listener(failed_address)


@dataclass(order=True, slots=True)
class ScheduledEvent:
    """A scheduled action; kept so callers can cancel it before it fires.

    Cancellation leaves the entry in the heap but marks it dead: the run
    loop discards dead events without advancing the clock, so e.g. a
    watchdog timer for an operation that already completed neither fires
    nor drags the virtual time out to its deadline.  Slotted: every message
    hop allocates at least one.
    """

    time: float
    sequence: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class _Channel:
    """Reliable-transport state for one ordered node pair (fault runs only).

    The sender side stamps each message with ``next_seq``; the receiver side
    delivers strictly in sequence order, buffering early arrivals and
    discarding duplicates — the exactly-once, FIFO contract the application
    protocols were built on (and that TCP provides in a real deployment).
    """

    __slots__ = ("next_seq", "expected", "buffer")

    def __init__(self) -> None:
        self.next_seq = 0
        self.expected = 0
        self.buffer: dict[int, object] = {}


class Network:
    """The event loop, clock and link model shared by all simulated nodes."""

    #: Fixed per-message overhead in bytes: a TCP/IPv4 header (20 + 20) on the
    #: persistent connections the engine keeps between every pair of nodes.
    MESSAGE_OVERHEAD_BYTES = 40
    #: CPU cost of unmarshalling one message, in seconds (per message, plus a
    #: per-byte component), calibrated against the paper's observation that
    #: result collection at the initiator has measurable unmarshalling cost.
    UNMARSHAL_SECONDS_PER_MESSAGE = 20e-6
    UNMARSHAL_SECONDS_PER_BYTE = 4e-9

    def __init__(
        self,
        latency: float = 0.0001,
        default_host: HostSpec | None = None,
        failure_detection_delay: float = 0.05,
    ) -> None:
        self.now = 0.0
        self.latency = latency
        self.default_host = default_host or HostSpec()
        self.failure_detection_delay = failure_detection_delay
        self.traffic = TrafficMeter()
        #: Events dispatched by :meth:`run` since construction.  The scale
        #: harness divides Python wall-clock by this to measure simulator
        #: overhead per event; deterministic, so tests can pin event *counts*
        #: instead of timing anything.
        self.events_processed = 0
        self.nodes: dict[str, SimNode] = {}
        #: Cache of the live-address list; dropped on membership/liveness
        #: changes (add, crash, restart).  ``live_nodes`` is called per gossip
        #: round and per failure broadcast, which at hundreds of nodes made
        #: the O(n) rebuild a measurable constant drag.
        self._live_cache: list[str] | None = None
        self._queue: list[ScheduledEvent] = []
        self._sequence = itertools.count()
        self._pairwise_latency: dict[tuple[str, str], float] = {}
        #: Installed by :class:`repro.faults.FaultInjector`; None means the
        #: fault-free fast path (identical to the pre-fault simulator).
        self.fault_injector = None
        #: Installed by :meth:`repro.cluster.Cluster.enable_tracing` (a
        #: :class:`repro.obs.trace.Tracer`); None — the default — means no
        #: tracing and **zero** change to wire bytes or message handling.
        self.tracer = None
        #: Reliable-channel state per ordered node pair, used only with an
        #: injector installed.
        self._channels: dict[tuple[str, str], _Channel] = {}
        #: Invoked with the address the moment a node crashes (no detection
        #: delay) — bookkeeping hooks for the cluster layer, not a stand-in
        #: for the in-band failure listeners other nodes rely on.
        self._crash_listeners: list[Callable[[str], None]] = []
        #: Invoked with the address when a node restarts.
        self._restart_listeners: list[Callable[[str], None]] = []

    # -- topology -------------------------------------------------------------

    def add_node(self, address: str, host: HostSpec | None = None) -> SimNode:
        if address in self.nodes:
            raise ValueError(f"node {address!r} already exists")
        node = SimNode(self, address, host or self.default_host)
        self.nodes[address] = node
        self._live_cache = None
        return node

    def node(self, address: str) -> SimNode:
        try:
            return self.nodes[address]
        except KeyError:
            raise UnknownNodeError(f"unknown node {address!r}") from None

    def live_nodes(self) -> list[str]:
        cached = self._live_cache
        if cached is None:
            cached = self._live_cache = [
                address for address, node in self.nodes.items() if node.alive
            ]
        return list(cached)

    def set_pairwise_latency(self, src: str, dst: str, latency: float) -> None:
        """Override link latency for a specific ordered node pair."""
        self._pairwise_latency[(src, dst)] = latency

    def link_latency(self, src: str, dst: str) -> float:
        return self._pairwise_latency.get((src, dst), self.latency)

    # -- event scheduling ------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> ScheduledEvent:
        """Run ``action`` after ``delay`` simulated seconds.

        Returns the scheduled event; calling its :meth:`~ScheduledEvent.cancel`
        before it fires discards it without advancing the clock.
        """
        if delay < 0:
            raise ValueError("cannot schedule events in the past")
        event = ScheduledEvent(self.now + delay, next(self._sequence), action)
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(self, time: float, action: Callable[[], None]) -> ScheduledEvent:
        return self.schedule(max(0.0, time - self.now), action)

    def run(self, until: float | None = None) -> float:
        """Process events until the queue drains (or ``until`` is reached).

        Returns the simulation clock after processing.
        """
        while self._queue:
            if self._queue[0].cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and self._queue[0].time > until:
                self.now = until
                return self.now
            event = heapq.heappop(self._queue)
            self.now = max(self.now, event.time)
            self.events_processed += 1
            event.action()
        return self.now

    # -- messaging -------------------------------------------------------------

    def send(
        self,
        src: str,
        dst: str,
        msg_type: str,
        payload: Mapping[str, object],
        size: int,
    ) -> None:
        """Send a message from ``src`` to ``dst``.

        Local messages (``src == dst``) bypass the link model and the traffic
        meter.  Remote messages serialise on the sender's egress link, incur
        link latency, serialise on the receiver's ingress link and are then
        handed to the receiving node's handler (which runs when that node's
        CPU becomes free).  With a fault injector installed, remote messages
        instead travel over the reliable per-pair channel so that injected
        packet loss, duplication and reordering never surface to handlers.
        """
        sender = self.node(src)
        if not sender.alive:
            raise NodeFailedError(src, "attempted to send from a failed node")
        wire_size = size + self.MESSAGE_OVERHEAD_BYTES
        if self.tracer is not None and src != dst:
            # The propagated trace context is real header bytes; charge it.
            # Local deliveries never touch the wire, so they stay free.
            wire_size += self.tracer.context_wire_bytes
        kind = payload.get("method") or msg_type
        message = Message(msg_type, src, dst, dict(payload), wire_size,
                          sent_at=self.now, kind=str(kind))
        if self.tracer is not None:
            self.tracer.on_send(message, self.now, sender.incarnation)

        if src == dst:
            # Local fast path: a small fixed dispatch cost, no traffic.
            self.schedule(1e-6, lambda: self._deliver(message))
            return

        receiver = self.node(dst)
        if self.fault_injector is not None:
            channel = self._channel(src, dst)
            seq = channel.next_seq
            channel.next_seq += 1
            self._transmit(message, seq, 0, sender.incarnation, receiver.incarnation)
            return
        self._transfer(message, 0.0)

    def _transfer(self, message: Message, extra_delay: float) -> float:
        """Charge one transmission of ``message`` over the link model.

        Returns the delivery time; the caller schedules what happens then.
        """
        sender = self.node(message.src)
        receiver = self.node(message.dst)
        self.traffic.record(message.src, message.dst, message.size, message.kind)
        if self.tracer is not None:
            self.tracer.on_transmit(message)

        egress_start = max(self.now, sender._egress_free_at)
        egress_time = message.size / sender.host.egress_bandwidth
        sender._egress_free_at = egress_start + egress_time

        arrival = sender._egress_free_at + self.link_latency(message.src, message.dst) + extra_delay
        ingress_start = max(arrival, receiver._ingress_free_at)
        ingress_time = message.size / receiver.host.ingress_bandwidth
        receiver._ingress_free_at = ingress_start + ingress_time
        delivered_at = receiver._ingress_free_at
        if self.fault_injector is None:
            self.schedule_at(delivered_at, lambda: self._deliver(message))
        return delivered_at

    # -- reliable channel (fault-injection runs) --------------------------------

    def _channel(self, src: str, dst: str) -> _Channel:
        channel = self._channels.get((src, dst))
        if channel is None:
            channel = self._channels[(src, dst)] = _Channel()
        return channel

    def _transmit(
        self,
        message: Message,
        seq: int,
        attempt: int,
        src_inc: int,
        dst_inc: int,
        blocked_streak: int = 0,
    ) -> None:
        """One send attempt of channel message ``seq`` under the injector.

        Lost or partition-blocked attempts are retried after the injector's
        retransmission delay (exactly-once delivery is restored by the
        receiver-side sequencing).  Retries stop when either endpoint crashed
        or restarted — the connection the message travelled on is gone.
        ``attempt`` counts only attempts the link actually *lost*; waiting out
        a partition (``blocked_streak``) is unbounded, so a partition of any
        length stalls messages without ever abandoning them.
        """
        injector = self.fault_injector
        sender = self.nodes.get(message.src)
        receiver = self.nodes.get(message.dst)
        if injector is None or sender is None or receiver is None:
            return
        if not sender.alive or sender.incarnation != src_inc:
            return
        if not receiver.alive or receiver.incarnation != dst_inc:
            return
        retry = lambda: self._transmit(message, seq, attempt + 1, src_inc, dst_inc)  # noqa: E731
        if attempt > injector.max_retransmits:
            injector.stats.abandoned += 1
            self._channel_skip(message.src, message.dst, seq)
            return
        if attempt > 0:
            injector.stats.retransmits += 1
            if self.tracer is not None:
                # A retry is the *same* logical hop: annotate its span rather
                # than opening a second one.
                self.tracer.on_retransmit(message)
        if injector.blocked(message.src, message.dst):
            # The pair is partitioned: nothing leaves the NIC, the transport
            # just keeps retrying until the partition heals.
            injector.stats.blocked += 1
            self.schedule(
                injector.retransmit_delay(blocked_streak, message.src, message.dst),
                lambda: self._transmit(
                    message, seq, attempt, src_inc, dst_inc, blocked_streak + 1
                ),
            )
            return
        deliveries = injector.fate(message, attempt)
        if not deliveries:
            # Every copy of this attempt died on the link.  The bytes still
            # left the sender (egress + traffic are charged) but never reach
            # the receiver's NIC.
            self.traffic.record(message.src, message.dst, message.size, message.kind)
            if self.tracer is not None:
                # The lost copy's bytes were metered, so the span carries
                # them too — span byte totals stay reconcilable with the
                # traffic meter even under loss.
                self.tracer.on_transmit(message)
            egress_start = max(self.now, sender._egress_free_at)
            sender._egress_free_at = egress_start + message.size / sender.host.egress_bandwidth
            self.schedule(
                injector.retransmit_delay(attempt, message.src, message.dst), retry
            )
            return
        for extra_delay in deliveries:
            delivered_at = self._transfer(message, extra_delay)
            self.schedule_at(
                delivered_at,
                lambda: self._receive(message, seq, src_inc, dst_inc, attempt),
            )

    def _receive(
        self, message: Message, seq: int, src_inc: int, dst_inc: int, attempt: int
    ) -> None:
        """Receiver side of the reliable channel: dedup, order, dispatch."""
        receiver = self.nodes.get(message.dst)
        if receiver is None or not receiver.alive or receiver.incarnation != dst_inc:
            return
        sender = self.nodes.get(message.src)
        if sender is None or not sender.alive or sender.incarnation != src_inc:
            # Same taint rule as the fault-free path: data from a crashed
            # sender never reaches the application.
            return
        injector = self.fault_injector
        if injector is not None and injector.blocked(message.src, message.dst):
            # A partition started while the message was in flight: it is cut
            # on the wire, and the sender-side transport retries it.
            injector.stats.blocked += 1
            self.schedule(
                injector.retransmit_delay(attempt, message.src, message.dst),
                lambda: self._transmit(message, seq, attempt + 1, src_inc, dst_inc),
            )
            return
        channel = self._channel(message.src, message.dst)
        if seq < channel.expected or seq in channel.buffer:
            if injector is not None:
                injector.stats.deduplicated += 1
            if self.tracer is not None:
                self.tracer.on_duplicate(message)
            return
        if seq != channel.expected:
            channel.buffer[seq] = message
            return
        channel.expected += 1
        self._dispatch_to_app(message)
        self._flush_channel(channel)

    def _flush_channel(self, channel: _Channel) -> None:
        while channel.expected in channel.buffer:
            queued = channel.buffer.pop(channel.expected)
            channel.expected += 1
            if queued is not _LOST:
                self._dispatch_to_app(queued)

    def _channel_skip(self, src: str, dst: str, seq: int) -> None:
        """Mark transmission ``seq`` as permanently lost so later messages on
        the channel are not stalled behind the gap forever."""
        channel = self._channel(src, dst)
        if seq < channel.expected:
            return
        if seq == channel.expected:
            channel.expected += 1
            self._flush_channel(channel)
        else:
            channel.buffer[seq] = _LOST

    def _reset_channels(self, address: str) -> None:
        """Drop all channel state involving ``address`` (connection churn)."""
        self._channels = {
            pair: channel
            for pair, channel in self._channels.items()
            if address not in pair
        }

    # -- delivery ---------------------------------------------------------------

    def _deliver(self, message: Message) -> None:
        receiver = self.nodes.get(message.dst)
        if receiver is None or not receiver.alive:
            # The destination failed while the message was in flight; it is
            # silently lost, just as bytes written to a dead TCP peer are.
            return
        sender = self.nodes.get(message.src)
        if message.src != message.dst and (sender is None or not sender.alive):
            # Data from a failed sender is discarded: the receiving query
            # operator would treat it as tainted anyway (Section V-D), and the
            # broken connection prevents it from arriving in a real deployment.
            return
        self._dispatch_to_app(message)

    def _dispatch_to_app(self, message: Message) -> None:
        receiver = self.nodes[message.dst]
        # Handler execution waits for the receiver's CPU to be free, then the
        # handler itself charges its processing cost.
        unmarshal = (
            self.UNMARSHAL_SECONDS_PER_MESSAGE
            + message.size * self.UNMARSHAL_SECONDS_PER_BYTE
        )
        start = max(self.now, receiver._cpu_free_at)
        begin_delay = start - self.now
        if begin_delay > 1e-12:
            self.schedule(begin_delay, lambda: self._execute(receiver, message, unmarshal))
        else:
            self._execute(receiver, message, unmarshal)

    def _execute(self, receiver: SimNode, message: Message, unmarshal_cost: float) -> None:
        if not receiver.alive:
            return
        receiver.charge_cpu(unmarshal_cost)
        tracer = self.tracer
        if tracer is not None and message.trace is not None:
            # The handler runs *inside* the message's span: any send it makes
            # parents onto this hop, which is what stitches one operation's
            # causality into a single tree with no per-call-site plumbing.
            token = tracer.begin_delivery(message, self.now)
            try:
                receiver._dispatch(message)
            finally:
                tracer.end_delivery(token)
        else:
            receiver._dispatch(message)

    # -- failures ---------------------------------------------------------------

    def add_crash_listener(self, listener: Callable[[str], None]) -> None:
        """``listener(address)`` fires the instant a node crashes.

        Unlike the per-node failure listeners (which model the in-band
        dropped-connection signal and fire after the detection delay), crash
        listeners are out-of-band bookkeeping for the layer that *owns* the
        simulation — e.g. the cluster failing the crashed initiator's
        in-flight operation futures.
        """
        self._crash_listeners.append(listener)

    def add_restart_listener(self, listener: Callable[[str], None]) -> None:
        """``listener(address)`` fires when a node restarts."""
        self._restart_listeners.append(listener)

    def fail_node(self, address: str, detection_delay: float | None = None) -> None:
        """Fail ``address`` immediately (crash-stop model).

        All messages in flight to or from the node are lost.  After
        ``detection_delay`` (default: the network's failure-detection delay,
        modelling the time for TCP connection drops / pings to be observed),
        every other live node's failure listeners are invoked.
        """
        node = self.node(address)
        if not node.alive:
            return
        node.alive = False
        self._live_cache = None
        for listener in list(self._crash_listeners):
            listener(address)
        delay = self.failure_detection_delay if detection_delay is None else detection_delay

        def notify() -> None:
            for other in self.nodes.values():
                if other.address != address and other.alive:
                    other._notify_failure(address)

        self.schedule(delay, notify)

    def fail_node_at(
        self, address: str, at_time: float, detection_delay: float | None = None
    ) -> ScheduledEvent:
        """Schedule a crash of ``address`` at absolute simulated time ``at_time``.

        The crash is bound to the node's *current incarnation*: if the node
        crashes and restarts before ``at_time``, the stale scheduled failure
        must not kill the restarted process.  Returns the scheduled event so
        callers can also cancel it explicitly.
        """
        node = self.node(address)
        incarnation = node.incarnation

        def fire() -> None:
            if node.alive and node.incarnation == incarnation:
                self.fail_node(address, detection_delay)

        return self.schedule_at(at_time, fire)

    def restart_node(self, address: str) -> SimNode:
        """Bring a failed node back under a new incarnation.

        The node's handler registrations and attached services survive (they
        model the process image plus its durable local store); everything
        connection-scoped is reset: resource clocks, reliable-channel state,
        and — via the incarnation bump — any in-flight deliveries or
        scheduled crashes aimed at the previous incarnation.
        """
        node = self.node(address)
        if not node.alive:
            node.incarnation += 1
        node.alive = True
        self._live_cache = None
        node._cpu_free_at = self.now
        node._egress_free_at = self.now
        node._ingress_free_at = self.now
        self._reset_channels(address)
        for listener in list(self._restart_listeners):
            listener(address)
        return node


def broadcast(
    network: Network,
    src: str,
    destinations: Iterable[str],
    msg_type: str,
    payload: Mapping[str, object],
    size: int,
) -> None:
    """Send the same message to every destination (including possibly ``src``)."""
    for dst in destinations:
        network.send(src, dst, msg_type, payload, size)
