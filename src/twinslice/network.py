"""Topology, protocol stack overhead, routing, and packet-level transmission.

Links are full duplex: each declared link carries two independent channels
(one per direction), each with its own scheduler queue and transmitter,
built on first use: a channel when a route takes it, a queue when a frame waits.
Transmission time is ceil(total_bytes * 8 / rate) in integer nanoseconds;
propagation is added on top. Loss is Bernoulli per frame at the end of
transmission, drawn from the frame's flow's "loss:<flow id>" stream, which
the flow holds from its first lossy departure on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Any, Callable, Optional

from .engine import Engine, EventKind, RngStream, SEC
from .slices import Flow, LinkQueue


class Unreachable(Exception):
    """No usable path exists between the requested endpoints."""


class NodeKind(Enum):
    CORE = "core"
    EDGE = "edge"
    DEVICE = "device"


@dataclass(slots=True)
class Node:
    id: int
    kind: NodeKind
    mobile: bool = False  # only a mobile device may hand over between edges


DEFAULT_QUEUE_CAP = 1024
# Read once: on CPython 3.11 a member read through its class costs about 112 ns.
_DEVICE, _FRAME_ARRIVAL = NodeKind.DEVICE, EventKind.FRAME_ARRIVAL
_FRAME_DEPARTURE = EventKind.FRAME_DEPARTURE


@dataclass(slots=True)
class Link:
    id: int
    a: int
    b: int
    rate_bps: int
    prop_delay_ns: int
    loss_prob: float = 0.0
    queue_cap: int = DEFAULT_QUEUE_CAP


class Channel:
    """One direction of a link, toward `dst`: queue and transmitter state.

    The transmitter serves `frame` until `free_at`. The frame's departure
    sorts at `(free_at, dep_seq)`, a place reserved from the engine's counter
    when its serialization began, and its arrival at the place right after.
    A FRAME_DEPARTURE is pushed at that place, and `departs` set, only when it
    has work to do: a loss draw, a queued frame to serve next, or a cut frame
    (`hops` None) whose link or sending node failed mid-service. The first of
    the frame's departure and arrival events releases it.
    """

    __slots__ = ("link", "dst", "queue", "frame", "free_at", "dep_seq", "departs")

    def __init__(self, link: Link, dst: int) -> None:
        self.link = link
        self.dst = dst
        self.queue: Optional[LinkQueue] = None  # built when the first frame waits
        self.frame: Optional[Frame] = None
        self.free_at = -1
        self.dep_seq = -1
        self.departs = False


TRANSPORT_BYTES = {"quic": 27, "udp": 8}


@dataclass(frozen=True)
class StackProfile:
    """Per-layer header bytes added to every frame payload.

    Handshakes are not simulated packet by packet; they are folded into a
    per-flow setup latency (default two round trips of the flow path) that
    every frame of the flow carries as a fixed delay component.
    """

    alp: int = 8
    session: int = 4
    security: int = 29
    transport_bytes: int = TRANSPORT_BYTES["quic"]
    network: int = 40
    phy: int = 28
    # None = derive per flow as 2 RTTs of the path (4x one-way propagation).
    setup_latency_ns: Optional[int] = None

    @cached_property
    def overhead(self) -> int:
        """Header bytes of every frame, summed once per profile."""
        return self.alp + self.session + self.security + self.transport_bytes + self.network + self.phy


@dataclass(slots=True)
class Frame:
    """One on-wire frame of a flow, plus its remaining route."""

    flow: Flow
    payload_bytes: int
    total_bytes: int
    created_at: int
    hops: Optional[list[Channel]] = None  # None until injected, and once cut in service
    idx: int = 0  # `hops[idx]` is the channel it waits on, is served by or crosses
    epoch: int = 0  # the Topology.epoch that `hops` was routed in
    failures: int = 0  # its link's Topology.failures when its service began
    content: Any = None  # a (callee, arg) pair the simulator fires on delivery


def tx_ticks(total_bytes: int, rate_bps: int) -> int:
    """Serialization time in integer ticks, rounded up."""
    return -(-(total_bytes * 8 * SEC) // rate_bps)


class Topology:
    """Node/link graph with deterministic shortest-path routing, and a run's state.

    Expects a graph that passed scenario validation: ids dense from 0 and in
    order (`nodes[i].id == links[i].id == i`), one core node, links between
    known nodes, devices attached only to edges, and every node reachable. It
    does not check these again, and never writes the records, which every run
    of a scenario shares. The run's state is in lists indexed by id: `node_up`,
    `link_up`, `failures` (times a link went down: a frame in flight compares
    it on arrival), and `attached` (the edge a device forwards through; None
    while detached mid-handover, and for edges and the core).
    """

    def __init__(self, nodes: list[Node], links: list[Link]) -> None:
        self.nodes = nodes
        self.links = links
        self.node_up = [True] * len(nodes)
        self.link_up = [True] * len(links)
        self.failures = [0] * len(links)
        self.attached: list[Optional[int]] = [None] * len(nodes)
        self.epoch = 0
        # Each node's outgoing channels as (peer id, slot), sorted. A link's slots, 2 * id
        # out of its a end and 2 * id + 1 out of its b end, rise with its id: the routing
        # tie-break order. Int-only tuples, which CPython's collector untracks.
        self._adj: list[list[tuple[int, int]]] = [[] for _ in nodes]
        for link in links:
            self._adj[link.a].append((link.b, 2 * link.id))
            self._adj[link.b].append((link.a, 2 * link.id + 1))
        for out in self._adj:
            out.sort()
        # Each slot's Channel once a route has taken it; None is idle and empty.
        self._channels: list[Optional[Channel]] = [None] * (2 * len(links))
        self._route_cache: dict[tuple[int, int], tuple[int, list[Channel]]] = {}
        # Static devices start attached to their only edge.
        for node in nodes:
            if node.kind is _DEVICE:
                edges = {peer for peer, _slot in self._adj[node.id]}
                if len(edges) == 1:
                    self.attached[node.id] = edges.pop()

    def _channel(self, slot: int, dst: int) -> Channel:
        chan = self._channels[slot]
        if chan is None:
            chan = self._channels[slot] = Channel(self.links[slot >> 1], dst)
        return chan

    def built(self, src: int) -> list[Channel]:
        """The channels out of node `src` that a route has taken; a channel
        never built is idle and empty."""
        chans = self._channels
        return [chans[slot] for _peer, slot in self._adj[src] if chans[slot] is not None]

    def bump_epoch(self) -> None:
        """Call after every write to what `_usable` reads (`link_up`, `node_up`,
        `attached`): the route cache and frames in flight trust a route for as
        long as the epoch it was computed in holds."""
        self.epoch += 1

    def set_attachment(self, device_id: int, edge_id: Optional[int]) -> None:
        self.attached[device_id] = edge_id
        self.bump_epoch()

    def _usable(self, link: Link) -> bool:
        """Whether link may carry traffic, in either direction."""
        if not self.link_up[link.id]:
            return False
        a, b = link.a, link.b
        if not (self.node_up[a] and self.node_up[b]):
            return False
        # A device/edge link carries traffic only while the device is attached
        # to that edge.
        nodes, attached = self.nodes, self.attached
        if nodes[a].kind is _DEVICE and attached[a] != b:
            return False
        if nodes[b].kind is _DEVICE and attached[b] != a:
            return False
        return True

    def route(self, src: int, dst: int) -> list[Channel]:
        """Shortest usable path by hop count as a list of directed channels.

        Ties break toward the lowest next-node id, then the lowest link id,
        so the chosen path is unique and stable. Returns [] iff src == dst.
        """
        if src == dst:
            return []
        cached = self._route_cache.get((src, dst))
        if cached is not None and cached[0] == self.epoch:
            return cached[1]
        if not (self.node_up[src] and self.node_up[dst]):
            raise Unreachable(f"no path {src} -> {dst}")
        # One-hop fast path: a direct usable link is always a shortest route,
        # and the first match in the sorted adjacency is the same channel the
        # BFS tie-break would select. Keeps admission O(1) per device flow.
        for peer, slot in self._adj[src]:
            if peer > dst:
                break
            if peer == dst and self._usable(self.links[slot >> 1]):
                hops = [self._channel(slot, peer)]
                self._route_cache[(src, dst)] = (self.epoch, hops)
                return hops
        # BFS from dst so the distance field guides a greedy walk from src.
        dist = {dst: 0}
        frontier = [dst]
        while frontier:
            nxt: list[int] = []
            for cur in frontier:
                d = dist[cur]
                for peer, slot in self._adj[cur]:
                    if peer not in dist and self._usable(self.links[slot >> 1]):
                        dist[peer] = d + 1
                        nxt.append(peer)
            frontier = nxt
        if src not in dist:
            raise Unreachable(f"no path {src} -> {dst}")
        hops: list[Channel] = []
        cur = src
        while cur != dst:
            want = dist[cur] - 1
            for peer, slot in self._adj[cur]:  # already (peer, link id) sorted
                if dist.get(peer, -2) == want and self._usable(self.links[slot >> 1]):
                    break
            else:  # pragma: no cover - guarded by dist reachability
                raise Unreachable(f"no path {src} -> {dst}")
            hops.append(self._channel(slot, peer))
            cur = peer
        self._route_cache[(src, dst)] = (self.epoch, hops)
        return hops


def unloaded_path_delay(hops: list[Channel], total_bytes: int) -> int:
    """Sum of per-hop serialization and propagation for an idle network."""
    return sum(tx_ticks(total_bytes, h.link.rate_bps) + h.link.prop_delay_ns for h in hops)


def setup_latency_for(profile: StackProfile, hops: list[Channel]) -> int:
    """Per-flow session establishment cost: 2 RTTs of the path by default."""
    if profile.setup_latency_ns is not None:
        return profile.setup_latency_ns
    return 4 * sum(h.link.prop_delay_ns for h in hops)


class NetworkService:
    """Moves frames hop by hop under the engine's event loop.

    Owns the frame lifecycle between injection and delivery: queueing,
    scheduling, serialization, propagation, random loss, fault drops, and
    rerouting around failed elements at intermediate nodes.
    """

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        new_stream: Callable[[str], RngStream],
        on_deliver: Callable[[Frame, int], None],
        on_drop: Callable[[Frame, str, int], None],
    ) -> None:
        self.engine = engine
        self.topology = topology
        self.new_stream = new_stream  # label -> a new stream of that label, on every call
        self.on_deliver = on_deliver
        self.on_drop = on_drop
        engine.on(_FRAME_DEPARTURE, self._on_departure)
        engine.on(_FRAME_ARRIVAL, self._on_arrival)

    def inject(self, frame: Frame, now: int) -> None:
        """Route a frame from its source and start it across the first hop."""
        try:
            hops = self.topology.route(frame.flow.src, frame.flow.dst)
        except Unreachable:
            self.on_drop(frame, "fault", now)
            return
        if not hops:
            self.on_deliver(frame, now)  # src == dst: delivered in place
            return
        frame.hops = hops
        frame.idx = 0
        frame.epoch = self.topology.epoch
        self._enqueue(hops[0], frame, now)

    def _serving(self, chan: Channel, now: int) -> bool:
        """Whether chan's transmitter is busy at `now`: the current event sorts
        before the departure place. `now` is the caller's, as a fault applied
        between runs is at a time of its own. `_enqueue` inlines the negation."""
        return now < chan.free_at or (now == chan.free_at and self.engine.seq_now < chan.dep_seq)

    def _enqueue(self, chan: Channel, frame: Frame, now: int) -> None:
        link = chan.link
        if not self.topology.link_up[link.id]:
            self.on_drop(frame, "fault", now)
            return
        free_at = chan.free_at
        if now > free_at or (now == free_at and self.engine.seq_now >= chan.dep_seq):
            # Idle transmitter (not `_serving`): the one place where a frame starts.
            done = now - (-frame.total_bytes * 8 * SEC // link.rate_bps)  # now + tx_ticks(...)
            frame.failures = self.topology.failures[link.id]
            chan.frame = frame
            chan.free_at = done
            chan.departs = False
            if link.loss_prob > 0.0:
                chan.dep_seq = self.engine.reserve(2)  # the departure's place, then the arrival's
                self._depart(chan)  # loss is drawn at the departure instant
                return
            chan.dep_seq = self.engine.reserve_then_schedule(
                done + link.prop_delay_ns, _FRAME_ARRIVAL, frame)
            if chan.queue is not None and chan.queue.occupancy:
                self._depart(chan)  # the departure serves the queue
            return
        if chan.queue is None:
            chan.queue = LinkQueue(link.queue_cap)
        if not chan.queue.push(frame):
            self.on_drop(frame, "queue", now)
            return
        self._depart(chan)  # the departure serves the queue

    def _depart(self, chan: Channel) -> None:
        """Push the frame in service's departure at its reserved place, once."""
        if not chan.departs:
            chan.departs = True
            self.engine.schedule_at(chan.free_at, chan.dep_seq, _FRAME_DEPARTURE, chan)

    def _on_departure(self, chan: Channel, now: int) -> None:
        frame, seq = chan.frame, chan.dep_seq
        # The transmitter is done with its frame: keep no reference to it.
        chan.frame = None
        chan.free_at = chan.dep_seq = -1
        link = chan.link
        if frame.hops is None:
            # Cut: the link or the transmitting node failed mid-serialization.
            self.on_drop(frame, "fault", now)
        elif link.loss_prob > 0.0:
            flow = frame.flow
            rng = flow.loss_stream
            if rng is None:
                rng = flow.loss_stream = self.new_stream(f"loss:{flow.id}")
            if rng.bernoulli(link.loss_prob):
                self.on_drop(frame, "loss", now)
            else:
                self.engine.schedule_at(now + link.prop_delay_ns, seq + 1, _FRAME_ARRIVAL, frame)
        if chan.queue is not None and self.topology.link_up[link.id]:
            nxt = chan.queue.pop()
            if nxt is not None:
                self._enqueue(chan, nxt, now)  # released above, so it starts at once

    def _on_arrival(self, frame: Frame, now: int) -> None:
        hops = frame.hops
        if hops is None:
            return  # cut in service, and dropped at its departure instant
        chan = hops[frame.idx]
        if chan.frame is frame:
            # Served without a departure event: release it, as `_on_departure` does.
            chan.frame = None
            chan.free_at = chan.dep_seq = -1
        topology = self.topology
        if topology.failures[chan.link.id] != frame.failures:
            # The carrying link failed in flight (a failure in service cut the frame).
            self.on_drop(frame, "fault", now)
            return
        here = chan.dst
        if not topology.node_up[here]:
            self.on_drop(frame, "fault", now)
            return
        idx = frame.idx = frame.idx + 1
        if idx >= len(hops):
            self.on_deliver(frame, now)
            return
        nxt = hops[idx]
        # A route is usable in the epoch it was routed in, and every write to
        # what `_usable` reads bumps the epoch: only a moved epoch re-checks.
        if frame.epoch != topology.epoch and not topology._usable(nxt.link):
            # Planned hop became unusable: reroute from the current node.
            try:
                rest = topology.route(here, frame.flow.dst)
            except Unreachable:
                self.on_drop(frame, "fault", now)
                return
            frame.hops = rest
            frame.idx = 0
            frame.epoch = topology.epoch
            nxt = rest[0]
        self._enqueue(nxt, frame, now)

    # --- fault application -------------------------------------------------

    def fail_link(self, link: Link, now: int) -> None:
        """Take a link down; queued frames drop, the in-service and in-flight
        frames drop at their departure/arrival instants, even if the link
        recovers first."""
        topology = self.topology
        topology.link_up[link.id] = False
        topology.failures[link.id] += 1
        topology.bump_epoch()
        slot = 2 * link.id  # its channel out of its a end, then out of its b end
        for chan in topology._channels[slot:slot + 2]:
            if chan is not None:
                self._cut(chan, now)

    def recover_link(self, link: Link, _now: int) -> None:
        self.topology.link_up[link.id] = True
        self.topology.bump_epoch()

    def fail_node(self, node: Node, now: int) -> None:
        """Take a node down; frames queued on its outgoing channels drop, and
        each frame it is serializing drops at its departure instant, even if
        the node recovers first."""
        self.topology.node_up[node.id] = False
        self.topology.bump_epoch()
        for chan in self.topology.built(node.id):
            self._cut(chan, now)

    def _cut(self, chan: Channel, now: int) -> None:
        """Cut the frame in service, to drop at its departure; drop the queue now.
        A cut frame has no `hops` from this instant, so its arrival is ignored."""
        if self._serving(chan, now):
            chan.frame.hops = None
            self._depart(chan)
        if chan.queue is not None:
            for frame in chan.queue.drain():
                self.on_drop(frame, "fault", now)

    def recover_node(self, node: Node, _now: int) -> None:
        self.topology.node_up[node.id] = True
        self.topology.bump_epoch()
