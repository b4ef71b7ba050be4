"""The network service as first written, kept as a test-only oracle.

`EagerNetworkService` pushes a FRAME_DEPARTURE for every frame it starts
serializing and schedules the frame's arrival from that departure. The
package's `NetworkService` pushes a departure only when it has work to do
(a loss draw, a queued frame, a cut), so the two must agree on every report
field except `run.events_processed`.

They differ in one declared tie rule. The package places a frame's arrival
in the same-instant order when its serialization begins; this oracle, by
default, places it when the frame departs. `reserve_arrival=True` switches
the oracle to the package's rule, and then nothing else separates the two.
Swap it in for `twinslice.sim.NetworkService` to run a whole scenario on it.
`channel` finds a channel by its link and the end it leaves from, and
`source` names the end a channel leaves from.
"""

from unittest import mock

import twinslice.sim
from twinslice.engine import EventKind
from twinslice.metrics import to_json_bytes
from twinslice.network import Unreachable, tx_ticks
from twinslice.slices import LinkQueue


def channel(topology, link_id, src):
    """The channel of link `link_id` out of node `src`, built if no route took it yet."""
    for peer, slot in topology._adj[src]:
        if slot >> 1 == link_id:
            return topology._channel(slot, peer)
    raise ValueError(f"node {src} is not an end of link {link_id}")


def source(chan):
    """The node `chan` leaves from: the end of its link that is not `dst`."""
    return chan.link.a + chan.link.b - chan.dst


class EagerNetworkService:
    """Queueing, serialization, propagation, loss and fault drops, one
    departure event and one arrival event per hop."""

    def __init__(self, engine, topology, new_stream, on_deliver, on_drop, reserve_arrival=False):
        self.engine = engine
        self.topology = topology
        self.new_stream = new_stream
        self.on_deliver = on_deliver
        self.on_drop = on_drop
        self.reserve_arrival = reserve_arrival
        self.busy = {}  # channel -> the frame it is serializing
        self.cut = set()  # channels whose frame in service failed mid-service
        self.arrival_seq = {}  # channel -> its frame's reserved arrival place
        engine.on(EventKind.FRAME_DEPARTURE, self._on_departure)
        engine.on(EventKind.FRAME_ARRIVAL, self._on_arrival)

    def inject(self, frame, now):
        try:
            hops = self.topology.route(frame.flow.src, frame.flow.dst)
        except Unreachable:
            self.on_drop(frame, "fault", now)
            return
        if not hops:
            self.on_deliver(frame, now)
            return
        frame.hops = hops
        frame.idx = 0
        self._enqueue(hops[0], frame, now)

    def _enqueue(self, chan, frame, now):
        if not self.topology.link_up[chan.link.id]:
            self.on_drop(frame, "fault", now)
            return
        if chan not in self.busy:
            self._begin(chan, frame, now)
        elif not self._queue(chan).push(frame):
            self.on_drop(frame, "queue", now)

    @staticmethod
    def _queue(chan):
        """The channel's queue, built on first touch: this oracle builds every
        channel and queue that a fault or a frame reaches."""
        if chan.queue is None:
            chan.queue = LinkQueue(chan.link.queue_cap)
        return chan.queue

    def _begin(self, chan, frame, now):
        self.busy[chan] = frame
        done = now + tx_ticks(frame.total_bytes, chan.link.rate_bps)
        if self.reserve_arrival:
            seq = self.engine.reserve(2)
            self.engine.schedule_at(done, seq, EventKind.FRAME_DEPARTURE, chan)
            self.arrival_seq[chan] = seq + 1
        else:
            self.engine.schedule(done, EventKind.FRAME_DEPARTURE, chan)

    def _on_departure(self, chan, now):
        frame = self.busy.pop(chan)
        link = chan.link
        failures = self.topology.failures[link.id]
        if chan in self.cut:
            self.cut.discard(chan)
            self.on_drop(frame, "fault", now)
        elif link.loss_prob > 0.0 and self._loss_stream(frame.flow).bernoulli(link.loss_prob):
            self.on_drop(frame, "loss", now)
        elif self.reserve_arrival:
            self.engine.schedule_at(now + link.prop_delay_ns, self.arrival_seq[chan],
                                    EventKind.FRAME_ARRIVAL, (chan, frame, failures))
        else:
            self.engine.schedule(now + link.prop_delay_ns, EventKind.FRAME_ARRIVAL,
                                 (chan, frame, failures))
        if self.topology.link_up[link.id]:
            nxt = self._queue(chan).pop()
            if nxt is not None:
                self._begin(chan, nxt, now)

    def _loss_stream(self, flow):
        """The flow's `loss:` stream, which it holds from its first lossy departure on."""
        if flow.loss_stream is None:
            flow.loss_stream = self.new_stream(f"loss:{flow.id}")
        return flow.loss_stream

    def _on_arrival(self, flight, now):
        chan, frame, failures = flight
        if self.topology.failures[chan.link.id] != failures:
            self.on_drop(frame, "fault", now)
            return
        here = chan.dst
        if not self.topology.node_up[here]:
            self.on_drop(frame, "fault", now)
            return
        frame.idx += 1
        if frame.idx >= len(frame.hops):
            self.on_deliver(frame, now)
            return
        nxt = frame.hops[frame.idx]
        if not self.topology._usable(nxt.link):
            try:
                rest = self.topology.route(here, frame.flow.dst)
            except Unreachable:
                self.on_drop(frame, "fault", now)
                return
            frame.hops = rest
            frame.idx = 0
            nxt = rest[0]
        self._enqueue(nxt, frame, now)

    def _fail_channel(self, chan, now):
        if chan in self.busy:
            self.cut.add(chan)
        for frame in self._queue(chan).drain():
            self.on_drop(frame, "fault", now)

    def fail_link(self, link, now):
        self.topology.link_up[link.id] = False
        self.topology.failures[link.id] += 1
        self.topology.bump_epoch()
        for src in (link.a, link.b):
            self._fail_channel(channel(self.topology, link.id, src), now)

    def recover_link(self, link, now):
        self.topology.link_up[link.id] = True
        self.topology.bump_epoch()

    def fail_node(self, node, now):
        self.topology.node_up[node.id] = False
        self.topology.bump_epoch()
        for _peer, slot in self.topology._adj[node.id]:
            self._fail_channel(channel(self.topology, slot >> 1, node.id), now)

    def recover_node(self, node, now):
        self.topology.node_up[node.id] = True
        self.topology.bump_epoch()


def run_with(service, scenario, seed=None, t_end=None):
    """Run a scenario with `service` in place of the package's network service."""
    with mock.patch.object(twinslice.sim, "NetworkService", service):
        return twinslice.sim.run_scenario(scenario, seed=seed, t_end=t_end)


LEDGER = ("sent", "delivered", "dropped_loss", "dropped_queue", "dropped_fault", "in_flight",
          "payload_bits", "energy_nj")


def outcome(result):
    """All that a run shows but its event count: the report's bytes without
    `run.events_processed`, and every flow's ledger with its delay histogram."""
    report = dict(result.report)
    report["run"] = {k: v for k, v in report["run"].items() if k != "events_processed"}
    ledgers = {}
    for flow_id, flow in result.sim.flows.items():
        stats, hist = flow.stats, flow.stats.hist
        ledgers[flow_id] = ([getattr(stats, name) for name in LEDGER],
                            (hist.count, hist.total, hist.max_value,
                             sorted(hist._bins.items())))
    return to_json_bytes(report), result.csv_bytes(), ledgers
