"""Stack overhead, transmission arithmetic, routing, and hop-by-hop transport."""

import functools
import gc
import importlib.util
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eager_network import EagerNetworkService, channel, outcome, run_with, source
from twinslice.engine import Engine, EventKind, MS, SEC, US, fork_rng
from twinslice.network import (
    Channel,
    Frame,
    Link,
    NetworkService,
    Node,
    NodeKind,
    StackProfile,
    Topology,
    Unreachable,
    setup_latency_for,
    tx_ticks,
    unloaded_path_delay,
)
from twinslice.scenario import ScenarioError, load_scenario, scenario_from_dict
from twinslice.sim import run_scenario
from twinslice.slices import Flow, SliceClass

# The package's service, and the eager oracle with the package's arrival rule and with its own.
RESERVING = functools.partial(EagerNetworkService, reserve_arrival=True)
SERVICES = {"lazy": NetworkService, "eager-reserving": RESERVING, "eager": EagerNetworkService}


def mknodes(*kinds):
    return [Node(i, NodeKind(k)) for i, k in enumerate(kinds)]


def star():
    """core 0 -- edges 1,2 -- devices 3 (on 1) and 4 (on 2)."""
    nodes = mknodes("core", "edge", "edge", "device", "device")
    links = [
        Link(0, 1, 0, 1_000_000_000, 50 * US),
        Link(1, 2, 0, 1_000_000_000, 50 * US),
        Link(2, 3, 1, 100_000_000, 10 * US),
        Link(3, 4, 2, 100_000_000, 10 * US),
    ]
    return Topology(nodes, links)


def frame(src, dst, payload=100, total=None, flow="f", cls=SliceClass.UMMTC, created=0):
    return Frame(flow=Flow(id=flow, slice_cls=cls, src=src, dst=dst, demand_bps=0),
                 payload_bytes=payload, total_bytes=total or payload, created_at=created)


class Harness:
    """Engine + network service with recording callbacks.

    TRAFFIC_ARRIVAL events inject their payload, a frame, when they fire."""

    def __init__(self, topo, seed=1, service=NetworkService):
        self.engine = Engine()
        self.delivered = []
        self.dropped = []
        self.net = service(
            self.engine, topo, functools.partial(fork_rng, seed),
            lambda f, now: self.delivered.append((f, now)),
            lambda f, cause, now: self.dropped.append((f, cause, now)),
        )
        self.engine.on(EventKind.TRAFFIC_ARRIVAL, self.net.inject)


class TestStackProfile:
    def test_default_overhead_sums_the_layers(self):
        p = StackProfile()
        assert p.overhead == 8 + 4 + 29 + 27 + 40 + 28 == 136

    def test_udp_transport(self):
        doc = {"run": {"t_end": "1s"}, "stack": {"transport": "udp"},
               "nodes": [{"id": 0, "kind": "core"}]}
        p = scenario_from_dict(doc).stack
        assert p.transport_bytes == 8
        assert p.overhead == 117

    def test_negative_payload_rejected(self):
        # A frame's wire size is its payload plus the stack overhead, so the
        # loader must keep every payload positive.
        doc = {"run": {"t_end": "1s"},
               "nodes": [{"id": 0, "kind": "core"}, {"id": 1, "kind": "edge"}],
               "links": [{"id": 0, "ends": [1, 0], "rate": "1gbps"}],
               "workloads": [{"kind": "wearable_fleet", "id": "fl", "edges": [1],
                              "n_devices": 2, "period": "100ms", "payload": -1,
                              "twin_prefix": "w",
                              "metrics": [{"name": "hr", "mean": 70, "sd": 3}]}]}
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(doc)
        assert [e for e in info.value.errors if e.startswith("workloads[0].payload:")]

    def test_unknown_transport_rejected(self):
        doc = {"run": {"t_end": "1s"}, "stack": {"transport": "smoke-signals"},
               "nodes": [{"id": 0, "kind": "core"}]}
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(doc)
        assert info.value.errors == ["stack.transport: must be one of ['quic', 'udp']"]

    def test_overhead_is_summed_once_and_is_not_a_field(self):
        p = StackProfile()
        before = repr(p)
        assert p.overhead == 136
        assert vars(p)["overhead"] == 136  # kept after the first read
        assert repr(p) == before
        assert p == StackProfile() and hash(p) == hash(StackProfile())


class TestTxTicks:
    def test_kilobyte_at_gigabit(self):
        assert tx_ticks(1000, 1_000_000_000) == 8_000

    def test_rounds_up(self):
        # 1 byte at 3 bps -> 8e9/3 ns = 2666666666.67 -> ceil
        assert tx_ticks(1, 3) == 2_666_666_667

    def test_unloaded_path_delay(self):
        topo = star()
        hops = topo.route(3, 4)
        # 1000B: access 80us + backbone 8us + backbone 8us + access 80us... route is 3->1->0->2->4
        want = (tx_ticks(1000, 100_000_000) + 10 * US
                + tx_ticks(1000, 1_000_000_000) + 50 * US
                + tx_ticks(1000, 1_000_000_000) + 50 * US
                + tx_ticks(1000, 100_000_000) + 10 * US)
        assert unloaded_path_delay(hops, 1000) == want

    def test_single_hop_example(self):
        # 1000 B at 100 Mb/s is 80 us serialization plus 10 us propagation.
        topo = star()
        hops = topo.route(3, 1)
        assert unloaded_path_delay(hops, 1000) == 80_000 + 10_000

    def test_setup_latency_default_two_rtts(self):
        topo = star()
        hops = topo.route(3, 4)
        assert setup_latency_for(StackProfile(), hops) == 4 * (10 + 50 + 50 + 10) * US

    def test_setup_latency_fixed_override(self):
        topo = star()
        hops = topo.route(3, 4)
        assert setup_latency_for(StackProfile(setup_latency_ns=123), hops) == 123


def graph_errors(kinds, ends, ids=None):
    """Load errors of a scenario that holds only this node/link graph."""
    doc = {
        "run": {"t_end": "1s"},
        "nodes": [{"id": i, "kind": k} for i, k in zip(ids or range(len(kinds)), kinds)],
        "links": [{"id": i, "ends": list(e), "rate": "1gbps"} for i, e in enumerate(ends)],
    }
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    return info.value.errors


class TestTopologyValidation:
    """Graph rules are checked once, when the scenario loads; Topology trusts them."""

    def test_dense_ids_required(self):
        errs = graph_errors(["core", "edge"], [], ids=[0, 2])
        assert "nodes: ids must be unique and dense from 0, in order" in errs

    def test_exactly_one_core(self):
        errs = graph_errors(["edge", "edge"], [(0, 1)])
        assert "nodes: exactly one core node required, found 0" in errs
        errs = graph_errors(["core", "core"], [(0, 1)])
        assert "nodes: exactly one core node required, found 2" in errs
        assert graph_errors([], []) == ["nodes: exactly one core node required, found 0"]

    def test_device_to_device_link_rejected(self):
        errs = graph_errors(["core", "edge", "device", "device"], [(1, 0), (2, 1), (3, 2)])
        assert "links[2]: devices attach only to edge nodes" in errs

    def test_static_device_auto_attaches(self):
        topo = star()
        assert topo.attached[3] == 1
        assert topo.attached[4] == 2


class TestRouting:
    def test_src_equals_dst_is_empty(self):
        assert star().route(1, 1) == []

    def test_two_hop_device_to_core(self):
        topo = star()
        hops = topo.route(3, 0)
        assert [(source(h), h.dst) for h in hops] == [(3, 1), (1, 0)]

    def test_full_path_device_to_device(self):
        topo = star()
        hops = topo.route(3, 4)
        assert [(source(h), h.dst) for h in hops] == [(3, 1), (1, 0), (0, 2), (2, 4)]

    def test_tie_breaks_to_lowest_node_then_link(self):
        # 0 -- {1,2} -- 3 diamond: equal cost via 1 or 2 -> choose node 1.
        nodes = mknodes("core", "edge", "edge", "edge")
        links = [
            Link(0, 0, 1, 1, 0), Link(1, 0, 2, 1, 0),
            Link(2, 1, 3, 1, 0), Link(3, 2, 3, 1, 0),
        ]
        topo = Topology(nodes, links)
        hops = topo.route(0, 3)
        assert [(source(h), h.dst) for h in hops] == [(0, 1), (1, 3)]
        # Parallel links between one pair -> lowest link id, from either end.
        nodes2 = mknodes("core", "edge")
        links2 = [Link(0, 1, 0, 1, 0), Link(1, 0, 1, 1, 0)]
        topo2 = Topology(nodes2, links2)
        assert topo2.route(0, 1)[0].link.id == topo2.route(1, 0)[0].link.id == 0

    def test_direct_link_matches_bfs_choice(self):
        # The one-hop fast path must pick what the BFS tie-break would.
        nodes = mknodes("core", "edge")
        links = [Link(0, 0, 1, 1, 0), Link(1, 1, 0, 1, 0)]
        topo = Topology(nodes, links)
        assert topo.route(1, 0)[0].link.id == 0

    def test_unreachable_when_detached(self):
        topo = star()
        topo.set_attachment(3, None)
        with pytest.raises(Unreachable):
            topo.route(3, 0)

    def test_route_avoids_down_node(self):
        nodes = mknodes("core", "edge", "edge", "edge")
        links = [
            Link(0, 0, 1, 1, 0), Link(1, 0, 2, 1, 0),
            Link(2, 1, 3, 1, 0), Link(3, 2, 3, 1, 0),
        ]
        topo = Topology(nodes, links)
        topo.node_up[1] = False
        topo.bump_epoch()
        hops = topo.route(0, 3)
        assert [(source(h), h.dst) for h in hops] == [(0, 2), (2, 3)]

    def test_cache_invalidated_by_epoch(self):
        topo = star()
        first = topo.route(3, 0)
        assert topo.route(3, 0) is first  # cached
        topo.bump_epoch()
        again = topo.route(3, 0)
        assert again is not first
        assert [(source(h), h.dst) for h in again] == [(3, 1), (1, 0)]

    def test_down_endpoint_raises(self):
        topo = star()
        topo.node_up[0] = False
        topo.bump_epoch()
        with pytest.raises(Unreachable):
            topo.route(1, 0)

    @given(st.lists(st.booleans(), min_size=4, max_size=4),
           st.lists(st.booleans(), min_size=5, max_size=5),
           st.lists(st.none() | st.integers(0, 4), min_size=2, max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_both_channels_of_a_link_are_usable_alike(self, links_up, nodes_up, attached):
        # Routing asks one question per link, whichever end it expands from:
        # that is sound only while the answer holds for both directions.
        topo = star()
        topo.link_up[:] = links_up
        topo.node_up[:] = nodes_up
        for device, edge in zip((3, 4), attached):
            topo.set_attachment(device, edge)

        def may_send(src, dst):
            return topo.node_up[src] and (topo.nodes[src].kind is not NodeKind.DEVICE
                                          or topo.attached[src] == dst)

        for link in topo.links:
            there, back = channel(topo, link.id, link.a), channel(topo, link.id, link.b)
            assert (source(there), there.dst) == (back.dst, source(back)) == (link.a, link.b)
            for chan in (there, back):
                want = (topo.link_up[link.id] and may_send(source(chan), chan.dst)
                        and may_send(chan.dst, source(chan)))
                assert topo._usable(chan.link) == want


class TestTransport:
    def test_single_hop_delay_is_tx_plus_prop(self):
        h = Harness(star())
        f = frame(3, 1, total=1000)
        h.net.inject(f, 0)
        h.engine.run_until(10**9)
        assert len(h.delivered) == 1
        _f, at = h.delivered[0]
        assert at == tx_ticks(1000, 100_000_000) + 10 * US

    def test_src_equals_dst_delivers_in_place(self):
        h = Harness(star())
        h.net.inject(frame(1, 1), 5)
        assert h.delivered[0][1] == 5
        assert h.engine.pending() == 0

    def test_fifo_queueing_delay(self):
        h = Harness(star())
        f1, f2 = frame(3, 1, total=1000), frame(3, 1, total=1000)
        h.net.inject(f1, 0)
        h.net.inject(f2, 0)
        h.engine.run_until(10**9)
        tx = tx_ticks(1000, 100_000_000)
        assert [at for _f, at in h.delivered] == [tx + 10 * US, 2 * tx + 10 * US]

    def test_loss_prob_one_drops_everything(self):
        nodes = mknodes("core", "edge")
        topo = Topology(nodes, [Link(0, 1, 0, 10**9, 0, loss_prob=1.0)])
        h = Harness(topo)
        for _ in range(50):
            h.net.inject(frame(1, 0), 0)
        h.engine.run_until(10**9)
        assert not h.delivered
        assert len(h.dropped) == 50
        assert all(cause == "loss" for _f, cause, _t in h.dropped)

    def test_queue_overflow_drops(self):
        nodes = mknodes("core", "edge")
        topo = Topology(nodes, [Link(0, 1, 0, 10**9, 0, queue_cap=2)])
        h = Harness(topo)
        for _ in range(5):  # 1 in service + 2 queued + 2 overflow
            h.net.inject(frame(1, 0, total=1000), 0)
        h.engine.run_until(10**9)
        assert len(h.delivered) == 3
        assert [(c) for _f, c, _t in h.dropped] == ["queue", "queue"]

    def test_unreachable_injection_is_fault_drop(self):
        topo = star()
        h = Harness(topo)
        topo.set_attachment(3, None)
        h.net.inject(frame(3, 0), 0)
        assert h.dropped[0][1] == "fault"

    def test_fail_link_drains_queue_and_drops_in_service(self):
        topo = star()
        h = Harness(topo)
        for _ in range(3):
            h.net.inject(frame(3, 1, total=1000), 0)
        h.net.fail_link(topo.links[2], 1)  # while first frame is in service
        h.engine.run_until(10**9)
        assert not h.delivered
        causes = [c for _f, c, _t in h.dropped]
        assert causes.count("fault") == 3

    def test_recover_link_restores_service(self):
        topo = star()
        h = Harness(topo)
        h.net.fail_link(topo.links[2], 0)
        h.net.inject(frame(3, 1), 10)
        assert h.dropped[-1][1] == "fault"
        h.net.recover_link(topo.links[2], 20)
        h.net.inject(frame(3, 1, total=1000), 20)
        h.engine.run_until(10**9)
        assert len(h.delivered) == 1

    def test_node_failure_drops_arriving_frame(self):
        topo = star()
        h = Harness(topo)
        h.net.inject(frame(3, 0, total=1000), 0)
        h.net.fail_node(topo.nodes[1], 10)  # fails while frame is in flight to it
        h.engine.run_until(10**9)
        assert not h.delivered
        assert h.dropped[0][1] == "fault"

    def test_failed_node_stops_transmitting(self):
        # An edge fails while it serializes one frame toward the core and
        # queues 19 more: the queue drains as fault drops at the failure, the
        # frame in service drops when it would have left, and none arrives.
        topo = star()
        h = Harness(topo)
        for _ in range(20):
            h.net.inject(frame(1, 0, total=1000), 0)  # 8 us each on the 1 Gb/s uplink
        h.net.fail_node(topo.nodes[1], 161)
        h.engine.run_until(10**9)
        assert not h.delivered
        assert [(c, t) for _f, c, t in h.dropped] == [("fault", 161)] * 19 + [("fault", 8000)]
        chan = channel(h.net.topology, 0, 1)
        assert chan.frame is None
        assert not h.net._serving(chan, h.engine.now)

    def test_an_arrival_carries_its_frame_and_a_cut_clears_its_hops(self):
        # One marker per fact: the frame crossing a hop is the arrival's whole
        # payload, and a cut frame has no hops from the instant of the cut.
        topo = star()
        h = Harness(topo)
        f = frame(3, 1, total=1000)
        h.net.inject(f, 0)
        chan = f.hops[0]
        assert [payload for *_, payload in h.engine._heap] == [f]  # its arrival at 90 us
        h.net.fail_link(topo.links[2], 1)
        assert f.hops is None and chan.frame is f and not h.dropped  # dropped at its departure
        h.engine.run_until(10**9)
        assert self.outcomes(h) == ([], [("fault", 80_000)]) and chan.frame is None

    def outcomes(self, h):
        return ([at for _f, at in h.delivered], [(c, t) for _f, c, t in h.dropped])

    # A 1000 B frame from device 3 to edge 1 serializes until 80 us on link 2
    # and propagates until 90 us. Each fault below fails and recovers inside
    # one of those windows.

    def test_short_link_fault_drops_the_frame_in_service(self):
        topo = star()
        h = Harness(topo)
        h.net.inject(frame(3, 1, total=1000), 0)
        h.net.fail_link(topo.links[2], 1)
        h.net.recover_link(topo.links[2], 2)
        h.engine.run_until(10**9)
        assert self.outcomes(h) == ([], [("fault", 80_000)])

    def test_short_sender_fault_drops_the_frame_in_service(self):
        topo = star()
        h = Harness(topo)
        h.net.inject(frame(3, 1, total=1000), 0)
        h.net.fail_node(topo.nodes[3], 1)
        h.net.recover_node(topo.nodes[3], 2)
        h.engine.run_until(10**9)
        assert self.outcomes(h) == ([], [("fault", 80_000)])

    def test_short_link_fault_drops_the_frame_in_flight(self):
        topo = star()
        h = Harness(topo)
        h.net.inject(frame(3, 1, total=1000), 0)
        h.engine.run_until(85_000)
        h.net.fail_link(topo.links[2], 85_000)
        h.net.recover_link(topo.links[2], 86_000)
        h.engine.run_until(10**9)
        assert self.outcomes(h) == ([], [("fault", 90_000)])

    def test_receiving_node_is_judged_at_arrival_only(self):
        topo = star()
        h = Harness(topo)
        h.net.inject(frame(3, 1, total=1000), 0)
        h.engine.run_until(85_000)
        h.net.fail_node(topo.nodes[1], 85_000)
        h.net.recover_node(topo.nodes[1], 86_000)
        h.engine.run_until(10**9)
        assert self.outcomes(h) == ([90_000], [])

    @pytest.mark.parametrize("service", SERVICES.values(), ids=SERVICES)
    @pytest.mark.parametrize("loss", [0.0, 0.5], ids=["lossless", "lossy"])
    @pytest.mark.parametrize("cut", ["link", "sender", "both"])
    def test_a_cut_on_a_channel_that_never_queued_drops_the_frame_once(self, service, loss, cut):
        # No frame queues behind this one, so on a lossless link no departure
        # event is pushed until the cut; the arrival already scheduled is ignored.
        topo = star()
        topo.links[2].loss_prob = loss
        h = Harness(topo, service=service)
        h.net.inject(frame(3, 1, total=1000), 0)
        if cut in ("link", "both"):
            h.net.fail_link(topo.links[2], 1)
        if cut in ("sender", "both"):
            h.net.fail_node(topo.nodes[3], 2)
        h.net.recover_link(topo.links[2], 3)
        h.net.recover_node(topo.nodes[3], 3)
        h.engine.run_until(10**9)
        assert self.outcomes(h) == ([], [("fault", 80_000)])
        assert h.engine.pending() == 0

    @pytest.mark.parametrize("service", SERVICES.values(), ids=SERVICES)
    def test_a_fault_between_runs_is_judged_at_the_time_its_caller_passes(self, service):
        # The run reached the frame's departure instant, so its departure place
        # has passed though no event was pushed there: the frame is on the
        # wire, and the fault drops it when it arrives.
        topo = star()
        h = Harness(topo, service=service)
        h.net.inject(frame(3, 1, total=1000), 0)
        h.engine.run_until(80_000)
        h.net.fail_link(topo.links[2], 80_000)
        h.net.recover_link(topo.links[2], 81_000)
        h.engine.run_until(10**9)
        assert self.outcomes(h) == ([], [("fault", 90_000)])

    def diamond(self):
        # core 0 reachable from edge 3 via relay edges 1 or 2
        return Topology(mknodes("core", "edge", "edge", "edge"), [
            Link(0, 0, 1, 10**9, 1000), Link(1, 0, 2, 10**9, 1000),
            Link(2, 1, 3, 10**9, 1000), Link(3, 2, 3, 10**9, 1000),
        ])

    def test_dead_relay_node_drops_on_arrival(self):
        topo = self.diamond()
        h = Harness(topo)
        h.net.inject(frame(3, 0, total=1000), 0)  # plans 3->1->0
        h.net.fail_node(topo.nodes[1], 100)  # dies while the frame is crossing 3->1
        h.engine.run_until(10**9)
        assert not h.delivered
        assert h.dropped[0][1] == "fault"

    def test_reroute_when_planned_hop_becomes_unusable(self):
        topo = self.diamond()
        h = Harness(topo)
        h.net.inject(frame(3, 0, total=1000), 0)  # plans 3->1->0
        h.net.fail_link(topo.links[0], 100)  # planned uplink 1->0 dies mid-first-hop
        h.engine.run_until(10**9)
        # At node 1 the frame replans to 1->3->2->0 and still gets through,
        # carrying the epoch of its new route.
        assert len(h.delivered) == 1
        assert not h.dropped
        assert h.delivered[0][0].epoch == topo.epoch == 1


class TestRouteEpoch:
    """A frame re-checks its planned next hop only when the topology's epoch
    has moved since its route was computed."""

    @pytest.fixture
    def usable_calls(self, monkeypatch):
        calls = []
        usable = Topology._usable

        def counting(topo, link):
            calls.append(link.id)
            return usable(topo, link)

        monkeypatch.setattr(Topology, "_usable", counting)
        return calls

    @pytest.mark.parametrize("change", ["fail_link", "recover_link", "fail_node", "recover_node",
                                        "set_attachment"])
    def test_every_write_to_what_usable_reads_moves_the_epoch(self, change):
        topo = star()
        h = Harness(topo)
        before = topo.epoch
        if change == "set_attachment":
            topo.set_attachment(3, None)
        elif change.endswith("link"):
            getattr(h.net, change)(topo.links[0], 0)
        else:
            getattr(h.net, change)(topo.nodes[1], 0)
        assert topo.epoch > before

    # A 1000 B frame from device 3 to device 4 crosses four hops: 3->1 until
    # 90 us, 1->0 until 148 us, 0->2 until 206 us and 2->4 until 296 us.

    def test_a_static_topology_checks_no_hop_after_injection(self, usable_calls):
        topo = star()
        h = Harness(topo)
        h.net.fail_link(topo.links[1], 0)  # the epoch moves before the frame is routed
        h.net.recover_link(topo.links[1], 0)
        h.net.inject(frame(3, 4, total=1000), 0)
        usable_calls.clear()  # routing at injection checks links
        h.engine.run_until(10**9)
        assert [at for _f, at in h.delivered] == [296_000]
        assert usable_calls == []

    def test_a_fault_that_recovered_still_sends_the_frame_through_the_check(self, usable_calls):
        topo = star()
        h = Harness(topo)
        h.net.inject(frame(3, 4, total=1000), 0)
        usable_calls.clear()
        h.net.fail_link(topo.links[0], 10_000)  # the next hop, 1->0
        h.net.recover_link(topo.links[0], 20_000)
        h.engine.run_until(10**9)
        # Usable again, so the frame keeps its route; each later hop is checked.
        assert [at for _f, at in h.delivered] == [296_000]
        assert not h.dropped
        assert usable_calls == [0, 1, 3]  # the links of hops 1->0, 0->2 and 2->4

    def test_a_device_that_detaches_mid_flight_drops_the_frame_at_the_edge(self):
        topo = star()
        h = Harness(topo)
        h.net.inject(frame(3, 4, total=1000), 0)
        h.engine.run_until(150_000)  # crossing 0->2
        topo.set_attachment(4, None)
        h.engine.run_until(10**9)
        assert not h.delivered
        assert [(c, t) for _f, c, t in h.dropped] == [("fault", 206_000)]


class TestIdleChannels:
    """Most channels never queue a frame; they must cost little and fault cleanly."""

    def test_idle_channel_is_small(self):
        # 1,000 edges on one core, chained: 1,999 links, 3,998 channels.
        n = 1000
        nodes = mknodes("core", *["edge"] * n)
        links = [Link(i, i + 1, 0, 10**9, US) for i in range(n)]
        links += [Link(n + i, i + 1, i + 2, 10**9, US) for i in range(n - 1)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            topo = Topology(nodes, links)
            traced = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert traced / (2 * len(topo.links)) < 1024  # bytes per channel

    def test_a_channel_and_an_adjacency_entry_store_no_derived_fact(self):
        # A channel's source is the end of its link that is not `dst`, and a
        # slot names its link (`slot >> 1`).
        assert Channel.__slots__ == ("link", "dst", "queue", "frame", "free_at", "dep_seq",
                                     "departs")
        assert {len(entry) for out in star()._adj for entry in out} == {2}

    def test_failing_idle_link_drops_nothing(self):
        topo = star()
        h = Harness(topo)
        h.net.fail_link(topo.links[2], 0)
        assert not h.dropped
        h.net.recover_link(topo.links[2], 10)
        h.net.inject(frame(3, 1), 20)
        h.engine.run_until(10**9)
        assert not h.dropped
        assert len(h.delivered) == 1

    def test_failing_node_with_idle_links_drops_nothing(self):
        topo = star()
        h = Harness(topo)
        h.net.fail_node(topo.nodes[1], 0)
        h.net.recover_node(topo.nodes[1], 10)
        h.net.inject(frame(3, 0), 20)
        h.engine.run_until(10**9)
        assert not h.dropped
        assert len(h.delivered) == 1


def small_fleet(n_devices=200):
    """A wearable fleet over edges 1 and 2, and a spare edge 3 that no route takes."""
    return scenario_from_dict({
        "run": {"t_end": "2500ms"},
        "nodes": [{"id": 0, "kind": "core"}] + [{"id": i, "kind": "edge"} for i in (1, 2, 3)],
        "links": [{"id": i - 1, "ends": [i, 0], "rate": "10gbps", "prop_delay": "50us"}
                  for i in (1, 2, 3)],
        "twins": [{"id": "district_a", "level": "global_edge", "host": 1,
                   "policy": {"hr": "mean"}},
                  {"id": "district_b", "level": "global_edge", "host": 2,
                   "policy": {"hr": "mean"}},
                  {"id": "city", "level": "global_core", "host": 0, "policy": {"hr": "mean"}}],
        "workloads": [{"kind": "wearable_fleet", "id": "fl", "edges": [1, 2],
                       "n_devices": n_devices, "period": "1s", "stagger": True, "payload": 120,
                       "twin_prefix": "w", "link": {"rate": "100mbps", "prop_delay": "2us"},
                       "metrics": [{"name": "hr", "mean": 72, "sd": 6}]}],
    })


class TestLazyChannels:
    """A channel is built the first time a route takes it, and its queue the
    first time a frame waits on it."""

    def built(self, topo):
        return [chan for chan in topo._channels if chan is not None]

    def test_a_fleet_builds_one_channel_per_direction_its_routes_use(self):
        result = run_scenario(small_fleet())
        sim, topo = result.sim, result.sim.topology
        admitted = [flow for flow in sim.flows.values() if flow.admitted]
        assert len(admitted) == len(sim.flows) == 200 + 2  # members, then two twin syncs
        assert result.report["slices"]["umMTC"]["delivered"] > 400
        # 200 uplinks and two edge-to-core channels of the 2 * 203 there are.
        built = self.built(topo)
        edge_of = {n.id: topo.attached[n.id] for n in topo.nodes if n.kind is NodeKind.DEVICE}
        assert sorted((source(c), c.dst) for c in built) == sorted(
            [(1, 0), (2, 0)] + list(edge_of.items()))
        assert len(topo._channels) == 2 * 203
        # Every admitted route holds the one built channel of each of its hops.
        used = {id(hop) for flow in admitted for hop in topo.route(flow.src, flow.dst)}
        assert used == {id(chan) for chan in built}
        assert self.built(topo) == built  # routing again built nothing
        # Every transmitter was idle when its frames came, so no queue exists.
        assert all(chan.queue is None for chan in built)

    def test_a_queue_is_built_when_the_first_frame_waits(self):
        topo = star()
        h = Harness(topo)
        h.net.inject(frame(3, 1, total=1000), 0)
        chan = channel(topo, 2, 3)
        assert chan.queue is None  # served at once
        h.net.inject(frame(3, 1, total=1000), 10)  # the transmitter is busy: it waits
        assert chan.queue is not None and chan.queue.occupancy == 1
        assert all(c.queue is None for c in self.built(topo) if c is not chan)
        h.engine.run_until(10**9)
        assert [at for _f, at in h.delivered] == [90_000, 170_000]

    @pytest.mark.parametrize("fault", ["link", "node"])
    def test_a_fault_on_channels_never_built_drops_builds_and_pushes_nothing(self, fault):
        sim = run_scenario(small_fleet(20)).sim  # admitted, routed and run to its horizon
        net, topo, engine = sim.net, sim.topology, sim.engine
        before, pending, now = list(topo._channels), engine.pending(), engine.now
        spare, edge = topo.links[2], topo.nodes[3]
        assert len(self.built(topo)) == 22 and before[4] is before[5] is None  # the spare's slots

        def fault_drops():
            return sum(flow.stats.dropped_fault for flow in sim.flows.values())

        dropped = fault_drops()
        if fault == "link":
            net.fail_link(spare, now)
            net.recover_link(spare, now + 10)
        else:
            net.fail_node(edge, now)
            net.recover_node(edge, now + 10)
        assert fault_drops() == dropped
        assert topo._channels == before and engine.pending() == pending
        # After recovery the spare link carries frames as an untouched one does.
        probe, delivered = frame(3, 0, total=1000), []
        net.on_deliver = lambda f, at: f is probe and delivered.append(at - now)
        net.inject(probe, now + 20)
        engine.run_until(now + 10 * MS)
        assert delivered == [20 + tx_ticks(1000, 10**10) + 50 * US]
        assert [(source(c), c.dst) for c in topo._channels[4:6] if c is not None] == [(3, 0)]

    def test_a_channel_out_of_a_node_that_is_not_an_end_is_refused(self):
        topo = star()
        with pytest.raises(ValueError, match="node 0 is not an end of link 2"):
            channel(topo, 2, 0)
        with pytest.raises(ValueError, match="node 3 is not an end of link 7"):
            channel(topo, 7, 3)
        assert self.built(topo) == []
        assert (source(channel(topo, 2, 3)), source(channel(topo, 2, 1))) == (3, 1)


class TestConservation:
    @given(st.integers(min_value=1, max_value=40), st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_every_frame_delivered_or_dropped(self, n, loss, cap):
        nodes = mknodes("core", "edge", "device")
        links = [Link(0, 1, 0, 10**9, 1000), Link(1, 2, 1, 10**8, 1000, loss_prob=loss, queue_cap=cap)]
        topo = Topology(nodes, links)
        h = Harness(topo, seed=7)
        flow = Flow(id="f", slice_cls=SliceClass.UMMTC, src=2, dst=0, demand_bps=0)
        for i in range(n):
            h.net.inject(Frame(flow, 100, 500, 0), 0)
        h.engine.run_until(10**12)
        assert len(h.delivered) + len(h.dropped) == n
        assert h.engine.pending() == 0


def order(h):
    return [(f.flow.id, at) for f, at in h.delivered]


class TestSameInstantOrder:
    """A frame's departure sorts at the (instant, seq) place reserved when its
    serialization began, whether or not an event is pushed there, and its
    arrival sorts right after that place.

    On `star`, edge 1 sends an 11,250 B frame x to the core over the 1 Gb/s
    link 0: link 0 frees at 90 us and x arrives at 140 us. A 1,000 B frame
    from device 3 crosses the 100 Mb/s link 2 in 80 us and propagates for
    10 us, so it reaches edge 1 at the instant link 0 frees.
    """

    def crossing(self, service):
        # y (FeMBB) leaves device 3 first; then x starts on link 0, and q
        # (ELPC, the lower WDRR weight) queues behind x.
        h = Harness(star(), service=service)
        h.net.inject(frame(3, 0, total=1000, flow="y", cls=SliceClass.FEMBB), 0)
        h.net.inject(frame(1, 0, total=11_250, flow="x", cls=SliceClass.ELPC), 0)
        h.net.inject(frame(1, 0, total=1000, flow="q", cls=SliceClass.ELPC), 0)
        h.engine.run_until(10**9)
        return order(h)

    def test_an_arrival_sorts_where_its_serialization_began(self):
        # y began before x, so it reaches edge 1 before x departs: it queues
        # beside q, and WDRR serves the FeMBB frame first.
        want = [("x", 140 * US), ("y", 148 * US), ("q", 156 * US)]
        assert self.crossing(NetworkService) == want
        assert self.crossing(RESERVING) == want

    def test_the_eager_oracle_keeps_the_old_rule(self):
        # Placed when y departs, y's arrival sorts after x's departure, which
        # has already begun q by the time y queues.
        assert self.crossing(EagerNetworkService) == [
            ("x", 140 * US), ("q", 148 * US), ("y", 156 * US)]

    def pair_at_the_free_instant(self, service, before):
        """Two frames for link 0 are injected at the instant it frees from x,
        ELPC w1 then FeMBB w2, by events scheduled before or after x began."""
        h = Harness(star(), service=service)
        x = frame(1, 0, total=11_250, flow="x")
        if not before:
            h.net.inject(x, 0)
        h.engine.schedule(90 * US, EventKind.TRAFFIC_ARRIVAL,
                          frame(1, 0, total=1000, flow="w1", cls=SliceClass.ELPC))
        h.engine.schedule(90 * US, EventKind.TRAFFIC_ARRIVAL,
                          frame(1, 0, total=1000, flow="w2", cls=SliceClass.FEMBB))
        if before:
            h.net.inject(x, 0)
        h.engine.run_until(10**9)
        return order(h)

    @pytest.mark.parametrize("service", SERVICES.values(), ids=SERVICES)
    def test_an_enqueue_before_the_departure_place_finds_the_transmitter_busy(self, service):
        # Both queue, and x's departure picks by WDRR: FeMBB first.
        assert self.pair_at_the_free_instant(service, before=True) == [
            ("x", 140 * US), ("w2", 148 * US), ("w1", 156 * US)]

    @pytest.mark.parametrize("service", SERVICES.values(), ids=SERVICES)
    def test_an_enqueue_after_the_departure_place_finds_the_transmitter_free(self, service):
        # w1 starts at once, and w2 queues behind it.
        assert self.pair_at_the_free_instant(service, before=False) == [
            ("x", 140 * US), ("w1", 148 * US), ("w2", 156 * US)]


class TestFrameRelease:
    def test_no_channel_keeps_a_delivered_frame(self):
        # Frames cross the core both ways, queue on the access links, and
        # meet a lossy backbone link; every one of them is settled.
        # One flow each way, as in a run: a flow holds one loss stream for all its frames.
        topo = star()
        topo.links[1].loss_prob = 0.3
        h = Harness(topo)
        flows = [Flow(id=f"f{src}", slice_cls=SliceClass.UMMTC, src=src, dst=dst, demand_bps=0)
                 for src, dst in ((4, 3), (3, 4))]
        for i in range(40):
            h.engine.schedule(i * US, EventKind.TRAFFIC_ARRIVAL, Frame(flows[i % 2], 100, 1000, 0))
        h.engine.run_until(10**9)
        assert h.delivered and h.dropped
        assert len(h.delivered) + len(h.dropped) == 40
        referrers = gc.get_referrers(*[f for f, _at in h.delivered])
        assert not [r for r in referrers if isinstance(r, Channel)]
        channels = [channel(topo, link.id, src) for link in topo.links for src in (link.a, link.b)]
        assert all(chan.frame is None and chan.free_at == -1 for chan in channels)


PERFBENCH_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"


def contended_scenario(seed):
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return scenario_from_dict(inputs.contended_scenario(seed))


class TestAgainstTheEagerOracle:
    """With its own arrival rule, the eager oracle gives the same reports on
    the bundled scenarios and the benchmark's contended scenario: on these
    inputs the declared tie rule moves nothing but the event count.

    `wearables.scn` runs to the benchmark's 8.4 s fleet horizon, and
    `contended` to 10 s, past its outage and recovery; both run whole in the
    benchmark.
    """

    @pytest.mark.parametrize("name, t_end", [
        ("ambulance.scn", None), ("ambulance_single.scn", None), ("surgery.scn", None),
        ("surgery_degraded.scn", None), ("ward.scn", None), ("wearables.scn", 8400 * MS)])
    def test_bundled_scenarios(self, scenario_dir, name, t_end):
        scn = load_scenario(scenario_dir / name)
        lazy = run_scenario(scn, t_end=t_end)
        eager = run_with(EagerNetworkService, scn, t_end=t_end)
        assert outcome(lazy) == outcome(eager)
        assert lazy.sim.engine.processed < eager.sim.engine.processed

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_contended(self, seed):
        scn = contended_scenario(seed)
        lazy = run_scenario(scn, t_end=10 * SEC)
        assert lazy.report["slices"]["FeMBB"]["dropped_queue"] > 0
        assert lazy.report["slices"]["FeMBB"]["dropped_fault"] > 0
        assert outcome(lazy) == outcome(run_with(EagerNetworkService, scn, t_end=10 * SEC))
