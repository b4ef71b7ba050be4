"""Generated small scenarios that drive all five traffic generators at their edges.

Each example places a stream, a surgery loop, an ambulance run, a wearable
fleet and an implant beacon on one small fabric, with start times up to
1.5x the horizon (so some sources never fire), optional durations,
staggered or Poisson fleets, and one link or node fault. The magnitude test
then sets one field of such a scenario to an extreme value.
"""

import copy
import functools
import json
from collections import Counter
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from eager_fleet import run_with_eager_fleet, same_run
from eager_network import EagerNetworkService, outcome, run_with
from twinslice.engine import MS, SEC
from twinslice.metrics import fmt6, to_json_bytes
from twinslice.network import NetworkService
from twinslice.scenario import ScenarioError, scenario_from_dict
from twinslice.sim import Simulation
from twinslice.slices import SLICE_ORDER
from twinslice.workloads import AmbulanceRunSpec

NODES = [{"id": 0, "kind": "core"}, {"id": 1, "kind": "edge"}, {"id": 2, "kind": "edge"},
         {"id": 3, "kind": "edge"}, {"id": 4, "kind": "device", "mobile": True},
         {"id": 5, "kind": "device"}, {"id": 6, "kind": "device"}]
# Edge 1 and 2 also meet directly, so a failed uplink leaves a detour.
ENDS = ([1, 0], [2, 0], [3, 0], [1, 2], [4, 1], [4, 2], [4, 3], [5, 1], [6, 2])
VITALS = [{"name": "hr", "mean": 80, "sd": 5}]
TWINS = [
    {"id": "pt", "level": "individual", "host": 3, "entity": 4, "metrics": VITALS},
    {"id": "bt", "level": "individual", "host": 1, "entity": 5, "metrics": VITALS},
    {"id": "ward", "level": "global_edge", "host": 1, "children": "auto", "policy": {"hr": "mean"}},
    {"id": "hub", "level": "global_core", "host": 0, "policy": {"hr": "max"}},
]
GRID = 100_000  # 100 us


def document(t_end, workloads, faults, seed=0, queue_caps=(64,) * len(ENDS)):
    """The fabric and its twins, carrying these workloads and faults."""
    return {
        "name": "fuzz",
        "run": {"t_end": t_end, "master_seed": seed},
        "nodes": NODES,
        "links": [{"id": i, "ends": e, "rate": "100mbps", "prop_delay": "10us", "queue_cap": cap}
                  for i, (e, cap) in enumerate(zip(ENDS, queue_caps))],
        "twins": TWINS,
        "workloads": workloads,
        "faults": faults,
    }


@st.composite
def small_scenarios(draw):
    """A scenario document with a horizon of at most 10 ms."""
    t_end = draw(st.integers(1, 10)) * MS

    def timing():
        out = {"start": draw(st.integers(0, t_end * 3 // 2))}
        if draw(st.booleans()):
            out["duration"] = draw(st.integers(1, t_end))
        if draw(st.booleans()):
            out["preadmit"] = True
        return out

    workloads = [
        {"kind": "telemedicine_stream", "id": "cam", "src": 5, "dst": draw(st.sampled_from([0, 6])),
         "bitrate": draw(st.sampled_from(["1mbps", "10mbps", "95mbps"])),
         "frame_size": draw(st.integers(100, 1500)), **timing()},
        {"kind": "surgery_loop", "id": "op", "src": 5, "dst": 6,
         "cmd_rate": draw(st.sampled_from([1000, 4000])), "cmd_size": 64,
         "rtt_budget": draw(st.sampled_from(["100us", "2ms"])), **timing()},
        {"kind": "ambulance_run", "id": "amb", "device": 4, "twin": "pt",
         "edge_sequence": draw(st.sampled_from([[1], [1, 2], [1, 2, 3], [3, 1, 2]])),
         "speed_kmh": draw(st.sampled_from([1000, 3600])),
         "cell_span": draw(st.sampled_from([1, 2])), "telemetry_rate": 2000, "payload": 200,
         "handover_gap": draw(st.sampled_from([0, "300us", "2ms"])), **timing()},
        {"kind": "wearable_fleet", "id": "fleet", "edges": draw(st.sampled_from([[1], [1, 2]])),
         "n_devices": draw(st.integers(1, 4)), "period": draw(st.sampled_from(["1ms", "3ms"])),
         "payload": 40, "stagger": draw(st.booleans()), "poisson": draw(st.booleans()),
         "twin_prefix": "w", "metrics": VITALS, **timing()},
        {"kind": "implant_beacon", "id": "imp", "device": 5, "twin": "bt",
         "period": draw(st.sampled_from(["500us", "2ms"])), "payload": 40,
         "energy_per_tx": "10nj", "battery": draw(st.sampled_from(["0nj", "50nj", "1j"])),
         **timing()},
    ]
    # Corridor edges 2 and 3 weigh extra, so that some handovers meet a dark edge.
    target = draw(st.sampled_from([f"link:{i}" for i in range(len(ENDS))]
                                  + [f"node:{n['id']}" for n in NODES] + ["node:2", "node:3"] * 4))
    # On a 100 us grid: Hypothesis favours small integers, which would make
    # nearly every outage a few nanoseconds long.
    t_fail = draw(st.integers(0, t_end // GRID)) * GRID
    fault = {"target": target, "t_fail": t_fail,
             "t_recover": t_fail + draw(st.integers(1, t_end // GRID)) * GRID}
    return document(t_end, workloads, [fault], seed=draw(st.integers(0, 3)),
                    queue_caps=[draw(st.sampled_from([4, 64])) for _ in ENDS])


def run(doc):
    return Simulation(scenario_from_dict(copy.deepcopy(doc))).run()


class TestGeneratedScenarios:
    @given(small_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_conserve_frames_and_replay_exactly(self, doc):
        try:
            result = run(doc)
        except ScenarioError:
            return
        report = result.json_bytes()
        assert run(doc).json_bytes() == report
        # The twins section is a mapping that json reads through its rows.
        assert report == (json.dumps(result.report, indent=2, default=dict) + "\n").encode()
        # in_flight is what is left of sent once settled frames are taken
        # out, so a frame delivered or dropped twice makes it negative.
        for name, row in result.report["slices"].items():
            settled = row["delivered"] + row["dropped_loss"] + row["dropped_queue"] + row["dropped_fault"]
            assert row["sent"] == settled + row["in_flight"], name
            assert row["in_flight"] >= 0, name
        flows = result.sim.flows.values()
        per_flow = {flow.id: flow.stats for flow in flows}
        # Each slice's report row sums the ledgers of its flows.
        for cls in SLICE_ORDER:
            row = result.report["slices"][cls.value]
            own = [flow.stats for flow in flows if flow.slice_cls is cls]
            for name in ("sent", "delivered", "dropped_loss", "dropped_queue", "dropped_fault",
                         "energy_nj"):
                assert row[name] == sum(getattr(s, name) for s in own), (cls, name)
            count = sum(s.hist.count for s in own)
            assert count == row["delivered"], cls
            assert row["mean_delay_ns"] == (fmt6(sum(s.hist.total for s in own) / count)
                                            if count else 0.0), cls
            assert row["max_ns"] == max((s.hist.max_value for s in own), default=0), cls
            assert row["throughput_bps"] == fmt6(
                sum(s.payload_bits for s in own) * SEC / result.sim.t_end), cls
        assert all(stats.in_flight >= 0 for stats in per_flow.values())
        wl = result.report["workloads"]
        assert wl["cam"]["frames_emitted"] == per_flow["cam"].sent
        assert wl["op"]["commands_emitted"] == per_flow["op"].sent
        assert wl["op"]["round_trips"] == per_flow["op.ack"].delivered
        assert wl["amb"]["frames_emitted"] == per_flow["amb"].sent
        assert wl["imp"]["transmissions"] == per_flow["imp"].sent
        assert wl["imp"]["energy_consumed_nj"] == 10 * wl["imp"]["transmissions"]  # 10 nJ a frame
        assert wl["fleet"]["frames_emitted"] == sum(
            per_flow[f"fleet.{i}"].sent for i in range(wl["fleet"]["devices"]))

    @given(small_scenarios(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_a_fault_past_the_horizon_changes_only_faults(self, doc, data):
        # Metamorphic: the late fault's events never fire, and scheduling them
        # shifts every later event's sequence number alike, so event order holds.
        try:
            base = run(doc).report
        except ScenarioError:
            return
        t_end = doc["run"]["t_end"]
        t_fail = t_end + data.draw(st.integers(1, t_end))
        late = copy.deepcopy(doc)
        late["faults"].append({
            "target": data.draw(st.sampled_from([f"link:{i}" for i in range(len(ENDS))]
                                                + [f"node:{n['id']}" for n in NODES])),
            "t_fail": t_fail, "t_recover": t_fail + data.draw(st.integers(1, t_end))})
        report = run(late).report
        assert report.pop("faults")[:-1] == base.pop("faults")
        assert list(report) == list(base)
        for key in base:
            assert to_json_bytes(report[key]) == to_json_bytes(base[key]), key


def counted_run(service, scn, **kw):
    """Run `scn` on `service`, counting the departures and arrivals it handles,
    the arrivals that find their frame cut (`hops is None`), and the rest. The
    package's arrival carries its frame, the eager oracle's (channel, frame,
    failure count)."""
    counts = Counter()
    on_departure, on_arrival = service._on_departure, service._on_arrival

    def departure(self, chan, now):
        counts["departures"] += 1
        on_departure(self, chan, now)

    def arrival(self, flight, now):
        counts["arrivals"] += 1
        frame = flight[1] if isinstance(flight, tuple) else flight
        counts["cut"] += frame.hops is None
        on_arrival(self, flight, now)

    with mock.patch.object(service, "_on_departure", departure), \
            mock.patch.object(service, "_on_arrival", arrival):
        result = run_with(functools.partial(service, **kw), scn)
    counts["other"] = result.sim.engine.processed - counts["departures"] - counts["arrivals"]
    return result, counts


class TestLazyDeparturesAgainstTheEagerOracle:
    @given(small_scenarios(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_only_the_event_count_differs(self, doc, lossy):
        # The eager oracle under the package's arrival rule pushes a departure
        # for every hop; the package pushes one only for a loss draw, a queued
        # frame or a cut. Reports, per-flow ledgers and histograms must agree.
        if lossy:
            for link in doc["links"][::2]:
                link["loss"] = 0.05
        try:
            scn = scenario_from_dict(copy.deepcopy(doc))
        except ScenarioError:
            return
        lazy, got = counted_run(NetworkService, scn)
        eager, want = counted_run(EagerNetworkService, scn, reserve_arrival=True)
        assert outcome(lazy) == outcome(eager)
        assert got["other"] == want["other"]
        # A frame cut in service on a lossless link keeps the arrival reserved
        # when its serialization began; it fires and finds the frame cut.
        assert got["arrivals"] - got["cut"] == want["arrivals"]
        assert got["departures"] <= want["departures"]

    def test_a_frame_cut_on_a_lossless_link_costs_one_event_more(self):
        # The one 1,136 B frame leaves device 5 after 80 us of session setup
        # and serializes on link 7 until 170.88 us. The link fails at 100 us.
        # Both services drop it at its departure; the package's reserved
        # arrival still fires, at 180.88 us, and is ignored.
        stream = {"kind": "telemedicine_stream", "id": "cam", "src": 5, "dst": 0,
                  "bitrate": "8mbps", "frame_size": 1000, "duration": "500us"}
        fault = {"target": "link:7", "t_fail": "100us", "t_recover": "200us"}
        doc = document("1ms", [stream], [fault])
        doc["twins"] = []
        scn = scenario_from_dict(doc)
        lazy, got = counted_run(NetworkService, scn)
        eager, want = counted_run(EagerNetworkService, scn, reserve_arrival=True)
        assert outcome(lazy) == outcome(eager)
        assert lazy.report["slices"]["FeMBB"]["dropped_fault"] == 1
        assert (got["departures"], got["arrivals"], got["cut"]) == (1, 1, 1)
        assert (want["departures"], want["arrivals"]) == (1, 0)
        assert lazy.sim.engine.processed == eager.sim.engine.processed + 1


class TestFleetFifoAgainstTheEagerFleet:
    @given(small_scenarios())
    @settings(max_examples=80, deadline=None)
    def test_the_same_bytes_and_events(self, doc):
        # A periodic fleet's FIFO must fire each emission at the place its own
        # heap event would take, among all five sources, faults and twins.
        try:
            scn = scenario_from_dict(copy.deepcopy(doc))
        except ScenarioError:
            return
        assert same_run(Simulation(scn).run(), run_with_eager_fleet(scn))


# --- extreme magnitudes --------------------------------------------------------

BIG = 10**400
EXTREMES = [BIG, -BIG, 2**63, 2**63 - 1, 1, 1.7e308, -1.7e308, 5e-324]
# Fields by what they hold, each with the extremes it is set to. Paths index a
# document of `small_scenarios`; a missing mapping on the way is created.
FIELDS = (
    [(("workloads", i, key), EXTREMES) for i, key in (
        (0, "frame_size"), (1, "cmd_size"), (2, "payload"), (3, "payload"), (4, "payload"))]
    + [(("stack", "alp"), EXTREMES)]
    # rates; 10**9 a second is a 1 ns period
    + [(path, EXTREMES + [10**9, "1bps", f"{BIG}bps"]) for path in (
        ("workloads", 0, "bitrate"), ("workloads", 1, "cmd_rate"), ("workloads", 2, "telemetry_rate"),
        ("links", 0, "rate"), ("links", 7, "rate"), ("workloads", 3, "link", "rate"),
        ("contracts", "FeMBB", "min_rate"))]
    + [(path, EXTREMES + [f"{BIG}nj"]) for path in (
        ("workloads", 4, "energy_per_tx"), ("workloads", 4, "battery"),
        ("contracts", "ELPC", "max_energy_per_msg"))]
    + [(("workloads", 2, "cell_span"), EXTREMES + [f"{BIG}m"])]
    + [(("workloads", 2, "speed_kmh"), EXTREMES + [1e-300])]
    + [(path, EXTREMES + [1e300, -1e300]) for path in (
        ("twins", 0, "metrics", 0, "mean"), ("twins", 1, "metrics", 0, "sd"),
        ("workloads", 3, "metrics", 0, "mean"), ("workloads", 3, "metrics", 0, "sd"))]
    + [(path, EXTREMES + [f"{BIG}ns"]) for path in (
        ("workloads", 3, "period"), ("workloads", 4, "period"), ("workloads", 2, "handover_gap"),
        ("workloads", 1, "rtt_budget"), ("workloads", 0, "start"), ("workloads", 3, "duration"),
        ("links", 0, "prop_delay"), ("faults", 0, "t_fail"), ("faults", 0, "t_recover"),
        ("twins", 2, "aggregation_period"), ("twins", 2, "sync_period"),
        ("stack", "setup_latency"))]
)


@st.composite
def extreme_edits(draw):
    """One field of a drawn scenario and the extreme value it is set to."""
    path, values = draw(st.sampled_from(FIELDS))
    return {path: draw(st.sampled_from(values))}


def edited(doc, edits):
    doc = json.loads(json.dumps(doc))  # unshares VITALS, so an edit touches one field
    for path, value in edits.items():
        *parents, key = path
        target = doc
        for step in parents:
            target = target.setdefault(step, {}) if isinstance(target, dict) else target[step]
        target[key] = value
    return doc


def short_horizon(scn):
    """The horizon, cut to 1,000 times the shortest period that drives events,
    so that a 1 ns period costs no more events than a 1 us one."""
    periods = [wl.period_ns for wl in scn.workloads]
    periods += [wl.handover_gap_ns for wl in scn.workloads if isinstance(wl, AmbulanceRunSpec)]
    periods += [p for t in scn.twins for p in (t.sync_period, t.aggregation_period)]
    return min([scn.t_end] + [1000 * p for p in periods if p > 0])


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# Each source of the drawn shape with fixed choices, all starting at 0: the
# base of the inputs that once crashed.
REFERENCE = document(10 * MS, [
    {"kind": "telemedicine_stream", "id": "cam", "src": 5, "dst": 0, "bitrate": "10mbps",
     "frame_size": 1000},
    {"kind": "surgery_loop", "id": "op", "src": 5, "dst": 6, "cmd_rate": 1000, "cmd_size": 64},
    {"kind": "ambulance_run", "id": "amb", "device": 4, "twin": "pt", "edge_sequence": [1, 2, 3],
     "speed_kmh": 3600, "cell_span": 1, "telemetry_rate": 2000, "payload": 200},
    {"kind": "wearable_fleet", "id": "fleet", "edges": [1], "n_devices": 4, "period": "1ms",
     "payload": 40, "twin_prefix": "w", "metrics": VITALS},
    {"kind": "implant_beacon", "id": "imp", "device": 5, "twin": "bt", "period": "500us",
     "payload": 40, "energy_per_tx": "10nj", "battery": "1j"},
], faults=[])


@given(small_scenarios(), extreme_edits())
# Inputs that each once crashed the loader, the build or the run:
@example(REFERENCE, {("workloads", 2, "speed_kmh"): 1e-300})  # an infinite cell time
@example(REFERENCE, {("workloads", 2, "cell_span"): BIG})
@example(REFERENCE, {("workloads", 0, "frame_size"): BIG})
@example(REFERENCE, {("workloads", 3, "payload"): BIG})
# The battery must hold one transmission for the energy verdict to divide.
@example(REFERENCE, {("workloads", 4, "energy_per_tx"): BIG, ("workloads", 4, "battery"): BIG})
@example(REFERENCE, {("links", 0, "rate"): BIG})
@example(REFERENCE, {("workloads", 3, "metrics", 0, "mean"): 1.7e308})
@settings(max_examples=100, deadline=None)
def test_extreme_magnitudes_fail_to_load_or_run_to_a_strict_report(doc, edits):
    try:
        scn = scenario_from_dict(edited(doc, edits))
    except ScenarioError:
        return
    report = Simulation(scn, t_end=short_horizon(scn)).run().json_bytes()
    json.loads(report, parse_constant=reject_constant)
