"""Generated small scenarios that drive all five traffic generators at their edges.

Each example places a stream, a surgery loop, an ambulance run, a wearable
fleet and an implant beacon on one small fabric, with start times up to
1.5x the horizon (so some sources never fire), optional durations,
staggered or Poisson fleets, and one link or node fault.
"""

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from twinslice.engine import MS
from twinslice.metrics import to_json_bytes
from twinslice.scenario import ScenarioError, scenario_from_dict
from twinslice.sim import Simulation

NODES = [{"id": 0, "kind": "core"}, {"id": 1, "kind": "edge"}, {"id": 2, "kind": "edge"},
         {"id": 3, "kind": "edge"}, {"id": 4, "kind": "device", "mobile": True},
         {"id": 5, "kind": "device"}, {"id": 6, "kind": "device"}]
# Edge 1 and 2 also meet directly, so a failed uplink leaves a detour.
ENDS = ([1, 0], [2, 0], [3, 0], [1, 2], [4, 1], [4, 2], [4, 3], [5, 1], [6, 2])
VITALS = [{"name": "hr", "mean": 80, "sd": 5}]
GRID = 100_000  # 100 us


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
    return {
        "name": "fuzz",
        "run": {"t_end": t_end, "master_seed": draw(st.integers(0, 3))},
        "nodes": NODES,
        "links": [{"id": i, "ends": e, "rate": "100mbps", "prop_delay": "10us",
                   "queue_cap": draw(st.sampled_from([4, 64]))} for i, e in enumerate(ENDS)],
        "twins": [
            {"id": "pt", "level": "individual", "host": 3, "entity": 4, "metrics": VITALS},
            {"id": "bt", "level": "individual", "host": 1, "entity": 5, "metrics": VITALS},
            {"id": "ward", "level": "global_edge", "host": 1, "children": "auto",
             "policy": {"hr": "mean"}},
            {"id": "hub", "level": "global_core", "host": 0, "policy": {"hr": "max"}},
        ],
        "workloads": workloads,
        "faults": [fault],
    }


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
        assert report == (json.dumps(result.report, indent=2) + "\n").encode()
        # in_flight is what is left of sent once settled frames are taken
        # out, so a frame delivered or dropped twice makes it negative.
        for name, row in result.report["slices"].items():
            settled = row["delivered"] + row["dropped_loss"] + row["dropped_queue"] + row["dropped_fault"]
            assert row["sent"] == settled + row["in_flight"], name
            assert row["in_flight"] >= 0, name
        flows = result.sim.flows.values()
        per_flow = {flow.id: flow.stats for flow in flows}
        # Each slice's ledger is the sum of the ledgers of its flows.
        for cls, stats in result.sim.slice_stats.items():
            own = [flow.stats for flow in flows if flow.slice_cls is cls]
            for name in ("sent", "delivered", "dropped_loss", "dropped_queue", "dropped_fault",
                         "payload_bits", "energy_nj"):
                assert getattr(stats, name) == sum(getattr(s, name) for s in own), (cls, name)
            assert stats.hist.count == sum(s.hist.count for s in own), cls
            assert stats.hist.total == sum(s.hist.total for s in own), cls
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
