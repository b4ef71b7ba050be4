"""Workload generator arithmetic plus end-to-end emission behavior."""

import tracemalloc
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinslice.sim
from eager_fleet import run_with_eager_fleet, same_run
from twinslice.engine import MS, Engine, fork_rng
from twinslice.scenario import ScenarioError, TwinSpec, scenario_from_dict
from twinslice.sim import RunResult, run_scenario
from twinslice.slices import AdmissionDecision
from twinslice.twins import Twin, TwinLevel
from twinslice.workloads import (
    DEFAULT_HANDOVER_GAP,
    GENERATORS,
    AmbulanceRunSpec,
    ImplantBeaconSpec,
    StreamGen,
    SurgeryGen,
    SurgeryLoopSpec,
    TelemedicineStreamSpec,
    WearableFleetGen,
    WearableFleetSpec,
    WorkloadSpec,
)


def small_doc(workloads, *, t_end="2s", seed=1, nodes=(), links=(), twins=(), faults=()):
    """Core + one edge by default; extra elements appended by the caller."""
    return {
        "name": "wl",
        "run": {"t_end": t_end, "master_seed": seed, "formats": ["json"]},
        "nodes": [{"id": 0, "kind": "core"}, {"id": 1, "kind": "edge"}, *nodes],
        "links": [{"id": 0, "ends": [1, 0], "rate": "1gbps", "prop_delay": "10us"}, *links],
        "twins": list(twins),
        "workloads": list(workloads),
        "faults": list(faults),
    }


def small_run(workloads, **fabric):
    return run_scenario(scenario_from_dict(small_doc(workloads, **fabric)))


def on_edge_1(*twin_ids):
    """A stand-in simulation holding individual twins hosted on edge 1."""
    return SimpleNamespace(twins={t: Twin(TwinSpec(t, TwinLevel.INDIVIDUAL, host=1, children=[]))
                                  for t in twin_ids})


TWO_DEVICES = dict(
    nodes=[{"id": 2, "kind": "device"}, {"id": 3, "kind": "device"}],
    links=[{"id": 1, "ends": [2, 1], "rate": "100mbps", "prop_delay": "10us"},
           {"id": 2, "ends": [3, 1], "rate": "100mbps", "prop_delay": "10us"}],
)


class TestSpecArithmetic:
    def test_stream_period_from_bitrate(self):
        # 10 kB frames at 8 Mb/s: one frame every 10 ms, 100 per second.
        spec = TelemedicineStreamSpec("s", 0, 1, 8_000_000, 10_000)
        assert StreamGen(None, spec).period == 10_000_000

    def test_surgery_flows(self):
        spec = SurgeryLoopSpec("op", 2, 3, cmd_rate=100, cmd_bytes=64, rtt_budget_ns=2_000_000)
        gen = SurgeryGen(None, spec)
        assert gen.period == 10_000_000
        assert gen.flow.demand_bps == 100 * 64 * 8
        assert (gen.ack_flow.src, gen.ack_flow.dst) == (3, 2)
        assert gen.ack_flow.id == "op.ack"
        assert gen.ack_flow.preadmitted  # acks ride the established session

    def test_ambulance_cell_time(self):
        spec = AmbulanceRunSpec("a", 5, "t", speed_kmh=120.0, edge_sequence=[], telemetry_rate=10,
                                payload_bytes=600, cell_span_m=1000.0)
        assert spec.cell_time_ns == 30 * 10**9
        assert spec.handover_gap_ns == DEFAULT_HANDOVER_GAP == 10_000_000

    def test_fleet_demand_rounds_with_floor_of_one(self):
        sim = on_edge_1("t0")
        spec = WearableFleetSpec("f", [1], period_ns=10**9, payload_bytes=120, stagger=True,
                                 poisson=False, members=[(9, "t0")])
        assert WearableFleetGen(sim, spec).flows[0].demand_bps == 960
        tiny = WearableFleetSpec("f", [1], period_ns=100 * 10**9, payload_bytes=1, stagger=True,
                                 poisson=False, members=[(9, "t0")])
        assert WearableFleetGen(sim, tiny).flows[0].demand_bps == 1

    def test_fleet_flow_ids_are_indexed(self):
        sim = on_edge_1("t0", "t1", "t2")
        spec = WearableFleetSpec("fleet", [1], period_ns=10**9, payload_bytes=10, stagger=True,
                                 poisson=False, members=[(7, "t0"), (8, "t1"), (9, "t2")])
        assert [f.id for f in WearableFleetGen(sim, spec).flows] == [
            "fleet.0", "fleet.1", "fleet.2"]


class TestWorkloadSpec:
    def test_every_spec_declares_the_shared_fields_once(self):
        assert all(issubclass(spec, WorkloadSpec) for spec in GENERATORS)
        spec = ImplantBeaconSpec("b", 5, "t", 10**9, 40, 100, 1000, start=7, preadmit=True)
        assert (spec.id, spec.start, spec.duration, spec.preadmit) == ("b", 7, None, True)

    def test_start_duration_and_preadmit_are_keyword_only(self):
        with pytest.raises(TypeError):
            TelemedicineStreamSpec("s", 0, 1, 8_000_000, 10_000, 5)


class TestStreamEmission:
    def test_emission_count_over_duration(self):
        # 1 ms period, 100 ms duration: emissions at k*1ms for k in 0..99.
        res = small_run([{
            "kind": "telemedicine_stream", "id": "vid", "src": 2, "dst": 3,
            "bitrate": "8mbps", "frame_size": 1000, "duration": "100ms",
        }], **TWO_DEVICES)
        assert res.report["workloads"]["vid"]["frames_emitted"] == 100
        assert res.report["slices"]["FeMBB"]["sent"] == 100
        assert res.report["slices"]["FeMBB"]["delivered"] == 100

    def test_duration_boundary_is_exclusive(self):
        res = small_run([{
            "kind": "telemedicine_stream", "id": "vid", "src": 2, "dst": 3,
            "bitrate": "8mbps", "frame_size": 1000, "duration": 100_000_001,
        }], **TWO_DEVICES)
        assert res.report["workloads"]["vid"]["frames_emitted"] == 101


class TestSurgeryLoop:
    def test_every_command_acked(self):
        res = small_run([{
            "kind": "surgery_loop", "id": "op", "src": 2, "dst": 3,
            "cmd_rate": 1000, "cmd_size": 64, "rtt_budget": "5ms", "duration": "50ms",
        }], **TWO_DEVICES)
        wl = res.report["workloads"]["op"]
        assert wl["commands_emitted"] == 50
        assert wl["round_trips"] == 50
        assert wl["rtt_budget_violations"] == 0
        # command and ack frames share the low-latency class
        assert res.report["slices"]["ERLLC"]["sent"] == 100


CORRIDOR = dict(
    nodes=[{"id": 2, "kind": "edge"}, {"id": 3, "kind": "edge"},
           {"id": 4, "kind": "device", "mobile": True}],
    links=[{"id": 1, "ends": [2, 0], "rate": "1gbps", "prop_delay": "10us"},
           {"id": 2, "ends": [3, 0], "rate": "1gbps", "prop_delay": "10us"},
           {"id": 3, "ends": [4, 1], "rate": "100mbps", "prop_delay": "10us"},
           {"id": 4, "ends": [4, 2], "rate": "100mbps", "prop_delay": "10us"},
           {"id": 5, "ends": [4, 3], "rate": "100mbps", "prop_delay": "10us"}],
    twins=[{"id": "amb", "level": "individual", "host": 1, "entity": 4,
            "metrics": [{"name": "heart_rate", "mean": 80, "sd": 5}]}],
)

AMB_BASE = {
    "kind": "ambulance_run", "id": "amb_run", "device": 4, "twin": "amb",
    "edge_sequence": [1, 2, 3], "speed_kmh": 3.6, "cell_span": "1m",
    "telemetry_rate": 10, "payload": 100,
}


class TestAmbulance:
    def test_handover_buffers_and_releases(self):
        # Cell time 1 s: detach at 1 s and 2 s, each gap holds one emission.
        res = small_run([AMB_BASE], t_end="3500ms", **CORRIDOR)
        wl = res.report["workloads"]["amb_run"]
        assert wl["frames_emitted"] == 30
        assert wl["handovers"] == 2
        assert wl["handovers_deferred"] == 0
        assert wl["frames_buffered"] == 2
        sl = res.report["slices"]["LDHMC"]
        assert sl["sent"] == 30 and sl["delivered"] == 30

    def test_dark_target_defers_to_next_edge(self):
        # Edge 2 is down across the first attach window, so the device skips
        # ahead to edge 3; the later scheduled detach toward 3 is a no-op.
        res = small_run([AMB_BASE], t_end="3500ms",
                        faults=[{"target": "node:2", "t_fail": "900ms",
                                 "t_recover": "1900ms"}],
                        **CORRIDOR)
        wl = res.report["workloads"]["amb_run"]
        assert wl["handovers"] == 1
        assert wl["handovers_deferred"] == 1
        assert wl["frames_buffered"] == 1
        sl = res.report["slices"]["LDHMC"]
        assert sl["sent"] == 30 and sl["delivered"] == 30

    def test_zero_gap_into_a_dark_last_edge_retries_per_telemetry_period(self):
        # Edge 3 is dark from 0.5 s to 1.45 s. With no handover gap, the attach
        # at 1 s retries every 100 ms (1.1 ... 1.4 s also find it dark) and
        # lands at 1.5 s; a retry at the same instant would never end.
        item = dict(AMB_BASE, edge_sequence=[1, 3], handover_gap=0)
        res = small_run([item], t_end="3500ms",
                        faults=[{"target": "node:3", "t_fail": "500ms", "t_recover": "1450ms"}],
                        **CORRIDOR)
        wl = res.report["workloads"]["amb_run"]
        assert (wl["handovers"], wl["handovers_deferred"], wl["frames_buffered"]) == (1, 5, 5)
        sl = res.report["slices"]["LDHMC"]
        assert sl["sent"] == 20 and sl["delivered"] == 20


def fleet_item(stagger, n=4, period="400ms"):
    return {
        "kind": "wearable_fleet", "id": "fl", "edges": [1], "n_devices": n,
        "period": period, "payload": 100, "stagger": stagger, "duration": "1s",
        "twin_prefix": "dev", "metrics": [{"name": "heart_rate", "mean": 70, "sd": 3}],
    }


class TestWearableFleet:
    def test_stagger_spreads_start_phases(self):
        # Phases (i*P)//n = 0,100,200,300 ms; under a 1 s horizon the late
        # starters fit one fewer emission than the synchronized fleet.
        spread = small_run([fleet_item(True)], seed=3)
        sync = small_run([fleet_item(False)], seed=3)
        assert spread.report["workloads"]["fl"]["frames_emitted"] == 10
        assert sync.report["workloads"]["fl"]["frames_emitted"] == 12

    def test_devices_expand_with_own_twins(self):
        res = small_run([fleet_item(True)], seed=3)
        assert res.report["workloads"]["fl"]["devices"] == 4
        assert res.report["workloads"]["fl"]["devices_admitted"] == 4
        assert set(res.report["twins"]) == {"dev_0", "dev_1", "dev_2", "dev_3"}

    def test_poisson_arrivals_are_seed_stable(self):
        item = dict(fleet_item(True, n=2, period="100ms"), poisson=True)
        a = small_run([item], seed=11)
        b = small_run([item], seed=11)
        emitted = a.report["workloads"]["fl"]["frames_emitted"]
        assert emitted == b.report["workloads"]["fl"]["frames_emitted"]
        assert emitted > 0

    def test_report_memory_is_at_most_three_times_the_output(self):
        # Four dicts built per twin and then rendered peaked at 4.6x the
        # output on this fleet; rows written straight from the twins peak at 2.2x.
        item = dict(fleet_item(True, n=2000, period="1s"), duration="2s")
        sim = small_run([item], t_end="1100ms").sim
        assert all(twin.state and twin.staleness_max for twin in sim.twins.values())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            size = len(RunResult(sim).json_bytes())
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert size > 700_000
        assert peak <= 3 * size


def pending_after_scheduling(workloads):
    """The engine's heap size once a run has scheduled its first events; none is processed."""
    seen = []

    def note_pending(engine, t_end):
        seen.append(engine.pending())
        return 0

    with mock.patch.object(Engine, "run_until", note_pending):
        small_run(workloads)
    return seen[0]


# A second edge, and an edge twin whose aggregation and pushes interleave with the fleets.
FLEET_FABRIC = dict(
    nodes=[{"id": 2, "kind": "edge"}],
    links=[{"id": 1, "ends": [2, 0], "rate": "1gbps", "prop_delay": "10us"}],
    twins=[{"id": "ward", "level": "global_edge", "host": 1, "children": "auto",
            "policy": {"heart_rate": "mean"}},
           {"id": "hub", "level": "global_core", "host": 0, "policy": {"heart_rate": "max"}}],
)


@st.composite
def fleet_runs(draw):
    """Up to two fleets sharing edge 1, and the members of the first that admission refuses."""
    t_end = draw(st.integers(1, 12)) * MS

    def fleet(fid):
        item = {
            "kind": "wearable_fleet", "id": fid, "twin_prefix": fid,
            "edges": draw(st.sampled_from([[1], [1, 2], [2, 1]])),
            "n_devices": draw(st.integers(1, 12)), "period": draw(st.integers(300_000, 3 * MS)),
            "payload": 40, "stagger": draw(st.booleans()), "poisson": draw(st.integers(0, 5)) == 0,
            "metrics": [{"name": "heart_rate", "mean": 70, "sd": 3}],
            # 40 bytes a period needs well over 1 kb/s: a slow access link refuses every member.
            "link": {"rate": draw(st.sampled_from(["100mbps"] * 5 + ["1kbps"]))},
            "start": draw(st.integers(0, t_end)),
        }
        if draw(st.booleans()):
            item["duration"] = draw(st.integers(1, t_end))
        return item

    fleets = [fleet("fa")] + ([fleet("fb")] if draw(st.booleans()) else [])
    refused = draw(st.sets(st.integers(0, 11)).map(lambda ks: {f"fa.{k}" for k in ks}))
    doc = small_doc(fleets, t_end=t_end, seed=draw(st.integers(0, 3)), **FLEET_FABRIC)
    return doc, refused


def refusing(ids):
    """Patch admission to refuse the flows in `ids` for capacity."""
    admit = twinslice.sim.admit

    def admit_or_refuse(flow, *args):
        if flow.id in ids:
            return AdmissionDecision(flow.id, False, "capacity")
        return admit(flow, *args)

    return mock.patch.object(twinslice.sim, "admit", admit_or_refuse)


class TestPeriodicFleetFifo:
    """A periodic fleet keeps its members in a FIFO with one heap entry; it
    must give the bytes and the event count of one heap event per member."""

    @pytest.mark.parametrize("stagger", [True, False])
    def test_a_periodic_fleet_holds_one_heap_entry_whatever_its_size(self, stagger):
        big, small = ([fleet_item(stagger, n=n)] for n in (400, 4))
        assert pending_after_scheduling(big) == pending_after_scheduling(small)

    def test_a_poisson_fleet_holds_one_heap_entry_per_member(self):
        # A 1 ms mean gap puts every member's first emission inside the 1 s duration.
        poisson = [dict(fleet_item(True, n=n, period="1ms"), poisson=True) for n in (400, 4)]
        assert pending_after_scheduling(poisson[:1]) - pending_after_scheduling(poisson[1:]) == 396

    @given(fleet_runs())
    @settings(max_examples=120, deadline=None)
    def test_the_same_bytes_and_events_as_one_heap_event_per_member(self, drawn):
        doc, refused = drawn
        try:
            scn = scenario_from_dict(doc)
        except ScenarioError:
            return
        with refusing(refused):
            assert same_run(run_scenario(scn), run_with_eager_fleet(scn))


BEACON_TWIN = [{"id": "imp", "level": "individual", "host": 1, "entity": 2,
                "metrics": [{"name": "heart_rate", "mean": 60, "sd": 2}]}]
BEACON_NODE = dict(
    nodes=[{"id": 2, "kind": "device"}],
    links=[{"id": 1, "ends": [2, 1], "rate": "100mbps", "prop_delay": "10us"}],
    twins=BEACON_TWIN,
)


class TestBeacon:
    def test_halts_when_battery_cannot_cover_next_tx(self):
        res = small_run([{
            "kind": "implant_beacon", "id": "b", "device": 2, "twin": "imp",
            "period": "10ms", "payload": 50, "energy_per_tx": "100nj",
            "battery": "1000nj", "duration": "1s",
        }], **BEACON_NODE)
        wl = res.report["workloads"]["b"]
        assert wl["transmissions"] == 10  # the 11th would overdraw
        assert wl["halted"] is True
        assert wl["energy_consumed_nj"] == 1000
        sl = res.report["slices"]["ELPC"]
        assert sl["sent"] == 10 and sl["energy_nj"] == 1000

    def test_ample_battery_never_halts(self):
        res = small_run([{
            "kind": "implant_beacon", "id": "b", "device": 2, "twin": "imp",
            "period": "100ms", "payload": 50, "energy_per_tx": "100nj",
            "battery": "1mj", "duration": "1s",
        }], **BEACON_NODE)
        wl = res.report["workloads"]["b"]
        assert wl["transmissions"] == 10
        assert wl["halted"] is False

    def test_empty_battery_sends_nothing(self):
        res = small_run([{
            "kind": "implant_beacon", "id": "b", "device": 2, "twin": "imp",
            "period": "10ms", "payload": 50, "energy_per_tx": "100nj",
            "battery": "50nj", "duration": "1s",
        }], **BEACON_NODE)
        wl = res.report["workloads"]["b"]
        assert wl["transmissions"] == 0
        assert wl["halted"] is True
        assert res.report["slices"]["ELPC"]["verdict"] == "no-data"


def every_source_run(*fleets):
    """An ambulance and an implant beacon with two vitals beside `fleets`, on a clean fabric."""
    beacon = {"kind": "implant_beacon", "id": "b", "device": 5, "twin": "imp",
              "period": "100ms", "payload": 50, "energy_per_tx": "100nj",
              "battery": "1mj", "duration": "1s"}
    imp = dict(BEACON_TWIN[0], entity=5, metrics=[{"name": "heart_rate", "mean": 60, "sd": 2},
                                                  {"name": "spo2", "mean": 97, "sd": 1}])
    return small_run([AMB_BASE, beacon, *fleets], t_end="3500ms",
                     nodes=CORRIDOR["nodes"] + [{"id": 5, "kind": "device"}],
                     links=CORRIDOR["links"] + [{"id": 6, "ends": [5, 1], "rate": "100mbps",
                                                 "prop_delay": "10us"}],
                     twins=CORRIDOR["twins"] + [imp])


def test_each_twin_version_counts_its_source_emissions():
    # A twin has one source, and its n-th sample carries version n on every
    # vital, so on a clean fabric each twin ends at its source's emission count.
    res = every_source_run(fleet_item(True))
    assert all(row["delivered"] == row["sent"] for row in res.report["slices"].values())

    def versions(twin_id):
        return {sample["version"] for sample in res.report["twins"][twin_id]["state"].values()}

    workloads = res.report["workloads"]
    assert versions("amb") == {workloads["amb_run"]["frames_emitted"]} == {30}
    assert versions("imp") == {workloads["b"]["transmissions"]} == {10}
    sent = [res.sim.flows[f"fl.{i}"].stats.sent for i in range(4)]
    assert sent == [3, 3, 2, 2]
    assert [versions(f"dev_{i}") for i in range(4)] == [{n} for n in sent]


def test_each_twin_draws_its_vitals_in_emission_order():
    # Its n-th emission takes the next draws of the twin's own stream, one per
    # vital in declared order, however the stream is held between emissions.
    poisson = dict(fleet_item(True, n=3, period="200ms"), id="pf", twin_prefix="pdev",
                   poisson=True)
    with mock.patch.object(twinslice.sim.Simulation, "_deliver_sync", autospec=True,
                           side_effect=twinslice.sim.Simulation._deliver_sync) as deliver:
        res = every_source_run(fleet_item(True), poisson)
    assert all(row["delivered"] == row["sent"] for row in res.report["slices"].values())
    landed: dict[str, list] = {}
    for call in deliver.call_args_list:
        twin, deltas = call.args[1]
        landed.setdefault(twin.spec.id, []).append(deltas)
    assert set(landed) == {"amb", "imp", *(f"dev_{i}" for i in range(4)),
                           *(f"pdev_{i}" for i in range(3))}
    for twin_id, frames in landed.items():
        vitals = res.sim.twins[twin_id].spec.vitals
        rng = fork_rng(res.sim.master_seed, f"vitals:{twin_id}")
        frames.sort(key=lambda deltas: deltas[0][2])  # by version: the emission count
        assert [deltas[0][2] for deltas in frames] == list(range(1, len(frames) + 1))
        assert [[value for _name, value, _version, _at in deltas] for deltas in frames] == [
            [rng.normal(v.mean, v.sd) for v in vitals] for _ in frames], twin_id
