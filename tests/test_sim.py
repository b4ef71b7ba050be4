"""Simulation orchestration: wiring, admission outcomes, alert escalation."""

import copy
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import twinslice.network
import twinslice.sim
import twinslice.slices
import twinslice.workloads
from twinslice.engine import SEC, EventKind
from twinslice.network import NodeKind
from twinslice.scenario import ScenarioError, load_scenario, scenario_from_dict
from twinslice.sim import Simulation, run_scenario
from twinslice.slices import Flow, SliceClass
from twinslice.twins import Twin, TwinLevel


def build(doc):
    return scenario_from_dict(doc)


def hierarchy_doc(**over):
    """Beacon device feeding a three-level twin chain with alert rules."""
    doc = {
        "name": "alerts",
        "run": {"t_end": "500ms", "master_seed": 5, "formats": ["json"]},
        "nodes": [{"id": 0, "kind": "core"}, {"id": 1, "kind": "edge"},
                  {"id": 2, "kind": "device"}],
        "links": [{"id": 0, "ends": [1, 0], "rate": "1gbps", "prop_delay": "10us"},
                  {"id": 1, "ends": [2, 1], "rate": "100mbps", "prop_delay": "10us"}],
        "twins": [
            {"id": "pt", "level": "individual", "host": 1, "entity": 2,
             "sync_period": "100ms",
             "metrics": [{"name": "heart_rate", "mean": 130, "sd": 0}],
             "alerts": [{"metric": "heart_rate", "threshold": 120}]},
            {"id": "ge", "level": "global_edge", "host": 1,
             "policy": {"heart_rate": "mean"},
             "alerts": [{"metric": "heart_rate", "threshold": 120}]},
            {"id": "gc", "level": "global_core", "host": 0,
             "policy": {"heart_rate": "mean"}},
        ],
        "workloads": [{
            "kind": "implant_beacon", "id": "imp", "device": 2, "twin": "pt",
            "period": "100ms", "payload": 40, "energy_per_tx": "10nj",
            "battery": "1j", "duration": "500ms",
        }],
    }
    doc.update(over)
    return doc


@pytest.fixture(scope="module")
def result():
    return run_scenario(build(hierarchy_doc()))


class TestAlertEscalation:
    def test_individual_rule_fires_once_with_hysteresis(self, result):
        # Constant 130 crosses the 120 threshold on the first sample and then
        # stays above it, so the rule cannot re-arm.
        assert result.report["twins"]["pt"]["alerts_fired"] == 1

    def test_alert_lands_in_parent_state(self, result):
        state = result.report["twins"]["ge"]["state"]
        assert state["alert:pt:heart_rate"]["value"] == 130.0
        assert state["alert:pt:heart_rate"]["version"] == 1

    def test_parent_rule_cascades_to_core(self, result):
        assert result.report["twins"]["ge"]["alerts_fired"] == 1
        assert "alert:ge:heart_rate" in result.report["twins"]["gc"]["state"]

    def test_alerts_ride_the_low_latency_class(self, result):
        # One co-hosted hop (pt -> ge) plus one edge-to-core hop (ge -> gc).
        row = result.report["slices"]["ERLLC"]
        assert row["sent"] == 2
        assert row["delivered"] == 2
        assert row["verdict"] == "met"

    def test_alert_flows_are_pinned_open(self, result):
        flows = result.sim.flows
        assert flows["alerts.pt"].preadmitted and flows["alerts.pt"].admitted
        assert flows["alerts.pt"].setup_latency_ns == 0
        assert flows["alerts.ge"].setup_latency_ns == 0

    def test_aggregated_value_reaches_core_state(self, result):
        # Singleton mean preserves the constant sample up both levels.
        assert result.report["twins"]["gc"]["state"]["heart_rate"]["value"] == 130.0


class TestAlertPass:
    """Only a twin with rules runs the alert check, once per landed delivery or aggregation."""

    def test_a_twin_without_rules_never_checks(self):
        doc = hierarchy_doc()
        doc["nodes"].append({"id": 3, "kind": "device"})
        doc["links"].append({"id": 2, "ends": [3, 1], "rate": "100mbps", "prop_delay": "10us"})
        doc["twins"].append({"id": "quiet", "level": "individual", "host": 1, "entity": 3,
                             "metrics": [{"name": "heart_rate", "mean": 130, "sd": 0}]})
        doc["workloads"].append(dict(doc["workloads"][0], id="imp2", device=3, twin="quiet"))
        with mock.patch.object(Twin, "check_alerts", autospec=True,
                               side_effect=Twin.check_alerts) as check, \
                mock.patch.object(Twin, "aggregate", autospec=True,
                                  side_effect=Twin.aggregate) as aggregate, \
                mock.patch.object(Simulation, "_deliver_sync", autospec=True,
                                  side_effect=Simulation._deliver_sync) as deliver:
            report = run_scenario(build(doc)).report
        checked = Counter(call.args[0].id for call in check.call_args_list)
        aggregated = Counter(call.args[0].id for call in aggregate.call_args_list)
        landed = Counter(call.args[1][0].id for call in deliver.call_args_list)
        # Vitals land on pt and quiet, pt's alert on ge, and ge's on gc.
        assert landed == {"pt": 5, "quiet": 5, "ge": 1, "gc": 1}
        assert aggregated["ge"] > 0 and aggregated["gc"] > 0
        assert checked == {"pt": landed["pt"], "ge": landed["ge"] + aggregated["ge"]}
        fired = {twin_id: row["alerts_fired"] for twin_id, row in report["twins"].items()}
        assert fired == {"pt": 1, "quiet": 0, "ge": 1, "gc": 0}


class TestAdmissionOutcomes:
    def test_capacity_rejection_reported_and_silent(self):
        doc = hierarchy_doc(workloads=[{
            "kind": "telemedicine_stream", "id": "fat", "src": 2, "dst": 0,
            "bitrate": "200mbps", "frame_size": 1200,  # access link is 100 Mb/s
        }], twins=[])
        res = run_scenario(build(doc))
        assert res.report["flows"]["rejected"] == [{"flow": "fat", "reason": "capacity"}]
        assert res.report["slices"]["FeMBB"]["sent"] == 0
        assert res.report["slices"]["FeMBB"]["verdict"] == "no-data"
        assert res.report["workloads"]["fat"]["frames_emitted"] == 0

    def test_delay_rejection_from_setup_cost(self):
        # Two 300 us hops: session setup alone (2 RTTs = 2.4 ms) overruns the
        # 1 ms latency contract, so the loop is refused up front.
        doc = hierarchy_doc(
            links=[{"id": 0, "ends": [1, 0], "rate": "1gbps", "prop_delay": "300us"},
                   {"id": 1, "ends": [2, 1], "rate": "100mbps", "prop_delay": "300us"}],
            workloads=[{"kind": "surgery_loop", "id": "op", "src": 2, "dst": 0,
                        "cmd_rate": 10, "cmd_size": 64}],
            twins=[])
        res = run_scenario(build(doc))
        assert res.report["flows"]["rejected"] == [{"flow": "op", "reason": "delay"}]
        assert res.report["slices"]["ERLLC"]["sent"] == 0

    def test_detached_mobile_source_is_unreachable(self):
        doc = {
            "name": "detached",
            "run": {"t_end": "100ms", "master_seed": 1, "formats": ["json"]},
            "nodes": [{"id": 0, "kind": "core"}, {"id": 1, "kind": "edge"},
                      {"id": 2, "kind": "edge"},
                      {"id": 3, "kind": "device", "mobile": True}],
            "links": [{"id": 0, "ends": [1, 0], "rate": "1gbps", "prop_delay": "10us"},
                      {"id": 1, "ends": [2, 0], "rate": "1gbps", "prop_delay": "10us"},
                      {"id": 2, "ends": [3, 1], "rate": "100mbps", "prop_delay": "10us"},
                      {"id": 3, "ends": [3, 2], "rate": "100mbps", "prop_delay": "10us"}],
            "workloads": [{"kind": "telemedicine_stream", "id": "s", "src": 3,
                           "dst": 0, "bitrate": "1mbps", "frame_size": 500}],
        }
        res = run_scenario(build(doc))
        assert res.report["flows"]["rejected"] == [{"flow": "s", "reason": "unreachable"}]

    def test_preadmit_overrides_rejection(self):
        doc = hierarchy_doc(workloads=[{
            "kind": "telemedicine_stream", "id": "fat", "src": 2, "dst": 0,
            "bitrate": "200mbps", "frame_size": 1200, "preadmit": True,
            "duration": "1ms",
        }], twins=[])
        res = run_scenario(build(doc))
        assert res.report["flows"]["rejected"] == []
        assert res.report["workloads"]["fat"]["frames_emitted"] > 0


class TestRunDiscipline:
    def test_a_simulation_runs_once(self):
        sim = Simulation(build(hierarchy_doc()))
        sim.run()
        with pytest.raises(RuntimeError, match="runs once"):
            sim.run()

    @pytest.mark.parametrize("name", ["ambulance.scn", "ambulance_single.scn"])
    def test_a_run_never_writes_to_its_scenario(self, name, scenario_dir):
        # The run reads the loaded records and keeps its state in its Topology:
        # ambulance.scn hands over twice and fails a node, ambulance_single.scn
        # fails a link.
        scn = load_scenario(scenario_dir / name)
        before = copy.deepcopy((scn.nodes, scn.links, scn.twins))
        topology = run_scenario(scn).sim.topology
        assert topology.nodes is scn.nodes and topology.links is scn.links
        assert (scn.nodes, scn.links, scn.twins) == before
        if name == "ambulance_single.scn":
            assert topology.failures[1] == 1  # the run's state moved, not the records
        with pytest.raises(AttributeError):
            scn.nodes[0].up = False  # a record has no slot for run state

    def test_horizon_override_must_be_positive(self):
        with pytest.raises(ScenarioError):
            Simulation(build(hierarchy_doc()), t_end=0)

    def test_horizon_override_must_be_below_2_pow_63(self):
        # Past 2**63 ns a delay could overrun the histogram's last edge.
        with pytest.raises(ScenarioError) as info:
            Simulation(build(hierarchy_doc()), t_end=2**63)
        assert info.value.errors == ["run.t_end: must be below 2**63 ns"]
        assert Simulation(build(hierarchy_doc()), t_end=2**63 - 1).t_end == 2**63 - 1

    @pytest.mark.parametrize("seed", [1.5, True, -1, 2**64])
    def test_seed_override_follows_the_file_rule(self, seed):
        # A float or boolean seed once ran: only the range was checked.
        with pytest.raises(ScenarioError) as info:
            Simulation(build(hierarchy_doc()), seed=seed)
        assert info.value.errors == ["run.master_seed: must be an integer in [0, 2**64)"]

    @pytest.mark.parametrize("t_end", [1.5, True])
    def test_horizon_override_must_be_an_integer(self, t_end):
        # Each once ran, and the report carried the horizon as given.
        with pytest.raises(ScenarioError) as info:
            Simulation(build(hierarchy_doc()), t_end=t_end)
        assert info.value.errors == ["run.t_end: must be an integer number of ns"]

    def test_frames_in_flight_at_the_horizon_are_not_lost(self, scenario_dir):
        # Cut at 5 s, one command of 1,001 is still on the wire; under the
        # default ERLLC loss bound (1e-5) it must not read as a loss.
        doc = yaml.safe_load((scenario_dir / "surgery.scn").read_text())
        del doc["contracts"]
        row = run_scenario(build(doc), t_end=5 * SEC).report["slices"]["ERLLC"]
        assert (row["sent"], row["delivered"], row["in_flight"]) == (1001, 1000, 1)
        assert row["verdict"] == "met"

    @pytest.mark.parametrize("cut", ["link:1", "node:2"])
    @pytest.mark.parametrize("t_end", [90_880, 500_000])
    def test_a_frame_cut_before_the_horizon_is_dropped_not_in_flight(self, cut, t_end):
        # One 1,136 B frame leaves device 2 at 0 and serializes until 90.88 us
        # on the 100 Mb/s link 1; it would arrive 1 ms later, past the horizon.
        # A fault cuts it mid-service, so it drops at its departure instant,
        # the horizon included, though no frame ever queued on that channel.
        doc = hierarchy_doc(
            twins=[], stack={"setup_latency": 0},
            faults=[{"target": cut, "t_fail": "10us", "t_recover": "20us"}],
            workloads=[{"kind": "telemedicine_stream", "id": "cam", "src": 2, "dst": 1,
                        "bitrate": "1mbps", "frame_size": 1000}])
        doc["links"][1]["prop_delay"] = "1ms"
        row = run_scenario(build(doc), t_end=t_end).report["slices"]["FeMBB"]
        assert (row["sent"], row["dropped_fault"], row["in_flight"]) == (1, 1, 0)

    def test_duplicate_flow_id_rejected(self):
        # Loading rejects every flow-id clash, so a duplicate here is a bug.
        sim = Simulation(build(hierarchy_doc()))
        flow = Flow(id="dup", slice_cls=SliceClass.UMMTC, src=2, dst=1, demand_bps=1)
        sim.admit_flow(flow)
        with pytest.raises(AssertionError, match="duplicate flow id 'dup'"):
            sim.admit_flow(Flow(id="dup", slice_cls=SliceClass.UMMTC, src=2, dst=1, demand_bps=1))

    def test_seed_override_changes_report_not_structure(self):
        scn = build(hierarchy_doc())
        a = run_scenario(scn, seed=1)
        b = run_scenario(scn, seed=2)
        assert a.report["run"]["master_seed"] == 1
        assert b.report["run"]["master_seed"] == 2
        assert a.report["slices"].keys() == b.report["slices"].keys()

    def test_self_addressed_flow_delivers_in_place(self):
        doc = hierarchy_doc(workloads=[{
            "kind": "telemedicine_stream", "id": "loop", "src": 2, "dst": 2,
            "bitrate": "1mbps", "frame_size": 500, "duration": "10ms",
        }], twins=[])
        res = run_scenario(build(doc))
        row = res.report["slices"]["FeMBB"]
        assert row["sent"] == row["delivered"] > 0
        assert row["max_ns"] == 0  # zero hops, zero setup


class CountingEnum:
    """Stands in for an enum class in a module's namespace and counts its member reads."""

    def __init__(self, enum, counts):
        self._enum = enum
        self._counts = counts

    def __getattr__(self, name):
        self._counts[f"{self._enum.__name__}.{name}"] += 1
        return getattr(self._enum, name)


class TestEventPathReadsNoMembers:
    """On CPython 3.11 a member read through its enum class costs about 112 ns,
    where a dict hit costs about 20: the run reads the members its event
    paths use once, at import."""

    def member_reads(self, scn, t_end, monkeypatch):
        sim = Simulation(scn, t_end=t_end)
        counts = Counter()
        with monkeypatch.context() as patch:
            for module in (twinslice.network, twinslice.sim, twinslice.slices, twinslice.workloads):
                for enum in (EventKind, NodeKind, SliceClass, TwinLevel):
                    if vars(module).get(enum.__name__) is enum:
                        patch.setattr(module, enum.__name__, CountingEnum(enum, counts))
            sim.run()
        return counts

    def test_a_runs_member_reads_do_not_grow_with_its_horizon(self, scenario_dir, monkeypatch):
        # One read per hop and per emission gave 2,878 reads at 1 s and 11,218 at 4 s.
        scn = load_scenario(scenario_dir / "ward.scn")
        short = self.member_reads(scn, 1 * SEC, monkeypatch)
        long = self.member_reads(scn, 4 * SEC, monkeypatch)
        assert sum(short.values()) > 0  # the proxies are in place: the report reads a few
        assert long == short


def lossy_streams_doc(*names):
    """One 8 Mb/s stream per name, each from its own device over a 1 % lossy access link."""
    nodes = [{"id": 0, "kind": "core"}, {"id": 1, "kind": "edge"}]
    links = [{"id": 0, "ends": [1, 0], "rate": "1gbps", "prop_delay": "10us"}]
    workloads = []
    for i, name in enumerate(names, start=2):
        nodes.append({"id": i, "kind": "device"})
        links.append({"id": i - 1, "ends": [i, 1], "rate": "100mbps", "prop_delay": "10us",
                      "loss": 0.01})
        workloads.append({"kind": "telemedicine_stream", "id": name, "src": i, "dst": 0,
                          "bitrate": "8mbps", "frame_size": 1000, "duration": "1s"})
    return {"name": "lossy", "run": {"t_end": "1100ms", "master_seed": 3, "formats": ["json"]},
            "nodes": nodes, "links": links, "workloads": workloads}


class TestLossStreams:
    def test_a_workload_on_disjoint_lossy_links_leaves_other_losses_alone(self):
        # Metamorphic: each flow draws its loss from its own stream, so adding
        # a stream on another device's lossy link cannot move a's drops.
        alone = run_scenario(build(lossy_streams_doc("a"))).sim.flows["a"].stats
        both = run_scenario(build(lossy_streams_doc("a", "b"))).sim.flows
        assert alone.sent == both["a"].stats.sent == 1000
        assert alone.dropped_loss > 0
        assert both["a"].stats.dropped_loss == alone.dropped_loss
        assert both["b"].stats.dropped_loss > 0


class TestReportShape:
    def test_run_section(self, result):
        run = result.report["run"]
        assert run["t_end_ns"] == 500_000_000
        assert run["master_seed"] == 5
        assert run["events_processed"] > 0

    def test_all_five_slices_always_reported(self, result):
        assert list(result.report["slices"]) == ["FeMBB", "ERLLC", "LDHMC", "umMTC", "ELPC"]

    def test_exit_code_tracks_verdicts(self, result):
        assert result.violated is False
        assert result.exit_code == 0

    def test_json_bytes_stable_within_run(self, result):
        assert result.json_bytes() == result.json_bytes()
        assert result.json_bytes().endswith(b"\n")

    def test_csv_covers_active_slices_only(self, result):
        body = result.csv_bytes().decode()
        lines = body.strip().split("\n")
        # header + ERLLC (alerts) + umMTC (twin pushes) + ELPC (beacon)
        assert len(lines) == 4
        assert lines[0].startswith("slice,")


BUNDLED = sorted(p.name for p in (Path(__file__).resolve().parent.parent / "scenarios").glob("*.scn"))


@pytest.mark.parametrize("name", BUNDLED)
def test_no_metric_sample_sits_in_two_slots(scenario_dir, name):
    # A twin updates its samples in place, which is sound only while no two
    # slots, a twin's state and its parent's copy of it, hold the same sample.
    sim = run_scenario(load_scenario(scenario_dir / name), t_end=3 * SEC).sim
    samples = [sample for twin in sim.twins.values()
               for slots in (twin.state, twin.pushed) for sample in slots.values()]
    assert len({id(sample) for sample in samples}) == len(samples)


class CountingTwins(dict):
    """A twin table that counts its lookups, inside and outside `Engine.run_until`."""

    def __init__(self, twins):
        super().__init__(twins)
        self.phase = "outside"
        self.lookups = Counter()

    def __getitem__(self, key):
        self.lookups[self.phase] += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.lookups[self.phase] += 1
        return super().get(key, default)


def test_no_event_looks_a_twin_up(scenario_dir):
    # Each aggregation once looked its children up by id: 100 lookups in the
    # first second of ward.scn, 80 by edge twins and 20 by the core.
    sim = Simulation(load_scenario(scenario_dir / "ward.scn"), t_end=1 * SEC)
    sim.twins = twins = CountingTwins(sim.twins)
    run_until = sim.engine.run_until

    def counted(t_end):
        twins.phase = "inside"
        try:
            return run_until(t_end)
        finally:
            twins.phase = "outside"

    sim.engine.run_until = counted
    sim.run()
    assert twins.lookups["outside"] > 0  # the table is in place: scheduling reads it
    assert twins.lookups["inside"] == 0


@pytest.mark.parametrize("name", BUNDLED)
def test_the_twin_tree_is_linked_as_loaded(scenario_dir, name):
    scn = load_scenario(scenario_dir / name)
    twins = Simulation(scn).twins
    for spec in scn.twins:
        twin = twins[spec.id]
        assert [child.id for child in twin.children] == spec.children
        assert all(twins[child_id] is child and child.parent is twin
                   for child_id, child in zip(spec.children, twin.children))


TIMING = ("sync_period", "sync_phase", "aggregation_period", "aggregation_phase")
# Repeats bias the draws toward valid placements so that many examples load.
LEVELS = ("individual", "individual", "global_edge", "global_edge", "global_core")
HOSTS = {"individual": (1, 2, 2, 0), "global_edge": (1, 1, 2, 0), "global_core": (0, 1)}


@st.composite
def twin_sections(draw):
    """Up to three generated twins beside a fed individual and a core twin.

    The fixed pair keeps a useful share of examples valid; the generated
    twins vary level, host, children, and periods and phases that are
    missing, zero or negative.
    """
    ids = [f"t{i}" for i in range(draw(st.integers(0, 3)))]
    twins = [{"id": "pt", "level": "individual", "host": 1, "entity": 3, "sync_period": "1ms",
              "metrics": [{"name": "hr", "mean": 70, "sd": 1}]},
             {"id": "hub", "level": "global_core", "host": 0, "aggregation_period": "2ms",
              "policy": {"hr": "mean"}}]
    for tid in ids:
        level = draw(st.sampled_from(LEVELS))
        twin = {"id": tid, "level": level, "host": draw(st.sampled_from(HOSTS[level]))}
        if level == "individual":
            twin["entity"] = draw(st.sampled_from([3, 4]))
        else:
            twin["policy"] = {"hr": "mean"}
        children = draw(st.sampled_from(["missing", "missing", "auto", "list"]))
        if children == "list":
            twin["children"] = draw(st.lists(st.sampled_from(["pt", "ghost"] + ids),
                                             max_size=3, unique=True))
        elif children == "auto":
            twin["children"] = "auto"
        twin.update(draw(st.dictionaries(st.sampled_from(TIMING),
                                         st.sampled_from([0, -1, "1ms", "1ms", "3ms"]), max_size=2)))
        twins.append(twin)
    return twins


class TestValidatedOnce:
    @given(twin_sections())
    @settings(max_examples=80, deadline=None)
    def test_a_loaded_scenario_always_runs(self, twins):
        doc = {
            "run": {"t_end": "6ms", "master_seed": 1},
            "nodes": [{"id": 0, "kind": "core"}, {"id": 1, "kind": "edge"},
                      {"id": 2, "kind": "edge"}, {"id": 3, "kind": "device"},
                      {"id": 4, "kind": "device"}],
            "links": [{"id": i, "ends": e, "rate": "1gbps", "prop_delay": "10us"}
                      for i, e in enumerate(([1, 0], [2, 0], [3, 1], [4, 2]))],
            "twins": twins,
            "workloads": [{"kind": "implant_beacon", "id": "b", "device": 3, "twin": "pt",
                           "period": "1ms", "payload": 40, "energy_per_tx": "10nj",
                           "battery": "1j"}],
        }
        try:
            scn = scenario_from_dict(doc)
        except ScenarioError:
            return
        Simulation(scn).run()
