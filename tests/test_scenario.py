"""Scenario parsing: exact units, collected errors, expansion, overrides."""

import hashlib
import math

import pytest
import yaml

from twinslice.engine import MS
from twinslice.network import NodeKind
from twinslice.scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    parse_duration,
    parse_energy,
    parse_rate,
    scenario_from_dict,
)
from twinslice.slices import SliceClass
from twinslice.twins import TwinLevel
from twinslice.workloads import WearableFleetSpec


def base_doc(**over):
    doc = {
        "name": "tiny",
        "run": {"t_end": "1s", "master_seed": 1},
        "nodes": [{"id": 0, "kind": "core"}, {"id": 1, "kind": "edge"},
                  {"id": 2, "kind": "device"}],
        "links": [{"id": 0, "ends": [1, 0], "rate": "1gbps", "prop_delay": "10us"},
                  {"id": 1, "ends": [2, 1], "rate": "100mbps", "prop_delay": "10us"}],
        "workloads": [],
    }
    doc.update(over)
    return doc


def errors_of(doc):
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    return info.value.errors


class TestUnits:
    def test_durations_parse_exactly(self):
        assert parse_duration("1.5ms") == 1_500_000
        assert parse_duration("2.5s") == 2_500_000_000
        assert parse_duration("10us") == 10_000
        assert parse_duration("7ns") == 7

    def test_bare_integers_mean_base_units(self):
        assert parse_duration(42) == 42
        assert parse_rate(1000) == 1000
        assert parse_energy(5) == 5

    def test_rates_and_energy(self):
        assert parse_rate("2.5gbps") == 2_500_000_000
        assert parse_rate("10kbps") == 10_000
        assert parse_energy("1mj") == 1_000_000
        assert parse_energy("3uj") == 3_000

    def test_units_are_case_insensitive(self):
        assert parse_duration("10MS") == 10_000_000
        assert parse_rate("1Gbps") == 10**9

    @staticmethod
    def reject(fn, value, needle):
        with pytest.raises(ScenarioError) as info:
            fn(value)
        assert any(needle in e for e in info.value.errors)

    def test_bare_floats_rejected(self):
        self.reject(parse_duration, 1.5, "ambiguous")

    def test_inexact_fractions_rejected(self):
        self.reject(parse_duration, "0.5ns", "integer number of base units")
        self.reject(parse_rate, "0.0000001mbps", "integer number of base units")
        # Past 28 significant digits the product was rounded, and this read as 1 Gb/s.
        self.reject(parse_rate, "1.0000000000000000000000000001gbps", "integer number of base units")

    def test_long_durations_parse_exactly(self):
        assert parse_duration("1234567890123456789012345678901ns") == 1234567890123456789012345678901

    def test_unknown_unit_rejected(self):
        self.reject(parse_duration, "5fortnights", "unknown duration unit")

    def test_garbage_rejected(self):
        self.reject(parse_duration, "fast", "cannot parse")
        self.reject(parse_duration, True, "boolean")


class TestErrorCollection:
    def test_every_problem_reported_with_a_path(self):
        doc = base_doc(
            run={"master_seed": -3},  # missing t_end, bad seed
            faults=[{"target": "link:99", "t_fail": "1s", "t_recover": "2s"},
                    {"target": "node:1", "t_fail": "2s", "t_recover": "1s"}],
        )
        errs = errors_of(doc)
        joined = "\n".join(errs)
        assert "run.t_end" in joined
        assert "run.master_seed" in joined
        assert "faults[0].target: unknown link 99" in joined
        assert "fault window inverted" in joined
        assert len(errs) >= 4  # collected, not first-failure

    def test_unknown_workload_kind(self):
        errs = errors_of(base_doc(workloads=[{"kind": "espresso"}]))
        assert any("workloads[0].kind" in e for e in errs)

    def test_duplicate_workload_id(self):
        wl = {"kind": "telemedicine_stream", "id": "x", "src": 2, "dst": 2,
              "bitrate": "1mbps", "frame_size": 100}
        errs = errors_of(base_doc(workloads=[wl, dict(wl)]))
        assert any("duplicate workload id" in e for e in errs)

    def test_static_device_with_two_access_links_needs_mobile(self):
        doc = base_doc()
        doc["nodes"].append({"id": 3, "kind": "edge"})
        doc["links"].append({"id": 2, "ends": [3, 0], "rate": "1gbps", "prop_delay": "10us"})
        doc["links"].append({"id": 3, "ends": [2, 3], "rate": "100mbps", "prop_delay": "10us"})
        errs = errors_of(doc)
        assert any("mark it mobile" in e for e in errs)

    def test_disconnected_topology(self):
        doc = base_doc()
        doc["nodes"].append({"id": 3, "kind": "edge"})
        errs = errors_of(doc)
        assert any("disconnected" in e for e in errs)

    def test_run_section_must_be_a_mapping(self):
        errs = errors_of(base_doc(run=[]))
        assert any("run: section is required" in e for e in errs)


class TestRunSection:
    def test_defaults(self):
        scn = scenario_from_dict(base_doc())
        assert scn.t_end == 10**9
        assert scn.master_seed == 1
        assert scn.formats == ["json", "csv"]
        assert scn.out is None
        assert scn.utilization_cap == 0.9

    def test_formats_both_keyword(self):
        doc = base_doc(run={"t_end": "1s", "formats": "both"})
        assert scenario_from_dict(doc).formats == ["json", "csv"]

    def test_bad_formats(self):
        errs = errors_of(base_doc(run={"t_end": "1s", "formats": ["xml"]}))
        assert any("run.formats" in e for e in errs)

    def test_out_directory(self):
        doc = base_doc(run={"t_end": "1s", "out": "results/run1"})
        assert scenario_from_dict(doc).out == "results/run1"
        errs = errors_of(base_doc(run={"t_end": "1s", "out": ""}))
        assert any("run.out" in e for e in errs)

    def test_master_seed_is_one_64_bit_word(self):
        # fork_rng once masked the seed, so 2**64 drew the streams of seed 0.
        top = 2**64 - 1
        assert scenario_from_dict(base_doc(run={"t_end": "1s", "master_seed": top})).master_seed == top
        for seed in (2**64, -1, 1.5, True):
            errs = errors_of(base_doc(run={"t_end": "1s", "master_seed": seed}))
            assert errs == ["run.master_seed: must be an integer in [0, 2**64)"], seed

    def test_utilization_cap_override_and_bounds(self):
        doc = base_doc(admission={"utilization_cap": 0.5})
        assert scenario_from_dict(doc).utilization_cap == 0.5
        errs = errors_of(base_doc(admission={"utilization_cap": 1.5}))
        assert any("utilization_cap" in e for e in errs)


class TestStackSection:
    def test_udp_transport_shrinks_header(self):
        scn = scenario_from_dict(base_doc(stack={"transport": "udp"}))
        assert scn.stack.transport_bytes == 8
        assert scn.stack.overhead == 117

    def test_fixed_setup_latency(self):
        scn = scenario_from_dict(base_doc(stack={"setup_latency": "1ms"}))
        assert scn.stack.setup_latency_ns == 1 * MS

    def test_auto_setup_latency_is_derived_per_flow(self):
        assert scenario_from_dict(base_doc()).stack.setup_latency_ns is None

    def test_layer_byte_overrides(self):
        scn = scenario_from_dict(base_doc(stack={"security": 0, "phy": 14}))
        assert scn.stack.overhead == 8 + 4 + 0 + 27 + 40 + 14


class TestContracts:
    def test_defaults_survive_partial_override(self):
        doc = base_doc(contracts={"ERLLC": {"max_loss": 0.001}})
        scn = scenario_from_dict(doc)
        erllc = scn.contracts[SliceClass.ERLLC]
        assert erllc.max_loss == 0.001
        assert erllc.max_e2e_delay_ns == 1 * MS  # untouched default

    def test_null_clears_a_dimension(self):
        doc = base_doc(contracts={"FeMBB": {"max_e2e_delay": None}})
        assert scenario_from_dict(doc).contracts[SliceClass.FEMBB].max_e2e_delay_ns is None

    def test_a_zero_delay_bound_is_one_error_at_its_path(self, scenario_dir):
        # A 0 ns bound once loaded and refused every flow of its slice as
        # `delay`, so the slice read no-data and the run exited 0.
        doc = yaml.safe_load((scenario_dir / "surgery.scn").read_text())
        doc["contracts"]["ERLLC"]["max_e2e_delay"] = 0
        assert errors_of(doc) == ["contracts.ERLLC.max_e2e_delay: must be positive"]

    @pytest.mark.parametrize("key, value, judged", [
        ("min_rate", "1mbps", SliceClass.FEMBB), ("max_energy_per_msg", "100nj", SliceClass.ELPC)])
    def test_a_bound_no_verdict_of_the_slice_reads_is_one_error(self, key, value, judged):
        # `check_sla` judges this bound for one slice only (every_quantity_doc
        # sets it there); on any other slice it once loaded and never counted.
        for cls in SliceClass:
            if cls is not judged:
                assert errors_of(base_doc(contracts={cls.value: {key: value}})) == [
                    f"contracts.{cls.value}.{key}: only the {judged.value} verdict reads this bound"]

    def test_unknown_slice_and_field(self):
        errs = errors_of(base_doc(contracts={"XRLLC": {}, "ERLLC": {"max_jitter": 1}}))
        joined = "\n".join(errs)
        assert "contracts.XRLLC" in joined
        assert "contracts.ERLLC.max_jitter: unknown contract field" in joined

    def test_loss_must_be_probability(self):
        errs = errors_of(base_doc(contracts={"ERLLC": {"max_loss": 2}}))
        assert any("probability" in e for e in errs)

    def test_mobility_is_not_a_contract_field(self):
        # It was stored and never checked, so a scenario setting it now says so.
        assert errors_of(base_doc(contracts={"LDHMC": {"mobility_kmh": 1000}})) == [
            "contracts.LDHMC.mobility_kmh: unknown contract field"]


# Each field that names one of a fixed set of names: how to set it, and the
# error a value outside the set gives. Node kinds, twin levels and slices are
# the runtime's enums, whose member order these messages show.
NAME_FIELDS = {
    "node kind": (lambda doc, v: doc["nodes"][1].update(kind=v),
                  "nodes[1].kind: must be one of ('core', 'edge', 'device')"),
    "twin level": (lambda doc, v: doc.update(twins=[{"id": "w", "level": v, "host": 1,
                                                     "policy": {"hr": "mean"}}]),
                   "twins[0].level: must be one of ('individual', 'global_edge', 'global_core')"),
    "workload kind": (lambda doc, v: doc.update(workloads=[{"kind": v}]),
                      "workloads[0].kind: must be one of ('telemedicine_stream', 'surgery_loop', "
                      "'ambulance_run', 'wearable_fleet', 'implant_beacon')"),
    "transport": (lambda doc, v: doc.update(stack={"transport": v}),
                  "stack.transport: must be one of ['quic', 'udp']"),
}
SLICE_ERROR = "unknown slice (expected one of ['ELPC', 'ERLLC', 'FeMBB', 'LDHMC', 'umMTC'])"


class TestNameFields:
    @pytest.mark.parametrize("value", ["cloud", ["edge"], {"edge": 1}, True, None],
                             ids=["name", "list", "mapping", "boolean", "null"])
    @pytest.mark.parametrize("field", sorted(NAME_FIELDS))
    def test_a_value_outside_the_names_lists_them(self, field, value):
        set_value, error = NAME_FIELDS[field]
        doc = base_doc()
        set_value(doc, value)
        assert errors_of(doc)[0] == error

    @pytest.mark.parametrize("key", ["XRLLC", "erllc", True, None, 7])
    def test_an_unknown_slice_key_lists_the_slices(self, key):
        assert errors_of(base_doc(contracts={key: {}})) == [f"contracts.{key}: {SLICE_ERROR}"]

    @pytest.mark.parametrize("key", ["[ERLLC]", "{ERLLC: 1}"])
    def test_a_slice_key_is_never_a_list_or_mapping(self, key, tmp_path):
        # A YAML mapping key that is a list or a mapping does not hash, so the
        # document fails to parse before any contract is read.
        p = tmp_path / "key.scn"
        p.write_text(f"contracts: {{{key}: {{}}}}\n")
        with pytest.raises(ScenarioError) as info:
            load_scenario(p)
        [error] = info.value.errors
        assert error.startswith("not valid YAML: ") and "found unhashable key" in error


class TestMagnitudes:
    """Every integer field, rate, energy and length is below 2**63; durations are not bounded."""

    def test_unit_quantities(self):
        assert parse_rate(2**63 - 1) == 2**63 - 1
        assert parse_energy("9223372036854775807nj") == 2**63 - 1
        for parse, value, path in ((parse_rate, 2**63, "rate"), (parse_rate, f"{10**400}bps", "rate"),
                                   (parse_energy, "9223372036.854775808j", "energy")):
            with pytest.raises(ScenarioError) as info:
                parse(value)
            assert info.value.errors == [f"{path}: must be below 2**63"]
        assert parse_duration(f"{10**400}ns") == 10**400

    @pytest.mark.parametrize("section, value, error", [
        ("links", [{"id": 0, "ends": [1, 0], "rate": 10**400}], "links[0].rate"),
        ("links", [{"id": 0, "ends": [1, 0], "rate": "1gbps", "queue_cap": 2**63}],
         "links[0].queue_cap"),
        ("stack", {"alp": 10**400}, "stack.alp"),
        ("contracts", {"FeMBB": {"min_rate": f"{2**63}bps"}}, "contracts.FeMBB.min_rate"),
        ("contracts", {"ELPC": {"max_energy_per_msg": 10**400}},
         "contracts.ELPC.max_energy_per_msg"),
    ])
    def test_fields_at_or_past_2_63(self, section, value, error):
        assert f"{error}: must be below 2**63" in errors_of(base_doc(**{section: value}))

    def test_durations_keep_their_rules(self):
        scn = scenario_from_dict(base_doc(stack={"setup_latency": f"{10**400}ns"}))
        assert scn.stack.setup_latency_ns == 10**400


class TestFleetExpansion:
    def doc(self, n=5):
        return base_doc(workloads=[{
            "kind": "wearable_fleet", "id": "fl", "edges": [1], "n_devices": n,
            "period": "100ms", "payload": 64, "twin_prefix": "w",
            "metrics": [{"name": "hr", "mean": 70, "sd": 3}],
        }])

    def test_members_get_nodes_links_twins(self):
        scn = scenario_from_dict(self.doc())
        assert len(scn.nodes) == 3 + 5
        assert [n.id for n in scn.nodes] == list(range(8))  # appended dense
        assert all(n.kind is NodeKind.DEVICE for n in scn.nodes[3:])
        assert len(scn.links) == 2 + 5
        assert [t.id for t in scn.twins] == [f"w_{i}" for i in range(5)]
        spec = scn.workloads[0]
        assert isinstance(spec, WearableFleetSpec)
        assert spec.members == [(3 + i, f"w_{i}") for i in range(5)]

    def test_member_twins_are_individual_on_their_edge(self):
        scn = scenario_from_dict(self.doc(n=2))
        for t in scn.twins:
            assert t.level is TwinLevel.INDIVIDUAL
            assert t.host == 1
            assert t.sync_period == 100 * MS

    def test_fleet_requires_vitals(self):
        doc = self.doc()
        doc["workloads"][0].pop("metrics")
        errs = errors_of(doc)
        assert any("at least one vitals channel" in e for e in errs)

    @pytest.mark.parametrize("field", ["mean", "sd"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                             ids=["nan", "inf", "-inf", "past_float_range"])
    def test_vitals_must_be_finite(self, field, value):
        # A NaN or infinite vital once loaded and put NaN/Infinity tokens,
        # which are not JSON, into the report; an int past float range
        # crashed the load with OverflowError.
        doc = self.doc()
        doc["workloads"][0]["metrics"] = [{"name": "hr", "mean": 70, "sd": 3, field: value},
                                          {"name": "spo2", "mean": 97, "sd": 1}]
        assert errors_of(doc) == [
            "workloads[0].metrics[0]: mean and sd must be finite numbers and sd >= 0"]
        twin = twin_doc(metrics=[{"name": "hr", "mean": 70, "sd": 1, field: value}])
        assert errors_of(twin) == ["twins[0].metrics[0]: mean and sd must be finite numbers and sd >= 0"]

    def test_link_rate_must_be_positive(self):
        doc = self.doc()
        doc["workloads"][0]["link"] = {"rate": 0}
        assert errors_of(doc) == ["workloads[0].link.rate: must be positive"]

    def test_link_prop_delay_must_not_be_negative(self):
        doc = self.doc()
        doc["workloads"][0]["link"] = {"prop_delay": -1}
        assert errors_of(doc) == ["workloads[0].link.prop_delay: must be >= 0"]

    def test_member_twin_ids_must_be_new(self):
        doc = self.doc(n=2)
        doc["twins"] = [{"id": "w_1", "level": "individual", "host": 1, "entity": 2,
                         "metrics": [{"name": "hr", "mean": 70, "sd": 1}]}]
        assert errors_of(doc) == [
            "workloads[0].twin_prefix: member twin 'w_1' duplicates an existing twin id"]

    def test_link_must_be_a_mapping(self):
        doc = self.doc()
        doc["workloads"][0]["link"] = [1]
        assert errors_of(doc) == ["workloads[0].link: must be a mapping"]


class TestTwinSource:
    """A telemetry workload sends from its twin's entity, and a twin has one source."""

    def beacon(self, wid, twin="pt", device=2):
        return {"kind": "implant_beacon", "id": wid, "device": device, "twin": twin,
                "period": "10ms", "payload": 40, "energy_per_tx": "10nj", "battery": "1j"}

    def doc(self, *workloads):
        doc = twin_doc(metrics=[{"name": "hr", "mean": 70, "sd": 1}])
        doc["nodes"].append({"id": 3, "kind": "device"})
        doc["links"].append({"id": 2, "ends": [3, 1], "rate": "100mbps"})
        doc["workloads"] = list(workloads)
        return doc

    def test_two_sources_on_one_twin_rejected(self):
        # Each source numbers its samples from 1, so the twin once dropped
        # the second source's samples as stale.
        assert errors_of(self.doc(self.beacon("b1"), self.beacon("b2"))) == [
            "workloads[1].twin: 'pt' is already fed by another workload"]

    def test_device_must_be_the_twin_entity(self):
        assert errors_of(self.doc(self.beacon("b", device=3))) == [
            "workloads[0].device: twin 'pt' is bound to entity 2, not node 3"]

    def test_fleet_member_twin_has_its_member_as_source(self):
        doc = TestFleetExpansion().doc(n=2)
        doc["workloads"].append(self.beacon("b", twin="w_0"))
        assert errors_of(doc) == ["workloads[1].twin: 'w_0' is already fed by another workload"]


class TestAmbulanceRun:
    def doc(self, **over):
        wl = {"kind": "ambulance_run", "id": "amb", "device": 2, "twin": "pt",
              "edge_sequence": [1], "speed_kmh": 36}
        wl.update(over)
        doc = base_doc(workloads=[wl], twins=[{
            "id": "pt", "level": "individual", "host": 1, "entity": 2,
            "metrics": [{"name": "hr", "mean": 70, "sd": 1}]}])
        doc["nodes"][2]["mobile"] = True
        return doc

    def test_defaults(self):
        spec = scenario_from_dict(self.doc()).workloads[0]
        assert (spec.cell_span_m, spec.handover_gap_ns) == (1000.0, 10 * MS)

    def test_handover_gap_must_not_be_negative(self):
        assert errors_of(self.doc(handover_gap=-1)) == ["workloads[0].handover_gap: must be >= 0"]

    @pytest.mark.parametrize("speed", [math.nan, math.inf, 0, -36])
    def test_speed_must_be_finite_and_positive(self, speed):
        # NaN once loaded and crashed the run in cell_time_ns; inf made every cell 0 ns long.
        assert errors_of(self.doc(speed_kmh=speed)) == [
            "workloads[0].speed_kmh: must be a finite positive number"]

    def test_telemetry_period_must_not_round_to_zero(self):
        assert scenario_from_dict(self.doc(telemetry_rate=1_500_000_000)).workloads[0].period_ns == 1
        assert errors_of(self.doc(telemetry_rate=2_000_000_000)) == [
            "workloads[0].telemetry_rate: the emission period it gives rounds to 0 ns"]


class TestWorkloadTiming:
    def doc(self, **over):
        wl = {"kind": "telemedicine_stream", "id": "s", "src": 2, "dst": 1,
              "bitrate": "1mbps", "frame_size": 100}
        wl.update(over)
        return base_doc(workloads=[wl])

    def test_start_must_not_be_negative(self):
        assert errors_of(self.doc(start=-5)) == ["workloads[0].start: must be >= 0"]
        assert scenario_from_dict(self.doc(start=0)).workloads[0].start == 0

    def test_duration_must_be_positive(self):
        assert errors_of(self.doc(duration="0ms")) == ["workloads[0].duration: must be positive"]

    def test_frame_period_must_not_round_to_zero(self):
        # One byte lasts 0.5 ns at 16 Gb/s, which rounds to 0 (half to even).
        assert scenario_from_dict(self.doc(frame_size=1, bitrate="8gbps")).workloads[0].period_ns == 1
        assert errors_of(self.doc(frame_size=1, bitrate="16gbps")) == [
            "workloads[0].bitrate: the emission period it gives rounds to 0 ns"]


class TestSurgeryLoop:
    def doc(self, **over):
        wl = {"kind": "surgery_loop", "id": "op", "src": 2, "dst": 1, "cmd_rate": 100,
              "cmd_size": 64}
        wl.update(over)
        return base_doc(workloads=[wl])

    def test_rtt_budget_defaults_to_2ms(self):
        assert scenario_from_dict(self.doc()).workloads[0].rtt_budget_ns == 2 * MS

    @pytest.mark.parametrize("budget", [-5, 0, "0ms"])
    def test_rtt_budget_must_be_positive(self, budget):
        # A budget at or below zero would count every command as a violation.
        assert errors_of(self.doc(rtt_budget=budget)) == ["workloads[0].rtt_budget: must be positive"]


class TestFlowIds:
    """Every flow a run opens, workload or derived, has an id of its own."""

    def doc(self, *workloads, twins=()):
        return base_doc(workloads=list(workloads), twins=list(twins))

    def stream(self, wid):
        return {"kind": "telemedicine_stream", "id": wid, "src": 2, "dst": 0,
                "bitrate": "1mbps", "frame_size": 100}

    def fleet(self, wid, alerts=()):
        return {"kind": "wearable_fleet", "id": wid, "edges": [1], "n_devices": 2,
                "period": "100ms", "payload": 50, "alerts": list(alerts),
                "metrics": [{"name": "hr", "mean": 70, "sd": 1}]}

    def test_workload_id_equal_to_a_fleet_member_flow(self):
        errs = errors_of(self.doc(self.fleet("f"), self.stream("f.1")))
        assert errs == ["workloads.f.1: flow id 'f.1' clashes with a flow of workloads.f"]

    def test_alert_flow_clash_needs_alerts_and_a_parent(self):
        edge = {"id": "ward", "level": "global_edge", "host": 1, "policy": {"hr": "mean"}}
        core = {"id": "hub", "level": "global_core", "host": 0, "policy": {"hr": "mean"}}
        alerting = self.fleet("f", alerts=[{"metric": "hr", "threshold": 100}])
        scenario_from_dict(self.doc(alerting, self.stream("alerts.f_dev_0")))  # no parent
        errs = errors_of(self.doc(alerting, self.stream("alerts.f_dev_0"), twins=[edge, core]))
        assert errs == ["twins.f_dev_0: flow id 'alerts.f_dev_0' clashes with a flow of "
                        "workloads.alerts.f_dev_0"]
        scenario_from_dict(self.doc(self.fleet("f"), self.stream("alerts.f_dev_0"),
                                    twins=[edge, core]))  # no alert rules


class TestTwinTiming:
    """Periods and phases are checked and derived when the scenario loads."""

    def doc(self, **edge):
        twin = {"id": "ward", "level": "global_edge", "host": 1, "policy": {"hr": "mean"},
                "aggregation_period": "10ms"}
        twin.update(edge)
        twin = {k: v for k, v in twin.items() if v is not None}
        return base_doc(twins=[twin, {"id": "hub", "level": "global_core", "host": 0,
                                      "policy": {"hr": "mean"}}])

    def test_given_values_are_kept(self):
        scn = scenario_from_dict(self.doc(sync_period="20ms", sync_phase=0, aggregation_phase="1ms"))
        ward, hub = scn.twins
        assert (ward.aggregation_period, ward.aggregation_phase) == (10 * MS, 1 * MS)
        assert (ward.sync_period, ward.sync_phase) == (20 * MS, 0)
        assert (hub.aggregation_period, hub.aggregation_phase) == (20 * MS, 15 * MS)

    def test_periods_must_be_positive(self):
        assert errors_of(self.doc(aggregation_period=0)) == [
            "twins.ward.aggregation_period: must be positive"]
        assert errors_of(self.doc(sync_period=-1)) == ["twins.ward.sync_period: must be positive"]

    def test_phases_must_not_be_negative(self):
        assert errors_of(self.doc(aggregation_phase=-5)) == [
            "twins.ward.aggregation_phase: must be >= 0"]
        assert errors_of(self.doc(sync_phase=-1)) == ["twins.ward.sync_phase: must be >= 0"]

    def test_underivable_period_is_a_load_error(self):
        assert errors_of(self.doc(aggregation_period=None, children=[])) == [
            "twins.ward.aggregation_period: cannot derive from children; set it explicitly"]

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_count_over_threshold_must_be_finite(self, threshold):
        # A NaN or infinite threshold reduced to 0.0 forever.
        policy = {"hr": "mean", "n": f"count_over:{threshold}"}
        assert errors_of(self.doc(policy=policy)) == [
            f"twins[0].policy.n: count_over threshold must be finite, not {threshold}"]

    @pytest.mark.parametrize("threshold", ["abc", ""])
    def test_count_over_threshold_must_be_a_number(self, threshold):
        policy = {"hr": "mean", "n": f"count_over:{threshold}"}
        assert errors_of(self.doc(policy=policy)) == [
            f"twins[0].policy.n: count_over threshold must be a number, not {threshold!r}"]

    @pytest.mark.parametrize("key", ["sync_period", "sync_phase", "aggregation_period",
                                     "aggregation_phase"])
    def test_a_malformed_timing_value_is_one_error_at_the_twin_id(self, key):
        assert errors_of(self.doc(**{key: "soon"})) == [
            f"twins.ward.{key}: cannot parse duration 'soon'"]

    def test_auto_children_resolve_at_load(self):
        doc = TestFleetExpansion().doc(n=3)
        doc["twins"] = [{"id": "ward", "level": "global_edge", "host": 1, "policy": {"hr": "mean"}},
                        {"id": "hub", "level": "global_core", "host": 0, "policy": {"hr": "mean"}}]
        twins = {t.id: t for t in scenario_from_dict(doc).twins}
        assert twins["ward"].children == ["w_0", "w_1", "w_2"]
        assert twins["hub"].children == ["ward"]
        assert twins["w_0"].children == []
        assert twins["ward"].aggregation_period == twins["hub"].aggregation_period == 100 * MS


class TestTwinParents:
    """A twin appears at most once across all children lists, so it has one parent."""

    def doc(self, *edges):
        doc = TestFleetExpansion().doc(n=3)
        doc["twins"] = [*edges, {"id": "hub", "level": "global_core", "host": 0,
                                 "policy": {"hr": "mean"}}]
        return doc

    def edge(self, twin_id, **over):
        return {"id": twin_id, "level": "global_edge", "host": 1, "policy": {"hr": "sum"}, **over}

    def test_a_child_listed_twice(self):
        # A child listed twice was summed twice and counted twice in
        # last_aggregation_children.
        assert errors_of(self.doc(self.edge("ward", children=["w_0", "w_1", "w_0"]))) == [
            "twins.ward.children: 'w_0' is already a child of 'ward'"]

    def test_two_edge_twins_on_one_edge(self):
        # Both aggregated the same members, and the later one silently became
        # their only parent, so member alerts escalated to it alone.
        assert errors_of(self.doc(self.edge("ward_a"), self.edge("ward_b"))) == [
            f"twins.ward_b.children: 'w_{i}' is already a child of 'ward_a'" for i in range(3)]
        assert errors_of(self.doc(self.edge("ward_a", children=["w_0"]),
                                  self.edge("ward_b", children=["w_1", "w_0"]))) == [
            "twins.ward_b.children: 'w_0' is already a child of 'ward_a'"]

    def test_disjoint_children_load(self):
        scn = scenario_from_dict(self.doc(self.edge("ward_a", children=["w_0", "w_2"]),
                                          self.edge("ward_b", children=["w_1"])))
        assert [t.children for t in scn.twins if t.level is not TwinLevel.INDIVIDUAL] == [
            ["w_0", "w_2"], ["w_1"], ["ward_a", "ward_b"]]


class TestFlags:
    """A flag is a YAML boolean: the string "false" once loaded as true."""

    VALUES = ["false", "no", 0, 1, None]

    @pytest.mark.parametrize("value", VALUES)
    def test_node_mobile(self, value):
        doc = base_doc()
        doc["nodes"][2]["mobile"] = value
        assert errors_of(doc) == ["nodes[2].mobile: must be true or false"]

    @pytest.mark.parametrize("value", VALUES)
    def test_workload_preadmit(self, value):
        doc = TestFlowIds().doc(TestFlowIds().stream("s"))
        doc["workloads"][0]["preadmit"] = value
        assert errors_of(doc) == ["workloads[0].preadmit: must be true or false"]

    @pytest.mark.parametrize("field", ["stagger", "poisson"])
    @pytest.mark.parametrize("value", VALUES)
    def test_fleet_flags(self, field, value):
        doc = TestFleetExpansion().doc()
        doc["workloads"][0][field] = value
        assert errors_of(doc) == [f"workloads[0].{field}: must be true or false"]

    def test_booleans_load(self):
        doc = TestFleetExpansion().doc()
        doc["workloads"][0].update(stagger=False, poisson=True, preadmit=True)
        spec = scenario_from_dict(doc).workloads[0]
        assert (spec.stagger, spec.poisson, spec.preadmit) == (False, True, True)


def twin_doc(**twin):
    """base_doc plus one individual twin on the device; `twin` edits its fields."""
    spec = {"id": "pt", "level": "individual", "host": 1, "entity": 2}
    spec.update(twin)
    return base_doc(twins=[spec])


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_alert_threshold_must_be_finite(threshold):
    # A NaN rule could never fire, and a -inf rule fired on the first sample.
    assert errors_of(twin_doc(alerts=[{"metric": "hr", "threshold": threshold}])) == [
        "twins[0].alerts[0].threshold: must be a finite number"]


CORE_ONLY = [{"id": 0, "kind": "core"}]
# Each list section given a value that is not a list, and a list holding an
# item that is not a well-formed mapping. nodes, links and twins reject null;
# the others read it as empty.
LIST_SECTIONS = {
    "nodes-null": (base_doc(nodes=None, links=[]), ["nodes: must be a list"]),
    "nodes-item": (base_doc(nodes=CORE_ONLY + [7], links=[]), ["nodes[1]: must be a mapping"]),
    "links-null": (base_doc(nodes=CORE_ONLY, links=None), ["links: must be a list"]),
    "links-item": (base_doc(links=base_doc()["links"] + ["x"]), ["links[2]: must be a mapping"]),
    "twins-null": (base_doc(twins=None), ["twins: must be a list"]),
    "twins-item": (base_doc(twins=twin_doc()["twins"] + [3]), ["twins[1]: must be a mapping"]),
    "workloads-str": (base_doc(workloads="x"), ["workloads: must be a list"]),
    "workloads-null": (base_doc(workloads=None), []),
    "workloads-item": (base_doc(workloads=[5]), ["workloads[0]: must be a mapping"]),
    "faults-str": (base_doc(faults="x"), ["faults: must be a list"]),
    "faults-null": (base_doc(faults=None), []),
    "faults-item": (base_doc(faults=[[]]), ["faults[0]: must be a mapping"]),
    "metrics-str": (twin_doc(metrics="x"), ["twins[0].metrics: must be a list"]),
    "metrics-null": (twin_doc(metrics=None), []),
    "metrics-item": (twin_doc(metrics=[{"mean": 1}]),
                     ["twins[0].metrics[0]: must be a mapping with name/mean/sd"]),
    "alerts-str": (twin_doc(alerts="x"), ["twins[0].alerts: must be a list"]),
    "alerts-null": (twin_doc(alerts=None), []),
    "alerts-item": (twin_doc(alerts=[{"metric": "hr"}]),
                    ["twins[0].alerts[0]: must be a mapping with metric and threshold"]),
}


def every_quantity_doc():
    """A document that sets every quantity with a sign rule, each to a valid value."""
    hr = [{"name": "hr", "mean": 70, "sd": 1}]
    return {
        "name": "signs",
        "run": {"t_end": "1s", "master_seed": 1},
        "stack": {"setup_latency": "1ms"},
        "contracts": {"FeMBB": {"min_rate": "1mbps", "max_e2e_delay": "50ms"},
                      "ELPC": {"max_energy_per_msg": "100nj"}},
        "nodes": [{"id": 0, "kind": "core"}, {"id": 1, "kind": "edge"}, {"id": 2, "kind": "edge"},
                  {"id": 3, "kind": "device", "mobile": True}, {"id": 4, "kind": "device"},
                  {"id": 5, "kind": "device"}],
        "links": [{"id": i, "ends": ends, "rate": "100mbps", "prop_delay": "10us"}
                  for i, ends in enumerate(([1, 0], [2, 0], [3, 1], [3, 2], [4, 1], [5, 1], [1, 2]))],
        "twins": [{"id": "pt", "level": "individual", "host": 1, "entity": 3, "metrics": hr},
                  {"id": "bt", "level": "individual", "host": 1, "entity": 4, "metrics": hr},
                  {"id": "ward", "level": "global_edge", "host": 1, "policy": {"hr": "mean"},
                   "sync_period": "20ms", "sync_phase": "1ms", "aggregation_period": "10ms",
                   "aggregation_phase": "2ms"},
                  {"id": "hub", "level": "global_core", "host": 0, "policy": {"hr": "mean"}}],
        "workloads": [
            {"kind": "telemedicine_stream", "id": "cam", "src": 5, "dst": 0, "bitrate": "1mbps",
             "frame_size": 1000, "start": "1ms", "duration": "100ms"},
            {"kind": "surgery_loop", "id": "op", "src": 5, "dst": 0, "cmd_rate": 100,
             "cmd_size": 64, "rtt_budget": "5ms"},
            {"kind": "ambulance_run", "id": "amb", "device": 3, "twin": "pt",
             "edge_sequence": [1, 2], "speed_kmh": 36, "cell_span": "1km", "handover_gap": "1ms"},
            {"kind": "wearable_fleet", "id": "fleet", "edges": [1], "n_devices": 2,
             "period": "10ms", "payload": 40, "metrics": hr,
             "link": {"rate": "10mbps", "prop_delay": "2us"}},
            {"kind": "implant_beacon", "id": "imp", "device": 4, "twin": "bt", "period": "10ms",
             "payload": 40, "energy_per_tx": "10nj", "battery": "1j"},
        ],
        "faults": [{"target": "link:0", "t_fail": "100ms", "t_recover": "200ms"}],
    }


# Each quantity with a sign rule: where it sits in every_quantity_doc, the path
# its errors carry, and whether it must be > 0 (True) or >= 0 (False).
SIGN_RULES = [
    (("run", "t_end"), "run.t_end", True),
    (("stack", "setup_latency"), "stack.setup_latency", False),
    (("contracts", "FeMBB", "min_rate"), "contracts.FeMBB.min_rate", False),
    (("contracts", "FeMBB", "max_e2e_delay"), "contracts.FeMBB.max_e2e_delay", True),
    (("contracts", "ELPC", "max_energy_per_msg"), "contracts.ELPC.max_energy_per_msg", False),
    # The last link: a link that fails to load leaves the ids before it dense.
    (("links", 6, "rate"), "links[6].rate", True),
    (("links", 6, "prop_delay"), "links[6].prop_delay", False),
    *[(("twins", 2, key), f"twins.ward.{key}", key.endswith("period"))
      for key in ("sync_period", "sync_phase", "aggregation_period", "aggregation_phase")],
    (("workloads", 0, "start"), "workloads[0].start", False),
    (("workloads", 0, "duration"), "workloads[0].duration", True),
    (("workloads", 0, "bitrate"), "workloads[0].bitrate", True),
    (("workloads", 1, "rtt_budget"), "workloads[1].rtt_budget", True),
    (("workloads", 2, "cell_span"), "workloads[2].cell_span", True),
    (("workloads", 2, "handover_gap"), "workloads[2].handover_gap", False),
    (("workloads", 3, "period"), "workloads[3].period", True),
    (("workloads", 3, "link", "rate"), "workloads[3].link.rate", True),
    (("workloads", 3, "link", "prop_delay"), "workloads[3].link.prop_delay", False),
    (("workloads", 4, "period"), "workloads[4].period", True),
    (("workloads", 4, "energy_per_tx"), "workloads[4].energy_per_tx", True),
    (("workloads", 4, "battery"), "workloads[4].battery", False),
    (("faults", 0, "t_fail"), "faults[0].t_fail", False),
]


def with_value(where, value):
    doc = every_quantity_doc()
    *parents, key = where
    target = doc
    for step in parents:
        target = target[step]
    target[key] = value
    return doc


class TestSignRules:
    def test_the_document_loads(self):
        scenario_from_dict(every_quantity_doc())

    @pytest.mark.parametrize("where, value, error", [
        pytest.param(where, value, f"{path}: must be positive" if positive else f"{path}: must be >= 0",
                     id=f"{path}={value}")
        for where, path, positive in SIGN_RULES for value in ((0, -1) if positive else (-1,))])
    def test_a_value_outside_the_rule_is_one_error_at_its_path(self, where, value, error):
        # A negative setup latency, rate bound, delay bound or energy bound once
        # loaded; a delay bound of -1 refused every flow of its slice.
        assert errors_of(with_value(where, value)) == [error]

    @pytest.mark.parametrize("where", [pytest.param(where, id=path)
                                       for where, path, positive in SIGN_RULES if not positive])
    def test_zero_loads_where_the_rule_is_not_negative(self, where):
        scenario_from_dict(with_value(where, 0))


class TestSections:
    def test_admission_and_contracts_must_be_mappings(self):
        assert errors_of(base_doc(admission=[1])) == ["admission: must be a mapping"]
        assert errors_of(base_doc(contracts=[1])) == ["contracts: must be a mapping"]

    @pytest.mark.parametrize("case", sorted(LIST_SECTIONS))
    def test_list_sections_report_exactly_their_own_errors(self, case):
        doc, expected = LIST_SECTIONS[case]
        try:
            scenario_from_dict(doc)
            errors = []
        except ScenarioError as exc:
            errors = exc.errors
        assert errors == expected


class TestLoadScenario:
    def test_digest_is_sha256_of_bytes(self, tmp_path):
        p = tmp_path / "t.scn"
        body = ("name: digest-check\n"
                "run: {t_end: 1s}\n"
                "nodes:\n"
                "  - {id: 0, kind: core}\n"
                "  - {id: 1, kind: edge}\n"
                "links:\n"
                "  - {id: 0, ends: [1, 0], rate: 1gbps, prop_delay: 10us}\n")
        p.write_text(body)
        scn = load_scenario(p)
        assert scn.digest == hashlib.sha256(body.encode()).hexdigest()
        assert load_scenario(p).digest == scn.digest

    def test_filename_is_fallback_name(self, tmp_path):
        p = tmp_path / "fallback.scn"
        p.write_text("run: {t_end: 1s}\n"
                     "nodes: [{id: 0, kind: core}, {id: 1, kind: edge}]\n"
                     "links: [{id: 0, ends: [1, 0], rate: 1gbps, prop_delay: 1us}]\n")
        assert load_scenario(p).name == "fallback"

    def test_invalid_yaml_reports_one_error(self, tmp_path):
        p = tmp_path / "bad.scn"
        p.write_text("run: {t_end: [unclosed\n")
        with pytest.raises(ScenarioError, match="1 scenario error"):
            load_scenario(p)

    def test_non_mapping_document_rejected(self, tmp_path):
        p = tmp_path / "list.scn"
        p.write_text("- 1\n- 2\n")
        with pytest.raises(ScenarioError):
            load_scenario(p)


class TestBundledScenarios:
    """Every shipped scenario file parses clean."""

    def test_all_bundled_files_load(self, scenario_dir):
        found = sorted(scenario_dir.glob("*.scn"))
        assert len(found) >= 4
        for path in found:
            scn = load_scenario(path)
            assert isinstance(scn, Scenario)
            assert scn.t_end > 0
