"""Command line behavior: exit codes, report emission, seed sweeps."""

import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest
import yaml

import twinslice.cli
import twinslice.sim
from twinslice.cli import main
from twinslice.engine import MS
from twinslice.metrics import to_json_bytes
from twinslice.scenario import load_scenario, parse_duration
from twinslice.sim import run_scenario

CLEAN = """\
name: clean
run: {t_end: 500ms, master_seed: 3, formats: [json]}
nodes:
  - {id: 0, kind: core}
  - {id: 1, kind: edge}
  - {id: 2, kind: device}
links:
  - {id: 0, ends: [1, 0], rate: 1gbps, prop_delay: 10us}
  - {id: 1, ends: [2, 1], rate: 100mbps, prop_delay: 10us}
twins:
  - id: imp
    level: individual
    host: 1
    entity: 2
    metrics: [{name: hr, mean: 70, sd: 2}]
workloads:
  - {kind: implant_beacon, id: b, device: 2, twin: imp,
     period: 10ms, payload: 40, energy_per_tx: 10nj, battery: 1j}
"""

LOSSY = CLEAN.replace("name: clean", "name: lossy").replace(
    "rate: 100mbps, prop_delay: 10us", "rate: 100mbps, prop_delay: 10us, loss: 0.5")

# A Poisson fleet beside the beacon: its members hold their `arrivals:` and
# `vitals:` streams once drawn.
POISSON = CLEAN.replace("name: clean", "name: poisson") + """\
  - {kind: wearable_fleet, id: fl, edges: [1], n_devices: 3, period: 50ms, payload: 100,
     poisson: true, twin_prefix: dev, metrics: [{name: hr, mean: 70, sd: 2}]}
"""

BROKEN = """\
name: broken
run: {master_seed: -1}
nodes: [{id: 0, kind: core}, {id: 5, kind: edge}]
links: []
"""


@pytest.fixture
def clean_scn(tmp_path):
    p = tmp_path / "clean.scn"
    p.write_text(CLEAN)
    return p


@pytest.fixture
def lossy_scn(tmp_path):
    p = tmp_path / "lossy.scn"
    p.write_text(LOSSY)
    return p


@pytest.fixture
def poisson_scn(tmp_path):
    p = tmp_path / "poisson.scn"
    p.write_text(POISSON)
    return p


@pytest.fixture
def broken_scn(tmp_path):
    p = tmp_path / "broken.scn"
    p.write_text(BROKEN)
    return p


def stdout_json(out: str) -> dict:
    return json.loads(out[out.index("{"):])


class TestValidate:
    def test_ok_prints_digest(self, clean_scn, capsys):
        assert main(["validate", str(clean_scn)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok: clean (digest ")

    def test_errors_listed_with_count(self, broken_scn, capsys):
        assert main(["validate", str(broken_scn)]) == 2
        out = capsys.readouterr().out
        assert "error: run.master_seed" in out
        assert "error(s)" in out

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/x.scn"]) == 2
        assert "no such file" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_unreadable_path_is_one_error_line(command, tmp_path, capsys):
    # A directory once ended in an IsADirectoryError traceback.
    assert main([command, str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: cannot read {tmp_path}: Is a directory"]


@pytest.mark.parametrize("argv", [["run", "--seed", "-1"], ["run", "--seed", str(2**64)],
                                  ["sweep", "--seeds", "-1"],
                                  ["sweep", "--seeds", "1,-1", "--until", "10ms"],
                                  ["sweep", "--seeds", "1,-1,-2"]],
                         ids=["negative", "past_64_bits", "sweep", "sweep_after_a_good_seed",
                              "sweep_two_bad_seeds"])
def test_seed_outside_64_bits_exits_two(argv, clean_scn, capsys):
    # A seed of -1 once ran, masked to the streams of 2**64 - 1. A sweep once
    # ran and printed the seeds before a bad one, then stopped without a summary.
    command, *override = argv
    assert main([command, str(clean_scn), *override]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: run.master_seed: must be an integer in [0, 2**64)"]


def with_twins(**ward):
    """CLEAN plus an edge and a core twin; edge fields set to None are left out."""
    doc = yaml.safe_load(CLEAN)
    edge = {"id": "ward", "level": "global_edge", "host": 1, "policy": {"hr": "mean"},
            "aggregation_period": "10ms"}
    edge.update(ward)
    edge = {k: v for k, v in edge.items() if v is not None}
    doc["twins"] += [edge, {"id": "hub", "level": "global_core", "host": 0,
                            "policy": {"hr": "mean"}, "aggregation_period": "10ms"}]
    return doc


def with_workload(doc=None, **wl):
    doc = doc or yaml.safe_load(CLEAN)
    doc["workloads"].append(wl)
    return doc


def with_surgery(wid, doc=None, cmd_rate=100):
    return with_workload(doc, kind="surgery_loop", id=wid, src=2, dst=0, cmd_rate=cmd_rate,
                         cmd_size=64)


def with_alert(threshold):
    doc = yaml.safe_load(CLEAN)
    doc["twins"][0]["alerts"] = [{"metric": "hr", "threshold": threshold}]
    return doc


def with_fleet(**fields):
    return with_workload(**{"kind": "wearable_fleet", "id": "fl", "edges": [1], "n_devices": 2,
                            "period": "10ms", "payload": 50,
                            "metrics": [{"name": "hr", "mean": 70, "sd": 1}], **fields})


def with_ambulance(**fields):
    doc = yaml.safe_load(CLEAN)
    doc["nodes"].append({"id": 3, "kind": "device", "mobile": True})
    doc["links"].append({"id": 2, "ends": [3, 1], "rate": "100mbps", "prop_delay": "10us"})
    doc["twins"].append({"id": "pt", "level": "individual", "host": 1, "entity": 3,
                         "metrics": [{"name": "hr", "mean": 80, "sd": 5}]})
    return with_workload(doc, **{"kind": "ambulance_run", "id": "amb", "device": 3, "twin": "pt",
                                 "edge_sequence": [1], "speed_kmh": 120, **fields})


def with_beacon(**fields):
    doc = yaml.safe_load(CLEAN)
    doc["workloads"][0].update(fields)
    return doc


# Scenarios that `validate` once passed but `run` failed on, crashed on, or
# silently emptied; each must now be one load error in both commands.
UNBUILDABLE = {
    "underivable_period": (with_twins(children=[], aggregation_period=None),
                           "twins.ward.aggregation_period: cannot derive from children; set it explicitly"),
    "zero_period": (with_twins(aggregation_period=0), "twins.ward.aggregation_period: must be positive"),
    "negative_phase": (with_twins(aggregation_phase=-5), "twins.ward.aggregation_phase: must be >= 0"),
    "no_nodes": ({"name": "empty", "run": {"t_end": "1s"}},
                 "nodes: exactly one core node required, found 0"),
    "zero_fleet_link_rate": (with_fleet(link={"rate": 0}), "workloads[1].link.rate: must be positive"),
    # A period that rounds to 0 ns once made `run` reschedule at one instant forever.
    "zero_tick_stream": (with_workload(kind="telemedicine_stream", id="v", src=2, dst=0,
                                       bitrate="20gbps", frame_size=1),
                         "workloads[1].bitrate: the emission period it gives rounds to 0 ns"),
    "zero_tick_surgery": (with_surgery("op", cmd_rate=3_000_000_000),
                          "workloads[1].cmd_rate: the emission period it gives rounds to 0 ns"),
    # Flow-id clashes once passed `validate` and failed `run` at admission.
    "workload_id_is_an_ack_id": (
        with_workload(with_surgery("x"), kind="telemedicine_stream", id="x.ack", src=2, dst=0,
                      bitrate="1mbps", frame_size=100),
        "workloads.x.ack: flow id 'x.ack' clashes with a flow of workloads.x"),
    "derived_ids_clash": (with_surgery("twinsync", with_twins(id="ack")),
                          "twins.ack: flow id 'twinsync.ack' clashes with a flow of workloads.twinsync"),
    # A NaN alert never fired and a -inf one fired on every sample; a NaN or
    # infinite count_over threshold made the reducer 0.0 forever.
    "nan_alert_threshold": (with_alert(math.nan),
                            "twins[0].alerts[0].threshold: must be a finite number"),
    "minus_inf_alert_threshold": (with_alert(-math.inf),
                                  "twins[0].alerts[0].threshold: must be a finite number"),
    "count_over_nan": (with_twins(policy={"hr": "mean", "n": "count_over:nan"}),
                       "twins[1].policy.n: count_over threshold must be finite, not nan"),
    "count_over_inf": (with_twins(policy={"hr": "mean", "n": "count_over:inf"}),
                       "twins[1].policy.n: count_over threshold must be finite, not inf"),
    # A delay past the histogram's last edge (1e19 ns) once crashed `run`.
    "horizon_past_the_histogram": (
        dict(with_workload(kind="telemedicine_stream", id="v", src=2, dst=0, bitrate="1mbps",
                           frame_size=1000, duration="10ms", preadmit=True),
             run={"t_end": "20000000000s"}, stack={"setup_latency": "10000000000s"}),
        "run.t_end: must be below 2**63 ns"),
    # A cell time past 2**63 ns (or infinite) once crashed `run` with an
    # OverflowError, and a cell_span past float range crashed the loader.
    "crawling_ambulance": (with_ambulance(speed_kmh=1.0e-300),
                           "workloads[1].speed_kmh: the cell time it gives must be below 2**63 ns"),
    "vanishing_speed": (with_ambulance(speed_kmh=5e-324),
                        "workloads[1].speed_kmh: the cell time it gives must be below 2**63 ns"),
    "slow_ambulance_on_a_long_cell": (
        with_ambulance(speed_kmh=1e-9, cell_span="1000km"),
        "workloads[1].speed_kmh: the cell time it gives must be below 2**63 ns"),
    "cell_span_past_float_range": (with_ambulance(cell_span=10**400),
                                   "workloads[1].cell_span: must be below 2**63"),
    # Byte counts, rates, energies and lengths past 2**63 once overflowed a
    # float: in the loader, at build, in admission, or in the energy verdict.
    "huge_frame_size": (with_workload(kind="telemedicine_stream", id="v", src=2, dst=0,
                                      bitrate="1mbps", frame_size=10**400),
                        "workloads[1].frame_size: must be below 2**63"),
    "huge_fleet_payload": (with_fleet(payload=10**400), "workloads[1].payload: must be below 2**63"),
    "huge_fleet_link_rate": (with_fleet(link={"rate": f"{10**400}bps"}),
                             "workloads[1].link.rate: must be below 2**63"),
    # An energy past the battery silently halted the beacon before its first frame.
    "huge_energy_per_tx": (with_beacon(energy_per_tx=10**400),
                           "workloads[0].energy_per_tx: must be below 2**63"),
    # The mean of a Poisson fleet's gaps is drawn as a float.
    "huge_poisson_period": (with_fleet(poisson=True, period=10**400),
                            "workloads[1].period: a Poisson fleet's period must be below 2**63 ns"),
}


@pytest.mark.parametrize("case", sorted(UNBUILDABLE))
def test_validate_accepts_only_what_run_builds(case, tmp_path, capsys):
    doc, error = UNBUILDABLE[case]
    p = tmp_path / f"{case}.scn"
    p.write_text(yaml.safe_dump(doc))
    assert main(["validate", str(p)]) == 2
    assert capsys.readouterr().out.splitlines() == [f"error: {error}", "1 error(s)"]
    assert main(["run", str(p)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {error}", f"1 error(s) in {p}"]


def test_non_finite_vitals_fail_validate_and_run(scenario_dir, tmp_path, capsys):
    # Both once passed validate, and run wrote 22 NaN/Infinity tokens into
    # the JSON report, which a strict parser rejects.
    text = (scenario_dir / "ward.scn").read_text()
    for old, new in (("{name: heart_rate, mean: 75, sd: 4}", "{name: heart_rate, mean: .nan, sd: 4}"),
                     ("{name: spo2, mean: 97, sd: 0.8}", "{name: spo2, mean: 97, sd: .inf}")):
        assert old in text
        text = text.replace(old, new)
    p = tmp_path / "ward.scn"
    p.write_text(text)
    errors = [*(f"error: workloads[1].metrics[{i}]: mean and sd must be finite numbers and sd >= 0"
                for i in (0, 1)),
              "error: workloads[1].metrics: fleet devices need at least one vitals channel"]
    assert main(["validate", str(p)]) == 2
    assert capsys.readouterr().out.splitlines() == [*errors, "3 error(s)"]
    assert main(["run", str(p), "--until", "2s"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [*errors, f"3 error(s) in {p}"]


def test_vitals_past_the_magnitude_bound_fail_validate_and_run(scenario_dir, tmp_path, capsys):
    # Once they passed validate, and run died at the first mean aggregation
    # with "OverflowError: intermediate overflow in fsum".
    text = (scenario_dir / "ward.scn").read_text()
    old = "{name: heart_rate, mean: 75, sd: 4}"
    assert old in text
    p = tmp_path / "ward.scn"
    p.write_text(text.replace(old, "{name: heart_rate, mean: 1.7e+308, sd: 0}"))
    error = "error: workloads[1].metrics[0]: |mean| and sd must be at most 1e300"
    assert main(["validate", str(p)]) == 2
    assert capsys.readouterr().out.splitlines() == [error, "1 error(s)"]
    assert main(["run", str(p), "--until", "5s"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [error, f"1 error(s) in {p}"]


@pytest.mark.parametrize("transport", [["quic"], {"quic": 27}])
def test_a_transport_that_is_not_a_name_fails_every_command(transport, tmp_path, capsys):
    # A list or a mapping once crashed validate, run and sweep with
    # "TypeError: unhashable type" in the transport lookup.
    doc = yaml.safe_load(CLEAN)
    doc["stack"] = {"transport": transport}
    p = tmp_path / "transport.scn"
    p.write_text(yaml.safe_dump(doc))
    error = "error: stack.transport: must be one of ['quic', 'udp']"
    assert main(["validate", str(p)]) == 2
    assert capsys.readouterr().out.splitlines() == [error, "1 error(s)"]
    for argv in (["run", str(p)], ["sweep", str(p), "--seeds", "1,2"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [error, f"1 error(s) in {p}"]


@pytest.mark.parametrize("speed", [".nan", ".inf"])
def test_non_finite_ambulance_speed_fails_validate_and_run(speed, scenario_dir, tmp_path, capsys):
    # NaN once passed validate and crashed run with a ValueError traceback;
    # inf made every cell 0 ns long.
    text = (scenario_dir / "ambulance.scn").read_text()
    assert "speed_kmh: 120" in text
    p = tmp_path / "ambulance.scn"
    p.write_text(text.replace("speed_kmh: 120", f"speed_kmh: {speed}"))
    error = "error: workloads[0].speed_kmh: must be a finite positive number"
    assert main(["validate", str(p)]) == 2
    assert capsys.readouterr().out.splitlines() == [error, "1 error(s)"]
    assert main(["run", str(p)]) == 2
    assert capsys.readouterr().err.splitlines() == [error, f"1 error(s) in {p}"]


class TestRun:
    def test_met_contracts_exit_zero(self, clean_scn, capsys):
        assert main(["run", str(clean_scn)]) == 0
        report = stdout_json(capsys.readouterr().out)
        assert report["scenario"]["name"] == "clean"
        assert report["slices"]["ELPC"]["verdict"] == "met"

    def test_violated_contract_exits_one(self, lossy_scn, capsys):
        assert main(["run", str(lossy_scn)]) == 1
        report = stdout_json(capsys.readouterr().out)
        assert report["slices"]["ELPC"]["verdict"] == "violated(loss)"

    def test_scenario_errors_exit_two(self, broken_scn, capsys):
        assert main(["run", str(broken_scn)]) == 2
        assert "error(s) in" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["run", "/nonexistent/x.scn"]) == 2

    def test_seed_override(self, clean_scn, capsys):
        assert main(["run", str(clean_scn), "--seed", "99"]) == 0
        assert stdout_json(capsys.readouterr().out)["run"]["master_seed"] == 99

    def test_until_override(self, clean_scn, capsys):
        assert main(["run", str(clean_scn), "--until", "100ms"]) == 0
        report = stdout_json(capsys.readouterr().out)
        assert report["run"]["t_end_ns"] == 100_000_000

    def test_bad_until_exits_two(self, clean_scn, capsys):
        assert main(["run", str(clean_scn), "--until", "later"]) == 2
        assert "--until" in capsys.readouterr().err

    def test_format_both_concatenates(self, clean_scn, capsys):
        assert main(["run", str(clean_scn), "--format", "both"]) == 0
        out = capsys.readouterr().out
        assert out.lstrip().startswith("{")
        assert "\nslice," in out  # csv header follows the json document

    def test_out_writes_files_not_stdout(self, clean_scn, tmp_path, capsys):
        outdir = tmp_path / "reports"
        assert main(["run", str(clean_scn), "--format", "both",
                     "--out", str(outdir)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (outdir / "clean.json").exists()
        assert (outdir / "clean.csv").exists()
        report = json.loads((outdir / "clean.json").read_bytes())
        assert report["scenario"]["name"] == "clean"

    def test_scenario_out_directory_is_default(self, tmp_path, capsys):
        outdir = tmp_path / "autodump"
        doc = CLEAN.replace("formats: [json]}",
                            f"formats: [json], out: {outdir}}}")
        p = tmp_path / "auto.scn"
        p.write_text(doc)
        assert main(["run", str(p)]) == 0
        assert capsys.readouterr().out == ""
        assert (outdir / "auto.json").exists()

    def test_cli_out_overrides_scenario_out(self, tmp_path, capsys):
        scn_dir = tmp_path / "from_scenario"
        cli_dir = tmp_path / "from_cli"
        doc = CLEAN.replace("formats: [json]}",
                            f"formats: [json], out: {scn_dir}}}")
        p = tmp_path / "auto.scn"
        p.write_text(doc)
        assert main(["run", str(p), "--out", str(cli_dir)]) == 0
        capsys.readouterr()
        assert (cli_dir / "auto.json").exists()
        assert not scn_dir.exists()

    def test_the_hash_seed_moves_no_byte(self, scenario_dir):
        # String hashing, and with it set order, follows PYTHONHASHSEED; report bytes must not.
        src = str(Path(__file__).resolve().parent.parent / "src")
        argv = [sys.executable, "-m", "twinslice.cli", "run", str(scenario_dir / "ambulance.scn"),
                "--format", "json"]
        runs = [subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
                for seed in ("0", "12345")]
        (zero, err), (other, _err) = [run.communicate(timeout=60) for run in runs]
        assert [run.returncode for run in runs] == [0, 0], err
        assert zero.startswith(b"{") and zero == other


class TestSweep:
    def test_per_seed_lines_and_summary(self, clean_scn, capsys):
        assert main(["sweep", str(clean_scn), "--seeds", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "seed 1: ok" in out
        assert "seed 2: ok" in out
        summary = stdout_json(out)
        assert summary["seeds"] == [1, 2]
        assert summary["runs"] == 2
        assert summary["verdicts"]["ELPC"] == {"met": 2}

    @pytest.mark.parametrize("name, until", [
        ("clean", None), ("poisson", None), ("ward.scn", None), ("ambulance.scn", None),
        ("ambulance_single.scn", None), ("ambulance_single.scn", "40500ms"),
        ("ambulance_single.scn", "20000040us")])
    def test_identical_seeds_reproduce_identical_reports(self, name, until, clean_scn,
                                                         poisson_scn, scenario_dir, capsys):
        # The seeds of a sweep share the loaded records: a run that left state
        # in them or beside them (a node fault and handovers in ambulance.scn,
        # a link fault in ambulance_single.scn, a held stream or member table
        # on a twin, fleet or vital record in ward.scn and the Poisson fleet)
        # would show in the next seed's report, and against a run of a fresh
        # load. Both faults recover before the scenario's horizon; cut at 40.5 s
        # the run ends with its link down, and cut at 20.00004 s with a frame
        # on the wire.
        path = {"clean": clean_scn, "poisson": poisson_scn}.get(name, scenario_dir / name)
        t_end = None if until is None else parse_duration(until)
        fresh = run_scenario(load_scenario(path), seed=7, t_end=t_end)
        horizon = [] if until is None else ["--until", until]
        assert main(["sweep", str(path), "--seeds", "7,7", *horizon]) == fresh.exit_code
        out = capsys.readouterr().out
        digests = [line.rsplit("report=", 1)[1]
                   for line in out.splitlines() if line.startswith("seed 7:")]
        assert digests == [hashlib.sha256(fresh.json_bytes()).hexdigest()[:12]] * 2

    def test_single_seed_summary_collapses_to_report(self, clean_scn, capsys):
        assert main(["sweep", str(clean_scn), "--seeds", "9"]) == 0
        summary = stdout_json(capsys.readouterr().out)
        direct = run_scenario(load_scenario(clean_scn), seed=9)
        sent = direct.report["slices"]["ELPC"]["sent"]
        agg = summary["slices"]["ELPC"]["sent"]
        assert agg["mean"] == agg["min"] == agg["max"] == sent

    def test_worst_exit_code_wins(self, lossy_scn, capsys):
        assert main(["sweep", str(lossy_scn), "--seeds", "1,2,3"]) == 1
        out = capsys.readouterr().out
        assert out.count("violated") >= 1

    def test_bad_seed_list(self, clean_scn, capsys):
        assert main(["sweep", str(clean_scn), "--seeds", "1,x"]) == 2
        assert "--seeds" in capsys.readouterr().err

    def test_empty_seed_list(self, clean_scn, capsys):
        assert main(["sweep", str(clean_scn), "--seeds", ","]) == 2

    def test_out_writes_per_seed_reports_and_summary(self, clean_scn, tmp_path, capsys):
        outdir = tmp_path / "sweepout"
        assert main(["sweep", str(clean_scn), "--seeds", "1,2",
                     "--out", str(outdir)]) == 0
        capsys.readouterr()
        assert (outdir / "clean.seed1.json").exists()
        assert (outdir / "clean.seed2.json").exists()
        summary = json.loads((outdir / "clean.summary.json").read_bytes())
        assert summary["runs"] == 2

    @pytest.fixture
    def fleet_scn(self, tmp_path, monkeypatch):
        """300 wearables, each with its own twin. Every run starts after a full
        collection, so only what the sweep still references is live, and
        records how many earlier runs that is."""
        path = tmp_path / "fleet.scn"
        path.write_text(yaml.safe_dump(with_fleet(n_devices=300)))
        runs, live = [], []

        def run(scn, seed=None, t_end=None):
            gc.collect()
            live.append(sum(ref() is not None for ref in runs))
            result = run_scenario(scn, seed=seed, t_end=t_end)
            runs.append(weakref.ref(result))
            return result

        monkeypatch.setattr(twinslice.cli, "run_scenario", run)
        return path, live

    def test_a_run_is_released_before_the_next_seed_builds(self, fleet_scn, capsys):
        path, live = fleet_scn
        assert main(["sweep", str(path), "--seeds", "1,2,3", "--until", "20ms"]) == 0
        assert live == [0, 0, 0]

    def test_memory_does_not_grow_with_the_seed_count(self, fleet_scn, capsys):
        # A sweep once kept each seed's full report, and the previous seed's
        # run while the next one built and ran.
        path, _live = fleet_scn

        def peak(seeds):
            tracemalloc.start()
            try:
                assert main(["sweep", str(path), "--seeds", seeds, "--until", "20ms"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak("1")
        assert peak("1,2,3,4,5") < 1.2 * one

    def test_out_renders_each_report_once(self, scenario_dir, tmp_path, capsys, monkeypatch):
        # With --out, each seed's JSON was once rendered twice: for the file
        # and again for the report= digest.
        rendered = []

        def counting(report):
            rendered.append(report)
            return to_json_bytes(report)

        monkeypatch.setattr(twinslice.sim, "to_json_bytes", counting)
        path = scenario_dir / "surgery.scn"
        assert main(["sweep", str(path), "--seeds", "1,2", "--until", "10ms",
                     "--out", str(tmp_path)]) == 0
        assert len(rendered) == 2
        out = capsys.readouterr().out
        scn = load_scenario(path)
        for seed in (1, 2):
            direct = run_scenario(scn, seed=seed, t_end=10 * MS)
            report = direct.json_bytes()
            assert (tmp_path / f"surgery.seed{seed}.json").read_bytes() == report
            assert (tmp_path / f"surgery.seed{seed}.csv").read_bytes() == direct.csv_bytes()
            assert f"report={hashlib.sha256(report).hexdigest()[:12]}" in out.splitlines()[seed - 1]


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
