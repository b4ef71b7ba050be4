"""Tests of the benchmark itself: the generator, the gate and the traced run.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

import hostspeed
import inputs
import run
from twinslice.scenario import scenario_from_dict
from twinslice.sim import Simulation
from twinslice.slices import SLICE_ORDER

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_contended_generator_is_deterministic_and_valid():
    for seed in (1, 2, 99):
        first = inputs.contended_bytes(seed)
        assert inputs.contended_bytes(seed) == first
        assert yaml.safe_load(first) == inputs.contended_scenario(seed)
        scenario_from_dict(inputs.contended_scenario(seed))
    assert inputs.contended_bytes(1) != inputs.contended_bytes(2)
    assert inputs.sweep_seeds(5) == inputs.sweep_seeds(5)
    assert inputs.sweep_seeds(5)[0] == inputs.SWEEP_PINNED_SEED


def test_every_slice_crosses_the_backbone():
    sim = Simulation(scenario_from_dict(inputs.contended_scenario(1)), t_end=200_000_000)
    sim.run()  # admits every flow, including the twin pushes
    crossing = set()
    for flow in sim.flows.values():
        if flow.admitted and any(h.link.id == 0 for h in sim.topology.route(flow.src, flow.dst)):
            crossing.add(flow.slice_cls)
    assert crossing == set(SLICE_ORDER)


def _record(digests, in_flight=0, **extra):
    rec = {"traced": False, "error": None, "exit_code": 1,
           "runs": [{"seed": i, "sha256": d, "min_in_flight": in_flight} for i, d in enumerate(digests)]}
    rec.update(extra)
    return rec


def test_gate_rules_on_records():
    ok = _record(["a", "b"])
    assert run.failed_runs([ok, _record(["a", "b"])], 2) == [0, 0]
    # One repeat's second run differs: that run fails in every repeat.
    assert run.failed_runs([ok, _record(["a", "c"])], 2) == [1, 1]
    assert run.failed_runs([ok, _record(["a", "b"], error="Traceback ...")], 2) == [0, 2]
    assert run.failed_runs([ok, _record(["a", "b"], exit_code=2)], 2) == [0, 2]
    assert run.failed_runs([ok, _record(["a"])], 2) == [0, 2]
    assert run.failed_runs([_record(["a", "b"], in_flight=-1)], 2) == [2]
    layers = {"engine.events": 3, "engine.events.sync_due": 2, "engine.events.handover": 1,
              "engine.loop_s": 0.5, "engine.handler_s.sync_due": 0.25}
    traced = _record(["a", "b"], traced=True, layers=layers)
    assert run.failed_runs([ok, traced], 2) == [0, 0]
    short = _record(["a", "b"], traced=True, layers=dict(layers, **{"engine.events": 4}))
    assert run.failed_runs([ok, short], 2) == [0, 2]
    # Times may differ between traced repeats, counts may not.
    slower = _record(["a", "b"], traced=True,
                     layers=dict(layers, **{"engine.loop_s": 0.9, "engine.handler_s.sync_due": 0.3}))
    assert run.failed_runs([traced, slower], 2) == [0, 0]
    moved = _record(["a", "b"], traced=True,
                    layers=dict(layers, **{"engine.events.sync_due": 1, "engine.events.handover": 2}))
    assert run.failed_runs([traced, moved], 2) == [2, 2]


def _child_with(patch: str, workload: str = "sweep") -> dict:
    """Run child.py in a fresh process after applying `patch` to twinslice."""
    code = "\n".join([
        "import sys",
        f"sys.path[:0] = [{str(PERFBENCH)!r}, {str(ROOT / 'src')!r}]",
        patch,
        "import child",
        f"sys.exit(child.main(['--workload', {workload!r}, '--seed', '3', '--scratch', "
        f"{str(ROOT / '.perfbench')!r}]))",
    ])
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_gate_flags_injected_raising_and_nondeterministic_runs():
    runs_each = inputs.runs_per_invocation("sweep", 3)
    raising = _child_with(
        "import twinslice.sim as s\n"
        "def boom(self): raise RuntimeError('injected')\n"
        "s.Simulation.run = boom")
    assert "injected" in raising["error"]
    clean = _child_with("")
    assert run.failed_runs([clean, raising], runs_each) == [0, runs_each]

    nondeterministic = (
        "import os, twinslice.sim as s\n"
        "build = s.RunResult._build_report\n"
        "s.RunResult._build_report = lambda self: dict(build(self), nonce=os.urandom(8).hex())")
    first, second = _child_with(nondeterministic), _child_with(nondeterministic)
    assert first["error"] is None and second["error"] is None
    assert run.failed_runs([first, second], runs_each) == [runs_each, runs_each]


def test_traced_run_counts_add_up_and_cover_every_metric():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    inputs.contended_path(ROOT / ".perfbench", 3).write_bytes(inputs.contended_bytes(3))
    out = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "--workload", "contended", "--seed", "3",
         "--trace", "1", "--scratch", str(ROOT / ".perfbench")],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True,
        text=True, timeout=170, check=True)
    record = json.loads(out.stdout.strip().splitlines()[-1])
    assert record["error"] is None
    layers = record["layers"]
    per_kind = sum(v for k, v in layers.items() if k.startswith("engine.events."))
    assert per_kind == layers["engine.events"] == record["events"]
    assert layers["slices.queue_push_calls"] > 1000
    assert layers["network.drops.queue"] > 0
    assert layers["network.fault_calls"] == 2
    assert run.failed_runs([record], 1) == [0]

    derived = {"engine.ns_per_event", "proc.cpu_s", "proc.import_s", "proc.raw_wall_s",
               "host.speed", "trace.overhead_ratio"}
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    assert declared == set(layers) | derived
    for m in BENCHMARK["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [n for n, _ in run.END_TO_END]


def _probe(samples):
    """A probe holding samples given as (start, end) with the nominal time 1."""
    probe = hostspeed.SpeedProbe(nominal_s=1.0)
    for s, e in samples:
        probe.start.append(s)
        probe.end.append(e)
    return probe


def test_speed_probe_scales_program_time_and_leaves_out_its_own():
    import pytest

    # A sample every 10 s: the first ten take 1 s (reference speed), the last
    # ten 2 s (half speed). Each speed is a median over neighbours, so both
    # halves keep their own speed up to the switch.
    probe = _probe([(10 * k, 10 * k + (1 if k <= 10 else 2)) for k in range(1, 21)])
    assert probe.speeds() == [1.0] * 10 + [0.5] * 10
    assert probe.busy_s() == 30
    # Program time between two samples: raw and scaled agree at full speed.
    assert probe.split([(11, 20)]) == (9, 9)
    assert probe.split([(112, 120)]) == (8, 4)
    # Across a sample, its own second is left out of both figures.
    assert probe.split([(15, 25)]) == (9, 9)
    # The stretch between the last fast and the first slow sample runs at
    # the mean of their speeds.
    assert probe.split([(101, 110)]) == pytest.approx((9, 9 * 0.75))
    # Before the first and after the last sample the nearest speed holds.
    assert probe.split([(0, 5), (203, 205)]) == (7, 5 + 2 * 0.5)


def test_speed_probe_samples_while_the_program_runs():
    with hostspeed.SpeedProbe(period_s=0.01) as probe:
        deadline = hostspeed.perf_counter() + 0.2
        while hostspeed.perf_counter() < deadline:
            pass
    assert len(probe.start) >= 5  # one on entry, one on exit, the rest by the timer
    raw, scaled = probe.split([(probe.start[0], probe.end[-1])])
    assert 0 < raw < probe.end[-1] - probe.start[0] and scaled > 0
