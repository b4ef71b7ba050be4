"""The scripts under scripts/ still run against the package, at small sizes."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import twinslice

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(twinslice.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("name, args, header", [
    ("queueing_validation.py", ["--frames", 2000, "--rho", 0.5],
     "mu = 100000 frames/s, 2000 frames per point, seed 2026"),
    ("queueing_validation.py", ["--frames", 2000, "--priority", 0.3, 0.4],
     "strict priority: loads 0.30 and 0.40, 2000 frames, seed 2026"),
    ("fairness_demo.py", ["--pops", 900], " class weight        bytes    share   target"),
], ids=["queueing_validation", "queueing_validation_priority", "fairness_demo"])
def test_script_runs(name, args, header):
    done = run_script(name, *args)
    assert done.returncode == 0, done.stderr
    assert header in done.stdout.splitlines()


def test_run_all_summarizes_each_scenario(scenario_dir, tmp_path):
    shutil.copy(scenario_dir / "surgery.scn", tmp_path)
    done = run_script("run_all.py", "--expect-violations", "--dir", tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("surgery.scn: ok exit=0 events=22001 ")


def test_run_all_checks_the_seed_override_before_the_first_run(scenario_dir, tmp_path):
    # A seed of -1 once ended in a ScenarioError traceback.
    shutil.copy(scenario_dir / "surgery.scn", tmp_path)
    done = run_script("run_all.py", "--dir", tmp_path, "--seed", -1)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines() == ["error: run.master_seed: must be an integer in [0, 2**64)"]


def test_gc_phases_counts_full_collections_per_phase():
    done = run_script("gc_phases.py", "--workload", "sweep", "--seeds", 1)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:2] == [
        "workload sweep: gen-2 collections per phase, then their milliseconds",
        "  seed  setup    run report  after  other  setup_ms    run_ms report_ms  after_ms"
        "  other_ms  young_ms  report_s   run_s  peak_rss_mb"]
    seed, *cells = lines[2].split()
    counts, ms, (young, report_s, run_s, rss) = cells[:5], cells[5:10], cells[10:]
    assert seed == "1" and all(c.isdigit() for c in counts)
    # A phase without a full collection spent no time in one.
    assert all(float(m) >= 0 and (c != "0" or float(m) == 0) for c, m in zip(counts, ms))
    assert float(young) > 0  # a sweep of 12 runs makes young collections
    assert float(report_s) > 0 and float(run_s) > 0 and float(rss) > 0


def test_gc_phases_exits_1_on_an_expectation_the_run_cannot_meet():
    done = run_script("gc_phases.py", "--workload", "sweep", "--seeds", 1, "--expect", "0/0/9/0")
    assert done.returncode == 1
    report = done.stdout.splitlines()[2].split()[3]  # after the seed, setup and run counts
    assert done.stderr.splitlines() == [f"seed 1: {report} full collections in report, expected 9"]


def test_gc_phases_rejects_a_malformed_expectation():
    done = run_script("gc_phases.py", "--expect", "3/1/0")
    assert done.returncode == 2
    assert "want four counts as S/R/P/A, not '3/1/0'" in done.stderr
