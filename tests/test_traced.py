"""The traced benchmark run still installs over the package.

`perfbench/tracer.py` wraps package functions by name, so a rename under
`src/` breaks the traced run. This installs the tracer in a fresh process,
runs short bundled scenarios under it, and checks that every dispatched
event was timed under its kind and that every fork of a single label was
seen. It reads `perfbench/` and changes nothing there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_RUN = """
import json, sys
import tracer
spans = tracer.Tracer()
tracer.install(spans)
from twinslice.scenario import load_scenario
from twinslice.sim import run_scenario
result = run_scenario(load_scenario(sys.argv[1]), t_end=int(sys.argv[2]))
calls = {name: n for name, (n, _self_s) in spans.span_stats().items()}
print(json.dumps({"calls": calls, "processed": result.sim.engine.processed}))
"""


def traced_run(scenario, t_end):
    """Run `scenario` to `t_end` under the tracer in a fresh process; its span counts."""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    done = subprocess.run([sys.executable, "-c", TRACED_RUN, str(scenario), str(t_end)],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_traced_run_times_every_event_by_kind(scenario_dir):
    record = traced_run(scenario_dir / "surgery.scn", 50_000_000)
    calls, processed = record["calls"], record["processed"]
    by_kind = {name: n for name, n in calls.items() if name.startswith("engine.handler.")}
    assert processed > 0
    assert sum(by_kind.values()) == processed, by_kind
    for layer in ("sim.send", "sim.deliver", "network.inject", "engine.loop"):
        assert calls.get(layer, 0) > 0, layer


def test_traced_run_sees_every_single_label_fork(scenario_dir):
    # The tracer counts forks through `twinslice.sim.fork_rng`. In 1 s of
    # ambulance_single.scn its one twin, which no fleet feeds, forks its
    # `vitals:` stream there once, and 11 emissions draw two vitals each.
    calls = traced_run(scenario_dir / "ambulance_single.scn", 1_000_000_000)["calls"]
    assert calls.get("engine.fork_rng") == 1
    assert calls.get("engine.rng") == 22
