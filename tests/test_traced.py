"""The traced benchmark run still installs over the package.

`perfbench/tracer.py` wraps package functions by name, so a rename under
`src/` breaks the traced run. This installs the tracer in a fresh process,
runs a short bundled scenario under it, and checks that every dispatched
event was timed under its kind. It reads `perfbench/` and changes nothing
there.
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
result = run_scenario(load_scenario(sys.argv[1]), t_end=50_000_000)
calls = {name: n for name, (n, _self_s) in spans.span_stats().items()}
print(json.dumps({"calls": calls, "processed": result.sim.engine.processed}))
"""


def test_traced_run_times_every_event_by_kind(scenario_dir):
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    done = subprocess.run([sys.executable, "-c", TRACED_RUN, str(scenario_dir / "surgery.scn")],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout)
    calls, processed = record["calls"], record["processed"]
    by_kind = {name: n for name, n in calls.items() if name.startswith("engine.handler.")}
    assert processed > 0
    assert sum(by_kind.values()) == processed, by_kind
    for layer in ("sim.send", "sim.deliver", "network.inject", "engine.loop"):
        assert calls.get(layer, 0) > 0, layer
