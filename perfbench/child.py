"""One measured run of one workload, in a fresh process.

    python3 perfbench/child.py --workload fleet --seed 3 --trace 0 --scratch .perfbench

Runs the workload's `twinslice` command line through `twinslice.cli.main` in
this process and prints one JSON record as the last line of stdout: the
host-time split, peak RSS, the sha256 of every report, the smallest
`in_flight` of any slice, and with `--trace 1` the per-layer metrics. The
program's own stdout goes to an in-memory buffer. The caller sets PYTHONPATH
to the checkout's `src/`. An untraced run carries the speed probe of
`hostspeed.py`, and its times are in reference seconds, with the raw host
times under `raw`.

Every run wraps six functions that are each called once per simulation, to
split wall time into phases:

- setup: `load_scenario`, `Simulation(...)`, and `Simulation.run` up to the
  first entry into `Engine.run_until` (admission and initial scheduling)
- run: time inside `Engine.run_until`
- report: the rest of `Simulation.run` (`RunResult` construction) plus
  `RunResult.json_bytes` and `csv_bytes`
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import hostspeed
import inputs


class Phases:
    """Host-time split of the simulations run in this process, as intervals."""

    def __init__(self) -> None:
        self.intervals: dict[str, list[tuple[float, float]]] = {
            "setup_s": [], "run_s": [], "report_s": []}
        self.events = 0
        self.reports: list[bytes] = []
        self._run_entered = 0.0
        self._loop_left = 0.0

    def install(self) -> None:
        import twinslice.cli as cli
        from twinslice.engine import Engine
        from twinslice.sim import RunResult, Simulation

        intervals = self.intervals

        def timed(fn: Callable, phase: str, keep: bool = False) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                t = perf_counter()
                result = fn(*args, **kwargs)
                intervals[phase].append((t, perf_counter()))
                if keep:
                    self.reports.append(result)
                return result
            return wrapper

        sim_run, run_until = Simulation.run, Engine.run_until

        def run(sim: Any) -> Any:
            self._run_entered = perf_counter()
            result = sim_run(sim)
            intervals["report_s"].append((self._loop_left, perf_counter()))
            return result

        def loop(engine: Any, t_end: int) -> int:
            t = perf_counter()
            intervals["setup_s"].append((self._run_entered, t))
            n = run_until(engine, t_end)
            self._loop_left = perf_counter()
            intervals["run_s"].append((t, self._loop_left))
            self.events += n
            return n

        cli.load_scenario = timed(cli.load_scenario, "setup_s")
        Simulation.__init__ = timed(Simulation.__init__, "setup_s")
        Simulation.run = run
        Engine.run_until = loop
        RunResult.json_bytes = timed(RunResult.json_bytes, "report_s", keep=True)
        RunResult.csv_bytes = timed(RunResult.csv_bytes, "report_s")


def measure(workload: str, seed: int, trace: bool, scratch: Path) -> dict:
    t0 = perf_counter()
    import twinslice
    import twinslice.cli
    import_s = perf_counter() - t0

    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    phases = Phases()
    phases.install()

    # Untraced runs are timed in reference seconds (see hostspeed.py); a traced
    # run is not probed, so that no probe time lands inside its spans.
    probe = None if trace else hostspeed.SpeedProbe()

    argv = inputs.cli_argv(workload, seed, scratch)
    real_stdout = sys.stdout
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    error = None
    exit_code = None
    cpu0 = time.process_time()
    t = perf_counter()
    try:
        with probe or contextlib.nullcontext():
            exit_code = twinslice.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        exit_code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the gate counts the run as failed
        error = traceback.format_exc()
    finally:
        wall = (t, perf_counter())
        cpu_s = time.process_time() - cpu0
        sys.stdout.flush()
        captured = sys.stdout.buffer.getvalue()
        sys.stdout = real_stdout

    runs = []
    for report in phases.reports:
        doc = json.loads(report)
        runs.append({
            "seed": doc["run"]["master_seed"],
            "sha256": hashlib.sha256(report).hexdigest(),
            "min_in_flight": min(row["in_flight"] for row in doc["slices"].values()),
        })
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    timings = {"wall_s": [wall], **phases.intervals}
    raw, scaled = {}, {}
    for name, intervals in timings.items():
        if probe is None:
            raw[name] = scaled[name] = sum(b - a for a, b in intervals)
        else:
            raw[name], scaled[name] = probe.split(intervals)
    record = {
        "workload": workload,
        "seed": seed,
        "traced": trace,
        "error": error,
        "exit_code": exit_code,
        "module": twinslice.__file__,
        **scaled,
        "raw": raw,
        "host_speed": statistics.median(probe.speeds()) if probe else None,
        "peak_rss_mb": (own + children) / 1024,
        "cpu_s": cpu_s - (probe.busy_s() if probe else 0.0),
        "import_s": import_s,
        "events": phases.events,
        "stdout_sha256": hashlib.sha256(captured).hexdigest(),
        "runs": runs,
    }
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(
            tracer, phases.events, sum(len(r) for r in phases.reports))
        tracer.write(scratch / f"spans-{workload}.npz")
    return record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="one measured run of a benchmark workload")
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", type=Path, required=True)
    args = ap.parse_args(argv)
    record = measure(args.workload, args.seed, bool(args.trace), args.scratch)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
