"""twinslice benchmark: end-to-end host time per workload, or a traced layer split.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout. Each measured run is a fresh child process
(`perfbench/child.py`) that executes one `twinslice` command line to
completion; children run one at a time (closed loop, one client) until
`--seconds` have passed and at least MIN_RUNS have run. Every metric is the
median over the children. Timings are host time scaled to the host's
reference speed by a probe that samples the speed during each run
(`hostspeed.py`), because the shared host's own speed drifts; the raw
medians are printed too.

With `--trace 0` the result holds the end-to-end metrics. With `--trace 1`
untraced and traced children alternate, and the result holds the per-layer
metrics of the traced children (see `tracer.py`) plus the tracing overhead.

Every run passes the correctness gate (`failed_runs`) or counts as failed.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
BASELINE = HERE / "baseline.json"
BENCHMARK = ROOT / "BENCHMARK.json"

# (name, unit); every timing is host time in reference seconds, never simulated time.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("run_s", "s"),
    ("report_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Timings that are scaled to reference seconds; the raw figure is printed too.
RAW_NAMES = ("wall_s", "setup_s", "run_s", "report_s")
MIN_RUNS = 3
MIN_TRACED = 2
# Wall-clock limit of one invocation; a child still running then is killed.
HARD_LIMIT_S = 170.0


def checkout_problem() -> str | None:
    for need in ("src/twinslice/cli.py", inputs.FLEET_SCENARIO, inputs.SWEEP_SCENARIO):
        if not (ROOT / need).is_file():
            return f"{need} not found under {ROOT}; run from a twinslice checkout"
    return None


def run_child(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """One measured run in a fresh process; a record with `error` set on failure."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0", "--scratch", str(SCRATCH)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"killed after {timeout:.0f}s"}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"traced": traced, "error": f"child exited {proc.returncode}: " + " | ".join(tail)}
    src = str(ROOT / "src")
    if not record["module"].startswith(src):
        record["error"] = f"imported twinslice from {record['module']}, not from {src}"
    return record


def failed_runs(records: list[dict], runs_each: int) -> list[int]:
    """How many of each record's `runs_each` simulation runs failed.

    A run fails when its process raised or was killed, when the command
    exited with code 2, when a slice reports in_flight < 0, or when its
    report bytes differ from another repeat of the same (workload, seed).
    A traced record also fails when its per-kind event counts do not sum to
    engine.events, or when any count differs from another traced repeat.
    """
    failed = [0] * len(records)
    complete = []
    for i, rec in enumerate(records):
        if rec.get("error") or rec.get("exit_code") == 2 or len(rec.get("runs", ())) != runs_each:
            failed[i] = runs_each
        else:
            complete.append(i)
    for k in range(runs_each):
        digests = {records[i]["runs"][k]["sha256"] for i in complete}
        for i in complete:
            if len(digests) > 1 or records[i]["runs"][k]["min_in_flight"] < 0:
                failed[i] += 1
    traced = [i for i in complete if "layers" in records[i]]
    counts = [_counts(records[i]["layers"]) for i in traced]
    for i, c in zip(traced, counts):
        per_kind = sum(v for name, v in c.items() if name.startswith("engine.events."))
        if per_kind != c["engine.events"] or any(other != c for other in counts):
            failed[i] = runs_each
    return failed


def _counts(layers: dict) -> dict:
    # Everything that is not a time must repeat exactly.
    return {k: v for k, v in layers.items() if layer_unit(k) != "s"}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    SCRATCH.mkdir(exist_ok=True)
    if workload == "contended":
        inputs.contended_path(SCRATCH, seed).write_bytes(inputs.contended_bytes(seed))
    runs_each = inputs.runs_per_invocation(workload, seed)
    started = time.perf_counter()
    records: list[dict] = []

    def enough() -> bool:
        plain = sum(1 for r in records if not r["traced"])
        if plain < MIN_RUNS:
            return False
        if trace and len(records) - plain < MIN_TRACED:
            return False
        return time.perf_counter() - started >= seconds

    while not enough():
        left = HARD_LIMIT_S - (time.perf_counter() - started)
        if left <= 0:
            break
        traced = trace and len(records) % 2 == 1
        records.append(run_child(workload, seed, traced, left))

    failed = failed_runs(records, runs_each)
    good = [r for r, f in zip(records, failed) if f == 0]
    plain = [r for r in good if not r["traced"]]
    traced_good = [r for r in good if r["traced"]]
    result = {
        "workload": workload,
        "seed": seed,
        "records": records,
        "failed_per_record": failed,
        "attempted": runs_each * len(records),
        "failed": sum(failed),
        "plain": plain,
        "e2e": {name: [r[name] for r in plain] for name, _unit in END_TO_END},
    }
    if trace and plain and traced_good:
        layers = {}
        for name, first in traced_good[0]["layers"].items():
            layers[name] = (_median([r["layers"][name] for r in traced_good])
                            if layer_unit(name) == "s" else first)
        run_s = _median([r["run_s"] for r in plain])
        events = traced_good[0]["layers"]["engine.events"]
        layers["engine.ns_per_event"] = run_s / events * 1e9 if events else 0.0
        layers["proc.cpu_s"] = _median([r["cpu_s"] for r in plain])
        layers["proc.import_s"] = _median([r["import_s"] for r in plain])
        layers["proc.raw_wall_s"] = _median([r["raw"]["wall_s"] for r in plain])
        layers["host.speed"] = _median([r["host_speed"] for r in plain])
        layers["trace.overhead_ratio"] = (_median([r["wall_s"] for r in traced_good])
                                          / layers["proc.raw_wall_s"])
        result["layers"] = layers
    return result


def baseline_digests() -> dict:
    if not BASELINE.is_file():
        return {}
    return json.loads(BASELINE.read_text()).get("digests", {})


def describe(result: dict) -> list[str]:
    """Human-readable lines: metrics with units, digests, and the verdict."""
    wl, seed = result["workload"], result["seed"]
    n = len(result["records"])
    attempted, failed = result["attempted"], result["failed"]
    lines = [f"== {wl} (seed {seed}): {n} processes, {attempted} runs attempted, "
             f"{failed} failed, failed_ratio {failed / attempted if attempted else 0:.4f}"]
    for name, unit in END_TO_END:
        vals = result["e2e"][name]
        if vals:
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
            raw = [r["raw"][name] for r in result["plain"]] if name in RAW_NAMES else []
            lines.append(f"  {name:<12} {statistics.median(vals):10.4f} {unit:<3} "
                         f"(q1 {q[0]:.4f}, q3 {q[2]:.4f}, n={len(vals)})"
                         + (f" raw {statistics.median(raw):.4f} {unit}" if raw else ""))
    recorded = baseline_digests().get(wl, {})
    done = next((r for r, f in zip(result["records"], result["failed_per_record"]) if f == 0), None)
    for run in (done or {}).get("runs", ()):
        pinned = recorded.get(str(run["seed"]))
        note = ("no baseline digest" if pinned is None else
                "matches baseline" if pinned == run["sha256"] else
                f"behaviour changed: baseline was {pinned[:16]}")
        lines.append(f"  report sha256 seed {run['seed']}: {run['sha256']} ({note})")
    for rec, f in zip(result["records"], result["failed_per_record"]):
        if f:
            why = rec.get("error") or f"exit code {rec.get('exit_code')}, digests or counts disagree"
            lines.append(f"  FAILED {f} run(s): {why.strip().splitlines()[-1]}")
    if "layers" in result:
        for name, value in result["layers"].items():
            lines.append(f"  {name} = {value}")
    lines.append(f"  verdict: {'correct' if failed == 0 else 'INCORRECT'}")
    return lines


def result_line(results: list[dict], trace: bool) -> tuple[dict, bool]:
    """The final JSON object; metric names carry the workload when there are several."""
    metrics = {}
    complete = True
    for res in results:
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        if trace:
            layers = res.get("layers")
            complete &= layers is not None
            for name, value in (layers or {}).items():
                metrics[prefix + name] = {"value": value, "unit": layer_unit(name)}
        else:
            for name, unit in END_TO_END:
                vals = res["e2e"][name]
                complete &= bool(vals)
                if vals:
                    metrics[prefix + name] = {"value": statistics.median(vals), "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    out = {"correct": failed == 0 and complete, "attempted": attempted, "failed": failed,
           "metrics": metrics if complete else {}}
    return out, complete


def layer_unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:  # engine.handler_s.<kind> is a time too
        return "s"
    if name.endswith("_ratio") or name == "host.speed":
        return "ratio"
    if name == "engine.ns_per_event":
        return "ns"
    if name == "metrics.report_bytes":
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="twinslice benchmark")
    ap.add_argument("--workload", default="all", choices=inputs.WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    default=json.loads(BENCHMARK.read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    problem = checkout_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    names = inputs.WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    for res in results:
        print("\n".join(describe(res)))
    out, complete = result_line(results, bool(args.trace))
    print(json.dumps(out))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
