#!/usr/bin/env python3
"""Count where a benchmark workload's full garbage collections land.

    python3 scripts/gc_phases.py --workload fleet --seeds 3 4

For each seed, a fresh process runs `perfbench/child.py`'s `measure` on the
workload, untraced, exactly as the benchmark does. A `gc.callbacks` hook
notes the start and end of every collection. Each generation-2 collection
is classified by its start and the phase intervals that `measure` records:
setup, run, report, after (past the last phase), or other (before the first
phase or between two). One line per seed prints those counts, then the
milliseconds the same collections took per phase, then `young_ms`, the
milliseconds of every generation-0 and generation-1 collection summed, and
last the run's `report_s` and `run_s` (reference seconds) and its peak RSS.
The milliseconds are raw host time, not scaled to the host's speed.

A change that adds long-lived objects can move a full collection into a
phase that a benchmark bound meters, while a direct timing shows nothing,
so run this on the parent and on the change. Run it from the root of a
checkout; it imports `src/` and `perfbench/` and changes neither.

    python3 scripts/gc_phases.py --workload fleet --seeds 3 4 --expect 3/0/0/1

`--expect S/R/P/A` gives the counts each seed must show in setup, run,
report and after; the script names each seed and phase that differs, on
stderr, and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PHASES = ("setup_s", "run_s", "report_s")
COLUMNS = ("setup", "run", "report", "after", "other")


def classify(t: float, intervals: dict[str, list[tuple[float, float]]]) -> str:
    for phase in PHASES:
        if any(a <= t <= b for a, b in intervals[phase]):
            return phase[:-2]
    ends = [b for phase in PHASES for _a, b in intervals[phase]]
    return "after" if ends and t > max(ends) else "other"


def one_seed(workload: str, seed: int) -> dict:
    """Measure one run in this process and count its gen-2 collections per phase."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import child
    import inputs

    made: list[child.Phases] = []

    class KeptPhases(child.Phases):
        def __init__(self) -> None:
            super().__init__()
            made.append(self)

    child.Phases = KeptPhases
    full: list[tuple[float, float]] = []  # (start, seconds) of each gen-2 collection
    young = began = 0.0  # seconds in gen-0 and gen-1 collections; the current one's start

    def hook(stage: str, info: dict) -> None:
        nonlocal young, began
        now = perf_counter()
        if stage == "start":
            began = now
        elif info["generation"] == 2:
            full.append((began, now - began))
        else:
            young += now - began

    with tempfile.TemporaryDirectory() as scratch:
        if workload == "contended":
            inputs.contended_path(Path(scratch), seed).write_bytes(inputs.contended_bytes(seed))
        gc.callbacks.append(hook)
        try:
            record = child.measure(workload, seed, False, Path(scratch))
        finally:
            gc.callbacks.remove(hook)
    counts = dict.fromkeys(COLUMNS, 0)
    ms = dict.fromkeys(COLUMNS, 0.0)
    for t, took in full:
        phase = classify(t, made[0].intervals)
        counts[phase] += 1
        ms[phase] += took * 1e3
    return {"seed": seed, "error": record["error"], **counts,
            "ms": ms, "young_ms": young * 1e3,
            "report_s": record["report_s"], "run_s": record["run_s"],
            "peak_rss_mb": record["peak_rss_mb"]}


def expected_counts(text: str) -> dict[str, int]:
    """`S/R/P/A` as the counts it expects per phase."""
    cells = text.split("/")
    if len(cells) != 4 or not all(c.isdigit() for c in cells):
        raise argparse.ArgumentTypeError(f"want four counts as S/R/P/A, not {text!r}")
    return dict(zip(("setup", "run", "report", "after"), map(int, cells)))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="fleet", choices=("fleet", "contended", "sweep"))
    ap.add_argument("--seeds", type=int, nargs="+", default=[3, 4])
    ap.add_argument("--expect", type=expected_counts, metavar="S/R/P/A",
                    help="exit 1 unless each seed shows these setup/run/report/after counts")
    ap.add_argument("--one", type=int, help=argparse.SUPPRESS)  # the per-seed child process
    args = ap.parse_args(argv)
    if args.one is not None:
        print(json.dumps(one_seed(args.workload, args.one)))
        return 0

    print(f"workload {args.workload}: gen-2 collections per phase, then their milliseconds")
    print(f"{'seed':>6} " + " ".join(f"{c:>6}" for c in COLUMNS)
          + " " + " ".join(f"{c + '_ms':>9}" for c in COLUMNS)
          + f" {'young_ms':>9} {'report_s':>9} {'run_s':>7} {'peak_rss_mb':>12}")
    status = 0
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, __file__, "--workload", args.workload,
                               "--one", str(seed)],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        row = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if row is None or row["error"]:
            print(f"seed {seed}: failed\n{row['error'] if row else proc.stderr}", file=sys.stderr)
            status = 1
            continue
        print(f"{seed:>6} " + " ".join(f"{row[c]:>6}" for c in COLUMNS)
              + " " + " ".join(f"{row['ms'][c]:>9.1f}" for c in COLUMNS)
              + f" {row['young_ms']:>9.1f} {row['report_s']:>9.3f} {row['run_s']:>7.3f}"
              + f" {row['peak_rss_mb']:>12.1f}")
        for phase, want in (args.expect or {}).items():
            if row[phase] != want:
                print(f"seed {seed}: {row[phase]} full collections in {phase}, expected {want}",
                      file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
