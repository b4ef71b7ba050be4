"""Command line front end: validate scenarios, run them, sweep seeds.

Exit codes: 0 when every checked contract is met (or no data), 1 when the
run completed but at least one slice contract is violated, 2 on usage or
scenario errors. Report bytes go to stdout (or --out files); wall clock
timing and diagnostics go to stderr so stdout stays byte-deterministic.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
from pathlib import Path
from typing import Optional, TextIO

from .metrics import fmt6, to_json_bytes
from .scenario import Scenario, ScenarioError, load_scenario, parse_duration, run_errors
from .sim import RunResult, run_scenario


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("scenario", help="path to a scenario file")
    p.add_argument("--out", metavar="DIR", help="write reports into DIR instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinslice",
        description="Deterministic sliced-network simulator for hierarchical digital twins.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a scenario file, reporting every error")
    v.add_argument("scenario", help="path to a scenario file")

    r = sub.add_parser("run", help="execute one run and emit its report")
    _add_common(r)
    r.add_argument("--seed", type=int, default=None, help="override the scenario master seed")
    r.add_argument("--until", default=None, metavar="DUR",
                   help="override the run horizon (e.g. 5s, 250ms)")
    r.add_argument("--format", choices=["json", "csv", "both"], default=None,
                   help="report format (default: scenario setting)")

    s = sub.add_parser("sweep", help="run the same scenario across several seeds")
    _add_common(s)
    s.add_argument("--seeds", required=True, metavar="A,B,C",
                   help="comma separated master seeds, one run each")
    s.add_argument("--until", default=None, metavar="DUR",
                   help="override the run horizon for every run")
    return parser


def _fail(errors: list[str], tail: Optional[str] = None, out: Optional[TextIO] = None) -> int:
    """Print each error, then an optional summary line, to out (stderr by default).

    Returns exit code 2.
    """
    stream = sys.stderr if out is None else out
    for err in errors:
        print(f"error: {err}", file=stream)
    if tail is not None:
        print(tail, file=stream)
    return 2


def _load(path: str, listing: bool = False) -> Optional[Scenario]:
    """Load a scenario, or print why it cannot be loaded and return None.

    With `listing` (validate), scenario errors are the command's output, on stdout.
    """
    try:
        return load_scenario(path)
    except FileNotFoundError:
        _fail([f"no such file: {path}"])
    except OSError as exc:
        _fail([f"cannot read {path}: {exc.strerror or exc}"])
    except ScenarioError as exc:
        where = "" if listing else f" in {path}"
        _fail(exc.errors, f"{len(exc.errors)} error(s){where}", sys.stdout if listing else None)
    return None


def _horizon(until: Optional[str]) -> Optional[int]:
    """The --until override in ns; raises ScenarioError when it does not parse."""
    return None if until is None else parse_duration(until, "--until")


def _emit(result: RunResult, formats: list[str], out: Optional[str], stem: str,
          suffix: str = "", report: Optional[bytes] = None) -> None:
    """Write the result in each format; `report` is its JSON bytes if already rendered."""
    payloads = {}
    if "json" in formats:
        payloads["json"] = report or result.json_bytes()
    if "csv" in formats:
        payloads["csv"] = result.csv_bytes()
    if out is None:
        for data in payloads.values():
            sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        return
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    for ext, data in payloads.items():
        target = outdir / f"{stem}{suffix}.{ext}"
        target.write_bytes(data)
        print(f"wrote {target}", file=sys.stderr)


def _sweep_summary(scn, seeds: list[int], runs: list[dict]) -> dict:
    """Aggregate slice metrics across seeds: mean, min, max per metric.

    `runs` holds each seed's report "slices" section. With a single seed the
    summary collapses to that report's values. Non-numeric columns (slice
    name, verdict) are excluded; verdicts are tallied instead.
    """
    slices: dict = {}
    verdicts: dict = {}
    for name in runs[0]:
        rows = [run[name] for run in runs]
        agg = {}
        for key, first in rows[0].items():
            if not isinstance(first, (int, float)) or isinstance(first, bool):
                continue
            vals = [row[key] for row in rows]
            agg[key] = {
                "mean": fmt6(math.fsum(vals) / len(vals)),
                "min": min(vals),
                "max": max(vals),
            }
        slices[name] = agg
        tally: dict = {}
        for row in rows:
            tally[row["verdict"]] = tally.get(row["verdict"], 0) + 1
        verdicts[name] = dict(sorted(tally.items()))
    return {
        "scenario": {"name": scn.name, "digest": scn.digest},
        "seeds": seeds,
        "runs": len(runs),
        "slices": slices,
        "verdicts": verdicts,
    }


def cmd_validate(args: argparse.Namespace) -> int:
    scn = _load(args.scenario, listing=True)
    if scn is None:
        return 2
    print(f"ok: {scn.name} (digest {scn.digest[:12]})")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    scn = _load(args.scenario)
    if scn is None:
        return 2
    started = time.perf_counter()
    result = run_scenario(scn, seed=args.seed, t_end=_horizon(args.until))
    elapsed = time.perf_counter() - started
    formats = scn.formats if args.format is None else (
        ["json", "csv"] if args.format == "both" else [args.format]
    )
    out = args.out if args.out is not None else scn.out
    _emit(result, formats, out, Path(args.scenario).stem)
    events = result.report["run"]["events_processed"]
    print(f"run finished: {events} events in {elapsed:.3f}s wall", file=sys.stderr)
    return result.exit_code


def cmd_sweep(args: argparse.Namespace) -> int:
    scn = _load(args.scenario)
    if scn is None:
        return 2
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError:
        return _fail(["--seeds must be a comma separated list of integers"])
    if not seeds:
        return _fail(["--seeds must name at least one seed"])
    # Every seed and the horizon are checked before the first run prints.
    t_end = _horizon(args.until)
    errors = dict.fromkeys(e for seed in seeds for e in run_errors(seed, t_end))
    if errors:
        return _fail(list(errors))
    stem = Path(args.scenario).stem
    out = args.out if args.out is not None else scn.out
    worst = 0
    runs = []
    for seed in seeds:
        started = time.perf_counter()
        result = run_scenario(scn, seed=seed, t_end=t_end)
        elapsed = time.perf_counter() - started
        report = result.json_bytes()
        if out is not None:
            _emit(result, scn.formats, out, stem, suffix=f".seed{seed}", report=report)
        digest = hashlib.sha256(report).hexdigest()[:12]
        verdict = "violated" if result.violated else "ok"
        events = result.report["run"]["events_processed"]
        print(f"seed {seed}: {verdict} events={events} report={digest}")
        print(f"seed {seed} finished in {elapsed:.3f}s wall", file=sys.stderr)
        worst = max(worst, result.exit_code)
        runs.append(result.report["slices"])  # all that the summary reads
        del result, report  # so that a sweep holds one run at a time
    summary = to_json_bytes(_sweep_summary(scn, seeds, runs))
    if out is not None:
        target = Path(out) / f"{stem}.summary.json"
        target.write_bytes(summary)
        print(f"wrote {target}", file=sys.stderr)
    else:
        sys.stdout.buffer.write(summary)
        sys.stdout.buffer.flush()
    return worst


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args)
    try:
        return cmd_run(args) if args.command == "run" else cmd_sweep(args)
    except ScenarioError as exc:  # a bad --seed or --until override
        return _fail(exc.errors)


if __name__ == "__main__":
    sys.exit(main())
