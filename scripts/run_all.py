#!/usr/bin/env python3
"""Run every bundled scenario and print a one-line summary per file.

Exits with the worst per-run code, so CI can gate on contract regressions
across the whole bundle. Note that two bundled scenarios exist precisely
to violate their contracts; pass --expect-violations to treat exit code 1
as in-family and only fail on usage or scenario errors.
"""

import argparse
import sys
import time
from pathlib import Path

from twinslice.scenario import ScenarioError, load_scenario, run_errors
from twinslice.sim import run_scenario

DEFAULT_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dir", type=Path, default=DEFAULT_DIR)
    ap.add_argument("--seed", type=int, default=None, help="override every master seed")
    ap.add_argument("--expect-violations", action="store_true")
    args = ap.parse_args()
    # The override is checked before the first run prints; each file's own seed and horizon when it loads.
    if args.seed is not None and (errors := run_errors(args.seed, None)):
        for err in errors:
            print(f"error: {err}", file=sys.stderr)
        return 2

    paths = sorted(args.dir.glob("*.scn"))
    if not paths:
        print(f"no .scn files under {args.dir}")
        return 2

    worst = 0
    for path in paths:
        try:
            scenario = load_scenario(path)
        except ScenarioError as exc:
            print(f"{path.name}: invalid ({exc})")
            worst = max(worst, 2)
            continue
        t0 = time.perf_counter()
        result = run_scenario(scenario, seed=args.seed)
        wall = time.perf_counter() - t0
        bad = [name for name, row in result.report["slices"].items()
               if row["verdict"].startswith("violated")]
        verdict = f"violated: {', '.join(bad)}" if bad else "ok"
        print(f"{path.name}: {verdict} exit={result.exit_code} "
              f"events={result.report['run']['events_processed']} wall={wall:.2f}s")
        worst = max(worst, 0 if args.expect_violations and result.exit_code == 1
                    else result.exit_code)
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
