"""Run the benchmark once per seed and report each metric's spread across seeds.

    python3 perfbench/spread.py --workloads fleet,contended,sweep --seeds 1-10 --out spread.jsonl

For every workload and end-to-end metric it prints the median of the
per-seed values and the distance between their first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median: the figure
a metric's bound in BENCHMARK.json has to cover. Each invocation's result
line and the lines before it are appended to --out, if given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="fleet,contended,sweep")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int,
                    default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"]
              for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=False)
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(line)
            if args.out:
                with args.out.open("a") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed, "result": result,
                                         "lines": proc.stdout.splitlines()[:-1]}) + "\n")
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {proc.returncode}, correct={result.get('correct')}")
                ok = False
            for name, metric in result.get("metrics", {}).items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound {bound} ({spread / bound:.2f} of it)"
            print(f"{workload:<10} {name:<24} median {med:.6g} spread {spread:.4f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
