#!/usr/bin/env python3
"""Sweep a single bottleneck queue across utilizations and compare the
measured mean sojourn against the M/M/1 prediction W = 1/(mu - lambda).

Service is an exponentially distributed frame size drained at line rate,
arrivals are Poisson, and everything runs on integer ticks from seeded
streams, so a given argument set reproduces its table exactly.
"""

import argparse
import functools
import time

from twinslice.engine import Engine, EventKind, fork_rng
from twinslice.network import Frame, Link, NetworkService, Node, NodeKind, Topology
from twinslice.slices import Flow, SliceClass

RATE_BPS = 10**9
MEAN_FRAME_BYTES = 1250  # 10us mean service at 1 Gb/s, so mu = 100k frames/s
SERVICE_NS = MEAN_FRAME_BYTES * 8


def simulate(rho: float, frames: int, seed: int) -> dict:
    nodes = [Node(0, NodeKind.CORE), Node(1, NodeKind.EDGE), Node(2, NodeKind.DEVICE)]
    links = [
        Link(0, 1, 0, RATE_BPS, 1000),
        Link(1, 2, 1, RATE_BPS, 0, queue_cap=4 * frames),
    ]
    topo = Topology(nodes, links)
    eng = Engine()
    gap_ns = SERVICE_NS / rho
    tally = {"sojourn": 0, "delivered": 0, "dropped": 0, "emitted": 0}

    def deliver(frame, now):
        tally["delivered"] += 1
        tally["sojourn"] += now - frame.created_at

    def drop(frame, cause, now):
        tally["dropped"] += 1

    net = NetworkService(eng, topo, functools.cache(lambda label: fork_rng(seed, label)), deliver,
                         drop)
    sizes = fork_rng(seed, "service")
    gaps = fork_rng(seed, "arrivals")
    probe = Flow("probe", SliceClass.UMMTC, 2, 1, 0)

    def arrival(payload, now):
        b = sizes.exponential_ticks(MEAN_FRAME_BYTES)
        net.inject(Frame(probe, b, b, now), now)
        tally["emitted"] += 1
        if tally["emitted"] < frames:
            eng.schedule(now + gaps.exponential_ticks(gap_ns), EventKind.TRAFFIC_ARRIVAL, None)

    eng.on(EventKind.TRAFFIC_ARRIVAL, arrival)
    eng.schedule(0, EventKind.TRAFFIC_ARRIVAL, None)
    eng.run_until(1 << 62)
    return tally


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--frames", type=int, default=200_000, help="frames per point")
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--rho", type=float, nargs="+", default=[0.3, 0.5, 0.7, 0.8, 0.9])
    args = ap.parse_args()

    print(f"mu = {10**9 // SERVICE_NS} frames/s, {args.frames} frames per point, seed {args.seed}")
    print(f"{'rho':>5} {'measured us':>12} {'analytic us':>12} {'rel err':>8} {'drops':>6} {'wall s':>7}")
    worst = 0.0
    for rho in args.rho:
        t0 = time.perf_counter()
        tally = simulate(rho, args.frames, args.seed)
        wall = time.perf_counter() - t0
        measured = tally["sojourn"] / tally["delivered"]
        analytic = SERVICE_NS / (1.0 - rho)
        err = abs(measured - analytic) / analytic
        worst = max(worst, err)
        print(f"{rho:>5.2f} {measured / 1000:>12.3f} {analytic / 1000:>12.3f} "
              f"{err:>7.2%} {tally['dropped']:>6} {wall:>7.2f}")
    print(f"worst relative error: {worst:.2%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
