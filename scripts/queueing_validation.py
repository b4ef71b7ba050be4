#!/usr/bin/env python3
"""Sweep a single bottleneck queue across utilizations and compare the
measured mean sojourn against the M/M/1 prediction W = 1/(mu - lambda).

Service is an exponentially distributed frame size drained at line rate,
arrivals are Poisson, and everything runs on integer ticks from seeded
streams, so a given argument set reproduces its table exactly.

With --priority the same drain serves two Poisson classes, ERLLC with strict
priority and umMTC under WDRR, and each class's mean wait (sojourn less its
own service time) is compared with Cobham's non-preemptive priority M/G/1
result W_k = W0 / ((1 - sigma_{k-1}) (1 - sigma_k)), where
W0 = sum_i lambda_i E[S_i^2] / 2 and sigma_k is the load of classes 1..k.
"""

import argparse
import functools
import time

from twinslice.engine import Engine, EventKind, fork_rng
from twinslice.network import Frame, Link, NetworkService, Node, NodeKind, Topology, tx_ticks
from twinslice.slices import Flow, SliceClass

RATE_BPS = 10**9
MEAN_FRAME_BYTES = 1250  # 10us mean service at 1 Gb/s, so mu = 100k frames/s
SERVICE_NS = MEAN_FRAME_BYTES * 8


def bottleneck(seed: int, deliver, drop) -> tuple[Engine, NetworkService]:
    """An engine and a network whose one queue is device 2's 1 Gb/s uplink to edge 1."""
    nodes = [Node(0, NodeKind.CORE), Node(1, NodeKind.EDGE), Node(2, NodeKind.DEVICE)]
    links = [
        Link(0, 1, 0, RATE_BPS, 1000),
        Link(1, 2, 1, RATE_BPS, 0, queue_cap=1 << 62),
    ]
    eng = Engine()
    net = NetworkService(eng, Topology(nodes, links),
                         functools.partial(fork_rng, seed), deliver, drop)
    return eng, net


def simulate(rho: float, frames: int, seed: int) -> dict:
    gap_ns = SERVICE_NS / rho
    tally = {"sojourn": 0, "delivered": 0, "dropped": 0, "emitted": 0}

    def deliver(frame, now):
        tally["delivered"] += 1
        tally["sojourn"] += now - frame.created_at

    def drop(frame, cause, now):
        tally["dropped"] += 1

    eng, net = bottleneck(seed, deliver, drop)
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


# Served first to last: the strict-priority class, then one WDRR class.
PRIORITY_CLASSES = (SliceClass.ERLLC, SliceClass.UMMTC)


def simulate_priority(rhos: tuple[float, float], frames: int, seed: int) -> dict:
    """Poisson arrivals of each class in PRIORITY_CLASSES at load rhos[k], with
    exponential sizes of one mean, until `frames` have been emitted in all.
    Returns each class's tally; its "wait" sums sojourn less service time."""
    tallies = {cls: {"wait": 0, "delivered": 0, "dropped": 0} for cls in PRIORITY_CLASSES}
    emitted = 0

    def deliver(frame, now):
        tally = tallies[frame.flow.slice_cls]
        tally["delivered"] += 1
        tally["wait"] += now - frame.created_at - tx_ticks(frame.total_bytes, RATE_BPS)

    def drop(frame, cause, now):
        tallies[frame.flow.slice_cls]["dropped"] += 1

    eng, net = bottleneck(seed, deliver, drop)

    def source(cls: SliceClass, rho: float):
        flow = Flow(f"probe.{cls.value}", cls, 2, 1, 0)
        sizes = fork_rng(seed, f"service:{cls.value}")
        gaps = fork_rng(seed, f"arrivals:{cls.value}")
        gap_ns = SERVICE_NS / rho

        def arrival(now):
            nonlocal emitted
            if emitted == frames:
                return
            b = sizes.exponential_ticks(MEAN_FRAME_BYTES)
            net.inject(Frame(flow, b, b, now), now)
            emitted += 1
            eng.schedule(now + gaps.exponential_ticks(gap_ns), EventKind.TRAFFIC_ARRIVAL, arrival)

        return arrival

    eng.on(EventKind.TRAFFIC_ARRIVAL, lambda arrival, now: arrival(now))
    for cls, rho in zip(PRIORITY_CLASSES, rhos):
        eng.schedule(0, EventKind.TRAFFIC_ARRIVAL, source(cls, rho))
    eng.run_until(1 << 62)
    return tallies


def cobham_waits(rhos: tuple[float, ...]) -> list[float]:
    """Mean wait in ns of each priority class, highest first, for exponential
    sizes of mean SERVICE_NS: E[S^2] = 2 S^2, so W0 = S * sum(rhos)."""
    w0 = SERVICE_NS * sum(rhos)
    waits, sigma = [], 0.0
    for rho in rhos:
        waits.append(w0 / ((1.0 - sigma) * (1.0 - sigma - rho)))
        sigma += rho
    return waits


def priority_table(rhos: tuple[float, float], frames: int, seed: int) -> None:
    """Print measured against analytic mean wait per class."""
    t0 = time.perf_counter()
    tallies = simulate_priority(rhos, frames, seed)
    wall = time.perf_counter() - t0
    print(f"strict priority: loads {rhos[0]:.2f} and {rhos[1]:.2f}, {frames} frames, seed {seed}")
    print(f"{'class':>6} {'rho':>5} {'measured us':>12} {'analytic us':>12} {'rel err':>8} {'drops':>6}")
    worst = 0.0
    for (cls, tally), rho, analytic in zip(tallies.items(), rhos, cobham_waits(rhos)):
        measured = tally["wait"] / tally["delivered"]
        err = abs(measured - analytic) / analytic
        worst = max(worst, err)
        print(f"{cls.value:>6} {rho:>5.2f} {measured / 1000:>12.3f} {analytic / 1000:>12.3f} "
              f"{err:>7.2%} {tally['dropped']:>6}")
    print(f"worst relative error: {worst:.2%} ({wall:.2f} s)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--frames", type=int, default=200_000, help="frames per point")
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--rho", type=float, nargs="+", default=[0.3, 0.5, 0.7, 0.8, 0.9])
    ap.add_argument("--priority", type=float, nargs=2, metavar=("RHO_ERLLC", "RHO_UMMTC"),
                    help="check two strict-priority classes at these loads instead")
    args = ap.parse_args()
    if args.priority:
        priority_table(tuple(args.priority), args.frames, args.seed)
        return 0

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
