#!/usr/bin/env python3
"""Show the egress scheduler's byte shares under full backlog.

All four weighted classes stay backlogged with equal-size frames while the
queue is popped N times, so the byte shares should land on the configured
8:4:2:1 weights. Halfway through, one urgent low-latency frame is pushed
and the demo reports how quickly it left the queue (it must be next).
"""

import argparse

from twinslice.network import Frame
from twinslice.slices import WDRR_ORDER, WDRR_WEIGHTS, Flow, LinkQueue, SliceClass


def mkframe(cls: SliceClass, tag: str, size: int) -> Frame:
    return Frame(Flow(tag, cls, 0, 1, 0), size, size, 0)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pops", type=int, default=90_000)
    ap.add_argument("--frame-bytes", type=int, default=256)
    args = ap.parse_args()

    q = LinkQueue(1024)
    for i in range(16):
        for cls in WDRR_ORDER:
            q.push(mkframe(cls, f"seed{i}", args.frame_bytes))

    shares = {cls: 0 for cls in WDRR_ORDER}
    urgent_at = args.pops // 2
    for i in range(args.pops):
        if i == urgent_at:
            q.push(mkframe(SliceClass.ERLLC, "urgent", args.frame_bytes))
        frame = q.pop()
        cls = frame.flow.slice_cls
        if cls is SliceClass.ERLLC:
            print(f"urgent frame pushed before pop {urgent_at}, dequeued at pop {i}")
            continue
        shares[cls] += frame.total_bytes
        q.push(mkframe(cls, f"refill{i}", args.frame_bytes))

    total = sum(shares.values())
    weight_total = sum(WDRR_WEIGHTS.values())
    print(f"{'class':>6} {'weight':>6} {'bytes':>12} {'share':>8} {'target':>8}")
    for cls in WDRR_ORDER:
        target = WDRR_WEIGHTS[cls] / weight_total
        print(f"{cls.value:>6} {WDRR_WEIGHTS[cls]:>6} {shares[cls]:>12} "
              f"{shares[cls] / total:>8.4f} {target:>8.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
