"""Delay histograms, per-slice accounting, and report emission.

Delay samples are integer nanoseconds. Histogram bins are log-spaced from
1 us up past 2**63 ns with 20 bins per decade, plus one underflow bin below
1 us, so every delay has a bin of bounded relative width, percentile queries
are O(bins) and reports stay compact at any sample volume. Exact running
count, sum and max are kept alongside the bins. Each flow keeps one ledger;
a slice's totals are the merge of its flows' ledgers, built at report time.

JSON reports are rendered by `to_json_bytes`, one flat recursive pass that
returns each container's text as one string. Its bytes are exactly those of
`json.dumps(report, indent=2) + "\n"`: indent 2, ASCII-escaped strings and
keys, `repr` digits for numbers. `json.dumps` with an indent always takes
the stdlib's pure-Python generator chain, which is slower and peaks at
several times the output size. A value that writes its own text, through a
`json_text(indent)` method, is rendered by that method: the report's twins
section is written so, row by row from the run's twins, with no dict built
per twin; every other section goes through the flat pass.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

BINS_PER_DECADE = 20
_LO = 1_000  # 1 us in ns
_DECADES = 16

# EDGES[0] = 1 us ... EDGES[160] = 100 s ... EDGES[320] = 1e19 ns > 2**63 ns;
# bin k covers [EDGES[k-1], EDGES[k]) and key 0 is the underflow bin.
EDGES: list[int] = [
    round(_LO * 10 ** (i / BINS_PER_DECADE)) for i in range(_DECADES * BINS_PER_DECADE + 1)
]
# Every delay, RTT and age is at most the run horizon, so a horizon below
# this bound (< EDGES[-1]) gives every sample a bin.
HORIZON_LIMIT = 2**63


class NegativeDelay(Exception):
    """A frame was recorded as delivered before it was created."""


class EmptyHistogram(Exception):
    """Percentile requested from a histogram with no samples."""


class DelayHistogram:
    """Sparse log-binned histogram with exact running moments."""

    __slots__ = ("count", "total", "max_value", "_bins")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.max_value = 0
        self._bins: dict[int, int] = {}

    def add(self, sample: int) -> None:
        if sample < 0:
            raise NegativeDelay(f"delay sample {sample} ns is negative")
        if sample > self.max_value:
            self.max_value = sample
        self.count += 1
        self.total += sample
        key = bisect_right(EDGES, sample)
        self._bins[key] = self._bins.get(key, 0) + 1

    def merge(self, other: DelayHistogram) -> None:
        """Add other's samples, exactly as if each had been added here."""
        self.count += other.count
        self.total += other.total
        self.max_value = max(self.max_value, other.max_value)
        for key, n in other._bins.items():
            self._bins[key] = self._bins.get(key, 0) + n

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> int:
        """Nearest-rank percentile, reported as the covering bin's upper edge.

        The result is conservative: always >= the exact percentile and within
        one bin width of it; the underflow bin reports its upper edge (1 us).
        """
        if self.count == 0:
            raise EmptyHistogram("no samples recorded")
        rank = max(1, math.ceil(p * self.count))
        cum = 0
        for key in sorted(self._bins):
            cum += self._bins[key]
            if cum >= rank:
                return EDGES[key]
        return self.max_value


@dataclass
class TrafficStats:
    """Counters plus delay histogram for one flow, or merged for one slice."""

    sent: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_queue: int = 0
    dropped_fault: int = 0
    payload_bits: int = 0
    energy_nj: int = 0
    hist: DelayHistogram = field(default_factory=DelayHistogram)

    def record_drop(self, cause: str) -> None:
        if cause == "loss":
            self.dropped_loss += 1
        elif cause == "queue":
            self.dropped_queue += 1
        elif cause == "fault":
            self.dropped_fault += 1
        else:
            raise ValueError(f"unknown drop cause {cause!r}")

    def merge(self, other: TrafficStats) -> None:
        """Add other's counts and delays to this ledger."""
        self.sent += other.sent
        self.delivered += other.delivered
        self.dropped_loss += other.dropped_loss
        self.dropped_queue += other.dropped_queue
        self.dropped_fault += other.dropped_fault
        self.payload_bits += other.payload_bits
        self.energy_nj += other.energy_nj
        self.hist.merge(other.hist)

    @property
    def in_flight(self) -> int:
        return self.sent - self.delivered - self.dropped_loss - self.dropped_queue - self.dropped_fault

    @property
    def reliability(self) -> float:
        # Vacuously 1 when nothing was sent; the verdict is no-data then anyway.
        return self.delivered / self.sent if self.sent else 1.0


def fmt6(x: float) -> float:
    """Quantize a float to 6 significant digits for stable report bytes."""
    return float(f"{x:.6g}")


def to_json_bytes(report: dict) -> bytes:
    """`report` as the bytes of `json.dumps(report, indent=2) + "\n"`."""
    return (_render(report, "") + "\n").encode("ascii")


# float.__repr__ of the values json writes as bare words.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def float_text(value: float) -> str:
    """The JSON text of a float: its `repr` digits, or NaN and Infinity as json writes them."""
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)


# json renders a subclass of one of its types as that type.
_BASES = ((str, str.__str__), (int, int.__int__), (float, float.__float__),
          (dict, dict), ((list, tuple), list))


def _render(value: object, indent: str) -> str:
    """The indent-2 JSON text of value, whose own line starts at `indent`.

    Dict keys go through the C escaper, which raises TypeError for any key
    that is not a str (json itself would turn int, float, bool and None keys
    into strings; a report never has them). A value of no JSON kind that has
    a `json_text` method is written by that method.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float:
        return float_text(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        body = (",\n" + inner).join(
            [f"{encode_basestring_ascii(k)}: {_render(v, inner)}" for k, v in value.items()])
        return f"{{\n{inner}{body}\n{indent}}}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        body = (",\n" + inner).join([_render(v, inner) for v in value])
        return f"[\n{inner}{body}\n{indent}]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    json_text = getattr(value, "json_text", None)
    if json_text is not None:
        return json_text(indent)
    for base, cast in _BASES:
        if isinstance(value, base):
            return _render(cast(value), indent)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


CSV_COLUMNS = (
    "slice",
    "sent",
    "delivered",
    "dropped_loss",
    "dropped_queue",
    "dropped_fault",
    "mean_delay_ns",
    "p50_ns",
    "p99_ns",
    "max_ns",
    "throughput_bps",
    "reliability",
    "verdict",
)


def to_csv_bytes(slice_rows: list[dict]) -> bytes:
    lines = [",".join(CSV_COLUMNS)]
    for row in slice_rows:
        lines.append(",".join(str(row[c]) for c in CSV_COLUMNS))
    return ("\n".join(lines) + "\n").encode("utf-8")
