"""Histogram correctness against sort-based oracles, stats accounting, and
report rendering against `json.dumps` as the oracle."""

import enum
import json
import math
import tracemalloc
from bisect import bisect_right
from collections import OrderedDict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinslice.metrics import (
    EDGES,
    DelayHistogram,
    EmptyHistogram,
    NegativeDelay,
    TrafficStats,
    fmt6,
    to_json_bytes,
)
from twinslice.engine import MS, US


def bin_width_at(sample):
    """Width of the histogram bin holding sample; the underflow bin is 1 us wide."""
    key = bisect_right(EDGES, sample)
    return EDGES[key] - EDGES[key - 1] if key else EDGES[0]


def exact_percentile(samples, p):
    """Nearest-rank percentile on the raw samples (independent oracle)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[rank - 1]


class TestEdges:
    def test_edge_table_shape(self):
        assert len(EDGES) == 321
        assert EDGES[0] == 1_000
        assert EDGES[160] == 100_000_000_000
        assert EDGES[-1] > 2**63  # every int64 delay has a real bin
        assert all(a < b for a, b in zip(EDGES, EDGES[1:]))

    def test_twenty_bins_per_decade(self):
        assert EDGES[20] == 10_000
        assert EDGES[40] == 100_000


class TestHistogram:
    def test_small_example_p50(self):
        h = DelayHistogram()
        for v in (1 * MS, 2 * MS, 3 * MS, 4 * MS):
            h.add(v)
        # rank ceil(0.5*4)=2 -> sample 2ms -> upper edge of its bin
        want = EDGES[len([e for e in EDGES if e < 2 * MS])]
        got = h.percentile(0.5)
        assert got == want
        assert got >= 2 * MS
        assert got - 2 * MS <= bin_width_at(2 * MS)

    def test_singleton(self):
        h = DelayHistogram()
        h.add(5 * US)
        for p in (0.01, 0.5, 0.99, 1.0):
            got = h.percentile(p)
            assert got >= 5 * US
            assert got - 5 * US <= bin_width_at(5 * US)
        assert h.mean == h.max_value == 5 * US

    def test_underflow_bin_reports_its_edge(self):
        h = DelayHistogram()
        h.add(0)
        h.add(999)
        assert h.percentile(0.5) == EDGES[0]

    def test_delays_beyond_100s_have_real_bins(self):
        # Samples past 100 s once shared an overflow bin that reported the
        # running max, which overshot the exact percentile by more than the
        # zero width bin_width_at gave that bin.
        for samples, p in (([0] * 8 + [10**11, 10**11 + 1], 0.9),
                           ([150_000_000_000, 200_000_000_000], 0.99),
                           ([10**11, 2**63 - 1], 0.99)):
            h = DelayHistogram()
            for s in samples:
                h.add(s)
            want = exact_percentile(samples, p)
            assert want <= h.percentile(p) <= want + bin_width_at(want)

    def test_uniform_10k_within_one_bin_of_sort_oracle(self):
        # Deterministic spread over [1us, 10ms).
        samples = [1_000 + (i * 9_999_000) // 10_000 for i in range(10_000)]
        h = DelayHistogram()
        for s in samples:
            h.add(s)
        for p in (0.5, 0.9, 0.99, 0.999):
            want = exact_percentile(samples, p)
            got = h.percentile(p)
            assert got >= want, f"p{p}: histogram answer below exact"
            assert got - want <= bin_width_at(want)

    def test_exact_moments(self):
        h = DelayHistogram()
        vals = [3, 1, 4, 1, 5, 9, 2, 6]
        for v in vals:
            h.add(v)
        assert h.count == len(vals)
        assert h.total == sum(vals)
        assert h.max_value == max(vals)
        assert h.mean == sum(vals) / len(vals)

    def test_negative_delay_raises(self):
        h = DelayHistogram()
        with pytest.raises(NegativeDelay):
            h.add(-1)

    def test_empty_percentile_raises(self):
        h = DelayHistogram()
        with pytest.raises(EmptyHistogram):
            h.percentile(0.5)

    def test_empty_mean_is_zero(self):
        assert DelayHistogram().mean == 0.0

    @given(st.lists(st.integers(min_value=0, max_value=10**12), min_size=1, max_size=400),
           st.sampled_from([0.25, 0.5, 0.9, 0.99]))
    @example([0] * 8 + [10**11, 10**11 + 1], 0.9)
    @settings(max_examples=120, deadline=None)
    def test_percentile_faithful_property(self, samples, p):
        h = DelayHistogram()
        for s in samples:
            h.add(s)
        want = exact_percentile(samples, p)
        got = h.percentile(p)
        assert got >= want
        assert got - want <= bin_width_at(want)
        assert h.mean <= h.max_value

    @given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=200),
           st.integers(min_value=0, max_value=200))
    @example([], 0)
    @example([5, 7], 0)
    @example([5, 7], 2)
    @settings(max_examples=150, deadline=None)
    def test_merge_of_a_split_equals_one_histogram(self, samples, cut):
        """Split the samples anywhere, empty sides included; merged, the
        halves answer every query as one histogram fed them all does."""
        cut = min(cut, len(samples))
        whole, left, right = DelayHistogram(), DelayHistogram(), DelayHistogram()
        for s in samples:
            whole.add(s)
        for s in samples[:cut]:
            left.add(s)
        for s in samples[cut:]:
            right.add(s)
        left.merge(right)
        assert (left.count, left.total, left.max_value, left.mean) == (
            whole.count, whole.total, whole.max_value, whole.mean)
        for p in (0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0):
            if samples:
                assert left.percentile(p) == whole.percentile(p)
            else:
                with pytest.raises(EmptyHistogram):
                    left.percentile(p)


class TestTrafficStats:
    def test_drop_routing(self):
        t = TrafficStats()
        t.sent = 5
        for cause in ("loss", "queue", "fault", "loss"):
            t.record_drop(cause)
        assert (t.dropped_loss, t.dropped_queue, t.dropped_fault) == (2, 1, 1)
        assert t.in_flight == 1
        with pytest.raises(ValueError):
            t.record_drop("gremlins")

    def test_merge_adds_every_count(self):
        a, b = TrafficStats(), TrafficStats()
        a.sent, a.delivered, a.payload_bits, a.energy_nj = 5, 2, 80, 7
        b.sent, b.delivered, b.payload_bits, b.energy_nj = 4, 1, 16, 3
        for cause in ("loss", "queue"):
            a.record_drop(cause)
        for cause in ("fault", "loss"):
            b.record_drop(cause)
        a.hist.add(10)
        a.hist.add(30)
        b.hist.add(20)
        a.merge(b)
        assert (a.sent, a.delivered, a.payload_bits, a.energy_nj) == (9, 3, 96, 10)
        assert (a.dropped_loss, a.dropped_queue, a.dropped_fault, a.in_flight) == (2, 1, 1, 2)
        assert (a.hist.count, a.hist.total, a.hist.max_value) == (3, 60, 30)
        assert (b.sent, b.hist.count) == (4, 1)  # the merged ledger is left as it was

    def test_reliability(self):
        t = TrafficStats()
        assert t.reliability == 1.0  # vacuous
        t.sent, t.delivered = 8, 6
        assert t.reliability == 0.75


class TestFmt6:
    def test_quantizes_to_six_significant_digits(self):
        assert fmt6(1234567.89) == 1234570.0
        assert fmt6(0.000123456789) == 0.000123457
        assert fmt6(400640) == 400640.0

    def test_idempotent(self):
        for x in (1.23456789, 98765.4321, 3.0):
            assert fmt6(fmt6(x)) == fmt6(x)


def json_reference(tree) -> bytes:
    return (json.dumps(tree, indent=2) + "\n").encode()


# Strings and keys: any code point, with the ones json escapes drawn often
# (quote, backslash, control characters, DEL, a lone surrogate, non-ASCII).
TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\u2028\ud800\xe9\u20ac\U0001f600'),
                         st.characters()), max_size=6)
LEAVES = st.one_of(
    st.none(), st.booleans(), TEXT,
    st.integers(-(2**80), 2**80),
    st.floats(),
    st.sampled_from([-0.0, 1e-7, 1e16, 2**64, -(2**64) - 1, math.nan, math.inf, -math.inf]),
)
TREES = st.recursive(
    LEAVES,
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(TEXT, kids, max_size=4)),
    max_leaves=40,
)


class Level(enum.IntEnum):
    HIGH = 3


class Tag(str, enum.Enum):
    MET = "met"


class Ratio(float):
    pass


def fleet_shaped_report(n_twins: int) -> dict:
    """The shape of a wearables report: one small entry per twin."""
    twins = {
        f"w_{i}": {
            "level": "individual",
            "host": 1 + i % 2,
            "state": {"heart_rate": {"value": 60 + i / 997, "version": 8,
                                     "observed_at_ns": 7_000_000_000 + 1000 * i}},
            "staleness_max_ns": {"heart_rate": 1_000_000_000 + i},
            "alerts_fired": 0,
            "last_aggregation_children": 0,
        }
        for i in range(n_twins)
    }
    return {"scenario": {"name": "fleet"}, "run": {"events_processed": 336_092},
            "twins": twins, "faults": []}


class TestToJsonBytes:
    @given(TREES)
    @example({})
    @example([])
    @example(())
    @example({"a": [{"b": ({"c": [[], {}]},)}], "": {"\x00\u00e9\ud800": None}})
    @example([-0.0, 1e-7, 1e16, math.nan, math.inf, -math.inf, 2**64, -(2**70), True, False, None])
    @settings(max_examples=150, deadline=None)
    def test_bytes_equal_json_dumps_indent_2(self, tree):
        assert to_json_bytes(tree) == json_reference(tree)

    def test_subclasses_render_as_their_json_type(self):
        tree = OrderedDict(level=Level.HIGH, verdict=Tag.MET, ratio=Ratio(0.5),
                           rows=[Level.HIGH, Ratio(math.inf)], keys={Tag.MET: 1})
        assert to_json_bytes(tree) == json_reference(tree)

    @pytest.mark.parametrize("key", [1, 1.5, True, None, ("a",)])
    def test_a_key_that_is_not_a_str_raises(self, key):
        # json.dumps would write int, float, bool and None keys as strings.
        with pytest.raises(TypeError):
            to_json_bytes({"twins": {key: 1}})

    @pytest.mark.parametrize("value", [{1, 2}, b"bytes", object()])
    def test_a_value_json_cannot_write_raises(self, value):
        with pytest.raises(TypeError):
            to_json_bytes({"value": [value]})

    def test_peak_memory_is_at_most_three_times_the_output(self):
        # json.dumps(indent=2) peaks at about 7x its output on this report.
        report = fleet_shaped_report(10_000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            size = len(to_json_bytes(report))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert size > 3_000_000
        assert peak <= 3 * size
