"""Event loop ordering, clock discipline, and seeded stream independence."""

import hashlib
import importlib.util
import platform
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinslice.workloads
from twinslice.engine import (
    BLOCK,
    Engine,
    EventKind,
    RngStream,
    SEC,
    SchedulePast,
    fork_keys,
    fork_rng,
    keyed_stream,
)
from twinslice.scenario import load_scenario, scenario_from_dict
from twinslice.sim import run_scenario


def collect(engine, kind=EventKind.TRAFFIC_ARRIVAL):
    seen = []
    engine.on(kind, lambda payload, now: seen.append((now, payload)))
    return seen


class TestOrdering:
    def test_fires_in_time_order(self):
        eng = Engine()
        seen = collect(eng)
        for t in (30, 10, 20):
            eng.schedule(t, EventKind.TRAFFIC_ARRIVAL, t)
        eng.run_until(100)
        assert seen == [(10, 10), (20, 20), (30, 30)]

    def test_tie_breaks_by_insertion_order(self):
        eng = Engine()
        seen = collect(eng)
        for tag in ("a", "b", "c"):
            eng.schedule(50, EventKind.TRAFFIC_ARRIVAL, tag)
        eng.run_until(100)
        assert [p for _t, p in seen] == ["a", "b", "c"]

    def test_mixed_kinds_share_one_ordering(self):
        eng = Engine()
        log = []
        eng.on(EventKind.SYNC_DUE, lambda p, now: log.append(("sync", now)))
        eng.on(EventKind.HANDOVER, lambda p, now: log.append(("handover", now)))
        eng.schedule(5, EventKind.HANDOVER)
        eng.schedule(5, EventKind.SYNC_DUE)
        eng.schedule(1, EventKind.SYNC_DUE)
        eng.run_until(10)
        assert log == [("sync", 1), ("handover", 5), ("sync", 5)]

    def test_handler_is_bound_when_scheduled(self):
        # An event keeps the handler its kind had when it was scheduled.
        eng = Engine()
        first = collect(eng)
        eng.schedule(1, EventKind.TRAFFIC_ARRIVAL, "early")
        second = collect(eng)
        eng.schedule(2, EventKind.TRAFFIC_ARRIVAL, "late")
        eng.run_until(10)
        assert (first, second) == ([(1, "early")], [(2, "late")])
        with pytest.raises(KeyError):
            eng.schedule(3, EventKind.HANDOVER)  # no handler registered for it


    def test_an_event_at_a_reserved_place_sorts_where_it_was_reserved(self):
        eng = Engine()
        seen = collect(eng)
        eng.schedule(50, EventKind.TRAFFIC_ARRIVAL, "a")
        first = eng.reserve(2)
        eng.schedule(50, EventKind.TRAFFIC_ARRIVAL, "d")
        eng.schedule_at(50, first + 1, EventKind.TRAFFIC_ARRIVAL, "c")
        eng.schedule_at(50, first, EventKind.TRAFFIC_ARRIVAL, "b")
        eng.reserve(1)  # a place left unused costs nothing
        eng.run_until(100)
        assert [p for _t, p in seen] == ["a", "b", "c", "d"]

    def test_reserve_then_schedule_sorts_its_event_at_the_second_place(self):
        # Same order as reserve(2) and schedule_at(first + 1), with the first left unused.
        eng = Engine()
        seen = collect(eng)
        eng.schedule(50, EventKind.TRAFFIC_ARRIVAL, "a")
        first = eng.reserve_then_schedule(50, EventKind.TRAFFIC_ARRIVAL, "c")
        eng.schedule(50, EventKind.TRAFFIC_ARRIVAL, "d")
        eng.run_until(100)
        assert first == 1
        assert [p for _t, p in seen] == ["a", "c", "d"]

    def test_reserve_then_schedule_leaves_the_first_place_free(self):
        eng = Engine()
        seen = collect(eng)
        first = eng.reserve_then_schedule(50, EventKind.TRAFFIC_ARRIVAL, "c")
        eng.schedule(50, EventKind.TRAFFIC_ARRIVAL, "d")
        eng.schedule_at(50, first, EventKind.TRAFFIC_ARRIVAL, "b")  # a later push at the free place
        eng.schedule(40, EventKind.TRAFFIC_ARRIVAL, "a")
        eng.run_until(100)
        assert [p for _t, p in seen] == ["a", "b", "c", "d"]
        assert eng.pending() == 0

    def test_reserve_then_schedule_uses_the_handler_registered_for_its_kind(self):
        eng = Engine()
        log = []
        eng.on(EventKind.FRAME_ARRIVAL, lambda p, now: log.append(("arrival", p, now)))
        eng.on(EventKind.FRAME_DEPARTURE, lambda p, now: log.append(("departure", p, now)))
        first = eng.reserve_then_schedule(7, EventKind.FRAME_ARRIVAL, "x")
        eng.schedule_at(3, first, EventKind.FRAME_DEPARTURE, "x")
        eng.run_until(10)
        assert log == [("departure", "x", 3), ("arrival", "x", 7)]

    def test_seq_now_is_the_current_place_and_between_runs_the_last_one(self):
        eng = Engine()
        places = []
        eng.on(EventKind.TRAFFIC_ARRIVAL, lambda p, now: places.append(eng.seq_now))
        assert eng.seq_now == -1
        eng.schedule(5, EventKind.TRAFFIC_ARRIVAL)
        eng.reserve(3)
        eng.schedule(5, EventKind.TRAFFIC_ARRIVAL)
        eng.run_until(10)
        assert places == [0, 4]
        assert eng.seq_now == 4
        eng.reserve(2)
        eng.run_until(20)
        assert eng.seq_now == 6


class TestClock:
    def test_schedule_in_past_raises(self):
        eng = Engine()
        eng.on(EventKind.TRAFFIC_ARRIVAL, lambda p, now: eng.schedule(now - 1, EventKind.TRAFFIC_ARRIVAL))
        eng.schedule(10, EventKind.TRAFFIC_ARRIVAL)
        with pytest.raises(SchedulePast):
            eng.run_until(100)

    def test_schedule_at_a_reserved_place_in_the_past_raises(self):
        eng = Engine()
        seq = eng.reserve(1)
        eng.on(EventKind.TRAFFIC_ARRIVAL,
               lambda p, now: eng.schedule_at(now - 1, seq, EventKind.TRAFFIC_ARRIVAL))
        eng.schedule(10, EventKind.TRAFFIC_ARRIVAL)
        with pytest.raises(SchedulePast):
            eng.run_until(100)

    def test_reserve_then_schedule_in_the_past_raises_and_reserves_nothing(self):
        eng = Engine()
        eng.on(EventKind.TRAFFIC_ARRIVAL,
               lambda p, now: eng.reserve_then_schedule(now - 1, EventKind.TRAFFIC_ARRIVAL))
        eng.schedule(10, EventKind.TRAFFIC_ARRIVAL)
        with pytest.raises(SchedulePast):
            eng.run_until(100)
        assert eng.reserve(1) == 1 and eng.pending() == 0

    def test_schedule_at_now_is_allowed(self):
        eng = Engine()
        fired = []
        def handler(p, now):
            if p == 0:
                eng.schedule(now, EventKind.TRAFFIC_ARRIVAL, 1)
            fired.append(p)
        eng.on(EventKind.TRAFFIC_ARRIVAL, handler)
        eng.schedule(10, EventKind.TRAFFIC_ARRIVAL, 0)
        eng.run_until(100)
        assert fired == [0, 1]

    def test_run_until_boundary_inclusive(self):
        eng = Engine()
        seen = collect(eng)
        eng.schedule(100, EventKind.TRAFFIC_ARRIVAL, "at")
        eng.schedule(101, EventKind.TRAFFIC_ARRIVAL, "after")
        n = eng.run_until(100)
        assert n == 1
        assert seen == [(100, "at")]
        assert eng.pending() == 1
        assert eng.now == 100

    def test_clock_never_passes_t_end(self):
        eng = Engine()
        collect(eng)
        eng.schedule(7, EventKind.TRAFFIC_ARRIVAL)
        eng.run_until(50)
        assert eng.now == 7  # lands on the last processed event

    def test_self_scheduling_chain(self):
        eng = Engine()
        ticks = []
        def tick(p, now):
            ticks.append(now)
            if p < 5:
                eng.schedule(now + 10, EventKind.TRAFFIC_ARRIVAL, p + 1)
        eng.on(EventKind.TRAFFIC_ARRIVAL, tick)
        eng.schedule(0, EventKind.TRAFFIC_ARRIVAL, 0)
        n = eng.run_until(1_000)
        assert n == 6
        assert ticks == [0, 10, 20, 30, 40, 50]
        assert eng.processed == 6

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_no_event_lost_any_schedule_order(self, times):
        eng = Engine()
        seen = collect(eng)
        for t in times:
            eng.schedule(t, EventKind.TRAFFIC_ARRIVAL, t)
        eng.run_until(10_000)
        assert [t for t, _p in seen] == sorted(times)
        assert eng.pending() == 0


class TestRngStreams:
    # Golden draws pin the generator family and the label derivation: any
    # change to either silently breaks replay of recorded runs.
    def test_golden_uniforms_seed42(self):
        s = fork_rng(42, "network")
        got = [s.random() for _ in range(4)]
        assert got == [
            0.3752981727583473,
            0.1413820383218901,
            0.9619220164411147,
            0.9138569572150763,
        ]

    def test_golden_normals_seed42(self):
        s = fork_rng(42, "vitals:bed_0")
        got = [s.normal(75, 4) for _ in range(3)]
        assert got == [80.01584647984913, 73.89666487152327, 68.86669646278074]

    def test_golden_uniforms_seed7(self):
        s = fork_rng(7, "network")
        assert [s.random() for _ in range(2)] == [0.8740829966587612, 0.9190040024133945]

    def test_same_label_same_sequence(self):
        a = fork_rng(1234, "x")
        b = fork_rng(1234, "x")
        assert [a.random() for _ in range(16)] == [b.random() for _ in range(16)]

    def test_labels_are_independent(self):
        # Drawing from one label must not perturb another label's stream.
        lone = fork_rng(99, "b")
        baseline = [lone.random() for _ in range(8)]
        a = fork_rng(99, "a")
        b = fork_rng(99, "b")
        for _ in range(1000):
            a.random()
        assert [b.random() for _ in range(8)] == baseline

    def test_different_labels_differ(self):
        a = fork_rng(5, "alpha")
        b = fork_rng(5, "beta")
        assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]

    def test_different_seeds_differ(self):
        a = fork_rng(1, "network")
        b = fork_rng(2, "network")
        assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]

    def test_exponential_ticks_strictly_positive(self):
        s = fork_rng(3, "ticks")
        draws = [s.exponential_ticks(2.0) for _ in range(2000)]
        assert min(draws) >= 1
        assert all(isinstance(d, int) for d in draws)

    def test_bernoulli_edge_probabilities(self):
        s = fork_rng(11, "coin")
        assert not any(s.bernoulli(0.0) for _ in range(100))
        assert all(s.bernoulli(1.0) for _ in range(100))


# Each draw method: its kind, a strategy for one draw's parameters, sample
# parameters, the draw through a stream, and the same draw as one scalar call
# on a fresh Generator.
DRAWS = {
    "normal": ("normal", st.tuples(st.floats(-1e3, 1e3), st.floats(0, 1e2)), (75, 4),
               lambda s, a: s.normal(*a), lambda g, a: g.normal(*a)),
    "exponential_ticks": ("exponential", st.tuples(st.floats(1e-3, 1e9)), (1e6,),
                          lambda s, a: s.exponential_ticks(*a),
                          lambda g, a: max(1, int(round(g.exponential(*a))))),
    "exponential": ("exponential", st.tuples(st.floats(1e-3, 1e9)), (2.5,),
                    lambda s, a: s.exponential(*a), lambda g, a: g.exponential(*a)),
    "bernoulli": ("uniform", st.tuples(st.floats(0, 1)), (0.5,),
                  lambda s, a: s.bernoulli(*a), lambda g, a: g.random() < a[0]),
    "random": ("uniform", st.just(()), (), lambda s, a: s.random(), lambda g, a: g.random()),
    "integers": ("integers", st.tuples(st.integers(-2**40, 2**40), st.integers(1, 2**40))
                 .map(lambda a: (a[0], a[0] + a[1])), (0, 10),
                 lambda s, a: s.integers(*a), lambda g, a: int(g.integers(*a))),
}


def exact(value):
    return value.hex() if isinstance(value, float) else value


@st.composite
def draw_runs(draw):
    """A seed, a label, a draw method, and per-draw parameters for up to three blocks."""
    method, n = draw(st.sampled_from(sorted(DRAWS))), draw(st.integers(1, 3 * BLOCK))
    args = draw(st.lists(DRAWS[method][1], min_size=n, max_size=n))
    return draw(st.integers(0, 2**64 - 1)), draw(st.sampled_from(LABELS) | st.text(max_size=8)), method, args


def platform_note():
    return f"on {platform.machine()} under NumPy {np.__version__}"


class TestBlockDraws:
    """A stream serves its draws from blocks; they must be NumPy's scalar draws, bit for bit."""

    @given(draw_runs())
    @settings(max_examples=200, deadline=None)
    def test_blocks_draw_what_scalar_calls_draw(self, run):
        seed, label, method, args = run
        *_, through_stream, scalar = DRAWS[method]
        stream, gen = fork_rng(seed, label), fork_rng(seed, label).gen
        got = [exact(through_stream(stream, a)) for a in args]
        want = [exact(scalar(gen, a)) for a in args]
        # A NumPy build that fuses the scalar `loc + scale * z` into one FMA fails here.
        assert got == want, f"{method} draws of ({seed}, {label!r}) leave NumPy's scalar draws {platform_note()}"

    @pytest.mark.parametrize("first", sorted(DRAWS))
    @pytest.mark.parametrize("drawn", [1, BLOCK + 1])
    def test_a_second_kind_raises(self, first, drawn):
        # After `drawn` draws of the first method, the last one scalar or read from a block.
        kind, _params, sample, through_stream, _scalar = DRAWS[first]
        stream = fork_rng(3, "one kind")
        for _ in range(drawn):
            through_stream(stream, sample)
        for other_kind, _params, other_sample, other_draw, _scalar in DRAWS.values():
            if other_kind != kind:
                with pytest.raises(ValueError, match="cannot draw"):
                    other_draw(stream, other_sample)

    def test_one_kind_is_drawn_by_each_of_its_methods(self):
        # `random` and `bernoulli` read one uniform stream, as `exponential` and `exponential_ticks` read one exponential.
        stream, gen = fork_rng(4, "uniform"), fork_rng(4, "uniform").gen
        got = [stream.random() if i % 3 else stream.bernoulli(0.5) for i in range(3 * BLOCK)]
        assert got == [gen.random() if i % 3 else gen.random() < 0.5 for i in range(3 * BLOCK)]
        stream, gen = fork_rng(4, "exponential"), fork_rng(4, "exponential").gen
        got = [exact(stream.exponential(2.5)) if i % 2 else stream.exponential_ticks(1e6) for i in range(3 * BLOCK)]
        assert got == [exact(gen.exponential(2.5)) if i % 2 else max(1, int(round(gen.exponential(1e6))))
                       for i in range(3 * BLOCK)]


def reference_generator(seed, label):
    """The stream's definition: Philox keyed by SeedSequence([seed, *label words])."""
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=16).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *words])))


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
LABELS = ["", "network", "arrivals:fleet.17", "vitals:bett_ü", "生命徴候:☂"]


class TestForkMatchesSeedSequence:
    """fork_rng derives Philox's key itself; it must equal the SeedSequence route bit for bit."""

    def assert_same(self, seed, label):
        want = reference_generator(seed, label)
        got = fork_rng(seed, label).gen
        assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
        assert got.random(8).tolist() == want.random(8).tolist()
        assert got.normal(75, 4, 4).tolist() == want.normal(75, 4, 4).tolist()
        assert got.integers(0, 2**63, 4).tolist() == want.integers(0, 2**63, 4).tolist()

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    @pytest.mark.parametrize("label", LABELS)
    def test_edge_seeds(self, seed, label):
        self.assert_same(seed, label)

    @given(st.integers(0, 2**64 - 1), st.sampled_from(LABELS) | st.text(max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_drawn_seeds(self, seed, label):
        self.assert_same(seed, label)

    def test_the_key_holder_answers_only_philox(self):
        holder = fork_rng(3, "x").gen.bit_generator.seed_seq
        assert holder.generate_state(2, np.uint64).dtype == np.uint64
        with pytest.raises(ValueError):
            holder.generate_state(4, np.uint32)
        with pytest.raises(ValueError):
            holder.generate_state(2, np.uint32)


def batched(seed, label):
    """`label`'s stream built from a batch of keys, in which it is neither first nor alone."""
    labels = ["first", label, "last"]
    return keyed_stream(fork_keys(seed, labels)[1])


# The first draws that the golden report digests rest on, under CPython 3.11.7 and NumPy 2.4.6.
# Each row: seed, label, draw, its first three results (floats as float.hex).
CANARIES = [
    (7, "vitals:canary", lambda s: s.normal(75, 4).hex(),
     ["0x1.11a0cad3a121cp+6", "0x1.302dbb73ae8f0p+6", "0x1.3d086dd0cc3ddp+6"]),
    (7, "arrivals:canary", lambda s: s.exponential_ticks(1_000_000), [2114360, 1547324, 478899]),
    (7, "loss:canary", lambda s: s.bernoulli(0.5), [True, False, False]),
    # A seed from 2**32 on enters SeedSequence as two words.
    (2**32 + 7, "vitals:canary", lambda s: s.normal(75, 4).hex(),
     ["0x1.25382317a79dap+6", "0x1.2c055c1eedb9dp+6", "0x1.245b56ec65be5p+6"]),
]
# Rows past the scalar draws: seed, label, draw, index of the first result, results.
# Draws 30-34 cross into the first block, draws 62-66 into the second.
BLOCK_CANARIES = [
    (7, "vitals:canary", lambda s: s.normal(75, 4).hex(), 30,
     ["0x1.3b58b36c22265p+6", "0x1.4256b715e1ac3p+6", "0x1.31296356728aap+6",
      "0x1.3590b8ee07e5cp+6", "0x1.0e1284249c6a4p+6"]),
    (7, "arrivals:canary", lambda s: s.exponential_ticks(1_000_000), 62,
     [2045012, 849073, 628609, 1066184, 485944]),
]


class TestStreamCanaries:
    """A NumPy release that moves a draw fails here first, and names itself."""

    @pytest.mark.parametrize("build", [fork_rng, batched], ids=["forked", "batched"])
    @pytest.mark.parametrize("seed, label, draw, want", CANARIES,
                             ids=[f"{seed}-{label}" for seed, label, _d, _w in CANARIES])
    def test_first_draws(self, build, seed, label, draw, want):
        stream = build(seed, label)
        got = [draw(stream) for _ in want]
        assert got == want, (
            f"the first draws of ({seed}, {label!r}) moved {platform_note()}; "
            "the golden digests were pinned on x86_64 under NumPy 2.4.6 (see README, Determinism)")

    @pytest.mark.parametrize("build", [fork_rng, batched], ids=["forked", "batched"])
    @pytest.mark.parametrize("seed, label, draw, first, want", BLOCK_CANARIES,
                             ids=[f"{seed}-{label}-{first}" for seed, label, _d, first, _w in BLOCK_CANARIES])
    def test_draws_read_from_blocks(self, build, seed, label, draw, first, want):
        # Pinned as NumPy's scalar draws: an array fill that drew other variates fails here.
        stream = build(seed, label)
        got = [draw(stream) for _ in range(first + len(want))][first:]
        assert got == want, (
            f"draws {first} on of ({seed}, {label!r}), read from a block, moved {platform_note()}; "
            "they were pinned as scalar draws on x86_64 under NumPy 2.4.6 (see README, Determinism)")


def reference_key(seed, label):
    return reference_generator(seed, label).bit_generator.state["state"]["key"].tolist()


class TestForkKeys:
    """`fork_keys` derives a batch's keys in one pass; each must be `fork_rng`'s, bit for bit."""

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_edge_seeds(self, seed):
        assert fork_keys(seed, LABELS).tolist() == [reference_key(seed, l) for l in LABELS]

    @given(st.integers(0, 2**64 - 1),
           st.lists(st.sampled_from(LABELS) | st.text(max_size=12), max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_drawn_label_lists(self, seed, labels):
        # Drawn lists repeat labels, hold "" and reach far past ASCII.
        keys = fork_keys(seed, labels)
        assert keys.dtype == np.uint64 and keys.shape == (len(labels), 2)
        assert keys.tolist() == [reference_key(seed, label) for label in labels]

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_a_batched_stream_draws_what_fork_rng_draws(self, seed):
        for label, key in zip(LABELS, fork_keys(seed, LABELS)):
            got, want = keyed_stream(key).gen, fork_rng(seed, label).gen
            assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
            assert got.random(4).tolist() == want.random(4).tolist()
            assert got.normal(75, 4, 4).tolist() == want.normal(75, 4, 4).tolist()
            assert got.exponential(3.0, 4).tolist() == want.exponential(3.0, 4).tolist()


def fleet_doc(access_rate, poisson=False):
    """Four wearables behind edge 1, and an implant beacon that draws from `vitals:imp`."""
    vitals = [{"name": "heart_rate", "mean": 70, "sd": 3}]
    return {
        "run": {"t_end": "1s", "master_seed": 5},
        "nodes": [{"id": 0, "kind": "core"}, {"id": 1, "kind": "edge"}, {"id": 2, "kind": "device"}],
        "links": [{"id": 0, "ends": [1, 0], "rate": "1gbps", "prop_delay": "10us"},
                  {"id": 1, "ends": [2, 1], "rate": "100mbps", "prop_delay": "10us"}],
        "twins": [{"id": "imp", "level": "individual", "host": 1, "entity": 2, "metrics": vitals}],
        "workloads": [
            {"kind": "implant_beacon", "id": "bc", "device": 2, "twin": "imp", "period": "100ms",
             "payload": 20, "energy_per_tx": "1uJ", "battery": "1J"},
            # A member needs far over 1 kb/s: an access link that slow refuses every member.
            {"kind": "wearable_fleet", "id": "fl", "edges": [1], "n_devices": 4, "period": "200ms",
             "payload": 100, "poisson": poisson, "twin_prefix": "dev", "metrics": vitals,
             "link": {"rate": access_rate}},
        ],
    }


def counting_fork_keys():
    calls = []

    def fork_keys_counted(seed, labels):
        calls.append(list(labels))
        return fork_keys(seed, labels)

    return calls, mock.patch.object(twinslice.workloads, "fork_keys", fork_keys_counted)


class TestFleetBatches:
    """A fleet derives its members' keys of one label prefix in one batch, at its first draw."""

    @pytest.mark.parametrize("poisson", [False, True])
    def test_each_batch_is_derived_once_on_its_first_draw(self, poisson):
        calls, patch = counting_fork_keys()
        run_until, before_run = Engine.run_until, []

        def noting_run_until(engine, t_end):
            before_run.extend(calls)
            return run_until(engine, t_end)

        with patch, mock.patch.object(Engine, "run_until", noting_run_until):
            run_scenario(scenario_from_dict(fleet_doc("100mbps", poisson)))
        vitals = [f"vitals:dev_{i}" for i in range(4)]
        arrivals = [f"arrivals:fl.{i}" for i in range(4)]
        # A Poisson member draws its first gap when the run is scheduled; vitals, on its first emission.
        assert calls == ([arrivals, vitals] if poisson else [vitals])
        assert before_run == calls[:-1]

    def test_after_a_run_each_twin_holds_the_stream_it_drew_from(self):
        drawn = {}
        normal = RngStream.normal

        def noting(stream, mu, sigma):
            drawn[id(stream)] = stream
            return normal(stream, mu, sigma)

        with mock.patch.object(RngStream, "normal", noting):
            sim = run_scenario(scenario_from_dict(fleet_doc("100mbps"))).sim
        streams = [sim.twins[twin].vitals_stream for twin in ("imp", "dev_0", "dev_1", "dev_2", "dev_3")]
        assert sorted(map(id, streams)) == sorted(drawn)
        assert all(drawn[id(stream)] is stream for stream in streams)

    @pytest.mark.parametrize("poisson", [False, True])
    def test_a_fleet_whose_members_are_all_refused_derives_no_keys(self, poisson):
        calls, patch = counting_fork_keys()
        with patch:
            result = run_scenario(scenario_from_dict(fleet_doc("1kbps", poisson)))
        assert result.report["workloads"]["fl"]["devices_admitted"] == 0
        assert result.report["workloads"]["bc"]["transmissions"] > 0  # `vitals:imp` was drawn
        assert calls == []


def built_keys(run):
    """Call `run()`; the Philox key of every stream built meanwhile, in build order."""
    keys = []
    init = RngStream.__init__

    def noting(stream, gen):
        keys.append(tuple(gen.bit_generator.state["state"]["key"].tolist()))
        init(stream, gen)

    with mock.patch.object(RngStream, "__init__", noting):
        result = run()
    return keys, result


ROOT = Path(__file__).resolve().parent.parent
PERFBENCH_INPUTS = ROOT / "perfbench" / "inputs.py"
BUNDLED = sorted(p.name for p in (ROOT / "scenarios").glob("*.scn"))


class TestOneStreamPerLabel:
    """A run builds each labelled stream once, and its one holder keeps it:
    a second build would replay the first one's draws. A stream's key
    names its label and seed, so no key may repeat within a run."""

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_scenarios(self, scenario_dir, name):
        # The surgery scenarios draw nothing; wearables.scn builds 10,000 streams.
        keys, _ = built_keys(lambda: run_scenario(load_scenario(scenario_dir / name), t_end=2 * SEC))
        assert len(set(keys)) == len(keys)

    def test_the_contended_benchmark_input_draws_each_flows_loss_from_one_stream(self, tmp_path):
        # No bundled scenario has a lossy link: this one has a lossy backbone.
        spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH_INPUTS)
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        path = tmp_path / "contended.scn"
        path.write_bytes(inputs.contended_bytes(1))
        keys, result = built_keys(lambda: run_scenario(load_scenario(path), t_end=3 * SEC))
        assert sum(row["dropped_loss"] for row in result.report["slices"].values()) > 0
        assert len(set(keys)) == len(keys)

    def test_a_poisson_fleet(self):
        keys, _ = built_keys(lambda: run_scenario(scenario_from_dict(fleet_doc("100mbps", True))))
        assert len(keys) == 9  # `vitals:imp`, and each member's `vitals:` and `arrivals:`
        assert len(set(keys)) == len(keys)
