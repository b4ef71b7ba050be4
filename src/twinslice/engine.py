"""Deterministic discrete-event core: virtual clock, event queue, seeded RNG streams.

All simulation time is integer nanoseconds. The event queue is totally
ordered by (fire_at, seq) where seq is the insertion counter, so runs are
reproducible regardless of wall-clock scheduling or hash ordering.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
from array import array
from enum import IntEnum
from typing import Any, Callable, Sequence

import numpy as np

# One tick is one nanosecond of virtual time.
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000

SimTime = int


class SchedulePast(Exception):
    """Raised when an event is scheduled before the current clock."""


class EventKind(IntEnum):
    TRAFFIC_ARRIVAL = 1
    FRAME_DEPARTURE = 2
    FRAME_ARRIVAL = 3
    SYNC_DUE = 4
    AGGREGATION_DUE = 5
    FAULT_START = 6
    FAULT_END = 7
    HANDOVER = 8
    METRICS_FLUSH = 9


Handler = Callable[[Any, int], None]


class Engine:
    """Single-threaded event loop over a binary heap.

    Handlers are registered per EventKind and receive (payload, now). A kind's
    handler must be registered before the first event of that kind is
    scheduled: scheduling resolves it once, so the heap holds plain
    (fire_at, seq, handler, payload) tuples. seq is unique, so tuple
    comparison never reaches the handler or the payload.

    A caller may `reserve` seqs and schedule at them later, or never: an
    event pushed at a reserved place sorts as if it had been scheduled when
    the place was reserved.
    """

    def __init__(self) -> None:
        self.now: SimTime = 0
        self.processed: int = 0
        # The seq of the event being handled. Between runs it is the last seq
        # handed out, so a call made then sorts after every place so far.
        self.seq_now = -1
        self._seq = 0
        self._heap: list[tuple[SimTime, int, Handler, Any]] = []
        self._handlers: dict[EventKind, Handler] = {}

    def on(self, kind: EventKind, handler: Handler) -> None:
        self._handlers[kind] = handler

    def schedule(self, fire_at: SimTime, kind: EventKind, payload: Any = None) -> None:
        if fire_at < self.now:
            raise SchedulePast(f"cannot schedule {kind.name} at {fire_at} < now {self.now}")
        heapq.heappush(self._heap, (fire_at, self._seq, self._handlers[kind], payload))
        self._seq += 1

    def reserve(self, n: int) -> int:
        """Hand out n consecutive seqs without scheduling anything; returns the first."""
        seq = self._seq
        self._seq = seq + n
        return seq

    def schedule_at(self, fire_at: SimTime, seq: int, kind: EventKind, payload: Any = None) -> None:
        """Schedule at a place from `reserve`, one that does not sort before the current event."""
        if fire_at < self.now:
            raise SchedulePast(f"cannot schedule {kind.name} at {fire_at} < now {self.now}")
        heapq.heappush(self._heap, (fire_at, seq, self._handlers[kind], payload))

    def reserve_then_schedule(self, fire_at: SimTime, kind: EventKind, payload: Any = None) -> int:
        """`reserve(2)`, then `schedule_at` the second place; returns the first, left free."""
        if fire_at < self.now:
            raise SchedulePast(f"cannot schedule {kind.name} at {fire_at} < now {self.now}")
        seq = self._seq
        self._seq = seq + 2
        heapq.heappush(self._heap, (fire_at, seq + 1, self._handlers[kind], payload))
        return seq

    def pending(self) -> int:
        return len(self._heap)

    def run_until(self, t_end: SimTime) -> int:
        """Process every event with fire_at <= t_end in (fire_at, seq) order.

        The clock lands on the last processed event time, never beyond t_end.
        Returns the number of events processed by this call.
        """
        heap = self._heap
        pop = heapq.heappop
        n = 0
        while heap and heap[0][0] <= t_end:
            fire_at, seq, handler, payload = pop(heap)
            self.now = fire_at
            self.seq_now = seq
            handler(payload, fire_at)
            n += 1
        self.seq_now = self._seq - 1
        self.processed += n
        return n


# fork_rng takes master seeds in [0, SEED_LIMIT): one 64-bit seed word.
SEED_LIMIT = 2**64


# A stream's draw kinds: each names the Generator method that draws its variates.
_NORMAL = "standard_normal"
_EXPONENTIAL = "standard_exponential"
_UNIFORM = "random"
_INTEGERS = "integers"
# A stream draws its first BLOCK variates one by one, then BLOCK at a time.
BLOCK = 32


class RngStream:
    """An independently seeded random stream of one draw kind.

    Streams are forked from (master_seed, label) via a counter-based
    generator, so adding a new consumer with its own label never perturbs
    draws made from existing labels.

    Each draw takes one standard variate and scales it in Python:
    `mu + sigma * z`, `mean * e` and `u < p` are exactly what NumPy's scalar
    `normal`, `exponential` and `random` give for the same variate. The
    first BLOCK variates are drawn one NumPy call each; from then on one
    call draws a block of BLOCK, held as raw doubles until read. So a
    short-lived stream holds no block, and no stream draws more than twice
    what it serves. The first draw fixes the stream's kind (normal,
    exponential or uniform; `integers` draws unblocked), and a draw of
    another kind raises ValueError: a block is never read as another kind,
    and no draw reads `gen` behind a block. Only this class draws from `gen`.
    """

    __slots__ = ("gen", "_kind", "_block", "_singles")

    def __init__(self, gen: np.random.Generator) -> None:
        self.gen = gen
        self._kind: str | None = None
        self._block: array | tuple = ()  # the unread variates, the next one last
        self._singles = 0  # variates drawn one by one, up to BLOCK

    def _lock(self, kind: str) -> None:
        """Fix the stream's kind on its first draw; a draw of another kind raises."""
        if self._kind is not None:
            raise ValueError(f"a stream of {self._kind} draws cannot draw {kind}")
        self._kind = kind

    def _take(self, kind: str) -> float:
        """The stream's next standard variate of `kind`."""
        block = self._block
        if block and self._kind == kind:
            return block.pop()
        if self._kind != kind:
            self._lock(kind)
        draw = getattr(self.gen, kind)
        if self._singles < BLOCK:
            self._singles += 1
            return draw()
        block = self._block = array("d", draw(BLOCK)[::-1].tobytes())
        return block.pop()

    def random(self) -> float:
        return self._take(_UNIFORM)

    def bernoulli(self, p: float) -> bool:
        return self._take(_UNIFORM) < p

    def exponential(self, mean: float) -> float:
        return mean * self._take(_EXPONENTIAL)

    def exponential_ticks(self, mean_ticks: float) -> int:
        # Rounded to the tick grid; draws stay strictly positive.
        return max(1, round(mean_ticks * self._take(_EXPONENTIAL)))

    def normal(self, mu: float, sigma: float) -> float:
        return mu + sigma * self._take(_NORMAL)

    def integers(self, low: int, high: int) -> int:
        if self._kind != _INTEGERS:
            self._lock(_INTEGERS)
        return int(self.gen.integers(low, high))


# SeedSequence's mixing constants, from numpy/random/bit_generator.pyx.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
# A Philox stream starts at counter zero; Philox copies the words, so one array serves every stream.
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.flags.writeable = False

# Each mix below takes its words as ints or as uint32 arrays, one row per stream.


def _mix_entropy(entropy: list) -> list:
    """`SeedSequence.mix_entropy` into a 4-word pool, for 4 or more entropy words."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _output_mix(pool: list) -> list:
    """`SeedSequence.generate_state(4, np.uint32)`'s output mix: one word from each pool word."""
    words = []
    hash_const = _INIT_B
    for w in pool:
        w = w ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        w = (w * hash_const) & _MASK32
        words.append(w ^ (w >> 16))
    return words


def _philox_key(pool: list[int]) -> np.ndarray:
    """`SeedSequence.generate_state(2, np.uint64)` for a sequence with this 4-word pool.

    Two 64-bit words take four 32-bit draws; each pair joins low word first.
    """
    lo0, hi0, lo1, hi1 = _output_mix(pool)
    return np.array([lo0 | hi0 << 32, lo1 | hi1 << 32], dtype=np.uint64)


@functools.cache
def _key_holder() -> type:
    """The seed sequence class that answers Philox's one request with a key derived in advance.

    It is built on the first stream, which imports numpy.random as the
    first `np.random` lookup would; importing this module does not.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        def __init__(self, key: np.ndarray) -> None:
            self.key = key

        def generate_state(self, n_words: int, dtype: Any = np.uint32) -> np.ndarray:
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"answers only Philox's (2, uint64), not ({n_words}, {dtype})")
            return self.key

    return PhiloxKey


def keyed_stream(key: np.ndarray) -> RngStream:
    """The stream of a Philox key from `fork_rng` or `fork_keys`, at counter zero.

    A Philox stream is identified by its key alone.
    """
    return RngStream(np.random.Generator(np.random.Philox(_key_holder()(key),
                                                          counter=_ZERO_COUNTER)))


def _seed_words(master_seed: int) -> bytes:
    """The seed's entropy words as little-endian bytes: one word, two from 2**32 on."""
    return master_seed.to_bytes(4 if master_seed <= _MASK32 else 8, "little")


def _digest(label: str) -> bytes:
    return hashlib.blake2b(label.encode("utf-8"), digest_size=16).digest()


def fork_rng(master_seed: int, label: str) -> RngStream:
    """Derive the stream identified by label from the master seed.

    The label is hashed with a stable digest (process-independent, unlike
    builtin hash) and folded into the seed sequence of a Philox generator.
    Identical (master_seed, label) pairs yield identical draw sequences.

    The stream is exactly `Philox(SeedSequence([master_seed, *words]))`,
    words being the digest's four little-endian 32-bit words. It is built
    from the same entropy as a uint32 array, the seed's one word (two from
    2**32 on) first, and the key is derived from the pool here, which skips
    the general paths of both constructors.
    """
    entropy = np.frombuffer(_seed_words(master_seed) + _digest(label), dtype="<u4")
    ss = np.random.SeedSequence(entropy)
    return keyed_stream(_philox_key(ss.pool.tolist()))


def fork_keys(master_seed: int, labels: Sequence[str]) -> np.ndarray:
    """The Philox keys `fork_rng` derives for each label, as an (n, 2) uint64 array.

    One blake2b per label, then both of `SeedSequence`'s mixes over uint32
    columns, one row per label: its hash constants follow the number of
    words mixed, which every label of one seed shares. This pays off for
    a batch; a single label is faster through `fork_rng`.
    """
    n = len(labels)
    digests = np.frombuffer(b"".join([_digest(label) for label in labels]), dtype="<u4")
    seed = [np.full(n, word, dtype=np.uint32)
            for word in np.frombuffer(_seed_words(master_seed), dtype="<u4").tolist()]
    entropy = seed + list(np.ascontiguousarray(digests.reshape(n, 4).T, dtype=np.uint32))
    lo0, hi0, lo1, hi1 = (w.astype(np.uint64) for w in _output_mix(_mix_entropy(entropy)))
    return np.stack([lo0 | hi0 << 32, lo1 | hi1 << 32], axis=1)
