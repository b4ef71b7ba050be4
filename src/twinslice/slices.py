"""Service classes, QoS contracts, admission control, and link scheduling.

Five service classes share every link. ERLLC is served with strict priority;
the remaining classes share leftover capacity under deficit round robin with
weights 8 (FeMBB) : 4 (LDHMC) : 2 (umMTC) : 1 (ELPC), FIFO within a class.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional

from .engine import MS, SEC, RngStream
from .metrics import TrafficStats

if TYPE_CHECKING:
    from .network import Frame


class SliceClass(Enum):
    FEMBB = "FeMBB"
    ERLLC = "ERLLC"
    LDHMC = "LDHMC"
    UMMTC = "umMTC"
    ELPC = "ELPC"


# Stable report ordering for the five classes.
SLICE_ORDER = tuple(SliceClass)


@dataclass
class QosContract:
    """Per-slice service bounds; None means the dimension is unbounded."""

    min_rate_bps: int = 0
    max_e2e_delay_ns: Optional[int] = None
    max_loss: Optional[float] = None
    max_energy_per_msg_nj: Optional[int] = None


def default_contracts() -> dict[SliceClass, QosContract]:
    """Baseline contracts; scenarios may override any field per slice."""
    return {
        SliceClass.FEMBB: QosContract(min_rate_bps=1_000_000, max_e2e_delay_ns=50 * MS, max_loss=1e-3),
        SliceClass.ERLLC: QosContract(max_e2e_delay_ns=1 * MS, max_loss=1e-5),
        SliceClass.LDHMC: QosContract(max_e2e_delay_ns=20 * MS, max_loss=1e-3),
        SliceClass.UMMTC: QosContract(max_e2e_delay_ns=1 * SEC, max_loss=1e-2),
        SliceClass.ELPC: QosContract(max_e2e_delay_ns=10 * SEC, max_loss=1e-2,
                                     max_energy_per_msg_nj=1_000_000),
    }


@dataclass
class Flow:
    """An admitted (or rejected) stream of frames between two nodes."""

    id: str
    slice_cls: SliceClass
    src: int
    dst: int
    demand_bps: int
    admitted: bool = False
    preadmitted: bool = False  # operator-pinned: bypasses admission checks
    setup_latency_ns: int = 0
    frame_payload: int = 0  # nominal payload bytes, used for the admission delay check
    stats: TrafficStats = field(default_factory=TrafficStats)  # its one ledger
    loss_stream: Optional[RngStream] = None  # `loss:<id>`, built by its first lossy departure


def periodic_demand(payload_bytes: int, period_ns: int) -> int:
    """The rate in b/s of one payload per period, at least 1: a periodic flow's demand."""
    return max(1, round(payload_bytes * 8 * SEC / period_ns))


@dataclass(frozen=True)
class AdmissionDecision:
    flow_id: str
    accepted: bool
    reason: str  # "ok", "delay", "capacity", "unreachable"


DEFAULT_UTILIZATION_CAP = 0.9


def admit(
    flow: Flow,
    path_links: list,
    unloaded_delay_ns: int,
    contract: QosContract,
    admitted_demand: dict[int, int],
    utilization_cap: float = DEFAULT_UTILIZATION_CAP,
) -> AdmissionDecision:
    """Admission check for one flow over its already-routed path.

    Accepts iff the unloaded path delay plus setup fits the contract budget
    and every path link keeps total admitted demand within cap * rate.
    Accepted flows add their demand to admitted_demand; rejected flows are
    left out entirely and must not generate frames.
    """
    if not flow.preadmitted:
        budget = contract.max_e2e_delay_ns
        if budget is not None and unloaded_delay_ns + flow.setup_latency_ns > budget:
            return AdmissionDecision(flow.id, False, "delay")
        for link in path_links:
            if admitted_demand.get(link.id, 0) + flow.demand_bps > utilization_cap * link.rate_bps:
                return AdmissionDecision(flow.id, False, "capacity")
    flow.admitted = True
    for link in path_links:
        admitted_demand[link.id] = admitted_demand.get(link.id, 0) + flow.demand_bps
    return AdmissionDecision(flow.id, True, "ok")


WDRR_WEIGHTS = {SliceClass.FEMBB: 8, SliceClass.LDHMC: 4, SliceClass.UMMTC: 2, SliceClass.ELPC: 1}
WDRR_ORDER = tuple(WDRR_WEIGHTS)
QUANTUM_UNIT = 256  # bytes credited per weight unit per round

# WDRR state is indexed by slot, a class's position in WDRR_ORDER, so the
# scheduler never hashes a SliceClass (a plain Enum hashes in Python).
_SLOT = {cls: i for i, cls in enumerate(WDRR_ORDER)}
_QUANTUM = tuple(WDRR_WEIGHTS[cls] * QUANTUM_UNIT for cls in WDRR_ORDER)
_SLOTS = len(WDRR_ORDER)
_ERLLC = SliceClass.ERLLC  # read once: on CPython 3.11 a read through the class costs about 112 ns


class LinkQueue:
    """Per-direction link queue: strict-priority ERLLC over WDRR for the rest.

    Deficit counters persist across dequeues, so long-run byte shares of
    backlogged classes converge to the configured weights. A class's deficit
    resets when its queue empties (no credit hoarding while idle).

    Most channels never queue a frame (a frame reaching an idle transmitter
    is served at once), so a channel builds its queue only for a frame that
    is about to wait, and pushes that frame at once.
    """

    __slots__ = ("capacity", "occupancy", "_prio", "_queues", "_deficit", "_ptr", "_fresh")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.occupancy = 0
        self._prio = deque()
        self._queues = [deque() for _ in range(_SLOTS)]  # by slot
        self._deficit = [0] * _SLOTS  # by slot
        self._ptr = 0
        self._fresh = True

    def push(self, frame: "Frame") -> bool:
        """Enqueue drop-tail; returns False when the queue is full."""
        if self.occupancy >= self.capacity:
            return False
        cls = frame.flow.slice_cls
        if cls is _ERLLC:
            self._prio.append(frame)
        else:
            self._queues[_SLOT[cls]].append(frame)
        self.occupancy += 1
        return True

    def pop(self) -> Optional["Frame"]:
        """Dequeue the next frame to transmit, or None when idle."""
        if self.occupancy == 0:
            return None
        if self._prio:
            self.occupancy -= 1
            return self._prio.popleft()
        queues = self._queues
        deficit = self._deficit
        while True:
            i = self._ptr
            q = queues[i]
            if q:
                if self._fresh:
                    deficit[i] += _QUANTUM[i]
                    self._fresh = False
                head = q[0]
                if deficit[i] >= head.total_bytes:
                    deficit[i] -= head.total_bytes
                    q.popleft()
                    self.occupancy -= 1
                    if not q:
                        deficit[i] = 0
                        self._advance()
                    return head
                if head.total_bytes - deficit[i] > _QUANTUM[i]:
                    # The head needs more rounds of credit. A round in which no head fits only
                    # adds each backlogged class's quantum: credit all of them at once.
                    self._advance()
                    need = {j: -(-(p[0].total_bytes - deficit[j]) // _QUANTUM[j])
                            for j, p in enumerate(queues) if p}
                    rounds = min(need.values()) - 1
                    for j in need:
                        deficit[j] += rounds * _QUANTUM[j]
                    continue
            self._advance()

    def _advance(self) -> None:
        self._ptr = (self._ptr + 1) % _SLOTS
        self._fresh = True

    def drain(self) -> list["Frame"]:
        """Remove and return every queued frame (used when a link fails)."""
        out = list(self._prio)
        self._prio.clear()
        for i, q in enumerate(self._queues):
            out.extend(q)
            q.clear()
            self._deficit[i] = 0
        self.occupancy = 0
        self._ptr = 0
        self._fresh = True
        return out


def check_sla(stats: TrafficStats, contract: QosContract, slice_cls: SliceClass,
              throughput_bps: float) -> str:
    """Compare measured slice stats against the contract.

    Returns "met", "no-data" (nothing sent), or "violated(dim,...)" with the
    failing dimensions in a fixed order: delay, loss, rate, energy. Loss is
    measured over settled frames (delivered or dropped): a frame still in
    flight at the horizon is neither, and with nothing settled the loss
    dimension is not judged.
    """
    if stats.sent == 0:
        return "no-data"
    failed: list[str] = []
    if contract.max_e2e_delay_ns is not None and stats.delivered > 0:
        if stats.hist.percentile(0.99) > contract.max_e2e_delay_ns:
            failed.append("delay")
    settled = stats.sent - stats.in_flight
    if contract.max_loss is not None and settled > 0:
        if 1.0 - stats.delivered / settled > contract.max_loss:
            failed.append("loss")
    if slice_cls is SliceClass.FEMBB and contract.min_rate_bps > 0:
        if throughput_bps < contract.min_rate_bps:
            failed.append("rate")
    if slice_cls is SliceClass.ELPC and contract.max_energy_per_msg_nj is not None:
        if stats.energy_nj / stats.sent > contract.max_energy_per_msg_nj:
            failed.append("energy")
    if failed:
        return "violated(" + ",".join(failed) + ")"
    return "met"
