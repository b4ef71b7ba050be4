"""Workload generators: the traffic sources that drive a run.

Each generator is a Source: it owns its flows, schedules its own emission
events, and keeps the statistics its flows' ledgers do not (RTTs,
handovers). Its emission counts and energy are read from those ledgers.
Telemetry-style workloads (wearables, implants, ambulance) carry vitals
samples to their twins in their frames, so twin freshness is carried by the
same packets the slice contracts meter.
"""

from __future__ import annotations

from collections import deque
from dataclasses import KW_ONLY, dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from .engine import EventKind, RngStream, SEC, fork_keys, keyed_stream
from .metrics import DelayHistogram
from .network import Frame
from .slices import Flow, SliceClass, periodic_demand
from .twins import Twin

DEFAULT_HANDOVER_GAP = 10_000_000  # 10 ms
# Read once: on CPython 3.11 a member read through its class costs about 112 ns.
_HANDOVER, _UMMTC = EventKind.HANDOVER, SliceClass.UMMTC


@dataclass
class VitalSpec:
    """Synthetic sensor channel sampled at each device sync."""

    name: str
    mean: float
    sd: float


@dataclass
class FaultSpec:
    target_kind: str  # "link" | "node"
    target_id: int
    t_fail: int
    t_recover: int


@dataclass
class WorkloadSpec:
    """What every workload declares: its id, its time window, and whether it skips admission."""

    id: str
    _: KW_ONLY
    start: int = 0
    duration: Optional[int] = None
    preadmit: bool = False


@dataclass
class TelemedicineStreamSpec(WorkloadSpec):
    src: int
    dst: int
    bitrate_bps: int
    frame_bytes: int

    @property
    def period_ns(self) -> int:
        # one frame per frame-time at the stream's bitrate
        return round(self.frame_bytes * 8 * SEC / self.bitrate_bps)


@dataclass
class SurgeryLoopSpec(WorkloadSpec):
    src: int
    dst: int
    cmd_rate: int  # commands per second
    cmd_bytes: int
    rtt_budget_ns: int

    @property
    def period_ns(self) -> int:
        return round(SEC / self.cmd_rate)


@dataclass
class AmbulanceRunSpec(WorkloadSpec):
    device: int
    twin_id: str
    speed_kmh: float
    edge_sequence: list[int]
    telemetry_rate: int  # frames per second
    payload_bytes: int
    cell_span_m: float
    handover_gap_ns: int = DEFAULT_HANDOVER_GAP

    @property
    def period_ns(self) -> int:
        return round(SEC / self.telemetry_rate)

    @property
    def cell_time_ns(self) -> int:
        # time to cross one cell at constant speed
        return round(self.cell_span_m / (self.speed_kmh / 3.6) * SEC)


@dataclass
class WearableFleetSpec(WorkloadSpec):
    edges: list[int]
    period_ns: int
    payload_bytes: int
    stagger: bool
    poisson: bool
    vitals: list[VitalSpec] = field(default_factory=list)
    alerts: list[tuple[str, float]] = field(default_factory=list)
    # filled during expansion: (device_node, twin_id) per fleet member
    members: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class ImplantBeaconSpec(WorkloadSpec):
    device: int
    twin_id: str
    period_ns: int
    payload_bytes: int
    energy_per_tx_nj: int
    battery_nj: int


class Source:
    """One healthcare service's traffic source: its flows and emission events.

    An emission event carries the flat pair (fire, arg) and fires as
    fire(arg, now): arg is the emission index of a single-flow source and
    the member index of a fleet. `fire` and every other callee a source
    schedules are bound once in `__init__`, so an event costs one tuple;
    `period`, the spec's emission period, is read there once too, and
    `build` computes `_span`, the length of its emission window, once.
    """

    kind: EventKind  # the event kind of its emissions

    def __init__(self, sim: Any, spec: WorkloadSpec, fire: Callable[[int, int], None]) -> None:
        self.sim = sim
        self.spec = spec
        self.period: int = spec.period_ns
        self.flows: list[Flow] = []
        self._fire = fire

    def _flow(self, flow_id: str, slice_cls: SliceClass, src: int, dst: int, demand_bps: int,
              payload: int) -> Flow:
        flow = Flow(
            id=flow_id, slice_cls=slice_cls, src=src, dst=dst, demand_bps=demand_bps,
            preadmitted=self.spec.preadmit, frame_payload=payload,
        )
        self.flows.append(flow)
        return flow

    def build(self) -> None:
        self._span = self._duration()
        for flow in self.flows:
            self.sim.admit_flow(flow)

    def schedule_start(self) -> None:
        # The first emission skips the duration check: one at start == t_end still fires.
        if self.flows[0].admitted:
            self.sim.engine.schedule(self.spec.start, self.kind, (self._fire, 0))

    def _duration(self) -> int:
        return self.spec.duration if self.spec.duration is not None else self.sim.t_end - self.spec.start

    def _again(self, arg: int, offset: int) -> None:
        """Schedule an emission `offset` after the start if that is inside the duration."""
        if offset < self._span:
            self.sim.engine.schedule(self.spec.start + offset, self.kind, (self._fire, arg))


class StreamGen(Source):
    """Constant-bitrate frame source (FeMBB)."""

    kind = EventKind.TRAFFIC_ARRIVAL

    def __init__(self, sim: Any, spec: TelemedicineStreamSpec) -> None:
        super().__init__(sim, spec, self.emit)
        self.flow = self._flow(spec.id, SliceClass.FEMBB, spec.src, spec.dst, spec.bitrate_bps,
                               spec.frame_bytes)

    def emit(self, k: int, now: int) -> None:
        self.sim.send(self.flow, self.spec.frame_bytes, now)
        self._again(k + 1, (k + 1) * self.period)

    def report(self) -> dict:
        return {"kind": "telemedicine_stream", "frames_emitted": self.flow.stats.sent}


class SurgeryGen(Source):
    """Command/acknowledgement loop (ERLLC) with round-trip accounting."""

    kind = EventKind.TRAFFIC_ARRIVAL

    def __init__(self, sim: Any, spec: SurgeryLoopSpec) -> None:
        super().__init__(sim, spec, self.emit)
        demand = spec.cmd_rate * spec.cmd_bytes * 8
        self.flow = self._flow(spec.id, SliceClass.ERLLC, spec.src, spec.dst, demand, spec.cmd_bytes)
        self.ack_flow = self._flow(f"{spec.id}.ack", SliceClass.ERLLC, spec.dst, spec.src, demand,
                                   spec.cmd_bytes)
        self.ack_flow.preadmitted = True  # acks ride the reverse path of the established session
        self._cmd_delivered = self.on_cmd_delivered
        self._ack_delivered = self.on_ack_delivered
        self.rtt_hist = DelayHistogram()
        self.budget_violations = 0

    def emit(self, k: int, now: int) -> None:
        self.sim.send(self.flow, self.spec.cmd_bytes, now, (self._cmd_delivered, now))
        self._again(k + 1, (k + 1) * self.period)

    def on_cmd_delivered(self, cmd_created: int, now: int) -> None:
        self.sim.send(self.ack_flow, self.spec.cmd_bytes, now, (self._ack_delivered, cmd_created))

    def on_ack_delivered(self, cmd_created: int, now: int) -> None:
        rtt = now - cmd_created
        self.rtt_hist.add(rtt)
        if rtt > self.spec.rtt_budget_ns:
            self.budget_violations += 1

    def report(self) -> dict:
        out = {
            "kind": "surgery_loop",
            "commands_emitted": self.flow.stats.sent,
            "rtt_budget_ns": self.spec.rtt_budget_ns,
            "rtt_budget_violations": self.budget_violations,
            "round_trips": self.rtt_hist.count,
        }
        if self.rtt_hist.count:
            out["rtt_p99_ns"] = self.rtt_hist.percentile(0.99)
            out["rtt_max_ns"] = self.rtt_hist.max_value
        return out


class AmbulanceGen(Source):
    """Mobile telemetry source (LDHMC) hopping along an edge corridor.

    Frames created during a handover gap are buffered at the device and
    released on reattachment, so mobility costs latency rather than loss.
    If the target edge is down when the gap ends, attachment defers to the
    next edge in the sequence and the gap extends by one more interval, or
    by one telemetry period when the gap is zero.
    """

    kind = EventKind.SYNC_DUE

    def __init__(self, sim: Any, spec: AmbulanceRunSpec) -> None:
        super().__init__(sim, spec, self.sync_emit)
        self.twin = sim.twins[spec.twin_id]
        demand = spec.telemetry_rate * spec.payload_bytes * 8
        self.flow = self._flow(spec.id, SliceClass.LDHMC, spec.device, self.twin.spec.host, demand,
                               spec.payload_bytes)
        self._handover = self.on_handover
        self._inject = self.inject
        self.buffer: list[Frame] = []
        self.handovers = 0
        self.deferred = 0
        self.buffered_total = 0

    def build(self) -> None:
        self.sim.topology.set_attachment(self.spec.device, self.spec.edge_sequence[0])
        super().build()

    def schedule_start(self) -> None:
        super().schedule_start()
        if self.flow.admitted:
            cell = self.spec.cell_time_ns
            for k in range(1, len(self.spec.edge_sequence)):
                self.sim.engine.schedule(self.spec.start + k * cell, _HANDOVER,
                                         (self._handover, (k, False)))

    def _duration(self) -> int:
        if self.spec.duration is not None:
            return self.spec.duration
        return self.spec.cell_time_ns * len(self.spec.edge_sequence)

    def sync_emit(self, k: int, now: int) -> None:
        vitals = self.sim.sample_vitals(self.twin, self.flow, now)
        self.sim.send(self.flow, self.spec.payload_bytes, now, vitals, inject=self._inject)
        self._again(k + 1, (k + 1) * self.period)

    def inject(self, frame: Frame, now: int) -> None:
        """Hand a frame to the network, or park it on the vehicle while detached."""
        if self.sim.topology.attached[self.spec.device] is None:
            self.buffer.append(frame)
            self.buffered_total += 1
        else:
            self.sim.net.inject(frame, now)

    def on_handover(self, step: tuple[int, bool], now: int) -> None:
        """Leave cell k-1 for edge k, or, with `attaching` set, end the gap there."""
        k, attaching = step
        target = self.spec.edge_sequence[k]
        if not attaching:
            # No-op when already there: an earlier deferral skipped ahead.
            if self.sim.topology.attached[self.spec.device] != target:
                self.sim.topology.set_attachment(self.spec.device, None)
                self.sim.engine.schedule(now + self.spec.handover_gap_ns, _HANDOVER,
                                         (self._handover, (k, True)))
            return
        if not self.sim.topology.node_up[target]:
            # Target edge is dark: defer to the next edge, extend the gap. A
            # retry at the same instant would never let the clock reach a recovery.
            self.deferred += 1
            nxt = min(k + 1, len(self.spec.edge_sequence) - 1)
            retry = self.spec.handover_gap_ns or self.period
            self.sim.engine.schedule(now + retry, _HANDOVER, (self._handover, (nxt, True)))
            return
        self.sim.topology.set_attachment(self.spec.device, target)
        self.handovers += 1
        if self.buffer:
            pending, self.buffer = self.buffer, []
            for frame in pending:
                self.sim.net.inject(frame, now)

    def report(self) -> dict:
        return {
            "kind": "ambulance_run",
            "frames_emitted": self.flow.stats.sent,
            "handovers": self.handovers,
            "handovers_deferred": self.deferred,
            "frames_buffered": self.buffered_total,
        }


class WearableFleetGen(Source):
    """Many periodic telemetry devices (umMTC), one flow and twin apiece.

    Member i's emissions carry arg i; its schedule offset is recovered from
    the clock as now - start, so an event needs no per-member state.

    A periodic fleet keeps its members' next emissions in a FIFO of
    (fire_at, seq, member), each seq reserved from the engine at the moment
    `_again` would schedule that emission, and puts only the FIFO's head on
    the heap. Every member has the same period and start phases do not fall
    with the member index, so entries join in (fire_at, seq) order and each
    emission fires at the place its own heap event would take. Poisson gaps
    are not in that order, so a Poisson member keeps its own heap event.

    Each `fork_keys` call here derives one stream key per member, row i for
    member i, when the first stream of its label prefix is drawn. A stream is
    built from its key on its first draw and has one holder: the member's
    twin holds its `vitals:` stream, and the fleet its `arrivals:` stream.
    """

    kind = EventKind.SYNC_DUE

    def __init__(self, sim: Any, spec: WearableFleetSpec) -> None:
        super().__init__(sim, spec, self.sync_emit)
        demand = periodic_demand(spec.payload_bytes, self.period)
        # Member i's (flow, twin), looked up once: an emission reads only this table.
        self._members: list[tuple[Flow, Twin]] = []
        for i, (device, twin_id) in enumerate(spec.members):
            twin = sim.twins[twin_id]
            flow = self._flow(f"{spec.id}.{i}", _UMMTC, device, twin.spec.host, demand,
                              spec.payload_bytes)
            self._members.append((flow, twin))
        # A Poisson member's `arrivals:` stream, held from its first draw on; and the
        # `vitals:` keys of the members' twins, derived at the fleet's first emission.
        self._arrivals: list[Optional[RngStream]] = []
        self._vitals_keys: Optional[np.ndarray] = None
        self._due: deque[tuple[int, int, int]] = deque()
        self._fire_head = self.fire_head

    def schedule_start(self) -> None:
        n, period = len(self.flows), self.period
        keys = None
        if self.spec.poisson:
            self._arrivals = [None] * n
        for i, flow in enumerate(self.flows):
            if not flow.admitted:
                continue
            if self.spec.poisson:
                if keys is None:  # the first admitted member: a fleet without one derives none
                    keys = fork_keys(self.sim.master_seed, [f"arrivals:{f.id}" for f in self.flows])
                rng = self._arrivals[i] = keyed_stream(keys[i])
                self._again(i, rng.exponential_ticks(period))
            else:
                self._queue(i, (i * period) // n if self.spec.stagger else 0)
        self._push_head()

    def _queue(self, i: int, offset: int) -> None:
        """`_again` for a periodic member: take the same place, in the FIFO."""
        if offset < self._span:
            self._due.append((self.spec.start + offset, self.sim.engine.reserve(1), i))

    def _push_head(self) -> None:
        if self._due:
            fire_at, seq, i = self._due[0]
            self.sim.engine.schedule_at(fire_at, seq, self.kind, (self._fire_head, i))

    def fire_head(self, i: int, now: int) -> None:
        self._due.popleft()
        self.sync_emit(i, now)
        self._push_head()

    def sync_emit(self, i: int, now: int) -> None:
        flow, twin = self._members[i]
        if twin.vitals_stream is None:
            if self._vitals_keys is None:
                self._vitals_keys = fork_keys(self.sim.master_seed,
                                              [f"vitals:{t.spec.id}" for _f, t in self._members])
            twin.vitals_stream = keyed_stream(self._vitals_keys[i])
        vitals = self.sim.sample_vitals(twin, flow, now)
        self.sim.send(flow, self.spec.payload_bytes, now, vitals)
        if self.spec.poisson:
            gap = self._arrivals[i].exponential_ticks(self.period)
            self._again(i, now - self.spec.start + gap)
        else:
            self._queue(i, now - self.spec.start + self.period)

    def report(self) -> dict:
        return {
            "kind": "wearable_fleet",
            "devices": len(self.flows),
            "devices_admitted": sum(f.admitted for f in self.flows),
            "frames_emitted": sum(f.stats.sent for f in self.flows),
        }


class BeaconGen(Source):
    """Low-power periodic beacon (ELPC) with an exact transmission energy ledger."""

    kind = EventKind.SYNC_DUE

    def __init__(self, sim: Any, spec: ImplantBeaconSpec) -> None:
        super().__init__(sim, spec, self.sync_emit)
        self.twin = sim.twins[spec.twin_id]
        demand = periodic_demand(spec.payload_bytes, self.period)
        self.flow = self._flow(spec.id, SliceClass.ELPC, spec.device, self.twin.spec.host, demand,
                               spec.payload_bytes)
        self.halted = False

    def sync_emit(self, k: int, now: int) -> None:
        # No idle drain: the battery pays exactly per transmission, into the flow's ledger.
        if self.flow.stats.energy_nj + self.spec.energy_per_tx_nj > self.spec.battery_nj:
            self.halted = True
            return
        vitals = self.sim.sample_vitals(self.twin, self.flow, now)
        self.sim.send(self.flow, self.spec.payload_bytes, now, vitals,
                      energy_nj=self.spec.energy_per_tx_nj)
        self._again(k + 1, (k + 1) * self.period)

    def report(self) -> dict:
        return {
            "kind": "implant_beacon",
            "transmissions": self.flow.stats.sent,
            "energy_consumed_nj": self.flow.stats.energy_nj,
            "battery_nj": self.spec.battery_nj,
            "halted": self.halted,
        }


GENERATORS: dict[type, type[Source]] = {
    TelemedicineStreamSpec: StreamGen,
    SurgeryLoopSpec: SurgeryGen,
    AmbulanceRunSpec: AmbulanceGen,
    WearableFleetSpec: WearableFleetGen,
    ImplantBeaconSpec: BeaconGen,
}
