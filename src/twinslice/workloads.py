"""Workload generators: the traffic sources that drive a run.

Each generator owns its flows, schedules its own emission events, and keeps
per-workload statistics (RTTs, handovers, energy). Telemetry-style workloads
(wearables, implants, ambulance) emit twin sync messages as their frames, so
twin freshness is carried by the same packets the slice contracts meter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .engine import EventKind, SEC
from .metrics import DelayHistogram
from .network import Frame
from .slices import Flow, SliceClass
from .twins import SyncMessage

DEFAULT_HANDOVER_GAP = 10_000_000  # 10 ms


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
class TelemedicineStreamSpec:
    id: str
    src: int
    dst: int
    bitrate_bps: int
    frame_bytes: int
    start: int = 0
    duration: Optional[int] = None
    preadmit: bool = False


@dataclass
class SurgeryLoopSpec:
    id: str
    src: int
    dst: int
    cmd_rate: int  # commands per second
    cmd_bytes: int
    rtt_budget_ns: int
    start: int = 0
    duration: Optional[int] = None
    preadmit: bool = False


@dataclass
class AmbulanceRunSpec:
    id: str
    device: int
    twin_id: str
    speed_kmh: float
    edge_sequence: list[int] = field(default_factory=list)
    telemetry_rate: int = 10  # frames per second
    payload_bytes: int = 600
    cell_span_m: float = 1000.0
    handover_gap_ns: int = DEFAULT_HANDOVER_GAP
    start: int = 0
    duration: Optional[int] = None
    preadmit: bool = False

    @property
    def cell_time_ns(self) -> int:
        # time to cross one cell at constant speed
        return round(self.cell_span_m / (self.speed_kmh / 3.6) * SEC)


@dataclass
class WearableFleetSpec:
    id: str
    edges: list[int]
    n_devices: int
    period_ns: int
    payload_bytes: int
    stagger: bool = True
    poisson: bool = False
    twin_prefix: str = "wearable"
    vitals: list[VitalSpec] = field(default_factory=list)
    alerts: list[tuple[str, float]] = field(default_factory=list)
    link_rate_bps: int = 100_000_000
    link_prop_ns: int = 2_000
    link_queue_cap: int = 1024
    start: int = 0
    duration: Optional[int] = None
    preadmit: bool = False
    # filled during expansion: (device_node, twin_id) per fleet member
    members: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class ImplantBeaconSpec:
    id: str
    device: int
    twin_id: str
    period_ns: int
    payload_bytes: int
    energy_per_tx_nj: int
    battery_nj: int
    start: int = 0
    duration: Optional[int] = None
    preadmit: bool = False


WorkloadSpec = (
    TelemedicineStreamSpec
    | SurgeryLoopSpec
    | AmbulanceRunSpec
    | WearableFleetSpec
    | ImplantBeaconSpec
)


def _period_from_rate(per_second: float) -> int:
    return round(SEC / per_second)


class StreamGen:
    """Constant-bitrate frame source (FeMBB)."""

    def __init__(self, sim: Any, spec: TelemedicineStreamSpec) -> None:
        self.sim = sim
        self.spec = spec
        self.period = round(spec.frame_bytes * 8 * SEC / spec.bitrate_bps)
        self.flow = Flow(
            id=spec.id,
            slice_cls=SliceClass.FEMBB,
            src=spec.src,
            dst=spec.dst,
            demand_bps=spec.bitrate_bps,
            start=spec.start,
            preadmitted=spec.preadmit,
            frame_payload=spec.frame_bytes,
        )
        self.emitted = 0

    def build(self) -> None:
        self.sim.admit_flow(self.flow)

    def schedule_start(self) -> None:
        if self.flow.admitted:
            self.sim.engine.schedule(self.spec.start, EventKind.TRAFFIC_ARRIVAL, ("emit", self, 0))

    def emit(self, k: int, now: int) -> None:
        frame = self.sim.make_frame(self.flow, self.spec.frame_bytes, now)
        self.sim.send(self.flow, frame, now)
        self.emitted += 1
        nxt = (k + 1) * self.period
        if nxt < self._duration():
            self.sim.engine.schedule(self.spec.start + nxt, EventKind.TRAFFIC_ARRIVAL, ("emit", self, k + 1))

    def _duration(self) -> int:
        return self.spec.duration if self.spec.duration is not None else self.sim.t_end - self.spec.start

    def report(self) -> dict:
        return {"kind": "telemedicine_stream", "frames_emitted": self.emitted}


class SurgeryGen:
    """Command/acknowledgement loop (ERLLC) with round-trip accounting."""

    def __init__(self, sim: Any, spec: SurgeryLoopSpec) -> None:
        self.sim = sim
        self.spec = spec
        self.period = _period_from_rate(spec.cmd_rate)
        demand = spec.cmd_rate * spec.cmd_bytes * 8
        self.flow = Flow(
            id=spec.id, slice_cls=SliceClass.ERLLC, src=spec.src, dst=spec.dst,
            demand_bps=demand, start=spec.start, preadmitted=spec.preadmit,
            frame_payload=spec.cmd_bytes,
        )
        # Acks ride the reverse path on the already-established session.
        self.ack_flow = Flow(
            id=f"{spec.id}.ack", slice_cls=SliceClass.ERLLC, src=spec.dst, dst=spec.src,
            demand_bps=demand, start=spec.start, preadmitted=True, frame_payload=spec.cmd_bytes,
        )
        self.rtt_hist = DelayHistogram()
        self.cmd_delays = DelayHistogram()
        self.budget_violations = 0
        self.emitted = 0

    def build(self) -> None:
        self.sim.admit_flow(self.flow)
        self.sim.admit_flow(self.ack_flow)

    def schedule_start(self) -> None:
        if self.flow.admitted:
            self.sim.engine.schedule(self.spec.start, EventKind.TRAFFIC_ARRIVAL, ("emit", self, 0))

    def emit(self, k: int, now: int) -> None:
        frame = self.sim.make_frame(self.flow, self.spec.cmd_bytes, now)
        frame.content = ("cmd", self, now)
        self.sim.send(self.flow, frame, now)
        self.emitted += 1
        nxt = (k + 1) * self.period
        duration = self.spec.duration if self.spec.duration is not None else self.sim.t_end - self.spec.start
        if nxt < duration:
            self.sim.engine.schedule(self.spec.start + nxt, EventKind.TRAFFIC_ARRIVAL, ("emit", self, k + 1))

    def on_cmd_delivered(self, cmd_created: int, now: int) -> None:
        self.cmd_delays.add(now - cmd_created)
        ack = self.sim.make_frame(self.ack_flow, self.spec.cmd_bytes, now)
        ack.content = ("ack", self, cmd_created)
        self.sim.send(self.ack_flow, ack, now)

    def on_ack_delivered(self, cmd_created: int, now: int) -> None:
        rtt = now - cmd_created
        self.rtt_hist.add(rtt)
        if rtt > self.spec.rtt_budget_ns:
            self.budget_violations += 1

    def report(self) -> dict:
        out = {
            "kind": "surgery_loop",
            "commands_emitted": self.emitted,
            "rtt_budget_ns": self.spec.rtt_budget_ns,
            "rtt_budget_violations": self.budget_violations,
            "round_trips": self.rtt_hist.count,
        }
        if self.rtt_hist.count:
            out["rtt_p99_ns"] = self.rtt_hist.percentile(0.99)
            out["rtt_max_ns"] = self.rtt_hist.max_value
        return out


class AmbulanceGen:
    """Mobile telemetry source (LDHMC) hopping along an edge corridor.

    Frames created during a handover gap are buffered at the device and
    released on reattachment, so mobility costs latency rather than loss.
    If the target edge is down when the gap ends, attachment defers to the
    next edge in the sequence and the gap extends by one more interval.
    """

    def __init__(self, sim: Any, spec: AmbulanceRunSpec) -> None:
        self.sim = sim
        self.spec = spec
        self.twin = sim.twins[spec.twin_id]
        self.tele_period = _period_from_rate(spec.telemetry_rate)
        demand = spec.telemetry_rate * spec.payload_bytes * 8
        self.flow = Flow(
            id=spec.id, slice_cls=SliceClass.LDHMC, src=spec.device, dst=self.twin.host,
            demand_bps=demand, start=spec.start, preadmitted=spec.preadmit,
            frame_payload=spec.payload_bytes,
        )
        self.buffer: list[Frame] = []
        self.versions: dict[str, int] = {}
        self.handovers = 0
        self.deferred = 0
        self.buffered_total = 0
        self.emitted = 0

    def build(self) -> None:
        self.sim.topology.set_attachment(self.spec.device, self.spec.edge_sequence[0])
        self.sim.admit_flow(self.flow)

    def schedule_start(self) -> None:
        if not self.flow.admitted:
            return
        self.sim.engine.schedule(self.spec.start, EventKind.SYNC_DUE, ("ambulance", self, 0))
        cell = self.spec.cell_time_ns
        for k in range(1, len(self.spec.edge_sequence)):
            self.sim.engine.schedule(self.spec.start + k * cell, EventKind.HANDOVER, ("detach", self, k))

    def _duration(self) -> int:
        if self.spec.duration is not None:
            return self.spec.duration
        return self.spec.cell_time_ns * len(self.spec.edge_sequence)

    def sync_emit(self, k: int, now: int) -> None:
        msg = self.sim.sample_vitals(self.twin, self.versions, now)
        frame = self.sim.make_frame(self.flow, self.spec.payload_bytes, now)
        frame.content = ("sync", self.twin.id, msg)
        self.emitted += 1
        self.sim.send(self.flow, frame, now, gen=self)
        nxt = (k + 1) * self.tele_period
        if nxt < self._duration():
            self.sim.engine.schedule(self.spec.start + nxt, EventKind.SYNC_DUE, ("ambulance", self, k + 1))

    def attached(self) -> bool:
        return self.sim.topology.nodes[self.spec.device].attached_edge is not None

    def hold(self, frame: Frame) -> None:
        self.buffer.append(frame)
        self.buffered_total += 1

    def on_handover(self, phase: str, k: int, now: int) -> None:
        if phase == "detach":
            target = self.spec.edge_sequence[k]
            if self.sim.topology.nodes[self.spec.device].attached_edge == target:
                return  # already there (an earlier deferral skipped ahead)
            self.sim.topology.set_attachment(self.spec.device, None)
            self.sim.engine.schedule(now + self.spec.handover_gap_ns, EventKind.HANDOVER, ("attach", self, k))
            return
        target = self.spec.edge_sequence[k]
        if not self.sim.topology.nodes[target].up:
            # Target edge is dark: defer to the next edge, extend the gap.
            self.deferred += 1
            nxt = min(k + 1, len(self.spec.edge_sequence) - 1)
            self.sim.engine.schedule(now + self.spec.handover_gap_ns, EventKind.HANDOVER, ("attach", self, nxt))
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
            "frames_emitted": self.emitted,
            "handovers": self.handovers,
            "handovers_deferred": self.deferred,
            "frames_buffered": self.buffered_total,
        }


class WearableFleetGen:
    """Many periodic telemetry devices (umMTC), one flow and twin apiece."""

    def __init__(self, sim: Any, spec: WearableFleetSpec) -> None:
        self.sim = sim
        self.spec = spec
        self.flows: list[Flow] = []
        self.versions: list[dict[str, int]] = [{} for _ in spec.members]
        self.emitted = 0
        demand = max(1, round(spec.payload_bytes * 8 * SEC / spec.period_ns))
        for i, (device, twin_id) in enumerate(spec.members):
            twin = sim.twins[twin_id]
            self.flows.append(Flow(
                id=f"{spec.id}.{i}", slice_cls=SliceClass.UMMTC, src=device, dst=twin.host,
                demand_bps=demand, start=spec.start, preadmitted=spec.preadmit,
                frame_payload=spec.payload_bytes,
            ))

    def build(self) -> None:
        for flow in self.flows:
            self.sim.admit_flow(flow)

    def schedule_start(self) -> None:
        n = len(self.flows)
        for i, flow in enumerate(self.flows):
            if not flow.admitted:
                continue
            phase = (i * self.spec.period_ns) // n if self.spec.stagger else 0
            if self.spec.poisson:
                rng = self.sim.stream(f"arrivals:{flow.id}")
                phase = rng.exponential_ticks(self.spec.period_ns)
            if phase < self._duration():
                self.sim.engine.schedule(self.spec.start + phase, EventKind.SYNC_DUE, ("wearable", self, i, phase))

    def _duration(self) -> int:
        return self.spec.duration if self.spec.duration is not None else self.sim.t_end - self.spec.start

    def sync_emit(self, i: int, offset: int, now: int) -> None:
        device, twin_id = self.spec.members[i]
        twin = self.sim.twins[twin_id]
        msg = self.sim.sample_vitals(twin, self.versions[i], now)
        flow = self.flows[i]
        frame = self.sim.make_frame(flow, self.spec.payload_bytes, now)
        frame.content = ("sync", twin_id, msg)
        self.emitted += 1
        self.sim.send(flow, frame, now)
        if self.spec.poisson:
            nxt = offset + self.sim.stream(f"arrivals:{flow.id}").exponential_ticks(self.spec.period_ns)
        else:
            nxt = offset + self.spec.period_ns
        if nxt < self._duration():
            self.sim.engine.schedule(self.spec.start + nxt, EventKind.SYNC_DUE, ("wearable", self, i, nxt))

    def report(self) -> dict:
        admitted = sum(1 for f in self.flows if f.admitted)
        return {
            "kind": "wearable_fleet",
            "devices": len(self.flows),
            "devices_admitted": admitted,
            "frames_emitted": self.emitted,
        }


class BeaconGen:
    """Low-power periodic beacon (ELPC) with an exact transmission energy ledger."""

    def __init__(self, sim: Any, spec: ImplantBeaconSpec) -> None:
        self.sim = sim
        self.spec = spec
        self.twin = sim.twins[spec.twin_id]
        demand = max(1, round(spec.payload_bytes * 8 * SEC / spec.period_ns))
        self.flow = Flow(
            id=spec.id, slice_cls=SliceClass.ELPC, src=spec.device, dst=self.twin.host,
            demand_bps=demand, start=spec.start, preadmitted=spec.preadmit,
            frame_payload=spec.payload_bytes,
        )
        self.versions: dict[str, int] = {}
        self.transmissions = 0
        self.halted = False

    def build(self) -> None:
        self.sim.admit_flow(self.flow)

    def schedule_start(self) -> None:
        if self.flow.admitted:
            self.sim.engine.schedule(self.spec.start, EventKind.SYNC_DUE, ("beacon", self, 0))

    def _duration(self) -> int:
        return self.spec.duration if self.spec.duration is not None else self.sim.t_end - self.spec.start

    def sync_emit(self, k: int, now: int) -> None:
        # No idle drain: the battery pays exactly per transmission.
        if (self.transmissions + 1) * self.spec.energy_per_tx_nj > self.spec.battery_nj:
            self.halted = True
            return
        self.transmissions += 1
        msg = self.sim.sample_vitals(self.twin, self.versions, now)
        frame = self.sim.make_frame(self.flow, self.spec.payload_bytes, now)
        frame.content = ("sync", self.twin.id, msg)
        self.sim.send(self.flow, frame, now, energy_nj=self.spec.energy_per_tx_nj)
        nxt = (k + 1) * self.spec.period_ns
        if nxt < self._duration():
            self.sim.engine.schedule(self.spec.start + nxt, EventKind.SYNC_DUE, ("beacon", self, k + 1))

    @property
    def energy_consumed_nj(self) -> int:
        return self.transmissions * self.spec.energy_per_tx_nj

    def report(self) -> dict:
        return {
            "kind": "implant_beacon",
            "transmissions": self.transmissions,
            "energy_consumed_nj": self.energy_consumed_nj,
            "battery_nj": self.spec.battery_nj,
            "halted": self.halted,
        }
