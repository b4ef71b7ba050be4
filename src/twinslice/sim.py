"""Run orchestration: build a live simulation from a scenario and report on it.

The Simulation owns the engine, topology, twin instances, and workload
generators, wires the event handlers between them, runs admission control,
executes the event loop to t_end, and assembles the run report. Reports are
deterministic byte for byte for a given (scenario, seed): they carry no wall
clock and every float is either an exact ratio or quantized.
"""

from __future__ import annotations

from typing import Callable, Optional

from .engine import Engine, EventKind, RngStream, SEC, fork_rng
from .metrics import TrafficStats, fmt6, to_csv_bytes, to_json_bytes
from .network import (
    Frame,
    NetworkService,
    NodeKind,
    Topology,
    Unreachable,
    setup_latency_for,
    unloaded_path_delay,
)
from .scenario import Scenario, ScenarioError, TwinSpec, run_errors
from .slices import (
    SLICE_ORDER,
    AdmissionDecision,
    Flow,
    SliceClass,
    admit,
    check_sla,
    periodic_demand,
)
from .twins import AlertRule, Delta, Twin, TwinLevel
from .workloads import GENERATORS, Source

ALERT_PAYLOAD_BYTES = 64
# Nominal size of one twin delta on the wire: metric tag plus value, version,
# and timestamp words. Used for push frame payloads and demand estimates.
DELTA_BYTES = 24
SYNC_HEADER_BYTES = 16
# Read once: on CPython 3.11 a member read through its class costs about 112 ns.
_TRAFFIC_ARRIVAL, _SYNC_DUE, _AGGREGATION_DUE = (
    EventKind.TRAFFIC_ARRIVAL, EventKind.SYNC_DUE, EventKind.AGGREGATION_DUE)
_INDIVIDUAL, _GLOBAL_EDGE, _ERLLC = TwinLevel.INDIVIDUAL, TwinLevel.GLOBAL_EDGE, SliceClass.ERLLC


def _call(payload: tuple, now: int) -> None:
    """Fire an event payload or frame content: a flat (callee, arg) pair."""
    callee, arg = payload
    callee(arg, now)


class Simulation:
    """One executable run of a scenario."""

    def __init__(self, scenario: Scenario, seed: Optional[int] = None,
                 t_end: Optional[int] = None) -> None:
        self.scenario = scenario
        self.master_seed = scenario.master_seed if seed is None else seed
        self.t_end = scenario.t_end if t_end is None else t_end
        errors = run_errors(self.master_seed, self.t_end)  # an override follows the file's rules
        if errors:
            raise ScenarioError(errors)

        self.engine = Engine()
        self.topology = Topology(scenario.nodes, scenario.links)
        self.net = NetworkService(self.engine, self.topology, self.new_stream, self._on_deliver,
                                  self._on_drop)
        # Callees that events and frame contents carry, bound once so that
        # scheduling one allocates nothing but its (callee, arg) pair.
        self._net_inject = self.net.inject
        self.deliver_sync = self._deliver_sync
        self.deliver_push = self._deliver_push
        self._push_due = self._twin_push
        self.stack = scenario.stack
        self.contracts = scenario.contracts

        self.core_host = next(n.id for n in scenario.nodes if n.kind is NodeKind.CORE)

        self.flows: dict[str, Flow] = {}
        self.admitted_demand: dict[int, int] = {}
        self.refused: list[AdmissionDecision] = []  # every flow in `flows` is admitted or here

        self.twins = self._build_twins(scenario.twins)

        self.generators: list[Source] = [GENERATORS[type(spec)](self, spec)
                                         for spec in scenario.workloads]

        self.engine.on(EventKind.TRAFFIC_ARRIVAL, _call)
        self.engine.on(EventKind.SYNC_DUE, _call)
        self.engine.on(EventKind.AGGREGATION_DUE, self._on_aggregation_due)
        self.engine.on(EventKind.HANDOVER, _call)
        self.engine.on(EventKind.FAULT_START, _call)
        self.engine.on(EventKind.FAULT_END, _call)
        self.engine.on(EventKind.METRICS_FLUSH, self._on_flush)

        self._finished = False

    # --- construction -------------------------------------------------------

    def new_stream(self, label: str) -> RngStream:
        """A new stream of `label` at counter zero: its one holder calls this on its first draw."""
        return fork_rng(self.master_seed, label)

    def _build_twins(self, specs: list[TwinSpec]) -> dict[str, Twin]:
        twins = {spec.id: Twin(spec) for spec in specs}
        for spec in specs:  # link the tree once: no event looks a twin up
            if spec.children:
                parent = twins[spec.id]
                parent.children = tuple(twins[c] for c in spec.children)
                for child in parent.children:
                    child.parent = parent
        return twins

    # --- flow and frame services (used by generators) ------------------------

    def admit_flow(self, flow: Flow) -> AdmissionDecision:
        # Loading rejects every clash among workload and derived flow ids.
        assert flow.id not in self.flows, f"duplicate flow id {flow.id!r}"
        self.flows[flow.id] = flow
        try:
            hops = self.topology.route(flow.src, flow.dst)
        except Unreachable:
            decision = AdmissionDecision(flow.id, False, "unreachable")
            self.refused.append(decision)
            return decision
        flow.setup_latency_ns = setup_latency_for(self.stack, hops)
        total = flow.frame_payload + self.stack.overhead
        unloaded = unloaded_path_delay(hops, total)
        decision = admit(
            flow, [h.link for h in hops], unloaded,
            self.contracts[flow.slice_cls], self.admitted_demand,
            self.scenario.utilization_cap,
        )
        if not decision.accepted:
            self.refused.append(decision)
        return decision

    def send(self, flow: Flow, payload_bytes: int, now: int, content: Optional[tuple] = None,
             inject: Optional[Callable[[Frame, int], None]] = None, energy_nj: int = 0) -> None:
        """Emit a frame on `flow` that fires `content` on delivery; inject after setup latency.

        Session establishment is charged to every frame as a fixed delay
        before injection, so end to end delay always includes it. A mobile
        source passes its own `inject`, which parks frames while detached.
        """
        assert flow.admitted, f"flow {flow.id} emitted without admission"
        frame = Frame(flow, payload_bytes, payload_bytes + self.stack.overhead, now,
                      content=content)
        flow.stats.sent += 1
        flow.stats.energy_nj += energy_nj
        if inject is None:
            inject = self._net_inject
        if flow.setup_latency_ns > 0:
            self.engine.schedule(now + flow.setup_latency_ns, _TRAFFIC_ARRIVAL, (inject, frame))
        else:
            inject(frame, now)

    def sample_vitals(self, twin: Twin, flow: Flow, now: int) -> tuple:
        """Delivery content for `twin`'s next vitals, which its one source sends next on `flow`."""
        version = flow.stats.sent + 1  # the source's emission count, this emission included
        rng = twin.vitals_stream
        if rng is None:
            rng = twin.vitals_stream = self.new_stream(f"vitals:{twin.id}")
        deltas = [(spec.name, rng.normal(spec.mean, spec.sd), version, now) for spec in twin.vitals]
        return (self.deliver_sync, (twin, deltas))

    # --- event handlers ------------------------------------------------------

    def _on_aggregation_due(self, twin: Twin, now: int) -> None:
        if self.topology.node_up[twin.host]:
            if twin.level is _GLOBAL_EDGE:
                # Co-hosted children are read directly; the host being up
                # implies every child twin on it is live.
                child_states = [child.state for child in twin.children]
            else:
                # The core aggregates its copies of its children's pushes,
                # skipping children whose host edge is currently dark.
                child_states = [child.pushed for child in twin.children if self.topology.node_up[child.host]]
            twin.aggregate(child_states)
            if twin.alert_rules:
                self._escalate(twin, twin.check_alerts(), now)
        self.engine.schedule(now + twin.aggregation_period, _AGGREGATION_DUE, twin)

    def _twin_push(self, twin: Twin, now: int) -> None:
        if self.topology.node_up[twin.host]:
            deltas = twin.pending_deltas()
            if deltas:
                flow = twin.push_flow
                assert flow is not None and twin.parent is not None
                if flow.admitted:
                    self.send(flow, SYNC_HEADER_BYTES + DELTA_BYTES * len(deltas), now,
                              (self.deliver_push, (twin, deltas)))
        self.engine.schedule(now + twin.sync_period, _SYNC_DUE, (self._push_due, twin))

    def _on_flush(self, _payload, now: int) -> None:
        for twin in self.twins.values():
            twin.sample_ages(now)

    # --- delivery and drops ---------------------------------------------------

    def _on_deliver(self, frame: Frame, now: int) -> None:
        stats = frame.flow.stats
        stats.delivered += 1
        stats.hist.add(now - frame.created_at)
        stats.payload_bits += frame.payload_bytes * 8
        content = frame.content
        if content is not None:
            callee, arg = content
            callee(arg, now)

    def _deliver_sync(self, landed: tuple[Twin, list[Delta]], now: int) -> None:
        """Vitals or a child's alerts reach a twin's own state; check its rules, if it has any."""
        twin, deltas = landed
        twin.apply_sync(deltas, now)
        if twin.alert_rules:
            self._escalate(twin, twin.check_alerts(), now)

    def _deliver_push(self, pushed: tuple[Twin, list[Delta]], now: int) -> None:
        """A child's summary lands in its parent's copy of it, which no alert rule reads."""
        child, deltas = pushed
        child.parent.apply_sync(deltas, now, child)

    def _on_drop(self, frame: Frame, cause: str, _now: int) -> None:
        frame.flow.stats.record_drop(cause)

    def _escalate(self, twin: Twin, fired: list[AlertRule], now: int) -> None:
        """Propagate fired alerts one level up the hierarchy.

        Alerts always travel as low-latency-class frames on a pinned flow;
        when parent and child share a host the route is empty and delivery
        is immediate. Alert entries land in the parent's own state under
        alert:<child>:<metric>, so the parent's rules can cascade upward.
        """
        if not fired or twin.parent is None:
            return
        deltas = []
        for rule in fired:
            sample = twin.state.get(rule.metric)
            value = sample.value if sample is not None else rule.threshold
            observed = sample.observed_at if sample is not None else now
            version = twin.alert_versions[rule.metric] = twin.alert_versions.get(rule.metric, 0) + 1
            deltas.append((f"alert:{twin.id}:{rule.metric}", value, version, observed))
        flow = twin.alert_flow or self._open_alert_flow(twin, twin.parent)
        if flow.admitted:
            self.send(flow, ALERT_PAYLOAD_BYTES, now, (self.deliver_sync, (twin.parent, deltas)))

    def _open_alert_flow(self, twin: Twin, parent: Twin) -> Flow:
        flow = twin.alert_flow = Flow(
            id=f"alerts.{twin.id}", slice_cls=_ERLLC,
            src=twin.host, dst=parent.host, demand_bps=1_000, preadmitted=True,
            frame_payload=ALERT_PAYLOAD_BYTES,
        )
        self.admit_flow(flow)
        # Alert sessions are held open; no per-frame establishment cost.
        flow.setup_latency_ns = 0
        return flow

    # --- run ------------------------------------------------------------------

    def run(self) -> "RunResult":
        if self._finished:
            raise RuntimeError("a Simulation instance runs once; build a new one to rerun")
        self._finished = True

        for gen in self.generators:
            gen.build()
        for twin in self.twins.values():
            if twin.level is _GLOBAL_EDGE:
                twin.push_flow = self._make_push_flow(twin)
        for gen in self.generators:
            gen.schedule_start()
        for twin_id in sorted(self.twins):
            twin = self.twins[twin_id]
            if twin.level is _INDIVIDUAL:
                continue
            self.engine.schedule(twin.aggregation_phase, _AGGREGATION_DUE, twin)
            if twin.level is _GLOBAL_EDGE:
                self.engine.schedule(twin.sync_phase, _SYNC_DUE, (self._push_due, twin))
        for fault in self.scenario.faults:
            if fault.target_kind == "link":
                target = self.topology.links[fault.target_id]
                fail, recover = self.net.fail_link, self.net.recover_link
            else:
                target = self.topology.nodes[fault.target_id]
                fail, recover = self.net.fail_node, self.net.recover_node
            self.engine.schedule(fault.t_fail, EventKind.FAULT_START, (fail, target))
            if fault.t_recover <= self.t_end:
                self.engine.schedule(fault.t_recover, EventKind.FAULT_END, (recover, target))
        self.engine.schedule(self.t_end, EventKind.METRICS_FLUSH)

        self.engine.run_until(self.t_end)
        return RunResult(self)

    def _make_push_flow(self, twin: Twin) -> Flow:
        est_payload = SYNC_HEADER_BYTES + DELTA_BYTES * len(twin.policy)
        demand = periodic_demand(est_payload, twin.sync_period)
        flow = Flow(
            id=f"twinsync.{twin.id}", slice_cls=SliceClass.UMMTC,
            src=twin.host, dst=self.core_host, demand_bps=demand,
            frame_payload=est_payload,
        )
        self.admit_flow(flow)
        return flow


class RunResult:
    """Outcome of one run: report dict, serializers, and exit status."""

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self.report = self._build_report()
        verdicts = [row["verdict"] for row in self.report["slices"].values()]
        self.violated = any(v.startswith("violated") for v in verdicts)
        self.exit_code = 1 if self.violated else 0

    def _slice_row(self, cls: SliceClass, stats: TrafficStats) -> dict:
        sim = self.sim
        throughput = stats.payload_bits * SEC / sim.t_end
        verdict = check_sla(stats, sim.contracts[cls], cls, throughput)
        hist = stats.hist
        empty = hist.count == 0
        return {
            "slice": cls.value,
            "sent": stats.sent,
            "delivered": stats.delivered,
            "dropped_loss": stats.dropped_loss,
            "dropped_queue": stats.dropped_queue,
            "dropped_fault": stats.dropped_fault,
            "in_flight": stats.in_flight,
            "mean_delay_ns": fmt6(hist.mean),
            "p50_ns": 0 if empty else hist.percentile(0.5),
            "p99_ns": 0 if empty else hist.percentile(0.99),
            "max_ns": hist.max_value,
            "throughput_bps": fmt6(throughput),
            "reliability": stats.reliability,
            "energy_nj": stats.energy_nj,
            "verdict": verdict,
        }

    def _build_report(self) -> dict:
        sim = self.sim
        scn = sim.scenario
        totals = {cls: TrafficStats() for cls in SLICE_ORDER}
        for flow in sim.flows.values():
            totals[flow.slice_cls].merge(flow.stats)
        slices = {cls.value: self._slice_row(cls, totals[cls]) for cls in SLICE_ORDER}

        rejected = [{"flow": d.flow_id, "reason": d.reason} for d in sim.refused]
        twins = {}
        for twin_id in sorted(sim.twins):
            twin = sim.twins[twin_id]
            state = {
                metric: {
                    "value": fmt6(sample.value),
                    "version": sample.version,
                    "observed_at_ns": sample.observed_at,
                }
                for metric, sample in sorted(twin.state.items())
            }
            twins[twin_id] = {
                "level": twin.level.value,
                "host": twin.host,
                "state": state,
                "staleness_max_ns": dict(sorted(twin.staleness_max.items())),
                "alerts_fired": twin.alerts_fired,
                "last_aggregation_children": twin.last_aggregation_children,
            }

        workloads = {}
        for gen in sim.generators:
            workloads[gen.spec.id] = gen.report()

        faults = [
            {"target": f"{f.target_kind}:{f.target_id}", "t_fail_ns": f.t_fail, "t_recover_ns": f.t_recover}
            for f in scn.faults
        ]

        return {
            "scenario": {"name": scn.name, "description": scn.description, "digest": scn.digest},
            "run": {
                "master_seed": sim.master_seed,
                "t_end_ns": sim.t_end,
                "events_processed": sim.engine.processed,
            },
            "slices": slices,
            "flows": {
                "total": len(sim.flows),
                "admitted": sum(1 for flow in sim.flows.values() if flow.admitted),
                "rejected": rejected,
            },
            "twins": twins,
            "staleness": {"global_max_ns": max(
                (age for twin in sim.twins.values() for age in twin.staleness_max.values()),
                default=0)},
            "workloads": workloads,
            "faults": faults,
        }

    def json_bytes(self) -> bytes:
        return to_json_bytes(self.report)

    def csv_bytes(self) -> bytes:
        rows = [row for row in self.report["slices"].values() if row["sent"] > 0]
        return to_csv_bytes(rows)


def run_scenario(scenario: Scenario, seed: Optional[int] = None,
                 t_end: Optional[int] = None) -> RunResult:
    """Build and execute one run. Seed and horizon override the scenario."""
    return Simulation(scenario, seed=seed, t_end=t_end).run()
