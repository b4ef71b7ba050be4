"""Span tracer for the traced run, and the layer map it installs.

The traced run measures each module under `src/twinslice/` from outside: it
replaces public functions and methods with wrappers before any simulation is
built, and changes nothing under `src/`. Names a module imports by value
(`fork_rng`, `admit`, `check_sla`, `to_json_bytes`, `load_scenario`,
`run_scenario`) are replaced in the module that calls them.

Spans (name, start, end, parent) are kept in memory in flat arrays and
written out once the run has finished. A span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import statistics
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

import numpy as np

Observer = Callable[["Tracer", tuple, Any], None]


class Tracer:
    """Records spans and counters for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name: str, value: int) -> None:
        if value > self.counts.get(name, 0):
            self.counts[name] = value

    def span(self, name: str, fn: Callable, observe: Optional[Observer] = None) -> Callable:
        """Wrap fn so that every call records one span named `name`."""
        nid = self._id(name)
        start, end, names, parents, stack = self.start, self.end, self.name, self.parent, self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            i = len(end)
            names.append(nid)
            parents.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def counter(self, name: str, fn: Callable, observe: Optional[Observer] = None) -> Callable:
        """Wrap fn so that every call is counted under `name`, without a span."""
        counts = self.counts

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] = counts.get(name, 0) + 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result

        return counted

    def span_stats(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        names = np.frombuffer(self.name, dtype=np.uint16)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parents >= 0
        child_time = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child_time
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}

    def durations(self, name: str) -> list[float]:
        if name not in self._ids:
            return []
        names = np.frombuffer(self.name, dtype=np.uint16)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return dur[names == self._ids[name]].tolist()

    def write(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))


# --- how each wrapped target is replaced -------------------------------------

Install = Callable[[Tracer, Callable], Callable]


def span(name: str, observe: Optional[Observer] = None) -> Install:
    return lambda tracer, fn: tracer.span(name, fn, observe)


def count(name: str, observe: Optional[Observer] = None) -> Install:
    return lambda tracer, fn: tracer.counter(name, fn, observe)


def _handler_spans(tracer: Tracer, on: Callable) -> Callable:
    # Every handler enters the engine through Engine.on, so one span per
    # event kind times the whole dispatch, network hops included.
    def traced_on(engine: Any, kind: Any, handler: Callable) -> None:
        return on(engine, kind, tracer.span(f"engine.handler.{kind.name.lower()}", handler))

    return traced_on


def _network_callbacks(tracer: Tracer, init: Callable) -> Callable:
    def traced_init(service: Any, engine: Any, topology: Any, loss_rng: Any,
                    on_deliver: Callable, on_drop: Callable) -> None:
        init(service, engine, topology, loss_rng,
             tracer.span("sim.deliver", on_deliver),
             tracer.counter("network.drop", on_drop, _drop_cause))

    return traced_init


def _drop_cause(t: Tracer, args: tuple, _result: Any) -> None:
    t.add(f"network.drops.{args[1]}")


def _scenario_size(t: Tracer, _args: tuple, scn: Any) -> None:
    t.add("scenario.nodes", len(scn.nodes))
    t.add("scenario.links", len(scn.links))
    t.add("scenario.twins", len(scn.twins))


def _pending(t: Tracer, args: tuple, _result: Any) -> None:
    t.peak("engine.pending_peak", args[0].pending())


def _flow_rejected(t: Tracer, _args: tuple, decision: Any) -> None:
    if not decision.accepted:
        t.add("sim.flows_rejected")


def _admit_accepted(t: Tracer, _args: tuple, decision: Any) -> None:
    if decision.accepted:
        t.add("slices.admit_accepted")


def _push_outcome(t: Tracer, args: tuple, accepted: bool) -> None:
    if not accepted:
        t.add("slices.queue_refused")
    t.peak("slices.queue_peak", args[0].occupancy)


def _children_read(t: Tracer, args: tuple, _result: Any) -> None:
    t.add("twins.aggregate_children", len(args[1]))


RNG_DRAWS = ("random", "bernoulli", "exponential", "exponential_ticks", "normal", "integers")

# The layer map: module -> the end-to-end metric its numbers should move, and
# the wrapped targets as (owner, attribute, replacement). An owner is
# "module" or "module:Class".
LAYER_MAP: dict[str, dict[str, Any]] = {
    "scenario": {
        "moves": "setup_s on fleet",
        "wraps": [("twinslice.cli", "load_scenario", span("scenario.load", _scenario_size))],
    },
    "sim": {
        "moves": "setup_s on fleet (build, admit); run_s on fleet (send, deliver, vitals)",
        "wraps": [
            ("twinslice.sim:Simulation", "__init__", span("sim.build")),
            ("twinslice.sim:Simulation", "admit_flow", span("sim.admit", _flow_rejected)),
            ("twinslice.sim:Simulation", "send", span("sim.send")),
            ("twinslice.sim:Simulation", "sample_vitals", span("sim.vitals")),
        ],
    },
    "engine": {
        "moves": "run_s on fleet and contended; setup_s on fleet (forks); wall_s on sweep (forks)",
        "wraps": [
            ("twinslice.engine:Engine", "on", _handler_spans),
            ("twinslice.engine:Engine", "schedule", count("engine.schedule", _pending)),
            ("twinslice.engine:Engine", "run_until", span("engine.loop")),
            ("twinslice.sim", "fork_rng", span("engine.fork_rng")),
        ] + [("twinslice.engine:RngStream", draw, span("engine.rng")) for draw in RNG_DRAWS],
    },
    "network": {
        "moves": "run_s on contended; setup_s on fleet (routes at admission)",
        "wraps": [
            ("twinslice.network:NetworkService", "__init__", _network_callbacks),
            ("twinslice.network:NetworkService", "inject", span("network.inject")),
            ("twinslice.network:Topology", "route", span("network.route")),
        ] + [("twinslice.network:NetworkService", fault, count("network.fault"))
             for fault in ("fail_link", "recover_link", "fail_node", "recover_node")],
    },
    "slices": {
        "moves": "run_s on contended (about 0 pushes on fleet); setup_s on fleet (admit)",
        "wraps": [
            ("twinslice.slices:LinkQueue", "push", span("slices.queue_push", _push_outcome)),
            ("twinslice.slices:LinkQueue", "pop", span("slices.queue_pop")),
            ("twinslice.sim", "admit", span("slices.admit", _admit_accepted)),
            ("twinslice.sim", "check_sla", span("slices.check_sla")),
        ],
    },
    "twins": {
        "moves": "run_s on fleet; wall_s on sweep",
        "wraps": [
            ("twinslice.twins:Twin", "apply_sync", span("twins.apply_sync")),
            ("twinslice.twins:Twin", "aggregate", span("twins.aggregate", _children_read)),
            ("twinslice.twins:Twin", "pending_deltas", span("twins.pending_deltas")),
            ("twinslice.twins:Twin", "check_alerts", span("twins.check_alerts")),
        ],
    },
    "workloads": {
        "moves": "run_s on fleet",
        "wraps": [
            ("twinslice.workloads:StreamGen", "emit", span("workloads.emit")),
            ("twinslice.workloads:SurgeryGen", "emit", span("workloads.emit")),
            ("twinslice.workloads:AmbulanceGen", "sync_emit", span("workloads.emit")),
            ("twinslice.workloads:AmbulanceGen", "on_handover", span("workloads.emit")),
            ("twinslice.workloads:WearableFleetGen", "sync_emit", span("workloads.emit")),
            ("twinslice.workloads:BeaconGen", "sync_emit", span("workloads.emit")),
        ],
    },
    "metrics": {
        "moves": "run_s on fleet and contended (hist adds); report_s on fleet",
        "wraps": [
            ("twinslice.metrics:DelayHistogram", "add", span("metrics.hist_add")),
            ("twinslice.metrics:DelayHistogram", "percentile", span("metrics.percentile")),
            ("twinslice.sim:RunResult", "__init__", span("metrics.report_build")),
            ("twinslice.sim", "to_json_bytes", span("metrics.json")),
            ("twinslice.cli", "to_json_bytes", span("metrics.json")),
        ],
    },
    "cli": {
        "moves": "wall_s on sweep",
        "wraps": [("twinslice.cli", "run_scenario", span("cli.run"))],
    },
}


def install(tracer: Tracer) -> None:
    """Replace every target in LAYER_MAP with its traced wrapper."""
    for layer in LAYER_MAP.values():
        for owner_path, attr, replace in layer["wraps"]:
            module_name, _, cls = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if cls:
                owner = getattr(owner, cls)
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
            setattr(owner, attr, replace(tracer, original))


EVENT_KINDS = ("traffic_arrival", "frame_departure", "frame_arrival", "sync_due",
               "aggregation_due", "fault_start", "fault_end", "handover", "metrics_flush")


def layer_metrics(tracer: Tracer, events: int, report_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced process.

    `events` is what `Engine.run_until` returned, summed over runs;
    `report_bytes` is the total size of the rendered reports.
    """
    stats = tracer.span_stats()
    counts = tracer.counts

    def calls(name: str) -> int:
        return stats.get(name, (0, 0.0))[0]

    def self_s(name: str) -> float:
        return stats.get(name, (0, 0.0))[1]

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {
        "scenario.load_s": self_s("scenario.load"),
        "scenario.nodes": counts.get("scenario.nodes", 0),
        "scenario.links": counts.get("scenario.links", 0),
        "scenario.twins": counts.get("scenario.twins", 0),
        "sim.build_s": self_s("sim.build"),
        "sim.admit_calls": calls("sim.admit"),
        "sim.admit_s": self_s("sim.admit"),
        "sim.flows_rejected": counts.get("sim.flows_rejected", 0),
        "sim.send_calls": calls("sim.send"),
        "sim.send_s": self_s("sim.send"),
        "sim.deliver_calls": calls("sim.deliver"),
        "sim.deliver_s": self_s("sim.deliver"),
        "sim.vitals_calls": calls("sim.vitals"),
        "sim.vitals_s": self_s("sim.vitals"),
        "engine.events": events,
    }
    for kind in EVENT_KINDS:
        m[f"engine.events.{kind}"] = calls(f"engine.handler.{kind}")
    for kind in EVENT_KINDS:
        m[f"engine.handler_s.{kind}"] = self_s(f"engine.handler.{kind}")
    pushes = calls("slices.queue_push")
    admits = calls("slices.admit")
    per_run = tracer.durations("cli.run")
    m.update({
        "engine.schedule_calls": counts.get("engine.schedule", 0),
        "engine.pending_peak": counts.get("engine.pending_peak", 0),
        "engine.loop_s": self_s("engine.loop"),
        "engine.fork_rng_calls": calls("engine.fork_rng"),
        "engine.fork_rng_s": self_s("engine.fork_rng"),
        "engine.rng_draws": calls("engine.rng"),
        "engine.rng_s": self_s("engine.rng"),
        "network.inject_calls": calls("network.inject"),
        "network.inject_s": self_s("network.inject"),
        "network.route_calls": calls("network.route"),
        "network.route_s": self_s("network.route"),
        "network.departure_s": self_s("engine.handler.frame_departure"),
        "network.arrival_s": self_s("engine.handler.frame_arrival"),
        "network.drops.loss": counts.get("network.drops.loss", 0),
        "network.drops.queue": counts.get("network.drops.queue", 0),
        "network.drops.fault": counts.get("network.drops.fault", 0),
        "network.fault_calls": counts.get("network.fault", 0),
        "slices.queue_push_calls": pushes,
        "slices.queue_pop_calls": calls("slices.queue_pop"),
        "slices.queue_push_s": self_s("slices.queue_push"),
        "slices.queue_pop_s": self_s("slices.queue_pop"),
        "slices.queue_full_ratio": ratio(counts.get("slices.queue_refused", 0), pushes),
        "slices.queue_peak": counts.get("slices.queue_peak", 0),
        "slices.admit_calls": admits,
        "slices.admit_s": self_s("slices.admit"),
        "slices.admit_accept_ratio": ratio(counts.get("slices.admit_accepted", 0), admits),
        "slices.check_sla_s": self_s("slices.check_sla"),
        "twins.apply_sync_calls": calls("twins.apply_sync"),
        "twins.apply_sync_s": self_s("twins.apply_sync"),
        "twins.aggregate_calls": calls("twins.aggregate"),
        "twins.aggregate_children": counts.get("twins.aggregate_children", 0),
        "twins.aggregate_s": self_s("twins.aggregate"),
        "twins.pending_deltas_s": self_s("twins.pending_deltas"),
        "twins.check_alerts_s": self_s("twins.check_alerts"),
        "workloads.emit_calls": calls("workloads.emit"),
        "workloads.emit_s": self_s("workloads.emit"),
        "metrics.hist_add_calls": calls("metrics.hist_add"),
        "metrics.hist_add_s": self_s("metrics.hist_add"),
        "metrics.percentile_calls": calls("metrics.percentile"),
        "metrics.percentile_s": self_s("metrics.percentile"),
        "metrics.report_build_s": self_s("metrics.report_build"),
        "metrics.json_s": self_s("metrics.json"),
        "metrics.report_bytes": report_bytes,
        "cli.runs": len(per_run),
        "cli.per_run_s": statistics.median(per_run) if per_run else 0.0,
    })
    return m
