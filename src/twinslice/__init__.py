"""Deterministic packet-level simulator for hierarchical digital twins on sliced networks.

The package layers are importable on their own: the event engine, the
metrics primitives, the network model, slice scheduling and contracts, the
twin hierarchy, workload generators, scenario files, and the orchestrator.
"""

from .engine import MS, SEC, US, Engine, EventKind, RngStream, SchedulePast, fork_rng
from .metrics import DelayHistogram, EmptyHistogram, NegativeDelay, TrafficStats, fmt6
from .network import (
    Frame,
    Link,
    NetworkService,
    Node,
    NodeKind,
    StackProfile,
    Topology,
    Unreachable,
    setup_latency_for,
    tx_ticks,
    unloaded_path_delay,
)
from .scenario import Scenario, ScenarioError, load_scenario, parse_duration, parse_energy, parse_rate
from .sim import RunResult, Simulation, run_scenario
from .slices import (
    SLICE_ORDER,
    AdmissionDecision,
    Flow,
    LinkQueue,
    QosContract,
    SliceClass,
    admit,
    check_sla,
    default_contracts,
)
from .twins import AlertRule, MetricSample, Twin, TwinLevel, TwinSyncError, parse_reducer

__version__ = "0.1.0"

__all__ = [
    "MS",
    "SEC",
    "US",
    "Engine",
    "EventKind",
    "RngStream",
    "SchedulePast",
    "fork_rng",
    "DelayHistogram",
    "EmptyHistogram",
    "NegativeDelay",
    "TrafficStats",
    "fmt6",
    "Frame",
    "Link",
    "NetworkService",
    "Node",
    "NodeKind",
    "StackProfile",
    "Topology",
    "Unreachable",
    "setup_latency_for",
    "tx_ticks",
    "unloaded_path_delay",
    "Scenario",
    "ScenarioError",
    "load_scenario",
    "parse_duration",
    "parse_energy",
    "parse_rate",
    "RunResult",
    "Simulation",
    "run_scenario",
    "SLICE_ORDER",
    "AdmissionDecision",
    "Flow",
    "LinkQueue",
    "QosContract",
    "SliceClass",
    "admit",
    "check_sla",
    "default_contracts",
    "AlertRule",
    "MetricSample",
    "Twin",
    "TwinLevel",
    "TwinSyncError",
    "parse_reducer",
]
