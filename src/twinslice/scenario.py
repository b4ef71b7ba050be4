"""Scenario files: parsing, unit handling, expansion, and validation.

A scenario is a YAML document (conventionally *.scn) describing the run
window, topology, protocol stack, per-slice contracts, twin hierarchy,
workloads, and fault timeline. Quantities carry unit suffixes and are parsed
exactly onto integer grids: durations to nanosecond ticks, rates to bits per
second, energy to nanojoules. Validation never stops at the first problem;
every error is collected with a path into the document. This module holds
every validity rule: the simulator trusts a loaded Scenario and checks
nothing again.
"""

from __future__ import annotations

import hashlib
import math
import re
from contextlib import suppress
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

import yaml

from .engine import SEC, SEED_LIMIT
from .metrics import HORIZON_LIMIT
from .network import DEFAULT_QUEUE_CAP, TRANSPORT_BYTES, Link, Node, NodeKind, StackProfile
from .slices import DEFAULT_UTILIZATION_CAP, QosContract, SliceClass, default_contracts
from .twins import TwinLevel, TwinSyncError, parse_reducer
from .workloads import (
    DEFAULT_HANDOVER_GAP,
    AmbulanceRunSpec,
    FaultSpec,
    ImplantBeaconSpec,
    SurgeryLoopSpec,
    TelemedicineStreamSpec,
    VitalSpec,
    WearableFleetSpec,
    WorkloadSpec,
)


# Integer fields, rates, energies and lengths stay below it, so what a run derives stays a finite float.
MAGNITUDE_LIMIT = 2**63


class ScenarioError(Exception):
    """Validation failed; .errors lists every problem found."""

    def __init__(self, errors: list[str]) -> None:
        super().__init__(f"{len(errors)} scenario error(s)")
        self.errors = errors


_UNIT_RE = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?)\s*([a-zA-Z]+)\s*$")

_DURATION = {"ns": 1, "us": 1_000, "ms": 1_000_000, "s": SEC}
_RATE = {"bps": 1, "kbps": 1_000, "mbps": 1_000_000, "gbps": 1_000_000_000, "tbps": 1_000_000_000_000}
_ENERGY = {"nj": 1, "uj": 1_000, "mj": 1_000_000, "j": 1_000_000_000}
_LENGTH = {"m": 1, "km": 1_000}


def _unit_parser(table: dict[str, int], what: str, bare_unit: str,
                 bounded: bool = True) -> Callable[..., Optional[int]]:
    """A parser for '10ms' style quantities, exact on one integer grid.

    Bare ints mean the base unit; a `bounded` quantity is below
    MAGNITUDE_LIMIT. The parser appends its one error with its path to
    `errors` and returns None; with no list given it raises ScenarioError
    instead.
    """
    def parse(value: Any, path: str = what, errors: Optional[list[str]] = None) -> Optional[int]:
        number = None
        if isinstance(value, bool):
            problem = f"expected a {what}, got a boolean"
        elif isinstance(value, int):
            number = value
        elif isinstance(value, float):
            problem = f"bare floats are ambiguous; write a suffixed string (e.g. '1.5{bare_unit}')"
        elif not isinstance(value, str):
            problem = f"expected a {what}, got {type(value).__name__}"
        elif not (m := _UNIT_RE.match(value)):
            problem = f"cannot parse {what} {value!r}"
        elif m.group(2).lower() not in table:
            problem = f"unknown {what} unit {m.group(2)!r} in {value!r}"
        else:
            exact = Fraction(m.group(1)) * table[m.group(2).lower()]
            if exact.denominator == 1:
                number = int(exact)
            else:
                problem = f"{value!r} does not land on an integer number of base units"
        if number is not None:
            if not bounded or number < MAGNITUDE_LIMIT:
                return number
            problem = "must be below 2**63"
        if errors is None:
            raise ScenarioError([f"{path}: {problem}"])
        errors.append(f"{path}: {problem}")
        return None

    return parse


# Unbounded: a start, delay or period past the horizon only falls outside the run.
parse_duration = _unit_parser(_DURATION, "duration", "ms", bounded=False)
parse_rate = _unit_parser(_RATE, "rate", "mbps")
parse_energy = _unit_parser(_ENERGY, "energy", "uJ")
parse_length_m = _unit_parser(_LENGTH, "length", "m")


# Field readers. Each returns the accepted value, or appends one error with
# its path and returns None; no reader drops a value without saying why.

def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_num(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value: Any) -> bool:
    """A number that converts to a finite float (an int past float range does not)."""
    try:
        return _is_num(value) and math.isfinite(value)
    except OverflowError:
        return False


def _int(value: Any, path: str, errors: list[str], lo: Optional[int] = None,
         what: str = "an integer") -> Optional[int]:
    """An integer no smaller than lo, and below MAGNITUDE_LIMIT; `what` finishes the 'must be' message."""
    if not (_is_int(value) and (lo is None or value >= lo)):
        errors.append(f"{path}: must be {what}")
    elif value >= MAGNITUDE_LIMIT:
        errors.append(f"{path}: must be below 2**63")
    else:
        return value
    return None


def _bool(value: Any, path: str, errors: list[str]) -> Optional[bool]:
    if not isinstance(value, bool):
        errors.append(f"{path}: must be true or false")
        return None
    return value


def _quantity(value: Any, parse: Callable[..., Optional[int]], path: str,
              errors: list[str], positive: bool = True) -> Optional[int]:
    """Parse a unit quantity and apply its sign rule: > 0 if positive, else >= 0."""
    number = parse(value, path, errors)
    if number is not None and (number <= 0 if positive else number < 0):
        errors.append(f"{path}: must be positive" if positive else f"{path}: must be >= 0")
        return None
    return number


def run_errors(seed: Any, t_end: Optional[int]) -> list[str]:
    """The run window's rules, for the file's values and for overrides alike.

    The horizon is an integer in (0, 2**63) ns, so that no delay overruns
    the histogram's last edge; a t_end of None is not checked. The master
    seed is an integer in [0, 2**64), one 64-bit seed word.
    """
    errors = []
    if t_end is not None and not (_is_int(t_end) and 0 < t_end < HORIZON_LIMIT):
        errors.append("run.t_end: must be an integer number of ns" if not _is_int(t_end)
                      else "run.t_end: must be positive" if t_end <= 0
                      else "run.t_end: must be below 2**63 ns")
    if not (_is_int(seed) and 0 <= seed < SEED_LIMIT):
        errors.append("run.master_seed: must be an integer in [0, 2**64)")
    return errors


def _node_id(value: Any, node_by_id: dict, path: str, errors: list[str]) -> Optional[int]:
    if _is_int(value) and value in node_by_id:
        return value
    errors.append(f"{path}: unknown node {value}")
    return None


def _member(value: Any, vocab: type[Enum], path: str, errors: list[str]) -> Any:
    """The member of `vocab` whose value is `value`, or None and one error naming every value."""
    with suppress(ValueError):
        return vocab(value)
    errors.append(f"{path}: must be one of {tuple(m.value for m in vocab)}")
    return None


def _edge_list(value: Any, node_by_id: dict, path: str, errors: list[str]) -> Optional[list[int]]:
    if not isinstance(value, list) or not value:
        errors.append(f"{path}: must be a non-empty list of edge node ids")
        return None
    bad = [e for e in value if not (_is_int(e) and e in node_by_id and node_by_id[e].kind is NodeKind.EDGE)]
    for e in bad:
        errors.append(f"{path}: {e} is not an edge node")
    return None if bad else list(value)


def _mapping(value: Any, path: str, errors: list[str]) -> dict:
    """An optional mapping section; absent or empty reads as {}."""
    if not value:
        return {}
    if not isinstance(value, dict):
        errors.append(f"{path}: must be a mapping")
        return {}
    return value


def _items(raw: Any, path: str, errors: list[str], null_ok: bool = False, keys: tuple = (),
           item_error: str = "must be a mapping") -> Iterator[tuple[int, str, dict]]:
    """Each mapping of a list section as (index, path, item).

    A section that is not a list (or null, unless `null_ok`) and an item that
    is not a mapping holding `keys` each get one error with their path.
    """
    if raw is None and null_ok:
        return
    if not isinstance(raw, list):
        errors.append(f"{path}: must be a list")
        return
    for i, item in enumerate(raw):
        if isinstance(item, dict) and all(k in item for k in keys):
            yield i, f"{path}[{i}]", item
        else:
            errors.append(f"{path}[{i}]: {item_error}")


_BYTE_COUNT = "a positive integer byte count"


@dataclass
class TwinSpec:
    """One twin as loaded.

    While parsing, children may be "auto" and an unset period or phase is
    None; loading resolves both, so the twins of a returned Scenario carry
    explicit children lists and integer periods and phases (0 where the level
    does not use them).
    """

    id: str
    level: TwinLevel
    host: int
    entity: Optional[int] = None
    children: Any = "auto"
    sync_period: Optional[int] = None
    sync_phase: Optional[int] = None
    aggregation_period: Optional[int] = None
    aggregation_phase: Optional[int] = None
    policy: dict[str, str] = field(default_factory=dict)
    vitals: list[VitalSpec] = field(default_factory=list)
    alerts: list[tuple[str, float]] = field(default_factory=list)


@dataclass
class Scenario:
    name: str
    description: str
    digest: str
    t_end: int
    master_seed: int
    formats: list[str]
    out: Optional[str]
    stack: StackProfile
    utilization_cap: float
    nodes: list[Node]
    links: list[Link]
    contracts: dict[SliceClass, QosContract]
    twins: list[TwinSpec]
    workloads: list[WorkloadSpec]
    faults: list[FaultSpec]


_TWIN_TIMING = ("sync_period", "sync_phase", "aggregation_period", "aggregation_phase")
_WORKLOAD_KINDS = (
    "telemedicine_stream",
    "surgery_loop",
    "ambulance_run",
    "wearable_fleet",
    "implant_beacon",
)
# The field that sets a workload's emission period when it is derived by rounding.
_PERIOD_SOURCE = {"telemedicine_stream": "bitrate", "surgery_loop": "cmd_rate",
                  "ambulance_run": "telemetry_rate"}


def load_scenario(path: str | Path) -> Scenario:
    """Read, expand, and validate a scenario file. Raises ScenarioError."""
    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ScenarioError([f"not valid YAML: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ScenarioError(["scenario document must be a mapping"])
    return scenario_from_dict(data, digest=digest, fallback_name=Path(path).stem)


def scenario_from_dict(data: dict, digest: str = "", fallback_name: str = "scenario") -> Scenario:
    errors: list[str] = []
    name = data.get("name", fallback_name)
    description = data.get("description", "")

    # --- run section --------------------------------------------------------
    run = data.get("run")
    t_end = 0
    master_seed = 0
    formats = ["json", "csv"]
    out: Optional[str] = None
    if not isinstance(run, dict):
        errors.append("run: section is required (with at least t_end)")
    else:
        t_end = parse_duration(run.get("t_end"), "run.t_end", errors)
        master_seed = run.get("master_seed", 0)
        errors += run_errors(master_seed, t_end)
        fmt = run.get("formats", ["json", "csv"])
        if fmt == "both":
            fmt = ["json", "csv"]
        if not isinstance(fmt, list) or not fmt or any(f not in ("json", "csv") for f in fmt):
            errors.append("run.formats: must be a non-empty list drawn from [json, csv]")
        else:
            formats = fmt
        raw_out = run.get("out")
        if raw_out is not None and (not isinstance(raw_out, str) or not raw_out):
            errors.append("run.out: must be a non-empty directory path string")
        else:
            out = raw_out

    # --- stack section ------------------------------------------------------
    stack = _parse_stack(_mapping(data.get("stack"), "stack", errors), errors)

    adm = _mapping(data.get("admission"), "admission", errors)
    cap = adm.get("utilization_cap", DEFAULT_UTILIZATION_CAP)
    if not _is_num(cap) or not 0 < cap <= 1:
        errors.append("admission.utilization_cap: must be in (0, 1]")
        cap = DEFAULT_UTILIZATION_CAP
    utilization_cap = float(cap)

    # --- nodes and links ----------------------------------------------------
    nodes = _parse_nodes(data.get("nodes", []), errors)
    links = _parse_links(data.get("links", []), nodes, errors)

    # --- contracts ----------------------------------------------------------
    contracts = default_contracts()
    for key, cfg in _mapping(data.get("contracts"), "contracts", errors).items():
        cls = next((c for c in SliceClass if c.value == str(key)), None)
        if cls is None:
            errors.append(f"contracts.{key}: unknown slice (expected one of {sorted(c.value for c in SliceClass)})")
            continue
        path = f"contracts.{key}"
        _apply_contract(contracts[cls], cls, _mapping(cfg, path, errors), path, errors)

    # --- twins --------------------------------------------------------------
    twins = _parse_twins(data.get("twins", []), errors)

    # --- workloads (fleet expansion appends nodes/links/twins) --------------
    workloads = _parse_workloads(data.get("workloads", []), nodes, links, twins, errors)

    # --- faults -------------------------------------------------------------
    faults = _parse_faults(data.get("faults", []), nodes, links, errors)

    _resolve_children(twins)
    _validate_cross(nodes, links, twins, workloads, errors)
    _resolve_twins(twins, errors)
    _check_flow_ids(twins, workloads, errors)

    if errors:
        raise ScenarioError(errors)
    return Scenario(
        name=str(name),
        description=str(description),
        digest=digest,
        t_end=t_end,
        master_seed=master_seed,
        formats=formats,
        out=out,
        stack=stack,
        utilization_cap=utilization_cap,
        nodes=nodes,
        links=links,
        contracts=contracts,
        twins=twins,
        workloads=workloads,
        faults=faults,
    )


def _parse_stack(cfg: dict, errors: list[str]) -> StackProfile:
    transport = cfg.get("transport", "quic")
    if not isinstance(transport, str) or transport not in TRANSPORT_BYTES:  # a list would not hash
        errors.append(f"stack.transport: must be one of {sorted(TRANSPORT_BYTES)}")
        transport = "quic"
    fields = {}
    for key in ("alp", "session", "security", "network", "phy", "transport_bytes"):
        if key in cfg:
            v = _int(cfg[key], f"stack.{key}", errors, 0, "a non-negative integer byte count")
            if v is not None:
                fields[key] = v
    setup = cfg.get("setup_latency", "auto")
    setup_ns: Optional[int] = None
    if setup != "auto":
        setup_ns = _quantity(setup, parse_duration, "stack.setup_latency", errors, positive=False)
    fields.setdefault("transport_bytes", TRANSPORT_BYTES[transport])
    return StackProfile(setup_latency_ns=setup_ns, **fields)


# Bounds that `check_sla` judges for one slice only, and that slice.
_ONE_SLICE_BOUNDS = {"min_rate": SliceClass.FEMBB, "max_energy_per_msg": SliceClass.ELPC}


def _apply_contract(contract: QosContract, cls: SliceClass, cfg: dict, path: str,
                    errors: list[str]) -> None:
    for key, value in cfg.items():
        judged = _ONE_SLICE_BOUNDS.get(key)
        if judged is not None and cls is not judged:
            errors.append(f"{path}.{key}: only the {judged.value} verdict reads this bound")
        elif key == "min_rate":
            v = _quantity(value, parse_rate, f"{path}.min_rate", errors, positive=False)
            if v is not None:
                contract.min_rate_bps = v
        elif key == "max_e2e_delay":
            contract.max_e2e_delay_ns = None if value is None else _quantity(
                value, parse_duration, f"{path}.max_e2e_delay", errors)
        elif key == "max_loss":
            if value is None:
                contract.max_loss = None
            elif _is_num(value) and 0 <= value <= 1:
                contract.max_loss = float(value)
            else:
                errors.append(f"{path}.max_loss: must be a probability in [0, 1] or null")
        elif key == "max_energy_per_msg":
            contract.max_energy_per_msg_nj = None if value is None else _quantity(
                value, parse_energy, f"{path}.max_energy_per_msg", errors, positive=False)
        else:
            errors.append(f"{path}.{key}: unknown contract field")


def _parse_nodes(raw: Any, errors: list[str]) -> list[Node]:
    nodes: list[Node] = []
    for _, path, item in _items(raw, "nodes", errors):
        nid = _int(item.get("id"), f"{path}.id", errors)
        if nid is None:
            continue
        kind = _member(item.get("kind"), NodeKind, f"{path}.kind", errors)
        if kind is None:
            continue
        mobile = _bool(item.get("mobile", False), f"{path}.mobile", errors)
        if mobile and kind is not NodeKind.DEVICE:
            errors.append(f"{path}: only devices can be mobile")
        nodes.append(Node(nid, kind, mobile))
    if not isinstance(raw, list):
        return nodes  # the section error says it all
    ids = [n.id for n in nodes]
    if ids != list(range(len(ids))):
        errors.append("nodes: ids must be unique and dense from 0, in order")
    cores = [n.kind for n in nodes].count(NodeKind.CORE)
    if cores != 1:
        errors.append(f"nodes: exactly one core node required, found {cores}")
    return nodes


def _parse_links(raw: Any, nodes: list[Node], errors: list[str]) -> list[Link]:
    links: list[Link] = []
    node_kind = {n.id: n.kind for n in nodes}
    for _, path, item in _items(raw, "links", errors):
        lid = _int(item.get("id"), f"{path}.id", errors)
        if lid is None:
            continue
        ends = item.get("ends")
        if not isinstance(ends, list) or len(ends) != 2 or not all(map(_is_int, ends)):
            errors.append(f"{path}.ends: must be a pair of node ids")
            continue
        a, b = ends
        known = [_node_id(end, node_kind, f"{path}.ends", errors) for end in ends]
        if a == b:
            errors.append(f"{path}.ends: a link cannot loop a node to itself")
        if None in known or a == b:
            continue
        kinds = {node_kind[a], node_kind[b]}
        if NodeKind.DEVICE in kinds and kinds != {NodeKind.DEVICE, NodeKind.EDGE}:
            errors.append(f"{path}: devices attach only to edge nodes")
        rate = _quantity(item.get("rate"), parse_rate, f"{path}.rate", errors)
        prop = _quantity(item.get("prop_delay", 0), parse_duration, f"{path}.prop_delay", errors,
                         positive=False)
        loss = item.get("loss", 0.0)
        if not _is_num(loss) or not 0 <= loss <= 1:
            errors.append(f"{path}.loss: must be a probability in [0, 1]")
            loss = 0.0
        cap = _int(item.get("queue_cap", DEFAULT_QUEUE_CAP), f"{path}.queue_cap", errors, 1,
                   "an integer >= 1") or DEFAULT_QUEUE_CAP
        if rate is None or prop is None:
            continue
        links.append(Link(lid, a, b, rate, prop, float(loss), cap))
    ids = [l.id for l in links]
    if ids != list(range(len(ids))):
        errors.append("links: ids must be unique and dense from 0, in order")
    return links


def _parse_vitals(raw: Any, path: str, errors: list[str]) -> list[VitalSpec]:
    out: list[VitalSpec] = []
    seen: set[str] = set()
    for _, p, item in _items(raw, path, errors, null_ok=True, keys=("name",),
                             item_error="must be a mapping with name/mean/sd"):
        nm = str(item["name"])
        if nm in seen:
            errors.append(f"{p}: duplicate vitals channel {nm!r}")
            continue
        seen.add(nm)
        mean = item.get("mean", 0.0)
        sd = item.get("sd", 0.0)
        # A NaN or infinite vital would put NaN/Infinity, which are not JSON, into the report.
        if not (_is_finite(mean) and _is_finite(sd)) or sd < 0:
            errors.append(f"{p}: mean and sd must be finite numbers and sd >= 0")
            continue
        # A draw stays within about 40 sd: means and sums over millions of children stay finite.
        if abs(mean) > 1e300 or sd > 1e300:
            errors.append(f"{p}: |mean| and sd must be at most 1e300")
            continue
        out.append(VitalSpec(nm, float(mean), float(sd)))
    return out


def _parse_alerts(raw: Any, path: str, errors: list[str]) -> list[tuple[str, float]]:
    out: list[tuple[str, float]] = []
    for _, p, item in _items(raw, path, errors, null_ok=True, keys=("metric", "threshold"),
                             item_error="must be a mapping with metric and threshold"):
        thr = item["threshold"]
        if not _is_finite(thr):
            errors.append(f"{p}.threshold: must be a finite number")
            continue
        out.append((str(item["metric"]), float(thr)))
    return out


def _parse_twins(raw: Any, errors: list[str]) -> list[TwinSpec]:
    twins: list[TwinSpec] = []
    seen: set[str] = set()
    for _, path, item in _items(raw, "twins", errors):
        tid = item.get("id")
        if not isinstance(tid, str) or not tid:
            errors.append(f"{path}.id: must be a non-empty string")
            continue
        if tid in seen:
            errors.append(f"{path}.id: duplicate twin id {tid!r}")
            continue
        seen.add(tid)
        level = _member(item.get("level"), TwinLevel, f"{path}.level", errors)
        if level is None:
            continue
        host = _int(item.get("host"), f"{path}.host", errors, what="a node id")
        if host is None:
            continue
        spec = TwinSpec(id=tid, level=level, host=host)
        if "entity" in item:
            spec.entity = _int(item["entity"], f"{path}.entity", errors, what="a node id")
        spec.children = item.get("children", "auto")
        if spec.children != "auto" and (
            not isinstance(spec.children, list) or any(not isinstance(c, str) for c in spec.children)
        ):
            errors.append(f"{path}.children: must be 'auto' or a list of twin ids")
            spec.children = []
        for key in _TWIN_TIMING:  # a period is > 0 and a phase >= 0
            if key in item:
                setattr(spec, key, _quantity(item[key], parse_duration, f"twins.{tid}.{key}", errors,
                                             positive=key.endswith("period")))
        policy = item.get("policy", {}) or {}
        if not isinstance(policy, dict):
            errors.append(f"{path}.policy: must be a mapping of metric -> reducer")
        else:
            for metric, reducer in policy.items():
                try:
                    parse_reducer(str(reducer))
                except TwinSyncError as exc:
                    errors.append(f"{path}.policy.{metric}: {exc}")
                    continue
                spec.policy[str(metric)] = str(reducer)
        spec.vitals = _parse_vitals(item.get("metrics"), f"{path}.metrics", errors)
        spec.alerts = _parse_alerts(item.get("alerts"), f"{path}.alerts", errors)
        if level is TwinLevel.INDIVIDUAL and spec.entity is None:
            errors.append(f"{path}: individual twins must bind an entity device")
        if level is not TwinLevel.INDIVIDUAL and not spec.policy:
            errors.append(f"{path}: global twins need an aggregation policy")
        twins.append(spec)
    return twins


def _parse_workloads(
    raw: Any,
    nodes: list[Node],
    links: list[Link],
    twins: list[TwinSpec],
    errors: list[str],
) -> list[WorkloadSpec]:
    out: list[WorkloadSpec] = []
    twin_by_id = {t.id: t for t in twins}
    node_by_id = {n.id: n for n in nodes}
    seen_ids: set[str] = set()
    fed: set[str] = set()  # twins that already have their one source
    for i, path, item in _items(raw, "workloads", errors, null_ok=True):
        kind = item.get("kind")
        if kind not in _WORKLOAD_KINDS:
            errors.append(f"{path}.kind: must be one of {_WORKLOAD_KINDS}")
            continue
        wid = str(item.get("id", f"wl{i}"))
        if wid in seen_ids:
            errors.append(f"{path}.id: duplicate workload id {wid!r}")
            continue
        seen_ids.add(wid)
        start = _quantity(item.get("start", 0), parse_duration, f"{path}.start", errors,
                          positive=False) or 0
        duration = None
        if "duration" in item:
            duration = _quantity(item["duration"], parse_duration, f"{path}.duration", errors)
        preadmit = _bool(item.get("preadmit", False), f"{path}.preadmit", errors)

        spec: Any = None
        if kind == "telemedicine_stream":
            bitrate = _quantity(item.get("bitrate"), parse_rate, f"{path}.bitrate", errors)
            src = _node_id(item.get("src"), node_by_id, f"{path}.src", errors)
            dst = _node_id(item.get("dst"), node_by_id, f"{path}.dst", errors)
            fsize = _int(item.get("frame_size"), f"{path}.frame_size", errors, 1, _BYTE_COUNT)
            if None not in (src, dst, fsize, bitrate):
                spec = TelemedicineStreamSpec(wid, src, dst, bitrate, fsize)

        elif kind == "surgery_loop":
            budget = _quantity(item.get("rtt_budget", "2ms"), parse_duration, f"{path}.rtt_budget", errors)
            src = _node_id(item.get("src"), node_by_id, f"{path}.src", errors)
            dst = _node_id(item.get("dst"), node_by_id, f"{path}.dst", errors)
            rate = _int(item.get("cmd_rate"), f"{path}.cmd_rate", errors, 1,
                        "a positive integer (commands per second)")
            size = _int(item.get("cmd_size"), f"{path}.cmd_size", errors, 1, _BYTE_COUNT)
            if None not in (budget, src, dst, rate, size):
                spec = SurgeryLoopSpec(wid, src, dst, rate, size, budget)

        elif kind == "ambulance_run":
            spec = _parse_ambulance(item, wid, node_by_id, twin_by_id, fed, path, errors)

        elif kind == "wearable_fleet":
            spec = _parse_fleet(item, wid, nodes, links, twins, node_by_id, path, errors)
            if spec is not None:
                twin_by_id = {t.id: t for t in twins}
                fed.update(twin_id for _device, twin_id in spec.members)

        elif kind == "implant_beacon":
            spec = _parse_beacon(item, wid, node_by_id, twin_by_id, fed, path, errors)

        if spec is not None and spec.period_ns < 1:
            # A zero-tick period would reschedule at one instant forever.
            errors.append(f"{path}.{_PERIOD_SOURCE[kind]}: the emission period it gives rounds to 0 ns")
            spec = None
        if spec is not None:
            spec.start, spec.duration, spec.preadmit = start, duration, preadmit
            out.append(spec)
    return out


def _check_device_twin(item: dict, node_by_id: dict, twin_by_id: dict, fed: set[str], path: str,
                       errors: list[str], want_mobile: bool) -> Optional[tuple[int, str]]:
    """The (device, twin) a telemetry workload feeds. A twin has one source, its entity:
    two sources would each number their samples from 1 and clash."""
    device = _node_id(item.get("device"), node_by_id, f"{path}.device", errors)
    twin_id = item.get("twin")
    ok = device is not None
    if ok and node_by_id[device].kind is not NodeKind.DEVICE:
        errors.append(f"{path}.device: node {device} is not a device")
        ok = False
    elif ok and want_mobile and not node_by_id[device].mobile:
        errors.append(f"{path}.device: node {device} must be declared mobile")
        ok = False
    if not isinstance(twin_id, str) or twin_id not in twin_by_id:
        errors.append(f"{path}.twin: unknown twin {twin_id!r}")
        ok = False
    else:
        twin = twin_by_id[twin_id]
        if twin.level is not TwinLevel.INDIVIDUAL:
            errors.append(f"{path}.twin: {twin_id!r} must be an individual twin")
            ok = False
        elif not twin.vitals:
            errors.append(f"{path}.twin: {twin_id!r} declares no metrics; telemetry would be empty")
            ok = False
        elif twin_id in fed:
            errors.append(f"{path}.twin: {twin_id!r} is already fed by another workload")
            ok = False
        elif ok and twin.entity != device:
            errors.append(f"{path}.device: twin {twin_id!r} is bound to entity {twin.entity}, "
                          f"not node {device}")
            ok = False
        fed.add(twin_id)
    if not ok:
        return None
    return device, twin_id


def _parse_ambulance(item: dict, wid: str, node_by_id: dict, twin_by_id: dict, fed: set[str],
                     path: str, errors: list[str]) -> Optional[AmbulanceRunSpec]:
    bound = _check_device_twin(item, node_by_id, twin_by_id, fed, path, errors, want_mobile=True)
    seq = _edge_list(item.get("edge_sequence"), node_by_id, f"{path}.edge_sequence", errors)
    speed = item.get("speed_kmh")
    if not _is_finite(speed) or speed <= 0:
        errors.append(f"{path}.speed_kmh: must be a finite positive number")
        speed = None
    rate = _int(item.get("telemetry_rate", 10), f"{path}.telemetry_rate", errors, 1,
                "a positive integer (frames per second)")
    payload = _int(item.get("payload", 600), f"{path}.payload", errors, 1, _BYTE_COUNT)
    cell = _quantity(item.get("cell_span", 1000), parse_length_m, f"{path}.cell_span", errors)
    gap = _quantity(item.get("handover_gap", DEFAULT_HANDOVER_GAP), parse_duration,
                    f"{path}.handover_gap", errors, positive=False)
    if bound is None or None in (seq, speed, rate, payload, cell, gap):
        return None
    device, twin_id = bound
    spec = AmbulanceRunSpec(
        id=wid, device=device, twin_id=twin_id, speed_kmh=float(speed),
        edge_sequence=seq, telemetry_rate=rate, payload_bytes=payload,
        cell_span_m=float(cell), handover_gap_ns=gap,
    )
    with suppress(ZeroDivisionError, OverflowError):  # a speed that underflows, an infinite time
        if spec.cell_time_ns < HORIZON_LIMIT:
            return spec
    errors.append(f"{path}.speed_kmh: the cell time it gives must be below 2**63 ns")
    return None


def _parse_fleet(item: dict, wid: str, nodes: list[Node], links: list[Link],
                 twins: list[TwinSpec], node_by_id: dict, path: str,
                 errors: list[str]) -> Optional[WearableFleetSpec]:
    period = _quantity(item.get("period"), parse_duration, f"{path}.period", errors)
    edges = _edge_list(item.get("edges"), node_by_id, f"{path}.edges", errors)
    n = _int(item.get("n_devices"), f"{path}.n_devices", errors, 1, "an integer >= 1")
    stagger = _bool(item.get("stagger", True), f"{path}.stagger", errors)
    poisson = _bool(item.get("poisson", False), f"{path}.poisson", errors)
    if poisson and period is not None and period >= HORIZON_LIMIT:  # a float mean gap
        errors.append(f"{path}.period: a Poisson fleet's period must be below 2**63 ns")
        period = None
    payload = _int(item.get("payload"), f"{path}.payload", errors, 1, _BYTE_COUNT)
    vitals = _parse_vitals(item.get("metrics"), f"{path}.metrics", errors)
    if not vitals:
        errors.append(f"{path}.metrics: fleet devices need at least one vitals channel")
    alerts = _parse_alerts(item.get("alerts"), f"{path}.alerts", errors)
    link_cfg = _mapping(item.get("link"), f"{path}.link", errors)
    link_rate = _quantity(link_cfg.get("rate", "100mbps"), parse_rate, f"{path}.link.rate", errors)
    link_prop = _quantity(link_cfg.get("prop_delay", "2us"), parse_duration,
                          f"{path}.link.prop_delay", errors, positive=False)
    link_cap = _int(link_cfg.get("queue_cap", DEFAULT_QUEUE_CAP), f"{path}.link.queue_cap",
                    errors, 1, "an integer >= 1")
    prefix = str(item.get("twin_prefix", f"{wid}_dev"))
    taken = {t.id for t in twins}
    clash = next((f"{prefix}_{i}" for i in range(n or 0) if f"{prefix}_{i}" in taken), None)
    if clash is not None:
        errors.append(f"{path}.twin_prefix: member twin {clash!r} duplicates an existing twin id")
    if (not vitals or clash is not None
            or None in (period, edges, n, payload, link_rate, link_prop, link_cap, stagger, poisson)):
        return None

    spec = WearableFleetSpec(
        id=wid, edges=edges, period_ns=period, payload_bytes=payload, stagger=stagger,
        poisson=poisson, vitals=vitals, alerts=alerts,
    )
    # Expansion: one device node, one access link, and one individual twin per
    # member, appended after the explicit ids so those stay dense and stable.
    nid = max((n.id for n in nodes), default=-1) + 1
    lid = max((l.id for l in links), default=-1) + 1
    device, individual = NodeKind.DEVICE, TwinLevel.INDIVIDUAL  # read once, not per member
    for i in range(n):
        edge = spec.edges[i % len(spec.edges)]
        nodes.append(Node(nid, device))
        links.append(Link(lid, nid, edge, link_rate, link_prop, 0.0, link_cap))
        twin_id = f"{prefix}_{i}"
        twins.append(TwinSpec(
            id=twin_id, level=individual, host=edge, entity=nid,
            sync_period=period, vitals=vitals, alerts=alerts,
        ))
        spec.members.append((nid, twin_id))
        nid += 1
        lid += 1
    return spec


def _parse_beacon(item: dict, wid: str, node_by_id: dict, twin_by_id: dict, fed: set[str],
                  path: str, errors: list[str]) -> Optional[ImplantBeaconSpec]:
    bound = _check_device_twin(item, node_by_id, twin_by_id, fed, path, errors, want_mobile=False)
    period = _quantity(item.get("period"), parse_duration, f"{path}.period", errors)
    energy = _quantity(item.get("energy_per_tx"), parse_energy, f"{path}.energy_per_tx", errors)
    battery = _quantity(item.get("battery"), parse_energy, f"{path}.battery", errors, positive=False)
    payload = _int(item.get("payload"), f"{path}.payload", errors, 1, _BYTE_COUNT)
    if bound is None or None in (period, payload, energy, battery):
        return None
    device, twin_id = bound
    return ImplantBeaconSpec(
        id=wid, device=device, twin_id=twin_id, period_ns=period,
        payload_bytes=payload, energy_per_tx_nj=energy, battery_nj=battery,
    )


def _parse_faults(raw: Any, nodes: list[Node], links: list[Link],
                  errors: list[str]) -> list[FaultSpec]:
    out: list[FaultSpec] = []
    node_ids = {n.id for n in nodes}
    link_ids = {l.id for l in links}
    for _, path, item in _items(raw, "faults", errors, null_ok=True):
        target = item.get("target", "")
        m = re.match(r"^(link|node):(\d+)$", str(target))
        if not m:
            errors.append(f"{path}.target: must look like 'link:<id>' or 'node:<id>'")
            continue
        kind, tid = m.group(1), int(m.group(2))
        pool = link_ids if kind == "link" else node_ids
        if tid not in pool:
            errors.append(f"{path}.target: unknown {kind} {tid}")
            continue
        t_fail = _quantity(item.get("t_fail"), parse_duration, f"{path}.t_fail", errors,
                           positive=False)
        t_recover = parse_duration(item.get("t_recover"), f"{path}.t_recover", errors)
        if t_fail is None or t_recover is None:
            continue
        if t_fail >= t_recover:
            errors.append(f"{path}: fault window inverted (t_fail {t_fail} >= t_recover {t_recover})")
            continue
        out.append(FaultSpec(kind, tid, t_fail, t_recover))
    return out


def _validate_cross(nodes: list[Node], links: list[Link], twins: list[TwinSpec],
                    workloads: list[WorkloadSpec], errors: list[str]) -> None:
    """Checks that need the fully expanded document."""
    node_by_id = {n.id: n for n in nodes}
    adj: dict[int, set[int]] = {n.id: set() for n in nodes}
    for link in links:
        if link.a in adj and link.b in adj:
            adj[link.a].add(link.b)
            adj[link.b].add(link.a)

    if nodes:
        start = nodes[0].id
        seen = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for peer in adj[cur]:
                if peer not in seen:
                    seen.add(peer)
                    stack.append(peer)
        if len(seen) != len(nodes):
            missing = sorted(set(node_by_id) - seen)
            errors.append(f"topology: graph is disconnected (unreachable nodes {missing})")

    # Each member is read once: on CPython 3.11 reading one through its enum
    # class costs over ten times a local, and these loops run per fleet member.
    device, edge, core = NodeKind.DEVICE, NodeKind.EDGE, NodeKind.CORE
    individual, global_edge, global_core = TwinLevel.INDIVIDUAL, TwinLevel.GLOBAL_EDGE, TwinLevel.GLOBAL_CORE
    for n in nodes:
        if n.kind is device and not n.mobile and len(adj.get(n.id, ())) > 1:
            errors.append(f"nodes[{n.id}]: static device has multiple access links; mark it mobile")

    twin_by_id = {t.id: t for t in twins}
    parent_of: dict[str, str] = {}  # a twin is listed as a child once, by its one parent
    edge_twins = [t for t in twins if t.level is global_edge]
    core_twins = [t for t in twins if t.level is global_core]
    if len(core_twins) > 1:
        errors.append("twins: at most one global_core twin is allowed")
    if edge_twins and not core_twins:
        errors.append("twins: global_edge twins need a global_core twin to push to")
    for t in twins:
        host = node_by_id.get(t.host)
        if host is None:
            errors.append(f"twins.{t.id}.host: unknown node {t.host}")
            continue
        if t.level is not global_core and host.kind is not edge:
            errors.append(f"twins.{t.id}: {t.level.value} twins must be hosted on an edge node")
        if t.level is global_core and host.kind is not core:
            errors.append(f"twins.{t.id}: global_core twins must be hosted on the core node")
        if t.level is individual and t.entity is not None:
            ent = node_by_id.get(t.entity)
            if ent is None or ent.kind is not device:
                errors.append(f"twins.{t.id}.entity: must reference a device node")
        if t.level is individual and t.children:
            errors.append(f"twins.{t.id}.children: individual twins have no children")
            continue
        for child_id in t.children:
            child = twin_by_id.get(child_id)
            if child is None:
                errors.append(f"twins.{t.id}.children: unknown twin {child_id!r}")
            elif t.level is global_edge and (child.level is not individual or child.host != t.host):
                errors.append(f"twins.{t.id}.children: {child_id!r} must be an individual twin on the same edge")
            elif t.level is global_core and child.level is not global_edge:
                errors.append(f"twins.{t.id}.children: {child_id!r} must be a global_edge twin")
            elif child_id in parent_of:
                errors.append(f"twins.{t.id}.children: {child_id!r} is already a child of {parent_of[child_id]!r}")
            else:
                parent_of[child_id] = t.id
        if t.level is global_core and sorted(t.children) != sorted(e.id for e in edge_twins):
            errors.append(f"twins.{t.id}.children: must be exactly the global_edge twins")

    for wl in workloads:
        if isinstance(wl, AmbulanceRunSpec):
            reachable = set(adj.get(wl.device, ()))
            for edge_id in wl.edge_sequence:
                if edge_id not in reachable:
                    errors.append(
                        f"workloads.{wl.id}: device {wl.device} has no access link to edge {edge_id}"
                    )


def _check_flow_ids(twins: list[TwinSpec], workloads: list[WorkloadSpec], errors: list[str]) -> None:
    """Every flow a run can open needs its own id.

    Workloads open flows under their own id, surgery loops also `<id>.ack`
    and fleets `<id>.<member>`; a global edge twin pushes on
    `twinsync.<twin>`, and a twin with alert rules and a parent escalates
    on `alerts.<twin>`.
    """
    opened: list[tuple[str, str]] = []  # (flow id, path of what opens it)
    for wl in workloads:
        path = f"workloads.{wl.id}"
        if isinstance(wl, WearableFleetSpec):
            opened += [(f"{wl.id}.{i}", path) for i in range(len(wl.members))]
        else:
            opened.append((wl.id, path))
        if isinstance(wl, SurgeryLoopSpec):
            opened.append((f"{wl.id}.ack", path))
    has_parent = {child for t in twins for child in t.children}
    global_edge = TwinLevel.GLOBAL_EDGE
    for t in twins:
        if t.level is global_edge:
            opened.append((f"twinsync.{t.id}", f"twins.{t.id}"))
        if t.alerts and t.id in has_parent:
            opened.append((f"alerts.{t.id}", f"twins.{t.id}"))
    first: dict[str, str] = {}
    for flow_id, path in opened:
        if flow_id in first:
            errors.append(f"{path}: flow id {flow_id!r} clashes with a flow of {first[flow_id]}")
        else:
            first[flow_id] = path


def _resolve_children(twins: list[TwinSpec]) -> None:
    """Resolve `children: auto`: the individuals on an edge twin's edge, the core's edge twins."""
    individual, global_edge, global_core = TwinLevel.INDIVIDUAL, TwinLevel.GLOBAL_EDGE, TwinLevel.GLOBAL_CORE
    on_edge: dict[int, list[str]] = {}
    for t in twins:
        if t.level is individual:
            on_edge.setdefault(t.host, []).append(t.id)
    edge_ids = sorted(t.id for t in twins if t.level is global_edge)
    for t in twins:
        if t.children == "auto":
            t.children = ([] if t.level is individual else list(edge_ids)
                          if t.level is global_core else sorted(on_edge.get(t.host, [])))


def _resolve_twins(twins: list[TwinSpec], errors: list[str]) -> None:
    """Fill in every period and phase.

    An edge twin aggregates at the slowest sync period of its children and
    pushes at its aggregation period; the core aggregates at the slowest
    edge push. Default phases stagger one cycle: edges aggregate at 1/4 and
    push at 1/2, the core aggregates at 3/4.
    """
    # Deriving from a document with errors would mostly echo them (a fleet
    # that failed to expand leaves its edge twin without children).
    if errors:
        return
    twin_by_id = {t.id: t for t in twins}
    individual, global_edge = TwinLevel.INDIVIDUAL, TwinLevel.GLOBAL_EDGE
    for level in TwinLevel:  # children before parents
        for t in (twin for twin in twins if twin.level is level):
            if level is individual:
                t.sync_period = t.sync_period or 0
                t.sync_phase = t.sync_phase or 0
                t.aggregation_period = t.aggregation_phase = 0
                continue
            if t.aggregation_period is None:
                periods = [twin_by_id[c].sync_period for c in t.children if c in twin_by_id]
                if None in periods:
                    continue  # that child's own timing error is already reported
                periods = [p for p in periods if p]
                if not periods:
                    errors.append(f"twins.{t.id}.aggregation_period: cannot derive from children; "
                                  "set it explicitly")
                    continue
                t.aggregation_period = max(periods)
            if level is global_edge:
                if t.aggregation_phase is None:
                    t.aggregation_phase = t.aggregation_period // 4
                if t.sync_period is None:
                    t.sync_period = t.aggregation_period
                if t.sync_phase is None:
                    t.sync_phase = t.sync_period // 2
            else:
                if t.aggregation_phase is None:
                    t.aggregation_phase = (3 * t.aggregation_period) // 4
                t.sync_period = t.sync_phase = 0
