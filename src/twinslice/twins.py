"""Digital twin hierarchy: versioned state sync, aggregation, alerts.

Three levels mirror the deployment: individual twins live on edge nodes next
to their physical entities, a global twin per edge summarizes that edge's
individuals, and a single core twin summarizes the edges. State moves up the
hierarchy by periodic push; aggregation reads arrive-side replicas, so a
parent's view is only as fresh as the last sync that reached it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional


class TwinSyncError(Exception):
    """Malformed sync or aggregation input (unknown metric, bad reducer)."""


class TwinLevel(Enum):
    INDIVIDUAL = "individual"
    GLOBAL_EDGE = "global_edge"
    GLOBAL_CORE = "global_core"


@dataclass(slots=True)
class MetricSample:
    value: float
    version: int
    observed_at: int


# deltas are (metric, value, version, observed_at)
Delta = tuple[str, float, int, int]


@dataclass
class SyncMessage:
    source: str
    to: str  # the twin that applies it
    emitted_at: int
    deltas: list[Delta]


Reducer = Callable[[list[float]], float]


def parse_reducer(spec: str) -> tuple[str, Reducer]:
    """Reducer by name; count_over takes its threshold after a colon.

    All reducers are order-insensitive over the child multiset; mean and sum
    use exact float summation so child ordering can never leak into results.
    """
    if spec == "mean":
        return spec, lambda vs: math.fsum(vs) / len(vs)
    if spec == "sum":
        return spec, lambda vs: math.fsum(vs)
    if spec == "max":
        return spec, lambda vs: max(vs)
    if spec == "min":
        return spec, lambda vs: min(vs)
    if spec.startswith("count_over:"):
        threshold = float(spec.split(":", 1)[1])
        return spec, lambda vs: float(sum(1 for v in vs if v > threshold))
    raise TwinSyncError(f"unknown reducer {spec!r}")


@dataclass
class AlertRule:
    """Fire once per upward crossing; re-arm when the value falls back."""

    metric: str
    threshold: float
    armed: bool = True

    def evaluate(self, value: float) -> bool:
        if self.armed and value > self.threshold:
            self.armed = False
            return True
        if value <= self.threshold:
            self.armed = True
        return False


class Twin:
    """One twin instance: its own state plus cached child summaries."""

    def __init__(
        self,
        twin_id: str,
        level: TwinLevel,
        host: int,
        entity: Optional[int] = None,
        sync_period: int = 0,
        sync_phase: int = 0,
        aggregation_period: int = 0,
        aggregation_phase: int = 0,
        policy: Optional[dict[str, tuple[str, Reducer]]] = None,
        alert_rules: Optional[list[AlertRule]] = None,
    ) -> None:
        self.id = twin_id
        self.level = level
        self.host = host
        self.entity = entity
        self.sync_period = sync_period
        self.sync_phase = sync_phase
        self.aggregation_period = aggregation_period
        self.aggregation_phase = aggregation_phase
        self.policy = policy or {}
        self.alert_rules = alert_rules or []
        self.parent: Optional[str] = None
        self.children: list[str] = []
        self.state: dict[str, MetricSample] = {}
        self.child_cache: dict[str, dict[str, MetricSample]] = {}
        self.last_pushed: dict[str, int] = {}
        self.alerts_fired = 0
        self.last_aggregation_children = -1  # -1 = never aggregated

    def apply_sync(self, msg: SyncMessage, now: int) -> list[tuple[str, int]]:
        """Apply newer-versioned deltas; stale ones are ignored.

        A message from a registered child lands in that child's cached
        summary; anything else (the bound physical entity, alert feeds)
        lands in the twin's own state. Returns (metric, pre-update age)
        pairs for own-state overwrites so staleness can be tracked.
        """
        target = self.child_cache.setdefault(msg.source, {}) if msg.source in self.children else self.state
        own = target is self.state
        aged: list[tuple[str, int]] = []
        for metric, value, version, observed_at in msg.deltas:
            cur = target.get(metric)
            if cur is not None:
                if version <= cur.version:
                    continue
                if own:
                    aged.append((metric, now - cur.observed_at))
            target[metric] = MetricSample(value, version, observed_at)
        return aged

    def staleness(self, metric: str, now: int) -> int:
        sample = self.state.get(metric)
        if sample is None:
            raise TwinSyncError(f"twin {self.id} has no metric {metric!r}")
        return now - sample.observed_at

    def aggregate(self, child_states: list[dict[str, MetricSample]], now: int) -> bool:
        """Reduce visible child summaries into this twin's own state.

        Writes bump the metric version by one; observed_at becomes the min
        over contributing children, so staleness propagates pessimistically.
        With no visible children the state is left untouched and the call
        reports False (partial/dark aggregation).
        """
        self.last_aggregation_children = len(child_states)
        if not child_states:
            return False
        for metric, (_name, fn) in self.policy.items():
            values: list[float] = []
            observed = None
            for state in child_states:
                sample = state.get(metric)
                if sample is not None:
                    values.append(sample.value)
                    if observed is None or sample.observed_at < observed:
                        observed = sample.observed_at
            if not values:
                continue
            prev = self.state.get(metric)
            version = prev.version + 1 if prev is not None else 1
            assert observed is not None
            self.state[metric] = MetricSample(fn(values), version, observed)
        return True

    def pending_deltas(self, now: int) -> list[Delta]:
        """Own-state entries not yet pushed to the parent (version-gated)."""
        out: list[Delta] = []
        for metric in sorted(self.state):
            sample = self.state[metric]
            if sample.version > self.last_pushed.get(metric, 0):
                out.append((metric, sample.value, sample.version, sample.observed_at))
                self.last_pushed[metric] = sample.version
        return out

    def check_alerts(self) -> list[AlertRule]:
        """Evaluate hysteresis rules against current state; returns fired rules."""
        fired: list[AlertRule] = []
        for rule in self.alert_rules:
            sample = self.state.get(rule.metric)
            if sample is not None and rule.evaluate(sample.value):
                fired.append(rule)
        self.alerts_fired += len(fired)
        return fired
