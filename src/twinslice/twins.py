"""Digital twin hierarchy: versioned state sync, aggregation, alerts.

Three levels mirror the deployment: individual twins live on edge nodes next
to their physical entities, a global twin per edge summarizes that edge's
individuals, and a single core twin summarizes the edges. State moves up the
hierarchy by periodic push; aggregation reads arrive-side replicas, so a
parent's view is only as fresh as the last sync that reached it. Each twin
also keeps its own staleness record and the flows it sends on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:
    from .engine import RngStream
    from .scenario import TwinSpec
    from .slices import Flow


class TwinSyncError(Exception):
    """A malformed aggregation policy: an unknown reducer, or a threshold that is not a finite number."""


class TwinLevel(Enum):  # children before parents: loading resolves twin timing in this order
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


Reducer = Callable[[list[float]], float]


def parse_reducer(spec: str) -> Reducer:
    """Reducer by name; count_over takes its threshold after a colon.

    All reducers are order-insensitive over the child multiset; mean and sum
    use exact float summation so child ordering can never leak into results.
    """
    if spec == "mean":
        return lambda vs: math.fsum(vs) / len(vs)
    if spec == "sum":
        return lambda vs: math.fsum(vs)
    if spec == "max":
        return lambda vs: max(vs)
    if spec == "min":
        return lambda vs: min(vs)
    if spec.startswith("count_over:"):
        text = spec.split(":", 1)[1]
        try:
            threshold = float(text)
        except ValueError:
            raise TwinSyncError(f"count_over threshold must be a number, not {text!r}") from None
        if not math.isfinite(threshold):
            raise TwinSyncError(f"count_over threshold must be finite, not {threshold}")
        return lambda vs: float(sum(1 for v in vs if v > threshold))
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
    """One twin instance: its loaded spec, which no run writes, its run state and flows.

    Only a global edge twin holds `pushed` and `last_pushed`, and only a twin
    with rules `alert_versions`; the tree is linked by whoever holds every twin.
    """

    __slots__ = ("spec", "children", "policy", "alert_rules", "parent", "state", "pushed",
                 "last_pushed", "alerts_fired", "last_aggregation_children", "staleness_max",
                 "alert_versions", "push_flow", "alert_flow", "vitals_stream")

    def __init__(self, spec: TwinSpec) -> None:
        self.spec = spec
        # Tuples: a twin without children or rules shares the one empty tuple.
        self.children: tuple[Twin, ...] = ()
        self.policy: dict[str, Reducer] = {m: parse_reducer(r) for m, r in sorted(spec.policy.items())}
        self.alert_rules = tuple(AlertRule(metric, threshold) for metric, threshold in spec.alerts)
        self.parent: Optional[Twin] = None
        self.state: dict[str, MetricSample] = {}
        if spec.level is TwinLevel.GLOBAL_EDGE:
            self.pushed: dict[str, MetricSample] = {}  # the parent's copy, apart from `state`
            self.last_pushed: dict[str, int] = {}
        self.alerts_fired = 0
        self.last_aggregation_children = -1  # -1 = never aggregated
        # Running max age per own-state metric. Age is sampled just before each
        # overwrite and once at run end, which captures the supremum of the
        # piecewise-linear age curve exactly.
        self.staleness_max: dict[str, int] = {}
        if self.alert_rules:
            self.alert_versions: dict[str, int] = {}  # per alerting metric
        self.push_flow: Optional[Flow] = None  # global edge twins: deltas to the core
        self.alert_flow: Optional[Flow] = None  # opened by the first escalation
        self.vitals_stream: Optional[RngStream] = None  # `vitals:<id>`, held from its first draw

    def apply_sync(self, deltas: list[Delta], now: int, child: Optional[Twin] = None) -> None:
        """Apply newer-versioned deltas; stale ones are ignored.

        Deltas pushed by `child` land in its `pushed` copy.
        Without a child (the bound entity's vitals, a child's alerts) the
        deltas land in the twin's own state, and the age of each own-state
        value they overwrite is noted in staleness_max.
        """
        own = child is None
        target = self.state if own else child.pushed
        for metric, value, version, observed_at in deltas:
            cur = target.get(metric)
            if cur is None:
                target[metric] = MetricSample(value, version, observed_at)
            elif version > cur.version:
                if own:
                    self._note_age(metric, now - cur.observed_at)
                # In place: no other slot holds this sample.
                cur.value, cur.version, cur.observed_at = value, version, observed_at

    def _note_age(self, metric: str, age: int) -> None:
        if age > self.staleness_max.get(metric, -1):
            self.staleness_max[metric] = age

    def sample_ages(self, now: int) -> None:
        """End-of-run staleness sample: the age of everything still stored."""
        for metric, sample in self.state.items():
            self._note_age(metric, now - sample.observed_at)

    def aggregate(self, child_states: list[dict[str, MetricSample]]) -> None:
        """Reduce visible child summaries into this twin's own state.

        Writes bump the metric version by one; observed_at becomes the min
        over contributing children, so staleness propagates pessimistically.
        With no visible children (partial/dark aggregation) the state is
        left untouched.
        """
        self.last_aggregation_children = len(child_states)
        for metric, fn in self.policy.items():
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

    def pending_deltas(self) -> list[Delta]:
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
