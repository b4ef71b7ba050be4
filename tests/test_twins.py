"""Twin state versioning, aggregation reducers, alert hysteresis, hierarchy rules."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinslice.engine import MS
from twinslice.scenario import ScenarioError, TwinSpec, scenario_from_dict
from twinslice.twins import (
    AlertRule,
    MetricSample,
    Twin,
    TwinLevel,
    TwinSyncError,
    parse_reducer,
)


def twin(level=TwinLevel.GLOBAL_EDGE, policy_spec=None, children=(), **kw):
    return Twin(TwinSpec("t", level, host=1, children=children, policy=policy_spec or {}, **kw))


class TestApplySync:
    def test_newer_version_overwrites(self):
        t = twin()
        t.apply_sync([("hr", 70.0, 3, 100)], now=100)
        t.apply_sync([("hr", 75.0, 4, 200)], now=200)
        assert t.state["hr"] == MetricSample(75.0, 4, 200)

    def test_duplicate_version_ignored(self):
        t = twin()
        t.apply_sync([("hr", 70.0, 3, 100)], now=100)
        t.apply_sync([("hr", 99.0, 3, 150)], now=150)
        assert t.state["hr"].value == 70.0

    def test_stale_version_ignored_after_newer(self):
        t = twin()
        t.apply_sync([("hr", 80.0, 5, 500)], now=500)
        t.apply_sync([("hr", 70.0, 4, 400)], now=600)
        assert t.state["hr"] == MetricSample(80.0, 5, 500)

    def test_child_messages_land_in_cache_not_state(self):
        t, kid = twin(), twin(TwinLevel.INDIVIDUAL)
        t.apply_sync([("hr", 64.0, 1, 10)], now=10, child=kid)
        assert "hr" not in t.state
        assert kid.pushed["hr"] == MetricSample(64.0, 1, 10)

    def test_ages_reported_only_for_own_state_overwrites(self):
        t, kid = twin(), twin(TwinLevel.INDIVIDUAL)
        t.apply_sync([("hr", 70.0, 1, 0)], now=0)
        assert t.staleness_max == {}  # a first write overwrites nothing
        t.apply_sync([("hr", 71.0, 2, 950)], now=1000)
        assert t.staleness_max == {"hr": 1000}  # age of the overwritten sample
        t.apply_sync([("hr", 60.0, 9, 0)], now=2000, child=kid)
        t.apply_sync([("hr", 61.0, 10, 0)], now=3000, child=kid)
        assert t.staleness_max == {"hr": 1000}  # cache overwrites never age-report

    def test_staleness_arithmetic(self):
        t = twin()
        t.apply_sync([("hr", 70.0, 1, 400)], now=450)
        t.sample_ages(1000)
        assert t.staleness_max == {"hr": 600}

    def test_a_newer_version_updates_the_stored_sample(self):
        t = twin()
        t.apply_sync([("hr", 70.0, 1, 100)], now=100)
        first = t.state["hr"]
        t.apply_sync([("hr", 75.0, 2, 200)], now=200)
        assert t.state["hr"] is first and first == MetricSample(75.0, 2, 200)

    def test_a_parent_caches_its_own_copy_of_a_child_sample(self):
        # Samples are updated in place, so a parent's copy must not hold the
        # child's own sample: the child's next update would rewrite it.
        child, parent = twin(TwinLevel.INDIVIDUAL), twin()
        child.apply_sync([("hr", 70.0, 1, 100)], now=100)
        parent.apply_sync(child.pending_deltas(), now=150, child=child)
        cached = child.pushed["hr"]
        assert cached is not child.state["hr"]
        child.apply_sync([("hr", 90.0, 2, 200)], now=200)
        assert cached == MetricSample(70.0, 1, 100)
        assert child.pushed["hr"] is cached


class TestStaleness:
    def test_tracks_max_per_metric(self):
        t = twin()
        t.apply_sync([("hr", 70.0, 1, 0), ("spo2", 97.0, 1, 0)], now=0)
        t.apply_sync([("hr", 71.0, 2, 100)], now=100)
        t.apply_sync([("hr", 72.0, 3, 120)], now=140)  # a younger overwrite
        t.apply_sync([("spo2", 96.0, 2, 7)], now=7)
        assert t.staleness_max == {"hr": 100, "spo2": 7}
        assert twin().staleness_max == {}

    def test_zero_age_recorded(self):
        t = twin()
        t.apply_sync([("m", 1.0, 1, 50)], now=50)
        t.sample_ages(50)
        assert t.staleness_max == {"m": 0}
        t.sample_ages(80)  # the end-of-run sample ages what is still stored
        assert t.staleness_max == {"m": 30}


class TestBuild:
    def test_parses_reducers_and_alert_rules_from_the_spec(self):
        t = twin(TwinLevel.INDIVIDUAL, {"hr": "max"}, entity=3, alerts=[("hr", 120.0)])
        assert (t.level, t.host, t.parent) == (TwinLevel.INDIVIDUAL, 1, None)
        assert t.policy["hr"]([3.0, -1.0, 2.0]) == 3.0  # the max reducer
        assert t.alert_rules == (AlertRule("hr", 120.0),)
        assert t.children == ()
        assert (t.push_flow, t.alert_flow) == (None, None)


class TestReducers:
    def test_mean_uses_exact_summation(self):
        fn = parse_reducer("mean")
        vals = [0.1] * 10
        assert fn(vals) == math.fsum(vals) / 10

    def test_sum_max_min(self):
        assert parse_reducer("sum")([1.5, 2.5]) == 4.0
        assert parse_reducer("max")([3.0, -1.0]) == 3.0
        assert parse_reducer("min")([3.0, -1.0]) == -1.0

    def test_count_over_is_strict(self):
        fn = parse_reducer("count_over:0")
        assert fn([0.0, 1.0, 1.0]) == 2.0
        assert fn([0.0, 0.0]) == 0.0

    def test_count_over_parses_threshold(self):
        fn = parse_reducer("count_over:99.5")
        assert fn([99.5, 99.6]) == 1.0
        assert fn([99.4, 99.5, 99.6, 100.0]) == 2.0

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "1e999"])
    def test_count_over_threshold_must_be_finite(self, threshold):
        with pytest.raises(TwinSyncError, match="must be finite"):
            parse_reducer(f"count_over:{threshold}")

    @pytest.mark.parametrize("threshold", ["abc", ""])
    def test_count_over_threshold_must_be_a_number(self, threshold):
        # It once escaped as the bare ValueError of float().
        with pytest.raises(TwinSyncError) as info:
            parse_reducer(f"count_over:{threshold}")
        assert str(info.value) == f"count_over threshold must be a number, not {threshold!r}"

    def test_unknown_reducer_raises(self):
        with pytest.raises(TwinSyncError, match="unknown reducer"):
            parse_reducer("median")

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_all_reducers_order_insensitive(self, vals):
        for spec in ("mean", "sum", "max", "min", "count_over:0"):
            fn = parse_reducer(spec)
            assert fn(vals) == fn(list(reversed(vals)))


class TestAggregate:
    def child_state(self, hr, at):
        return {"hr": MetricSample(hr, 1, at)}

    def test_reduces_and_bumps_version(self):
        t = twin(policy_spec={"hr": "mean"})
        t.aggregate([self.child_state(70.0, 50), self.child_state(80.0, 60)])
        assert t.last_aggregation_children == 2
        assert t.state["hr"].value == 75.0
        assert t.state["hr"].version == 1
        t.aggregate([self.child_state(90.0, 70)])
        assert t.last_aggregation_children == 1
        assert t.state["hr"].version == 2

    def test_observed_at_is_min_over_contributors(self):
        t = twin(policy_spec={"hr": "mean"})
        t.aggregate([self.child_state(70.0, 500), self.child_state(80.0, 300)])
        assert t.state["hr"].observed_at == 300

    def test_singleton_identity(self):
        for spec in ("mean", "sum", "max", "min"):
            t = twin(policy_spec={"hr": spec})
            t.aggregate([self.child_state(72.5, 10)])
            assert t.state["hr"].value == 72.5

    def test_empty_children_keep_state(self):
        t = twin(policy_spec={"hr": "mean"})
        t.state["hr"] = MetricSample(70.0, 3, 10)
        t.aggregate([])
        assert t.state["hr"] == MetricSample(70.0, 3, 10)
        assert t.last_aggregation_children == 0

    def test_metric_missing_in_all_children_is_skipped(self):
        t = twin(policy_spec={"hr": "mean", "spo2": "min"})
        t.aggregate([self.child_state(70.0, 10)])
        assert "spo2" not in t.state

    def test_records_child_count(self):
        t = twin(policy_spec={"hr": "mean"})
        assert t.last_aggregation_children == -1  # never ran
        t.aggregate([self.child_state(70.0, 1)] * 3)
        assert t.last_aggregation_children == 3


class TestPendingDeltas:
    def test_version_gated_and_sorted(self):
        t = twin()
        t.state["b"] = MetricSample(1.0, 2, 10)
        t.state["a"] = MetricSample(2.0, 1, 20)
        out = t.pending_deltas()
        assert out == [("a", 2.0, 1, 20), ("b", 1.0, 2, 10)]
        assert t.pending_deltas() == []  # nothing new
        t.state["a"] = MetricSample(3.0, 2, 30)
        assert t.pending_deltas() == [("a", 3.0, 2, 30)]


class TestAlerts:
    def test_fires_once_per_upward_crossing(self):
        rule = AlertRule("hr", 120.0)
        assert rule.evaluate(130.0)
        assert not rule.evaluate(135.0)  # still above, already fired
        assert not rule.evaluate(120.0)  # at threshold re-arms, no fire
        assert rule.evaluate(125.0)

    def test_hysteresis_sequence(self):
        t = twin(alerts=[("hr", 120.0)])
        for value, want in ((130.0, 1), (131.0, 0), (110.0, 0), (125.0, 1)):
            t.state["hr"] = MetricSample(value, 1, 0)
            assert len(t.check_alerts()) == want
        assert t.alerts_fired == 2

    def test_rule_without_data_never_fires(self):
        t = twin(alerts=[("hr", 120.0)])
        assert t.check_alerts() == []
        assert t.alerts_fired == 0


def hierarchy_doc():
    """Core 0 and edges 1, 2 (one device each) under a three-level twin tree."""
    return {
        "run": {"t_end": "1s"},
        "nodes": [{"id": 0, "kind": "core"}, {"id": 1, "kind": "edge"}, {"id": 2, "kind": "edge"},
                  {"id": 3, "kind": "device"}, {"id": 4, "kind": "device"}],
        "links": [{"id": i, "ends": e, "rate": "1gbps"}
                  for i, e in enumerate(([1, 0], [2, 0], [3, 1], [4, 2]))],
        "twins": [
            {"id": "ind_a", "level": "individual", "host": 1, "entity": 3, "sync_period": "100ms"},
            {"id": "edge_a", "level": "global_edge", "host": 1, "children": ["ind_a"],
             "policy": {"hr": "mean"}},
            {"id": "core", "level": "global_core", "host": 0, "children": ["edge_a"],
             "policy": {"hr": "mean"}},
        ],
    }


def hierarchy_errors(doc):
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    return info.value.errors


def twin_spec(doc, twin_id):
    return next(t for t in doc["twins"] if t["id"] == twin_id)


class TestHierarchyValidation:
    """Placement and wiring rules are checked once, when the scenario loads."""

    def test_valid_tree_passes(self):
        twins = {t.id: t for t in scenario_from_dict(hierarchy_doc()).twins}
        ind, edge, core = twins["ind_a"], twins["edge_a"], twins["core"]
        assert (ind.children, edge.children, core.children) == ([], ["ind_a"], ["edge_a"])
        # Periods derive from the children; default phases stagger one cycle.
        assert (ind.sync_period, ind.sync_phase, ind.aggregation_period) == (100 * MS, 0, 0)
        assert (edge.aggregation_period, edge.aggregation_phase) == (100 * MS, 25 * MS)
        assert (edge.sync_period, edge.sync_phase) == (100 * MS, 50 * MS)
        assert (core.aggregation_period, core.aggregation_phase) == (100 * MS, 75 * MS)
        assert (core.sync_period, core.sync_phase) == (0, 0)

    def test_unknown_host(self):
        doc = hierarchy_doc()
        twin_spec(doc, "ind_a")["host"] = 99
        assert "twins.ind_a.host: unknown node 99" in hierarchy_errors(doc)

    def test_individual_must_live_on_edge(self):
        doc = hierarchy_doc()
        twin_spec(doc, "ind_a")["host"] = 0
        assert "twins.ind_a: individual twins must be hosted on an edge node" in hierarchy_errors(doc)

    def test_core_twin_must_live_on_core(self):
        doc = hierarchy_doc()
        twin_spec(doc, "core")["host"] = 1
        assert "twins.core: global_core twins must be hosted on the core node" in hierarchy_errors(doc)

    def test_unknown_child(self):
        doc = hierarchy_doc()
        twin_spec(doc, "edge_a")["children"] = ["ghost"]
        assert "twins.edge_a.children: unknown twin 'ghost'" in hierarchy_errors(doc)

    def test_edge_children_must_be_individual_and_cohosted(self):
        doc = hierarchy_doc()
        twin_spec(doc, "edge_a")["children"] = ["core"]
        want = "twins.edge_a.children: 'core' must be an individual twin on the same edge"
        assert want in hierarchy_errors(doc)
        doc = hierarchy_doc()
        twin_spec(doc, "ind_a")["host"] = 2
        want = "twins.edge_a.children: 'ind_a' must be an individual twin on the same edge"
        assert want in hierarchy_errors(doc)

    def test_individuals_have_no_children(self):
        doc = hierarchy_doc()
        twin_spec(doc, "ind_a")["children"] = ["edge_a"]
        assert hierarchy_errors(doc) == ["twins.ind_a.children: individual twins have no children"]

    def test_single_core_twin(self):
        doc = hierarchy_doc()
        doc["twins"].append({"id": "core2", "level": "global_core", "host": 0,
                             "policy": {"hr": "mean"}})
        assert "twins: at most one global_core twin is allowed" in hierarchy_errors(doc)

    def test_core_children_are_exactly_the_edge_twins(self):
        doc = hierarchy_doc()
        twin_spec(doc, "core")["children"] = []
        assert "twins.core.children: must be exactly the global_edge twins" in hierarchy_errors(doc)

    def test_edge_twins_need_a_core_twin(self):
        doc = hierarchy_doc()
        doc["twins"].remove(twin_spec(doc, "core"))
        assert hierarchy_errors(doc) == ["twins: global_edge twins need a global_core twin to push to"]
