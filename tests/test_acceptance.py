"""End-to-end acceptance checks, one test per shipped guarantee.

Each criterion gets exactly one PASS/FAIL line in the terminal summary
(see conftest). Scenario executions are cached per (file, seed, copy),
so the heavyweight runs happen at most twice across the whole suite.
Numeric oracles are either recomputed here from independent arithmetic
(path delays, queueing theory, reducer semantics) or frozen integers
whose derivations live next to the assertion.
"""

import hashlib
import importlib.util
import time
from pathlib import Path

import pytest

from twinslice.network import Frame, unloaded_path_delay
from twinslice.slices import Flow, LinkQueue, SliceClass
from twinslice.twins import TwinLevel

WARD = "ward.scn"
SURGERY = "surgery.scn"
DEGRADED = "surgery_degraded.scn"
AMBULANCE = "ambulance.scn"
SINGLE = "ambulance_single.scn"
WEARABLES = "wearables.scn"

CONSERVED = ("delivered", "dropped_loss", "dropped_queue", "dropped_fault")
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_conserved(report, context):
    for slice_name, row in report["slices"].items():
        total = sum(row[k] for k in CONSERVED)
        assert row["sent"] == total, (context, slice_name, row)
        assert row["in_flight"] == 0, (context, slice_name, row)


def test_ac01_deterministic_replay(timed_run):
    """Same scenario, same seed: byte-identical reports, well under budget."""
    a = timed_run(WARD, seed=42, copy=0)
    b = timed_run(WARD, seed=42, copy=1)
    assert a.json == b.json
    # regression pin so drift shows up even if both runs drift together
    assert hashlib.sha256(a.json).hexdigest() == (
        "b76bd8057027f0f75834f0fd3cdeeb9e93584fde2752010250e3e58c16e73c1f"
    )
    assert a.wall < 10.0
    assert b.wall < 10.0


# sha256 of the JSON and CSV reports of every bundled scenario at its own
# master seed. A change that moves one of these changes report bytes and
# must say why. Last moved when a hop stopped costing a departure event on an
# idle lossless link: only `run.events_processed` changed.
GOLDEN_DIGESTS = {
    AMBULANCE: ("34b3131db4b7be91eec41995099361059a8770ba331f08a07182d3532e068120",
                "1ed25c08fb34f6a34aff02b5f7593e94baaf6e42f66ebb7f962cd07d9b62b920"),
    SINGLE: ("de985a503fadde8019d18b5ed85c19b95b9eadf7f4086a985e3d2b29d76cc212",
             "8281b60c563ed4359e513ab783654c882e2cb8784dd88603535b1be631aa9da9"),
    SURGERY: ("b51b04537c3d07a6f62e5a7b7394e80737c9a75da304b4bb5c7103f2536c2452",
              "80c1caa98bd992c8ff69f6458c49c973d5e041e1d3ff8928a4de8d763e04b389"),
    DEGRADED: ("eae4f424f73740d75663d58dd4f74add2254fd517b36695f82ce4ba4c380df5d",
               "c6a5689b1e49fd2bacea037e063cbb6a7f7ded127297708d76db1f3c79197f03"),
    WARD: ("b76bd8057027f0f75834f0fd3cdeeb9e93584fde2752010250e3e58c16e73c1f",
           "9ab5e072aa85eb75f57d0f589a43ee55ecc8512535a67249c1ead48e6e66b36f"),
    WEARABLES: ("91d53c8683ab8cc461ccffe8b398b74c4ed761441baf4de04c7b1d918e4c69f5",
                "5aac51be36d8390cc5b1c13488bc7806a6e6717a23301476a8a1b7a99165f585"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_golden_report_digests(timed_run, name):
    """Every bundled report is pinned byte for byte, JSON and CSV."""
    run = timed_run(name)
    want_json, want_csv = GOLDEN_DIGESTS[name]
    assert hashlib.sha256(run.json).hexdigest() == want_json
    assert hashlib.sha256(run.result.csv_bytes()).hexdigest() == want_csv


def test_ac02_unloaded_delay_is_exact(timed_run):
    """Zero load, zero loss: measured end-to-end equals wire math exactly."""
    run = timed_run(SURGERY).result
    sim = run.sim
    flow = sim.flows["surgery"]
    hops = sim.topology.route(flow.src, flow.dst)
    wire_bytes = flow.frame_payload + sim.stack.overhead
    expected = flow.setup_latency_ns + unloaded_path_delay(hops, wire_bytes)
    assert expected == 400_640  # 4 x (160ns tx + 20us prop) + 320us setup

    cmd = sim.flows["surgery"].stats.hist
    assert cmd.count == 2000
    assert cmd.mean == cmd.max_value == expected
    ack = sim.flows["surgery.ack"].stats.hist
    assert ack.count == 2000
    assert ack.mean == ack.max_value == expected

    loop = run.report["workloads"]["surgery"]
    assert loop["rtt_max_ns"] == 2 * expected == 801_280
    assert loop["rtt_budget_violations"] == 0


def test_ac03_mm1_queueing_oracle():
    """Poisson arrivals into an exponential-size drain match M/M/1 sojourn.

    lambda = 80k frames/s (mean gap 12.5us), service mean 1250 bytes at
    1 Gb/s = 10us, so rho = 0.8 and the analytic mean sojourn is
    1 / (mu - lambda) = 50us. One million frames keep the sample mean
    within the 5% band despite queue autocorrelation. The harness is the
    one scripts/queueing_validation.py sweeps with, so it exists once.
    """
    n = 1_000_000
    t0 = time.perf_counter()
    tally = load_script("queueing_validation").simulate(0.8, n, 2026)
    wall = time.perf_counter() - t0

    assert tally["dropped"] == 0
    assert tally["delivered"] == n
    mean_sojourn = tally["sojourn"] / n
    assert abs(mean_sojourn - 50_000) / 50_000 < 0.05
    assert wall < 60.0


def test_strict_priority_matches_cobham():
    """Two Poisson classes share the drain: ERLLC with strict priority, umMTC
    under WDRR. Each class's mean wait matches Cobham's non-preemptive
    priority M/G/1 result W_k = W0 / ((1 - sigma_{k-1}) (1 - sigma_k)).

    Loads 0.3 and 0.4 with 10 us mean exponential service give W0 = 7 us,
    so ERLLC waits 10 us and umMTC 33.3 us; served FIFO, both would wait
    23.3 us. 150,000 frames keep each mean within 5 % (seeds 1-5 and 2026
    stay within 1.3 %).
    """
    script = load_script("queueing_validation")
    rhos = (0.3, 0.4)
    tallies = script.simulate_priority(rhos, 150_000, 2026)
    waits = script.cobham_waits(rhos)
    assert [round(w) for w in waits] == [10_000, 33_333]
    for (cls, tally), want in zip(tallies.items(), waits):
        assert tally["dropped"] == 0, cls
        assert abs(tally["wait"] / tally["delivered"] - want) / want < 0.05, cls
    assert sum(t["delivered"] for t in tallies.values()) == 150_000


def test_ac04_low_latency_contract_verdicts(timed_run):
    """The same command loop passes on the clean fabric and fails degraded."""
    clean = timed_run(SURGERY).result
    row = clean.report["slices"]["ERLLC"]
    assert row["verdict"] == "met"
    assert row["p99_ns"] <= 1_000_000
    assert clean.exit_code == 0
    # the loss dimension is judged against the scenario override
    assert clean.sim.contracts[SliceClass.ERLLC].max_loss == 1e-3

    degraded = timed_run(DEGRADED).result
    row = degraded.report["slices"]["ERLLC"]
    assert row["verdict"] == "violated(delay)"  # latency only, loss stays clean
    assert row["mean_delay_ns"] == 1_300_000.0
    assert row["p99_ns"] == 1_412_538  # covering log-bin edge above 1.3ms
    assert degraded.exit_code == 1
    loop = degraded.report["workloads"]["surgery"]
    assert loop["rtt_budget_violations"] == 2000
    assert loop["rtt_max_ns"] == 2_600_000


def test_ac05_hierarchy_reduction_consistency(timed_run):
    """Every aggregated metric equals its reducer applied to child state.

    The run drains before t_end, so raw simulator state must agree
    bitwise for order-independent reducers (min/max/count) and to within
    1e-12 relative for the float accumulations (mean/sum).
    """
    sim = timed_run(WARD, seed=42).result.sim
    specs = {spec.id: spec for spec in sim.scenario.twins}
    checked = 0
    for twin in sim.twins.values():
        if twin.level is TwinLevel.INDIVIDUAL:
            continue
        assert twin.last_aggregation_children == len(twin.children) > 0
        for metric, fn in twin.policy.items():
            reducer_name = specs[twin.id].policy[metric]
            values = [
                child.state[metric].value
                for child in twin.children
                if metric in child.state
            ]
            assert values, (twin.id, metric)
            expected = fn(values)
            got = twin.state[metric].value
            if reducer_name in ("mean", "sum"):
                assert abs(got - expected) <= 1e-12 * abs(expected), (twin.id, metric)
            else:
                assert got == expected, (twin.id, metric)
            checked += 1
    assert checked == 6  # two ward twins and the hospital twin, two metrics each


def test_ac06_staleness_bound_is_tight(timed_run):
    """Individual twin staleness never exceeds one sync period plus the
    one-way path delay, and on a loss-free synchronous ward it attains it."""
    run = timed_run(WARD, seed=42).result
    sim = run.sim
    for row in run.report["slices"].values():
        assert row["dropped_loss"] == 0, "staleness bound assumes a loss-free run"

    vitals_flows = {
        flow.src: flow
        for flow in sim.flows.values()
        if flow.slice_cls is SliceClass.UMMTC and not flow.id.startswith("twinsync.")
    }
    entities = {spec.id: spec.entity for spec in sim.scenario.twins}
    overall = 0
    for twin in sim.twins.values():
        if twin.level is not TwinLevel.INDIVIDUAL:
            continue
        flow = vitals_flows[entities[twin.id]]
        hops = sim.topology.route(flow.src, flow.dst)
        wire_bytes = flow.frame_payload + sim.stack.overhead
        one_way = flow.setup_latency_ns + unloaded_path_delay(hops, wire_bytes)
        ages = twin.staleness_max
        assert ages, twin.id
        worst = max(ages.values())
        assert worst <= twin.sync_period + one_way
        # every period a fresh sample lands exactly one_way after emission,
        # so the previous sample ages to exactly period + one_way
        assert worst == twin.sync_period + one_way
        overall = max(overall, worst)

    assert overall == 100_076_880  # 100ms period + 40us setup + 26.88us tx + 10us prop
    assert run.report["staleness"]["global_max_ns"] == overall


def test_ac07_frame_conservation_everywhere(timed_run, scenario_dir):
    """sent == delivered + drops per slice, nothing in flight, all bundles."""
    names = sorted(p.name for p in scenario_dir.glob("*.scn"))
    assert len(names) >= 4
    for name in names:
        run = timed_run(name)
        assert_conserved(run.result.report, name)
        for row in run.result.report["slices"].values():
            assert row["in_flight"] == 0, name
        for flow in run.result.sim.flows.values():
            assert flow.stats.in_flight == 0, (name, flow.id)


def test_ac08_weighted_scheduler_fairness():
    """Backlogged classes share bytes by weight; urgent traffic preempts.

    With only the 8-weight and 1-weight classes backlogged and equal
    frame sizes, each rotation serves exactly 8:1, so the long-run byte
    ratio must sit well inside the +-10% band.
    """
    q = LinkQueue(1024)

    def mkframe(cls, tag):
        return Frame(Flow(tag, cls, 0, 1, 0), 256, 256, 0)

    for i in range(12):
        q.push(mkframe(SliceClass.FEMBB, f"f{i}"))
        q.push(mkframe(SliceClass.ELPC, f"e{i}"))

    popped_bytes = {SliceClass.FEMBB: 0, SliceClass.ELPC: 0}
    pops = 100_000
    for i in range(pops):
        if i == pops // 2:
            urgent = mkframe(SliceClass.ERLLC, "urgent")
            q.push(urgent)
            assert q.pop() is urgent  # dequeued before any other class
            continue
        f = q.pop()
        assert f is not None
        popped_bytes[f.flow.slice_cls] += f.total_bytes
        q.push(mkframe(f.flow.slice_cls, f"refill{i}"))  # keep the class backlogged

    ratio = popped_bytes[SliceClass.FEMBB] / popped_bytes[SliceClass.ELPC]
    assert abs(ratio - 8.0) <= 0.8


def test_ac09_fault_resilience(timed_run):
    """A corridor outage costs latency, not frames; the single-path variant
    has nowhere to buffer toward and drops exactly the in-outage frames."""
    corridor = timed_run(AMBULANCE).result
    row = corridor.report["slices"]["LDHMC"]
    telemetry = corridor.report["workloads"]["amb"]
    assert telemetry["frames_emitted"] == 900
    assert row["sent"] == row["delivered"] == 900
    assert row["dropped_fault"] == row["dropped_loss"] == row["dropped_queue"] == 0
    assert telemetry["handovers"] == 1
    assert telemetry["handovers_deferred"] == 1  # dark cell 2 skipped for cell 3
    assert telemetry["frames_buffered"] == 3
    # buffered frames surface as recorded extra delay, far above the norm
    assert row["max_ns"] == 300_180_656
    assert row["p50_ns"] < 1_000_000 < row["max_ns"]
    assert corridor.exit_code == 0

    single = timed_run(SINGLE).result
    srow = single.report["slices"]["LDHMC"]
    assert srow["sent"] == 600
    assert srow["delivered"] == 590
    assert srow["dropped_fault"] == 10  # the ten frames injected mid-outage
    assert srow["verdict"] == "violated(loss)"
    assert single.exit_code == 1


def test_ac10_scale_smoke(timed_run):
    """Ten thousand wearables for a minute: fast, replay-stable, conserved."""
    a = timed_run(WEARABLES, copy=0)
    b = timed_run(WEARABLES, copy=1)
    assert a.wall < 120.0
    assert b.wall < 120.0
    assert a.json == b.json

    report = a.result.report
    row = report["slices"]["umMTC"]
    assert row["sent"] == row["delivered"] == 600_120
    assert_conserved(report, WEARABLES)
    assert report["twins"]["district_a"]["last_aggregation_children"] == 5000
    assert report["twins"]["district_b"]["last_aggregation_children"] == 5000
    assert a.result.exit_code == 0
