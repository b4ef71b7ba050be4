"""The wearable fleet with one heap event per member, kept as a test-only oracle.

`EagerFleetGen` schedules every member's next emission on the engine
through `Source._again`, periodic or Poisson. The package's
`WearableFleetGen` keeps a periodic fleet's members in a FIFO at places
reserved from the engine and puts only its head on the heap, so the two
must agree on every report byte, `run.events_processed` included. Swap it in
for `WearableFleetGen` with `run_with_eager_fleet`. It forks each member's
streams by label, where the package derives a fleet's keys in one batch; a
Philox stream is identified by its key alone, so both draw the same values.
"""

from unittest import mock

import twinslice.sim
from twinslice.engine import EventKind, SEC
from twinslice.slices import SliceClass
from twinslice.workloads import Source, WearableFleetSpec


class EagerFleetGen(Source):
    """Many periodic telemetry devices, each with its own emission event."""

    kind = EventKind.SYNC_DUE

    def __init__(self, sim, spec):
        super().__init__(sim, spec, self.sync_emit)
        demand = max(1, round(spec.payload_bytes * 8 * SEC / spec.period_ns))
        for i, (device, twin_id) in enumerate(spec.members):
            self._flow(f"{spec.id}.{i}", SliceClass.UMMTC, device, sim.twins[twin_id].host, demand,
                       spec.payload_bytes)

    def schedule_start(self):
        n = len(self.flows)
        self.arrivals = {}  # member -> its `arrivals:` stream, held from its first draw on
        for i, flow in enumerate(self.flows):
            if not flow.admitted:
                continue
            phase = (i * self.spec.period_ns) // n if self.spec.stagger else 0
            if self.spec.poisson:
                self.arrivals[i] = self.sim.new_stream(f"arrivals:{flow.id}")
                phase = self.arrivals[i].exponential_ticks(self.spec.period_ns)
            self._again(i, phase)

    def sync_emit(self, i, now):
        flow = self.flows[i]
        twin = self.sim.twins[self.spec.members[i][1]]
        vitals = self.sim.sample_vitals(twin, flow, now)
        self.sim.send(flow, self.spec.payload_bytes, now, vitals)
        if self.spec.poisson:
            gap = self.arrivals[i].exponential_ticks(self.spec.period_ns)
        else:
            gap = self.spec.period_ns
        self._again(i, now - self.spec.start + gap)

    def report(self):
        return {
            "kind": "wearable_fleet",
            "devices": len(self.flows),
            "devices_admitted": sum(f.admitted for f in self.flows),
            "frames_emitted": sum(f.stats.sent for f in self.flows),
        }


def run_with_eager_fleet(scenario, seed=None, t_end=None):
    """Run a scenario with every wearable fleet on `EagerFleetGen`."""
    with mock.patch.dict(twinslice.sim.GENERATORS, {WearableFleetSpec: EagerFleetGen}):
        return twinslice.sim.run_scenario(scenario, seed=seed, t_end=t_end)


def same_run(a, b):
    """Both runs rendered the same report bytes and processed the same events."""
    return (a.json_bytes(), a.csv_bytes(), a.sim.engine.processed) == (
        b.json_bytes(), b.csv_bytes(), b.sim.engine.processed)
