"""The observer-effect guard: arming the observability plane must not
change a single bit of any run's result.

This is PR 5's free-when-off contract extended to the cross-shard
plane: progress deltas are built from quiescent window-boundary state,
sync profiling is supervisor-side wall clock, flow records and span
histograms live outside the digest — so ``run_digest`` armed vs off
must match bitwise at every shard count and seed.  CI runs this guard
on every push.
"""

import pytest

from repro.bench.topologies import flow_storm_topology, partition_storm_topology
from repro.difftest.sharding import alert_timeline_digest, run_digest
from repro.sim.obsplane import ObservabilityPlane
from repro.sim.orchestrator import run_topology

STORM = dict(segments=2, duration=0.1, flows=64, cache_size=16)


def storm_digest(*, seed, shards, armed):
    spec = flow_storm_topology(seed=seed, **STORM)
    plane = ObservabilityPlane() if armed else None
    return run_digest(run_topology(spec, shards=shards, observability=plane))


class TestObserverEffect:
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_flow_storm_digest_unchanged_when_armed(self, shards, seed):
        off = storm_digest(seed=seed, shards=shards, armed=False)
        armed = storm_digest(seed=seed, shards=shards, armed=True)
        assert armed == off

    def test_partition_storm_digest_unchanged_when_armed(self):
        def digest(armed):
            spec = partition_storm_topology(segments=2, seed=0)
            plane = ObservabilityPlane() if armed else None
            return run_digest(
                run_topology(spec, shards=2, observability=plane)
            )

        assert digest(True) == digest(False)


class TestAlertTimelineParity:
    def test_merged_sharded_telemetry_matches_single(self):
        """Watchdogs evaluate per-world state, so the merged N-shard
        alert timeline must equal the 1-shard one, bit for bit."""
        def timeline(shards):
            spec = partition_storm_topology(segments=2, seed=0)
            return alert_timeline_digest(run_topology(spec, shards=shards))

        single = timeline(1)
        assert single == timeline(2)
        # and streaming it live must not perturb it either
        spec = partition_storm_topology(segments=2, seed=0)
        armed = run_topology(
            spec, shards=2, observability=ObservabilityPlane()
        )
        assert alert_timeline_digest(armed) == single
