"""The sharding oracle: 1-shard and N-shard runs are indistinguishable.

Tier-1 keeps a fast smoke (one process vs two, every digest equal); the
``difftest``-marked sweep crosses shard counts with seeds on a wider
topology, and the determinism leg re-runs the digest in subprocesses
under different ``PYTHONHASHSEED`` values — partitioning and hash
salting may change wall-clock time and nothing else.
"""

import dataclasses

import pytest

from repro.bench.scenarios import run_flow_storm
from repro.difftest.sharding import (
    flow_storm_digest,
    outcome_digest,
    run_digest,
    stats_digest,
)
from repro.sim.ledger import Ledger

#: Small enough for tier-1, busy enough to cross the bridge both ways.
SMOKE = dict(segments=2, duration=0.1, flows=64, cache_size=16, seed=3)


class TestShardOracleSmoke:
    def test_two_shards_match_the_oracle(self):
        one = run_flow_storm(shards=1, **SMOKE)
        two = run_flow_storm(shards=2, **SMOKE)
        assert one["shards"] == 1 and two["shards"] == 2
        # Headline numbers first (better failure messages) ...
        for key in (
            "cache_hits",
            "cache_misses",
            "frames_received",
            "frames_forwarded",
            "events_fired",
            "windows",
        ):
            assert one[key] == two[key], key
        # ... then the full bitwise oracle: per-host counters, every
        # packet's per-stage timeline and outcome, wire counters,
        # segment reports.
        assert stats_digest(one["result"]) == stats_digest(two["result"])
        assert outcome_digest(one["result"]) == outcome_digest(two["result"])
        assert run_digest(one["result"]) == run_digest(two["result"])

    def test_ledger_off_run_digests_as_an_empty_ledger(self):
        result = run_flow_storm(shards=1, ledger=False, **SMOKE)["result"]
        assert result.ledger is None
        assert run_digest(result) == run_digest(
            dataclasses.replace(result, ledger=Ledger())
        )

    def test_storm_actually_thrashes_the_cache(self):
        # The workload's premise: more flows than cache slots means the
        # steady state is mostly misses.
        outcome = run_flow_storm(shards=1, **SMOKE)
        assert outcome["cache_misses"] > outcome["cache_hits"]
        assert outcome["frames_forwarded"] > 0


@pytest.mark.difftest
class TestShardSweep:
    @pytest.mark.parametrize("seed", [0, 7, 1987])
    def test_every_shard_count_agrees(self, seed):
        digests = {
            shards: flow_storm_digest(
                segments=4, shards=shards, seed=seed, duration=0.15
            )
            for shards in (1, 2, 3, 4)
        }
        assert len(set(digests.values())) == 1, digests

    def test_digest_stable_across_hashseeds(self, hashseed_outputs):
        outputs = hashseed_outputs(
            "from repro.difftest.sharding import flow_storm_digest\n"
            "print(flow_storm_digest("
            "segments=3, shards=2, seed=11, duration=0.05))\n"
        )
        assert outputs[0] == outputs[1]
