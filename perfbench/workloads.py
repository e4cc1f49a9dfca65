"""The four workloads: inputs from the seed, timed repetitions, checks.

Every workload drives the program through its public scenario APIs and
times only host wall clock.  A repetition (``rep``) is the unit the
benchmark repeats until its time is up; each one yields a set-up time,
the seconds of work after set-up, and the work done in them.  Outputs
are checked after the timer stops, never inside it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
from tracing import SHARD_SUPERVISOR_LAYERS, SIM_LAYERS, clock, timed_calls

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Storms are short so that one storm run is one sample of well under
# a second, and a run of the benchmark holds many of them.
#: 4 Ethernets, 256 flows against 64-slot caches, 0.25 simulated seconds.
FLOW_STORM = {"segments": 4, "duration": 0.25, "ledger": False}
#: 4x the receiver's saturation rate for 0.25 simulated seconds per mode.
OVERLOAD_STORM = {"offered_multiplier": 4.0, "duration": 0.25}
OVERLOAD_MODES = ("interrupt", "polling")
ACL_RULES = 1000
ACL_PACKETS = 1024      # one pass of traffic strides the whole rule set
ACL_BURST = 64
ACL_PASSES = 8          # traffic passes per work sample (8192 packets)
ACL_CHUNKS = 20         # work samples per repetition, after one set-up
ACL_QUEUE_LIMIT = 8


@dataclass
class Work:
    """One timed stretch of work after set-up."""

    seconds: float
    events: int            #: simulator events (bursts on acl_classify)
    packets: int           #: frames received / packets classified
    speed: float           #: host speed measured just before


@dataclass
class Rep:
    """One timed repetition: a set-up, then one or more stretches of work."""

    setup_s: float
    speed: float                                   #: host speed before set-up
    work: list = field(default_factory=list)       #: Work samples
    burst_us: list = field(default_factory=list)   #: µs per packet, per burst
    sync: list = field(default_factory=list)       #: SyncProfiles of the rep

    @property
    def wall_s(self) -> float:
        return self.setup_s + sum(work.seconds for work in self.work)


class Checks:
    """Correctness tally: operations attempted, operations that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def operation(self, what: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: " + "; ".join(failures))


def expect(failures: list[str], label: str, got, want) -> None:
    if got != want:
        failures.append(f"{label} is {got!r}, expected {want!r}")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def flow_digest(result) -> str:
    """``run_digest`` of a ledger-off topology run.

    ``run_digest`` walks ``result.ledger.spans`` and fails on ``None``,
    so a ledger-off result is digested with an empty ledger in its
    place: every counter, wire and report line, and no span lines.
    """
    from repro.difftest.sharding import run_digest
    from repro.sim.ledger import Ledger

    if result.ledger is None:
        result = dataclasses.replace(result, ledger=Ledger())
    return run_digest(result)


class Workload:
    """What the runner needs of a workload.

    ``prepare`` builds the inputs and references and warms up, untimed;
    ``rep`` runs one timed, checked repetition.  ``layers`` are the
    wrappers a traced run installs; with ``watch_instances`` the
    counters of NICs, demuxes and ports built while tracing are read.
    ``rate_metric`` is the rate ``trace.overhead_ratio`` compares.
    """

    name: str
    operation: str          #: the unit ``attempted``/``failed`` count
    layers = SIM_LAYERS
    watch_instances = True
    rate_metric = "events_per_s"

    def __init__(self, seed: int, checks: Checks) -> None:
        self.seed = seed
        self.checks = checks

    def preexisting(self) -> list:
        """Objects built before tracing whose counters it must read."""
        return []


# ---------------------------------------------------------------------------
# flow_storm / flow_storm_sharded
# ---------------------------------------------------------------------------


class FlowStorm(Workload):
    """The flow-cache miss storm, all four segments in this process."""

    name = "flow_storm"
    operation = "one storm run"
    shards = 1

    def __init__(self, seed: int, checks: Checks) -> None:
        super().__init__(seed, checks)
        self.pinned = load_expected()["flow_storm"].get(str(seed))
        self.digest: str | None = None

    def _storm(self, shards: int, **overrides):
        from repro.bench.scenarios import run_flow_storm

        options = {**FLOW_STORM, **overrides}
        return run_flow_storm(shards=shards, seed=self.seed, **options)

    def prepare(self) -> None:
        """Reference digest, plus a ledger-on reconciliation run."""
        from repro.difftest.sharding import stats_digest

        reference = self._storm(1, ledger=True)["result"]
        failures = []
        for host, stats in reference.stats.items():
            expect(failures, f"ledger.stats_view({host})",
                   reference.ledger.stats_view(host), stats)
        self.checks.operation("ledger-on reference run", failures)
        self.stats_digest = stats_digest(reference)
        # Unpinned, the first run checked sets the digest the rest match.
        self.digest = self.pinned["run_digest"] if self.pinned else None
        if self.shards > 1:
            # The in-process run is the oracle any shard count must match.
            self._check(self._storm(1), "in-process reference run")
        self.rep()  # warm-up: caches filled, lazy set-up done, checked

    def _check(self, outcome, what: str, shards: int = 1) -> None:
        from repro.difftest.sharding import stats_digest

        result = outcome["result"]
        digest = flow_digest(result)
        if self.digest is None:
            self.digest = digest
        failures = []
        expect(failures, "shards", outcome["shards"], shards)
        expect(failures, "run_digest", digest, self.digest)
        expect(failures, "stats digest vs ledger-on run",
               stats_digest(result), self.stats_digest)
        if self.pinned:
            for key in ("events_fired", "frames_received"):
                expect(failures, key, outcome[key], self.pinned[key])
        self.checks.operation(what, failures)

    def rep(self) -> Rep:
        from repro.sim.shard import LocalShard, ProcessShard

        constructors = [(LocalShard, "__init__"), (ProcessShard, "__init__")]
        speed = hostspeed.measure(every_cpu=self.shards > 1)
        with timed_calls(constructors) as setup:
            begin = clock()
            outcome = self._storm(self.shards)
            wall = clock() - begin
        self._check(outcome, "storm run", self.shards)
        work = Work(wall - setup[0], outcome["events_fired"],
                    outcome["frames_received"], speed)
        return Rep(setup[0], speed, [work], sync=[outcome["result"].sync])


class FlowStormSharded(FlowStorm):
    """The same storm on two ``ProcessShard`` workers."""

    name = "flow_storm_sharded"
    shards = 2
    layers = SHARD_SUPERVISOR_LAYERS
    watch_instances = False


# ---------------------------------------------------------------------------
# overload_storm
# ---------------------------------------------------------------------------


class OverloadStorm(Workload):
    """The livelock storm, interrupt then polling mode, ledger on."""

    name = "overload_storm"
    operation = "one storm run (one mode)"

    def __init__(self, seed: int, checks: Checks) -> None:
        # run_overload_storm takes no seed: the storm is deterministic,
        # so its pinned values hold for every seed.
        super().__init__(seed, checks)
        self.pinned = load_expected()["overload_storm"]

    def prepare(self) -> None:
        self.rep()  # warm-up, checked

    def _storm(self, mode: str):
        from repro.bench.scenarios import run_overload_storm
        from repro.sim.host import Host
        from repro.sim.world import World

        constructors = [
            (World, "__init__"),
            (World, "host"),
            (Host, "install_packet_filter"),
            (Host, "enable_overload"),
        ]
        with timed_calls(constructors) as setup:
            begin = clock()
            outcome = run_overload_storm(mode=mode, **OVERLOAD_STORM)
            wall = clock() - begin
        return outcome, setup[0], wall - setup[0]

    def _check(self, mode: str, outcome) -> None:
        pinned = self.pinned[mode]
        receiver = outcome["receiver_host"]
        failures = []
        expect(failures, "ledger.stats_view(receiver)",
               outcome["ledger"].stats_view("receiver"), receiver.kernel.stats)
        if mode == "polling":
            expect(failures, "pool_audit", outcome["pool_audit"], {})
        expect(failures, "goodput_pps", outcome["goodput_pps"],
               pinned["goodput_pps"])
        expect(failures, "drop_summary", outcome["drops"], pinned["drops"])
        self.checks.operation(f"{mode} storm run", failures)

    def rep(self) -> Rep:
        # Both modes make one sample: their rates differ, and a set of
        # alternating samples would have no stable median.
        work = Work(0.0, 0, 0, hostspeed.measure())
        setup_s = 0.0
        for mode in OVERLOAD_MODES:
            outcome, mode_setup_s, seconds = self._storm(mode)
            self._check(mode, outcome)
            setup_s += mode_setup_s / len(OVERLOAD_MODES)
            work.seconds += seconds
            work.events += outcome["world"].scheduler.events_fired
            work.packets += outcome["receiver_host"].kernel.stats.frames_received
        return Rep(setup_s, work.speed, [work])


# ---------------------------------------------------------------------------
# acl_classify
# ---------------------------------------------------------------------------


def outcome_key(report) -> list:
    return [list(report.accepted_by), list(report.dropped_by),
            list(report.nobuf_by)]


class AclClassify(Workload):
    """A 1000-rule 5-tuple ACL on the IR engine, bursts of 64."""

    name = "acl_classify"
    operation = "one deliver_batch burst"
    rate_metric = "packets_per_s"

    def __init__(self, seed: int, checks: Checks) -> None:
        super().__init__(seed, checks)
        self.pinned = load_expected()["acl_classify"].get(str(seed))
        self.setups = 0

    def preexisting(self) -> list:
        return [self.demux]

    @staticmethod
    def bind(programs):
        """Attach every rule to a fresh IR demux and force the compile;
        returns the demux, its ports and the seconds it took."""
        from repro.core.demux import Engine, PacketFilterDemux
        from repro.core.port import Port

        begin = clock()
        demux = PacketFilterDemux(engine=Engine.IR, flow_cache=False)
        ports = []
        for index, program in enumerate(programs):
            port = Port(index, queue_limit=ACL_QUEUE_LIMIT)
            port.bind_filter(program)
            demux.attach(port)
            ports.append(port)
        demux.ir_stats  # the first compile happens here, not per packet
        return demux, ports, clock() - begin

    def prepare(self) -> None:
        from repro.difftest.harness import reference_outcomes
        from ruleset_gen import generate_ruleset, traffic_for

        programs, tuples = generate_ruleset(ACL_RULES, seed=self.seed)
        traffic = traffic_for(tuples, count=ACL_PACKETS, seed=self.seed,
                              spread=True)
        reference = [
            [list(o.accepted_by), list(o.dropped_by), list(o.nobuf_by)]
            for o in reference_outcomes(
                programs, [("packet", p) for p in traffic],
                queue_limit=ACL_QUEUE_LIMIT,
            )
        ]
        self.reference_digest = hashlib.sha256(
            json.dumps(reference).encode()
        ).hexdigest()
        self.bursts = [
            (traffic[i:i + ACL_BURST], reference[i:i + ACL_BURST])
            for i in range(0, len(traffic), ACL_BURST)
        ]
        self.demux, self.ports, _ = self.bind(programs)
        failures = []
        if self.pinned:
            expect(failures, "reference outcome digest",
                   self.reference_digest, self.pinned["reference_digest"])
            stats = self.demux.ir_stats
            expect(failures, "IR nodes after CSE", stats.nodes_after_cse,
                   self.pinned["nodes_after_cse"])
        self.checks.operation("reference outcomes", failures)
        self.classify(1, Rep(0.0, 0.0))  # warm-up, checked

    def classify(self, passes: int, rep: Rep) -> None:
        """``passes`` passes of the traffic, timed burst by burst, each
        burst's accept targets checked against the reference."""
        demux = self.demux
        work = Work(0.0, 0, 0, hostspeed.measure())
        for _ in range(passes):
            for burst, expected in self.bursts:
                begin = clock()
                reports = demux.deliver_batch(burst)
                elapsed = clock() - begin
                work.seconds += elapsed
                work.events += 1
                work.packets += len(burst)
                rep.burst_us.append(elapsed * 1e6 / len(burst))
                failures = []
                expect(failures, "outcomes",
                       [outcome_key(r) for r in reports], expected)
                self.checks.operation("burst", failures)
            for port in self.ports:
                port.flush()  # next pass starts from empty queues again
        rep.work.append(work)

    def rep(self) -> Rep:
        from ruleset_gen import generate_ruleset

        # Set-up is sampled on a fresh rule set each time: the compiler
        # memoizes on the set's value, so rebinding the measured set
        # would time a memo hit, not a compile.
        self.setups += 1
        programs, _ = generate_ruleset(
            ACL_RULES, seed=f"{self.seed}:setup:{self.setups}"
        )
        speed = hostspeed.measure()
        rep = Rep(self.bind(programs)[2], speed)
        for _ in range(ACL_CHUNKS):
            self.classify(ACL_PASSES, rep)
        return rep


WORKLOADS = {
    cls.name: cls
    for cls in (FlowStorm, FlowStormSharded, OverloadStorm, AclClassify)
}
