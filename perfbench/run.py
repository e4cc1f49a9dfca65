"""Host-time benchmark of the packet-filter reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flow_storm --seed 0 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, the per-layer ones with
``--trace 1``.  The line before it records the environment and details
(repetitions, sample counts, the spans file).  Spans of a traced run
are written to ``.perfbench/<workload>.spans.tsv.gz``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

from hostspeed import REFERENCE_SPEED
from tracing import SpanRecorder, clock
from workloads import WORKLOADS, Checks

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".perfbench"
MIN_REPS = 3


def environment() -> dict:
    """Commit, cores, Python and numpy: what a figure depends on."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "commit": commit(),
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def import_program() -> None:
    """Put the checkout's sources on the path; fail unless they load."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import repro
    import ruleset_gen

    for module, home in ((repro, ROOT / "src"), (ruleset_gen, ROOT / "benchmarks")):
        if not Path(module.__file__).resolve().is_relative_to(home):
            raise ImportError(
                f"{module.__name__} loaded from {module.__file__}, not {home}"
            )


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's (shard
    workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def repeat(workload, seconds: float, min_reps: int) -> list:
    reps = []
    deadline = clock() + seconds
    while len(reps) < min_reps or clock() < deadline:
        reps.append(workload.rep())
    return reps


def rate(reps: list, metric: str) -> float:
    """Median per-sample rate, scaled to the reference host speed."""
    attr = "events" if metric == "events_per_s" else "packets"
    return statistics.median(
        getattr(work, attr) / work.seconds * REFERENCE_SPEED / work.speed
        for rep in reps
        for work in rep.work
    )


def setup_seconds(reps: list) -> float:
    """Median set-up time, scaled to the reference host speed."""
    return statistics.median(rep.setup_s * rep.speed / REFERENCE_SPEED for rep in reps)


def percentile(samples: list, q: int) -> float:
    """The ``q``-th percentile (0 for an empty sample set)."""
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100)[q - 1]


def end_to_end(reps: list) -> dict:
    return {
        "setup_s": (setup_seconds(reps), "s"),
        "events_per_s": (rate(reps, "events_per_s"), "1/s"),
        "packets_per_s": (rate(reps, "packets_per_s"), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }


def classify_latency(reps: list) -> dict:
    samples = [us for rep in reps for us in rep.burst_us]
    return {
        "core.demux.classify_us_p50": (percentile(samples, 50), "us"),
        "core.demux.classify_us_p99": (percentile(samples, 99), "us"),
        "core.demux.classify_samples": (len(samples), "count"),
    }


def sync_metrics(reps: list) -> dict:
    profiles = [profile for rep in reps for profile in rep.sync]
    grants = sum(s.grants for p in profiles for s in p.shards)
    null_grants = sum(s.null_grants for p in profiles for s in p.shards)
    walls_ms = [w * 1e3 for p in profiles for w in p.window_walls]
    count = max(len(reps), 1)
    return {
        "sim.shard.null_grant_ratio": (ratio(null_grants, grants), "ratio"),
        "sim.shard.egress_frames": (
            sum(s.egress_frames for p in profiles for s in p.shards) / count, "count"),
        "sim.orchestrator.windows": (sum(p.windows for p in profiles) / count, "count"),
        "sim.orchestrator.window_ms_p50": (percentile(walls_ms, 50), "ms"),
        "sim.orchestrator.window_ms_p99": (percentile(walls_ms, 99), "ms"),
    }


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(recorder, reps: list) -> dict:
    """Per-repetition layer numbers from the spans and counters."""
    count = len(reps)
    self_s, rooted = recorder.self_times()
    calls = recorder.calls()
    tally = recorder.counts
    watched = recorder.instance_deltas()

    def seconds(layer):
        return (self_s.get(layer, 0.0) / count, "s")

    def per_rep(value):
        return (value / count, "count")

    admitted = watched["NIC.frames_received"]
    refused = sum(
        watched[f"NIC.{f}"] for f in ("frames_dropped", "frames_shed", "frames_nobuf")
    )
    enqueued = calls["core.port.enqueue"]
    seen = watched["PacketFilterDemux.packets_seen"]
    hits = watched["PacketFilterDemux.cache_hits"]
    lookups = hits + watched["PacketFilterDemux.cache_misses"]
    accepted = tally["core.port.enqueue.accepted"]
    return {
        "sim.clock.events": per_rep(tally["sim.clock.events"]),
        "sim.clock.self_s": seconds("sim.clock"),
        "sim.kernel.account.calls": per_rep(calls["sim.kernel.account"]),
        "sim.kernel.account.self_s": seconds("sim.kernel.account"),
        "sim.kernel.network_input.frames": per_rep(
            tally["sim.kernel.network_input.frames"]),
        "sim.kernel.network_input.self_s": seconds("sim.kernel.network_input"),
        "sim.kernel.admit_ratio": (ratio(admitted, admitted + refused), "ratio"),
        "net.nic.receive.self_s": seconds("net.nic.receive"),
        "net.nic.transmit.self_s": seconds("net.nic.transmit"),
        "net.nic.frames_dropped": per_rep(watched["NIC.frames_dropped"]),
        "net.nic.frames_shed": per_rep(watched["NIC.frames_shed"]),
        "net.nic.polls": per_rep(watched["NIC.polls"]),
        "net.medium.transmit.frames": per_rep(calls["net.medium.transmit"]),
        "net.medium.transmit.self_s": seconds("net.medium.transmit"),
        "core.device.arrived.self_s": seconds("core.device.arrived"),
        "core.device.read.calls": per_rep(calls["core.device.read"]),
        "core.device.read.self_s": seconds("core.device.read"),
        "core.device.write.self_s": seconds("core.device.write"),
        "core.device.packets_per_read": (
            ratio(watched["Port.read"], watched["Port.reads"]), "count"),
        "core.port.enqueue.calls": per_rep(enqueued),
        "core.port.accept_ratio": (ratio(accepted, enqueued), "ratio"),
        "core.demux.deliver.packets": per_rep(seen),
        "core.demux.deliver.self_s": seconds("core.demux.deliver"),
        "core.demux.deliver_batch.self_s": seconds("core.demux.deliver_batch"),
        "core.demux.cache_hit_ratio": (ratio(hits, lookups), "ratio"),
        "core.demux.predicates_per_packet": (
            ratio(watched["PacketFilterDemux.total_predicates_tested"], seen), "count"),
        "core.irgen.compile.calls": per_rep(calls["core.irgen.compile"]),
        "core.irgen.compile.self_s": seconds("core.irgen.compile"),
        "sim.ledger.record.calls": per_rep(calls["sim.ledger.Ledger.record"]),
        "sim.ledger.self_s": seconds("sim.ledger"),
        "sim.shard.step.self_s": seconds("sim.shard.step"),
        "sim.shard.step_send.self_s": seconds("sim.shard.step_send"),
        "sim.shard.grant_wait_s": seconds("sim.shard.grant_wait"),
        "trace.unattributed_s": (
            (sum(rep.wall_s for rep in reps) - rooted) / count, "s"),
    }


def traced_run(workload, seconds: float) -> tuple[dict, dict]:
    """Untraced then traced repetitions, half the time each."""
    plain = repeat(workload, seconds / 2, 1)
    recorder = SpanRecorder(workload.layers, watch_instances=workload.watch_instances)
    origin = clock()
    with recorder.active():
        for obj in workload.preexisting():
            recorder.watch(obj)
        traced = repeat(workload, seconds / 2, 1)
    metrics = layer_metrics(recorder, traced)
    metrics.update(sync_metrics(traced))
    metrics.update(classify_latency(plain))
    metrics["trace.overhead_ratio"] = (
        rate(plain, workload.rate_metric) / rate(traced, workload.rate_metric), "ratio")
    spans = SPANS_DIR / f"{workload.name}.spans.tsv.gz"
    recorder.dump(spans, origin)
    details = {
        "untraced_reps": len(plain),
        "traced_reps": len(traced),
        "spans": len(recorder.start),
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    try:
        import_program()
    except ImportError as error:
        print(f"cannot load the program from {ROOT}: {error}", file=sys.stderr)
        return 2
    if args.workload == "flow_storm_sharded" and env["nproc"] < 2:
        # Two workers on one core measure oversubscription, not IPC.
        print(json.dumps({"env": env, "workload": args.workload,
                          "skipped": "nproc < 2"}))
        return 3

    checks = Checks()
    workload = WORKLOADS[args.workload](args.seed, checks)
    workload.prepare()
    if args.trace:
        metrics, details = traced_run(workload, args.seconds)
    else:
        reps = repeat(workload, args.seconds, MIN_REPS)
        metrics = end_to_end(reps)
        speeds = [work.speed for rep in reps for work in rep.work]
        details = {"reps": len(reps), "samples": len(speeds),
                   "host_speed_median": statistics.median(speeds),
                   "reference_speed": REFERENCE_SPEED}
        if reps[0].burst_us:
            details.update({k: v for k, (v, _) in classify_latency(reps).items()})
    details.update(
        workload=args.workload,
        seed=args.seed,
        operation=workload.operation,
        error_rate=checks.failed / checks.attempted,
        problems=checks.problems,
    )
    print(json.dumps({"env": env, "details": details}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
