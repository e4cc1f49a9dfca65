"""Host-time spans recorded from outside the program.

The benchmark never edits the code it measures.  For a traced run it
replaces public methods at each layer boundary with thin wrappers that
record a span (name, start, end, parent) per call, and restores the
originals afterwards.  Spans live in flat arrays while the run lasts
and are written out once it ends; a layer's self time is the total
duration of its spans minus the time their child spans cover.

Instance counters the program already keeps (NIC drop counters, demux
predicate and flow-cache tallies, port read batches) are read as
deltas from the objects created, or explicitly watched, while tracing.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

clock = time.perf_counter


# (module, owner, method, layer).  ``owner`` None means a module-level
# function, patched in the namespace that calls it.  A span is named
# after the function it wraps, e.g. ``sim.clock.EventScheduler.step``.
SIM_LAYERS = [
    ("repro.sim.clock", "EventScheduler", "step", "sim.clock"),
    ("repro.sim.clock", "EventScheduler", "run_until", "sim.clock"),
    ("repro.sim.clock", "EventScheduler", "run", "sim.clock"),
    ("repro.sim.kernel", "SimKernel", "account", "sim.kernel.account"),
    ("repro.sim.kernel", "SimKernel", "network_input", "sim.kernel.network_input"),
    ("repro.sim.kernel", "SimKernel", "network_input_batch",
     "sim.kernel.network_input"),
    ("repro.net.nic", "NIC", "receive", "net.nic.receive"),
    ("repro.net.nic", "NIC", "transmit", "net.nic.transmit"),
    ("repro.net.medium", "EthernetSegment", "transmit", "net.medium.transmit"),
    ("repro.core.device", "PacketFilterDevice", "packet_arrived",
     "core.device.arrived"),
    ("repro.core.device", "PacketFilterDevice", "packets_arrived",
     "core.device.arrived"),
    ("repro.core.device", "PacketFilterHandle", "read", "core.device.read"),
    ("repro.core.device", "PacketFilterHandle", "write", "core.device.write"),
    ("repro.core.port", "Port", "enqueue", "core.port.enqueue"),
    ("repro.core.demux", "PacketFilterDemux", "deliver", "core.demux.deliver"),
    ("repro.core.demux", "PacketFilterDemux", "deliver_batch",
     "core.demux.deliver_batch"),
    ("repro.core.demux", None, "compile_ir_set", "core.irgen.compile"),
    ("repro.sim.ledger", "Ledger", "record", "sim.ledger"),
    ("repro.sim.ledger", "Ledger", "begin_packet", "sim.ledger"),
    ("repro.sim.ledger", "Ledger", "stage", "sim.ledger"),
    ("repro.sim.ledger", "Ledger", "close_packet", "sim.ledger"),
    ("repro.sim.shard", "LocalShard", "step", "sim.shard.step"),
]

# Supervisor-side only: forked workers would inherit any wrapper on the
# simulator classes and pay for spans nobody collects.
SHARD_SUPERVISOR_LAYERS = [
    ("repro.sim.shard", "ProcessShard", "step_send", "sim.shard.step_send"),
    ("repro.sim.shard", "ProcessShard", "step_recv", "sim.shard.grant_wait"),
]

# Objects whose own counters are read as deltas: (module, class, fields).
WATCHED = [
    ("repro.net.nic", "NIC",
     ("frames_received", "frames_dropped", "frames_shed", "frames_nobuf", "polls")),
    ("repro.core.demux", "PacketFilterDemux",
     ("packets_seen", "total_predicates_tested", "cache_hits", "cache_misses")),
    ("repro.core.port", "Port", ("read", "reads")),
]


def _counter(obj, field: str) -> int:
    if field in ("cache_hits", "cache_misses"):
        cache = obj.flow_cache
        return 0 if cache is None else getattr(cache, field[len("cache_"):])
    if field in ("read", "reads"):
        return getattr(obj.stats, field)
    return getattr(obj, field)


def _resolve(module: str, owner: str | None):
    import importlib

    namespace = importlib.import_module(module)
    return namespace if owner is None else getattr(namespace, owner)


def _count_events(counts, args, result) -> None:
    if result:
        counts["sim.clock.events"] += 1


def _count_frame(counts, args, result) -> None:
    counts["sim.kernel.network_input.frames"] += 1


def _count_frames(counts, args, result) -> None:
    counts["sim.kernel.network_input.frames"] += len(args[2])


def _count_accepted(counts, args, result) -> None:
    if result:
        counts["core.port.enqueue.accepted"] += 1


# Per-call counts that only a call's arguments or result show.
TALLIES = {
    "sim.clock.EventScheduler.step": _count_events,
    "sim.kernel.SimKernel.network_input": _count_frame,
    "sim.kernel.SimKernel.network_input_batch": _count_frames,
    "core.port.Port.enqueue": _count_accepted,
}


class SpanRecorder:
    """Installs span wrappers and keeps every span in memory."""

    def __init__(self, layers, *, watch_instances: bool) -> None:
        self.span_names: list[str] = []
        self.layer_of: list[str] = []
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self._layers = layers
        self._watch_instances = watch_instances
        self._stack = [-1]
        self._patches: list[tuple] = []
        self._watched: list[tuple] = []   # (class name, obj, baseline)

    # -- installing --------------------------------------------------------

    def watch(self, obj) -> None:
        """Read ``obj``'s counters as deltas from now on."""
        for _, cls_name, fields in WATCHED:
            if type(obj).__name__ == cls_name:
                baseline = {f: _counter(obj, f) for f in fields}
                self._watched.append((cls_name, obj, baseline))
                return

    def _patch(self, owner, attr: str, wrap) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def _wrapper(self, original, layer: str):
        span = f"{original.__module__}.{original.__qualname__}".removeprefix("repro.")
        span_id = len(self.span_names)
        self.span_names.append(span)
        self.layer_of.append(layer)
        names, parents = self.name, self.parent
        starts, ends = self.start, self.end
        stack, counts = self._stack, self.counts
        tally = TALLIES.get(span)

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(span_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            begin = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = begin
                stack.pop()
            if tally is not None:
                tally(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        for module, owner, attr, layer in self._layers:
            self._patch(
                _resolve(module, owner), attr,
                lambda original: self._wrapper(original, layer),
            )
        if self._watch_instances:
            for module, cls_name, _ in WATCHED:
                self._patch(_resolve(module, cls_name), "__init__", self._watching_init)

    def _watching_init(self, original):
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            self.watch(obj)

        return init

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], float]:
        """Per-layer self seconds, and seconds covered by root spans."""
        count = len(self.start)
        children = array("d", bytes(8 * count))
        starts, ends, parents = self.start, self.end, self.parent
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                children[parent] += ends[index] - starts[index]
        per_layer: dict[str, float] = defaultdict(float)
        rooted = 0.0
        names, layer_of = self.name, self.layer_of
        for index in range(count):
            duration = ends[index] - starts[index]
            per_layer[layer_of[names[index]]] += duration - children[index]
            if parents[index] < 0:
                rooted += duration
        return per_layer, rooted

    def calls(self) -> dict[str, int]:
        """Calls per span name and per layer."""
        tally = [0] * len(self.span_names)
        for span_id in self.name:
            tally[span_id] += 1
        calls: dict[str, int] = defaultdict(int)
        for span, layer, count in zip(self.span_names, self.layer_of, tally):
            calls[span] += count
            calls[layer] += count
        return calls

    def instance_deltas(self) -> dict[str, int]:
        deltas: dict[str, int] = defaultdict(int)
        for cls_name, obj, baseline in self._watched:
            for field, before in baseline.items():
                deltas[f"{cls_name}.{field}"] += _counter(obj, field) - before
        return deltas

    def dump(self, path, origin: float) -> None:
        """Write every span as gzip'd TSV: id, parent, name, µs offsets."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_us\tend_us\n")
            names = self.span_names
            for index in range(len(self.start)):
                out.write(
                    f"{index}\t{self.parent[index]}\t{names[self.name[index]]}\t"
                    f"{(self.start[index] - origin) * 1e6:.3f}\t"
                    f"{(self.end[index] - origin) * 1e6:.3f}\n"
                )


def _timed(original, total: list):
    def timed(*args, **kwargs):
        begin = clock()
        try:
            return original(*args, **kwargs)
        finally:
            total[0] += clock() - begin

    return timed


@contextmanager
def timed_calls(targets):
    """Accumulate the wall time of calls to ``(owner, attr)`` targets.

    The set-up probe: one wrapper per constructor-like call, so it is
    kept on in untraced runs — a handful of calls per repetition.
    """
    total = [0.0]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in targets]
    for owner, attr, original in originals:
        setattr(owner, attr, _timed(original, total))
    try:
        yield total
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
