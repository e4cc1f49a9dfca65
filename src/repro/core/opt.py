"""Optimization passes over the filter IR.

Everything here is a *transfer*: a pass re-emits the live slice of a
:class:`repro.core.ir.FilterIR` through the :class:`~repro.core.ir.ValueGraph`
constructors, which hash-cons and constant-fold on the way in.  One
mechanism gives all four classic passes:

* **Dead-code elimination** — only nodes reachable from the steps and
  the result are re-emitted; everything else is simply never copied.
* **Constant folding** — the constructors fold, so any constants a
  rewrite exposes cascade for free (and a side exit whose condition
  folds to a constant is either deleted or turned into the filter's
  final verdict, exactly as at lowering time).
* **Cross-filter CSE** — transferring many filters into one *shared*
  graph value-numbers them against each other: thirty filters that all
  compare the Ethernet-type word own one load node and one comparison
  node between them (:func:`cse_filter_set`).
* **Dispatch specialization** — under a dispatch-tree bucket the
  discriminating field's value is known, so :func:`specialize_filter`
  rewrites the corresponding loads to constants and lets folding delete
  the now-redundant predicate the dispatch probe already paid for.

The dispatch tree itself (:func:`build_dispatch_tree`) generalizes the
section 5 decision table's necessary-equality bucketing into a
recursive plan the backend (:mod:`repro.core.irgen`) turns into nested
hash probes.  It consumes and produces the same public
:class:`repro.core.decision.TableEntry` the decision table yields, and
reorders *predicates*, never priorities: every leaf chain is sorted by
the caller's order key, so delivery order is exactly the figure 4-1
loop's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .decision import TableEntry, choose_discriminant, required_value
from .ir import (
    CONST,
    INDB,
    INDW,
    LOAD,
    Anchor,
    Bound,
    ExitIf,
    FilterIR,
    ValueGraph,
)

__all__ = [
    "live_nodes",
    "transfer_filter",
    "optimize_filter",
    "cse_filter_set",
    "CSEStats",
    "specialize_filter",
    "DispatchTree",
    "build_dispatch_tree",
]


def live_nodes(fir: FilterIR) -> set[int]:
    """Node ids reachable from ``fir``'s steps and result."""
    graph = fir.graph
    roots = [fir.result]
    for step in fir.steps:
        if isinstance(step, Anchor):
            roots.append(step.node)
        elif isinstance(step, ExitIf):
            roots.append(step.cond)
    seen: set[int] = set()
    while roots:
        nid = roots.pop()
        if nid in seen:
            continue
        seen.add(nid)
        node = graph.node(nid)
        if node.kind in (CONST, LOAD):
            continue
        roots.append(node.arg0)
        if node.arg1 is not None:
            roots.append(node.arg1)
    return seen


def transfer_filter(
    fir: FilterIR,
    graph: ValueGraph,
    *,
    loads: Mapping[int, int] | None = None,
) -> FilterIR:
    """Re-emit ``fir`` into ``graph`` through the folding constructors.

    ``loads`` optionally maps packet word indices to known constant
    values (the dispatch-specialization context); matching ``LOAD``
    nodes are rewritten to constants and the fold cascades from there.
    A side exit whose condition becomes constant is deleted (never
    taken) or, when it is provably always taken, truncates the filter
    with its verdict — mirroring the lowering-time treatment.
    """
    src = fir.graph
    memo: dict[int, int] = {}

    def tx(nid: int) -> int:
        out = memo.get(nid)
        if out is not None:
            return out
        node = src.node(nid)
        if node.kind == CONST:
            out = graph.const(node.arg0)
        elif node.kind == LOAD:
            if loads is not None and node.arg0 in loads:
                out = graph.const(loads[node.arg0])
            else:
                out = graph.load(node.arg0)
        elif node.kind in (INDW, INDB):
            out = graph.indirect(node.kind, tx(node.arg0))
        else:
            out = graph.binop(node.kind, tx(node.arg0), tx(node.arg1))
        memo[nid] = out
        return out

    steps: list = []
    for step in fir.steps:
        if isinstance(step, Bound):
            steps.append(step)
        elif isinstance(step, Anchor):
            nid = tx(step.node)
            if graph.faultable(nid):
                steps.append(Anchor(nid))
        else:
            cond = tx(step.cond)
            value = graph.const_value(cond)
            if value is None:
                steps.append(ExitIf(cond, step.when, step.returns))
            elif bool(value) == step.when:
                # Always taken: the exit verdict is the filter's result.
                return FilterIR(
                    graph=graph,
                    steps=tuple(steps),
                    result=graph.const(1 if step.returns else 0),
                )
            # else: provably never taken — drop the step.
    return FilterIR(graph=graph, steps=tuple(steps), result=tx(fir.result))


def optimize_filter(fir: FilterIR) -> FilterIR:
    """Fold + DCE one filter into a fresh minimal graph."""
    return transfer_filter(fir, ValueGraph())


@dataclass(frozen=True)
class CSEStats:
    """Before/after accounting for the cross-filter CSE pass."""

    nodes_before: int  #: sum of per-filter live node counts
    nodes_after: int   #: live nodes in the shared graph


def cse_filter_set(
    firs: Sequence[FilterIR],
) -> tuple[list[FilterIR], CSEStats]:
    """Value-number ``firs`` against each other in one shared graph."""
    before = sum(len(live_nodes(fir)) for fir in firs)
    shared = ValueGraph()
    merged = [transfer_filter(fir, shared) for fir in firs]
    after = len(set().union(*(live_nodes(fir) for fir in merged))) if merged else 0
    return merged, CSEStats(nodes_before=before, nodes_after=after)


def specialize_filter(
    fir: FilterIR,
    graph: ValueGraph,
    context: Mapping[tuple[int, int], int],
) -> FilterIR:
    """Specialize ``fir`` for a dispatch bucket.

    ``context`` maps (word index, mask) discriminants to the value the
    dispatch probe established.  Only full-word facts (mask 0xFFFF) can
    rewrite a load outright; masked facts are left to the probe (the
    load itself is not fully known).  Soundness note: a bucket is only
    entered when the packet is long enough for the probe's (possibly
    odd-tail-padded) load, which is exactly the lowering's ``Bound``
    precondition for the same word — so the rewritten constant equals
    what the body would have loaded at every reachable use.
    """
    loads = {
        index: value & 0xFFFF
        for (index, mask), value in context.items()
        if mask == 0xFFFF
    }
    return transfer_filter(fir, graph, loads=loads or None)


@dataclass(frozen=True)
class DispatchTree:
    """A recursive dispatch plan over a filter set.

    Internal nodes carry a ``discriminant`` (word, mask), per-value
    ``buckets``, and a ``fallback`` subtree for packets matching no
    bucket (or too short for the field).  Leaves carry the ``entries``
    to evaluate in application order.  Entries the analysis could not
    bucket at a node are merged *into every bucket subtree* (and form
    the fallback), preserving total order.
    """

    discriminant: tuple[int, int] | None
    buckets: Mapping[int, "DispatchTree"]
    fallback: "DispatchTree | None"
    entries: tuple[TableEntry, ...]

    @property
    def depth(self) -> int:
        if self.discriminant is None:
            return 0
        deepest = max(tree.depth for tree in self.buckets.values())
        if self.fallback is not None:
            deepest = max(deepest, self.fallback.depth)
        return 1 + deepest

    @property
    def leaves(self) -> int:
        if self.discriminant is None:
            return 1
        count = sum(tree.leaves for tree in self.buckets.values())
        if self.fallback is not None:
            count += self.fallback.leaves
        return count


#: Stop splitting below this many entries; a straight chain is cheaper.
MIN_SPLIT = 2


def build_dispatch_tree(
    entries: Sequence[TableEntry],
    *,
    max_depth: int = 3,
    min_split: int = MIN_SPLIT,
    used_keys: frozenset = frozenset(),
    _depth: int = 0,
) -> DispatchTree:
    """Generalize the section 5 bucketing into a recursive plan.

    This is the predicate-reordering pass: instead of each filter
    re-testing the discriminating fields in chain order, the shared
    probe runs once up front.  Priority order is *not* reordered —
    every leaf chain sorts by ``TableEntry.order``.
    """
    ordered = tuple(sorted(entries, key=lambda e: e.order))
    if _depth >= max_depth or len(ordered) < min_split:
        return DispatchTree(None, {}, None, ordered)
    key = choose_discriminant(ordered, used_keys, min_split=min_split)
    if key is None:
        return DispatchTree(None, {}, None, ordered)

    grouped: dict[int, list[TableEntry]] = {}
    leftovers: list[TableEntry] = []
    for entry in ordered:
        value = required_value(entry.program, key)
        if value is None:
            leftovers.append(entry)
        else:
            grouped.setdefault(value, []).append(entry)

    deeper = used_keys | {key}
    buckets = {
        value: build_dispatch_tree(
            group + leftovers,
            max_depth=max_depth,
            min_split=min_split,
            used_keys=deeper,
            _depth=_depth + 1,
        )
        for value, group in grouped.items()
    }
    fallback = build_dispatch_tree(
        leftovers,
        max_depth=max_depth,
        min_split=min_split,
        used_keys=deeper,
        _depth=_depth + 1,
    )
    return DispatchTree(key, buckets, fallback, ())
