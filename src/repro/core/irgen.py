"""IR-to-Python code generation: bodies and dispatch trees.

Two layers, bottom up:

* :func:`emit_ir_body` turns one optimized :class:`repro.core.ir.FilterIR`
  into straight-line Python statements — the registerized lowering that
  used to live as a stack-walk in :mod:`repro.core.jit` now runs off
  the DAG, so single-use values inline into their consumers, multi-use
  values get one temp, and values a surrounding chain pre-computed
  (hoisted) are referenced by name instead of recomputed.

* :func:`compile_ir_set` compiles a whole bound filter set: lower every
  filter (:func:`repro.core.ir.lower_program`), value-number them
  against each other (:func:`repro.core.opt.cse_filter_set`), build the
  dispatch tree (:func:`repro.core.opt.build_dispatch_tree`), and emit
  one generated module — nested hash probes over the discriminating
  header words, each leaf a chain of inlined bodies *specialized* to
  the probe values above it (a filter's own test of the dispatched
  field folds away; the probe already paid for it).  Values any two
  bodies in a chain share are hoisted into the chain preamble, loaded
  through a never-faulting padded form so the preamble cannot raise on
  behalf of a body whose own length guard would have exited first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .decision import TableEntry
from .interpreter import LanguageLevel, ShortCircuitMode
from .ir import CONST, INDB, INDW, LOAD, Anchor, Bound, ExitIf, FilterIR, ValueGraph
from .ir import lower_program
from .opt import (
    DispatchTree,
    build_dispatch_tree,
    cse_filter_set,
    live_nodes,
    specialize_filter,
)
from .program import FilterProgram
from .validator import ValidationReport
from .words import get_byte, get_word

__all__ = [
    "FusedEntry", "IRStats", "CompiledIRSet", "compile_ir_set", "emit_ir_body",
]

_CMP = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
_CMP_NEG = {"eq": "!=", "ne": "==", "lt": ">=", "le": ">", "gt": "<=", "ge": "<"}
_BITS = {"and": "&", "or": "|", "xor": "^"}
_ARITH = {"add": "+", "sub": "-", "mul": "*"}


def _binop_src(kind: str, a: str, b: str) -> str:
    """Python expression for ``a <kind> b`` (operand strings ready)."""
    if kind in _CMP:
        return f"1 if {a} {_CMP[kind]} {b} else 0"
    if kind in _BITS:
        return f"{a} {_BITS[kind]} {b}"
    if kind in _ARITH:
        return f"({a} {_ARITH[kind]} {b}) & 0xFFFF"
    if kind == "div":
        return f"{a} // {b}"
    if kind == "rsh":
        return f"{a} >> min({b}, 16)"
    if kind == "lsh":
        return f"({a} << min({b}, 16)) & 0xFFFF"
    raise AssertionError(f"unknown binop kind {kind!r}")


def emit_ir_body(
    fir: FilterIR,
    emit: Callable[[str], None],
    indent: str,
    *,
    terminate: Callable[[str], str],
    length_expr: str = "len(packet)",
    name_prefix: str = "t",
    prebound: Mapping[int, str] | None = None,
) -> None:
    """Emit one filter body from its IR.

    Same contract as the old stack-walking emitter: ``emit`` receives
    one statement at a time, ``terminate(expr)`` ends evaluation with
    the truth of ``expr`` (``'False'``/``'True'`` are the constant
    verdicts), ``length_expr`` names the packet length.  ``prebound``
    maps node ids to local names the caller already computed (chain
    hoisting); everything else materializes lazily — at its first use,
    which is always at or after its guarding ``Bound`` step.
    """
    graph = fir.graph
    live = live_nodes(fir)
    uses: dict[int, int] = {}

    def bump(nid: int) -> None:
        uses[nid] = uses.get(nid, 0) + 1

    for nid in live:
        node = graph.node(nid)
        if node.kind in (CONST, LOAD):
            continue
        bump(node.arg0)
        if node.arg1 is not None:
            bump(node.arg1)
    bump(fir.result)
    for step in fir.steps:
        if isinstance(step, ExitIf):
            bump(step.cond)
        elif isinstance(step, Anchor):
            bump(step.node)

    names: dict[int, str] = dict(prebound) if prebound else {}
    state = {"guaranteed": 0, "temp": 0}

    def load_expr(index: int) -> str:
        offset = 2 * index
        if offset + 2 <= state["guaranteed"]:
            return f"(packet[{offset}] << 8) | packet[{offset + 1}]"
        # The word may be the zero-padded odd tail byte.
        return (
            f"(packet[{offset}] << 8) | "
            f"(packet[{offset + 1}] if {length_expr} > {offset + 1} else 0)"
        )

    def raw_expr(nid: int) -> str:
        node = graph.node(nid)
        kind = node.kind
        if kind == CONST:
            return str(node.arg0)
        if kind == LOAD:
            return load_expr(node.arg0)
        if kind == INDW:
            return f"_get_word(packet, {subexpr(node.arg0)})"
        if kind == INDB:
            return f"_get_byte(packet, {subexpr(node.arg0)})"
        return _binop_src(kind, subexpr(node.arg0), subexpr(node.arg1))

    def subexpr(nid: int) -> str:
        """Operand-position expression: a name, a literal, or a
        parenthesized inline computation (single-use values only)."""
        name = names.get(nid)
        if name is not None:
            return name
        node = graph.node(nid)
        if node.kind == CONST:
            return str(node.arg0)
        if uses.get(nid, 0) > 1:
            return materialize(nid)
        return f"({raw_expr(nid)})"

    def materialize(nid: int) -> str:
        expression = raw_expr(nid)  # emits operand temps first
        state["temp"] += 1
        name = f"{name_prefix}{state['temp']}"
        emit(f"{indent}{name} = {expression}")
        names[nid] = name
        return name

    def bool_expr(nid: int, want_true: bool) -> str:
        node = graph.node(nid)
        if (
            nid not in names
            and node.kind in _CMP
            and uses.get(nid, 0) <= 1
        ):
            table = _CMP if want_true else _CMP_NEG
            return (
                f"{subexpr(node.arg0)} {table[node.kind]} "
                f"{subexpr(node.arg1)}"
            )
        expression = subexpr(nid)
        return f"{expression} != 0" if want_true else f"{expression} == 0"

    for step in fir.steps:
        if isinstance(step, Bound):
            if step.min_bytes > state["guaranteed"]:
                emit(
                    f"{indent}if {length_expr} < {step.min_bytes}: "
                    f"{terminate('False')}"
                )
                state["guaranteed"] = step.min_bytes
        elif isinstance(step, Anchor):
            if step.node not in names:
                materialize(step.node)
        else:
            verdict = "True" if step.returns else "False"
            emit(
                f"{indent}if {bool_expr(step.cond, step.when)}: "
                f"{terminate(verdict)}"
            )

    result = graph.node(fir.result)
    if result.kind == CONST:
        emit(f"{indent}{terminate('True' if result.arg0 else 'False')}")
    else:
        emit(f"{indent}{terminate(bool_expr(fir.result, True))}")


# -- whole-set compilation ---------------------------------------------------


@dataclass(frozen=True)
class FusedEntry:
    """One bound filter as the whole-set compiler sees it.

    ``rank`` is the filter's position in global application order
    (priority descending, then bind sequence); ``copy_all`` is baked in
    at compile time, so flipping it on a live port must recompile (the
    demultiplexer's ``invalidate()`` does).
    """

    rank: int
    program: FilterProgram
    report: ValidationReport
    copy_all: bool


@dataclass(frozen=True)
class IRStats:
    """Compiler accounting, published as gauges by the device layer."""

    filters: int
    nodes_before_cse: int
    nodes_after_cse: int
    dispatch_depth: int
    chains: int
    hoisted: int


@dataclass(frozen=True)
class CompiledIRSet:
    """A bound filter set compiled through the IR pipeline.

    ``classify(packet)`` returns ``(ranks, predicates)``: the ranks of
    the accepting filters in delivery order (first-match unless an
    accepting filter opted into copy-all), and how many filter bodies
    were entered before resolution — the figure of merit the cost model
    charges for.  ``source`` keeps the generated module for inspection
    and tests; ``stats`` holds the pass statistics.
    """

    source: str
    size: int
    discriminant: tuple[int, int] | None  #: root (word index, mask)
    stats: IRStats
    _function: object

    def classify(self, packet: bytes) -> tuple[Sequence[int], int]:
        return self._function(packet)  # type: ignore[operator]


_IR_MEMO: dict = {}
_IR_MEMO_MAX = 8


def compile_ir_set(
    entries: Sequence[FusedEntry],
    *,
    mode: ShortCircuitMode = ShortCircuitMode.PUSH_RESULT,
    level: LanguageLevel = LanguageLevel.CLASSIC,
    max_depth: int = 3,
) -> CompiledIRSet:
    """Compile ``entries`` (already validated, in rank order) through
    lower → CSE → dispatch-tree → specialize → emit.

    The necessary-equality analysis behind the dispatch tree assumes
    the figure 3-6 push-result discipline, so under ``NO_PUSH`` the set
    compiles as a single chain (still one call, no dispatch).

    Compiled sets are memoized on set value (small LRU): SETFILTER
    churn that restores an earlier set, or several demultiplexers bound
    to the same ACL, reuse one immutable artifact instead of re-running
    the whole middle-end — at 10k rules a fresh compile is seconds, a
    memo hit is microseconds.
    """
    del level  # validation already happened; kept for engine-call parity
    entries = sorted(entries, key=lambda e: e.rank)
    memo_key = (
        tuple((e.rank, e.program, e.copy_all) for e in entries),
        mode,
        max_depth,
    )
    cached = _IR_MEMO.pop(memo_key, None)
    if cached is not None:
        _IR_MEMO[memo_key] = cached  # re-insert: dict order is LRU order
        return cached
    firs = [lower_program(e.program, e.report, mode) for e in entries]
    merged, cse_stats = cse_filter_set(firs)

    table_entries = [
        TableEntry(order=(e.rank,), handle=(e, fir), program=e.program)
        for e, fir in zip(entries, merged)
    ]
    if mode is ShortCircuitMode.PUSH_RESULT:
        tree = build_dispatch_tree(table_entries, max_depth=max_depth)
    else:
        tree = DispatchTree(None, {}, None, tuple(table_entries))

    lines: list[str] = []
    counters = {"chain": 0, "dsp": 0, "hoisted": 0}

    def emit_chain(leaf: DispatchTree, ctx: dict[tuple[int, int], int]) -> str:
        name = f"_chain_{counters['chain']}"
        counters["chain"] += 1
        chain_graph = ValueGraph()
        bodies = [
            (entry.handle[0], specialize_filter(entry.handle[1], chain_graph, ctx))
            for entry in leaf.entries
        ]
        lines.append(f"def {name}(packet, _n):")

        # Hoist values shared by two or more bodies.  Only non-faultable
        # nodes qualify, and loads use a never-raising padded form: a
        # body whose length guard would have rejected the packet never
        # reads the (then meaningless, but harmless) hoisted value.
        body_live = [live_nodes(fir) for _, fir in bodies]
        counts: dict[int, int] = {}
        for node_set in body_live:
            for nid in node_set:
                counts[nid] = counts.get(nid, 0) + 1
        hoisted: dict[int, str] = {}

        def hoist_operand(nid: int) -> str:
            if nid in hoisted:
                return hoisted[nid]
            node = chain_graph.node(nid)
            assert node.kind == CONST, "hoisted operands are hoisted or const"
            return str(node.arg0)

        for nid in sorted(n for n, c in counts.items() if c >= 2):
            node = chain_graph.node(nid)
            if node.kind == CONST or chain_graph.faultable(nid):
                continue
            hname = f"_h{nid}"
            if node.kind == LOAD:
                off = 2 * node.arg0
                expression = (
                    f"((packet[{off}] << 8) | packet[{off + 1}]) "
                    f"if _n > {off + 1} else "
                    f"((packet[{off}] << 8) if _n > {off} else 0)"
                )
            else:
                expression = _binop_src(
                    node.kind,
                    hoist_operand(node.arg0),
                    hoist_operand(node.arg1),
                )
            lines.append(f"    {hname} = {expression}")
            hoisted[nid] = hname
            counters["hoisted"] += 1

        has_copy_all = any(e.copy_all for e, _ in bodies)
        if has_copy_all:
            lines.append("    _res = []")
        examined = 0
        for entry, fir in bodies:
            examined += 1
            accept = f"_a{entry.rank}"
            guarded = any(
                chain_graph.faultable(n) for n in live_nodes(fir)
            )
            lines.append(f"    {accept} = False")
            lines.append("    for _ in _ONE:")
            indent = "        "
            if guarded:
                lines.append(f"{indent}try:")
                indent += "    "

            def terminate(expr: str, _accept: str = accept) -> str:
                if expr == "False":
                    return "break"
                return f"{_accept} = {expr}; break"

            emit_ir_body(
                fir, lines.append, indent,
                terminate=terminate,
                length_expr="_n",
                name_prefix=f"t{entry.rank}_",
                prebound=hoisted,
            )
            if guarded:
                lines.append("        except (IndexError, ZeroDivisionError):")
                lines.append("            break")
            lines.append(f"    if {accept}:")
            if entry.copy_all:
                lines.append(f"        _res.append({entry.rank})")
            elif has_copy_all:
                lines.append(f"        _res.append({entry.rank})")
                lines.append(f"        return _res, {examined}")
            else:
                lines.append(f"        return (({entry.rank},), {examined})")
        if has_copy_all:
            lines.append(f"    return _res, {examined}")
        else:
            lines.append(f"    return ((), {examined})")
        return name

    def emit_tree(
        node: DispatchTree, ctx: dict[tuple[int, int], int]
    ) -> str:
        if node.discriminant is None:
            return emit_chain(node, ctx)
        targets = {
            value: emit_tree(subtree, {**ctx, node.discriminant: value})
            for value, subtree in sorted(node.buckets.items())
        }
        fallback = emit_tree(node.fallback, ctx)
        name = f"_dsp_{counters['dsp']}"
        counters["dsp"] += 1
        index, mask = node.discriminant
        offset = 2 * index
        lines.append(f"def {name}(packet, _n):")
        lines.append(f"    if _n > {offset + 1}:")
        lines.append(
            f"        _w = ((packet[{offset}] << 8)"
            f" | packet[{offset + 1}]) & {mask:#x}"
        )
        lines.append(f"    elif _n > {offset}:")
        lines.append(f"        _w = (packet[{offset}] << 8) & {mask:#x}")
        lines.append("    else:")
        # Field entirely outside the packet: every bucketed filter's
        # necessary PUSHWORD would fault, so only fallbacks apply.
        lines.append(f"        return {fallback}(packet, _n)")
        lines.append(f"    _c = {name}_MAP.get(_w)")
        lines.append("    if _c is None:")
        lines.append(f"        return {fallback}(packet, _n)")
        lines.append("    return _c(packet, _n)")
        mapping = ", ".join(
            f"{value:#x}: {fn}" for value, fn in sorted(targets.items())
        )
        lines.append(f"{name}_MAP = {{{mapping}}}")
        return name

    root = emit_tree(tree, {})
    lines.append("def _classify(packet):")
    lines.append(f"    return {root}(packet, len(packet))")

    source = "\n".join(lines) + "\n"
    namespace = {"_get_word": get_word, "_get_byte": get_byte, "_ONE": (0,)}
    exec(compile(source, f"<ir set of {len(entries)}>", "exec"), namespace)
    stats = IRStats(
        filters=len(entries),
        nodes_before_cse=cse_stats.nodes_before,
        nodes_after_cse=cse_stats.nodes_after,
        dispatch_depth=tree.depth,
        chains=counters["chain"],
        hoisted=counters["hoisted"],
    )
    compiled = CompiledIRSet(
        source=source,
        size=len(entries),
        discriminant=tree.discriminant,
        stats=stats,
        _function=namespace["_classify"],
    )
    if len(_IR_MEMO) >= _IR_MEMO_MAX:
        _IR_MEMO.pop(next(iter(_IR_MEMO)))
    _IR_MEMO[memo_key] = compiled
    return compiled
