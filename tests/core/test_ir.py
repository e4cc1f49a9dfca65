"""The filter compiler middle-end: IR construction and every pass.

The hypothesis engine-equivalence suite (test_demux_properties) pins
whole-pipeline semantics; these tests pin each pass's *mechanism* —
what CSE merges, what the dispatch tree may and may not reorder, what
DCE must never delete — so a pass regression fails here by name
instead of as a distant counterexample.
"""

import pytest

from repro.core.compiler import compile_expr, word
from repro.core.demux import Engine, PacketFilterDemux
from repro.core.interpreter import LanguageLevel, ShortCircuitMode, evaluate
from repro.core.ir import (
    LOAD,
    Anchor,
    Bound,
    ExitIf,
    ValueGraph,
    lower_program,
)
from repro.core.irgen import FusedEntry, compile_ir_set
from repro.core.opt import (
    build_dispatch_tree,
    cse_filter_set,
    live_nodes,
    optimize_filter,
    specialize_filter,
    transfer_filter,
)
from repro.core.decision import TableEntry
from repro.core.port import Port
from repro.core.program import FilterProgram, asm
from repro.core.validator import validate
from repro.core.words import pack_words


def lower(program, mode=ShortCircuitMode.PUSH_RESULT, graph=None):
    return lower_program(program, validate(program, mode=mode), mode, graph=graph)


def entry(rank, program, *, copy_all=False):
    return FusedEntry(
        rank=rank,
        program=program,
        report=validate(program),
        copy_all=copy_all,
    )


# ---------------------------------------------------------------------------
# The value graph: hash-consing, folding, identities
# ---------------------------------------------------------------------------


class TestValueGraph:
    def test_hash_consing_dedupes(self):
        g = ValueGraph()
        assert g.load(6) == g.load(6)
        assert g.const(7) == g.const(7)
        a = g.binop("eq", g.load(6), g.const(7))
        b = g.binop("eq", g.load(6), g.const(7))
        assert a == b

    def test_commutative_canonicalization(self):
        g = ValueGraph()
        x, y = g.load(3), g.load(9)
        assert g.binop("add", x, y) == g.binop("add", y, x)
        assert g.binop("eq", x, y) == g.binop("eq", y, x)
        # Non-commutative kinds keep operand order distinct.
        assert g.binop("sub", x, y) != g.binop("sub", y, x)

    def test_constant_folding(self):
        g = ValueGraph()
        nid = g.binop("add", g.const(0xFFFF), g.const(2))
        assert g.const_value(nid) == 1  # 16-bit wrap

    def test_div_by_const_zero_never_folds(self):
        g = ValueGraph()
        nid = g.binop("div", g.const(4), g.const(0))
        # Must stay a (faultable) div node: the fault rejects the packet.
        assert g.node(nid).kind == "div"
        assert g.faultable(nid)

    def test_identities(self):
        g = ValueGraph()
        x = g.load(5)
        assert g.binop("and", x, g.const(0xFFFF)) == x
        assert g.binop("or", x, g.const(0)) == x
        assert g.binop("xor", x, g.const(0)) == x
        assert g.binop("mul", x, g.const(1)) == x
        assert g.const_value(g.binop("eq", x, x)) == 1
        assert g.const_value(g.binop("lt", x, x)) == 0

    def test_faultable_compare_with_self_not_folded(self):
        g = ValueGraph()
        ind = g.indirect("indw", g.load(2))
        nid = g.binop("eq", ind, ind)
        assert g.const_value(nid) is None


# ---------------------------------------------------------------------------
# Lowering: bounds, anchors, side exits
# ---------------------------------------------------------------------------


class TestLowering:
    def test_bound_matches_deepest_word(self):
        fir = lower(compile_expr(word(6) == 0x0900))
        bounds = [s for s in fir.steps if isinstance(s, Bound)]
        assert bounds and max(b.min_bytes for b in bounds) == 13

    def test_constant_exit_truncates_lowering(self):
        # PUSHONE PUSHONE COR: 1 == 1 is a compile-time fact, so the
        # short-circuit accept is unconditional and the deep word-9
        # access behind it is dead — no bound for it may survive.
        program = FilterProgram(
            asm("PUSHONE", ("PUSHONE", "COR"),
                ("PUSHWORD", 9), ("PUSHZERO", "EQ"))
        )
        fir = lower(program)
        assert fir.graph.const_value(fir.result) == 1
        assert not any(
            isinstance(s, Bound) and s.min_bytes > 1 for s in fir.steps
        )

    def test_anchor_pins_division(self):
        program = FilterProgram(
            asm(("PUSHWORD", 0), ("PUSHWORD", 1, "DIV"),
                ("PUSHZERO", "GT"))
        )
        fir = lower_program(
            program, validate(program, level=LanguageLevel.EXTENDED)
        )
        anchors = [s for s in fir.steps if isinstance(s, Anchor)]
        assert len(anchors) == 1
        assert fir.graph.node(anchors[0].node).kind == "div"

    def test_short_circuit_becomes_exit(self):
        fir = lower(compile_expr((word(0) == 1) & (word(1) == 2)))
        exits = [s for s in fir.steps if isinstance(s, ExitIf)]
        assert exits, "CAND must lower to a side exit"


# ---------------------------------------------------------------------------
# Transfer passes: DCE, folding, CSE, specialization
# ---------------------------------------------------------------------------


class TestPasses:
    def test_cse_merges_loads_across_filters(self):
        firs = [
            lower(compile_expr((word(6) == 0x0900) & (word(7) == i)))
            for i in range(8)
        ]
        merged, stats = cse_filter_set(firs)
        assert stats.nodes_after < stats.nodes_before
        # Every merged filter shares the single word-6 load node.
        shared = merged[0].graph
        load6 = shared.load(6)
        for fir in merged:
            assert fir.graph is shared
            assert load6 in live_nodes(fir)

    def test_dce_drops_unused_nodes(self):
        g = ValueGraph()
        program = compile_expr(word(2) == 5)
        fir = lower(program, graph=g)
        g.binop("mul", g.load(11), g.load(12))  # dead: never referenced
        out = optimize_filter(fir)
        kinds = {out.graph.node(n).kind for n in live_nodes(out)}
        assert "mul" not in kinds
        assert len(out.graph) <= len(live_nodes(fir))

    def test_dce_never_removes_side_exit_predicates(self):
        program = compile_expr((word(0) == 1) & (word(1) == 2))
        fir = optimize_filter(lower(program))
        exits = [s for s in fir.steps if isinstance(s, ExitIf)]
        assert exits, "optimize_filter must keep the live side exit"
        for step in exits:
            assert step.cond in live_nodes(fir)

    def test_transfer_keeps_bounds_and_anchors(self):
        program = FilterProgram(
            asm(("PUSHWORD", 3), ("PUSHWORD", 1, "DIV"),
                ("PUSHZERO", "GE"))
        )
        fir = lower_program(
            program, validate(program, level=LanguageLevel.EXTENDED)
        )
        out = transfer_filter(fir, ValueGraph())
        assert any(isinstance(s, Bound) for s in out.steps)
        assert any(isinstance(s, Anchor) for s in out.steps)

    def test_specialize_rewrites_known_word(self):
        fir = lower(compile_expr((word(6) == 0x0900) & (word(7) == 3)))
        g = ValueGraph()
        out = specialize_filter(fir, g, {(6, 0xFFFF): 0x0900})
        kinds = {
            (g.node(n).kind, g.node(n).arg0) for n in live_nodes(out)
        }
        assert (LOAD, 6) not in kinds
        assert (LOAD, 7) in kinds

    def test_specialize_ignores_masked_facts(self):
        fir = lower(compile_expr(word(6) == 0x0900))
        g = ValueGraph()
        out = specialize_filter(fir, g, {(6, 0xFF00): 0x0900})
        kinds = {(g.node(n).kind, g.node(n).arg0) for n in live_nodes(out)}
        assert (LOAD, 6) in kinds

    def test_exit_resolution_truncates_on_always_taken(self):
        # compile_expr emits the word-7 test as the CAND side exit (the
        # word-6 test is the result node), so a bucket where word 7 is
        # provably wrong fires that exit unconditionally: the filter
        # truncates to a constant reject with no residual exit.
        fir = lower(compile_expr((word(6) == 0x0900) & (word(7) == 3)))
        g = ValueGraph()
        out = specialize_filter(fir, g, {(7, 0xFFFF): 9})
        assert g.const_value(out.result) == 0
        assert not any(isinstance(s, ExitIf) for s in out.steps)

    def test_exit_resolution_drops_never_taken(self):
        fir = lower(compile_expr((word(6) == 0x0900) & (word(7) == 3)))
        g = ValueGraph()
        out = specialize_filter(fir, g, {(7, 0xFFFF): 3})
        assert not any(isinstance(s, ExitIf) for s in out.steps)
        assert g.const_value(out.result) is None  # the word-6 test remains


# ---------------------------------------------------------------------------
# The dispatch tree: reordering predicates, never priorities
# ---------------------------------------------------------------------------


def table_entries(programs):
    return [
        TableEntry(order=(i,), handle=i, program=p)
        for i, p in enumerate(programs)
    ]


class TestDispatchTree:
    def test_buckets_on_best_discriminant(self):
        entries = table_entries(
            [
                compile_expr((word(6) == 0x0900) & (word(7) == i))
                for i in range(6)
            ]
        )
        tree = build_dispatch_tree(entries)
        assert tree.discriminant is not None
        word_index, mask = tree.discriminant
        assert word_index == 7 and mask == 0xFFFF
        assert len(tree.buckets) == 6

    def test_leaf_chains_preserve_priority_order(self):
        # Two filters in the same bucket must stay in rank order even
        # though the tree is free to reorder *predicates*.
        entries = table_entries(
            [
                compile_expr((word(7) == 1) & (word(3) == 9)),
                compile_expr(word(7) == 1),
                compile_expr(word(7) == 2),
            ]
        )
        tree = build_dispatch_tree(entries)
        bucket = tree.buckets[1]
        orders = [e.order for e in bucket.entries]
        assert orders == sorted(orders)

    def test_leftovers_reach_every_bucket_and_fallback(self):
        wildcard = compile_expr(word(0) >= 0)  # bucketable nowhere
        entries = table_entries(
            [
                compile_expr(word(7) == 1),
                compile_expr(word(7) == 2),
                wildcard,
            ]
        )
        tree = build_dispatch_tree(entries)
        wild = [e for e in entries if e.program is wildcard][0]
        for bucket in tree.buckets.values():
            assert wild in bucket.entries
        assert tree.fallback is not None
        assert wild in tree.fallback.entries

    def test_depth_respects_max(self):
        entries = table_entries(
            [
                compile_expr((word(6) == i) & (word(7) == j))
                for i in range(3)
                for j in range(3)
            ]
        )
        tree = build_dispatch_tree(entries, max_depth=1)
        assert tree.depth <= 1


# ---------------------------------------------------------------------------
# The compiled set: whole-set classification edge cases
# ---------------------------------------------------------------------------


def build_set(count=8):
    entries = [
        entry(i, compile_expr((word(6) == 0x0900) & (word(7) == i)))
        for i in range(count)
    ]
    return compile_ir_set(entries)


PACKETS = [
    pack_words([0, 0, 0, 0, 0, 0, 0x0900, n % 11]) for n in range(64)
] + [b"", b"\x01", pack_words([0, 0, 0, 0, 0, 0, 0x0800, 1])]


class TestCompiledIRSet:
    def test_stats_report_cse_win(self):
        compiled = build_set()
        stats = compiled.stats
        assert stats.filters == 8
        assert stats.nodes_after_cse < stats.nodes_before_cse
        assert stats.dispatch_depth >= 1

    def test_classification_agrees_with_interpreter(self):
        programs = [
            compile_expr((word(6) == 0x0900) & (word(7) == i))
            for i in range(8)
        ]
        compiled = compile_ir_set(
            [entry(i, p) for i, p in enumerate(programs)]
        )
        for packet in PACKETS:
            ranks, _ = compiled.classify(packet)
            expected = tuple(
                i
                for i, p in enumerate(programs)
                if evaluate(p, packet, checked=True)
            )
            assert ranks == expected


def compile_exprs(*exprs, copy_all=(), mode=ShortCircuitMode.PUSH_RESULT):
    return compile_ir_set(
        [
            entry(rank, compile_expr(expr), copy_all=rank in copy_all)
            for rank, expr in enumerate(exprs)
        ],
        mode=mode,
    )


ETHERTYPE = [0, 0, 0, 0, 0, 0]  #: words 0-5; word 6 is the Ethernet type


class TestWholeSet:
    """What the generated dispatch function must do at the edges."""

    def test_empty_set(self):
        assert compile_ir_set([]).classify(pack_words([1, 2, 3])) == ((), 0)

    def test_dispatches_on_shared_field(self):
        compiled = compile_exprs(
            word(6) == 0x0900, word(6) == 0x0901, word(6) == 0x0902
        )
        assert compiled.discriminant == (6, 0xFFFF)
        ranks, predicates = compiled.classify(pack_words(ETHERTYPE + [0x0901, 0]))
        assert tuple(ranks) == (1,)
        # Dispatch went straight to filter 1's bucket: one body entered.
        assert predicates == 1

    def test_miss_value_reaches_no_filter(self):
        compiled = compile_exprs(word(6) == 0x0900, word(6) == 0x0901)
        packet = pack_words(ETHERTYPE + [0x7777, 0])
        assert compiled.classify(packet) == ((), 0)  # no chain for that value

    def test_single_shared_value_still_dispatches(self):
        # Both filters need word 6 == 0x0900: the map has one chain,
        # but every other ethertype resolves with zero bodies entered.
        compiled = compile_exprs(word(6) == 0x0900, word(6) == 0x0900)
        assert compiled.discriminant == (6, 0xFFFF)
        assert compiled.classify(pack_words(ETHERTYPE + [0x0800, 0])) == ((), 0)

    def test_unbucketed_filters_merge_in_rank_order(self):
        compiled = compile_exprs(
            word(6) == 0x0900,
            word(0) < 5,           # inequality: no necessary value
        )
        ranks, _ = compiled.classify(pack_words([1, 0, 0, 0, 0, 0, 0x0900, 0]))
        assert tuple(ranks) == (0,)       # rank 0 wins, first-match
        ranks, _ = compiled.classify(pack_words([1, 0, 0, 0, 0, 0, 0x0500, 0]))
        assert tuple(ranks) == (1,)       # the unbucketed filter catches it

    def test_copy_all_continues_past_accept(self):
        compiled = compile_exprs(
            word(6) == 0x0900, word(6) == 0x0900, word(6) == 0x0900,
            copy_all={0},
        )
        ranks, predicates = compiled.classify(pack_words(ETHERTYPE + [0x0900, 0]))
        assert tuple(ranks) == (0, 1)     # copy-all then first non-copy-all
        assert predicates == 2

    def test_short_packet_takes_fallback_path(self):
        compiled = compile_exprs(word(6) == 0x0900, word(6) == 0x0901)
        assert compiled.discriminant is not None
        # Word 6 is entirely beyond a 4-byte packet: both filters would
        # fault their necessary PUSHWORD, so nothing matches.
        ranks, _ = compiled.classify(b"\x01\x02\x03\x04")
        assert tuple(ranks) == ()

    def test_odd_tail_byte_is_zero_padded(self):
        compiled = compile_exprs(word(6) == 0x0900, word(6) == 0x0A00)
        packet = pack_words(ETHERTYPE)[:12] + b"\x0a"  # 13 bytes
        ranks, _ = compiled.classify(packet)
        assert tuple(ranks) == (1,)       # word 6 reads as 0x0A00

    def test_no_push_mode_compiles_one_chain(self):
        compiled = compile_exprs(
            word(6) == 0x0900, word(6) == 0x0901,
            mode=ShortCircuitMode.NO_PUSH,
        )
        assert compiled.discriminant is None
        assert compiled.stats.chains == 1
        packet = pack_words(ETHERTYPE + [0x0901, 0])
        assert tuple(compiled.classify(packet)[0]) == (1,)

    def test_source_is_kept_for_inspection(self):
        compiled = compile_exprs(word(6) == 0x0900, word(6) == 0x0901)
        assert "_dsp_0_MAP" in compiled.source
        assert "def _classify(packet):" in compiled.source


# ---------------------------------------------------------------------------
# Engine.IR end to end through the demultiplexer
# ---------------------------------------------------------------------------


class TestIREngineEndToEnd:
    def test_predicate_accounting_feeds_mean(self):
        demux = PacketFilterDemux(engine=Engine.IR)
        for index, value in enumerate((0x0900, 0x0901, 0x0902)):
            port = Port(index, queue_limit=100)
            port.bind_filter(compile_expr(word(6) == value))
            demux.attach(port)
        report = demux.deliver(pack_words(ETHERTYPE + [0x0902, 0]))
        assert report.predicates_tested == 1   # dispatch skipped the rest
        assert demux.mean_predicates_tested == 1.0

    def test_cache_hit_reports_zero_work(self):
        demux = PacketFilterDemux(engine=Engine.IR, flow_cache=True)
        port = Port(0, queue_limit=100)
        port.bind_filter(compile_expr(word(6) == 0x0900))
        demux.attach(port)
        packet = pack_words(ETHERTYPE + [0x0900, 0])
        cold = demux.deliver(packet)
        hot = demux.deliver(packet)
        assert cold.predicates_tested == 1
        assert hot.predicates_tested == 0
        assert hot.instructions_executed == 0
        assert hot.accepted_by == (0,)

    def test_deliver_batch_matches_loop(self):
        specs = [(0x0900, False), (0x0901, True), (0x0901, False)]
        packets = [
            pack_words(ETHERTYPE + [value, n])
            for n, value in enumerate((0x0900, 0x0901, 0x7777, 0x0901))
        ]

        def fresh():
            demux = PacketFilterDemux(engine=Engine.IR)
            for index, (value, copy_all) in enumerate(specs):
                port = Port(index, queue_limit=100)
                port.copy_all = copy_all
                port.bind_filter(compile_expr(word(6) == value))
                demux.attach(port)
            return demux

        batched = fresh().deliver_batch(packets)
        looped = [fresh().deliver(packet) for packet in packets]
        assert [r.accepted_by for r in batched] == [
            r.accepted_by for r in looped
        ]


# ---------------------------------------------------------------------------
# Engine.IR under binding churn
# ---------------------------------------------------------------------------


class TestEngineChurn:
    def make(self, **kw):
        demux = PacketFilterDemux(engine=Engine.IR, **kw)
        ports = []
        for i in range(6):
            port = Port(i, queue_limit=64)
            port.bind_filter(
                compile_expr((word(6) == 0x0900) & (word(7) == i))
            )
            demux.attach(port)
            ports.append(port)
        return demux, ports

    def test_attach_detach_recompiles(self):
        demux, ports = self.make()
        packet = pack_words([0, 0, 0, 0, 0, 0, 0x0900, 2])
        assert demux.deliver(packet).accepted_by == (2,)
        demux.detach(ports[2])
        assert demux.deliver(packet).accepted_by == ()
        demux.attach(ports[2])
        assert demux.deliver(packet).accepted_by == (ports[2].port_id,)

    def test_copy_all_invalidation(self):
        # Two ports match the same traffic; first-match delivery stops
        # at the winner until it opts into copy-all, and the flip must
        # recompile the baked-in dispatch function.
        demux = PacketFilterDemux(engine=Engine.IR)
        ports = []
        for i in range(2):
            port = Port(i, queue_limit=64)
            port.bind_filter(compile_expr(word(6) == 0x0900))
            demux.attach(port)
            ports.append(port)
        packet = pack_words([0, 0, 0, 0, 0, 0, 0x0900, 1])
        assert demux.deliver(packet).accepted_by == (0,)
        ports[0].copy_all = True
        demux.invalidate()
        assert set(demux.deliver(packet).accepted_by) == {0, 1}

    def test_flow_cache_batch_hits(self):
        demux, _ = self.make(flow_cache=True)
        packets = [
            pack_words([0, 0, 0, 0, 0, 0, 0x0900, n % 6]) for n in range(32)
        ]
        reports = demux.deliver_batch(packets)
        assert [r.accepted_by for r in reports] == [
            (n % 6,) for n in range(32)
        ]
        # A second identical burst is all hits.
        before = demux.flow_cache.hits
        demux.deliver_batch(packets)
        assert demux.flow_cache.hits >= before + len(packets)

    def test_ir_stats_exposed(self):
        demux, _ = self.make()
        stats = demux.ir_stats
        assert stats is not None and stats.filters == 6
        scan = PacketFilterDemux(engine=Engine.COMPILED)
        assert scan.ir_stats is None


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
