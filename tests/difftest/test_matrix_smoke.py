"""Tier-1 smoke coverage of the differential matrix.

Small enough to ride in every test run, but it exercises every axis the
firewall-scale ``-m difftest`` sweep does: all thirty-two configurations,
live attach/detach churn, copy-all flips, queue drains, buffer-pool
exhaustion, same-priority reordering, and the adversarial rule-set
family the dispatch tree cannot split.
"""

from __future__ import annotations

from repro.core.compiler import compile_expr, word
from repro.core.decision import necessary_equalities
from repro.core.words import pack_words
from repro.difftest import (
    full_matrix,
    packets_only,
    run_matrix,
    churn_stream,
    with_drains,
)
from ruleset_gen import (
    generate_adversarial_ruleset,
    generate_prefix_ruleset,
    generate_ruleset,
    traffic_for,
)


def test_full_matrix_smoke_with_churn():
    programs, tuples = generate_ruleset(12, seed=0)
    packets = traffic_for(tuples, count=72, seed=1)
    stream = churn_stream(
        packets, 12, seed=2, churn_every=9, copyall_every=13, drain_every=25
    )
    report = run_matrix(programs, stream, full_matrix())
    assert report.ok, report.summary()
    assert len(report.results) == 32
    cached = [r.cache_stats for r in report.results if r.cache_stats]
    assert cached and all(stats == cached[0] for stats in cached)
    # churn really invalidated the cache mid-stream
    assert cached[0][2] > 1


def test_matrix_smoke_nobuf_pool():
    """A tiny shared buffer pool forces the nobuf outcome; every
    configuration must attribute it to the same packets."""
    programs, tuples = generate_ruleset(6, seed=1)
    packets = traffic_for(tuples, count=60, seed=2)
    report = run_matrix(
        programs,
        with_drains(packets_only(packets), 30),
        full_matrix(),
        queue_limit=16,
        pool_capacity=8,
        port_share=4,
    )
    assert report.ok, report.summary()
    outcomes = report.results[0].outcomes
    assert any(o.nobuf_by for o in outcomes)
    assert any(o.accepted_by for o in outcomes)


def test_matrix_smoke_reorder():
    """Same-priority reordering enabled: every configuration, the IR
    batch ones included, must agree — including the cache
    invalidations the reorders trigger.  ``deliver_batch`` ticks the
    reorder per packet, exactly as the scalar loop does."""
    programs, tuples = generate_ruleset(10, seed=4)
    packets = traffic_for(tuples, count=80, seed=5)
    configs = full_matrix()
    assert any(c.engine.value == "ir" and c.batch for c in configs)
    report = run_matrix(
        programs,
        packets_only(packets),
        configs,
        reorder=True,
        reorder_interval=8,
    )
    assert report.ok, report.summary()


def test_reorder_tick_inside_a_burst():
    """A reorder tick that lands mid-burst must take effect for the
    rest of that burst under every engine, IR batch included.

    Two same-priority filters overlap: the second is busier, so the
    tick after packet 8 moves it first, and every later packet both
    accept must go to it — also when all 32 packets share one
    ``deliver_batch`` call."""
    programs = [
        compile_expr(word(7) == 1),        # bound first, rarely busy
        compile_expr(word(6) == 0x0900),   # busier: wins after the tick
    ]
    only_second = pack_words([0, 0, 0, 0, 0, 0, 0x0900, 2])
    both = pack_words([0, 0, 0, 0, 0, 0, 0x0900, 1])
    report = run_matrix(
        programs,
        packets_only([only_second] * 8 + [both] * 24),
        full_matrix(),
        queue_limit=64,
        reorder=True,
        reorder_interval=8,
        oracle=False,  # the reference loop does not model reordering
    )
    assert report.ok, report.summary()
    assert any(r.config.engine.value == "ir" and r.config.batch
               for r in report.results)
    assert report.results[0].outcomes[-1].accepted_by == (1,)


def test_matrix_smoke_adversarial_and_prefix():
    adv_programs, adv_tuples = generate_adversarial_ruleset(24, seed=1)
    # the whole point of the family: one shared equality discriminant,
    # so the decision table / dispatch tree see a single bucket
    assert len({necessary_equalities(p) for p in adv_programs}) == 1
    packets = traffic_for(adv_tuples, count=72, seed=2)
    report = run_matrix(adv_programs, packets_only(packets), full_matrix())
    assert report.ok, report.summary()

    pre_programs, pre_tuples = generate_prefix_ruleset(32, seed=3, block=8)
    packets = traffic_for(pre_tuples, count=64, seed=4)
    report = run_matrix(pre_programs, packets_only(packets), full_matrix())
    assert report.ok, report.summary()
