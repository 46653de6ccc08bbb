"""Footprints, schedules, the removal operator and prefix classification."""
import math
import random

import pytest

from ringsweep.ring_model import (
    INF,
    EdgeClass,
    EdgeRemovalSpec,
    EventualMissingSchedule,
    EvolvingRing,
    Footprint,
    RecurrentRandomSchedule,
    RemovalSchedule,
    StaticSchedule,
    classify_prefix,
    forced_missing_edge,
    remove,
    static_ring,
)

GOLDEN_RECURRENT_N5_P05_B8_SEED11 = [8, 11, 8, 29, 29, 20, 26, 11, 25, 18, 20, 16, 8, 19, 21, 4]


def test_footprint_validation_and_edges():
    with pytest.raises(ValueError):
        Footprint(2)
    fp = Footprint(5)
    assert fp.edge_endpoints(4) == (4, 0)
    assert fp.cw_edge(3) == 3
    assert fp.ccw_edge(0) == 4
    assert fp.full_mask == 0b11111


def test_static_edges_at():
    ring = static_ring(4)
    assert ring.edges_at(17) == frozenset({0, 1, 2, 3})


def test_removal_operator_examples():
    ring = static_ring(4)
    spec = EdgeRemovalSpec.of([(2, 5, INF)])
    removed = remove(ring, spec)
    assert removed.edges_at(4) == frozenset({0, 1, 2, 3})
    assert removed.edges_at(5) == frozenset({0, 1, 3})
    assert removed.edges_at(10_000) == frozenset({0, 1, 3})


def test_removal_empty_spec_is_identity():
    ring = static_ring(4)
    removed = remove(ring, EdgeRemovalSpec.of([]))
    for t in range(20):
        assert removed.edges_at(t) == ring.edges_at(t)


def test_removal_permanent_from_zero():
    ring = remove(static_ring(4), EdgeRemovalSpec.of([(0, 0, INF)]))
    assert ring.edges_at(100) == frozenset({1, 2, 3})


def test_removal_twice_disjoint_equals_union():
    base = static_ring(5)
    a = EdgeRemovalSpec.of([(0, 2, 4), (3, 0, 1)])
    b = EdgeRemovalSpec.of([(1, 7, INF)])
    twice = remove(remove(base, a), b)
    once = remove(base, a.union(b))
    for t in range(30):
        assert twice.edges_at(t) == once.edges_at(t)


def test_removal_unknown_edge_rejected():
    with pytest.raises(ValueError, match="unknown edge"):
        remove(static_ring(4), EdgeRemovalSpec.of([(7, 0, INF)]))


def test_removal_result_is_subset():
    rng = random.Random(2)
    base = EvolvingRing(Footprint(6), RecurrentRandomSchedule(6, 0.6, 5, 77))
    spec = EdgeRemovalSpec.of(
        [(rng.randrange(6), rng.randrange(40), rng.randrange(40, 90)) for _ in range(4)]
    )
    removed = remove(base, spec)
    for t in range(100):
        assert removed.edges_at(t) <= base.edges_at(t)


def test_recurrent_p1_is_static():
    sched = RecurrentRandomSchedule(5, 1.0, 8, 3)
    assert sched.masks(50) == [0b11111] * 50


def test_recurrent_p0_pure_patching():
    # Presence forced exactly once per disjoint 3-window: rounds 2, 5, 8, ...
    sched = RecurrentRandomSchedule(5, 0.0, 3, 3)
    masks = sched.masks(12)
    for t, mask in enumerate(masks):
        expected = 0b11111 if (t + 1) % 3 == 0 else 0
        assert mask == expected


def test_recurrent_golden_prefix():
    sched = RecurrentRandomSchedule(5, 0.5, 8, 11)
    assert sched.masks(16) == GOLDEN_RECURRENT_N5_P05_B8_SEED11


def test_recurrent_reproducible_and_query_order_independent():
    bulk = RecurrentRandomSchedule(7, 0.4, 6, 123).masks(5000)
    incremental = RecurrentRandomSchedule(7, 0.4, 6, 123)
    got = [incremental.mask_at(t) for t in range(5000)]
    assert got == bulk


def test_mask_at_reads_rounds_in_logarithmically_many_masks_calls():
    rounds = 20_000
    bulk = EventualMissingSchedule(RecurrentRandomSchedule(6, 0.5, 8, 1), 2, 100).masks(rounds)
    sched = EventualMissingSchedule(RecurrentRandomSchedule(6, 0.5, 8, 1), 2, 100)
    horizons = []
    masks = sched.masks

    def spy(horizon):
        horizons.append(horizon)
        return masks(horizon)

    sched.masks = spy
    assert [sched.mask_at(t) for t in range(rounds)] == bulk
    assert len(horizons) <= math.ceil(math.log2(rounds)) + 2, horizons
    with pytest.raises(ValueError, match=">= 0"):
        sched.mask_at(-1)


@pytest.mark.parametrize("p,bound,seed", [(0.5, 8, 11), (0.1, 4, 9), (0.0, 6, 1)])
def test_recurrent_bound_witnessed_by_scan(p, bound, seed):
    n = 6
    masks = RecurrentRandomSchedule(n, p, bound, seed).masks(4000)
    for e in range(n):
        run = 0
        for mask in masks:
            if mask >> e & 1:
                run = 0
            else:
                run += 1
                assert run < bound


def test_eventual_missing_forces_absence():
    inner = RecurrentRandomSchedule(5, 0.5, 8, 2)
    sched = EventualMissingSchedule(inner, 2, cutoff=10)
    for t in range(10):
        assert sched.mask_at(t) == inner.mask_at(t)
    for t in range(10, 200):
        assert not sched.mask_at(t) >> 2 & 1


def test_eventual_missing_from_round_zero():
    sched = EventualMissingSchedule(StaticSchedule(4), 0, cutoff=0)
    assert sched.mask_at(0) == 0b1110


def test_second_forced_missing_edge_rejected():
    inner = EventualMissingSchedule(StaticSchedule(5), 1, cutoff=0)
    with pytest.raises(ValueError, match="at most one"):
        EventualMissingSchedule(inner, 3, cutoff=5)
    # Re-declaring the same edge is harmless.
    EventualMissingSchedule(inner, 1, cutoff=5)
    # The rule holds on the whole chain, removals included.
    for chain in (
        RemovalSchedule(inner, EdgeRemovalSpec.of([(3, 0, INF)])),
        RemovalSchedule(StaticSchedule(5), EdgeRemovalSpec.of([(0, 0, INF), (2, 0, INF)])),
    ):
        with pytest.raises(ValueError, match="at most one"):
            forced_missing_edge(chain)
    assert forced_missing_edge(RemovalSchedule(inner, EdgeRemovalSpec.of([(1, 4, INF)]))) == 1


def test_classify_static():
    report = classify_prefix(static_ring(4), 100, 8)
    assert report.verdict is EdgeClass.STATIC
    assert report.static_edges == {0, 1, 2, 3}
    assert report.provisional


def test_classify_eventual_missing_candidate():
    removed = remove(static_ring(4), EdgeRemovalSpec.of([(2, 10, INF)]))
    recurrent_inner = EvolvingRing(
        Footprint(5), EventualMissingSchedule(RecurrentRandomSchedule(5, 0.5, 8, 9), 2, cutoff=0)
    )
    for ring, horizon, candidates in ((removed, 100, {2: 10}), (recurrent_inner, 500, {2: 0})):
        report = classify_prefix(ring, horizon, 8)
        assert report.verdict is EdgeClass.CONNECTED_OVER_TIME
        assert report.missing_candidates == candidates


def test_classify_recurrent_with_witness():
    ring = EvolvingRing(Footprint(5), RecurrentRandomSchedule(5, 0.5, 8, 11))
    report = classify_prefix(ring, 2000, 8)
    assert report.verdict is EdgeClass.EDGE_RECURRENT
    assert report.recurrent_edges == {0, 1, 2, 3, 4}
    assert not report.static_edges


def test_classify_two_missing_edges_breaks_ring_class():
    ring = remove(static_ring(5), EdgeRemovalSpec.of([(0, 5, INF), (2, 5, INF)]))
    report = classify_prefix(ring, 200, 8)
    assert report.verdict is None
    assert set(report.missing_candidates) == {0, 2}


def test_class_containment_on_static_prefix():
    # Static witnesses also satisfy the weaker class conditions.
    report = classify_prefix(static_ring(4), 64, 8)
    assert report.static_edges <= report.recurrent_edges
    assert not report.missing_candidates


def test_classify_validates_horizon():
    with pytest.raises(ValueError):
        classify_prefix(static_ring(4), 4, 8)
