"""Schedules, the removal operator and prefix classification."""
import random

import pytest

from ringsweep.ring_model import (
    INF,
    EdgeClass,
    EventualMissingSchedule,
    RecurrentRandomSchedule,
    RemovalSchedule,
    Schedule,
    StaticSchedule,
    classify_prefix,
    forced_missing_edge,
)

GOLDEN_RECURRENT_N5_P05_B8_SEED11 = [8, 11, 8, 29, 29, 20, 26, 11, 25, 18, 20, 16, 8, 19, 21, 4]


def edges_at(schedule: Schedule, t: int) -> frozenset[int]:
    """The edges present in round t: the set bits of `masks(t + 1)[t]`."""
    mask = schedule.masks(t + 1)[t]
    return frozenset(e for e in range(schedule.n) if mask >> e & 1)


def test_static_edges_at():
    assert edges_at(StaticSchedule(4), 17) == frozenset({0, 1, 2, 3})


def test_removal_operator_examples():
    removed = RemovalSchedule(StaticSchedule(4), [(2, 5, INF)])
    assert edges_at(removed, 4) == frozenset({0, 1, 2, 3})
    assert edges_at(removed, 5) == frozenset({0, 1, 3})
    assert edges_at(removed, 10_000) == frozenset({0, 1, 3})


def test_removal_empty_spec_is_identity():
    ring = StaticSchedule(4)
    removed = RemovalSchedule(ring, [])
    for t in range(20):
        assert edges_at(removed, t) == edges_at(ring, t)


def test_removal_permanent_from_zero():
    ring = RemovalSchedule(StaticSchedule(4), [(0, 0, INF)])
    assert edges_at(ring, 100) == frozenset({1, 2, 3})


def test_removal_twice_disjoint_equals_union():
    base = StaticSchedule(5)
    a = [(0, 2, 4), (3, 0, 1)]
    b = [(1, 7, INF)]
    twice = RemovalSchedule(RemovalSchedule(base, a), b)
    once = RemovalSchedule(base, a + b)
    for t in range(30):
        assert edges_at(twice, t) == edges_at(once, t)


def test_removal_unknown_edge_rejected():
    # Rejected when the schedule is built, not later in `masks`.
    for edge in (7, -1, 4, 1.0):
        with pytest.raises(ValueError, match="unknown edge"):
            RemovalSchedule(StaticSchedule(4), [(edge, 0, INF)])
    for removal in ((0, -1, 5), (0, 6, 5)):
        with pytest.raises(ValueError, match="removal"):
            RemovalSchedule(StaticSchedule(4), [removal])


def test_removal_result_is_subset():
    rng = random.Random(2)
    base = RecurrentRandomSchedule(6, 0.6, 5, 77)
    spec = [(rng.randrange(6), rng.randrange(40), rng.randrange(40, 90)) for _ in range(4)]
    removed = RemovalSchedule(base, spec)
    for t in range(100):
        assert edges_at(removed, t) <= edges_at(base, t)


def removed_reference(inner_masks: list[int], removals) -> list[int]:
    """Round by round: clear every edge whose removal interval covers t."""
    out = []
    for t, mask in enumerate(inner_masks):
        for edge, start, end in removals:
            if start <= t <= end:
                mask &= ~(1 << edge)
        out.append(mask)
    return out


def test_removal_masks_match_round_by_round_reference():
    # Overlapping intervals, INF and float ends, starts and ends past the
    # horizon, and chains of removals over a recurrent schedule.
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randrange(3, 8)
        horizon = rng.randrange(1, 120)
        inner = RecurrentRandomSchedule(n, rng.random(), rng.randrange(1, 9), rng.randrange(99))
        inner_masks = inner.masks(horizon)
        expected = list(inner_masks)
        sched: Schedule = inner
        for _ in range(rng.randrange(1, 4)):
            removals = []
            for _ in range(rng.randrange(0, 5)):
                start = rng.randrange(horizon + 20)
                end = rng.choice([INF, float(start + rng.randrange(30)), start + rng.randrange(30)])
                removals.append((rng.randrange(n), start, end))
            sched = RemovalSchedule(sched, removals)
            expected = removed_reference(expected, removals)
            assert sched.removals == tuple(removals)
            assert sched.describe()["removals"] == [
                [e, s, "inf" if x == INF else x] for e, s, x in removals
            ]
        assert sched.masks(horizon) == expected
        # Removals clear a new list, never the inner schedule's own rounds.
        assert inner.masks(horizon) == inner_masks


class EventualMissingReference(Schedule):
    """The eventual-missing schedule as it was before it became a removal:
    its own `masks` and `describe`."""

    def __init__(self, inner: Schedule, missing_edge: int, cutoff: int):
        self.n = inner.n
        self.inner = inner
        self.missing_edge = missing_edge
        self.cutoff = cutoff
        self._clear = ~(1 << missing_edge)

    def masks(self, horizon: int) -> list[int]:
        out = self.inner.masks(horizon)
        return [m & self._clear if t >= self.cutoff else m for t, m in enumerate(out)]

    def describe(self) -> dict:
        d = self.inner.describe()
        d.update(
            {"kind": "eventual_missing", "missing_edge": self.missing_edge, "cutoff": self.cutoff}
        )
        return d


def test_eventual_missing_matches_reference():
    rng = random.Random(7)
    for _ in range(40):
        n, p, bound = rng.randrange(3, 9), rng.random(), rng.randrange(1, 9)
        seed = rng.randrange(99)
        edge, cutoff = rng.randrange(n), rng.randrange(60)
        horizon = rng.randrange(1, 100)
        got = EventualMissingSchedule(RecurrentRandomSchedule(n, p, bound, seed), edge, cutoff)
        ref = EventualMissingReference(RecurrentRandomSchedule(n, p, bound, seed), edge, cutoff)
        assert got.masks(horizon) == ref.masks(horizon)
        assert got.describe() == ref.describe()
        assert (got.inner.describe(), got.missing_edge, got.cutoff) == (
            ref.inner.describe(), edge, cutoff,
        )
        assert forced_missing_edge(got) == edge


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
    # Growing horizons, across the materialization blocks' boundaries.
    for horizon in (1, 2, 3, 100, 2047, 2048, 2049, 3000, 4095, 4097, 5000):
        assert incremental.masks(horizon) == bulk[:horizon]


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
    masks, inner_masks = sched.masks(200), inner.masks(200)
    for t in range(10):
        assert masks[t] == inner_masks[t]
    for t in range(10, 200):
        assert not masks[t] >> 2 & 1


def test_eventual_missing_from_round_zero():
    sched = EventualMissingSchedule(StaticSchedule(4), 0, cutoff=0)
    assert sched.masks(1) == [0b1110]


def test_second_forced_missing_edge_rejected():
    inner = EventualMissingSchedule(StaticSchedule(5), 1, cutoff=0)
    with pytest.raises(ValueError, match="at most one"):
        EventualMissingSchedule(inner, 3, cutoff=5)
    # Re-declaring the same edge is harmless.
    EventualMissingSchedule(inner, 1, cutoff=5)
    # The rule holds on the whole chain, removals included.
    for chain in (
        RemovalSchedule(inner, [(3, 0, INF)]),
        RemovalSchedule(StaticSchedule(5), [(0, 0, INF), (2, 0, INF)]),
    ):
        with pytest.raises(ValueError, match="at most one"):
            forced_missing_edge(chain)
    assert forced_missing_edge(RemovalSchedule(inner, [(1, 4, INF)])) == 1


def test_classify_static():
    report = classify_prefix(StaticSchedule(4), 100, 8)
    assert report.verdict is EdgeClass.STATIC
    assert report.static_edges == {0, 1, 2, 3}
    assert report.provisional


def test_classify_eventual_missing_candidate():
    removed = RemovalSchedule(StaticSchedule(4), [(2, 10, INF)])
    recurrent_inner = EventualMissingSchedule(RecurrentRandomSchedule(5, 0.5, 8, 9), 2, cutoff=0)
    for ring, horizon, candidates in ((removed, 100, {2: 10}), (recurrent_inner, 500, {2: 0})):
        report = classify_prefix(ring, horizon, 8)
        assert report.verdict is EdgeClass.CONNECTED_OVER_TIME
        assert report.missing_candidates == candidates


def test_classify_recurrent_with_witness():
    ring = RecurrentRandomSchedule(5, 0.5, 8, 11)
    report = classify_prefix(ring, 2000, 8)
    assert report.verdict is EdgeClass.EDGE_RECURRENT
    assert report.recurrent_edges == {0, 1, 2, 3, 4}
    assert not report.static_edges


def test_classify_two_missing_edges_breaks_ring_class():
    ring = RemovalSchedule(StaticSchedule(5), [(0, 5, INF), (2, 5, INF)])
    report = classify_prefix(ring, 200, 8)
    assert report.verdict is None
    assert set(report.missing_candidates) == {0, 2}


def test_class_containment_on_static_prefix():
    # Static witnesses also satisfy the weaker class conditions.
    report = classify_prefix(StaticSchedule(4), 64, 8)
    assert report.static_edges <= report.recurrent_edges
    assert not report.missing_candidates


def test_classify_validates_horizon():
    with pytest.raises(ValueError):
        classify_prefix(StaticSchedule(4), 4, 8)
