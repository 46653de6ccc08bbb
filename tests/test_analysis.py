"""Towers, coverage, coherence, monitors, sentinel report."""
import random
import sys
from bisect import bisect_right
from itertools import accumulate, combinations
from typing import Sequence

import numpy as np
import pytest

from ringsweep import analysis
from ringsweep.analysis import Tower, Violation, _TraceView, _true_runs, _view_of
from ringsweep.directions import Chirality, Direction
from ringsweep.engine import ALGO_PEF2, ALGO_PEF3, Trace, fuzz_initial, run_states
from ringsweep.ring_model import (
    INF,
    EventualMissingSchedule,
    RecurrentRandomSchedule,
    RemovalSchedule,
    StaticSchedule,
)
from ringsweep.robot_core import KNOWN_MUTATIONS, NO_MUTATIONS, RobotState
from ringsweep.words import transformed_length

CW = Chirality.RIGHT_IS_CLOCKWISE
R = Direction.RIGHT
L = Direction.LEFT


def spread_robots(n, ids, rng_seed=1):
    rng = random.Random(rng_seed)
    return fuzz_initial(
        n, ids, rng, overrides={rid: {"pos": (2 * j) % n} for j, rid in enumerate(ids)}
    )


def run_missing_edge(n=6, seed=17, rounds=2500, edge=0, ids=(0, 1, 2)):
    sched = EventualMissingSchedule(RecurrentRandomSchedule(n, 0.5, 8, seed), edge, 0)
    states = fuzz_initial(n, list(ids), random.Random(seed))
    return run_states(
        n, "pef3", states, rounds, schedule=sched, meta_extra={"schedule": sched.describe()}
    )


class TestTowers:
    def test_never_colocated_yields_none(self):
        robots = [
            RobotState.make(0, 0, R, CW),
            RobotState.make(1, 2, R, CW),
            RobotState.make(2, 4, R, CW),
        ]
        trace = run_states(6, "pef3", robots, 40, schedule=StaticSchedule(6))
        assert len(analysis.detect_towers(trace)) == 0

    def test_stacked_without_edges_then_separation_is_short_lived(self):
        # Both edges of node 1 absent for rounds 0..4; at round 5 the
        # clockwise edge appears, one robot crosses, the other is blocked.
        sched = RemovalSchedule(StaticSchedule(4), [(0, 0, 4), (1, 0, 4), (0, 5, INF)])
        robots = [
            RobotState.make(0, 1, R, CW, nrpea=1, hmpea=True),  # points at edge 1
            RobotState.make(1, 1, L, CW, nrpea=1, hmpea=True),  # points at edge 0
        ]
        trace = run_states(4, "pef2", robots, 12, schedule=sched)
        towers = analysis.detect_towers(trace)
        assert len(towers) == 1
        tower = towers[0]
        assert (tower.t_start, tower.t_end) == (0, 5)
        assert tower.long_lived is False
        assert tower.kind() == "short_lived"
        assert [tower.node_at(t) for t in range(6)] == [1] * 6
        with pytest.raises(ValueError, match="outside tower interval"):
            tower.node_at(6)

    def test_co_moving_pair_is_long_lived(self):
        robots = [
            RobotState.make(0, 2, R, CW, nrpea=2, hmpea=True),
            RobotState.make(1, 2, R, CW, nrpea=2, hmpea=True),
        ]
        trace = run_states(5, "pef2", robots, 6, schedule=StaticSchedule(5))
        towers = analysis.detect_towers(trace)
        assert len(towers) == 1
        assert towers[0].long_lived is True
        assert towers[0].open_ended  # still together at the horizon

    def test_pair_subsumed_by_triple_on_identical_interval(self):
        robots = [
            RobotState.make(0, 1, R, CW),
            RobotState.make(1, 1, R, CW),
            RobotState.make(2, 1, R, CW),
        ]
        trace = run_states(5, "pef3", robots, 4, schedule=StaticSchedule(5))
        towers = analysis.detect_towers(trace)
        # All three march together: a single 3-member tower, no pair towers.
        assert len(towers) == 1
        assert towers[0].size == 3

    def test_maximality_brute_force_recheck(self):
        rng = random.Random(5)
        for k in (2, 3, 4):
            seen = set()
            for trial in range(25):
                n = rng.randint(3, 6)
                sched = RecurrentRandomSchedule(n, rng.choice((0.3, 0.5, 0.8)), 6, 100 + trial)
                states = fuzz_initial(n, list(range(k)), rng)
                algo = rng.choice(("pef2", "pef3"))
                trace = run_states(n, algo, states, 120, schedule=sched)
                positions = trace.config_positions()
                towers = analysis.detect_towers(trace)
                cols = {rid: c for c, rid in enumerate(trace.robot_ids)}
                for tower in towers:
                    group = [cols[rid] for rid in tower.member_ids]
                    seg = positions[tower.t_start : tower.t_end + 1, group]
                    assert (seg == seg[:, [0]]).all(), "members not co-located"
                    if tower.t_start > 0:
                        before = positions[tower.t_start - 1, group]
                        assert len(set(before.tolist())) > 1, "interval extensible left"
                    if tower.t_end < trace.rounds:
                        after = positions[tower.t_end + 1, group]
                        assert len(set(after.tolist())) > 1, "interval extensible right"
                    others = [c for c in range(len(cols)) if c not in group]
                    for c in others:
                        joined = positions[tower.t_start : tower.t_end + 1, [group[0], c]]
                        assert not (joined[:, 0] == joined[:, 1]).all(), "member set extensible"
                assert reported(towers) == brute_force_towers(trace)
                seen |= {(t.size, t.kind()) for t in towers}
            # Every tower size and every kind occurs, so the comparison covers them.
            assert {size for size, _ in seen} == set(range(2, k + 1))
            assert {kind for _, kind in seen} == {"long_lived", "short_lived", "undetermined"}
        # Robot 2 leaves the stack one time before 0 and 1 part, so the pair's
        # run [1, 3] is member-maximal only by its last time.
        trace = positions_trace(4, [[0, 1, 0], [0, 0, 0], [0, 0, 0], [0, 0, 1], [1, 2, 1]])
        towers = analysis.detect_towers(trace)
        assert ((0, 1), 1, 3) in [(t.member_ids, t.t_start, t.t_end) for t in towers]
        assert reported(towers) == brute_force_towers(trace)


def reported(towers):
    return sorted(
        (t.member_ids, t.t_start, t.t_end, t.open_ended, t.long_lived, t.first_activation,
         t.nodes.tolist())
        for t in towers
    )


def positions_trace(n, rows):
    """A trace whose configuration positions are `rows`, every edge present
    in every round; its state columns are left blank."""
    cpos = np.array(rows, dtype=np.int16)
    h, k = cpos.shape[0] - 1, cpos.shape[1]
    blank = np.zeros((h, k), dtype=np.int64)
    return Trace(
        meta={"n": n, "algo": "pef3", "robots": [{"id": r} for r in range(k)]},
        edges=np.full(h, (1 << n) - 1, dtype=np.int64),
        pos=cpos[:-1], gdir_cw=blank.astype(bool), idx=blank, nrpea=blank,
        hmpea=blank.astype(bool), moved=blank.astype(bool), final_pos=cpos[-1],
    )


def brute_force_towers(trace):
    """Every maximal tower by direct enumeration, as sorted tuples.

    For every robot subset and every maximal run of configuration times at
    which its members share a node, the run is kept unless a larger subset
    shares a node through all of it.  Its first activation is the first
    round inside the run with an edge at the node, read from the masks.
    """
    pos = trace.config_positions().tolist()
    edges = trace.edges.tolist()
    horizon, n, k = trace.rounds, trace.n, len(pos[0])
    subsets = [cols for size in range(2, k + 1) for cols in combinations(range(k), size)]

    def together(cols, t):
        return len({pos[t][c] for c in cols}) == 1

    found = []
    for cols in subsets:
        times = [t for t in range(horizon + 1) if together(cols, t)]
        runs = []
        for t in times:
            if runs and runs[-1][1] == t - 1:
                runs[-1][1] = t
            else:
                runs.append([t, t])
        for a, b in runs:
            if any(
                set(other) > set(cols) and all(together(other, t) for t in range(a, b + 1))
                for other in subsets
            ):
                continue
            nodes = [pos[t][cols[0]] for t in range(a, b + 1)]
            activated = [
                t for t in range(a, min(b, horizon))
                if edges[t] >> nodes[t - a] & 1 or edges[t] >> (nodes[t - a] - 1) % n & 1
            ]
            first = activated[0] if activated else None
            long_lived = True if first is not None else (None if b == horizon else False)
            ids = tuple(trace.robot_ids[c] for c in cols)
            found.append((ids, a, b, b == horizon, long_lived, first, nodes))
    return sorted(found)


# -- Reference: towers as a list of `Tower` objects, one monitor pass per tower.
# The implementation `analysis` had before its tower table; the oracle test
# checks the table and its array-pass monitors against it.

def reference_towers(trace: Trace) -> list[Tower]:
    """All maximal towers of the trace, classified long/short-lived.

    Maximality is two-sided: the interval cannot be extended for the
    member set, and the member set cannot be extended over the same
    interval.  Co-movement inside the interval is implied by co-location
    at consecutive times on a ring with n >= 3 (a round moves a robot by
    at most one node), so detection reduces to co-location runs.
    """
    if trace.rounds == 0:
        return []
    v = _view_of(trace)
    towers: list[Tower] = []
    for size in range(2, v.k + 1):
        for cols in combinations(range(v.k), size):
            s0, m = cols[0], sum(1 << c for c in cols)
            together = v.together[:, s0]
            runs = _true_runs((together & m) == m)
            # The AND of s0's co-location masks over a run is the largest
            # set co-located with s0 through the whole run, so the member
            # set cannot be extended exactly when that AND is m.  reduceat
            # ANDs the half-open [a, b) (b may be the last row); row b
            # joins after.
            whole = np.bitwise_and.reduceat(together, runs.ravel())[0::2] & together[runs[:, 1]]
            runs = runs[whole == m]
            # s0 stands on the tower's node, so its activations are the
            # tower's; v.h stands for none.  Rounds a..b-1 are inside the
            # interval, and for a closed tower round b is the breaking round.
            acts = v.activations[s0]
            firsts = np.append(acts, v.h)[np.searchsorted(acts, runs[:, 0])]
            member_ids = tuple(v.robot_ids[c] for c in cols)
            for (a, b), first in zip(runs.tolist(), firsts.tolist()):
                active = first < b
                towers.append(
                    Tower(
                        member_ids=member_ids,
                        member_cols=cols,
                        t_start=a,
                        t_end=b,
                        nodes=v.cpos[a : b + 1, s0],
                        open_ended=b == v.h,
                        long_lived=True if active else (None if b == v.h else False),
                        first_activation=first if active else None,
                    )
                )
    towers.sort(key=lambda t: (t.t_start, t.t_end, t.member_ids))
    return towers


def _member_coherence(v: _TraceView, cols: Sequence[int]) -> int | None:
    starts = [v.coherence[c] for c in cols]
    return None if None in starts else max(starts)


def _split_rounds(values: np.ndarray, lo: int, hi: int, cols: Sequence[int]) -> list[int]:
    """Rounds lo..hi at which the member columns `cols` of `values` differ."""
    part = values[lo : hi + 1, list(cols)]
    return (lo + np.flatnonzero((part != part[:, :1]).any(axis=1))).tolist()


def _monitor_tower_agreement(v: _TraceView, towers: list[Tower], out: list[Violation]) -> None:
    """Long-lived tower members agree on the global direction at every Look."""
    dir_at = np.vstack([v.dir_look, v.gdir_cw[-1:]])  # configuration times 0..H
    for tower in towers:
        coh = _member_coherence(v, tower.member_cols)
        if tower.long_lived is not True or coh is None:
            continue
        lo, hi = max(tower.t_start, coh), min(tower.t_end, v.h)
        out.extend(
            Violation("tower-direction-agreement", t, f"long-lived tower {tower.member_ids} "
                      f"members consider different global directions")
            for t in _split_rounds(dir_at, lo, hi, tower.member_cols)
        )


def _monitor_tower_predicates(
    v: _TraceView, towers: list[Tower], algo: str, out: list[Violation]
) -> None:
    """After the tower is edge-activated (twice, for the 2-robot rule), its
    members evaluate the direction-changing predicates identically."""
    activations_needed = 1 if algo == ALGO_PEF3 else 2
    for tower in towers:
        if tower.long_lived is not True:
            continue
        cols = tower.member_cols
        acts = v.activations[cols[0]]
        lo, hi = np.searchsorted(acts, [tower.t_start, min(tower.t_end, v.h)])
        if hi - lo < activations_needed:
            continue
        start = int(acts[lo + activations_needed - 1]) + 1
        stop = min(tower.t_end, v.h - 1)
        split = set(_split_rounds(v.stuck, start, stop, cols))
        if algo == ALGO_PEF3:
            split.update(_split_rounds(v.more, start, stop, cols))
        out.extend(
            Violation("tower-predicate-agreement", t, f"long-lived tower {tower.member_ids} "
                      f"members disagree on a direction-changing predicate")
            for t in sorted(split)
        )


def _monitor_tower_formation(
    v: _TraceView, towers: list[Tower], algo: str, out: list[Violation]
) -> None:
    """New k-long-lived towers cannot arise; 3-towers need a 2-long-lived parent."""
    # 2-long-lived intervals by start, with the latest end reached so far:
    # some interval covers time t iff the latest end among those starting
    # by t reaches t.
    two_long = sorted((t.t_start, t.t_end) for t in towers if t.size == 2 and t.long_lived is True)
    starts = [a for a, _ in two_long]
    reach = list(accumulate((b for _, b in two_long), max))
    for tower in towers:
        a = tower.t_start
        if v.k != 3 or tower.size != 3 or a < 1:
            continue
        j = bisect_right(starts, a - 1)
        if not (j and reach[j - 1] >= a - 1):
            out.append(Violation("three-tower-needs-two-long-lived", a, f"3-robot tower formed "
                                 f"at {a} without a 2-long-lived tower present at {a - 1}"))
        if tower.long_lived is True:
            out.append(Violation("no-new-three-long-lived", a, f"3-long-lived tower "
                                 f"{tower.member_ids} begins at {a} after a configuration "
                                 f"without one"))
    if algo == ALGO_PEF2 and v.k == 2:
        out.extend(
            Violation("no-new-two-long-lived", t.t_start, f"2-long-lived tower begins at "
                      f"{t.t_start} after a configuration without one")
            for t in towers
            if t.size == 2 and t.long_lived is True and t.t_start >= 1
        )


def _monitor_ring_visited(v: _TraceView, towers: list[Tower], out: list[Violation]) -> None:
    """All nodes are visited between consecutive qualifying 2-long-lived towers."""
    if v.k != 3 or v.t_max is None:
        return
    if any(t.size == 3 and t.long_lived is True for t in towers):
        return
    qualifying = [
        t
        for t in towers
        if t.size == 2 and t.long_lived is True and not t.open_ended and t.t_start >= v.t_max
    ]
    qualifying.sort(key=lambda t: t.t_start)
    for i in range(len(qualifying) - 1):
        cur, nxt = qualifying[i], qualifying[i + 1]
        if nxt.t_start > cur.t_end + 1:
            lo, hi = cur.t_end, nxt.t_start - 1
        elif nxt.t_start == cur.t_end + 1 and i + 1 >= 2:
            lo, hi = max(cur.t_start - 1, 0), nxt.t_start - 1
        else:
            continue
        seen = np.unique(v.cpos[lo : hi + 1])
        if seen.size < v.n:
            missing = sorted(set(range(v.n)) - set(int(x) for x in seen))
            out.append(Violation("ring-visited-between-towers", nxt.t_start, f"nodes {missing} "
                                 f"not visited in [{lo},{hi}] between consecutive 2-long-lived "
                                 f"towers"))


def _monitor_break_bound(v: _TraceView, towers: list[Tower], out: list[Violation]) -> None:
    """A stuck long-lived tower must break within the word-divergence budget."""
    ids = v.robot_ids
    for tower in towers:
        if tower.long_lived is not True:
            continue
        cols = list(tower.member_cols)
        hi = min(tower.t_end, v.h - 1)
        calls = int(v.stuck[tower.t_start : hi + 1, cols].all(axis=1).sum())
        cap = min(
            2 * transformed_length(ids[a]) * transformed_length(ids[b])
            for a, b in combinations(cols, 2)
        )
        if calls > cap:
            out.append(Violation("tower-break-bound", tower.t_start, f"tower {tower.member_ids} "
                                 f"saw {calls} synchronized stuck rounds, bound is {cap}"))



def reference_lemmas(trace: Trace) -> tuple[list[Tower], list[Violation]]:
    """The reference towers and `monitor_lemmas` findings of the trace."""
    v = _view_of(trace)
    towers = reference_towers(trace)
    out: list[Violation] = []
    analysis._monitor_coherence(v, out)
    analysis._monitor_movement(v, out)
    analysis._monitor_index_advance(v, out)
    analysis._monitor_observation(v, out)
    _monitor_tower_agreement(v, towers, out)
    _monitor_tower_predicates(v, towers, trace.algo, out)
    _monitor_tower_formation(v, towers, trace.algo, out)
    _monitor_ring_visited(v, towers, out)
    _monitor_break_bound(v, towers, out)
    out.sort(key=lambda viol: (viol.round, viol.monitor))
    return towers, out


MUTATION_CASES = [NO_MUTATIONS] + [frozenset({m}) for m in sorted(KNOWN_MUTATIONS)]
TOWER_MONITORS = {
    "tower-direction-agreement", "tower-predicate-agreement", "three-tower-needs-two-long-lived",
    "no-new-three-long-lived", "no-new-two-long-lived", "ring-visited-between-towers",
    "tower-break-bound",
}


def fuzzed_trace(case: int) -> Trace:
    """A short run of case-drawn ring, cohort (robot ids in no particular
    order), algorithm, schedule class and mutation flag, with a few of its
    state cells edited by hand."""
    rng = random.Random(case)
    n, k = rng.randint(3, 8), rng.randint(2, 4)
    algo = ("pef3", "pef2")[case % 2]
    kind = ("recurrent", "eventual_missing", "removal")[case // 2 % 3]
    mutations = MUTATION_CASES[case // 6 % len(MUTATION_CASES)]
    sched = RecurrentRandomSchedule(n, rng.choice((0.3, 0.5, 0.8)), rng.randint(2, 8), case)
    if kind == "eventual_missing":
        sched = EventualMissingSchedule(sched, rng.randrange(n), rng.randrange(50))
    elif kind == "removal":
        spec = [
            (rng.randrange(n), rng.randrange(100), rng.choice((rng.randrange(100, 300), INF)))
            for _ in range(rng.randint(1, 3))
        ]
        inner = sched if rng.random() < 0.5 else StaticSchedule(n)
        sched = RemovalSchedule(inner, spec)
    states = fuzz_initial(n, rng.sample(range(6), k), rng)
    trace = run_states(n, algo, states, rng.randint(100, 400), schedule=sched, mutations=mutations)
    for _ in range(rng.choice((0, 0, 1, 3, 10))):
        column = rng.choice(("pos", "gdir_cw", "idx", "nrpea", "hmpea"))
        values = getattr(trace, column).copy()
        t, r = rng.randrange(trace.rounds), rng.randrange(k)
        if values.dtype == bool:
            values[t, r] = not values[t, r]
        else:
            values[t, r] = rng.randrange(n) if column == "pos" else rng.randint(1, 8)
        setattr(trace, column, values)
    if rng.random() < 0.3:  # the cohort stands still for a while
        pos, t = trace.pos.copy(), rng.randrange(trace.rounds)
        pos[t : t + rng.randint(5, 40)] = pos[t]
        trace.pos = pos
    trace._cache.clear()
    return trace


def random_tower_rows(v: _TraceView, rng: random.Random) -> list[tuple]:
    """Rows of arbitrary towers over the view's horizon, mostly pairs, with
    a chain of closely spaced pair towers half of the time for k = 3."""
    sets = [cols for size in range(2, v.k + 1) for cols in combinations(range(v.k), size)]
    rows = []
    for _ in range(rng.randrange(40)):
        a = rng.randrange(v.h + 1)
        b = min(v.h, a + rng.randrange(60))
        kind = rng.choice((True, True, False, None))
        cols = rng.choice(sets if rng.random() < 0.3 else sets[:3])
        rows.append((cols, a, b, kind, a if kind else None))
    if v.k == 3 and rng.random() < 0.5:
        t = rng.randrange(v.h // 2)
        while t < v.h:
            b = min(v.h - 1, t + rng.randrange(6))
            rows.append((rng.choice(sets[:3]), t, b, True, t))
            t = b + rng.choice((1, 1, 2, 5, 30))
    return rows


def tower_findings(monitors, v: _TraceView, towers, algo: str) -> list[Violation]:
    """The sorted findings of the five tower monitors of `monitors` (the
    `analysis` module or this one's reference)."""
    out: list[Violation] = []
    monitors._monitor_tower_agreement(v, towers, out)
    monitors._monitor_tower_predicates(v, towers, algo, out)
    monitors._monitor_tower_formation(v, towers, algo, out)
    monitors._monitor_ring_visited(v, towers, out)
    monitors._monitor_break_bound(v, towers, out)
    out.sort(key=lambda viol: (viol.round, viol.monitor))
    return out


class TestTowerTableOracle:
    def test_table_and_findings_match_reference(self):
        # Over fuzzed and hand-edited traces: the detected table against
        # the reference towers, the full findings against the reference
        # findings, again with a mostly-stuck view (so break bounds are
        # exceeded), and the tower monitors over arbitrary tables.
        this = sys.modules[__name__]
        fired = {"detected": set(), "stuck": set(), "rows": set()}
        shapes = set()
        for case in range(240):
            trace = fuzzed_trace(case)
            v = _view_of(trace)
            shapes.add((v.k, trace.algo))
            towers, expected = reference_lemmas(trace)
            table = analysis.detect_towers(trace)
            assert reported(table) == reported(towers), case
            order = [(t.t_start, t.t_end, t.member_ids) for t in towers]
            assert [(t.t_start, t.t_end, t.member_ids) for t in table] == order, case
            assert analysis.monitor_lemmas(trace, table) == expected, case
            fired["detected"] |= {viol.monitor for viol in expected}

            stuck = np.random.default_rng(case).random(v.stuck.shape) < 0.98
            v.__dict__["stuck"] = stuck
            _, expected = reference_lemmas(trace)
            assert analysis.monitor_lemmas(trace, table) == expected, case
            fired["stuck"] |= {viol.monitor for viol in expected}

            rows = analysis.TowerTable.from_rows(v, random_tower_rows(v, random.Random(case)))
            expected = tower_findings(this, v, list(rows), trace.algo)
            assert tower_findings(analysis, v, rows, trace.algo) == expected, case
            fired["rows"] |= {viol.monitor for viol in expected}
        assert shapes == {(k, algo) for k in (2, 3, 4) for algo in ("pef2", "pef3")}
        # Every tower monitor reports something, so its findings are
        # compared and not only empty lists.
        assert TOWER_MONITORS - {"tower-break-bound", "ring-visited-between-towers"} <= fired["detected"]
        assert "tower-break-bound" in fired["stuck"]
        assert TOWER_MONITORS <= fired["rows"]

    def test_tower_count_reads_only_the_colocation_runs(self):
        # The count `simulate` prints is the table's length, and it builds
        # neither the edge-activation arrays nor the table.
        for case in range(60):
            trace = fuzzed_trace(case)
            count = analysis.count_towers(trace)
            built = set(vars(_view_of(trace)))
            assert not built & {"cw", "ccw", "adjacent", "activations"}, case
            assert count == len(analysis.detect_towers(trace)), case


class TestTraceView:
    def test_look_phase_arrays(self):
        states = fuzz_initial(5, [0, 1, 2], random.Random(0))
        trace = run_states(5, "pef3", states, 40, schedule=StaticSchedule(5))
        view = analysis._view_of(trace)
        assert analysis._view_of(trace) is view
        assert view.dir_look.shape == (40, 3)
        assert (view.dir_look[1:] == trace.gdir_cw[:-1]).all()
        assert view.here.min() >= 1
        assert view.here.dtype == np.uint8
        # Each robot's cw edge is the one named by its node, its ccw edge
        # the one before; `together` names exactly the robots on its node.
        rng = random.Random(4)
        for trial in range(20):
            n, k = rng.randint(3, 8), rng.randint(1, 5)
            sched = RecurrentRandomSchedule(n, 0.5, 6, trial)
            trace = run_states(n, "pef3", fuzz_initial(n, list(range(k)), rng), 60, schedule=sched)
            view = analysis._view_of(trace)
            for t in range(trace.rounds):
                for r in range(k):
                    node = int(trace.pos[t, r])
                    assert view.cw[t, r] == bool(trace.edges[t] >> node & 1)
                    assert view.ccw[t, r] == bool(trace.edges[t] >> (node - 1) % n & 1)
                    assert view.here[t, r] == (trace.pos[t] == node).sum()
            cpos = trace.config_positions()
            for t in range(trace.rounds + 1):
                for r in range(k):
                    mates = sum(1 << c for c in range(k) if cpos[t, c] == cpos[t, r])
                    assert view.together[t, r] == mates


def reference_coverage(trace: Trace, suffix_start: int, window: int | None) -> analysis.CoverageReport:
    """`analysis.coverage` as a scan of the position array once per node."""
    positions = trace.config_positions()[suffix_start:]
    span = positions.shape[0] - 1
    node_max_gap, node_visits, node_visit_rounds = {}, {}, {}
    worst_gap = 0
    starved = None
    for v in range(trace.n):
        ts = np.flatnonzero((positions == v).any(axis=1))
        node_visits[v] = int(ts.size)
        node_visit_rounds[v] = ts + suffix_start
        if ts.size == 0:
            node_max_gap[v] = None
            if starved is None:
                starved = (v, suffix_start)
            continue
        lead = int(ts[0])
        trail = int(span - ts[-1])
        inner = int(np.diff(ts).max()) if ts.size > 1 else 0
        gap = max(lead + 1, trail + 1, inner)
        node_max_gap[v] = gap
        worst_gap = max(worst_gap, gap)
        if window is not None and gap > window and starved is None:
            if inner >= max(lead + 1, trail + 1):
                at = int(ts[np.argmax(np.diff(ts))]) + suffix_start
            elif lead + 1 >= trail + 1:
                at = suffix_start
            else:
                at = int(ts[-1]) + suffix_start
            starved = (v, at)
    covered = starved is None
    return analysis.CoverageReport(
        suffix_start=suffix_start,
        window=window,
        node_max_gap=node_max_gap,
        node_visits=node_visits,
        node_visit_rounds=node_visit_rounds,
        covered=covered,
        max_gap=None if any(g is None for g in node_max_gap.values()) else worst_gap,
        starved_node=None if covered else starved[0],
        starved_since=None if covered else starved[1],
    )


class TestCoverage:
    def test_matches_per_node_scan(self):
        # Fuzzed runs, and random position rows on rings up to n = 63, whose
        # top node is the int64 bitmask's last bit.
        rng = random.Random(23)
        traces = [fuzzed_trace(case) for case in range(60)]
        for _ in range(30):
            n, k, h = rng.choice((3, 9, 40, 63)), rng.randint(1, 5), rng.randint(1, 300)
            hot = rng.sample(range(n), min(n, rng.randint(1, 6)))
            traces.append(positions_trace(n, [
                [rng.choice(hot) if rng.random() < 0.8 else rng.randrange(n) for _ in range(k)]
                for _ in range(h + 1)
            ]))
        for case, trace in enumerate(traces):
            for _ in range(4):
                start = rng.randrange(trace.rounds)
                span = trace.rounds - start
                window = rng.choice((None, rng.randint(1, span), span))
                got = analysis.coverage(trace, start, window)
                want = reference_coverage(trace, start, window)
                for name, value in vars(want).items():
                    if name == "node_visit_rounds":
                        assert value.keys() == got.node_visit_rounds.keys(), case
                        for node, rounds in value.items():
                            assert np.array_equal(got.node_visit_rounds[node], rounds), (case, node)
                    else:
                        assert getattr(got, name) == value, (case, name)

    def test_static_march_covered_within_ring_size(self):
        states = spread_robots(5, [0, 1, 2])
        trace = run_states(5, "pef3", states, 200, schedule=StaticSchedule(5))
        report = analysis.coverage(trace, 2, 5)
        assert report.covered and report.max_gap <= 5
        assert "Covered" in report.verdict()
        for v in range(5):
            rounds = report.node_visit_rounds[v]
            assert rounds.size == report.node_visits[v]
            assert rounds.min() >= 2
            assert (np.diff(rounds) <= 5).all()

    def test_short_trace_rejected(self):
        states = spread_robots(5, [0, 1, 2])
        trace = run_states(5, "pef3", states, 10, schedule=StaticSchedule(5))
        with pytest.raises(ValueError, match="shorter than window"):
            analysis.coverage(trace, 8, 5)
        with pytest.raises(ValueError, match="suffix_start"):
            analysis.coverage(trace, 10)

    def test_starved_node_reported(self):
        # A lone robot pinned by a permanently missing edge in front of it.
        sched = RemovalSchedule(StaticSchedule(4), [(1, 0, INF)])
        robots = [RobotState.make(0, 1, R, CW, nrpea=1, hmpea=True)]
        trace = run_states(4, "pef3", robots, 50, schedule=sched)
        report = analysis.coverage(trace, 0)
        assert not report.covered
        assert report.starved_node in {0, 2, 3}
        assert "Starved" in report.verdict()

    def test_shrinking_window_only_degrades(self):
        states = spread_robots(6, [0, 1, 2])
        trace = run_states(6, "pef3", states, 300, schedule=StaticSchedule(6))
        measured = analysis.coverage(trace, 2)
        assert measured.covered
        wide = analysis.coverage(trace, 2, measured.max_gap)
        tight = analysis.coverage(trace, 2, measured.max_gap - 1)
        assert wide.covered
        assert not tight.covered


class TestCoherence:
    def test_static_coherent_from_round_one(self):
        states = spread_robots(5, [0, 1, 2])
        trace = run_states(5, "pef3", states, 30, schedule=StaticSchedule(5))
        assert [analysis.coherence_round(trace, rid) for rid in (0, 1, 2)] == [1, 1, 1]
        assert analysis.trace_t_max(trace) == 1

    def test_blocked_node_delays_coherence(self):
        # Both edges of node 0 absent during rounds 0..8: first
        # edge-activation at round 9, coherent from round 10.
        sched = RemovalSchedule(StaticSchedule(4), [(0, 0, 8), (3, 0, 8)])
        robots = [RobotState.make(0, 0, R, CW), RobotState.make(1, 2, R, CW)]
        trace = run_states(4, "pef3", robots, 30, schedule=sched)
        assert analysis.coherence_round(trace, 0) == 10
        assert analysis.coherence_round(trace, 1) == 1
        assert analysis.trace_t_max(trace) == 10

    def test_never_activated_reports_none(self):
        sched = RemovalSchedule(StaticSchedule(4), [(0, 0, INF), (3, 0, INF)])
        robots = [RobotState.make(0, 0, R, CW)]
        trace = run_states(4, "pef3", robots, 20, schedule=sched)
        assert analysis.coherence_round(trace, 0) is None
        assert analysis.trace_t_max(trace) is None

    def test_unknown_robot_rejected(self):
        robots = [RobotState.make(0, 0)]
        trace = run_states(4, "pef3", robots, 5, schedule=StaticSchedule(4))
        with pytest.raises(ValueError, match="not present"):
            analysis.coherence_round(trace, 9)


class TestMonitors:
    def test_clean_runs_have_no_violations(self):
        for seed in range(6):
            trace = run_missing_edge(seed=40 + seed, rounds=1500)
            assert analysis.monitor_lemmas(trace) == []
        states = spread_robots(5, [0, 1, 2])
        trace = run_states(5, "pef3", states, 300, schedule=StaticSchedule(5))
        assert analysis.monitor_lemmas(trace) == []

    @pytest.mark.parametrize(
        "mutation,expected_monitors",
        [
            ("freeze_hmpea", {"coherence"}),
            ("skip_update", {"coherence"}),
            ("literal_index", {"index-advance"}),
        ],
    )
    def test_mutations_trip_monitors(self, mutation, expected_monitors):
        # Scenario engineered so every mutation is observable: a stuck
        # tower exercising the bit word (for the index rule) and moving
        # robots (for the bookkeeping rules).
        sched = EventualMissingSchedule(RecurrentRandomSchedule(6, 1.0, 8, 5), 0, 0)
        robots = [
            RobotState.make(0, 0, R, CW, i=1, nrpea=2, hmpea=False),
            RobotState.make(2, 0, R, CW, i=3, nrpea=2, hmpea=False),
            RobotState.make(1, 3, R, CW, i=5, nrpea=1, hmpea=True),
        ]
        trace = run_states(
            6, "pef3", robots, 400, schedule=sched,
            mutations=frozenset({mutation}), meta_extra={"schedule": sched.describe()},
        )
        violations = analysis.monitor_lemmas(trace)
        assert violations, f"mutation {mutation} went unnoticed"
        assert expected_monitors <= {v.monitor for v in violations}

    def test_hand_edited_trace_is_caught(self):
        trace = run_missing_edge(seed=50, rounds=400)
        trace.hmpea = trace.hmpea.copy()
        activated = np.nonzero(analysis._view_of(trace).adjacent[:, 0])[0]
        trace.hmpea[activated[5], 0] = not trace.hmpea[activated[5], 0]
        violations = analysis.monitor_lemmas(trace)
        assert any(v.monitor == "coherence" for v in violations)
        # No edge in round 0, so round 0 must keep the header's variables.
        sched = RemovalSchedule(StaticSchedule(4), [(e, 0, 0) for e in range(4)])
        robots = [RobotState.make(0, 0, nrpea=2), RobotState.make(1, 2, i=3)]
        for key, value in (("nrpea", 5), ("i", 9)):
            trace = run_states(4, "pef3", robots, 10, schedule=sched)
            assert analysis.monitor_lemmas(trace) == []
            trace.meta["robots"][0][key] = value
            found = [(v.monitor, v.round) for v in analysis.monitor_lemmas(trace)]
            assert ("frozen-between-activations", 0) in found, key

    def _frozen_cohort_view(self):
        # Edge-activated once at round 0 (one counter-clockwise move),
        # frozen afterwards on nodes {3, 0, 1}: node 2 starves.
        sched = RemovalSchedule(StaticSchedule(4), [(e, 1, INF) for e in range(4)])
        robots = [
            RobotState.make(0, 0, L, CW, nrpea=1, hmpea=True),
            RobotState.make(1, 1, L, CW, nrpea=1, hmpea=True),
            RobotState.make(2, 2, L, CW, nrpea=1, hmpea=True),
        ]
        trace = run_states(4, "pef3", robots, 40, schedule=sched)
        assert analysis.trace_t_max(trace) == 1
        return analysis._TraceView(trace)

    @staticmethod
    def _row(cols, start, end, long_lived=True):
        return (cols, start, end, long_lived, start if long_lived else None)

    def test_ring_visited_monitor_gap_branch(self):
        # Two consecutive closed 2-long-lived towers with a gap between
        # them: the frozen cohort never visits node 3, so the monitor must
        # flag the window.
        view = self._frozen_cohort_view()
        towers = analysis.TowerTable.from_rows(view, [
            self._row((0, 1), 3, 6),
            self._row((1, 2), 12, 15),
        ])
        out = []
        analysis._monitor_ring_visited(view, towers, out)
        assert len(out) == 1
        assert out[0].monitor == "ring-visited-between-towers"
        assert "[2]" in out[0].detail  # node 2 is the starved one

    def test_ring_visited_monitor_adjacent_branch_skips_first_tower(self):
        view = self._frozen_cohort_view()
        first = self._row((0, 1), 3, 6)
        second = self._row((1, 2), 7, 10)  # starts right after the first
        out = []
        analysis._monitor_ring_visited(view, analysis.TowerTable.from_rows(view, [first, second]), out)
        # The adjacent-towers claim holds only from the second tower on.
        assert out == []
        third = self._row((0, 2), 11, 14)
        out = []
        towers = analysis.TowerTable.from_rows(view, [first, second, third])
        analysis._monitor_ring_visited(view, towers, out)
        assert len(out) == 1 and out[0].round == 11

    def test_formation_monitors_flag_crafted_towers(self):
        view = self._frozen_cohort_view()
        rogue3 = self._row((0, 1, 2), 5, 9)
        out = []
        analysis._monitor_tower_formation(view, analysis.TowerTable.from_rows(view, [rogue3]), "pef3", out)
        monitors = {v.monitor for v in out}
        # A 3-robot tower popping up without a 2-long-lived parent violates
        # both the formation precondition and the no-new-long-lived claim.
        assert monitors == {
            "three-tower-needs-two-long-lived",
            "no-new-three-long-lived",
        }
        with_parent = analysis.TowerTable.from_rows(view, [self._row((0, 1), 2, 5), rogue3])
        out = []
        analysis._monitor_tower_formation(view, with_parent, "pef3", out)
        assert {v.monitor for v in out} == {"no-new-three-long-lived"}

    def test_three_tower_parent_check_matches_brute_force(self):
        # The interval sweep against the direct scan over all 2-long-lived
        # towers, on random tower tables and on mutated detected ones.
        rng = random.Random(12)
        states = fuzz_initial(4, [0, 1, 2], random.Random(1))
        trace = run_states(4, "pef3", states, 3000, schedule=RecurrentRandomSchedule(4, 0.5, 8, 1))
        view = analysis._view_of(trace)

        def brute(towers):
            two_long = [t for t in towers if t.size == 2 and t.long_lived is True]
            return sorted(
                t.t_start
                for t in towers
                if t.size == 3 and t.t_start >= 1
                and not any(p.t_start <= t.t_start - 1 <= p.t_end for p in two_long)
            )

        def swept(towers):
            out = []
            analysis._monitor_tower_formation(view, towers, "pef3", out)
            return sorted(v.round for v in out if v.monitor == "three-tower-needs-two-long-lived")

        def random_row(size):
            start = rng.randrange(0, 60)
            kind = rng.choice([True, False, None])
            return self._row(tuple(range(size)), start, start + rng.randrange(0, 8), kind)

        cases = [
            [random_row(rng.choice((2, 2, 3))) for _ in range(rng.randrange(0, 25))]
            for _ in range(300)
        ]
        detected = analysis.detect_towers(trace)
        assert brute(detected) == [] and any(t.size == 3 for t in detected)
        for _ in range(100):
            mutated = []
            for t in detected:
                if t.size == 2 and rng.random() < 0.1:
                    continue  # a 2-long-lived parent goes missing
                start, end = t.t_start, t.t_end
                if rng.random() < 0.05:
                    shift = rng.choice((-1, 1))
                    start, end = max(0, start + shift), end + shift
                mutated.append((t.member_cols, start, end, t.long_lived, t.first_activation))
            cases.append(mutated)
        flagged = 0
        for rows in cases:
            towers = analysis.TowerTable.from_rows(view, rows)
            assert swept(towers) == brute(towers)
            flagged += bool(brute(towers))
        assert flagged > 50

    def test_pef2_no_new_two_long_lived_monitor(self):
        sched = RemovalSchedule(StaticSchedule(4), [(e, 1, INF) for e in range(4)])
        robots = [
            RobotState.make(0, 0, L, CW, nrpea=1, hmpea=True),
            RobotState.make(1, 1, L, CW, nrpea=1, hmpea=True),
        ]
        trace = run_states(4, "pef2", robots, 20, schedule=sched)
        view = analysis._TraceView(trace)
        rogue = analysis.TowerTable.from_rows(view, [self._row((0, 1), 4, 8)])
        out = []
        analysis._monitor_tower_formation(view, rogue, "pef2", out)
        assert [v.monitor for v in out] == ["no-new-two-long-lived"]
        innocent = analysis.TowerTable.from_rows(view, [self._row((0, 1), 0, 8)])  # present from the start
        out = []
        analysis._monitor_tower_formation(view, innocent, "pef2", out)
        assert out == []

    def test_findings_writer_format(self, tmp_path):
        v = analysis.Violation("coherence", 3, "detail text")
        path = tmp_path / "findings.jsonl"
        with open(path, "w") as fh:
            analysis.write_findings([v], fh)
        import json

        rec = json.loads(path.read_text().splitlines()[0])
        assert rec == {"monitor": "coherence", "round": 3, "detail": "detail text"}


class TestSentinelReport:
    def test_missing_edge_run_establishes_sentinels(self):
        trace = run_missing_edge(n=5, seed=17, rounds=3000, edge=2)
        report = analysis.sentinel_visitor_report(trace)
        assert report.missing_edge == 2
        assert report.established_round is not None
        assert report.meetings, "visitor never met a sentinel"
        assert all(p >= 1 for p in report.periods)

    def test_declared_edge_under_removals_is_found(self):
        inner = EventualMissingSchedule(RecurrentRandomSchedule(5, 0.5, 8, 17), 2, 0)
        sched = RemovalSchedule(inner, [(0, 5, 10)])
        states = fuzz_initial(5, [0, 1, 2], random.Random(17))
        trace = run_states(5, "pef3", states, 3000, schedule=sched,
                           meta_extra={"schedule": sched.describe()})
        assert trace.meta["schedule"]["kind"] == "removal_list"
        report = analysis.sentinel_visitor_report(trace)
        assert report.missing_edge == 2 and report.cutoff == 0

    @pytest.mark.parametrize("key", ["missing_edge", "cutoff"])
    def test_declaration_without_edge_or_cutoff_rejected(self, key):
        trace = run_missing_edge(n=5, seed=17, rounds=200, edge=2)
        del trace.meta["schedule"][key]
        with pytest.raises(ValueError, match=f"lacks \\['{key}'\\]"):
            analysis.sentinel_visitor_report(trace)

    def test_static_trace_rejected(self):
        states = spread_robots(5, [0, 1, 2])
        trace = run_states(5, "pef3", states, 50, schedule=StaticSchedule(5))
        with pytest.raises(ValueError, match="no eventual missing edge"):
            analysis.sentinel_visitor_report(trace)
