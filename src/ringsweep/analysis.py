"""Trace post-processing: towers, coverage, coherence, lemma monitors.

Everything here re-derives its facts from the recorded trace alone, so a
hand-edited or mutated trace is caught by the same machinery that attests
healthy runs.

Conventions.  A trace of H rounds yields configuration times 0..H (the
position row at time t is the Look-phase position of round t; time H is
the final post-Move configuration).  "Look-phase value at t" means the
value a variable holds entering round t, i.e. the previous round's
post-Compute value.

Tower scope.  The direction/predicate-agreement and ring-visited monitors
quantify over towers the way the correctness argument does: from the
point the members' bookkeeping variables have been refreshed at least
once (their coherence round).  A tower already present at round 0 with
corrupted variables can otherwise exhibit one round of disagreement that
the self-stabilizing algorithm is explicitly allowed to display before
converging.  Towers formed at t >= 1 necessarily had every member
edge-activated at t-1, so for them the monitored range is the full
interval.
"""
from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, combinations
from typing import IO, Iterable, Sequence

import numpy as np

from .engine import ALGO_PEF2, ALGO_PEF3, Trace
from .ring_model import eventual_missing_description
from .words import transformed_length


@dataclass(frozen=True)
class Tower:
    """Maximal co-location of >= 2 robots over a maximal time interval.

    `t_start`..`t_end` are configuration times (inclusive); `nodes[j]` is
    the node the tower occupies at time t_start + j (a view into the trace,
    not a copy).  `open_ended` towers reach the trace horizon; their fate
    (and classification, when no edge-activation happened yet) is
    undetermined, which `long_lived = None` encodes.
    """

    member_ids: tuple[int, ...]
    member_cols: tuple[int, ...]
    t_start: int
    t_end: int
    nodes: np.ndarray
    open_ended: bool
    long_lived: bool | None
    first_activation: int | None  # first edge-activated round inside the interval

    @property
    def size(self) -> int:
        return len(self.member_ids)

    def node_at(self, t: int) -> int:
        if not self.t_start <= t <= self.t_end:
            raise ValueError(f"time {t} outside tower interval [{self.t_start},{self.t_end}]")
        return int(self.nodes[t - self.t_start])

    def kind(self) -> str:
        if self.long_lived is None:
            return "undetermined"
        return "long_lived" if self.long_lived else "short_lived"


def _true_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal [start, end] (inclusive) runs of True in a 1-d bool array."""
    if not mask.any():
        return []
    padded = np.concatenate([[False], mask, [False]])
    flips = np.flatnonzero(padded[1:] != padded[:-1])
    return [(int(flips[j]), int(flips[j + 1] - 1)) for j in range(0, len(flips), 2)]


def detect_towers(trace: Trace) -> list[Tower]:
    """All maximal towers of the trace, classified long/short-lived.

    Maximality is two-sided: the interval cannot be extended for the
    member set, and the member set cannot be extended over the same
    interval.  Co-movement inside the interval is implied by co-location
    at consecutive times on a ring with n >= 3 (a round moves a robot by
    at most one node), so detection reduces to co-location runs.
    """
    if trace.rounds == 0:
        return []
    positions = trace.config_positions()
    horizon = trace.rounds  # last configuration time
    k = positions.shape[1]
    ids = trace.robot_ids
    colocated: dict[tuple[int, ...], np.ndarray] = {}
    for size in range(2, k + 1):
        for cols in combinations(range(k), size):
            eq = (positions[:, list(cols)] == positions[:, [cols[0]]]).all(axis=1)
            colocated[cols] = eq
    towers: list[Tower] = []
    for cols, eq in colocated.items():
        for (a, b) in _true_runs(eq):
            extensible = any(
                set(other) > set(cols) and colocated[other][a : b + 1].all()
                for other in colocated
                if len(other) > len(cols)
            )
            if extensible:
                continue
            open_ended = b == horizon
            # Rounds a..b-1 are inside the interval; for a closed tower,
            # round b is the breaking round.
            inside = np.arange(a, min(b, trace.rounds))
            if inside.size:
                nodes = positions[inside, cols[0]]
                act = (
                    (trace.edges[inside] >> nodes & 1)
                    | (trace.edges[inside] >> (nodes - 1) % trace.n & 1)
                ).astype(bool)
                first_act = int(inside[np.argmax(act)]) if act.any() else None
            else:
                first_act = None
            if first_act is not None:
                long_lived: bool | None = True
            else:
                long_lived = None if open_ended else False
            towers.append(
                Tower(
                    member_ids=tuple(ids[c] for c in cols),
                    member_cols=cols,
                    t_start=a,
                    t_end=b,
                    nodes=positions[a : b + 1, cols[0]],
                    open_ended=open_ended,
                    long_lived=long_lived,
                    first_activation=first_act,
                )
            )
    towers.sort(key=lambda t: (t.t_start, t.t_end, t.member_ids))
    return towers


@dataclass
class CoverageReport:
    """Windowed proxy for "infinitely often visited" on a finite suffix.

    A node's gap is the largest stretch of configuration times in the
    suffix without a visit, counting the stretches before the first and
    after the last visit, so `max_gap <= W` iff every length-W window of
    the suffix contains a visit of every node.
    """

    suffix_start: int
    window: int | None
    node_max_gap: dict[int, int | None]  # None: never visited in the suffix
    node_visits: dict[int, int]
    node_visit_rounds: dict[int, np.ndarray]  # absolute configuration times
    covered: bool
    max_gap: int | None
    starved_node: int | None = None
    starved_since: int | None = None

    def verdict(self) -> str:
        if self.covered:
            return f"Covered(max_gap={self.max_gap})"
        return f"Starved(node={self.starved_node}, since={self.starved_since})"


def coverage(trace: Trace, suffix_start: int, window: int | None = None) -> CoverageReport:
    """Coverage verdict over configuration times [suffix_start, H].

    With an explicit window W the verdict is Covered iff every node's max
    gap is <= W; without one, the measured maximal gap is reported (and
    the verdict is Covered iff every node is visited at all).
    """
    horizon = trace.rounds
    if not 0 <= suffix_start < horizon:
        raise ValueError(f"suffix_start {suffix_start} outside 0..{horizon - 1}")
    if window is not None and horizon - suffix_start < window:
        raise ValueError(
            f"trace suffix of length {horizon - suffix_start} is shorter than window {window}"
        )
    positions = trace.config_positions()[suffix_start:]
    span = positions.shape[0] - 1  # config times suffix_start .. horizon
    node_max_gap: dict[int, int | None] = {}
    node_visits: dict[int, int] = {}
    node_visit_rounds: dict[int, np.ndarray] = {}
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
    return CoverageReport(
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


def _coherence_rounds(trace: Trace) -> list[int | None]:
    """Coherence round of every robot column, computed once per trace."""
    out = trace._cache.get("coherence_rounds")
    if out is None:
        adj = trace.adjacent()
        out = [
            int(first) + 1 if active else None
            for first, active in zip(adj.argmax(axis=0), adj.any(axis=0))
        ]
        trace._cache["coherence_rounds"] = out
    return out


def coherence_round(trace: Trace, robot_id: int) -> int | None:
    """First round from which the robot's bookkeeping is trustworthy.

    That is one round past its first edge-activation; None if the robot
    is never edge-activated within the horizon (possible only when both
    its incident edges starve, which connected-over-time schedules rule
    out in the limit).
    """
    cols = {rid: c for c, rid in enumerate(trace.robot_ids)}
    if robot_id not in cols:
        raise ValueError(f"robot {robot_id} not present in trace")
    return _coherence_rounds(trace)[cols[robot_id]]


def trace_t_max(trace: Trace) -> int | None:
    """Max coherence round over all robots; None if some robot never activates."""
    rounds = _coherence_rounds(trace)
    if any(r is None for r in rounds):
        return None
    return max(rounds)  # type: ignore[arg-type]


@dataclass(frozen=True)
class Violation:
    monitor: str
    round: int
    detail: str


class _TraceView:
    """Shared precomputed arrays for the monitors."""

    def __init__(self, trace: Trace):
        self.trace = trace
        self.n = trace.n
        self.h = trace.rounds
        self.k = trace.pos.shape[1]
        self.pos = trace.pos
        self.cpos = trace.config_positions()
        self.dir_look = trace.gdir_entering()  # (H, k) global-cw at Look
        self.dir_at = np.vstack([self.dir_look, trace.gdir_cw[-1:]])  # (H+1, k)
        self.nrpea_look = trace.nrpea_entering()
        self.hmpea_look = trace.hmpea_entering()
        self.idx_look = trace.idx_entering()
        self.here = trace.robots_here()
        self.adjacent = trace.adjacent()
        cw = trace.edge_present(trace.pos, 0)
        ccw = trace.edge_present(trace.pos, -1)
        self.cur_look = np.where(self.dir_look, cw, ccw)
        self.opp_look = np.where(self.dir_look, ccw, cw)
        self.cur_post = np.where(trace.gdir_cw, cw, ccw)
        self.stuck = (
            (self.here > 1)
            & (self.here == self.nrpea_look)
            & ~self.cur_look
            & self.opp_look
            & ~self.hmpea_look
        )
        self.more = (self.here > self.nrpea_look) & ~self.hmpea_look & self.adjacent
        self.ells = np.array([transformed_length(rid) for rid in trace.robot_ids])
        self.coherence = _coherence_rounds(trace)


def _monitor_coherence(v: _TraceView, out: list[Violation]) -> None:
    """Bookkeeping refreshed exactly at edge-activated rounds (and only there)."""
    t = v.trace
    act = v.adjacent
    bad_nr = act & (t.nrpea != v.here)
    bad_hm = act & (t.hmpea != t.moved)
    for tt, rr in zip(*np.nonzero(bad_nr)):
        out.append(
            Violation(
                "coherence",
                int(tt),
                f"robot {t.robot_ids[rr]}: nrpea {int(t.nrpea[tt, rr])} != "
                f"robots on node {int(v.here[tt, rr])} at edge-activated round",
            )
        )
    for tt, rr in zip(*np.nonzero(bad_hm)):
        out.append(
            Violation(
                "coherence",
                int(tt),
                f"robot {t.robot_ids[rr]}: hmpea {bool(t.hmpea[tt, rr])} != "
                f"moved {bool(t.moved[tt, rr])} at edge-activated round",
            )
        )
    frozen = ~act
    changed = (
        (t.nrpea != v.nrpea_look)
        | (t.hmpea != v.hmpea_look)
        | (t.idx != v.idx_look)
        | (t.gdir_cw != v.dir_look)
        | t.moved
    )
    for tt, rr in zip(*np.nonzero(frozen & changed)):
        out.append(
            Violation(
                "frozen-between-activations",
                int(tt),
                f"robot {t.robot_ids[rr]} changed state or moved without an adjacent edge",
            )
        )


def _monitor_movement(v: _TraceView, out: list[Violation]) -> None:
    """Moves are +-1 across a present edge in the pointed global direction."""
    t = v.trace
    expected_move = v.cur_post.astype(bool)
    for tt, rr in zip(*np.nonzero(t.moved != expected_move)):
        out.append(
            Violation(
                "movement-legality",
                int(tt),
                f"robot {t.robot_ids[rr]}: moved={bool(t.moved[tt, rr])} but edge in pointed "
                f"direction present={bool(expected_move[tt, rr])}",
            )
        )
    # int16 like the positions: (H, k) int64 temporaries here would set the
    # memory peak of a long trace's analysis.
    delta = np.where(t.gdir_cw, np.int16(1), np.int16(-1))
    want = np.where(t.moved, (t.pos + delta) % v.n, t.pos)
    after = v.cpos[1:]
    for tt, rr in zip(*np.nonzero(want != after)):
        out.append(
            Violation(
                "movement-legality",
                int(tt),
                f"robot {t.robot_ids[rr]}: position {int(after[tt, rr])} inconsistent with "
                f"move flag/direction",
            )
        )


def _monitor_index_advance(v: _TraceView, out: list[Violation]) -> None:
    """The read index advances round-robin, exactly on stuck-together rounds."""
    t = v.trace
    changed = t.idx != v.idx_look
    expected = v.idx_look % v.ells[None, :] + 1
    bad_value = changed & (t.idx != expected)
    for tt, rr in zip(*np.nonzero(bad_value)):
        out.append(
            Violation(
                "index-advance",
                int(tt),
                f"robot {t.robot_ids[rr]}: read index {int(v.idx_look[tt, rr])} -> "
                f"{int(t.idx[tt, rr])}, round-robin expects {int(expected[tt, rr])}",
            )
        )
    mismatch = changed != v.stuck
    for tt, rr in zip(*np.nonzero(mismatch)):
        out.append(
            Violation(
                "index-advance",
                int(tt),
                f"robot {t.robot_ids[rr]}: index change={bool(changed[tt, rr])} but "
                f"stuck-in-same-direction={bool(v.stuck[tt, rr])}",
            )
        )


def _monitor_observation(v: _TraceView, out: list[Violation]) -> None:
    """With three robots, at least two share a global direction each round."""
    if v.k != 3:
        return
    cw_count = v.trace.gdir_cw.sum(axis=1)
    share = np.maximum(cw_count, v.k - cw_count)
    for tt in np.nonzero(share < 2)[0]:
        out.append(Violation("observation-two-share-direction", int(tt), "pigeonhole broken"))


def _member_coherence(v: _TraceView, cols: Sequence[int]) -> int | None:
    starts = [v.coherence[c] for c in cols]
    return None if None in starts else max(starts)


def _monitor_tower_agreement(v: _TraceView, towers: list[Tower], out: list[Violation]) -> None:
    """Long-lived tower members agree on the global direction at every Look."""
    for tower in towers:
        if tower.long_lived is not True:
            continue
        coh = _member_coherence(v, tower.member_cols)
        if coh is None:
            continue
        lo = max(tower.t_start, coh)
        hi = min(tower.t_end, v.h)
        if lo > hi:
            continue
        cols = list(tower.member_cols)
        dirs = v.dir_at[lo : hi + 1, cols]
        disagree = dirs != dirs[:, [0]]
        rows = np.nonzero(disagree.any(axis=1))[0]
        for row in rows:
            out.append(
                Violation(
                    "tower-direction-agreement",
                    int(lo + row),
                    f"long-lived tower {tower.member_ids} members consider different "
                    f"global directions",
                )
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
        inside = np.arange(tower.t_start, min(tower.t_end, v.h))
        if not inside.size:
            continue
        cols = list(tower.member_cols)
        node = v.cpos[inside, cols[0]]
        act_rounds = inside[
            (
                (v.trace.edges[inside] >> node & 1)
                | (v.trace.edges[inside] >> (node - 1) % v.n & 1)
            ).astype(bool)
        ]
        if act_rounds.size < activations_needed:
            continue
        start = int(act_rounds[activations_needed - 1]) + 1
        stop = min(tower.t_end, v.h - 1)
        if start > stop:
            continue
        rng = np.arange(start, stop + 1)
        stuck = v.stuck[rng][:, cols]
        bad = stuck != stuck[:, [0]]
        if algo == ALGO_PEF3:
            more = v.more[rng][:, cols]
            bad |= more != more[:, [0]]
        for row in np.nonzero(bad.any(axis=1))[0]:
            out.append(
                Violation(
                    "tower-predicate-agreement",
                    int(rng[row]),
                    f"long-lived tower {tower.member_ids} members disagree on a "
                    f"direction-changing predicate",
                )
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
    if v.k == 3:
        for tower in towers:
            if tower.size == 3 and tower.t_start >= 1:
                j = bisect_right(starts, tower.t_start - 1)
                if not (j and reach[j - 1] >= tower.t_start - 1):
                    out.append(
                        Violation(
                            "three-tower-needs-two-long-lived",
                            tower.t_start,
                            f"3-robot tower formed at {tower.t_start} without a 2-long-lived "
                            f"tower present at {tower.t_start - 1}",
                        )
                    )
            if tower.size == 3 and tower.long_lived is True and tower.t_start >= 1:
                out.append(
                    Violation(
                        "no-new-three-long-lived",
                        tower.t_start,
                        f"3-long-lived tower {tower.member_ids} begins at {tower.t_start} "
                        f"after a configuration without one",
                    )
                )
    if algo == ALGO_PEF2 and v.k == 2:
        for tower in towers:
            if tower.size == 2 and tower.long_lived is True and tower.t_start >= 1:
                out.append(
                    Violation(
                        "no-new-two-long-lived",
                        tower.t_start,
                        f"2-long-lived tower begins at {tower.t_start} after a configuration "
                        f"without one",
                    )
                )


def _monitor_ring_visited(v: _TraceView, towers: list[Tower], out: list[Violation]) -> None:
    """All nodes are visited between consecutive qualifying 2-long-lived towers."""
    if v.k != 3:
        return
    if any(t.size == 3 and t.long_lived is True for t in towers):
        return
    t_max = trace_t_max(v.trace)
    if t_max is None:
        return
    qualifying = [
        t
        for t in towers
        if t.size == 2 and t.long_lived is True and not t.open_ended and t.t_start >= t_max
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
            out.append(
                Violation(
                    "ring-visited-between-towers",
                    nxt.t_start,
                    f"nodes {missing} not visited in [{lo},{hi}] between consecutive "
                    f"2-long-lived towers",
                )
            )


def _monitor_break_bound(v: _TraceView, towers: list[Tower], out: list[Violation]) -> None:
    """A stuck long-lived tower must break within the word-divergence budget."""
    ids = v.trace.robot_ids
    for tower in towers:
        if tower.long_lived is not True:
            continue
        cols = list(tower.member_cols)
        hi = min(tower.t_end, v.h - 1)
        rng = np.arange(tower.t_start, hi + 1)
        if not rng.size:
            continue
        all_stuck = v.stuck[rng][:, cols].all(axis=1)
        calls = int(all_stuck.sum())
        cap = min(
            2 * transformed_length(ids[a]) * transformed_length(ids[b])
            for a, b in combinations(cols, 2)
        )
        if calls > cap:
            out.append(
                Violation(
                    "tower-break-bound",
                    tower.t_start,
                    f"tower {tower.member_ids} saw {calls} synchronized stuck rounds, "
                    f"bound is {cap}",
                )
            )


def monitor_lemmas(trace: Trace, towers: list[Tower] | None = None) -> list[Violation]:
    """Run every applicable invariant monitor over the trace."""
    v = _TraceView(trace)
    if towers is None:
        towers = detect_towers(trace)
    out: list[Violation] = []
    _monitor_coherence(v, out)
    _monitor_movement(v, out)
    _monitor_index_advance(v, out)
    _monitor_observation(v, out)
    _monitor_tower_agreement(v, towers, out)
    _monitor_tower_predicates(v, towers, trace.algo, out)
    _monitor_tower_formation(v, towers, trace.algo, out)
    _monitor_ring_visited(v, towers, out)
    _monitor_break_bound(v, towers, out)
    out.sort(key=lambda viol: (viol.round, viol.monitor))
    return out


@dataclass
class SentinelReport:
    """Emergent sentinel/visitor roles at an eventual missing edge."""

    missing_edge: int
    cutoff: int
    established_round: int | None
    meetings: list[tuple[int, int]] = field(default_factory=list)  # (round, endpoint)
    periods: list[int] = field(default_factory=list)


def sentinel_visitor_report(trace: Trace) -> SentinelReport:
    """Earliest round after which both endpoints of the missing edge
    permanently host a robot pointing at it, plus the visitor's meetings.

    Requires the trace's schedule to declare an eventual missing edge; a
    missing establishment round is a finding (the horizon may simply be
    too short), not a failure.
    """
    sched = eventual_missing_description(trace.meta.get("schedule"))
    if sched is None:
        raise ValueError("trace schedule declares no eventual missing edge")
    missing = {"missing_edge", "cutoff"} - sched.keys()
    if missing:
        raise ValueError(f"eventual_missing schedule lacks {sorted(missing)}")
    e = int(sched["missing_edge"])
    cutoff = int(sched["cutoff"])
    v = _TraceView(trace)
    a, b = e, (e + 1) % trace.n
    ok_a = ((v.pos == a) & v.dir_look).any(axis=1)
    ok_b = ((v.pos == b) & ~v.dir_look).any(axis=1)
    good = ok_a & ok_b
    good[: min(cutoff, trace.rounds)] = False
    established = None
    suffix_ok = np.logical_and.accumulate(good[::-1])[::-1]
    candidates = np.nonzero(suffix_ok)[0]
    if candidates.size:
        first = int(candidates[0])
        if first >= cutoff:
            established = first
    report = SentinelReport(missing_edge=e, cutoff=cutoff, established_round=established)
    if established is None:
        return report
    for endpoint in (a, b):
        at = ((v.pos == endpoint).sum(axis=1) >= 2) & (np.arange(trace.rounds) >= established)
        for (start, _end) in _true_runs(at):
            report.meetings.append((start, endpoint))
    report.meetings.sort()
    report.periods = [
        t2 - t1 for (t1, _), (t2, _) in zip(report.meetings, report.meetings[1:])
    ]
    return report


def write_findings(violations: Iterable[Violation], out: IO[str]) -> None:
    """Machine-readable findings: one JSON object per line."""
    for viol in violations:
        out.write(
            json.dumps(
                {"monitor": viol.monitor, "round": viol.round, "detail": viol.detail},
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n"
        )
