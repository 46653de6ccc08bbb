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

Tower table.  `detect_towers` returns a `TowerTable`: numpy columns with
one row per maximal tower (member bitmask, size, anchor column, interval,
first activation, open-endedness, long-lived code).  `Tower` objects are
built only when a row is indexed or iterated.  The five tower monitors
are array passes over the table: per member set, one disagreement or
all-stuck array is summed over that set's tower intervals with prefix
sums (a set's maximal runs never overlap), and only towers with a
non-zero count are expanded into rounds.  Formation is a sorted search
over the 2-long-lived starts and the running maximum of their ends;
ring-visited ORs the view's per-time bitmask of occupied nodes over each
qualifying interval, and `coverage` reads each node's visit times from
the same bitmask.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
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


_KINDS = {1: True, 0: False, -1: None}  # `long_lived` column codes


class TowerTable:
    """The maximal towers of one trace as columns, one row per tower.

    Rows are sorted by `(t_start, t_end, member_ids)`.  The columns are
    `mask` (member bitmask over robot columns), `size`, `s0` (the lowest
    member column; it stands on the tower's node), `t_start`, `t_end`,
    `first` (first edge-activated round inside the interval, -1 for none),
    `open_ended` and `long_lived` (1 long-lived, 0 short-lived, -1
    undetermined).  `len`, indexing and iteration build `Tower` objects
    on demand; the monitors read the columns.
    """

    def __init__(self, v: _TraceView, mask, t_start, t_end, first, long_lived):
        self.k, self.h = v.k, v.h
        self._ids, self._cpos = v.robot_ids, v.cpos
        sets, inv = np.unique(np.asarray(mask, dtype=np.int64), return_inverse=True)
        self._sets = sets.tolist()
        cols = [self.cols_of(m) for m in self._sets]
        by_ids = sorted(range(len(cols)), key=lambda j: [self._ids[c] for c in cols[j]])
        rank = np.empty(len(cols), dtype=np.int64)
        rank[by_ids] = np.arange(len(cols))
        t_start, t_end = np.asarray(t_start, dtype=np.int64), np.asarray(t_end, dtype=np.int64)
        order = np.lexsort((rank[inv], t_end, t_start))
        self.mask = sets[inv][order]
        self.size = np.array([len(c) for c in cols], dtype=np.int64)[inv][order]
        self.s0 = np.array([c[0] for c in cols], dtype=np.int64)[inv][order]
        self.t_start, self.t_end = t_start[order], t_end[order]
        self.first = np.asarray(first, dtype=np.int64)[order]
        self.open_ended = self.t_end == self.h
        self.long_lived = np.asarray(long_lived, dtype=np.int8)[order]

    @classmethod
    def from_rows(cls, v: _TraceView, rows: Iterable[tuple]) -> TowerTable:
        """A table of `(member_cols, t_start, t_end, long_lived, first_activation)`
        rows, with `long_lived` True, False or None and a missing first
        activation None."""
        rows = list(rows)
        code = {kind: c for c, kind in _KINDS.items()}
        return cls(
            v,
            [sum(1 << c for c in r[0]) for r in rows],
            [r[1] for r in rows],
            [r[2] for r in rows],
            [-1 if r[4] is None else r[4] for r in rows],
            [code[r[3]] for r in rows],
        )

    def cols_of(self, mask: int) -> tuple[int, ...]:
        return tuple(c for c in range(self.k) if mask >> c & 1)

    def member_ids(self, row: int) -> tuple[int, ...]:
        return tuple(self._ids[c] for c in self.cols_of(int(self.mask[row])))

    def groups(self, selected: np.ndarray):
        """(member columns, row indices) of the selected rows, one pair per member set."""
        for m in self._sets:
            rows = np.flatnonzero(selected & (self.mask == m))
            if rows.size:
                yield self.cols_of(m), rows

    def census(self) -> str:
        """Tower count by kind and by size, e.g. `9 (2 long-lived, 7 short-lived,
        0 undetermined; by size {2: 8, 3: 1})`."""
        undetermined, short, long = np.bincount(self.long_lived + 1, minlength=3).tolist()
        sizes, counts = np.unique(self.size, return_counts=True)
        return (
            f"{len(self)} ({long} long-lived, {short} short-lived, {undetermined} undetermined; "
            f"by size {dict(zip(sizes.tolist(), counts.tolist()))})"
        )

    def __len__(self) -> int:
        return int(self.mask.shape[0])

    def __getitem__(self, row: int) -> Tower:
        row = range(len(self))[row]
        a, b, first = int(self.t_start[row]), int(self.t_end[row]), int(self.first[row])
        return Tower(
            member_ids=self.member_ids(row),
            member_cols=self.cols_of(int(self.mask[row])),
            t_start=a,
            t_end=b,
            nodes=self._cpos[a : b + 1, self.s0[row]],
            open_ended=bool(self.open_ended[row]),
            long_lived=_KINDS[int(self.long_lived[row])],
            first_activation=None if first < 0 else first,
        )

    def __iter__(self):
        return (self[row] for row in range(len(self)))


def _true_runs(mask: np.ndarray) -> np.ndarray:
    """(R, 2) inclusive [start, end] of the maximal runs of True in a 1-d bool array."""
    runs = np.flatnonzero(np.diff(mask, prepend=False, append=False)).reshape(-1, 2)
    runs[:, 1] -= 1
    return runs


def _tower_runs(v: _TraceView) -> tuple[np.ndarray, ...] | None:
    """The co-location runs that are maximal towers, or None when the
    trace has no rounds or fewer than two robots.

    Returns `s0` and `m` (each member set's lowest column and bitmask, one
    entry per set of two or more columns) and, per tower, `which` (its
    member set), `a` and `b` (its first and last configuration times).
    Reads only the view's co-location masks.
    """
    sets = [cols for size in range(2, v.k + 1) for cols in combinations(range(v.k), size)]
    if not v.h or not sets:
        return None
    # One row per member set: s0's co-location masks over configuration
    # times, and where they include the whole set.
    s0 = np.array([cols[0] for cols in sets])
    m = np.array([sum(1 << c for c in cols) for cols in sets], dtype=v.together.dtype)
    together = np.ascontiguousarray(v.together[:, s0].T)  # (sets, H+1)
    width = v.h + 1
    inside = np.zeros((len(sets), width + 2), dtype=bool)
    inside[:, 1:-1] = (together & m[:, None]) == m[:, None]
    # Runs of True start and end at the flips of each padded row; the rows
    # start and end False, so flips pair up within a row.  `which` is the
    # member set of each run.
    flips = np.flatnonzero(inside[:, 1:] != inside[:, :-1])
    which, a = np.divmod(flips[0::2], width + 1)
    b = flips[1::2] - which * (width + 1) - 1
    # The AND of s0's co-location masks over a run is the largest set
    # co-located with s0 through the whole run, so the member set cannot
    # be extended exactly when that AND is m.  reduceat ANDs the half-open
    # [a, b) of the flattened rows (b may be the last time); time b joins
    # after.
    flat = together.ravel()
    lo, hi = which * width + a, which * width + b
    whole = np.bitwise_and.reduceat(flat, np.stack([lo, hi], axis=1).ravel())[0::2] & flat[hi]
    keep = whole == m[which]
    return s0, m, which[keep], a[keep], b[keep]


def count_towers(trace: Trace) -> int:
    """`len(detect_towers(trace))`, from the co-location runs alone: no
    edge activations, first activations or table are built."""
    runs = _tower_runs(_view_of(trace))
    return 0 if runs is None else len(runs[2])


def detect_towers(trace: Trace) -> TowerTable:
    """All maximal towers of the trace, classified long/short-lived.

    Maximality is two-sided: the interval cannot be extended for the
    member set, and the member set cannot be extended over the same
    interval.  Co-movement inside the interval is implied by co-location
    at consecutive times on a ring with n >= 3 (a round moves a robot by
    at most one node), so detection reduces to co-location runs.
    """
    v = _view_of(trace)
    runs = _tower_runs(v)
    if runs is None:
        return TowerTable(v, *[np.empty(0, dtype=np.int64)] * 5)
    s0, m, which, a, b = runs
    # s0 stands on the tower's node, so its activations are the tower's;
    # v.h stands for none.  Rounds a..b-1 are inside the interval, and for
    # a closed tower round b is the breaking round.
    first = np.empty_like(a)
    anchor = s0[which]
    for c in range(v.k - 1):  # every set's lowest column
        acts = v.activations[c]
        on = anchor == c
        first[on] = np.append(acts, v.h)[np.searchsorted(acts, a[on])]
    active = first < b
    return TowerTable(
        v,
        m.astype(np.int64)[which],
        a,
        b,
        np.where(active, first, -1),
        np.where(active, 1, np.where(b == v.h, -1, 0)),
    )


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
    if window is not None and window < 1:
        raise ValueError(f"window must be >= 1, got {window}")  # a gap is at least 1
    if not 0 <= suffix_start < horizon:
        raise ValueError(f"suffix_start {suffix_start} outside 0..{horizon - 1}")
    if window is not None and horizon - suffix_start < window:
        raise ValueError(
            f"trace suffix of length {horizon - suffix_start} is shorter than window {window}"
        )
    occupied = _view_of(trace).occupied[suffix_start:]
    span = occupied.size - 1  # config times suffix_start .. horizon
    node_max_gap: dict[int, int | None] = {}
    node_visits: dict[int, int] = {}
    node_visit_rounds: dict[int, np.ndarray] = {}
    worst_gap = 0
    starved = None
    for v in range(trace.n):
        ts = np.flatnonzero(occupied & 1 << v)
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
    return _view_of(trace).coherence[cols[robot_id]]


def trace_t_max(trace: Trace) -> int | None:
    """Max coherence round over all robots; None if some robot never activates."""
    return _view_of(trace).t_max


@dataclass(frozen=True)
class Violation:
    monitor: str
    round: int
    detail: str


class _TraceView:
    """A trace's columns and the Look-phase arrays derived from them, each
    computed the first time it is read.

    The view holds the trace's columns, not the trace, so `_view_of` can
    keep it in `trace._cache` without a reference cycle.
    """

    def __init__(self, trace: Trace):
        self.n, self.h, self.k = trace.n, trace.rounds, trace.pos.shape[1]
        self.robot_ids, self.initial = trace.robot_ids, trace.meta["robots"]
        self.edges, self.pos, self.gdir_cw, self.moved = (
            trace.edges, trace.pos, trace.gdir_cw, trace.moved
        )
        self.idx, self.nrpea, self.hmpea = trace.idx, trace.nrpea, trace.hmpea
        self.cpos = trace.config_positions()

    def _entering(self, column: np.ndarray, key: str, convert=None) -> np.ndarray:
        """(H, k) value held at Look: the header's in round 0, then the previous round's."""
        first = [convert(r[key]) if convert else r[key] for r in self.initial]
        return np.vstack([np.array(first, dtype=column.dtype)[None, :], column[:-1]])

    def vs_look(self, op, values: np.ndarray, column: np.ndarray, key: str) -> np.ndarray:
        """(H, k) bool `op(values, column as held at Look)`.

        Round 0 compares with the header's `key` values and later rounds
        with the column shifted by one round, so no (H, k) copy of the
        Look-phase values is made; `_entering` makes one for bool columns.
        """
        out = np.empty((self.h, self.k), dtype=bool)
        first = np.array([r[key] for r in self.initial], dtype=column.dtype)
        out[0] = op(values[0], first)
        out[1:] = op(values[1:], column[:-1])
        return out

    def look_at(self, column: np.ndarray, key: str, t: int, r: int):
        """The value of `column` robot column r held at Look in round t."""
        return self.initial[r][key] if t == 0 else column[t - 1, r].item()

    @cached_property
    def dir_look(self) -> np.ndarray:
        return self._entering(self.gdir_cw, "gdir", "CW".__eq__)

    @cached_property
    def hmpea_look(self) -> np.ndarray:
        return self._entering(self.hmpea, "hmpea")

    @cached_property
    def together(self) -> np.ndarray:
        """(H+1, k) bitmask of the robots on robot r's node at configuration time t."""
        out = np.zeros(self.cpos.shape, dtype=np.min_scalar_type((1 << self.k) - 1))
        for c in range(self.k):
            out |= (self.cpos == self.cpos[:, c : c + 1]).astype(out.dtype) << c
        return out

    @cached_property
    def here(self) -> np.ndarray:
        """(H, k) robots on each robot's node at Look, in the smallest dtype holding k."""
        out = np.zeros(self.pos.shape, dtype=np.min_scalar_type(self.k))
        for c in range(self.k):
            out += self.pos == self.pos[:, c : c + 1]
        return out

    @cached_property
    def occupied(self) -> np.ndarray:
        """(H+1,) int64 bitmask of the occupied nodes at each configuration time (n <= 63)."""
        out = np.zeros(self.h + 1, dtype=np.int64)
        for c in range(self.k):
            out |= np.left_shift(1, self.cpos[:, c], dtype=np.int64)
        return out

    def _present(self, edge: np.ndarray) -> np.ndarray:
        """(H, k) presence of edge `edge[t, r]` in round t."""
        bits = self.edges[:, None] >> edge
        bits &= 1
        return bits.astype(bool)

    @cached_property
    def cw(self) -> np.ndarray:
        """(H, k) presence of each robot's clockwise edge; `ccw` likewise."""
        return self._present(self.pos)

    @cached_property
    def ccw(self) -> np.ndarray:
        return self._present((self.pos - 1) % self.n)

    @cached_property
    def adjacent(self) -> np.ndarray:
        """(H, k) edge-activated flag; the one place edge activation is derived."""
        return self.cw | self.ccw

    @cached_property
    def activations(self) -> list[np.ndarray]:
        """Edge-activated rounds of every robot column, ascending."""
        return [np.flatnonzero(self.adjacent[:, c]) for c in range(self.k)]

    @cached_property
    def coherence(self) -> list[int | None]:
        """Coherence round of every robot column (see `coherence_round`)."""
        return [int(acts[0]) + 1 if acts.size else None for acts in self.activations]

    @cached_property
    def t_max(self) -> int | None:
        return None if None in self.coherence else max(self.coherence)

    @cached_property
    def stuck(self) -> np.ndarray:
        """(H, k) "stuck in the same direction with others" at Look."""
        ahead = np.where(self.dir_look, self.cw, self.ccw)
        behind = np.where(self.dir_look, self.ccw, self.cw)
        here = self.here
        same = self.vs_look(np.equal, here, self.nrpea, "nrpea")
        return (here > 1) & same & ~ahead & behind & ~self.hmpea_look

    @cached_property
    def more(self) -> np.ndarray:
        """(H, k) "was stuck, and more robots arrived" at Look."""
        more = self.vs_look(np.greater, self.here, self.nrpea, "nrpea")
        return more & ~self.hmpea_look & self.adjacent


def _view_of(trace: Trace) -> _TraceView:
    """The one view of `trace`, made on first use."""
    view = trace._cache.get("view")
    if view is None:
        view = trace._cache["view"] = _TraceView(trace)
    return view


def _report(out: list[Violation], monitor: str, bad: np.ndarray, detail) -> None:
    """One violation per true cell (round, robot column) of `bad`."""
    if bad.any():  # much cheaper than nonzero on a clean trace
        out.extend(Violation(monitor, int(t), detail(t, r)) for t, r in zip(*np.nonzero(bad)))


def _monitor_coherence(v: _TraceView, out: list[Violation]) -> None:
    """Bookkeeping refreshed exactly at edge-activated rounds (and only there)."""
    act, ids = v.adjacent, v.robot_ids
    _report(out, "coherence", act & (v.nrpea != v.here), lambda t, r: (
        f"robot {ids[r]}: nrpea {int(v.nrpea[t, r])} != "
        f"robots on node {int(v.here[t, r])} at edge-activated round"
    ))
    _report(out, "coherence", act & (v.hmpea != v.moved), lambda t, r: (
        f"robot {ids[r]}: hmpea {bool(v.hmpea[t, r])} != "
        f"moved {bool(v.moved[t, r])} at edge-activated round"
    ))
    changed = (
        v.vs_look(np.not_equal, v.nrpea, v.nrpea, "nrpea")
        | (v.hmpea != v.hmpea_look)
        | v.vs_look(np.not_equal, v.idx, v.idx, "i")
        | (v.gdir_cw != v.dir_look)
        | v.moved
    )
    _report(out, "frozen-between-activations", ~act & changed, lambda t, r: (
        f"robot {ids[r]} changed state or moved without an adjacent edge"
    ))


def _monitor_movement(v: _TraceView, out: list[Violation]) -> None:
    """Moves are +-1 across a present edge in the pointed global direction."""
    ids = v.robot_ids
    expected_move = np.where(v.gdir_cw, v.cw, v.ccw)
    _report(out, "movement-legality", v.moved != expected_move, lambda t, r: (
        f"robot {ids[r]}: moved={bool(v.moved[t, r])} but edge in pointed "
        f"direction present={bool(expected_move[t, r])}"
    ))
    # int16 like the positions: (H, k) int64 temporaries here would set the
    # memory peak of a long trace's analysis.
    delta = np.where(v.gdir_cw, np.int16(1), np.int16(-1))
    want = np.where(v.moved, (v.pos + delta) % v.n, v.pos)
    after = v.cpos[1:]
    _report(out, "movement-legality", want != after, lambda t, r: (
        f"robot {ids[r]}: position {int(after[t, r])} inconsistent with move flag/direction"
    ))


def _monitor_index_advance(v: _TraceView, out: list[Violation]) -> None:
    """The read index advances round-robin, exactly on stuck-together rounds."""
    ids = v.robot_ids
    changed = v.vs_look(np.not_equal, v.idx, v.idx, "i")
    ells = np.array([transformed_length(rid) for rid in ids])
    unexpected = v.vs_look(lambda idx, look: idx != look % ells + 1, v.idx, v.idx, "i")
    _report(out, "index-advance", changed & unexpected, lambda t, r: (
        f"robot {ids[r]}: read index {v.look_at(v.idx, 'i', t, r)} -> "
        f"{int(v.idx[t, r])}, round-robin expects {v.look_at(v.idx, 'i', t, r) % ells[r] + 1}"
    ))
    _report(out, "index-advance", changed != v.stuck, lambda t, r: (
        f"robot {ids[r]}: index change={bool(changed[t, r])} but "
        f"stuck-in-same-direction={bool(v.stuck[t, r])}"
    ))


def _monitor_observation(v: _TraceView, out: list[Violation]) -> None:
    """With three robots, at least two share a global direction each round."""
    if v.k != 3:
        return
    cw_count = v.gdir_cw.sum(axis=1)
    share = np.maximum(cw_count, v.k - cw_count)
    for tt in np.nonzero(share < 2)[0]:
        out.append(Violation("observation-two-share-direction", int(tt), "pigeonhole broken"))


def _member_coherence(v: _TraceView, cols: Sequence[int]) -> int | None:
    starts = [v.coherence[c] for c in cols]
    return None if None in starts else max(starts)


def _split(values: np.ndarray, cols: Sequence[int]) -> np.ndarray:
    """Per row of `values`: whether the member columns `cols` differ."""
    out = values[:, cols[1]] != values[:, cols[0]]
    for c in cols[2:]:
        out |= values[:, c] != values[:, cols[0]]
    return out


def _hits(flags: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """True flags in each inclusive interval [lo, hi]; none when hi < lo."""
    csum = np.concatenate(([0], np.cumsum(flags, dtype=np.int32)))
    return csum[np.maximum(hi + 1, lo)] - csum[lo]


def _split_towers(flags: np.ndarray, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(row, flagged rounds) of the rows whose interval [lo, hi] holds a flag."""
    for j in np.flatnonzero(_hits(flags, lo, hi)).tolist():
        yield int(rows[j]), (lo[j] + np.flatnonzero(flags[lo[j] : hi[j] + 1])).tolist()


def _monitor_tower_agreement(v: _TraceView, towers: TowerTable, out: list[Violation]) -> None:
    """Long-lived tower members agree on the global direction at every Look."""
    dir_at = np.vstack([v.dir_look, v.gdir_cw[-1:]])  # configuration times 0..H
    found = []
    for cols, rows in towers.groups(towers.long_lived == 1):
        coh = _member_coherence(v, cols)
        if coh is not None:
            lo = np.maximum(towers.t_start[rows], coh)
            hi = np.minimum(towers.t_end[rows], v.h)
            found.extend(_split_towers(_split(dir_at, cols), rows, lo, hi))
    for row, rounds in sorted(found):
        detail = (f"long-lived tower {towers.member_ids(row)} "
                  f"members consider different global directions")
        out.extend(Violation("tower-direction-agreement", t, detail) for t in rounds)


def _monitor_tower_predicates(
    v: _TraceView, towers: TowerTable, algo: str, out: list[Violation]
) -> None:
    """After the tower is edge-activated (twice, for the 2-robot rule), its
    members evaluate the direction-changing predicates identically."""
    activations_needed = 1 if algo == ALGO_PEF3 else 2
    found = []
    for cols, rows in towers.groups(towers.long_lived == 1):
        acts = v.activations[cols[0]]
        lo = np.searchsorted(acts, towers.t_start[rows])
        hi = np.searchsorted(acts, np.minimum(towers.t_end[rows], v.h))
        start = np.append(acts, [v.h] * activations_needed)[lo + activations_needed - 1] + 1
        stop = np.minimum(towers.t_end[rows], v.h - 1)
        start = np.where(hi - lo < activations_needed, stop + 1, start)
        split = _split(v.stuck, cols)
        if algo == ALGO_PEF3:
            split |= _split(v.more, cols)
        found.extend(_split_towers(split, rows, start, stop))
    for row, rounds in sorted(found):
        detail = (f"long-lived tower {towers.member_ids(row)} "
                  f"members disagree on a direction-changing predicate")
        out.extend(Violation("tower-predicate-agreement", t, detail) for t in rounds)


def _monitor_tower_formation(
    v: _TraceView, towers: TowerTable, algo: str, out: list[Violation]
) -> None:
    """New k-long-lived towers cannot arise; 3-towers need a 2-long-lived parent."""
    two_long = (towers.size == 2) & (towers.long_lived == 1)
    if v.k == 3:
        # Rows are sorted by start, so with the latest end reached so far
        # some 2-long-lived interval covers time t iff the latest end
        # among those starting by t reaches t.
        starts = towers.t_start[two_long]
        reach = np.append(-1, np.maximum.accumulate(towers.t_end[two_long]))
        three = np.flatnonzero((towers.size == 3) & (towers.t_start >= 1))
        a = towers.t_start[three]
        orphan = reach[np.searchsorted(starts, a - 1, side="right")] < a - 1
        out.extend(
            Violation("three-tower-needs-two-long-lived", t, f"3-robot tower formed at {t} "
                      f"without a 2-long-lived tower present at {t - 1}")
            for t in a[orphan].tolist()
        )
        out.extend(
            Violation("no-new-three-long-lived", int(towers.t_start[row]), f"3-long-lived tower "
                      f"{towers.member_ids(row)} begins at {int(towers.t_start[row])} after a "
                      f"configuration without one")
            for row in three[towers.long_lived[three] == 1].tolist()
        )
    if algo == ALGO_PEF2 and v.k == 2:
        out.extend(
            Violation("no-new-two-long-lived", t, f"2-long-lived tower begins at "
                      f"{t} after a configuration without one")
            for t in towers.t_start[two_long & (towers.t_start >= 1)].tolist()
        )


def _monitor_ring_visited(v: _TraceView, towers: TowerTable, out: list[Violation]) -> None:
    """All nodes are visited between consecutive qualifying 2-long-lived towers."""
    if v.k != 3 or v.t_max is None:
        return
    if ((towers.size == 3) & (towers.long_lived == 1)).any():
        return
    rows = np.flatnonzero(
        (towers.size == 2) & (towers.long_lived == 1) & ~towers.open_ended
        & (towers.t_start >= v.t_max)
    )
    if rows.size < 2:
        return
    # Rows are sorted by start; pair i is (cur, nxt) = (rows[i], rows[i + 1]).
    cur_start, cur_end = towers.t_start[rows[:-1]], towers.t_end[rows[:-1]]
    nxt_start = towers.t_start[rows[1:]]
    gap = nxt_start > cur_end + 1
    adjacent = (nxt_start == cur_end + 1) & (np.arange(len(nxt_start)) >= 1)
    lo = np.where(gap, cur_end, np.maximum(cur_start - 1, 0))[gap | adjacent]
    hi = nxt_start[gap | adjacent] - 1
    if not lo.size:
        return
    # Occupied nodes ORed over each interval [lo, hi]: reduceat ORs the
    # half-open [lo, hi), and time hi joins after.
    seen = np.bitwise_or.reduceat(v.occupied, np.stack([lo, hi], axis=1).ravel())[0::2]
    missing = ((1 << v.n) - 1) & ~(seen | v.occupied[hi])
    for j in np.flatnonzero(missing).tolist():
        nodes = [node for node in range(v.n) if int(missing[j]) >> node & 1]
        out.append(Violation("ring-visited-between-towers", int(hi[j]) + 1, f"nodes {nodes} "
                             f"not visited in [{lo[j]},{hi[j]}] between consecutive 2-long-lived "
                             f"towers"))


def _monitor_break_bound(v: _TraceView, towers: TowerTable, out: list[Violation]) -> None:
    """A stuck long-lived tower must break within the word-divergence budget."""
    ids = v.robot_ids
    found = []
    for cols, rows in towers.groups(towers.long_lived == 1):
        stuck = v.stuck[:, cols[0]].copy()
        for c in cols[1:]:
            stuck &= v.stuck[:, c]
        calls = _hits(stuck, towers.t_start[rows], np.minimum(towers.t_end[rows], v.h - 1))
        cap = min(
            2 * transformed_length(ids[a]) * transformed_length(ids[b])
            for a, b in combinations(cols, 2)
        )
        over = calls > cap
        found.extend((row, c, cap) for row, c in zip(rows[over].tolist(), calls[over].tolist()))
    for row, calls, cap in sorted(found):
        out.append(Violation("tower-break-bound", int(towers.t_start[row]), f"tower "
                             f"{towers.member_ids(row)} saw {calls} synchronized stuck "
                             f"rounds, bound is {cap}"))


def monitor_lemmas(trace: Trace, towers: TowerTable | None = None) -> list[Violation]:
    """Run every applicable invariant monitor over the trace."""
    v = _view_of(trace)
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
    v = _view_of(trace)
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
        for start in _true_runs(at)[:, 0].tolist():
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
