"""Dynamic rings as round-indexed edge schedules.

A ring has n >= 3 anonymous nodes; edge k joins node k and node
(k+1) mod n, and clockwise is the direction of increasing node index.
A `Schedule` is the ring's presence function: for every round t, the
bitmask of the edges present in round t (bit k for edge k).  Schedules are
deterministic generators (pure in their seed and parameters) so that
infinite-horizon semantics are well defined while any prefix can be
materialized and inspected.

Edge classes, from most to least constrained: static (every edge present
every round), edge-recurrent (every edge present infinitely often, here
witnessed by a bound B on consecutive absences), connected-over-time
(recurrent edges form a connected graph; on a ring that allows at most
one eventually-missing edge).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral
from typing import Iterable

import numpy as np

INF = math.inf


class Schedule:
    """Deterministic mapping from round index to present-edge bitmask."""

    n: int

    def masks(self, horizon: int) -> list[int]:
        """Present-edge bitmasks for rounds 0..horizon-1, as a new list
        that the caller may change."""
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


class StaticSchedule(Schedule):
    """All footprint edges present every round."""

    def __init__(self, n: int):
        self.n = n
        self._mask = (1 << n) - 1

    def masks(self, horizon: int) -> list[int]:
        return [self._mask] * horizon

    def describe(self) -> dict:
        return {"kind": "static"}


class RecurrentRandomSchedule(Schedule):
    """Seeded Bernoulli presence patched to an explicit recurrence bound.

    Each edge is independently present with probability p each round; the
    patch then forces a presence whenever an edge would otherwise sit
    absent for B consecutive rounds, so every length-B window contains at
    least one presence of every edge.  The bound B is a simulation device
    that makes edge-recurrence witness-checkable on finite prefixes, not a
    model assumption.

    Rounds are materialized in fixed-size blocks with per-block child
    seeds, so the realized schedule depends only on (n, p, B, seed), never
    on the query pattern.
    """

    BLOCK = 2048

    def __init__(self, n: int, p: float, recurrence_bound: int, seed: int):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"presence probability must be in [0,1], got {p}")
        if recurrence_bound < 1:
            raise ValueError(f"recurrence bound must be >= 1, got {recurrence_bound}")
        self.n = n
        self.p = p
        self.recurrence_bound = recurrence_bound
        self.seed = seed
        self._materialized: list[int] = []
        # Rounds since the last raw (unpatched) presence, per edge, at the
        # point materialization stopped.  Forced presences are a pure
        # function of raw-gap arithmetic: inside a raw gap starting at a,
        # the patch inserts a+B, a+2B, ... which is exactly "raw absence
        # distance divisible by B".
        self._carry = np.zeros(n, dtype=np.int64)

    def _extend_block(self) -> None:
        block_index = len(self._materialized) // self.BLOCK
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(block_index,))
        )
        raw = rng.random((self.BLOCK, self.n)) < self.p
        pos = np.arange(self.BLOCK, dtype=np.int64)[:, None]
        last_raw = np.where(raw, pos, np.int64(-(1 << 40)))
        virtual = (-(self._carry + 1))[None, :]
        last_raw = np.maximum.accumulate(np.vstack([virtual, last_raw]), axis=0)[1:]
        distance = pos - last_raw
        forced = ~raw & (distance % self.recurrence_bound == 0)
        present = raw | forced
        self._carry = (self.BLOCK - 1) - last_raw[-1]
        weights = 1 << np.arange(self.n, dtype=np.int64)
        self._materialized.extend(int(m) for m in present.astype(np.int64) @ weights)

    def masks(self, horizon: int) -> list[int]:
        while len(self._materialized) < horizon:
            self._extend_block()
        return self._materialized[:horizon]

    def describe(self) -> dict:
        return {
            "kind": "recurrent",
            "p": self.p,
            "recurrence_bound": self.recurrence_bound,
            "seed": self.seed,
        }


class RemovalSchedule(Schedule):
    """Inner schedule with the removal operator applied.

    Each removal `(edge, start, end)` takes `edge` away over the closed
    round interval [start, end], and `end` may be INF.  Edge e is present
    at t in the result iff it is present in the inner schedule and no
    removal of e covers t.  The triples are kept as given.
    """

    def __init__(self, inner: Schedule, removals: Iterable[tuple[int, int, float]]):
        self.n = inner.n
        self.inner = inner
        self.removals = tuple((edge, start, end) for edge, start, end in removals)
        for edge, start, end in self.removals:
            if not isinstance(edge, Integral) or not 0 <= edge < self.n:
                raise ValueError(f"unknown edge index {edge} for ring of size {self.n}")
            if start < 0:
                raise ValueError(f"removal start must be >= 0, got {start}")
            if end < start:
                raise ValueError(f"removal interval [{start},{end}] is empty")

    def masks(self, horizon: int) -> list[int]:
        out = self.inner.masks(horizon)
        for edge, start, end in self.removals:
            lo = math.ceil(start)
            hi = horizon if end == INF else min(math.floor(end) + 1, horizon)
            if lo < hi:
                clear = ~(1 << edge)
                out[lo:hi] = [m & clear for m in out[lo:hi]]
        return out

    def describe(self) -> dict:
        # The inner description is nested, not merged, so that the kind of
        # the schedule underneath (an eventual missing edge, say) survives.
        return {
            "kind": "removal_list",
            "removals": [
                [edge, start, "inf" if end == INF else end] for edge, start, end in self.removals
            ],
            "inner": self.inner.describe(),
        }


class EventualMissingSchedule(RemovalSchedule):
    """An inner schedule with one edge forced absent from a cutoff round on:
    the single removal `(missing_edge, cutoff, INF)`."""

    def __init__(self, inner: Schedule, missing_edge: int, cutoff: int):
        super().__init__(inner, [(missing_edge, cutoff, INF)])
        self.missing_edge = missing_edge
        self.cutoff = cutoff
        forced_missing_edge(self)  # rejects a second edge missing forever

    def describe(self) -> dict:
        d = self.inner.describe()
        d.update(
            {"kind": "eventual_missing", "missing_edge": self.missing_edge, "cutoff": self.cutoff}
        )
        return d


def eventual_missing_description(description) -> dict | None:
    """The `eventual_missing` layer of a `Schedule.describe()` chain, if any."""
    while isinstance(description, dict):
        if description.get("kind") == "eventual_missing":
            return description
        description = description.get("inner")
    return None


def forced_missing_edge(schedule: Schedule) -> int | None:
    """The edge a schedule chain forces absent forever, if any.

    Raises ValueError when the chain forces two or more edges absent
    forever: such a ring is not connected-over-time.
    """
    edges: set[int] = set()
    s: Schedule | None = schedule
    while s is not None:
        if isinstance(s, RemovalSchedule):
            edges.update(edge for edge, _, end in s.removals if end == INF)
        s = getattr(s, "inner", None)
    if len(edges) > 1:
        raise ValueError(
            "a ring schedule may force at most one eventually missing edge "
            f"(forced missing: {sorted(edges)})"
        )
    return next(iter(edges), None)


class EdgeClass(Enum):
    STATIC = "static"
    EDGE_RECURRENT = "edge_recurrent"
    CONNECTED_OVER_TIME = "connected_over_time"


@dataclass
class ClassifyReport:
    """Provisional edge-class verdict computed on a finite prefix.

    Any finite-horizon verdict is necessarily provisional: a static-looking
    prefix says nothing about later rounds.  `verdict` is None when the
    prefix already contradicts connected-over-time on a ring (two or more
    edges absent through a suffix).
    """

    horizon: int
    recurrence_bound: int
    provisional: bool = True
    verdict: EdgeClass | None = None
    static_edges: set[int] = field(default_factory=set)
    recurrent_edges: set[int] = field(default_factory=set)
    missing_candidates: dict[int, int] = field(default_factory=dict)  # edge -> cutoff


def classify_prefix(schedule: Schedule, horizon: int, recurrence_bound: int) -> ClassifyReport:
    """Scan rounds [0, horizon) and report per-edge witnesses plus a verdict.

    An edge is a static witness if present every round, a recurrence
    witness if no absence run reaches `recurrence_bound`, and an
    eventual-missing candidate if absent through a suffix at least
    `recurrence_bound` rounds long (shorter tail absences are ordinary
    recurrent behaviour); its cutoff is the first round of that suffix.
    """
    if not horizon >= recurrence_bound >= 1:
        raise ValueError("need horizon >= recurrence_bound >= 1")
    n = schedule.n
    masks = schedule.masks(horizon)
    report = ClassifyReport(horizon=horizon, recurrence_bound=recurrence_bound)
    for e in range(n):
        max_run = 0
        run = 0
        last_present = -1
        for t, mask in enumerate(masks):
            if mask >> e & 1:
                last_present = t
                run = 0
            else:
                run += 1
                if run > max_run:
                    max_run = run
        if max_run == 0:
            report.static_edges.add(e)
        if max_run < recurrence_bound:
            report.recurrent_edges.add(e)
        if horizon - 1 - last_present >= recurrence_bound:
            report.missing_candidates[e] = last_present + 1
    if len(report.static_edges) == n:
        report.verdict = EdgeClass.STATIC
    elif len(report.recurrent_edges) == n:
        report.verdict = EdgeClass.EDGE_RECURRENT
    elif len(report.missing_candidates) == 1 and len(report.recurrent_edges) == n - 1:
        report.verdict = EdgeClass.CONNECTED_OVER_TIME
    elif len(report.missing_candidates) <= 1:
        # Some edge has long absences yet no absent suffix: recurrence bound
        # not witnessed at B, but nothing rules out connected-over-time.
        report.verdict = EdgeClass.CONNECTED_OVER_TIME
    else:
        report.verdict = None
    return report

