"""Synchronous Look-Compute-Move execution on an evolving ring.

Round t runs entirely on the round-t edge set: every robot freezes a
snapshot (Look), every robot computes its new state from its *pre-round*
state and that snapshot (Compute), then every robot pointing at a present
edge crosses it simultaneously (Move).  Robots crossing the same edge in
opposite directions swap without noticing each other; the model only
grants multiplicity detection on nodes.

Two implementations of the round exist on purpose: `step` composes the
robot_core transitions and is the readable reference; `run_states` moves
each robot by `_local_step`, one pure rule over the robot's own
variables, the robot count on its node and its two edges.  That rule is
memoized in a `_LocalTable`, a dense list filled as it is used, so a long
run computes each distinct (local state, observation) pair once.  Every
run builds its own table; the game searches in `adversary` step through
one table per cohort, shared by every search of that cohort in the
process.  Property tests hold the two bit-identical.

`run_states` has one loop over that table: every round, every robot
steps through it, under the schedule's mask or the one a reactive
strategy chooses.  A strategy that exposes its `state` is stepped only
until the run closes its lasso; the rest of the run is tiled from the
loop.

Traces are stored columnar (one numpy array per field) with the canonical
per-round robot state being the post-Compute one; the line-delimited file
format is documented in the README.
"""
from __future__ import annotations

import json
import random
import re
import threading
from dataclasses import dataclass, field, replace
from typing import IO, Iterable, Sequence

import numpy as np

from .directions import Chirality, Direction, GlobalDirection, to_global
from .ring_model import Schedule, eventual_missing_description
from .words import transformed_length
from .robot_core import (
    KNOWN_MUTATIONS,
    MUTATION_FREEZE_HMPEA,
    MUTATION_LITERAL_INDEX,
    MUTATION_SKIP_UPDATE,
    NO_MUTATIONS,
    LookSnapshot,
    RobotState,
    compute_pef2,
    compute_pef3,
    global_direction,
)

ALGO_PEF3 = "pef3"
ALGO_PEF2 = "pef2"

# Edge masks are int64, so a ring has at most 63 edges.
MAX_N = 63
# Rounds per numpy conversion when recording or reading a trace, and per
# `write` call when writing one.
_CHUNK_ROUNDS = 4096
# The per-round columns of a Trace, in the order they are recorded.
_COLUMNS = (
    ("edges", np.int64),
    ("pos", np.int16),
    ("gdir_cw", bool),
    ("idx", np.int64),
    ("nrpea", np.int64),
    ("hmpea", bool),
    ("moved", bool),
)


@dataclass(frozen=True)
class Configuration:
    """Round snapshot: positions and full variable sets of all robots."""

    round: int
    robots: tuple[RobotState, ...]

    def __post_init__(self) -> None:
        ids = [r.id for r in self.robots]
        if len(set(ids)) != len(ids):
            raise ValueError(f"robot ids must be pairwise distinct, got {ids}")

    def positions(self) -> tuple[int, ...]:
        return tuple(r.position for r in self.robots)


def build_snapshot(state: RobotState, positions: Sequence[int], mask: int, n: int) -> LookSnapshot:
    """Look-phase view of one robot: multiplicity plus its two local ports."""
    p = state.position
    robots_here = sum(1 for q in positions if q == p)
    cw_present = bool(mask >> p & 1)
    ccw_present = bool(mask >> ((p - 1) % n) & 1)
    if state.chirality is Chirality.RIGHT_IS_CLOCKWISE:
        return LookSnapshot(robots_here, edge_left=ccw_present, edge_right=cw_present)
    return LookSnapshot(robots_here, edge_left=cw_present, edge_right=ccw_present)


def step(
    config: Configuration,
    edges: int | Iterable[int],
    algo: str,
    n: int,
    mutations: frozenset[str] = NO_MUTATIONS,
) -> Configuration:
    """Reference implementation of one synchronous round.

    `edges` is either a present-edge bitmask or an iterable of edge
    indices.  All snapshots are taken before any Compute; all moves happen
    after every Compute, so no robot observes a same-round change.
    """
    mask = edges if isinstance(edges, int) else _mask_of(edges)
    compute = compute_pef3 if algo == ALGO_PEF3 else compute_pef2
    positions = config.positions()
    snaps = [build_snapshot(s, positions, mask, n) for s in config.robots]
    computed = tuple(compute(s, snap, mutations) for s, snap in zip(config.robots, snaps))
    moved_states = []
    for s, snap in zip(computed, snaps):
        if snap.exists_current_dir(s.direction):
            delta = 1 if global_direction(s) is GlobalDirection.CLOCKWISE else -1
            s = replace(s, position=(s.position + delta) % n)
        moved_states.append(s)
    return Configuration(round=config.round + 1, robots=tuple(moved_states))


def _mask_of(edges: Iterable[int]) -> int:
    mask = 0
    for e in edges:
        mask |= 1 << e
    return mask


def _local_step(
    right: bool,
    i: int,
    nrpea: int,
    hmpea: int,
    here: int,
    cw: int,
    ccw: int,
    pef3: bool,
    cw_frame: bool,
    word: str,
    literal_index: bool,
    freeze_hmpea: bool,
    skip_update: bool,
) -> tuple[bool, int, int, int, int]:
    """One robot's Compute and Update, and its step in Move.

    Reads only the robot's local variables (`right`: its direction is
    RIGHT), the robot count on its node, the presence (0 or 1) of its
    clockwise and counter-clockwise edges, and the run constants:
    algorithm, chirality (`cw_frame`: RIGHT is clockwise), bit word and
    mutation flags.  Returns the new (right, i, nrpea, hmpea) and the
    step: 0 to stay, 1 clockwise, -1 counter-clockwise.  Semantically
    identical to the robot_core rules that `step` composes.
    """
    gcw = right == cw_frame
    cur = cw if gcw else ccw
    opp = ccw if gcw else cw
    adjacent = cw | ccw
    stuck_together = here > 1 and here == nrpea and not cur and opp and not hmpea
    if stuck_together:
        ell = len(word)
        # Round-robin advance with implicit normalization; in Python,
        # normalize-then-advance collapses to i % ell + 1.
        i = (i + 1) % ell + 1 if literal_index else i % ell + 1
        right = word[i - 1] == "1"
        gcw = right == cw_frame
        cur = cw if gcw else ccw
        opp = ccw if gcw else cw
    if pef3:
        flip = here > nrpea and not hmpea and adjacent
    else:
        flip = here == 1 and not cur and opp
    if flip:
        right = not right
        gcw = not gcw
        cur, opp = opp, cur
    if adjacent and not skip_update:
        nrpea = here
        if not freeze_hmpea:
            hmpea = cur
    return right, i, nrpea, hmpea, (1 if gcw else -1) if cur else 0


def _ports(mask: int, n: int) -> int:
    """Edge bits by node: bit p is node p's counter-clockwise edge and bit
    p + 1 its clockwise edge, so `_ports(mask, n) >> p & 3` is
    `cw << 1 | ccw` at node p.  Bits of `mask` from n up are not read."""
    return mask << 1 | mask >> (n - 1) & 1


class _LocalTable:
    """The per-robot transition table of a cohort, filled as it is used.

    A robot's local state `(r, right, i, nrpea, hmpea)` (its column in the
    cohort and its four variables) is interned once to a code, its id
    shifted left by `shift`.  Compute and Update read only that state, the
    robot count on its node and its two edges, so the key
    `code | here << 2 | cw << 1 | ccw` decides `(next code, step)`.  `next`
    is a dense list indexed by that key: interning a local state appends
    its `1 << shift` slots, all None until `fill` computes the entry by
    `_local_step` the first time the key appears, and equal entries are
    one tuple.

    The table depends only on the algorithm, the mutations and each
    robot's word and chirality.  `run_states` builds one per run, so what
    a fuzzed start interns dies with its run; the game searches and the
    witness reader of `adversary` share one unmutated table per cohort,
    which interns only normal-form states (`i` in 1..ell, `nrpea` at most
    k+1), so it stops growing at 2 * ell * (k+2) * 2 local states per
    robot.
    """

    def __init__(self, algo: str, states: Sequence[RobotState], mutations: frozenset[str]):
        self.pef3 = algo == ALGO_PEF3
        self.chir_cw = [s.chirality is Chirality.RIGHT_IS_CLOCKWISE for s in states]
        self.words = [s.transformed_id for s in states]
        self.flags = (
            MUTATION_LITERAL_INDEX in mutations,
            MUTATION_FREEZE_HMPEA in mutations,
            MUTATION_SKIP_UPDATE in mutations,
        )
        # `here` (at most k) fits below the code's id bits.
        self.shift = len(states).bit_length() + 2
        self.locals: list[tuple] = []
        self.next: list[tuple[int, int] | None] = []
        self._codes: dict[tuple, int] = {}
        self._entries: dict[tuple[int, int], tuple[int, int]] = {}
        # Interning appends to three containers at once; a table shared by
        # searches in several threads must not hand two states one code.
        self._lock = threading.Lock()

    def code(self, local: tuple) -> int:
        """The code of local state `(r, right, i, nrpea, hmpea)`."""
        code = self._codes.get(local)
        if code is None:
            with self._lock:
                code = self._codes.get(local)
                if code is None:
                    code = len(self.locals) << self.shift
                    self.locals.append(local)
                    self.next.extend([None] * (1 << self.shift))
                    self._codes[local] = code
        return code

    def local(self, code: int) -> tuple:
        return self.locals[code >> self.shift]

    def after(self, code: int, here: int, ports: int) -> tuple[int, int]:
        """(next code, step) of a robot in state `code` with `here` robots on
        its node and `ports` = cw << 1 | ccw."""
        key = code | here << 2 | ports
        out = self.next[key]
        return self.fill(key) if out is None else out

    def fill(self, key: int) -> tuple[int, int]:
        """`next[key]`, computed and stored."""
        r, right, i, nrpea, hmpea = self.locals[key >> self.shift]
        here = key >> 2 & (1 << self.shift - 2) - 1
        right, i, nrpea, hmpea, step = _local_step(
            right, i, nrpea, hmpea, here, key >> 1 & 1, key & 1,
            self.pef3, self.chir_cw[r], self.words[r], *self.flags,
        )
        out = (self.code((r, right, i, nrpea, hmpea)), step)
        out = self.next[key] = self._entries.setdefault(out, out)
        return out

    def columns(self, codes: np.ndarray) -> dict[str, np.ndarray]:
        """The `gdir_cw`, `idx`, `nrpea` and `hmpea` columns of the states `codes`."""
        ids = codes >> self.shift
        r, right, i, nrpea, hmpea = zip(*self.locals)
        gdir_cw = np.array(right) == np.array(self.chir_cw)[list(r)]
        return {
            "gdir_cw": gdir_cw.take(ids),
            "idx": np.array(i, dtype=np.int64).take(ids),
            "nrpea": np.array(nrpea, dtype=np.int64).take(ids),
            "hmpea": np.array(hmpea, dtype=bool).take(ids),
        }


@dataclass
class Trace:
    """Scenario metadata plus columnar per-round records.

    `pos` holds positions during the round (before Move); the row of
    configuration-time positions therefore has `rounds + 1` entries, with
    the final one in `final_pos`.  Robot state columns are post-Compute,
    which is the phase all predicates and tower properties talk about.
    Arrays derived from the columns are kept in `_cache` (the
    configuration positions here, the Look-phase view in `analysis`), so a
    copy with a replaced column starts from an empty one.
    """

    meta: dict
    edges: np.ndarray  # (H,) int64 bitmasks
    pos: np.ndarray  # (H, k) int16
    gdir_cw: np.ndarray  # (H, k) bool, post-Compute
    idx: np.ndarray  # (H, k) int64, raw read index
    nrpea: np.ndarray  # (H, k) int64
    hmpea: np.ndarray  # (H, k) bool
    moved: np.ndarray  # (H, k) bool
    final_pos: np.ndarray  # (k,) int16
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return self.meta["n"]

    @property
    def algo(self) -> str:
        return self.meta["algo"]

    @property
    def rounds(self) -> int:
        return int(self.edges.shape[0])

    @property
    def robot_ids(self) -> list[int]:
        return [r["id"] for r in self.meta["robots"]]

    def config_positions(self) -> np.ndarray:
        """(H+1, k) node per robot at configuration times 0..H."""
        out = self._cache.get("config_positions")
        if out is None:
            out = np.vstack([self.pos, self.final_pos[None, :]])
            self._cache["config_positions"] = out
        return out


@dataclass
class RunView:
    """Read-only window a reactive adversary gets each round: the ring and
    the robots' pre-round positions and variables.

    Strategies must not mutate the lists.
    """

    n: int
    full_mask: int
    pos: list[int]
    dir_right: list[bool]
    chir_cw: list[bool]
    idx: list[int]
    nrpea: list[int]
    hmpea: list[int]


class _LiveView(RunView):
    """The RunView `run_states` hands a strategy.

    `pos` and `codes` are the run's own lists for the current
    configuration (so a strategy that mutated them would corrupt the
    run); the variables are decoded from the robots' local-state codes
    when read, so a strategy that reads only positions pays nothing for
    them.
    """

    def __init__(self, n: int, table: _LocalTable):
        self.n, self.full_mask, self.chir_cw = n, (1 << n) - 1, table.chir_cw
        self._table = table
        self.pos: list[int] = []
        self.codes: list[int] = []

    def _field(self, f: int) -> list:
        states, shift = self._table.locals, self._table.shift
        return [states[code >> shift][f] for code in self.codes]

    @property
    def dir_right(self) -> list[bool]:
        return self._field(1)

    @property
    def idx(self) -> list[int]:
        return self._field(2)

    @property
    def nrpea(self) -> list[int]:
        return self._field(3)

    @property
    def hmpea(self) -> list[int]:
        return self._field(4)


def check_cohort(n: int, algo: str, states: Sequence[RobotState]) -> None:
    """ValueError unless `states` is a cohort that `algo` can run on a ring
    of n nodes: n in 3..MAX_N, at least one robot, distinct ids, every
    position a node, and a known algorithm."""
    if not 3 <= n <= MAX_N:
        raise ValueError(f"ring size must be in 3..{MAX_N}, got {n}")
    if not states:
        raise ValueError("the cohort needs at least one robot")
    ids = [s.id for s in states]
    if len(set(ids)) != len(ids):
        raise ValueError(f"robot ids must be pairwise distinct, got {ids}")
    for s in states:
        if not 0 <= s.position < n:
            raise ValueError(f"robot {s.id} position {s.position} outside 0..{n - 1}")
    if algo not in (ALGO_PEF3, ALGO_PEF2):
        raise ValueError(f"algo must be one of {ALGO_PEF3!r}, {ALGO_PEF2!r}, got {algo!r}")


def run_states(
    n: int,
    algo: str,
    states: Sequence[RobotState],
    rounds: int,
    schedule: Schedule | None = None,
    strategy=None,
    mutations: frozenset[str] = NO_MUTATIONS,
    meta_extra: dict | None = None,
) -> Trace:
    """Execute `rounds` synchronous rounds and record the full trace.

    Exactly one of `schedule` and `strategy` must be given; a strategy is
    consulted every round with the live state view and returns the
    bitmask of edges present that round.  Either way each robot steps
    through the run's `_LocalTable` every round, in one loop (`_run`).

    A strategy may also offer a read-only `state`: a hashable value such
    that `(strategy.state, configuration)` before a round decides every
    later `choose_mask` result and the strategy's visible outcome.  Such a
    run is eventually periodic, so it stops at the first round whose pair
    was met before and fills the remaining rounds from that loop; the
    strategy is not asked again, and its own bookkeeping stays as it was
    at that round.  A strategy without `state` is asked every round.
    """
    if (schedule is None) == (strategy is None):
        raise ValueError("provide exactly one of schedule or strategy")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    check_cohort(n, algo, states)
    bad = set(mutations) - KNOWN_MUTATIONS
    if bad:
        raise ValueError(f"unknown mutation flags: {sorted(bad)}")

    table = _LocalTable(algo, states, mutations)
    pos = [s.position for s in states]
    codes = [
        table.code((r, s.direction is Direction.RIGHT, s.i, s.nrpea, int(s.hmpea)))
        for r, s in enumerate(states)
    ]
    masks = schedule.masks(rounds) if strategy is None else None
    edges, pos_col, code_col, final_pos = _run(table, pos, codes, n, rounds, masks, strategy)

    meta = {
        "n": n,
        "algo": algo,
        "rounds": rounds,
        "robots": [
            {
                "id": s.id,
                "pos": s.position,
                "dir": s.direction.value,
                "chirality": s.chirality.value,
                "gdir": to_global(s.direction, s.chirality).value,
                "i": s.i,
                "nrpea": s.nrpea,
                "hmpea": bool(s.hmpea),
            }
            for s in states
        ],
        "mutations": sorted(mutations),
    }
    if meta_extra:
        meta.update(meta_extra)
    # On a ring of n >= 3 nodes a robot moved exactly when its node changed.
    moved = np.empty(pos_col.shape, dtype=bool)
    np.not_equal(pos_col[1:], pos_col[:-1], out=moved[:-1])
    np.not_equal(final_pos, pos_col[-1], out=moved[-1])
    return Trace(
        meta=meta, edges=edges, pos=pos_col, moved=moved, final_pos=final_pos,
        **table.columns(code_col),
    )


def _run(
    table: _LocalTable, pos: list[int], codes: list[int], n: int, rounds: int,
    masks: Sequence[int] | None, strategy,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The edge masks and the (rounds, k) `pos` and code rows of a run, and
    its final positions.

    Each robot steps through `table` every round, under `masks[t]` or
    under the mask `strategy` chooses.  For a strategy with a `state` (see
    `run_states`) the loop stops at the first round t whose key
    `(strategy.state, *pos, *codes)` was met before, at round t1, and the
    recorded rounds [t1, t) are tiled up to `rounds`.
    """
    k = len(pos)
    memo, fill, n1 = table.next, table.fill, n - 1
    # ring[p + step] is the node that `step` leads to from node p.
    ring = [*range(n), 0, n1]
    choose = first = None
    if strategy is not None:
        choose, view, masks = strategy.choose_mask, _LiveView(n, table), []
        # The first round of each (state, *pos, *codes) key.
        if hasattr(strategy, "state"):
            first = {}
    # t1 < t once the run has closed its lasso: round t repeats round t1.
    t1 = rounds
    rec_pos: list[int] = []
    rec_codes: list[int] = []
    pos_chunks: list[np.ndarray] = []
    code_chunks: list[np.ndarray] = []
    # The record lists are emptied into numpy every `_CHUNK_ROUNDS` rounds,
    # so a long run never holds a whole trace as Python lists.
    for start in range(0, rounds, _CHUNK_ROUNDS):
        for t in range(start, min(start + _CHUNK_ROUNDS, rounds)):
            if choose is None:
                mask = masks[t]
            else:
                if first is not None:
                    t1 = first.setdefault((strategy.state, *pos, *codes), t)
                    if t1 < t:
                        break
                view.pos, view.codes = pos, codes
                mask = choose(t, view)
                masks.append(mask)
            rec_pos += pos
            ports = mask << 1 | mask >> n1 & 1  # _ports(mask, n), inlined
            new_pos, new_codes = [], []
            for p, code in zip(pos, codes):
                # _LocalTable.after, inlined.
                key = code | pos.count(p) << 2 | ports >> p & 3
                out = memo[key]
                code, step = fill(key) if out is None else out
                new_pos.append(ring[p + step])
                new_codes.append(code)
            pos, codes = new_pos, new_codes
            rec_codes += codes
        pos_chunks.append(np.array(rec_pos, dtype=np.int16))
        code_chunks.append(np.array(rec_codes, dtype=np.int64))
        rec_pos.clear()
        rec_codes.clear()
        if t1 < t:
            break
    pos_rows, code_rows = (np.concatenate(c).reshape(-1, k) for c in (pos_chunks, code_chunks))
    edges = np.array(masks, dtype=np.int64)
    final = np.array(pos, dtype=np.int16)
    if t1 < t:
        # The lasso closed at round t: rounds t1..t-1 repeat from there on,
        # and the configuration at `rounds` is the one at row rows[rounds].
        rows = np.arange(rounds + 1)
        rows[t:] = t1 + (rows[t:] - t1) % (t - t1)
        final = pos_rows[rows[rounds]]
        pos_rows, code_rows, edges = (a.take(rows[:-1], axis=0) for a in (pos_rows, code_rows, edges))
    return edges, pos_rows, code_rows, final


def _joined(chunks: Sequence[list[np.ndarray]], k: int) -> dict[str, np.ndarray]:
    """Trace columns from flat per-chunk arrays listed in `_COLUMNS` order."""
    out = {}
    for (name, _), parts in zip(_COLUMNS, chunks):
        column = np.concatenate(parts)
        out[name] = column if name == "edges" else column.reshape(-1, k)
    return out


def fuzz_initial(
    n: int,
    robot_ids: Sequence[int],
    rng: random.Random,
    overrides: dict[int, dict] | None = None,
) -> list[RobotState]:
    """Arbitrary initial states, as self-stabilization demands.

    Positions are uniform with stacking allowed; the read index is drawn
    from 0..3*ell-1 so out-of-range values occur and must be normalized
    on first use; nrpea ranges over 0..2k (including impossible values).
    Per-robot `overrides` pin individual fields.
    """
    overrides = overrides or {}
    states = []
    k = len(robot_ids)
    for rid in robot_ids:
        ov = overrides.get(rid, {})
        ell = transformed_length(rid)
        state = RobotState.make(
            rid,
            position=ov.get("pos", rng.randrange(n)),
            direction=ov.get("dir", rng.choice((Direction.LEFT, Direction.RIGHT))),
            chirality=ov.get(
                "chirality",
                rng.choice((Chirality.RIGHT_IS_CLOCKWISE, Chirality.RIGHT_IS_COUNTER_CLOCKWISE)),
            ),
            i=ov.get("i", rng.randrange(0, 3 * ell)),
            nrpea=ov.get("nrpea", rng.randint(0, 2 * k)),
            hmpea=ov.get("hmpea", rng.random() < 0.5),
        )
        states.append(state)
    return states


def _dumps(obj) -> str:
    """The one JSON encoding of trace files: compact, keys sorted."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _dense_rank(col: np.ndarray) -> tuple[np.ndarray, int]:
    """Ranks in 0..size-1 that order the values of `col`, and `size`.

    A column whose values span fewer integers than it has entries is
    ranked by its offset from the minimum, without sorting.
    """
    lo, hi = int(col.min()), int(col.max())
    if hi - lo < col.size:
        # Wrapping int64 arithmetic still lands on the true offset here.
        return col.astype(np.int64) - lo, hi - lo + 1
    values, rank = np.unique(col, return_inverse=True)
    return rank, int(values.size)


def _distinct_rows(columns: Sequence[np.ndarray], rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Code each row by its values across `columns`.

    Returns the code of every row (equal codes for equal rows, numbered
    0.. in value order) and the first row holding each code.  Per-column
    ranks are combined in mixed radix, and the running code is re-ranked
    before a product could leave int64, so any int64 values are safe.
    """
    code = np.zeros(rows, dtype=np.int64)
    count = 1
    for col in columns:
        rank, size = _dense_rank(col)
        if count * size > 2**63:
            code, count = _dense_rank(code)
        code = code * size + rank
        count *= size
    _, first, code = np.unique(code, return_index=True, return_inverse=True)
    return code, first


def write_trace(trace: Trace, out: IO[str]) -> None:
    """Line-delimited trace: one metadata header, then one record per round.

    Every line is compact JSON with sorted keys.  A long trace repeats few
    robot states, so each distinct state of a robot is encoded once, and
    the rounds are emitted from one line template in chunks of
    `_CHUNK_ROUNDS`.
    """
    out.write(_dumps({"format": "ringsweep-trace", "version": 1, "meta": trace.meta}) + "\n")
    ids = trace.robot_ids
    h, k = trace.pos.shape
    if h == 0:
        return
    robot_codes, fragments = [], []
    for r in range(k):
        code, first = _distinct_rows(
            [trace.pos[:, r], trace.gdir_cw[:, r], trace.idx[:, r], trace.nrpea[:, r],
             trace.hmpea[:, r], trace.moved[:, r]],
            h,
        )
        robot_codes.append(code)
        fragments.append([
            _dumps({
                "id": ids[r],
                "pos": int(trace.pos[t, r]),
                "gdir": "CW" if trace.gdir_cw[t, r] else "CCW",
                "i": int(trace.idx[t, r]),
                "nrpea": int(trace.nrpea[t, r]),
                "hmpea": bool(trace.hmpea[t, r]),
                "moved": bool(trace.moved[t, r]),
            })
            for t in first.tolist()
        ])
    line = '{"edges":%d,"robots":[' + ",".join(["%s"] * k) + '],"t":%d}\n'
    for start in range(0, h, _CHUNK_ROUNDS):
        stop = min(start + _CHUNK_ROUNDS, h)
        rounds = zip(
            trace.edges[start:stop].tolist(),
            *(map(frags.__getitem__, code[start:stop].tolist())
              for frags, code in zip(fragments, robot_codes)),
            range(start, stop),
        )
        out.write("".join(map(line.__mod__, rounds)))


def write_trace_file(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_trace(trace, fh)


class TraceParseError(ValueError):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"trace line {line_number}: {message}")
        self.line_number = line_number


# JSON's own integer grammar, so that "007" is left to json.loads to reject,
# cut at 18 digits, which int64 holds: a longer integer is left to json.loads
# and the range checks.
_JSON_NAT = "0|[1-9][0-9]{0,17}"
_JSON_INT = "-?(?:" + _JSON_NAT + ")"
_JSON_BOOL = "true|false"
_FLAGS = {"true": True, "false": False, "CW": True, "CCW": False}
# A robot object's fields in column order.
_ROBOT_KEYS = ("pos", "gdir", "i", "nrpea", "hmpea", "moved")


def _value_checks(n: int) -> dict:
    """What each record value must be on a ring of n nodes, and its test."""

    def within(lo: int, hi: int):
        return lambda x: type(x) is int and lo <= x <= hi

    int64 = ("an int64", within(-(2**63), 2**63 - 1))
    boolean = ("a boolean", lambda x: type(x) is bool)
    return {
        "edges": ("a mask in int64", within(0, 2**63 - 1)),
        "pos": (f"a node 0..{n - 1}", within(0, n - 1)),
        "gdir": ('"CW" or "CCW"', lambda x: x in ("CW", "CCW")),
        "i": int64,
        "nrpea": int64,
        "hmpea": boolean,
        "moved": boolean,
    }


def _checked(checks: dict, obj: dict, keys: Sequence[str], who: str = "") -> list:
    """The values of `keys` in `obj`: KeyError if one is missing, ValueError
    naming the first that does not fit its column."""
    values = [obj[key] for key in keys]
    for key, value in zip(keys, values):
        what, ok = checks[key]
        if not ok(value):
            raise ValueError(f"{who}{key} {_dumps(value)} is not {what}")
    return values


def _robot_pattern(rid, n: int, group: str) -> str:
    """A robot object exactly as `write_trace` emits it for robot `rid` on
    a ring of n nodes, so its position is one of the ring's nodes.

    `group` opens each of its six fields: "(" captures them, in key order
    (gdir, hmpea, i, moved, nrpea, pos), and "(?:" does not.
    """
    nodes = "|".join(map(str, range(n)))
    alternatives = ("CW|CCW", _JSON_BOOL, _JSON_INT, _JSON_BOOL, _JSON_INT, nodes)
    gdir, hmpea, i, moved, nrpea, pos = (group + alt + ")" for alt in alternatives)
    return (
        r'\{"gdir":"' + gdir + r'","hmpea":' + hmpea + r',"i":' + i + r',"id":'
        + re.escape(_dumps(rid)) + r',"moved":' + moved + r',"nrpea":' + nrpea + r',"pos":' + pos
        + r"\}"
    )


def _record_pattern(ids: Sequence, n: int) -> re.Pattern:
    """Exactly the record line `write_trace` emits for robots `ids` on a
    ring of n nodes.

    Groups: edges, the object text of each robot, then t.
    """
    robots = ",".join("(" + _robot_pattern(rid, n, "(?:") + ")" for rid in ids)
    return re.compile(
        r'\{"edges":(' + _JSON_NAT + r'),"robots":\[' + robots + r'\],"t":(' + _JSON_INT + r")\}\n?"
    )


class _RoundColumns:
    """Round records in file order, converted to numpy columns in chunks.

    A canonical line arrives as the strings its pattern captured (the
    pattern admits only values in their columns' ranges), any other line
    as the checked values json.loads found.  Pending rows are
    converted when `_CHUNK_ROUNDS` of them gather or the kind of line
    changes, so memory stays bounded and rows keep their order.
    """

    def __init__(self, ids: Sequence, n: int):
        self.k = len(ids)
        self.width = 2 + self.k
        self.robot_fields = [re.compile(_robot_pattern(rid, n, "(")).fullmatch for rid in ids]
        self.texts: list[str] = []
        self.values: list[list] = [[] for _ in _COLUMNS]
        self.chunks: list[list[np.ndarray]] = [[] for _ in _COLUMNS]

    def add_texts(self, groups: tuple[str, ...]) -> None:
        if self.values[0]:
            self.convert_values()
        self.texts.extend(groups)
        if len(self.texts) >= _CHUNK_ROUNDS * self.width:
            self.convert_texts()

    def add_record(self, edges: int, fields: list[list]) -> None:
        """One round from its checked edge mask and robots' `_ROBOT_KEYS` values."""
        if self.texts:
            self.convert_texts()
        pos, gdir, i, nrpea, hmpea, moved = zip(*fields)
        found = ([edges], pos, map("CW".__eq__, gdir), i, nrpea, hmpea, moved)
        for column, values in zip(self.values, found):
            column.extend(values)
        if len(self.values[0]) >= _CHUNK_ROUNDS:
            self.convert_values()

    def convert_values(self) -> None:
        for column, chunk, (_, dtype) in zip(self.values, self.chunks, _COLUMNS):
            chunk.append(np.array(column, dtype=dtype))
            column.clear()

    def convert_texts(self) -> None:
        """A chunk repeats few robot objects: each distinct one is parsed once."""
        texts, w = self.texts, self.width
        rows = len(texts) // w
        columns = [np.empty((rows, self.k), dtype=dtype) for _, dtype in _COLUMNS[1:]]
        for r, robot_fields in enumerate(self.robot_fields):
            objects = texts[1 + r :: w]
            distinct = list(dict.fromkeys(objects))
            code = {text: j for j, text in enumerate(distinct)}
            row_code = np.fromiter(map(code.__getitem__, objects), np.intp, rows)
            gdir, hmpea, i, moved, nrpea, pos = zip(*(robot_fields(t).groups() for t in distinct))
            for column, found in zip(columns, (pos, gdir, i, nrpea, hmpea, moved)):
                if column.dtype == bool:
                    found = [_FLAGS[text] for text in found]
                column[:, r] = np.array(found, dtype=column.dtype)[row_code]
        self.chunks[0].append(np.array(texts[0::w], dtype=np.int64))
        for chunk, column in zip(self.chunks[1:], columns):
            chunk.append(column.ravel())
        texts.clear()

    def columns(self) -> dict[str, np.ndarray]:
        if self.texts:
            self.convert_texts()
        if self.values[0]:
            self.convert_values()
        return _joined(self.chunks, self.k)


def read_trace(lines: Iterable[str]) -> Trace:
    """Parse the documented line-delimited format back into a Trace.

    Lines exactly as `write_trace` emits them are matched by one pattern
    built from the header's ring size and robot ids; any other JSON layout
    of the same objects goes through json.loads and reads back the same.
    A value outside its column's range is a TraceParseError on its line,
    and so is a header whose `rounds` is not the number of round records.
    """
    it = iter(enumerate(lines, start=1))
    try:
        lineno, first = next(it)
    except StopIteration:
        raise TraceParseError(1, "empty trace file") from None
    try:
        header = json.loads(first)
    except json.JSONDecodeError as exc:
        raise TraceParseError(lineno, f"bad header: {exc}") from None
    if header.get("format") != "ringsweep-trace":
        raise TraceParseError(lineno, "not a ringsweep trace header")
    meta = header.get("meta", {})
    missing = {"n", "algo", "robots"} - meta.keys()
    for r in meta.get("robots", ()):
        missing |= {"id", "gdir", "i", "nrpea", "hmpea"} - r.keys()
    # The sentinel report reads these, so a declared missing edge needs them.
    declared = eventual_missing_description(meta.get("schedule"))
    if declared is not None:
        missing |= {"missing_edge", "cutoff"} - declared.keys()
    if missing:
        raise TraceParseError(lineno, f"header lacks {sorted(missing)}")
    n = meta["n"]
    if type(n) is not int or not 3 <= n <= MAX_N:
        raise TraceParseError(lineno, f"n {_dumps(n)} is not a ring size 3..{MAX_N}")
    checks = _value_checks(n)
    # Analysis takes the robots' Look-phase values at round 0 from here.
    try:
        for r in meta["robots"]:
            _checked(checks, r, ("gdir", "i", "nrpea", "hmpea"), f"robot {r['id']}: ")
    except ValueError as exc:
        raise TraceParseError(lineno, str(exc)) from None
    ids = [r["id"] for r in meta["robots"]]
    fullmatch = _record_pattern(ids, n).fullmatch
    rows = _RoundColumns(ids, n)
    t_group = rows.width  # after edges and one group per robot
    expected_t = 0
    for lineno, line in it:
        m = fullmatch(line)
        if m is not None:
            t = int(m[t_group])
        elif not line.strip():
            continue
        else:
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceParseError(lineno, f"bad record: {exc}") from None
            t = rec.get("t")
        if t != expected_t:
            raise TraceParseError(lineno, f"expected round {expected_t}, got {t}")
        expected_t += 1
        if m is not None:
            rows.add_texts(m.groups())
            continue
        robots = rec.get("robots")
        if not isinstance(robots, list) or [r.get("id") for r in robots] != ids:
            raise TraceParseError(lineno, "robot list does not match header")
        try:
            edges = _checked(checks, rec, ("edges",))[0]
            fields = [_checked(checks, r, _ROBOT_KEYS, f"robot {r['id']}: ") for r in robots]
        except KeyError as exc:
            raise TraceParseError(lineno, f"record lacks field {exc}") from None
        except ValueError as exc:
            raise TraceParseError(lineno, str(exc)) from None
        rows.add_record(edges, fields)
    if expected_t == 0:
        raise TraceParseError(2, "trace has no round records")
    declared = meta.get("rounds", expected_t)
    if type(declared) is not int or declared != expected_t:
        raise TraceParseError(
            1, f"header declares {_dumps(declared)} rounds but the file holds {expected_t} "
            f"round records"
        )
    cols = rows.columns()
    pos_arr, gdir_arr, moved_arr = cols["pos"], cols["gdir_cw"], cols["moved"]
    delta = np.where(gdir_arr[-1], 1, -1)
    final_pos = np.where(moved_arr[-1], (pos_arr[-1] + delta) % n, pos_arr[-1]).astype(np.int16)
    return Trace(meta=meta, final_pos=final_pos, **cols)


def read_trace_file(path: str) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        return read_trace(fh)
