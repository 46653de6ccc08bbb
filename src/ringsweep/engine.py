"""Synchronous Look-Compute-Move execution on an evolving ring.

Round t runs entirely on the round-t edge set: every robot freezes a
snapshot (Look), every robot computes its new state from its *pre-round*
state and that snapshot (Compute), then every robot pointing at a present
edge crosses it simultaneously (Move).  Robots crossing the same edge in
opposite directions swap without noticing each other; the model only
grants multiplicity detection on nodes.

Two implementations of the round exist on purpose: `step` composes the
robot_core transitions and is the readable reference; `run` drives a
fused integer kernel over parallel lists for long horizons.  A property
test holds them bit-identical.

Traces are stored columnar (one numpy array per field) with the canonical
per-round robot state being the post-Compute one; the line-delimited file
format is documented in the README.
"""
from __future__ import annotations

import json
import random
import re
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


def _round_kernel(
    n: int,
    pef3: bool,
    mask: int,
    pos: list[int],
    dir_right: list[bool],
    chir_cw: list[bool],
    idx: list[int],
    nrpea: list[int],
    hmpea: list[int],
    tids: list[str],
    ells: list[int],
    literal_index: bool,
    freeze_hmpea: bool,
    skip_update: bool,
) -> tuple[list[int], list[int], list[int]]:
    """One fused round over parallel lists; mutates the variable lists.

    Returns (new positions, post-Compute global-clockwise flags, moved
    flags).  Semantically identical to `step`; kept branch-light because
    it executes millions of times in the acceptance suite.
    """
    k = len(pos)
    new_pos = [0] * k
    gdir_out = [0] * k
    moved_out = [0] * k
    for r in range(k):
        p = pos[r]
        cw_present = mask >> p & 1
        ccw_present = mask >> (p - 1 if p else n - 1) & 1
        here = 0
        for q in range(k):
            if pos[q] == p:
                here += 1
        right = dir_right[r]
        cw_frame = chir_cw[r]
        gcw = right == cw_frame
        cur = cw_present if gcw else ccw_present
        opp = ccw_present if gcw else cw_present
        adjacent = cw_present | ccw_present
        nr = nrpea[r]
        hm = hmpea[r]
        stuck_together = here > 1 and here == nr and not cur and opp and not hm
        if stuck_together:
            ell = ells[r]
            # Round-robin advance with implicit normalization; in Python,
            # normalize-then-advance collapses to i % ell + 1.
            ni = (idx[r] + 1) % ell + 1 if literal_index else idx[r] % ell + 1
            idx[r] = ni
            right = tids[r][ni - 1] == "1"
            dir_right[r] = right
            gcw = right == cw_frame
            cur = cw_present if gcw else ccw_present
            opp = ccw_present if gcw else cw_present
        if pef3:
            flip = here > nr and not hm and adjacent
        else:
            flip = here == 1 and not cur and opp
        if flip:
            dir_right[r] = not right
            gcw = not gcw
            cur, opp = opp, cur
        if adjacent and not skip_update:
            nrpea[r] = here
            if not freeze_hmpea:
                hmpea[r] = cur
        gdir_out[r] = gcw
        moved_out[r] = cur
        if cur:
            new_pos[r] = (p + 1) % n if gcw else (p - 1 if p else n - 1)
        else:
            new_pos[r] = p
    return new_pos, gdir_out, moved_out


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


class StaticStrategy:
    """Adapter exposing a precomputed schedule through the reactive protocol."""

    def __init__(self, masks: list[int]):
        self._masks = masks

    def choose_mask(self, t: int, trace_view: "RunView") -> int:
        return self._masks[t]


@dataclass
class RunView:
    """Read-only window a reactive adversary gets each round.

    Lists alias the engine's live variables (pre-round values at the time
    the strategy is consulted); strategies must not mutate them.
    """

    n: int
    full_mask: int
    pos: list[int]
    dir_right: list[bool]
    chir_cw: list[bool]
    idx: list[int]
    nrpea: list[int]
    hmpea: list[int]


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
    bitmask of edges present that round.
    """
    if (schedule is None) == (strategy is None):
        raise ValueError("provide exactly one of schedule or strategy")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if n < 3:
        raise ValueError(f"ring size must be >= 3, got {n}")
    bad = set(mutations) - KNOWN_MUTATIONS
    if bad:
        raise ValueError(f"unknown mutation flags: {sorted(bad)}")
    ids = [s.id for s in states]
    if len(set(ids)) != len(ids):
        raise ValueError(f"robot ids must be pairwise distinct, got {ids}")
    for s in states:
        if not 0 <= s.position < n:
            raise ValueError(f"robot {s.id} position {s.position} outside 0..{n - 1}")

    pef3 = algo == ALGO_PEF3
    if not pef3 and algo != ALGO_PEF2:
        raise ValueError(f"algo must be one of {ALGO_PEF3!r}, {ALGO_PEF2!r}, got {algo!r}")
    if schedule is not None:
        strategy = StaticStrategy(schedule.masks(rounds))

    k = len(states)
    pos = [s.position for s in states]
    dir_right = [s.direction is Direction.RIGHT for s in states]
    chir_cw = [s.chirality is Chirality.RIGHT_IS_CLOCKWISE for s in states]
    idx = [s.i for s in states]
    nrpea = [s.nrpea for s in states]
    hmpea = [1 if s.hmpea else 0 for s in states]
    tids = [s.transformed_id for s in states]
    ells = [s.ell for s in states]
    literal = MUTATION_LITERAL_INDEX in mutations
    freeze = MUTATION_FREEZE_HMPEA in mutations
    skip = MUTATION_SKIP_UPDATE in mutations

    rec_edges: list[int] = []
    rec_pos: list[int] = []
    rec_gdir: list[int] = []
    rec_idx: list[int] = []
    rec_nr: list[int] = []
    rec_hm: list[int] = []
    rec_mv: list[int] = []
    recorded = (rec_edges, rec_pos, rec_gdir, rec_idx, rec_nr, rec_hm, rec_mv)
    chunks: list[list[np.ndarray]] = [[] for _ in _COLUMNS]
    view = RunView(n, (1 << n) - 1, pos, dir_right, chir_cw, idx, nrpea, hmpea)

    # The record lists are emptied into numpy every `_CHUNK_ROUNDS` rounds,
    # so a long run never holds a whole trace as Python lists.
    for start in range(0, rounds, _CHUNK_ROUNDS):
        for t in range(start, min(start + _CHUNK_ROUNDS, rounds)):
            view.pos = pos
            mask = strategy.choose_mask(t, view)
            rec_edges.append(mask)
            rec_pos.extend(pos)
            pos, gdir_out, moved_out = _round_kernel(
                n, pef3, mask, pos, dir_right, chir_cw, idx, nrpea, hmpea,
                tids, ells, literal, freeze, skip,
            )
            rec_gdir.extend(gdir_out)
            rec_idx.extend(idx)
            rec_nr.extend(nrpea)
            rec_hm.extend(hmpea)
            rec_mv.extend(moved_out)
        for column, chunk, (_, dtype) in zip(recorded, chunks, _COLUMNS):
            chunk.append(np.array(column, dtype=dtype))
            column.clear()

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
    return Trace(meta=meta, final_pos=np.array(pos, dtype=np.int16), **_joined(chunks, k))


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
# Edge masks are int64, so a trace's ring has at most 63 edges.
_MAX_N = 63


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
    A value outside its column's range is a TraceParseError on its line.
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
    if type(n) is not int or not 3 <= n <= _MAX_N:
        raise TraceParseError(lineno, f"n {_dumps(n)} is not a ring size 3..{_MAX_N}")
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
    cols = rows.columns()
    pos_arr, gdir_arr, moved_arr = cols["pos"], cols["gdir_cw"], cols["moved"]
    delta = np.where(gdir_arr[-1], 1, -1)
    final_pos = np.where(moved_arr[-1], (pos_arr[-1] + delta) % n, pos_arr[-1]).astype(np.int16)
    return Trace(meta=meta, final_pos=final_pos, **cols)


def read_trace_file(path: str) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        return read_trace(fh)
