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
from dataclasses import dataclass, field, replace
from typing import IO, Iterable, Sequence

import numpy as np

from .directions import Chirality, Direction, GlobalDirection, to_global
from .ring_model import Schedule
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

    def _initial_column(self, key: str, dtype) -> np.ndarray:
        return np.array([r[key] for r in self.meta["robots"]], dtype=dtype)

    def initial_gdir_cw(self) -> np.ndarray:
        return np.array([r["gdir"] == "CW" for r in self.meta["robots"]], dtype=bool)

    def gdir_entering(self) -> np.ndarray:
        """(H, k) global-clockwise flag each robot holds at Look of round t."""
        return np.vstack([self.initial_gdir_cw()[None, :], self.gdir_cw[:-1]])

    def nrpea_entering(self) -> np.ndarray:
        return np.vstack([self._initial_column("nrpea", np.int64)[None, :], self.nrpea[:-1]])

    def hmpea_entering(self) -> np.ndarray:
        return np.vstack([self._initial_column("hmpea", bool)[None, :], self.hmpea[:-1]])

    def idx_entering(self) -> np.ndarray:
        return np.vstack([self._initial_column("i", np.int64)[None, :], self.idx[:-1]])

    def robots_here(self) -> np.ndarray:
        """(H, k) co-location count per robot at Look of round t."""
        out = self._cache.get("robots_here")
        if out is None:
            out = (self.pos[:, :, None] == self.pos[:, None, :]).sum(axis=2)
            self._cache["robots_here"] = out
        return out

    def edge_present(self, nodes: np.ndarray, offset: int) -> np.ndarray:
        """Presence of the cw (offset 0) or ccw (offset -1) edge of `nodes`."""
        e = (nodes + offset) % self.n
        return (self.edges[:, None] >> e & 1).astype(bool)

    def adjacent(self) -> np.ndarray:
        """(H, k) edge-activated flag per robot per round."""
        out = self._cache.get("adjacent")
        if out is None:
            out = self.edge_present(self.pos, 0) | self.edge_present(self.pos, -1)
            self._cache["adjacent"] = out
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
    view = RunView(n, (1 << n) - 1, pos, dir_right, chir_cw, idx, nrpea, hmpea)

    for t in range(rounds):
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
    shape = (rounds, k)
    return Trace(
        meta=meta,
        edges=np.array(rec_edges, dtype=np.int64),
        pos=np.array(rec_pos, dtype=np.int16).reshape(shape),
        gdir_cw=np.array(rec_gdir, dtype=bool).reshape(shape),
        idx=np.array(rec_idx, dtype=np.int64).reshape(shape),
        nrpea=np.array(rec_nr, dtype=np.int64).reshape(shape),
        hmpea=np.array(rec_hm, dtype=bool).reshape(shape),
        moved=np.array(rec_mv, dtype=bool).reshape(shape),
        final_pos=np.array(pos, dtype=np.int16),
    )


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


def write_trace(trace: Trace, out: IO[str]) -> None:
    """Line-delimited trace: one metadata header, then one record per round."""
    header = {"format": "ringsweep-trace", "version": 1, "meta": trace.meta}
    out.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
    ids = trace.robot_ids
    h, k = trace.pos.shape
    for t in range(h):
        robots = [
            {
                "id": ids[r],
                "pos": int(trace.pos[t, r]),
                "gdir": "CW" if trace.gdir_cw[t, r] else "CCW",
                "i": int(trace.idx[t, r]),
                "nrpea": int(trace.nrpea[t, r]),
                "hmpea": bool(trace.hmpea[t, r]),
                "moved": bool(trace.moved[t, r]),
            }
            for r in range(k)
        ]
        record = {"t": t, "edges": int(trace.edges[t]), "robots": robots}
        out.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")


def write_trace_file(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_trace(trace, fh)


class TraceParseError(ValueError):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"trace line {line_number}: {message}")
        self.line_number = line_number


def read_trace(lines: Iterable[str]) -> Trace:
    """Parse the documented line-delimited format back into a Trace."""
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
    # Trace reads the initial robot fields on demand, so check them here.
    meta = header.get("meta", {})
    missing = {"n", "algo", "robots"} - meta.keys()
    for r in meta.get("robots", ()):
        missing |= {"id", "gdir", "i", "nrpea", "hmpea"} - r.keys()
    if missing:
        raise TraceParseError(lineno, f"header lacks {sorted(missing)}")
    n = meta["n"]
    ids = [r["id"] for r in meta["robots"]]
    k = len(ids)
    edges, pos, gdir, idx, nrpea, hmpea, moved = [], [], [], [], [], [], []
    expected_t = 0
    for lineno, line in it:
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceParseError(lineno, f"bad record: {exc}") from None
        if rec.get("t") != expected_t:
            raise TraceParseError(lineno, f"expected round {expected_t}, got {rec.get('t')}")
        robots = rec.get("robots")
        if not isinstance(robots, list) or [r.get("id") for r in robots] != ids:
            raise TraceParseError(lineno, "robot list does not match header")
        try:
            edges.append(rec["edges"])
            for r in robots:
                pos.append(r["pos"])
                gdir.append(r["gdir"] == "CW")
                idx.append(r["i"])
                nrpea.append(r["nrpea"])
                hmpea.append(r["hmpea"])
                moved.append(r["moved"])
        except KeyError as exc:
            raise TraceParseError(lineno, f"record lacks field {exc}") from None
        expected_t += 1
    if expected_t == 0:
        raise TraceParseError(2, "trace has no round records")
    h = expected_t
    shape = (h, k)
    pos_arr = np.array(pos, dtype=np.int16).reshape(shape)
    gdir_arr = np.array(gdir, dtype=bool).reshape(shape)
    moved_arr = np.array(moved, dtype=bool).reshape(shape)
    delta = np.where(gdir_arr[-1], 1, -1)
    final_pos = np.where(moved_arr[-1], (pos_arr[-1] + delta) % n, pos_arr[-1]).astype(np.int16)
    return Trace(
        meta=meta,
        edges=np.array(edges, dtype=np.int64),
        pos=pos_arr,
        gdir_cw=gdir_arr,
        idx=np.array(idx, dtype=np.int64).reshape(shape),
        nrpea=np.array(nrpea, dtype=np.int64).reshape(shape),
        hmpea=np.array(hmpea, dtype=bool).reshape(shape),
        moved=moved_arr,
        final_pos=final_pos,
    )


def read_trace_file(path: str) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        return read_trace(fh)
