"""Adversarial edge schedules and the confinement game search.

The reactive adversaries here choose absent edges per round as a function
of the current configuration.  `ConfinementAdversary` replays the
impossibility construction's case analysis over a fixed 3-node window;
`game_search` makes the construction's limit argument finite by searching
exhaustively, over all reactive choices of at most `max_absent`
simultaneously absent edges incident to robot positions, for a reachable
cycle that leaves some footprint node unvisited forever.

With the default budget of one absent edge per round, every infinite play
the search can certify is automatically connected-over-time (a cycle can
keep at most one edge permanently missing), so ConfinableForever
witnesses stay inside the model class.  Larger budgets are available for
experiments; the verdict then reports the cycle's always-absent edge set
so out-of-class witnesses are recognizable.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import IO, Sequence

from .directions import Chirality, Direction
from .engine import MAX_N, RunView, Trace, _LocalTable, _checked, _dumps, _mask_of, _ports
from .engine import _value_checks, check_cohort, run_states
from .robot_core import NO_MUTATIONS, RobotState
from .words import normalize_index, transformed_length


CONFINEMENT_ACTIVE = "active"
CONFINEMENT_ESCAPED = "escaped"
CONFINEMENT_SELF_STARVED = "self_starved"
CONFINEMENT_OUT_OF_CLASS = "out_of_class"


class ConfinementAdversary:
    """The impossibility proof's window adversary, made executable.

    The window is three consecutive nodes v, w, x (u is the node before
    v); the adversary removes exactly the boundary edges that would let a
    robot leave the window, keeps each removal until some robot moves,
    then re-applies the case analysis.  Robots stepping outside the
    window end the episode ("escaped": the adversary stops interfering);
    a cohort that stops moving for `stall_cap` rounds is declared
    self-starving, which itself witnesses non-exploration, and the
    current removal is kept frozen.  A cohort that keeps moving while both
    boundary edges stay absent for more than `stall_cap` rounds is
    confined only by a ring split in two, outside the connected-over-time
    class ("out_of_class"); the removals go on unchanged.

    `status` is the run's outcome.  `state` is what decides the adversary's
    later choices together with the configuration, so `run_states` stops
    stepping once a run repeats one; the stall and absence counters then
    stop at the round that closes the lasso.
    """

    def __init__(self, n: int, window_start: int = 1, stall_cap: int = 100):
        if n < 4:
            raise ValueError("confinement window needs a ring of size >= 4")
        if stall_cap < 0:
            raise ValueError(f"stall_cap must be >= 0, got {stall_cap}")
        self.n = n
        self.v = window_start % n
        self.w = (window_start + 1) % n
        self.x = (window_start + 2) % n
        self.stall_cap = stall_cap
        self.status = CONFINEMENT_ACTIVE
        self._waiting = 0
        # Rounds in a row, up to the last one, with both boundary edges absent.
        self._absent_together = 0
        self._last_positions: tuple[int, ...] | None = None
        # Boundary and interior edges of the window, by the proof's names.
        self.e_vl = (self.v - 1) % n
        self.e_wr = self.w
        self.e_xr = self.x
        self._both = _mask_of((self.e_vl, self.e_xr))
        # The removal for each non-empty occupied subset of the window, by
        # its node bitmask; an occupancy missing here has left the window.
        window = (self.v, self.w, self.x)
        self._removals = {
            _mask_of(occupied): self._case_removal(frozenset(occupied))
            for size in (1, 2, 3)
            for occupied in combinations(window, size)
        }

    def _case_removal(self, occupied: frozenset[int]) -> int:
        v, w, x = self.v, self.w, self.x
        if occupied == {v, w} or occupied == {v}:
            edges = (self.e_vl,)
        elif occupied == {w, x} or occupied == {x}:
            edges = (self.e_xr,)
        elif occupied == {v, x} or occupied == {v, w, x}:
            edges = (self.e_vl, self.e_xr)
        elif occupied == {w}:
            edges = (self.e_wr,)
        else:  # pragma: no cover - guarded by the escape check
            raise AssertionError(f"occupied set {set(occupied)} outside window")
        return _mask_of(edges)

    @property
    def state(self):
        # Once the outcome is settled the choices depend on positions only.
        if self.status != CONFINEMENT_ACTIVE:
            return self.status
        return (self.status, self._waiting, self._absent_together, self._last_positions)

    def choose_mask(self, t: int, view: RunView) -> int:
        full = view.full_mask
        pos = tuple(view.pos)
        if self._last_positions is None:
            self._last_positions = pos
        elif pos != self._last_positions:
            self._last_positions = pos
            self._waiting = 0
        else:
            self._waiting += 1
        if self.status == CONFINEMENT_ESCAPED:
            return full
        removal = self._removals.get(_mask_of(pos))
        if removal is None:
            self.status = CONFINEMENT_ESCAPED
            return full
        if self.status == CONFINEMENT_ACTIVE:
            if self._waiting > self.stall_cap:
                self.status = CONFINEMENT_SELF_STARVED
            elif self._absent_together > self.stall_cap:
                self.status = CONFINEMENT_OUT_OF_CLASS
        self._absent_together = self._absent_together + 1 if removal == self._both else 0
        return full & ~removal


VERDICT_CONFINABLE = "ConfinableForever"
VERDICT_NOT_CONFINABLE = "NotConfinable"
VERDICT_INCONCLUSIVE = "Inconclusive"


def state_key(
    n: int,
    pos: Sequence[int],
    gdir_cw: Sequence[bool],
    idx: Sequence[int],
    nrpea: Sequence[int],
    hmpea: Sequence[int],
    visited_mask: int,
    ells: Sequence[int],
) -> tuple[tuple, int]:
    """Canonical game-state key under ring rotation, plus the rotation used.

    The rotation puts robot 0 on node 0, so two configurations that differ
    by a rotation get one key.  The read index enters normalized into
    1..ell (two indices congruent mod ell are behaviorally identical) and
    nrpea capped at k+1 (all counts above the cohort size satisfy the
    same comparisons).
    """
    rot = -pos[0] % n
    cap = len(pos) + 1
    vis = ((visited_mask << rot) | (visited_mask >> (n - rot))) & ((1 << n) - 1)
    key = (
        tuple((p + rot) % n for p in pos),
        tuple(bool(v) for v in gdir_cw),
        tuple(normalize_index(i, ell) for i, ell in zip(idx, ells)),
        tuple(min(v, cap) for v in nrpea),
        tuple(bool(v) for v in hmpea),
        vis,
    )
    return key, rot


def _key_str(key: tuple) -> str:
    rpos, gd, idx, nr, hm, vis = key
    return "|".join(
        [
            ",".join(map(str, rpos)),
            "".join("1" if b else "0" for b in gd),
            ",".join(map(str, idx)),
            ",".join(map(str, nr)),
            "".join("1" if b else "0" for b in hm),
            str(vis),
        ]
    )


@dataclass
class Witness:
    """A replayable confinement policy: canonical state -> absent edges."""

    n: int
    algo: str
    max_absent: int
    robots: list[RobotState]
    policy: dict[str, tuple[int, ...]]
    path_length: int
    cycle_length: int
    cycle_always_absent: tuple[int, ...] = ()
    starved_nodes: tuple[int, ...] = ()


@dataclass
class SearchResult:
    verdict: str
    explored: int
    state_budget: int
    max_absent: int
    witness: Witness | None = None


@lru_cache(maxsize=None)
def _rotations(n: int) -> tuple[tuple[int, ...], ...]:
    """`_rotations(n)[r][m]`: the node or edge mask m of a ring of n turned
    r nodes clockwise."""
    full = (1 << n) - 1
    return tuple(tuple((m << r | m >> (n - r)) & full for m in range(1 << n)) for r in range(n))


class _ConfigurationGraph:
    """The game's configurations, one int each, and the adversary's moves
    between them, filled as the search reaches them.

    A configuration is the robots' positions, rotated so that robot 0
    stands on node 0, and each robot's `_LocalTable` code; its id (`cid`)
    is its index in `configs`.  The codes start normalized as in
    `state_key` (`i` in 1..ell, `nrpea` capped at k+1), and the unmutated
    rule keeps them so.  `choice_lists[cid]` is its list of removal
    choices, one list per position tuple.  Entry i of `successors[cid]`,
    None until `fill(cid, i)` computes it, is the move under choice i:
    the child's `cid << n`, the mask of the robots' new nodes in the
    parent's frame, the rotation r that turns the parent's frame into the
    child's, and `_rotations(n)[r]`.  A game state is `cid << n | visited`, with the
    visited mask in the configuration's frame, so a search step from one
    is a list index, a row lookup and one probe of the state's colour.
    """

    def __init__(self, n: int, algo: str, robots: Sequence[RobotState], max_absent: int):
        self.n = n
        self.full = (1 << n) - 1
        self.max_absent = max_absent
        self.table = _LocalTable(algo, robots, NO_MUTATIONS)
        self.rotl = _rotations(n)
        self.configs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self.choice_lists: list[list[int]] = []
        self.successors: list[list] = []
        self._cids: dict[tuple, int] = {}
        self._choice_cache: dict[tuple[int, ...], list[int]] = {}

    def start(self, robots: Sequence[RobotState]) -> tuple[int, int]:
        """The start's game state and the rotation from the ring to its frame."""
        cap = len(robots) + 1
        codes = tuple(
            self.table.code((r, s.direction is Direction.RIGHT, normalize_index(s.i, s.ell),
                             min(s.nrpea, cap), 1 if s.hmpea else 0))
            for r, s in enumerate(robots)
        )
        cid, rot = self._intern([s.position for s in robots], codes)
        return cid << self.n | _mask_of(self.configs[cid][0]), rot

    def _intern(self, pos: list[int], codes: tuple[int, ...]) -> tuple[int, int]:
        """(cid, rotation) of the configuration with positions `pos` in some frame."""
        n = self.n
        rot = -pos[0] % n
        rpos = tuple([(p + rot) % n for p in pos])
        key = (rpos, codes)
        cid = self._cids.get(key)
        if cid is None:
            cid = self._cids[key] = len(self.configs)
            self.configs.append(key)
            choices = self._choices(rpos)
            self.choice_lists.append(choices)
            self.successors.append([None] * len(choices))
        return cid, rot

    def _choices(self, rpos: tuple[int, ...]) -> list[int]:
        """Absent-edge masks, largest removal sets first, then lexicographic,
        one list per position tuple."""
        out = self._choice_cache.get(rpos)
        if out is None:
            n = self.n
            incident = sorted({p for q in rpos for p in (q, (q - 1) % n)})
            out = self._choice_cache[rpos] = []
            for size in range(min(self.max_absent, len(incident)), -1, -1):
                out += map(_mask_of, combinations(incident, size))
        return out

    def fill(self, cid: int, i: int) -> tuple[int, int, int, tuple[int, ...]]:
        """Successor `i` of `cid`, computed and stored."""
        rpos, codes = self.configs[cid]
        n, memo, compute = self.n, self.table.next, self.table.fill
        ports = _ports(self.full & ~self.choice_lists[cid][i], n)
        new_pos, new_codes, moved = [], [], 0
        for p, code in zip(rpos, codes):
            # _LocalTable.after, inlined.
            key = code | rpos.count(p) << 2 | ports >> p & 3
            code, step = memo.get(key) or compute(key)
            p = (p + step) % n
            new_pos.append(p)
            new_codes.append(code)
            moved |= 1 << p
        child, rot = self._intern(new_pos, tuple(new_codes))
        out = self.successors[cid][i] = (child << n, moved, rot, self.rotl[rot])
        return out

    def key_str(self, state: int) -> str:
        """The witness policy key (`_key_str` of `state_key`) of a game state."""
        rpos, codes = self.configs[state >> self.n]
        locals_ = [self.table.local(code) for code in codes]
        chir_cw = self.table.chir_cw
        return _key_str((
            rpos,
            tuple(right == chir_cw[r] for r, right, _, _, _ in locals_),
            tuple(loc[2] for loc in locals_),
            tuple(loc[3] for loc in locals_),
            tuple(bool(loc[4]) for loc in locals_),
            state & self.full,
        ))


def game_search(
    n: int,
    robots: Sequence[RobotState],
    algo: str,
    max_absent: int = 1,
    state_budget: int = 2_000_000,
) -> SearchResult:
    """Exhaustive search for an adversary that starves some node forever.

    Explores the directed graph whose nodes are canonical (configuration,
    visited-set) pairs and whose edges are the adversary's per-round
    removal choices (subsets of edges incident to robot positions, at
    most `max_absent` at once; distant edges cannot influence any
    snapshot).  A reachable cycle whose visited set misses a node proves
    ConfinableForever and yields a replayable policy; exhausting the
    reachable space proves NotConfinable for this choice set; exceeding
    `state_budget` states is reported as Inconclusive, never silently
    truncated.  Each pair is one int, `cid << n | visited`, over a
    `_ConfigurationGraph`.
    """
    if n > 6 or len(robots) > 3:
        raise ValueError("game search is desk-scale: need n <= 6 and <= 3 robots")
    check_cohort(n, algo, robots)
    if max_absent < 0 or max_absent > n:
        raise ValueError(f"max_absent must be in 0..{n}")
    if state_budget < 1:
        raise ValueError(f"state_budget must be >= 1, got {state_budget}")
    graph = _ConfigurationGraph(n, algo, robots, max_absent)
    full, successors, fill = graph.full, graph.successors, graph.fill
    start, start_rot = graph.start(robots)
    if start & full == full:
        return SearchResult(VERDICT_NOT_CONFINABLE, 0, state_budget, max_absent)

    # True while a state is on the stack (grey), False once done (black).
    on_stack = {start: True}
    # The frames below the top one: (state, visited, successors, index of
    # the successor after the one taken).
    stack: list[tuple[int, int, list, int]] = []
    state, visited, succ, i = start, start & full, successors[start >> n], 0
    explored = 1
    while True:
        if i == len(succ):
            on_stack[state] = False
            if not stack:
                return SearchResult(VERDICT_NOT_CONFINABLE, explored, state_budget, max_absent)
            state, visited, succ, i = stack.pop()
            continue
        out = succ[i]
        if out is None:
            out = fill(state >> n, i)
        child_id, moved, _, row = out
        i += 1
        child_visited = row[visited | moved]
        if child_visited == full:
            continue  # all nodes visited: this play is lost for the adversary
        child = child_id | child_visited
        grey = on_stack.get(child)
        if grey is None:
            if explored >= state_budget:
                return SearchResult(VERDICT_INCONCLUSIVE, explored, state_budget, max_absent)
            on_stack[child] = True
            explored += 1
            stack.append((state, visited, succ, i))
            state, visited, succ, i = child, child_visited, successors[child_id >> n], 0
        elif grey:
            stack.append((state, visited, succ, i))
            break

    policy: dict[str, tuple[int, ...]] = {}
    frames = []
    for state, _, succ, i in stack:
        cid = state >> n
        absent = graph.choice_lists[cid][i - 1]
        policy[graph.key_str(state)] = tuple(e for e in range(n) if absent >> e & 1)
        frames.append((_mask_of(graph.configs[cid][0]), absent, succ[i - 1][2]))
    entry = next(j for j, frame in enumerate(stack) if frame[0] == child)
    witness = Witness(
        n=n,
        algo=algo,
        max_absent=max_absent,
        robots=list(robots),
        policy=policy,
        path_length=entry,
        cycle_length=len(stack) - entry,
    )
    _annotate_witness(witness, frames, start_rot)
    return SearchResult(VERDICT_CONFINABLE, explored, state_budget, max_absent, witness)


def _annotate_witness(witness: Witness, frames: list[tuple[int, int, int]], rot: int) -> None:
    """Record the witness's starved nodes and its cycle's permanently
    absent edges (empty or a single edge keeps the play
    connected-over-time), as its replay would show them over `path + 2 *
    cycle` rounds.

    `frames` holds, per stack frame, its occupied nodes and its choice of
    absent edges in its own frame, and the rotation to its successor's;
    `rot` turns the ring into the start's frame.  Round t plays frame t,
    and from the cycle's end on the cycle again, each in the ring's frame
    turned by the rotations so far.
    """
    n, lo, cycle = witness.n, witness.path_length, max(witness.cycle_length, 1)
    full, rotl = (1 << n) - 1, _rotations(n)
    rounds = lo + 2 * cycle
    seen, absent_always = 0, full
    for t in range(rounds + 1):
        nodes, absent, step = frames[t if t < len(frames) else lo + (t - lo) % cycle]
        back = rotl[-rot % n]
        seen |= back[nodes]
        if lo <= t < lo + cycle:
            absent_always &= back[absent]
        rot = (rot + step) % n
    witness.cycle_always_absent = tuple(e for e in range(n) if absent_always >> e & 1)
    witness.starved_nodes = tuple(v for v in range(n) if not seen >> v & 1)


class WitnessReplayError(ValueError):
    """The play reached a state the witness policy does not cover."""


class WitnessStrategy:
    """Replays a witness policy; raises if the play ever leaves it.

    The policy's choice is a function of the run's raw state: the visited
    mask (`state`), the positions and the robots' variables.  `run_states`
    stops asking once the run repeats a raw state, so each one is decided
    once, through its canonical key; a state the policy does not cover
    raises the first time it is reached.  One strategy serves one run.
    """

    def __init__(self, witness: Witness):
        self.witness = witness
        self._ells = [transformed_length(r.id) for r in witness.robots]
        self._visited = 0

    @property
    def state(self) -> int:
        return self._visited

    def choose_mask(self, t: int, view: RunView) -> int:
        self._visited, mask = self._decide(t, view)
        return mask

    def _decide(self, t: int, view: RunView) -> tuple[int, int]:
        n = view.n
        visited = self._visited | _mask_of(view.pos)
        gdir = [right == cw_frame for right, cw_frame in zip(view.dir_right, view.chir_cw)]
        key, rot = state_key(
            n, view.pos, gdir, view.idx, view.nrpea, view.hmpea, visited, self._ells
        )
        absent = self.witness.policy.get(_key_str(key))
        if absent is None:
            raise WitnessReplayError(f"round {t}: state not covered by witness policy")
        return visited, view.full_mask & ~_mask_of((e - rot) % n for e in absent)


def replay_witness(witness: Witness, rounds: int) -> Trace:
    """Run the engine under the witness policy from its start configuration."""
    strategy = WitnessStrategy(witness)
    return run_states(
        witness.n,
        witness.algo,
        witness.robots,
        rounds,
        strategy=strategy,
        meta_extra={
            "schedule": {"kind": "witness", "max_absent": witness.max_absent},
            "adversary": "witness",
        },
    )


def write_witness(witness: Witness, out: IO[str]) -> None:
    header = {
        "format": "ringsweep-witness",
        "version": 1,
        "n": witness.n,
        "algo": witness.algo,
        "max_absent": witness.max_absent,
        "path_length": witness.path_length,
        "cycle_length": witness.cycle_length,
        "cycle_always_absent": list(witness.cycle_always_absent),
        "starved_nodes": list(witness.starved_nodes),
        "robots": [
            {
                "id": r.id,
                "pos": r.position,
                "dir": r.direction.value,
                "chirality": r.chirality.value,
                "i": r.i,
                "nrpea": r.nrpea,
                "hmpea": r.hmpea,
            }
            for r in witness.robots
        ],
    }
    out.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
    for key in sorted(witness.policy):
        record = {"state": key, "absent": list(witness.policy[key])}
        out.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")


def write_witness_file(witness: Witness, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_witness(witness, fh)


def _distinct(value, n: int, most: int, what: str) -> tuple[int, ...]:
    """`value` as a tuple, if it is a list of at most `most` distinct ints
    in 0..n-1 (edges or nodes of a ring of n); ValueError otherwise."""
    if (
        type(value) is not list
        or not all(type(e) is int and 0 <= e < n for e in value)
        or len(set(value)) != len(value)
        or len(value) > most
    ):
        raise ValueError(
            f"{what} {_dumps(value)} is not a list of at most {most} distinct ints in 0..{n - 1}"
        )
    return tuple(value)


def read_witness(lines) -> Witness:
    """Parse a witness file; malformed input raises ValueError naming the line."""
    it = iter(lines)
    lineno = 1
    try:
        header = json.loads(next(it, ""))
        if type(header) is not dict or header.get("format") != "ringsweep-witness":
            raise ValueError("not a ringsweep witness file")
        n = header["n"]
        if type(n) is not int or not 3 <= n <= MAX_N:
            raise ValueError(f"n {_dumps(n)} is not a ring size 3..{MAX_N}")
        for key in ("max_absent", "path_length", "cycle_length"):
            if type(header[key]) is not int or header[key] < 0:
                raise ValueError(f"{key} {_dumps(header[key])} is not an int >= 0")
        if type(header["robots"]) is not list or not all(type(r) is dict for r in header["robots"]):
            raise ValueError("robots is not a list of objects")
        checks = _value_checks(n)
        robots = []
        for r in header["robots"]:
            if type(r["id"]) is not int or r["id"] < 0:
                raise ValueError(f"robot id {_dumps(r['id'])} is not an int >= 0")
            pos, i, nrpea, hmpea = _checked(
                checks, r, ("pos", "i", "nrpea", "hmpea"), f"robot {r['id']}: "
            )
            direction, chirality = Direction(r["dir"]), Chirality(r["chirality"])
            robots.append(RobotState.make(r["id"], pos, direction, chirality, i, nrpea, hmpea))
        witness = Witness(
            n=n,
            algo=header["algo"],
            max_absent=header["max_absent"],
            robots=robots,
            policy={},
            path_length=header["path_length"],
            cycle_length=header["cycle_length"],
            cycle_always_absent=_distinct(header["cycle_always_absent"], n, n, "cycle_always_absent"),
            starved_nodes=_distinct(header["starved_nodes"], n, n, "starved_nodes"),
        )
        for lineno, line in enumerate(it, start=2):
            if not line.strip():
                continue
            rec = json.loads(line)
            if type(rec) is not dict:
                raise ValueError("record is not an object")
            state = rec["state"]
            if type(state) is not str:
                raise ValueError(f"state {_dumps(state)} is not a string")
            witness.policy[state] = _distinct(rec["absent"], n, witness.max_absent, "absent")
        return witness
    except KeyError as exc:
        raise ValueError(f"witness line {lineno}: missing field {exc}") from None
    except ValueError as exc:
        raise ValueError(f"witness line {lineno}: {exc}") from None


def read_witness_file(path: str) -> Witness:
    with open(path, "r", encoding="utf-8") as fh:
        return read_witness(fh)
