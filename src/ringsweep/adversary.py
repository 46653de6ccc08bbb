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

A ConfinableForever witness is the confining play itself.  The start is
fixed and the robots are deterministic, so the play is a lasso of edge
sets: the absent edges of each round of a path and of a cycle, in the
ring's frame.  `replay_witness` plays the path, then the cycle forever.
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
from .words import normalize_index


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


@dataclass
class Witness:
    """A confining play: the absent edges of each of its `path_length +
    cycle_length` rounds, in the ring's frame.  The robots are
    deterministic, so from round `path_length` on the last `cycle_length`
    rounds repeat forever."""

    n: int
    algo: str
    max_absent: int
    robots: list[RobotState]
    absent: list[tuple[int, ...]]
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


@lru_cache(maxsize=64)
def _cohort_table(algo: str, cohort: tuple[tuple[int, Chirality], ...]) -> _LocalTable:
    """The unmutated `_LocalTable` of the cohort whose robots have the
    `(id, chirality)` pairs `cohort`, in order.

    The table reads nothing else of a robot, and game states intern only
    normal-form local states, so every search of a cohort, and the reading
    of its witnesses, steps through this one table: each (local state,
    observation) pair is computed once per process, and a table holds at
    most 2 * ell * (k+2) * 2 local states per robot.
    """
    robots = [RobotState.make(rid, 0, chirality=chirality) for rid, chirality in cohort]
    return _LocalTable(algo, robots, NO_MUTATIONS)


def _search_table(algo: str, robots: Sequence[RobotState]) -> _LocalTable:
    """The shared search table of the cohort `robots`."""
    return _cohort_table(algo, tuple((s.id, s.chirality) for s in robots))


@lru_cache(maxsize=None)
def _choices(n: int, max_absent: int, rpos: tuple[int, ...]) -> list[int]:
    """Absent-edge masks for robots on nodes `rpos` of a ring of n, largest
    removal sets first, then lexicographic.

    One list serves every search on that ring and budget.  Game searches
    are desk-scale (n <= 6, k <= 3, robot 0 on node 0), so there are at
    most 644 lists.
    """
    incident = sorted({p for q in rpos for p in (q, (q - 1) % n)})
    out = []
    for size in range(min(max_absent, len(incident)), -1, -1):
        out += map(_mask_of, combinations(incident, size))
    return out


class _ConfigurationGraph:
    """The game's configurations, one int each, and the adversary's moves
    between them, filled as the search reaches them.

    A configuration is the robots' positions, rotated so that robot 0
    stands on node 0, and each robot's code in the cohort's shared
    `_search_table`; its id (`cid`) is its index in `configs`.  The codes
    start normalized (`i` in 1..ell, `nrpea` capped at k+1, as every
    larger count acts alike), and the unmutated rule keeps them so.
    `choice_lists[cid]` is its list of removal choices, one list per
    position tuple.  Entry i of `successors[cid]`,
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
        self.table = _search_table(algo, robots)
        self.rotl = _rotations(n)
        self.configs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self.choice_lists: list[list[int]] = []
        self.successors: list[list] = []
        self._cids: dict[tuple, int] = {}

    def start(self, robots: Sequence[RobotState]) -> tuple[int, int]:
        """The start's game state and the rotation from the ring to its frame."""
        codes = _normal_codes(self.table, robots)
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
            choices = _choices(n, self.max_absent, rpos)
            self.choice_lists.append(choices)
            self.successors.append([None] * len(choices))
        return cid, rot

    def fill(self, cid: int, i: int) -> tuple[int, int, int, tuple[int, ...]]:
        """Successor `i` of `cid`, computed and stored."""
        rpos, codes = self.configs[cid]
        n, memo, compute = self.n, self.table.next, self.table.fill
        ports = _ports(self.full & ~self.choice_lists[cid][i], n)
        new_pos, new_codes, moved = [], [], 0
        for p, code in zip(rpos, codes):
            # _LocalTable.after, inlined.
            key = code | rpos.count(p) << 2 | ports >> p & 3
            code, step = memo[key] or compute(key)
            p = (p + step) % n
            new_pos.append(p)
            new_codes.append(code)
            moved |= 1 << p
        child, rot = self._intern(new_pos, tuple(new_codes))
        out = self.successors[cid][i] = (child << n, moved, rot, self.rotl[rot])
        return out


def _normal_codes(table: _LocalTable, robots: Sequence[RobotState]) -> tuple[int, ...]:
    """The robots' `table` codes in normal form: `i` in 1..ell and `nrpea`
    capped at k+1, as every larger count acts alike."""
    cap = len(robots) + 1
    return tuple(
        table.code((r, s.direction is Direction.RIGHT, normalize_index(s.i, s.ell),
                    min(s.nrpea, cap), 1 if s.hmpea else 0))
        for r, s in enumerate(robots)
    )


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
    ConfinableForever, and the play into it and once around it is the
    `Witness`; exhausting the reachable space proves NotConfinable for
    this choice set; exceeding `state_budget` states is reported as
    Inconclusive, never silently truncated.  Each pair is one int,
    `cid << n | visited`, over a `_ConfigurationGraph`.
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

    # The play is the stack's choices, each turned back from its frame into
    # the ring's by the rotations so far.  The cycle returns to its entry
    # state with a net rotation of 0: its visited set is not full, is closed
    # under that rotation and holds robot 0's path around the cycle, which a
    # non-zero rotation would sweep over the whole ring.  So one pass over
    # the stack reads the whole play, and one turn of the cycle repeats.
    entry = next(j for j, frame in enumerate(stack) if frame[0] == child)
    rotl, rot = graph.rotl, start_rot
    absent, always = [], full
    for j, (state, visited, succ, i) in enumerate(stack):
        back = rotl[-rot % n]
        mask = back[graph.choice_lists[state >> n][i - 1]]
        absent.append(_bits(mask, n))
        if j >= entry:
            always &= mask
        rot = (rot + succ[i - 1][2]) % n
    witness = Witness(
        n=n,
        algo=algo,
        max_absent=max_absent,
        robots=list(robots),
        absent=absent,
        path_length=entry,
        cycle_length=len(stack) - entry,
        cycle_always_absent=_bits(always, n),
        # The top frame's visited mask holds every node the play visits.
        starved_nodes=_bits(full & ~back[visited], n),
    )
    return SearchResult(VERDICT_CONFINABLE, explored, state_budget, max_absent, witness)


def _bits(mask: int, n: int) -> tuple[int, ...]:
    """The set bits of an n-bit mask, in increasing order."""
    return tuple(e for e in range(n) if mask >> e & 1)


class WitnessStrategy:
    """Plays a witness's rounds: its records in turn, then its cycle's
    again and again.

    `state` is the index of the record the next round plays, so
    `run_states` stops asking once an index comes back with its
    configuration, and tiles the rest of the run from that loop.  One
    strategy serves one run.
    """

    def __init__(self, witness: Witness):
        full = (1 << witness.n) - 1
        self._masks = [full & ~_mask_of(edges) for edges in witness.absent]
        self._path = witness.path_length
        self.state = 0

    def choose_mask(self, t: int, view: RunView) -> int:
        mask = self._masks[self.state]
        self.state += 1
        if self.state == len(self._masks):
            self.state = self._path
        return mask


def replay_witness(witness: Witness, rounds: int) -> Trace:
    """Run the engine under the witness's play from its start configuration."""
    return run_states(
        witness.n,
        witness.algo,
        witness.robots,
        rounds,
        strategy=WitnessStrategy(witness),
        meta_extra={
            "schedule": {"kind": "witness", "max_absent": witness.max_absent},
            "adversary": "witness",
        },
    )


WITNESS_VERSION = 2


def write_witness(witness: Witness, out: IO[str]) -> None:
    header = {
        "format": "ringsweep-witness",
        "version": WITNESS_VERSION,
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
    out.write(_dumps(header) + "\n")
    for t, edges in enumerate(witness.absent):
        out.write(_dumps({"absent": list(edges), "t": t}) + "\n")


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


def _check_play(witness: Witness) -> None:
    """ValueError naming the header field unless the witness's records
    close its lasso and show its `cycle_always_absent` and `starved_nodes`.

    The play is replayed once, for `path_length + cycle_length` rounds, in
    `_ConfigurationGraph`'s normal form: the configuration after those
    rounds must be the one after `path_length` rounds, `starved_nodes` the
    nodes no robot occupies, and `cycle_always_absent` the edges absent in
    every round of the cycle.
    """
    n, full = witness.n, (1 << witness.n) - 1
    table = _search_table(witness.algo, witness.robots)
    pos = [s.position for s in witness.robots]
    codes = _normal_codes(table, witness.robots)
    occupied, always = _mask_of(pos), full
    for t, edges in enumerate(witness.absent):
        if t == witness.path_length:
            entry = (pos, codes)
        absent = _mask_of(edges)
        if t >= witness.path_length:
            always &= absent
        ports = _ports(full & ~absent, n)
        moves = [table.after(code, pos.count(p), ports >> p & 3) for p, code in zip(pos, codes)]
        pos = [(p + step) % n for p, (_, step) in zip(pos, moves)]
        codes = tuple(code for code, _ in moves)
        occupied |= _mask_of(pos)
    if (pos, codes) != entry:
        raise ValueError(
            f"cycle_length {witness.cycle_length}: the configuration after path_length + "
            "cycle_length rounds is not the one after path_length rounds"
        )
    for key, claimed, shown in (
        ("cycle_always_absent", witness.cycle_always_absent, always),
        ("starved_nodes", witness.starved_nodes, full & ~occupied),
    ):
        if _mask_of(claimed) != shown:
            raise ValueError(
                f"{key} {_dumps(list(claimed))} is not what the round records show: "
                f"{_dumps(list(_bits(shown, n)))}"
            )


def read_witness(lines) -> Witness:
    """Parse a witness file; malformed input raises ValueError naming the line.

    The header must declare a cycle of at least one round, and exactly its
    `path_length + cycle_length` round records must follow, `t` = 0, 1, ...
    in order; a shortfall is an error on the header's line.  The header's
    claims about the play are checked against one replay of it
    (`_check_play`), and a disagreement is an error on the header's line.
    """
    it = iter(lines)
    lineno = 1
    try:
        header = json.loads(next(it, ""))
        if type(header) is not dict or header.get("format") != "ringsweep-witness":
            raise ValueError("not a ringsweep witness file")
        if header.get("version") != WITNESS_VERSION:
            raise ValueError(f"version {_dumps(header.get('version'))} is not {WITNESS_VERSION}")
        n = header["n"]
        if type(n) is not int or not 3 <= n <= MAX_N:
            raise ValueError(f"n {_dumps(n)} is not a ring size 3..{MAX_N}")
        for key, least in (("max_absent", 0), ("path_length", 0), ("cycle_length", 1)):
            if type(header[key]) is not int or header[key] < least:
                raise ValueError(f"{key} {_dumps(header[key])} is not an int >= {least}")
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
            absent=[],
            path_length=header["path_length"],
            cycle_length=header["cycle_length"],
            cycle_always_absent=_distinct(header["cycle_always_absent"], n, n, "cycle_always_absent"),
            starved_nodes=_distinct(header["starved_nodes"], n, n, "starved_nodes"),
        )
        rounds = witness.path_length + witness.cycle_length
        for lineno, line in enumerate(it, start=2):
            if not line.strip():
                continue
            rec = json.loads(line)
            if type(rec) is not dict:
                raise ValueError("record is not an object")
            t = len(witness.absent)
            if t == rounds:
                raise ValueError(f"a round record beyond the header's {rounds} rounds")
            if type(rec["t"]) is not int or rec["t"] != t:
                raise ValueError(f"expected round {t}, got {_dumps(rec['t'])}")
            witness.absent.append(_distinct(rec["absent"], n, witness.max_absent, "absent"))
        if len(witness.absent) < rounds:
            lineno = 1
            raise ValueError(
                f"path_length + cycle_length is {rounds} rounds but the file holds "
                f"{len(witness.absent)} round records"
            )
        lineno = 1
        check_cohort(n, witness.algo, robots)
        _check_play(witness)
        return witness
    except KeyError as exc:
        raise ValueError(f"witness line {lineno}: missing field {exc}") from None
    except ValueError as exc:
        raise ValueError(f"witness line {lineno}: {exc}") from None


def read_witness_file(path: str) -> Witness:
    with open(path, "r", encoding="utf-8") as fh:
        return read_witness(fh)
