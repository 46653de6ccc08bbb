"""Checks of the program's outputs, made apart from the program.

Every function returns a list of problems (empty when the output is
right).  The facts checked are recomputed here from the recorded data --
schedule classes from the edge masks, visit gaps from positions, move
legality from the ring geometry -- or replayed through the reference
`engine.step`, never compared with stored copies of earlier output.
"""
from __future__ import annotations

import json
import random
from itertools import combinations

import numpy as np

from ringsweep import engine
from ringsweep.directions import Chirality, Direction
from ringsweep.robot_core import RobotState

CW_FRAME = Chirality.RIGHT_IS_CLOCKWISE.value


# -- schedules -------------------------------------------------------------

def _longest_false_run(present: np.ndarray) -> int:
    padded = np.concatenate([[True], present, [True]])
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    if edges.size == 0:
        return 0
    return int((edges[1::2] - edges[::2]).max())


def schedule_class(edges: np.ndarray, n: int, describe: dict) -> list[str]:
    """The recorded masks belong to the schedule class the run declares."""
    kind = describe["kind"]
    masks = np.asarray(edges, dtype=np.int64)
    full = (1 << n) - 1
    if np.any((masks & ~full) != 0):
        return [f"{kind}: masks name edges outside the footprint"]
    if kind == "static":
        return [] if np.all(masks == full) else ["static: an edge is absent"]
    problems = []
    bound = int(describe["recurrence_bound"])
    missing = describe.get("missing_edge")
    for e in range(n):
        present = (masks >> e & 1).astype(bool)
        if kind == "eventual_missing" and e == missing:
            if present[int(describe["cutoff"]):].any():
                problems.append(f"missing edge {e} present after the cutoff")
            continue
        run = _longest_false_run(present)
        if run >= bound:
            problems.append(f"{kind}: edge {e} absent {run} rounds in a row, bound {bound}")
    return problems


# -- reference replay ------------------------------------------------------

def _initial_states(meta: dict) -> list[RobotState]:
    return [
        RobotState.make(
            r["id"], r["pos"], Direction(r["dir"]), Chirality(r["chirality"]),
            i=r["i"], nrpea=r["nrpea"], hmpea=r["hmpea"],
        )
        for r in meta["robots"]
    ]


def _states_entering(trace, t: int) -> list[RobotState]:
    """Robot states at Look of round t, rebuilt from the recorded columns."""
    if t == 0:
        return _initial_states(trace.meta)
    states = []
    for col, r in enumerate(trace.meta["robots"]):
        cw = bool(trace.gdir_cw[t - 1, col])
        right = cw == (r["chirality"] == CW_FRAME)
        states.append(
            RobotState.make(
                r["id"], int(trace.pos[t, col]),
                Direction.RIGHT if right else Direction.LEFT, Chirality(r["chirality"]),
                i=int(trace.idx[t - 1, col]), nrpea=int(trace.nrpea[t - 1, col]),
                hmpea=bool(trace.hmpea[t - 1, col]),
            )
        )
    return states


def reference_replay(trace, windows: list[tuple[int, int]]) -> list[str]:
    """Rounds [t0, t0 + length) replayed through `engine.step` from the
    recorded configuration at t0 reproduce every recorded field."""
    n, algo = trace.meta["n"], trace.meta["algo"]
    for t0, length in windows:
        t1 = min(t0 + length, trace.rounds)
        edges = trace.edges[t0:t1].tolist()
        pos = trace.pos[t0:t1].tolist()
        after = np.vstack([trace.pos[t0 + 1:t1 + 1], trace.final_pos[None, :]])[: t1 - t0]
        after = after.tolist()
        gdir = trace.gdir_cw[t0:t1].tolist()
        idx = trace.idx[t0:t1].tolist()
        nrpea = trace.nrpea[t0:t1].tolist()
        hmpea = trace.hmpea[t0:t1].tolist()
        moved = trace.moved[t0:t1].tolist()
        config = engine.Configuration(t0, tuple(_states_entering(trace, t0)))
        for j in range(t1 - t0):
            t = t0 + j
            if list(config.positions()) != pos[j]:
                return [f"round {t}: positions {pos[j]} != replayed {list(config.positions())}"]
            nxt = engine.step(config, edges[j], algo, n)
            for col, s in enumerate(nxt.robots):
                cw = (s.direction is Direction.RIGHT) == (s.chirality is Chirality.RIGHT_IS_CLOCKWISE)
                want = (s.position, cw, s.i, s.nrpea, s.hmpea, s.position != config.robots[col].position)
                got = (after[j][col], gdir[j][col], idx[j][col], nrpea[j][col], hmpea[j][col],
                       moved[j][col])
                if want != got:
                    return [f"round {t} robot {s.id}: recorded (pos, gdir_cw, i, nrpea, hmpea, "
                            f"moved) {got} != reference {want}"]
            config = nxt
    return []


def moves_cross_present_edges(trace) -> list[str]:
    """Every move is one step along the pointed direction over a present
    edge, and a robot that does not move stays put."""
    n = trace.meta["n"]
    pos = trace.pos.astype(np.int64)
    after = np.vstack([trace.pos[1:], trace.final_pos[None, :]]).astype(np.int64)
    cw = trace.gdir_cw
    edge = np.where(cw, pos, (pos - 1) % n)
    present = (trace.edges[:, None] >> edge & 1).astype(bool)
    want = np.where(trace.moved, (pos + np.where(cw, 1, -1)) % n, pos)
    bad = (trace.moved & ~present) | (after != want)
    if bad.any():
        t, col = (int(x) for x in np.argwhere(bad)[0])
        return [f"round {t} robot column {col}: illegal move"]
    return []


# -- coverage --------------------------------------------------------------

def visit_gaps(rows, n: int) -> list[int | None]:
    """Per-node largest stretch of configuration times without a visit,
    counting the stretches before the first and after the last visit;
    None for a node never visited.  `rows` are the robot positions at
    consecutive configuration times."""
    last: list[int | None] = [None] * n
    gap = [0] * n
    j = -1
    for j, row in enumerate(rows):
        for p in set(row):
            prev = last[p]
            gap[p] = j + 1 if prev is None else max(gap[p], j - prev)
            last[p] = j
    span = j
    return [None if last[v] is None else max(gap[v], span - last[v] + 1) for v in range(n)]


def coverage_gaps(trace, report, suffix: int) -> list[str]:
    """`coverage` agrees with visit gaps computed here, and every node is
    visited in the suffix."""
    rows = trace.pos[suffix:].tolist() + [trace.final_pos.tolist()]
    gaps = visit_gaps(rows, trace.meta["n"])
    problems = []
    if any(g is None for g in gaps):
        problems.append(f"nodes {[v for v, g in enumerate(gaps) if g is None]} unvisited "
                        f"from {suffix}")
    reported = [report.node_max_gap.get(v) for v in range(len(gaps))]
    if reported != gaps:
        problems.append(f"coverage gaps {reported} != recomputed {gaps}")
    if report.covered != all(g is not None for g in gaps):
        problems.append(f"coverage verdict {report.verdict()} contradicts the visits")
    return problems


def sentinels(trace, report) -> list[str]:
    """From the established round on, both endpoints of the missing edge
    host a robot whose Look-phase direction points at the edge."""
    n = trace.meta["n"]
    start = report.established_round
    if start is None:
        return ["sentinels never established"]
    a, b = report.missing_edge, (report.missing_edge + 1) % n
    initial = np.array([r["gdir"] == "CW" for r in trace.meta["robots"]])
    look_cw = np.vstack([initial[None, :], trace.gdir_cw[:-1]])[start:]
    pos = trace.pos[start:]
    held = ((pos == a) & look_cw).any(axis=1) & ((pos == b) & ~look_cw).any(axis=1)
    if not held.all():
        return [f"sentinel at edge {a} lost at round {start + int(np.argmin(held))}"]
    return []


# -- trace files -----------------------------------------------------------

def trace_file(path: str, rounds: int, suffix: int, n: int) -> tuple[list[str], list]:
    """Parse the file with stdlib json line by line; return the problems
    and the per-node visit gaps over configuration times [suffix, rounds]."""
    problems = []
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("format") != "ringsweep-trace" or header["meta"]["n"] != n:
            problems.append("trace header does not describe the run")
        count = 0
        rec = None

        def rows():
            nonlocal count, rec
            for line in fh:
                rec = json.loads(line)
                if rec["t"] != count:
                    problems.append(f"record {count} carries round {rec['t']}")
                count += 1
                if rec["t"] >= suffix:
                    yield [r["pos"] for r in rec["robots"]]
            if rec is not None:
                yield [
                    (r["pos"] + (1 if r["gdir"] == "CW" else -1)) % n if r["moved"] else r["pos"]
                    for r in rec["robots"]
                ]

        gaps = visit_gaps(rows(), n)
    if count != rounds:
        problems.append(f"trace holds {count} rounds, expected {rounds}")
    return problems, gaps


# -- adversary -------------------------------------------------------------

def _popcount(x: int) -> int:
    return bin(x).count("1")


def witness_replay(witness, trace, cohort_size: int) -> list[str]:
    """The replay never visits the starved nodes; it removes at most
    `max_absent` edges per round, each incident to a robot; with one absent
    edge a cycle keeps at most one edge always absent; a three-robot
    cohort is only confined by plays that hold two edges absent forever."""
    n = witness.n
    full = (1 << n) - 1
    problems = list(moves_cross_present_edges(trace))
    seen = set(np.unique(np.vstack([trace.pos, trace.final_pos[None, :]])).tolist())
    starved = set(witness.starved_nodes)
    if not starved:
        problems.append("witness starves no node")
    if starved & seen:
        problems.append(f"replay visits starved nodes {sorted(starved & seen)}")
    if not set(range(n)) - seen:
        problems.append("replay visits every node")
    absent = [full & ~m for m in trace.edges.tolist()]
    pos = trace.pos.tolist()
    for t, (a, row) in enumerate(zip(absent, pos)):
        incident = 0
        for p in row:
            incident |= 1 << p | 1 << (p - 1) % n
        if _popcount(a) > witness.max_absent or a & ~incident:
            return problems + [f"round {t}: absent edges {a:b} not a legal choice"]
    lo, cycle = witness.path_length, max(witness.cycle_length, 1)
    if trace.rounds < lo + n * cycle:
        return problems + ["replay too short to cover the cycle's rotations"]
    forever = full
    for t in range(lo, trace.rounds):
        forever &= absent[t]
    if witness.max_absent == 1:
        for start in range(lo, trace.rounds - cycle + 1, cycle):
            always = full
            for t in range(start, start + cycle):
                always &= absent[t]
            if _popcount(always) > 1:
                return problems + [f"cycle at {start} keeps {always:b} absent"]
    if cohort_size == 3 and _popcount(forever) < 2:
        problems.append("three robots confined inside the connected-over-time class")
    return problems


def random_plays(robots, n: int, algo: str, max_absent: int, explored: int,
                 rng: random.Random, plays: int) -> list[str]:
    """Under a NotConfinable verdict every legal play visits every node
    within `explored + 1` rounds; try `plays` random ones through `step`."""
    for play in range(plays):
        config = engine.Configuration(0, tuple(robots))
        visited = set(config.positions())
        for _ in range(explored + 1):
            if len(visited) == n:
                break
            incident = sorted({e for p in config.positions() for e in (p, (p - 1) % n)})
            size = rng.randint(0, min(max_absent, len(incident)))
            absent = rng.choice(list(combinations(incident, size)))
            mask = (1 << n) - 1
            for e in absent:
                mask &= ~(1 << e)
            config = engine.step(config, mask, algo, n)
            visited |= set(config.positions())
        if len(visited) != n:
            return [f"play {play} left nodes {sorted(set(range(n)) - visited)} unvisited "
                    f"after {explored + 1} rounds"]
    return []


def confinement(trace, report, suffix: int) -> list[str]:
    """The coverage verdict matches the visits, and a run that starves a
    node holds at least two edges absent through the whole suffix."""
    n = trace.meta["n"]
    rows = trace.pos[suffix:].tolist() + [trace.final_pos.tolist()]
    gaps = visit_gaps(rows, n)
    starved = [v for v, g in enumerate(gaps) if g is None]
    problems = []
    if report.covered == bool(starved):
        problems.append(f"coverage verdict {report.verdict()} contradicts the visits")
    if starved:
        full = (1 << n) - 1
        forever = full
        for m in trace.edges[suffix:].tolist():
            forever &= full & ~m
        if _popcount(forever) < 2:
            problems.append(f"node {starved} starved with edges {forever:b} absent throughout")
    return problems


# -- planted faults --------------------------------------------------------

def self_test() -> list[str]:
    """The replay check rejects runs built with a mutation flag, and the
    gap check rejects coverage computed from a corrupted trace."""
    from dataclasses import replace

    from ringsweep import analysis
    from ringsweep.ring_model import EventualMissingSchedule, RecurrentRandomSchedule

    cw = Chirality.RIGHT_IS_CLOCKWISE
    robots = [
        RobotState.make(0, 0, Direction.RIGHT, cw, i=1, nrpea=2, hmpea=False),
        RobotState.make(2, 0, Direction.RIGHT, cw, i=3, nrpea=2, hmpea=False),
        RobotState.make(1, 3, Direction.RIGHT, cw, i=5, nrpea=1, hmpea=True),
    ]
    schedule = EventualMissingSchedule(RecurrentRandomSchedule(6, 0.5, 8, 5), 0, 0)

    def run(mutations=frozenset()):
        return engine.run_states(6, "pef3", robots, 400, schedule=schedule, mutations=mutations)

    problems = []
    clean = run()
    if reference_replay(clean, [(0, 400)]):
        problems.append("replay check rejects a clean run")
    for mutation in ("skip_update", "freeze_hmpea"):
        if not reference_replay(run(frozenset({mutation})), [(0, 400)]):
            problems.append(f"replay check accepts a run built with {mutation}")

    suffix = 100
    if coverage_gaps(clean, analysis.coverage(clean, suffix), suffix):
        problems.append("gap check rejects a clean coverage report")
    pos = clean.pos.copy()
    pos[suffix:][pos[suffix:] == 2] = 3
    final = np.where(clean.final_pos == 2, 3, clean.final_pos).astype(clean.final_pos.dtype)
    corrupted = replace(clean, pos=pos, final_pos=final, _cache={})
    if not coverage_gaps(clean, analysis.coverage(corrupted, suffix), suffix):
        problems.append("gap check accepts coverage of a corrupted trace")
    return problems
