"""Adversary strategies: schedules, confinement window, game search, witnesses."""
import hashlib
import io
import random
import sys
import threading
from dataclasses import dataclass
from itertools import combinations

import numpy as np

import pytest

from ringsweep import adversary as adv
from ringsweep import analysis, engine
from ringsweep.directions import Chirality, Direction, GlobalDirection, to_global
from ringsweep.engine import RunView, _LocalTable, _mask_of, _ports, fuzz_initial, run_states
from ringsweep.ring_model import (
    EdgeClass,
    EventualMissingSchedule,
    RecurrentRandomSchedule,
    StaticSchedule,
    classify_prefix,
)
from ringsweep.robot_core import NO_MUTATIONS, RobotState
from ringsweep.words import normalize_index, transformed_length

CW = Chirality.RIGHT_IS_CLOCKWISE
R = Direction.RIGHT
L = Direction.LEFT


def facing_pair(n=4):
    """Two robots on the endpoints of edge 0, both pointing at it."""
    return [
        RobotState.make(0, 0, R, CW, i=1, nrpea=1, hmpea=True),
        RobotState.make(1, 1, L, CW, i=1, nrpea=1, hmpea=True),
    ]


def recurrent_ring(n, p, bound, seed):
    return RecurrentRandomSchedule(n, p, bound, seed)


def eventual_missing_ring(n, missing_edge, cutoff, seed):
    inner = RecurrentRandomSchedule(n, 0.5, 8, seed)
    return EventualMissingSchedule(inner, missing_edge, cutoff)


def edges_at(schedule, t):
    """The edges present in round t: the set bits of `masks(t + 1)[t]`."""
    mask = schedule.masks(t + 1)[t]
    return frozenset(e for e in range(schedule.n) if mask >> e & 1)


class TestScheduleBuilders:
    def test_recurrent_random_p1_static(self):
        ring = recurrent_ring(4, 1.0, 8, 1)
        assert edges_at(ring, 99) == frozenset({0, 1, 2, 3})

    def test_recurrent_random_p0_pure_patching(self):
        ring = recurrent_ring(4, 0.0, 3, 1)
        for t in range(9):
            expected = frozenset({0, 1, 2, 3}) if (t + 1) % 3 == 0 else frozenset()
            assert edges_at(ring, t) == expected

    def test_eventual_missing_classifies_connected_over_time(self):
        ring = eventual_missing_ring(5, 2, 0, seed=9)
        report = classify_prefix(ring, 500, 8)
        assert report.verdict is EdgeClass.CONNECTED_OVER_TIME
        assert report.missing_candidates == {2: 0}

    def test_eventual_missing_rejects_second_edge(self):
        ring = eventual_missing_ring(5, 2, 0, seed=9)
        with pytest.raises(ValueError, match="at most one"):
            EventualMissingSchedule(ring, 4, 0)


def view_for(n, positions):
    k = len(positions)
    return RunView(
        n=n,
        full_mask=(1 << n) - 1,
        pos=list(positions),
        dir_right=[True] * k,
        chir_cw=[True] * k,
        idx=[1] * k,
        nrpea=[1] * k,
        hmpea=[1] * k,
    )


def state_key(n, pos, gdir_cw, idx, nrpea, hmpea, visited_mask, ells):
    """Canonical game-state key under ring rotation, plus the rotation used:
    robot 0 on node 0, the read index normalized into 1..ell and nrpea
    capped at k+1."""
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


def _key_str(key):
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
class PolicyWitness:
    """The reference witness: a policy from canonical state keys to absent
    edges, in the rotated frame."""

    n: int
    algo: str
    max_absent: int
    robots: list
    policy: dict
    path_length: int
    cycle_length: int
    cycle_always_absent: tuple = ()
    starved_nodes: tuple = ()


class PolicyWitnessStrategy:
    """The reference replay: each round's canonical key, looked up in the
    policy and rotated back onto the ring.  `state` is the visited mask, so
    the run stops asking once a (visited, configuration) pair returns."""

    def __init__(self, witness):
        self.witness = witness
        self._ells = [transformed_length(r.id) for r in witness.robots]
        self.state = 0

    def choose_mask(self, t, view):
        n = view.n
        self.state |= _mask_of(view.pos)
        gdir = [right == cw_frame for right, cw_frame in zip(view.dir_right, view.chir_cw)]
        key, rot = state_key(
            n, view.pos, gdir, view.idx, view.nrpea, view.hmpea, self.state, self._ells
        )
        absent = self.witness.policy[_key_str(key)]
        return view.full_mask & ~_mask_of((e - rot) % n for e in absent)


def policy_replay(witness, rounds):
    """`adv.replay_witness` of the reference policy witness."""
    return run_states(
        witness.n, witness.algo, witness.robots, rounds,
        strategy=PolicyWitnessStrategy(witness),
        meta_extra={
            "schedule": {"kind": "witness", "max_absent": witness.max_absent},
            "adversary": "witness",
        },
    )


class OracleGameContext:
    """The reference game graph: one canonical `state_key` tuple per game
    state, every child stepped robot by robot and keyed afresh."""

    def __init__(self, n, algo, robots, max_absent):
        self.n = n
        self.table = _LocalTable(algo, robots, NO_MUTATIONS)
        self.ells = [r.ell for r in robots]
        self.full = (1 << n) - 1
        self.max_absent = max_absent

    def start_state(self, robots):
        pos = [r.position for r in robots]
        gdir = [to_global(r.direction, r.chirality) is GlobalDirection.CLOCKWISE for r in robots]
        idx = [r.i for r in robots]
        nr = [r.nrpea for r in robots]
        hm = [1 if r.hmpea else 0 for r in robots]
        key, _ = state_key(self.n, pos, gdir, idx, nr, hm, _mask_of(pos), self.ells)
        return key

    def choices(self, key):
        """Absent-edge masks, largest removal sets first, then lexicographic."""
        pos = key[0]
        incident = sorted({p for q in pos for p in (q, (q - 1) % self.n)})
        out = []
        top = min(self.max_absent, len(incident))
        for size in range(top, -1, -1):
            out += map(_mask_of, combinations(incident, size))
        return out

    def transition(self, key, absent_mask):
        """Apply one round from the canonical representative configuration."""
        rpos, gd, idx, nr, hm, vis = key
        n, table = self.n, self.table
        ports = _ports(self.full & ~absent_mask, n)
        new_pos, gdir, idx_l, nr_l, hm_l = [], [], [], [], []
        for r, p in enumerate(rpos):
            cw_frame = table.chir_cw[r]
            code = table.code((r, gd[r] == cw_frame, idx[r], nr[r], hm[r]))
            code, step = table.after(code, rpos.count(p), ports >> p & 3)
            _, right, i, nrpea, hmpea = table.local(code)
            new_pos.append((p + step) % n)
            gdir.append(right == cw_frame)
            idx_l.append(i)
            nr_l.append(nrpea)
            hm_l.append(hmpea)
        new_vis = vis | _mask_of(new_pos)
        child, _ = state_key(n, new_pos, gdir, idx_l, nr_l, hm_l, new_vis, self.ells)
        return child


def oracle_game_search(n, robots, algo, max_absent=1, state_budget=2_000_000):
    """The reference search: the visited-mask DFS over `OracleGameContext`,
    whose witness is a policy annotated by `oracle_annotate_witness`."""
    ctx = OracleGameContext(n, algo, robots, max_absent)
    full_visited = ctx.full
    start = ctx.start_state(robots)
    if start[5] == full_visited:
        return adv.SearchResult(adv.VERDICT_NOT_CONFINABLE, 0, state_budget, max_absent)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {start: GRAY}
    stack = [[start, ctx.choices(start), -1]]
    explored = 1
    cycle_entry = None
    while stack:
        frame = stack[-1]
        frame[2] += 1
        if frame[2] >= len(frame[1]):
            color[frame[0]] = BLACK
            stack.pop()
            continue
        child = ctx.transition(frame[0], frame[1][frame[2]])
        if child[5] == full_visited:
            continue
        st = color.get(child, WHITE)
        if st == GRAY:
            cycle_entry = child
            break
        if st == BLACK:
            continue
        if explored >= state_budget:
            return adv.SearchResult(adv.VERDICT_INCONCLUSIVE, explored, state_budget, max_absent)
        color[child] = GRAY
        explored += 1
        stack.append([child, ctx.choices(child), -1])
    if cycle_entry is None:
        return adv.SearchResult(adv.VERDICT_NOT_CONFINABLE, explored, state_budget, max_absent)
    policy = {}
    for state, choices, idx in stack:
        absent_mask = choices[idx]
        policy[_key_str(state)] = tuple(e for e in range(n) if absent_mask >> e & 1)
    entry_index = next(i for i, f in enumerate(stack) if f[0] == cycle_entry)
    witness = PolicyWitness(
        n=n, algo=algo, max_absent=max_absent, robots=list(robots), policy=policy,
        path_length=entry_index, cycle_length=len(stack) - entry_index,
    )
    oracle_annotate_witness(witness)
    return adv.SearchResult(adv.VERDICT_CONFINABLE, explored, state_budget, max_absent, witness)


def oracle_annotate_witness(witness):
    """Starved nodes and the cycle's permanently absent edges, read off a
    policy replay of `path + 2 * max(cycle, 1)` rounds."""
    rounds = witness.path_length + 2 * max(witness.cycle_length, 1)
    trace = policy_replay(witness, rounds)
    full = (1 << witness.n) - 1
    lo = witness.path_length
    hi = lo + witness.cycle_length
    absent_always = full
    for t in range(lo, hi):
        absent_always &= full & ~int(trace.edges[t])
    witness.cycle_always_absent = tuple(e for e in range(witness.n) if absent_always >> e & 1)
    seen = set(int(p) for p in trace.config_positions().flat)
    witness.starved_nodes = tuple(sorted(set(range(witness.n)) - seen))


def configuration(trace, robots, t):
    """The configuration before round t of a replay, canonical as the
    search keys it: positions, then the variables with the read index
    normalized and nrpea capped at k+1."""
    if t == 0:
        variables = (
            [to_global(r.direction, r.chirality) is GlobalDirection.CLOCKWISE for r in robots],
            [r.i for r in robots], [r.nrpea for r in robots], [r.hmpea for r in robots],
        )
    else:
        # Columns hold each round's post-Compute variables: the state the
        # next round starts from.
        variables = [col[t - 1].tolist() for col in
                     (trace.gdir_cw, trace.idx, trace.nrpea, trace.hmpea)]
    gdir, idx, nrpea, hmpea = variables
    cap = len(robots) + 1
    return (
        tuple(trace.config_positions()[t].tolist()),
        tuple(map(bool, gdir)),
        tuple(normalize_index(i, r.ell) for i, r in zip(idx, robots)),
        tuple(min(v, cap) for v in nrpea),
        tuple(map(bool, hmpea)),
    )


def phase(witness, t):
    """The index of the record round t of a replay plays."""
    lo = witness.path_length
    return t if t < lo else lo + (t - lo) % witness.cycle_length


def check_golden_search(n, robots, algo, explored, digest):
    """Pins the explored count, and the witness format and its rounds byte
    for byte, as the golden trace digest pins traces."""
    result = adv.game_search(n, robots, algo)
    assert result.explored == explored
    if digest is None:
        assert result.witness is None
        return
    buf = io.StringIO()
    adv.write_witness(result.witness, buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


# The paper's criterion-5 searches: (n, robots, algo, explored, witness digest).
GOLDEN_SEARCHES = [
    pytest.param(4, facing_pair(), "pef3", 2,
                 "bc96708aeaa94c540312dd9a879737286339e9fa63e38f26258fc2695c4f6042",
                 id="facing-pair-pef3"),
    pytest.param(3, [RobotState.make(0, 0, R, CW, i=1, nrpea=1, hmpea=True)], "pef2", 3,
                 "c15d209a256276a6abb83e9bfc1a37886129efb10c812d0f8d9a393e061cd36f",
                 id="solo-pef2"),
    pytest.param(4, [RobotState.make(r, r, R, CW, i=1, nrpea=1, hmpea=True) for r in range(3)],
                 "pef3", 4, None, id="trio-pef3"),
]


class TestConfinementCases:
    # Window nodes v, w, x = 1, 2, 3; e_vl = 0, e_wr = 2, e_xr = 3.
    @pytest.mark.parametrize(
        "positions,absent",
        [
            ((1, 2), {0}),
            ((3, 2), {3}),
            ((1, 3), {0, 3}),
            ((1, 1), {0}),
            ((2, 2), {2}),
            ((3, 3), {3}),
            ((1, 2, 3), {0, 3}),
        ],
    )
    def test_case_analysis(self, positions, absent):
        a = adv.ConfinementAdversary(5)
        mask = a.choose_mask(0, view_for(5, positions))
        missing = {e for e in range(5) if not mask >> e & 1}
        assert missing == absent

    def test_escape_ends_episode(self):
        a = adv.ConfinementAdversary(5)
        mask = a.choose_mask(0, view_for(5, (0, 2)))
        assert mask == 0b11111
        assert a.status == adv.CONFINEMENT_ESCAPED
        # Once escaped the adversary stays out of the way.
        assert a.choose_mask(1, view_for(5, (1, 2))) == 0b11111

    def test_stall_cap_flags_self_starvation(self):
        a = adv.ConfinementAdversary(5, stall_cap=3)
        for t in range(6):
            a.choose_mask(t, view_for(5, (1, 3)))
        assert a.status == adv.CONFINEMENT_SELF_STARVED

    def test_two_robot_episode_stays_in_window(self):
        a = adv.ConfinementAdversary(4, stall_cap=200)
        robots = [RobotState.make(0, 1, R, CW), RobotState.make(1, 2, R, CW)]
        trace = run_states(4, "pef3", robots, 1500, strategy=a)
        assert a.status in (adv.CONFINEMENT_ACTIVE, adv.CONFINEMENT_SELF_STARVED)
        assert set(int(p) for p in trace.config_positions().flat) <= {1, 2, 3}
        report = analysis.coverage(trace, 100)
        assert not report.covered

    def test_removals_persist_exactly_until_a_robot_moves(self):
        # While positions stand still the removal set is frozen; the round
        # after each movement the case analysis is re-applied.
        a = adv.ConfinementAdversary(4, stall_cap=10_000)
        robots = [RobotState.make(0, 1, R, CW), RobotState.make(1, 2, L, CW)]
        trace = run_states(4, "pef3", robots, 400, strategy=a)
        positions = trace.config_positions()
        moved_rounds = set(np.nonzero(trace.moved.any(axis=1))[0].tolist())
        assert moved_rounds, "episode never moved; nothing to check"
        for t in range(1, trace.rounds):
            same_config = (positions[t] == positions[t - 1]).all()
            if same_config:
                assert trace.edges[t] == trace.edges[t - 1], f"removal changed mid-wait at {t}"

    def test_split_ring_confinement_is_out_of_class(self):
        # Against fuzzed trios on n = 4 the window holds e_vl = 0 and
        # e_xr = 3 absent together while the cohort moves inside it: node 0
        # starves only because the ring is split in two.
        starved = 0
        for s in range(50):
            a = adv.ConfinementAdversary(4, stall_cap=100)
            states = fuzz_initial(4, [0, 1, 2], random.Random(86_000 + s))
            trace = run_states(4, "pef3", states, 3_000, strategy=a)
            covered = analysis.coverage(trace, 1_500).covered
            assert (a.status == adv.CONFINEMENT_OUT_OF_CLASS) == (not covered), s
            starved += not covered
        assert starved == 17

    def test_occupancy_table_matches_case_analysis(self):
        # Every occupied node set on n = 4..7, for every window: the case
        # analysis's removal while the set lies inside the window, and the
        # full mask with status "escaped" once a robot stands outside it.
        for n in range(4, 8):
            full = (1 << n) - 1
            for start in range(n):
                window = {start, (start + 1) % n, (start + 2) % n}
                for bits in range(1, full + 1):
                    occupied = [p for p in range(n) if bits >> p & 1]
                    a = adv.ConfinementAdversary(n, window_start=start)
                    mask = a.choose_mask(0, view_for(n, occupied))
                    if set(occupied) <= window:
                        assert mask == full & ~a._case_removal(frozenset(occupied))
                        assert a.status == adv.CONFINEMENT_ACTIVE
                    else:
                        assert mask == full
                        assert a.status == adv.CONFINEMENT_ESCAPED

    def test_requires_ring_of_four(self):
        with pytest.raises(ValueError, match=">= 4"):
            adv.ConfinementAdversary(3)

    def test_rejects_negative_stall_cap(self):
        adv.ConfinementAdversary(4, stall_cap=0)
        with pytest.raises(ValueError, match="stall_cap must be >= 0"):
            adv.ConfinementAdversary(4, stall_cap=-1)


class TestGameSearch:
    def test_two_robots_confinable_with_legal_witness(self):
        result = adv.game_search(4, facing_pair(), "pef3")
        assert result.verdict == adv.VERDICT_CONFINABLE
        w = result.witness
        assert w is not None
        assert len(w.cycle_always_absent) <= 1  # connected-over-time play
        assert w.starved_nodes

    def test_witness_replay_starves_forever(self):
        result = adv.game_search(4, facing_pair(), "pef3")
        trace = adv.replay_witness(result.witness, 3000)
        seen = set(int(p) for p in trace.config_positions().flat)
        assert set(range(4)) - seen
        report = analysis.coverage(trace, 1500)
        assert not report.covered

    def test_one_robot_pef2_confinable(self):
        robot = [RobotState.make(0, 0, R, CW, i=1, nrpea=1, hmpea=True)]
        result = adv.game_search(3, robot, "pef2")
        assert result.verdict == adv.VERDICT_CONFINABLE
        assert len(result.witness.cycle_always_absent) <= 1

    def test_three_robots_not_confinable(self):
        robots = [
            RobotState.make(0, 0, R, CW, i=1, nrpea=1, hmpea=True),
            RobotState.make(1, 1, R, CW, i=1, nrpea=1, hmpea=True),
            RobotState.make(2, 2, R, CW, i=1, nrpea=1, hmpea=True),
        ]
        result = adv.game_search(4, robots, "pef3")
        assert result.verdict == adv.VERDICT_NOT_CONFINABLE

    def test_search_is_deterministic(self):
        a = adv.game_search(4, facing_pair(), "pef3")
        b = adv.game_search(4, facing_pair(), "pef3")
        assert a.witness == b.witness
        assert a.explored == b.explored

    def test_budget_exhaustion_is_explicit(self):
        result = adv.game_search(4, facing_pair(), "pef3", state_budget=1)
        assert result.verdict == adv.VERDICT_INCONCLUSIVE
        assert result.explored == 1
        with pytest.raises(ValueError, match="state_budget must be >= 1"):
            adv.game_search(4, facing_pair(), "pef3", state_budget=0)

    def test_desk_scale_bounds(self):
        with pytest.raises(ValueError, match="desk-scale"):
            adv.game_search(7, facing_pair(), "pef3")
        with pytest.raises(ValueError, match="desk-scale"):
            adv.game_search(
                4, [RobotState.make(i, 0) for i in range(4)], "pef3"
            )

    def test_search_exhaustive_over_choice_set(self):
        # For a NotConfinable verdict the search has explored exactly the
        # states the oracle's game graph reaches through the declared choice
        # set before the play is lost (all nodes visited): 11 for this trio,
        # and as many as reachable for fuzzed trios on n = 5.
        trio = [
            RobotState.make(0, 0, R, CW, i=1, nrpea=1, hmpea=True),
            RobotState.make(1, 1, L, CW, i=1, nrpea=1, hmpea=True),
            RobotState.make(2, 3, R, CW, i=1, nrpea=1, hmpea=True),
        ]
        cases = [(4, trio, 11)]
        cases += [(5, fuzz_initial(5, [0, 1, 2], random.Random(s)), None) for s in range(5)]
        for n, robots, expected in cases:
            result = adv.game_search(n, robots, "pef3")
            assert result.verdict == adv.VERDICT_NOT_CONFINABLE
            ctx = OracleGameContext(n, "pef3", robots, 1)
            start = ctx.start_state(robots)
            reachable, frontier = {start}, [start]
            while frontier:
                state = frontier.pop()
                for mask in ctx.choices(state):
                    child = ctx.transition(state, mask)
                    if child[5] != ctx.full and child not in reachable:
                        reachable.add(child)
                        frontier.append(child)
            assert len(reachable) == result.explored
            assert expected is None or result.explored == expected

    def test_search_matches_the_oracle_on_fuzzed_starts(self):
        # The interned search against the reference DFS, its policy witness
        # and its replay-based annotation: n 3..6, k 1..3, pef2 at n = 3,
        # max_absent 0..2 and n (for n <= 4), and state budgets 1..20 for
        # Inconclusive.  Fuzzed starts hold out-of-range read indices and
        # nrpea up to 2k, so the normalization at the start is exercised
        # too.  Every witness replays exactly as the reference policy does,
        # column for column, over one round, the path and one turn of the
        # cycle, three turns, and 5,000 rounds; its cycle brings back the
        # configuration it entered with, unrotated; and it reads back from
        # its file.
        rng = random.Random(13_013)
        seen = {"n": set(), "k": set(), "max_absent": set(), "verdict": set(), "algo": set()}
        witnesses = 0
        for case in range(400):
            n, k = rng.randint(3, 6), rng.randint(1, 3)
            algo = "pef2" if n == 3 and rng.random() < 0.5 else "pef3"
            max_absent = rng.choice([0, 1, 2] + ([n] if n <= 4 else []))
            budget = rng.randint(1, 20) if rng.random() < 0.3 else 2_000_000
            robots = fuzz_initial(n, list(range(k)), rng)
            want = oracle_game_search(n, robots, algo, max_absent, budget)
            got = adv.game_search(n, robots, algo, max_absent, budget)
            assert (got.verdict, got.explored) == (want.verdict, want.explored), case
            assert (got.witness is None) == (want.witness is None), case
            if want.witness is not None:
                witnesses += 1
                w, ref = got.witness, want.witness
                assert (w.path_length, w.cycle_length) == (ref.path_length, ref.cycle_length), case
                assert w.starved_nodes == ref.starved_nodes, case
                assert w.cycle_always_absent == ref.cycle_always_absent, case
                # Reading the file back replays the play to check the header.
                buf = io.StringIO()
                adv.write_witness(w, buf)
                assert adv.read_witness(buf.getvalue().splitlines()) == w, case
                lo, cycle = w.path_length, w.cycle_length
                for rounds in (1, lo + cycle, lo + 3 * cycle, 5_000):
                    trace, expected = adv.replay_witness(w, rounds), policy_replay(ref, rounds)
                    for name in ("edges", "pos", "gdir_cw", "idx", "nrpea", "hmpea", "moved",
                                 "final_pos"):
                        assert np.array_equal(getattr(trace, name), getattr(expected, name)), (
                            case, rounds, name)
                    assert trace.meta == expected.meta, (case, rounds)
                # `trace` is the 5,000-round replay: its cycle turns the ring by 0.
                assert configuration(trace, robots, lo + cycle) == configuration(trace, robots, lo), case
            for key, value in (("n", n), ("k", k), ("max_absent", max_absent),
                               ("verdict", got.verdict), ("algo", algo)):
                seen[key].add(value)
        assert seen["n"] == {3, 4, 5, 6} and seen["k"] == {1, 2, 3}
        assert seen["max_absent"] == {0, 1, 2, 3, 4} and seen["algo"] == {"pef2", "pef3"}
        assert seen["verdict"] == {adv.VERDICT_CONFINABLE, adv.VERDICT_NOT_CONFINABLE,
                                   adv.VERDICT_INCONCLUSIVE}
        assert witnesses >= 100

    def test_witness_file_round_trip(self):
        result = adv.game_search(4, facing_pair(), "pef3")
        buf = io.StringIO()
        adv.write_witness(result.witness, buf)
        back = adv.read_witness(io.StringIO(buf.getvalue()).read().splitlines())
        assert back == result.witness
        trace_a = adv.replay_witness(result.witness, 200)
        trace_b = adv.replay_witness(back, 200)
        assert (trace_a.pos == trace_b.pos).all()
        assert (trace_a.edges == trace_b.edges).all()

    def test_replayed_masks_follow_the_witness_rounds(self):
        # Round t plays record t during the path, then the cycle's records
        # in turn; the records hold at most `max_absent` edges, each
        # incident to a robot of that round.
        rng = random.Random(2024)
        witnesses = []
        while len(witnesses) < 24:
            n, k = rng.randint(4, 6), rng.randint(1, 3)
            states = fuzz_initial(n, list(range(k)), rng)
            result = adv.game_search(n, states, "pef3", max_absent=rng.randint(1, 2))
            if result.witness is not None:
                witnesses.append(result.witness)
        assert {len(w.robots) for w in witnesses} == {1, 2, 3}
        for w in witnesses:
            full = (1 << w.n) - 1
            rounds = w.path_length + 3 * w.cycle_length
            trace = adv.replay_witness(w, rounds)
            assert len(w.absent) == w.path_length + w.cycle_length
            for t in range(rounds):
                absent = w.absent[phase(w, t)]
                assert int(trace.edges[t]) == full & ~_mask_of(absent), t
                incident = {e for p in trace.pos[t].tolist() for e in (p, (p - 1) % w.n)}
                assert len(absent) <= w.max_absent and set(absent) <= incident, t

    def test_solo_pef2_witness_rounds(self):
        # The solo pef2 robot shuttles between nodes 0 and 2: round 0 removes
        # edge 0, then the cycle removes edges 1 and 0 in turn.  Round 2
        # meets the start configuration again, but with node 2 visited since,
        # so the search's cycle starts at round 1.
        robot = [RobotState.make(0, 0, R, CW, i=1, nrpea=1, hmpea=True)]
        witness = adv.game_search(3, robot, "pef2").witness
        assert witness.absent == [(0,), (1,), (0,)]
        assert (witness.path_length, witness.cycle_length) == (1, 2)
        assert witness.starved_nodes == (1,)
        trace = adv.replay_witness(witness, 8)
        assert trace.edges.tolist() == [0b110, 0b101] * 4
        assert trace.config_positions().ravel().tolist() == [0, 2] * 4 + [0]

    def test_long_replay_asks_for_masks_only_until_its_loop_closes(self, monkeypatch):
        # The replay stops asking once a (record index, configuration) pair
        # comes back, at round path + cycle: the cycle turns the ring by 0.
        witness = adv.game_search(4, facing_pair(), "pef3").witness
        calls = []
        choose = adv.WitnessStrategy.choose_mask

        def counted(strategy, t, view):
            calls.append(t)
            return choose(strategy, t, view)

        monkeypatch.setattr(adv.WitnessStrategy, "choose_mask", counted)
        trace = adv.replay_witness(witness, 100_000)
        assert trace.rounds == 100_000
        assert len(calls) <= witness.path_length + witness.cycle_length + 1

    @pytest.mark.parametrize("n,robots,algo,explored,digest", GOLDEN_SEARCHES)
    def test_golden_criterion_5_searches(self, n, robots, algo, explored, digest):
        check_golden_search(n, robots, algo, explored, digest)

    @pytest.mark.parametrize(
        "n,robots,algo,message",
        [
            (4, [], "pef3", "at least one robot"),
            (4, [RobotState.make(0, 0), RobotState.make(0, 2)], "pef3", "pairwise distinct"),
            (4, [RobotState.make(0, 4)], "pef3", "outside 0..3"),
            (4, [RobotState.make(0, 0)], "pef4", "algo must be one of"),
            (2, [RobotState.make(0, 0)], "pef2", "ring size"),
        ],
        ids=["no-robots", "twice-id-0", "off-ring", "unknown-algo", "n=2"],
    )
    @pytest.mark.parametrize("entry", ["game_search", "run_states"])
    def test_bad_cohort_rejected_before_any_work(self, n, robots, algo, message, entry):
        with pytest.raises(ValueError, match=message):
            if entry == "game_search":
                adv.game_search(n, robots, algo)
            else:
                run_states(n, algo, robots, 10, schedule=StaticSchedule(max(n, 3)))

    def test_fuzzed_three_robot_starts_not_confinable(self):
        for s in range(10):
            states = fuzz_initial(4, [0, 1, 2], random.Random(777 + s))
            result = adv.game_search(4, states, "pef3")
            assert result.verdict == adv.VERDICT_NOT_CONFINABLE


def fuzzed_search_case(rng):
    """(n, robots, algo, max_absent) of a fuzzed search: n 3..6, k 1..3,
    pef2 at n = 3, max_absent 0..2."""
    n, k = rng.randint(3, 6), rng.randint(1, 3)
    algo = "pef2" if n == 3 and rng.random() < 0.5 else "pef3"
    return n, fuzz_initial(n, list(range(k)), rng), algo, rng.randint(0, 2)


def same_cohort_starts(robots, algo, rng, count):
    """`count` other fuzzed searches of the cohort `robots` (same ids and
    chiralities): other rings, positions, variables and budgets."""
    chirality = {r.id: {"chirality": r.chirality} for r in robots}
    out = []
    for _ in range(count):
        n = 3 if algo == "pef2" else rng.randint(3, 6)
        out.append((n, fuzz_initial(n, [r.id for r in robots], rng, chirality), algo,
                    rng.randint(0, 2)))
    return out


def outcome(result):
    """What a search shows: verdict, `explored` and the witness's play."""
    w = result.witness
    return (result.verdict, result.explored) + (() if w is None else (
        w.absent, w.path_length, w.cycle_length, w.starved_nodes, w.cycle_always_absent))


def check_table(table):
    """The interning invariants a lost update in `_LocalTable.code` breaks."""
    assert len(table.next) == len(table.locals) << table.shift
    assert len(table._codes) == len(table.locals)
    for local, code in table._codes.items():
        assert table.locals[code >> table.shift] == local
    for key, out in enumerate(table.next):
        assert out is None or out[0] >> table.shift < len(table.locals), key


class TestSharedSearchTable:
    """Every search of a cohort, and the reading of its witnesses, steps
    through one process-wide `_LocalTable`; runs build their own."""

    def test_warm_and_cold_searches_agree(self):
        # Each search once on a cleared table cache, and once after a
        # shuffled warm-up over other starts of the same cohorts (and the
        # searches themselves), which leaves the shared tables with other
        # codes in another order.
        rng = random.Random(20_020)
        cases = [fuzzed_search_case(rng) for _ in range(150)]
        cold = []
        for case in cases:
            adv._cohort_table.cache_clear()
            cold.append(outcome(adv.game_search(*case)))
        adv._cohort_table.cache_clear()
        warm_up = list(cases)
        for n, robots, algo, _ in cases:
            warm_up += same_cohort_starts(robots, algo, rng, 2)
        rng.shuffle(warm_up)
        for case in warm_up:
            adv.game_search(*case)
        for i, case in enumerate(cases):
            assert outcome(adv.game_search(*case)) == cold[i], i
        assert {c[0] for c in cold} == {adv.VERDICT_CONFINABLE, adv.VERDICT_NOT_CONFINABLE}
        assert {len(case[1]) for case in cases} == {1, 2, 3}

    @pytest.mark.parametrize("n,robots,algo,explored,digest", GOLDEN_SEARCHES)
    def test_golden_criterion_5_searches_after_a_warm_up(self, n, robots, algo, explored, digest):
        adv._cohort_table.cache_clear()
        rng = random.Random(505)
        for case in same_cohort_starts(robots, algo, rng, 40):
            adv.game_search(*case)
        check_golden_search(n, robots, algo, explored, digest)

    def test_second_search_of_a_cohort_computes_no_rule(self, monkeypatch):
        # The rule is evaluated only when a table entry is first filled: an
        # identical second search, and reading back its witness, fill none.
        calls = []
        rule = engine._local_step

        def counted(*args):
            calls.append(args)
            return rule(*args)

        monkeypatch.setattr(engine, "_local_step", counted)
        rng = random.Random(8_080)
        searched = 0
        while searched < 12:
            case = fuzzed_search_case(rng)
            adv._cohort_table.cache_clear()
            calls.clear()
            first = outcome(adv.game_search(*case))
            if first[1] < 2:
                continue
            assert calls, searched
            calls.clear()
            result = adv.game_search(*case)
            assert outcome(result) == first
            if result.witness is not None:
                buf = io.StringIO()
                adv.write_witness(result.witness, buf)
                adv.read_witness(buf.getvalue().splitlines())
            assert calls == [], searched
            searched += 1

    def test_shared_table_holds_only_normal_form_states(self):
        # 200 fuzzed starts of one trio cohort: raw read indices up to 3 ell
        # and nrpea up to 2k enter the search normalized, and the runs in
        # between (witness replays and window adversaries, which step the
        # raw starts) build their own tables, so the shared one stays in
        # normal form and under its bound.
        rng = random.Random(30_303)
        ids, k = [0, 1, 2], 3
        pinned = {r: {"chirality": rng.choice(list(Chirality))} for r in ids}
        adv._cohort_table.cache_clear()
        for _ in range(200):
            n = rng.randint(4, 6)
            robots = fuzz_initial(n, ids, rng, pinned)
            result = adv.game_search(n, robots, "pef3", rng.randint(0, 2))
            if result.witness is not None:
                adv.replay_witness(result.witness, 500)
            run_states(n, "pef3", robots, 500, strategy=adv.ConfinementAdversary(n))
        table = adv._search_table("pef3", robots)
        ells = [transformed_length(r) for r in ids]
        assert len(table.locals) <= sum(2 * ell * (k + 2) * 2 for ell in ells)
        for r, right, i, nrpea, hmpea in table.locals:
            assert 1 <= i <= ells[r] and 0 <= nrpea <= k + 1, (r, i, nrpea)
        check_table(table)
        assert adv._cohort_table.cache_info().currsize == 1

    def test_concurrent_searches_share_one_consistent_table(self):
        # Four threads start together on a cold table, forty times, and
        # intern into it at once; every result must be the serial one, and
        # the table must hand each local state one code.
        rng = random.Random(40_404)
        robots = fuzz_initial(5, [0, 1, 2], rng)
        cases = same_cohort_starts(robots, "pef3", rng, 8)
        want = []
        for case in cases:
            adv._cohort_table.cache_clear()
            want.append(outcome(adv.game_search(*case)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for rep in range(40):
                adv._cohort_table.cache_clear()
                barrier = threading.Barrier(4, timeout=60)
                got, errors = {}, []

                def worker(w):
                    try:
                        barrier.wait()
                        order = list(range(len(cases)))
                        random.Random(rep * 4 + w).shuffle(order)
                        for i in order:
                            got[w, i] = outcome(adv.game_search(*cases[i]))
                    except Exception as exc:  # reported below
                        errors.append(exc)

                threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads) and errors == [], rep
                assert got == {(w, i): want[i] for w in range(4) for i in range(len(cases))}, rep
                check_table(adv._search_table("pef3", robots))
        finally:
            sys.setswitchinterval(interval)
