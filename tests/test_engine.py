"""Round semantics, trace recording, determinism, fuzzer, file format."""
import functools
import io
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsweep import engine
from ringsweep.adversary import ConfinementAdversary, WitnessStrategy, game_search
from ringsweep.directions import Chirality, Direction, GlobalDirection
from ringsweep.engine import (
    Configuration,
    Trace,
    TraceParseError,
    _distinct_rows,
    build_snapshot,
    fuzz_initial,
    read_trace,
    run_states,
    step,
    write_trace,
)
from ringsweep.ring_model import RecurrentRandomSchedule, StaticSchedule
from ringsweep.robot_core import KNOWN_MUTATIONS, NO_MUTATIONS, RobotState, global_direction

CW = Chirality.RIGHT_IS_CLOCKWISE
CCW = Chirality.RIGHT_IS_COUNTER_CLOCKWISE
R = Direction.RIGHT
L = Direction.LEFT


def test_configuration_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="distinct"):
        Configuration(0, (RobotState.make(1, 0), RobotState.make(1, 2)))


def test_snapshot_respects_chirality():
    # Node 2 of a 5-ring: clockwise edge 2, counter-clockwise edge 1.
    mask = 0b00100  # only edge 2 present
    s_cw = RobotState.make(0, 2, chirality=CW)
    s_ccw = RobotState.make(1, 2, chirality=CCW)
    snap_cw = build_snapshot(s_cw, [2, 2], mask, 5)
    snap_ccw = build_snapshot(s_ccw, [2, 2], mask, 5)
    assert snap_cw.robots_here == snap_ccw.robots_here == 2
    assert snap_cw.edge_right and not snap_cw.edge_left
    assert snap_ccw.edge_left and not snap_ccw.edge_right


def test_step_static_march():
    cfg = Configuration(0, (RobotState.make(0, 0, R, CW),))
    out = step(cfg, {0, 1, 2, 3, 4}, "pef3", 5)
    assert out.round == 1
    assert out.robots[0].position == 1


def test_step_no_edges_is_idle():
    robots = (
        RobotState.make(0, 1, R, CW, nrpea=5, hmpea=False),
        RobotState.make(1, 1, L, CW, nrpea=0, hmpea=True),
    )
    cfg = Configuration(0, robots)
    out = step(cfg, 0, "pef3", 4)
    assert out.positions() == (1, 1)
    # Not edge-activated: bookkeeping untouched.
    assert out.robots[0].nrpea == 5 and out.robots[1].nrpea == 0


def test_step_confinement_window_one_round():
    # Three robots on nodes 1 and 2 with the window's counter-clockwise
    # boundary edge removed: nobody can reach node 0 this round.
    robots = (
        RobotState.make(0, 1, R, CW),
        RobotState.make(1, 1, L, CW),
        RobotState.make(2, 2, R, CW),
    )
    cfg = Configuration(0, robots)
    out = step(cfg, {1, 2, 3}, "pef3", 4)  # edge 0 removed
    assert set(out.positions()) <= {1, 2, 3}


def test_step_opposite_directions_swap_over_one_edge():
    robots = (
        RobotState.make(0, 0, R, CW),  # clockwise: crosses edge 0 to node 1
        RobotState.make(1, 1, L, CW),  # counter-clockwise: crosses edge 0 to node 0
    )
    out = step(Configuration(0, robots), {0}, "pef3", 4)
    assert out.positions() == (1, 0)


def test_run_is_deterministic():
    states = fuzz_initial(5, [0, 1, 2], random.Random(7))
    a = run_states(5, "pef3", states, 80, schedule=StaticSchedule(5))
    b = run_states(5, "pef3", states, 80, schedule=StaticSchedule(5))
    assert (a.pos == b.pos).all() and (a.idx == b.idx).all() and a.meta == b.meta
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_trace(a, buf_a)
    write_trace(b, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_trace_file_round_trip():
    states = fuzz_initial(4, [3, 5], random.Random(11))
    sched = RecurrentRandomSchedule(4, 0.5, 8, 5)
    trace = run_states(4, "pef2", states, 60, schedule=sched)
    buf = io.StringIO()
    write_trace(trace, buf)
    back = read_trace(io.StringIO(buf.getvalue()))
    for field in ("edges", "pos", "gdir_cw", "idx", "nrpea", "hmpea", "moved", "final_pos"):
        assert (getattr(back, field) == getattr(trace, field)).all()
    assert back.meta == trace.meta


MUTATION_CASES = [NO_MUTATIONS] + [frozenset({m}) for m in sorted(KNOWN_MUTATIONS)]


def reference_columns(n, algo, states, masks, mutations):
    """Every Trace column of the run, replayed round by round through
    `engine.step`; `moved` from the Look snapshot and the computed direction."""
    cols = {name: [] for name in ("pos", "gdir_cw", "idx", "nrpea", "hmpea", "moved")}
    cfg = Configuration(0, tuple(states))
    for mask in masks:
        before = cfg.positions()
        snaps = [build_snapshot(s, before, mask, n) for s in cfg.robots]
        cfg = step(cfg, mask, algo, n, mutations)
        cols["pos"].append(before)
        cols["gdir_cw"].append([global_direction(s) is GlobalDirection.CLOCKWISE for s in cfg.robots])
        cols["idx"].append([s.i for s in cfg.robots])
        cols["nrpea"].append([s.nrpea for s in cfg.robots])
        cols["hmpea"].append([s.hmpea for s in cfg.robots])
        cols["moved"].append([snap.exists_current_dir(s.direction) for snap, s in zip(snaps, cfg.robots)])
    return cols, cfg.positions()


def test_fast_loop_matches_reference_step():
    # Every (k, algo, mutation) combination once, with runs of up to 2000
    # rounds so that most robot steps are hits in the run's memo.
    rng = random.Random(99)
    for case in range(40):
        n = rng.randint(3, 7)
        k = 1 + case % 5
        algo = ("pef3", "pef2")[case // 5 % 2]
        mutations = MUTATION_CASES[case // 10]
        pins = {
            rid: {rng.choice(("i", "nrpea")): rng.choice((10**12, -(10**12), -1, -5))}
            for rid in range(k)
            if rng.random() < 0.4
        }
        states = fuzz_initial(n, list(range(k)), rng, pins)
        rounds = rng.choice((rng.randint(1, 30), rng.randint(1000, 2000)))
        sched = RecurrentRandomSchedule(n, rng.random(), rng.randint(1, 6), rng.randint(0, 500))
        masks = sched.masks(rounds)
        trace = run_states(n, algo, states, rounds, schedule=sched, mutations=mutations)
        want, final = reference_columns(n, algo, states, masks, mutations)
        for name, rows in want.items():
            assert np.array_equal(getattr(trace, name), rows), (case, name)
        assert tuple(trace.final_pos) == final


def variables(view):
    """The robots' variables a RunView shows, as four hashable tuples."""
    return tuple(map(tuple, (view.dir_right, view.idx, view.nrpea, view.hmpea)))


class ReferenceCheckingStrategy:
    """Draws random masks, replaying them through `engine.step`, and checks
    each round that the RunView shows the reference configuration.

    With `revisit` the mask is a fixed random function of `view.pos` and
    the robots' variables, drawn the first time each value is seen, so the
    run comes back to its configurations with the same mask; otherwise
    every round draws a fresh mask.
    """

    def __init__(self, n, algo, states, mutations, seed, revisit=False):
        self.n, self.algo, self.mutations = n, algo, mutations
        self.cfg = Configuration(0, tuple(states))
        self.rng = random.Random(seed)
        self.masks = []
        # (pos, variables) -> mask, when `revisit`.
        self.policy = {} if revisit else None

    def choose_mask(self, t, view):
        if t:
            self.cfg = step(self.cfg, self.masks[-1], self.algo, self.n, self.mutations)
        robots = self.cfg.robots
        assert (view.n, view.full_mask) == (self.n, (1 << self.n) - 1)
        assert view.pos == [s.position for s in robots], t
        assert view.dir_right == [s.direction is Direction.RIGHT for s in robots], t
        assert view.chir_cw == [s.chirality is CW for s in robots], t
        assert view.idx == [s.i for s in robots], t
        assert view.nrpea == [s.nrpea for s in robots], t
        assert [bool(h) for h in view.hmpea] == [s.hmpea for s in robots], t
        if self.policy is None:
            mask = self.rng.getrandbits(self.n)
        else:
            key = (tuple(view.pos), *variables(view))
            mask = self.policy.get(key)
            if mask is None:
                mask = self.policy[key] = self.rng.getrandbits(self.n)
        self.masks.append(mask)
        return mask


def test_reactive_view_shows_reference_state():
    rng = random.Random(5)
    for case in range(16):
        n = rng.randint(3, 6)
        k = 1 + case % 4
        algo = ("pef3", "pef2")[case % 2]
        mutations = MUTATION_CASES[case // 4]
        states = fuzz_initial(n, list(range(k)), rng, {0: {"i": -(10**12)}})
        strategy = ReferenceCheckingStrategy(n, algo, states, mutations, case)
        trace = run_states(n, algo, states, 300, strategy=strategy, mutations=mutations)
        assert trace.edges.tolist() == strategy.masks
        want, _ = reference_columns(n, algo, states, strategy.masks, mutations)
        for name, rows in want.items():
            assert np.array_equal(getattr(trace, name), rows), (case, name)


@pytest.mark.parametrize("revisit", [True, False], ids=["state_policy", "fresh_masks"])
def test_reactive_run_matches_reference_step(revisit):
    # A state policy brings the run back to its configurations with the
    # same mask; fresh masks bring them back under other masks.  Every k,
    # algorithm and mutation case; the unmutated k = 1 runs outlast a
    # record chunk.
    rng = random.Random(31)
    for k in range(1, 6):
        for algo in ("pef3", "pef2"):
            for mutations in MUTATION_CASES:
                n = rng.randint(3, 7)
                states = fuzz_initial(n, list(range(k)), rng)
                rounds = 4200 if k == 1 and not mutations else 300
                strategy = ReferenceCheckingStrategy(
                    n, algo, states, mutations, rng.random(), revisit
                )
                trace = run_states(n, algo, states, rounds, strategy=strategy, mutations=mutations)
                assert trace.edges.tolist() == strategy.masks
                want, final = reference_columns(n, algo, states, strategy.masks, mutations)
                for name, rows in want.items():
                    assert np.array_equal(getattr(trace, name), rows), (k, algo, mutations, name)
                assert tuple(trace.final_pos) == final
                if revisit:
                    assert len(strategy.policy) < rounds  # the run came back


class ScheduleReplay:
    """Only `choose_mask`: returns round t's mask of a schedule."""

    def __init__(self, masks):
        self.masks = masks

    def choose_mask(self, t, view):
        return self.masks[t]


def test_schedule_replayed_as_strategy_matches_schedule_run():
    # The masks a schedule gives, chosen round by round by a strategy, make
    # the same run: the two paths through `run_states` share one loop.
    rng = random.Random(73)
    for case in range(4 * len(MUTATION_CASES)):
        mutations = MUTATION_CASES[case % len(MUTATION_CASES)]
        algo = ("pef3", "pef2")[case // len(MUTATION_CASES) % 2]
        n, k = rng.randint(3, 8), rng.randint(1, 5)
        states = fuzz_initial(n, list(range(k)), rng)
        rounds = rng.choice((1, rng.randint(2, 300), rng.randint(4100, 9000)))
        sched = RecurrentRandomSchedule(n, rng.random(), rng.randint(1, 6), rng.randint(0, 500))
        want = run_states(n, algo, states, rounds, schedule=sched, mutations=mutations)
        strategy = ScheduleReplay(sched.masks(rounds))
        trace = run_states(n, algo, states, rounds, strategy=strategy, mutations=mutations)
        for name in TRACE_COLUMNS:
            assert np.array_equal(getattr(trace, name), getattr(want, name)), (case, name)
        assert trace.meta == want.meta


class AskedEveryRound:
    """Forwards only `choose_mask`, so `run_states` (which sees no `state`)
    asks the wrapped strategy every round.  `loop` is the first repeat
    (t1, t) of the strategy's state and the configuration before a round."""

    def __init__(self, strategy):
        self.strategy = strategy
        self.first = {}
        self.loop = None

    def choose_mask(self, t, view):
        key = (self.strategy.state, tuple(view.pos), *variables(view))
        t1 = self.first.setdefault(key, t)
        if t1 < t and self.loop is None:
            self.loop = (t1, t)
        return self.strategy.choose_mask(t, view)


def fuzzed_reactive_runs(seed, count):
    """`count` fuzzed (label, n, states, new strategy) runs, alternating
    witness replays (n 4..6) and window adversaries (n 4..8, stall cap 0
    or 100), with 1..3 robots."""
    rng = random.Random(seed)
    runs = []
    while len(runs) < count:
        n, k = rng.randint(4, 8), rng.randint(1, 3)
        if len(runs) % 2 == 0:
            # Most robots start in the window, so the adversary has work to do.
            cap, start = rng.choice((0, 100)), rng.randrange(n)
            inside = {r: {"pos": (start + rng.randrange(3)) % n} for r in range(k)
                      if rng.random() < 0.8}
            states = fuzz_initial(n, list(range(k)), rng, inside)
            make = functools.partial(ConfinementAdversary, n, start, cap)
            runs.append((f"window n={n} k={k} cap={cap}", n, states, make))
            continue
        states = fuzz_initial(n, list(range(k)), rng)
        if n <= 6:
            result = game_search(n, states, "pef3", max_absent=rng.randint(1, 2))
            if result.witness is not None:
                make = functools.partial(WitnessStrategy, result.witness)
                runs.append((f"witness n={n} k={k}", n, states, make))
    return runs


def test_lasso_fast_forward_matches_asking_every_round():
    # A strategy with a `state` is asked until the run repeats a (state,
    # configuration) pair, and the rest is tiled from the loop.  Horizons:
    # one round, the round the loop closes, three turns of the loop, and
    # more than two record chunks.
    for label, n, states, make in fuzzed_reactive_runs(4247, 24):
        slow = AskedEveryRound(make())
        long_run = run_states(n, "pef3", states, 9000, strategy=slow)
        assert slow.loop is not None, label
        t1, t = slow.loop
        for rounds in (1, t, t1 + 3 * (t - t1), 9000):
            fast = make()
            trace = run_states(n, "pef3", states, rounds, strategy=fast)
            if rounds == 9000:
                want, asked = long_run, slow.strategy
            else:
                asked = make()
                want = run_states(n, "pef3", states, rounds, strategy=AskedEveryRound(asked))
            for name in TRACE_COLUMNS:
                assert np.array_equal(getattr(trace, name), getattr(want, name)), (label, rounds, name)
            assert getattr(fast, "status", None) == getattr(asked, "status", None), (label, rounds)


def policy_mask(salt, n, pos, dir_right, idx, nrpea, hmpea):
    """A fixed pseudo-random mask for each (positions, variables) value."""
    key = (salt, tuple(pos), tuple(dir_right), tuple(idx), tuple(nrpea), tuple(map(bool, hmpea)))
    return random.Random(repr(key)).getrandbits(n)


class MemorylessPolicy:
    """A strategy without memory: `state` is None and the mask is a
    function of the positions and variables the view shows."""

    state = None

    def __init__(self, salt):
        self.salt = salt
        self.calls = 0

    def choose_mask(self, t, view):
        self.calls += 1
        return policy_mask(
            self.salt, view.n, view.pos, view.dir_right, view.idx, view.nrpea, view.hmpea
        )


def test_memoryless_policy_matches_reference_step():
    # The run is decided by its configuration alone, so it is asked until
    # a configuration comes back; the reference steps every round.
    rng = random.Random(57)
    for case in range(3 * len(MUTATION_CASES)):
        mutations = MUTATION_CASES[case % len(MUTATION_CASES)]
        n, k = rng.randint(3, 7), 1 + case % 3
        algo = ("pef3", "pef2")[case // len(MUTATION_CASES) % 2]
        states = fuzz_initial(n, list(range(k)), rng)
        rounds = 3000
        strategy = MemorylessPolicy(case)
        trace = run_states(n, algo, states, rounds, strategy=strategy, mutations=mutations)
        assert strategy.calls < rounds
        cfg, masks = Configuration(0, tuple(states)), []
        for _ in range(rounds):
            robots = cfg.robots
            masks.append(policy_mask(
                case, n, cfg.positions(), [s.direction is R for s in robots],
                [s.i for s in robots], [s.nrpea for s in robots], [s.hmpea for s in robots],
            ))
            cfg = step(cfg, masks[-1], algo, n, mutations)
        assert trace.edges.tolist() == masks
        want, final = reference_columns(n, algo, states, masks, mutations)
        for name, rows in want.items():
            assert np.array_equal(getattr(trace, name), rows), (case, name)
        assert tuple(trace.final_pos) == final


def test_fuzz_reproducible():
    a = fuzz_initial(6, [0, 1, 2], random.Random(42))
    b = fuzz_initial(6, [0, 1, 2], random.Random(42))
    assert a == b


def test_fuzz_produces_stacked_configurations():
    # All three robots on one node has probability 1/16 per draw on n=4.
    hits = 0
    for s in range(10_000):
        states = fuzz_initial(4, [0, 1, 2], random.Random(s))
        if len({r.position for r in states}) == 1:
            hits += 1
    assert hits >= 1


def test_fuzz_produces_out_of_range_indices():
    seen_out_of_range = False
    for s in range(200):
        for state in fuzz_initial(4, [0, 1, 2], random.Random(s)):
            if not 1 <= state.i <= state.ell:
                seen_out_of_range = True
    assert seen_out_of_range


def test_fuzz_respects_overrides():
    states = fuzz_initial(
        5, [0, 1], random.Random(1), overrides={0: {"pos": 3, "dir": L, "nrpea": 9}}
    )
    assert states[0].position == 3 and states[0].direction is L and states[0].nrpea == 9


def test_fuzz_nrpea_range():
    for s in range(300):
        for state in fuzz_initial(4, [0, 1, 2], random.Random(s)):
            assert 0 <= state.nrpea <= 6


def test_run_validates_inputs():
    states = [RobotState.make(0, 0)]
    with pytest.raises(ValueError, match="rounds"):
        run_states(4, "pef3", states, 0, schedule=StaticSchedule(4))
    with pytest.raises(ValueError, match="algo"):
        run_states(4, "nope", states, 5, schedule=StaticSchedule(4))
    with pytest.raises(ValueError, match="exactly one"):
        run_states(4, "pef3", states, 5)
    with pytest.raises(ValueError, match="position"):
        run_states(4, "pef3", [RobotState.make(0, 9)], 5, schedule=StaticSchedule(4))


def test_dense_table_matches_the_rule(monkeypatch):
    # Every key a 2,000-round run steps through, read off its trace, is
    # filled in the run's own table with what a direct `_local_step` call
    # gives, and so is every other filled slot: both algorithms, every
    # mutation flag and all of them at once.
    tables = []

    class Recorded(engine._LocalTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(engine, "_LocalTable", Recorded)
    rng = random.Random(4_040)
    for case, mutations in enumerate(MUTATION_CASES * 4 + [KNOWN_MUTATIONS] * 4):
        n, k = rng.randint(3, 7), rng.randint(1, 4)
        algo = ("pef3", "pef2")[case % 2]
        states = fuzz_initial(n, list(range(k)), rng)
        sched = RecurrentRandomSchedule(n, rng.random(), rng.randint(1, 6), rng.randint(0, 500))
        trace = run_states(n, algo, states, 2_000, schedule=sched, mutations=mutations)
        table = tables.pop()

        def direct(local, here, ports):
            r, right, i, nrpea, hmpea = local
            *after, step = engine._local_step(
                right, i, nrpea, hmpea, here, ports >> 1, ports & 1,
                algo == "pef3", table.chir_cw[r], table.words[r], *table.flags,
            )
            return table._codes[(r, *after)], step

        locals_ = [(r, s.direction is R, s.i, s.nrpea, int(s.hmpea)) for r, s in enumerate(states)]
        config = trace.config_positions().tolist()
        columns = [trace.gdir_cw.tolist(), trace.idx.tolist(), trace.nrpea.tolist(),
                   trace.hmpea.tolist()]
        for t, mask in enumerate(trace.edges.tolist()):
            ports = engine._ports(mask, n)
            for r, p in enumerate(config[t]):
                here, port = config[t].count(p), ports >> p & 3
                code = table._codes[locals_[r]]
                want = direct(locals_[r], here, port)
                assert table.after(code, here, port) == want, (case, t, r)
                locals_[r] = table.local(want[0])
                gdir_cw, i, nrpea, hmpea = (col[t][r] for col in columns)
                assert locals_[r] == (r, gdir_cw == table.chir_cw[r], i, nrpea, hmpea), (case, t, r)
                assert config[t + 1][r] == (p + want[1]) % n, (case, t, r)
        filled = 0
        for key, out in enumerate(table.next):
            if out is not None:
                here = key >> 2 & (1 << table.shift - 2) - 1
                assert out == direct(table.local(key), here, key & 3), (case, key)
                filled += 1
        assert filled and len(table.next) == len(table.locals) << table.shift
    assert not tables


def test_trace_helper_shapes():
    states = fuzz_initial(5, [0, 1, 2], random.Random(0))
    trace = run_states(5, "pef3", states, 40, schedule=StaticSchedule(5))
    assert trace.config_positions().shape == (41, 3)


def test_golden_trace_digest():
    # Frozen end-to-end fingerprint of one missing-edge run; any semantic
    # drift in the kernel, schedules, fuzzer or file format shows up here.
    import hashlib

    from ringsweep.ring_model import EventualMissingSchedule

    sched = EventualMissingSchedule(RecurrentRandomSchedule(6, 0.5, 8, 2026), 3, 0)
    states = fuzz_initial(6, [0, 1, 2], random.Random(2026))
    trace = run_states(
        6, "pef3", states, 1200, schedule=sched, meta_extra={"schedule": sched.describe()}
    )
    buf = io.StringIO()
    write_trace(trace, buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == "f6dc1cceabd000824102cabc531463888205ccc295817559a0313349f8f0c737"


def test_read_trace_reports_line_numbers():
    states = fuzz_initial(4, [0, 1], random.Random(2))
    trace = run_states(4, "pef2", states, 5, schedule=StaticSchedule(4))
    buf = io.StringIO()
    write_trace(trace, buf)
    lines = buf.getvalue().splitlines()
    lines[3] = "{broken json"
    with pytest.raises(TraceParseError, match="line 4"):
        read_trace(lines)
    with pytest.raises(TraceParseError, match="empty"):
        read_trace([])
    # The round-order check holds for canonical lines as for any other.
    lines = buf.getvalue().splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    with pytest.raises(TraceParseError, match="line 3: expected round 1, got 2"):
        read_trace(lines)
    lines[3] = json.dumps(json.loads(lines[3]))
    with pytest.raises(TraceParseError, match="line 3: expected round 1, got 2"):
        read_trace(lines)
    # Only JSON is read: a leading zero is not a number.
    lines = buf.getvalue().splitlines()
    lines[2] = lines[2].replace('"edges":', '"edges":0', 1)
    with pytest.raises(TraceParseError, match="line 3: bad record"):
        read_trace(lines)


# -- trace IO against the per-record writer --------------------------------

TRACE_COLUMNS = ("edges", "pos", "gdir_cw", "idx", "nrpea", "hmpea", "moved", "final_pos")


def oracle_write_trace(trace, out):
    """The format spelled out record by record: one json.dumps per round."""
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


def written(trace, writer=write_trace):
    buf = io.StringIO()
    writer(trace, buf)
    return buf.getvalue()


def assert_same_trace(back, trace):
    for name in TRACE_COLUMNS:
        got, want = getattr(back, name), getattr(trace, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert (got == want).all(), name
    assert back.meta == trace.meta


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 8),
    k=st.integers(1, 3),
    algo=st.sampled_from(["pef3", "pef2"]),
    seed=st.integers(0, 2**32),
    rounds=st.integers(1, 300),
    p=st.floats(0.0, 1.0),
    wild=st.lists(st.tuples(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12)),
                  min_size=3, max_size=3),
    pin=st.booleans(),
)
def test_writer_matches_oracle_and_reads_back(n, k, algo, seed, rounds, p, wild, pin):
    # fuzz_initial already draws out-of-range read indices and nrpea
    # values; `wild` pins far larger ones, negative included.
    overrides = {r: {"i": i, "nrpea": nr} for r, (i, nr) in enumerate(wild)} if pin else None
    states = fuzz_initial(n, list(range(k)), random.Random(seed), overrides)
    sched = RecurrentRandomSchedule(n, p, 4, seed)
    trace = run_states(n, algo, states, rounds, schedule=sched,
                       meta_extra={"schedule": sched.describe()})
    text = written(trace)
    assert text == written(trace, oracle_write_trace)
    assert_same_trace(read_trace(io.StringIO(text)), trace)


def test_extreme_values_round_trip():
    # Values no run produces, chosen to break any encoding that multiplies
    # raw field values together.
    rng = np.random.default_rng(3)
    h, k = 50, 2
    big = np.iinfo(np.int64)
    idx = rng.integers(big.min, big.max, size=(h, k), dtype=np.int64, endpoint=True)
    idx[0] = [2**40, big.max]
    idx[1] = [big.min, -(2**40)]
    nrpea = rng.integers(-(2**62), 2**62, size=(h, k), dtype=np.int64)
    nrpea[2] = [-1, -(2**63)]
    meta = {"n": 5, "algo": "pef3", "robots": [
        {"id": rid, "gdir": "CW", "i": 2**40, "nrpea": -3, "hmpea": True} for rid in (7, 11)
    ]}
    pos = rng.integers(0, 5, size=(h, k)).astype(np.int16)
    gdir = rng.random((h, k)) < 0.5
    moved = rng.random((h, k)) < 0.5
    step_ = np.where(gdir[-1], 1, -1)
    trace = Trace(
        meta=meta,
        edges=rng.integers(0, 2**62, size=h, dtype=np.int64),
        pos=pos,
        gdir_cw=gdir,
        idx=idx,
        nrpea=nrpea,
        hmpea=rng.random((h, k)) < 0.5,
        moved=moved,
        final_pos=np.where(moved[-1], (pos[-1] + step_) % 5, pos[-1]).astype(np.int16),
    )
    text = written(trace)
    assert text == written(trace, oracle_write_trace)
    assert_same_trace(read_trace(text.splitlines()), trace)


def test_distinct_rows_codes_rows_by_value():
    # Four all-distinct int64 columns over 70k rows: the mixed-radix code
    # would pass 2**63 at the fourth column unless it is re-ranked first.
    rng = np.random.default_rng(5)
    rows = 70_000
    columns = [rng.integers(-(2**63), 2**63 - 1, size=rows, dtype=np.int64) for _ in range(4)]
    columns[1][::2] = columns[1][1::2]  # repeated values as well
    columns.append(rng.random(rows) < 0.5)
    code, first = _distinct_rows(columns, rows)
    keys = list(zip(*(c.tolist() for c in columns)))
    rank = {key: j for j, key in enumerate(sorted(set(keys)))}
    assert code.tolist() == [rank[key] for key in keys]
    first_row = {}
    for row, key in enumerate(keys):
        first_row.setdefault(rank[key], row)
    assert first.tolist() == [first_row[j] for j in range(len(rank))]


def test_any_json_layout_reads_back():
    # Default json.dumps spacing, shuffled keys, blank lines, and canonical
    # lines in between, across several conversion chunks.
    states = fuzz_initial(5, [0, 1, 2], random.Random(8))
    sched = RecurrentRandomSchedule(5, 0.5, 6, 8)
    trace = run_states(5, "pef3", states, 9_000, schedule=sched)
    lines = written(trace).splitlines()
    rng = random.Random(1)

    def shuffled(obj):
        if isinstance(obj, dict):
            items = list(obj.items())
            rng.shuffle(items)
            return {key: shuffled(value) for key, value in items}
        if isinstance(obj, list):
            return [shuffled(value) for value in obj]
        return obj

    mixed = [lines[0]]
    for j, line in enumerate(lines[1:]):
        if (j // 700) % 2 or j % 13 == 0:
            line = json.dumps(shuffled(json.loads(line)))
        if j % 1000 == 0:
            mixed.append("   ")
        mixed.append(line)
    assert sum(line not in lines for line in mixed) > 4_000
    assert_same_trace(read_trace(mixed), trace)
    relaid = [json.dumps(shuffled(json.loads(line)), indent=None) for line in lines]
    assert_same_trace(read_trace(relaid), trace)
