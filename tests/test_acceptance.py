"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Budgets: criterion 1 under 10 s, criteria 2 and 3
under 60 s each (simulation plus verdicts; the lemma monitors of criterion
8 run over the same traces and are timed separately).
"""
import io
import itertools
import random
import time

from ringsweep import adversary as adv
from ringsweep import analysis
from ringsweep.directions import Chirality, Direction
from ringsweep.engine import fuzz_initial, run_states, write_trace
from ringsweep.ring_model import (
    EventualMissingSchedule,
    RecurrentRandomSchedule,
    StaticSchedule,
)
from ringsweep.robot_core import RobotState
from ringsweep.words import (
    complement,
    divergence_rounds,
    max_common_factor_len,
    transform_identifier,
    transformed_length,
)

CW = Chirality.RIGHT_IS_CLOCKWISE
R = Direction.RIGHT
L = Direction.LEFT

_cache: dict = {}


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def _monitored(trace, bucket: dict) -> None:
    start = time.perf_counter()
    violations = analysis.monitor_lemmas(trace)
    bucket["monitor_time"] += time.perf_counter() - start
    bucket["traces"] += 1
    if violations:
        bucket["violations"] += len(violations)
        bucket["examples"].extend(violations[:2])


def _fresh_bucket() -> dict:
    return {"monitor_time": 0.0, "traces": 0, "violations": 0, "examples": []}


def criterion1() -> dict:
    if "c1" not in _cache:
        bucket = _fresh_bucket()
        failures = []
        sim_time = 0.0
        for n in range(4, 11):
            for j in range(500):
                start = time.perf_counter()
                states = fuzz_initial(n, [0, 1, 2], random.Random(n * 100_000 + j))
                trace = run_states(n, "pef3", states, 2 + 3 * n, schedule=StaticSchedule(n))
                coherent = all(
                    analysis.coherence_round(trace, rid) == 1 for rid in (0, 1, 2)
                )
                cov = analysis.coverage(trace, 2, n)
                sim_time += time.perf_counter() - start
                if not coherent:
                    failures.append((n, j, "not coherent by round 1"))
                elif not cov.covered:
                    failures.append((n, j, cov.verdict()))
                _monitored(trace, bucket)
        _cache["c1"] = {"failures": failures, "sim_time": sim_time, "bucket": bucket}
    return _cache["c1"]


def criterion2() -> dict:
    if "c2" not in _cache:
        bucket = _fresh_bucket()
        failures = []
        sim_time = 0.0
        worst_gap = 0
        for n in range(4, 9):
            for j in range(100):
                seed = n * 10_000 + j
                start = time.perf_counter()
                sched = RecurrentRandomSchedule(n, 0.5, 8, seed)
                states = fuzz_initial(n, [0, 1, 2], random.Random(seed))
                trace = run_states(n, "pef3", states, 10_000, schedule=sched)
                cov = analysis.coverage(trace, 1_000)
                sim_time += time.perf_counter() - start
                if not cov.covered or cov.max_gap is None:
                    failures.append((n, j, cov.verdict()))
                else:
                    worst_gap = max(worst_gap, cov.max_gap)
                _monitored(trace, bucket)
        _cache["c2"] = {
            "failures": failures,
            "sim_time": sim_time,
            "worst_gap": worst_gap,
            "bucket": bucket,
        }
    return _cache["c2"]


def criterion3() -> dict:
    if "c3" not in _cache:
        bucket = _fresh_bucket()
        failures = []
        sim_time = 0.0
        for n in range(4, 9):
            for j in range(100):
                seed = n * 20_000 + j
                start = time.perf_counter()
                sched = EventualMissingSchedule(
                    RecurrentRandomSchedule(n, 0.5, 8, seed), seed % n, 0
                )
                states = fuzz_initial(n, [0, 1, 2], random.Random(seed))
                trace = run_states(
                    n, "pef3", states, 10_000,
                    schedule=sched, meta_extra={"schedule": sched.describe()},
                )
                cov = analysis.coverage(trace, 1_000)
                sentinel = analysis.sentinel_visitor_report(trace)
                sim_time += time.perf_counter() - start
                if not cov.covered:
                    failures.append((n, j, cov.verdict()))
                elif sentinel.established_round is None:
                    failures.append((n, j, "sentinels never established"))
                _monitored(trace, bucket)
        _cache["c3"] = {"failures": failures, "sim_time": sim_time, "bucket": bucket}
    return _cache["c3"]


def criterion4() -> dict:
    if "c4" not in _cache:
        bucket = _fresh_bucket()
        failures = []
        sim_time = 0.0
        for kind in ("static", "recurrent", "eventual_missing"):
            for j in range(100):
                seed = 5_000 + j
                start = time.perf_counter()
                if kind == "static":
                    sched = StaticSchedule(3)
                elif kind == "recurrent":
                    sched = RecurrentRandomSchedule(3, 0.5, 8, seed)
                else:
                    sched = EventualMissingSchedule(
                        RecurrentRandomSchedule(3, 0.5, 8, seed), j % 3, 0
                    )
                states = fuzz_initial(3, [0, 1], random.Random(f"{kind}:{j}"))
                trace = run_states(
                    3, "pef2", states, 5_000,
                    schedule=sched,
                    meta_extra={"schedule": sched.describe()},
                )
                cov = analysis.coverage(trace, 500)
                sim_time += time.perf_counter() - start
                if not cov.covered:
                    failures.append((kind, j, cov.verdict()))
                _monitored(trace, bucket)
        _cache["c4"] = {"failures": failures, "sim_time": sim_time, "bucket": bucket}
    return _cache["c4"]


def test_criterion_1_static_rings():
    r = criterion1()
    ok = not r["failures"] and r["sim_time"] < 10.0
    _report(
        1,
        ok,
        f"3500 fuzzed static runs (n=4..10): coherent by round 1, every node "
        f"visited once per n rounds from round 2; {r['sim_time']:.1f}s",
    )
    assert not r["failures"], r["failures"][:5]
    assert r["sim_time"] < 10.0


def test_criterion_2_edge_recurrent_rings():
    r = criterion2()
    ok = not r["failures"] and r["sim_time"] < 60.0
    _report(
        2,
        ok,
        f"500 recurrent runs (n=4..8, B=8, horizon 10k): Covered from round 1000, "
        f"zero starved nodes, worst measured gap {r['worst_gap']}; {r['sim_time']:.1f}s",
    )
    assert not r["failures"], r["failures"][:5]
    assert r["sim_time"] < 60.0


def test_criterion_3_eventual_missing_edge():
    r = criterion3()
    ok = not r["failures"] and r["sim_time"] < 60.0
    _report(
        3,
        ok,
        f"500 missing-edge runs (n=4..8, horizon 10k): Covered from round 1000 and "
        f"sentinels established in every run; {r['sim_time']:.1f}s",
    )
    assert not r["failures"], r["failures"][:5]
    assert r["sim_time"] < 60.0


def test_criterion_4_two_robots_ring_of_three():
    r = criterion4()
    ok = not r["failures"]
    _report(
        4,
        ok,
        f"300 two-robot runs on n=3 (all three schedule classes, horizon 5k): "
        f"Covered from round 500; {r['sim_time']:.1f}s",
    )
    assert not r["failures"], r["failures"][:5]


def _facing_pair():
    return [
        RobotState.make(0, 0, R, CW, i=1, nrpea=1, hmpea=True),
        RobotState.make(1, 1, L, CW, i=1, nrpea=1, hmpea=True),
    ]


def _longest_run(flags) -> int:
    longest = run = 0
    for flag in flags:
        run = run + 1 if flag else 0
        longest = max(longest, run)
    return longest


def _window_fallback(runs: int = 50) -> tuple[bool, str]:
    """Criterion 5(c) without a search verdict: the window adversary plays
    `runs` fuzzed n = 4 trios.  Every run it keeps inside the
    connected-over-time class must be covered.  A run it reports
    out_of_class starves a node only because the ring is split, so it must
    show both boundary edges absent together for more than `stall_cap`
    consecutive rounds."""
    in_class, split, bad = 0, 0, []
    for s in range(runs):
        strat = adv.ConfinementAdversary(4, stall_cap=100)
        states = fuzz_initial(4, [0, 1, 2], random.Random(86_000 + s))
        trace = run_states(4, "pef3", states, 3_000, strategy=strat)
        if strat.status == adv.CONFINEMENT_OUT_OF_CLASS:
            both = 1 << strat.e_vl | 1 << strat.e_xr
            split += 1
            if _longest_run((trace.edges & both) == 0) <= strat.stall_cap:
                bad.append((s, strat.status))
        else:
            in_class += 1
            if not analysis.coverage(trace, 1_500).covered:
                bad.append((s, strat.status))
    detail = f"window fallback: {in_class} in-class and {split} out-of-class runs"
    return not bad, detail + (f"; failing seeds {bad}" if bad else ", each covered or split")


def test_criterion_5_impossibility_demonstrations():
    # (a) two robots are confinable and the witness starves a node forever
    res_a = adv.game_search(4, _facing_pair(), "pef3", state_budget=100_000_000)
    ok_a = res_a.verdict == adv.VERDICT_CONFINABLE
    never_visited = ()
    if ok_a:
        trace = adv.replay_witness(res_a.witness, 10_000)
        seen = set(int(p) for p in trace.config_positions().flat)
        never_visited = tuple(sorted(set(range(4)) - seen))
        ok_a = len(never_visited) >= 1 and len(res_a.witness.cycle_always_absent) <= 1

    # (b) one robot on a ring of three is confinable
    solo = [RobotState.make(0, 0, R, CW, i=1, nrpea=1, hmpea=True)]
    res_b = adv.game_search(3, solo, "pef2", state_budget=100_000_000)
    ok_b = res_b.verdict == adv.VERDICT_CONFINABLE

    # (c) three robots are not confinable, or the search is inconclusive and
    # the window adversary confines none of 50 fuzzed trios inside the class
    trio = [
        RobotState.make(0, 0, R, CW, i=1, nrpea=1, hmpea=True),
        RobotState.make(1, 1, R, CW, i=1, nrpea=1, hmpea=True),
        RobotState.make(2, 2, R, CW, i=1, nrpea=1, hmpea=True),
    ]
    res_c = adv.game_search(4, trio, "pef3", state_budget=100_000_000)
    if res_c.verdict == adv.VERDICT_NOT_CONFINABLE:
        ok_c = True
        detail_c = f"NotConfinable after {res_c.explored} states"
    elif res_c.verdict == adv.VERDICT_INCONCLUSIVE:
        ok_c, detail_c = _window_fallback()
        detail_c = f"Inconclusive at budget; {detail_c}"
    else:
        ok_c = False
        detail_c = res_c.verdict

    ok = ok_a and ok_b and ok_c
    _report(
        5,
        ok,
        f"(a) 2 robots ConfinableForever, replay starves {list(never_visited)}; "
        f"(b) 1 robot ConfinableForever; (c) {detail_c}",
    )
    assert ok_a, (res_a.verdict, never_visited)
    assert ok_b, res_b.verdict
    assert ok_c, detail_c


def test_criterion_6_word_separation_lemmas():
    start = time.perf_counter()
    bad = []
    for a, b in itertools.combinations(range(64), 2):
        u, v = transform_identifier(a), transform_identifier(b)
        bound = len(u) + len(v)
        if max_common_factor_len(u, v, bound) >= bound:
            bad.append((a, b, "plain"))
        if max_common_factor_len(u, complement(v), bound) >= bound:
            bad.append((a, b, "complement"))
        if max_common_factor_len(complement(u), v, bound) >= bound:
            bad.append((a, b, "complement-left"))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 5.0
    _report(
        6,
        ok,
        f"2016 id pairs (0..63): all common factors of periodic words shorter than "
        f"|u|+|v|, plain and complemented; {elapsed:.1f}s",
    )
    assert not bad, bad[:5]
    assert elapsed < 5.0


def test_criterion_7_divergence_bound():
    chis = (CW, Chirality.RIGHT_IS_COUNTER_CLOCKWISE)
    worst = 0
    bad = []
    for a, b in itertools.combinations(range(32), 2):
        ell_a, ell_b = transformed_length(a), transformed_length(b)
        cap = 2 * ell_a * ell_b
        for ia in range(1, ell_a + 1):
            for ib in range(1, ell_b + 1):
                for ca in chis:
                    for cb in chis:
                        d = divergence_rounds(a, ia, ca, b, ib, cb, cap)
                        if d is None:
                            bad.append((a, b, ia, ib, ca.value, cb.value))
                        else:
                            worst = max(worst, d)
    ok = not bad
    _report(
        7,
        ok,
        f"496 id pairs (0..31), all start indices, all four chirality combinations: "
        f"finite divergence, worst {worst} draws",
    )
    assert not bad, bad[:5]


def test_criterion_8_monitors_and_mutations():
    buckets = [criterion1()["bucket"], criterion2()["bucket"], criterion3()["bucket"],
               criterion4()["bucket"]]
    total_traces = sum(b["traces"] for b in buckets)
    total_violations = sum(b["violations"] for b in buckets)
    monitor_time = sum(b["monitor_time"] for b in buckets)

    sched = EventualMissingSchedule(RecurrentRandomSchedule(6, 1.0, 8, 5), 0, 0)
    mutation_hits = {}
    for mutation in ("freeze_hmpea", "skip_update", "literal_index"):
        robots = [
            RobotState.make(0, 0, R, CW, i=1, nrpea=2, hmpea=False),
            RobotState.make(2, 0, R, CW, i=3, nrpea=2, hmpea=False),
            RobotState.make(1, 3, R, CW, i=5, nrpea=1, hmpea=True),
        ]
        trace = run_states(
            6, "pef3", robots, 400, schedule=sched,
            mutations=frozenset({mutation}), meta_extra={"schedule": sched.describe()},
        )
        mutation_hits[mutation] = len(analysis.monitor_lemmas(trace))

    ok = total_violations == 0 and all(hits >= 1 for hits in mutation_hits.values())
    _report(
        8,
        ok,
        f"{total_traces} traces from criteria 1-4 pass all lemma monitors "
        f"({monitor_time:.1f}s); mutation suite findings: {mutation_hits}",
    )
    examples = [e for b in buckets for e in b["examples"]]
    assert total_violations == 0, examples[:5]
    assert all(hits >= 1 for hits in mutation_hits.values()), mutation_hits


def _trace_bytes(build):
    trace = build()
    buf = io.StringIO()
    write_trace(trace, buf)
    return buf.getvalue()


def test_criterion_9_determinism():
    def static_run():
        states = fuzz_initial(7, [0, 1, 2], random.Random(7_000))
        return run_states(7, "pef3", states, 500, schedule=StaticSchedule(7))

    def recurrent_run():
        sched = RecurrentRandomSchedule(6, 0.5, 8, 42)
        states = fuzz_initial(6, [0, 1, 2], random.Random(42))
        return run_states(6, "pef3", states, 1_000, schedule=sched)

    def missing_run():
        sched = EventualMissingSchedule(RecurrentRandomSchedule(5, 0.5, 8, 9), 1, 0)
        states = fuzz_initial(5, [0, 1, 2], random.Random(9))
        return run_states(
            5, "pef3", states, 1_000, schedule=sched,
            meta_extra={"schedule": sched.describe()},
        )

    def pef2_run():
        sched = RecurrentRandomSchedule(3, 0.5, 8, 3)
        states = fuzz_initial(3, [0, 1], random.Random(3))
        return run_states(3, "pef2", states, 1_000, schedule=sched)

    def witness_run():
        result = adv.game_search(4, _facing_pair(), "pef3")
        return adv.replay_witness(result.witness, 1_000)

    builders = {
        "static": static_run,
        "recurrent": recurrent_run,
        "eventual_missing": missing_run,
        "pef2": pef2_run,
        "witness_replay": witness_run,
    }
    mismatched = [
        name for name, build in builders.items() if _trace_bytes(build) != _trace_bytes(build)
    ]
    ok = not mismatched
    _report(
        9,
        ok,
        "repeated runs produce byte-identical trace files for "
        f"{sorted(builders)}",
    )
    assert not mismatched, mismatched
