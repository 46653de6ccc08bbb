"""The three workloads as jobs: one start taken through its whole pipeline.

A workload is a sequence of cycles; cycle c of seed s is a fixed list of
jobs whose inputs are drawn from (workload, s, c), so every run attempts
whole cycles of the same operations.  A job's `run` is the timed part and
returns the simulated rounds it asked `run_states` for plus its outputs;
its `check` runs off the clock.
"""
from __future__ import annotations

import contextlib
import io
import os
import random
import re
from dataclasses import dataclass
from typing import Any, Callable

from ringsweep import adversary, analysis, cli, engine, scenario
from ringsweep.directions import Chirality, Direction
from ringsweep.robot_core import RobotState

import checks

SWEEP_ROUNDS = 10_000
SWEEP_SUFFIX = 1_000
REPLAY_WINDOW = 500
LONGHAUL_JOBS = (("recurrent", 4, 160_000), ("eventual_missing", 5, 40_000))
REPLAY_ROUNDS = 4_000
CONFINEMENT_ROUNDS = 3_000
RANDOM_PLAYS = 8
CONFINABLE = adversary.VERDICT_CONFINABLE
NOT_CONFINABLE = adversary.VERDICT_NOT_CONFINABLE


@dataclass
class Job:
    label: str
    run: Callable[[Any], tuple[int, Any]]  # clock.Meter -> (rounds, output)
    check: Callable[[Any], list[str]]


def _seed(*parts) -> int:
    return random.Random(":".join(map(str, parts))).randrange(1 << 31)


# -- sweep -----------------------------------------------------------------

def _sweep_job(sc: scenario.Scenario, window_seed: int) -> Job:
    def run(meter):
        trace = scenario.run_scenario(sc)
        cov = analysis.coverage(trace, SWEEP_SUFFIX)
        sentinel = analysis.sentinel_visitor_report(trace) if _has_sentinels(sc) else None
        towers = analysis.detect_towers(trace)
        findings = analysis.monitor_lemmas(trace, towers)
        return sc.rounds, (trace, cov, sentinel, findings)

    def check(output) -> list[str]:
        trace, cov, sentinel, findings = output
        declared = {
            "kind": sc.schedule,
            "recurrence_bound": sc.recurrence_bound,
            "missing_edge": sc.missing_edge,
            "cutoff": sc.cutoff,
        }
        t0 = random.Random(window_seed).randrange(REPLAY_WINDOW, sc.rounds - REPLAY_WINDOW)
        problems = checks.schedule_class(trace.edges, sc.n, declared)
        problems += checks.reference_replay(trace, [(0, REPLAY_WINDOW), (t0, REPLAY_WINDOW)])
        problems += checks.moves_cross_present_edges(trace)
        problems += checks.coverage_gaps(trace, cov, SWEEP_SUFFIX)
        problems += [f"monitor finding: {v.monitor} at {v.round}" for v in findings[:3]]
        if sentinel is not None:
            problems += checks.sentinels(trace, sentinel)
        return problems

    return Job(f"sweep {sc.algo} n={sc.n} {sc.schedule} seed={sc.seed}", run, check)


def _has_sentinels(sc: scenario.Scenario) -> bool:
    """Sentinel and visitor roles belong to the three-robot rule; two pef2
    robots on three nodes cannot hold both endpoints and still visit."""
    return sc.algo == "pef3" and sc.schedule == "eventual_missing"


def _scenario(n: int, algo: str, k: int, schedule: str, seed: int) -> scenario.Scenario:
    return scenario.Scenario(
        n=n, algo=algo, robots=[scenario.RobotSpec(id=i) for i in range(k)],
        schedule=schedule, seed=seed, rounds=SWEEP_ROUNDS,
        missing_edge=seed % n if schedule == "eventual_missing" else None, cutoff=0,
    )


def sweep_cycle(seed: int, cycle: int, workdir: str) -> list[Job]:
    """pef3 with 3 robots on n = 4..8 under recurrent and eventual-missing
    schedules, then pef2 with 2 robots on n = 3 under all three classes."""
    cohorts = [("pef3", 3, n, kind) for n in range(4, 9) for kind in ("recurrent", "eventual_missing")]
    cohorts += [("pef2", 2, 3, kind) for kind in ("static", "recurrent", "eventual_missing")]
    jobs = []
    for algo, k, n, kind in cohorts:
        s = _seed("sweep", seed, cycle, algo, n, kind)
        jobs.append(_sweep_job(_scenario(n, algo, k, kind, s), s + 1))
    return jobs


def sweep_warmup(workdir: str) -> Job:
    return _sweep_job(_scenario(6, "pef3", 3, "recurrent", 1), 2)


# -- longhaul --------------------------------------------------------------

_COVERAGE_LINE = re.compile(r"coverage\[(\d+):\]: Covered\(max_gap=(\d+)\)")
_SENTINEL_LINE = re.compile(r"sentinels at edge \d+: established=(\d+)")


def _longhaul_job(kind: str, n: int, rounds: int, seed: int, workdir: str) -> Job:
    trace_path = os.path.join(workdir, f"longhaul-{seed}.jsonl")
    findings_path = os.path.join(workdir, f"longhaul-{seed}.findings.jsonl")
    argv = ["simulate", "--n", str(n), "--robots", "0,1,2", "--schedule", kind,
            "--rounds", str(rounds), "--seed", str(seed), "--out", trace_path]
    if kind == "eventual_missing":
        argv += ["--missing-edge", str(seed % n), "--cutoff", "0"]

    def run(meter):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            simulated = cli.main(argv)
            meter.split()
            analyzed = cli.main(["analyze", trace_path, "--findings", findings_path])
        return rounds, (simulated, analyzed, printed.getvalue())

    def check(output) -> list[str]:
        simulated, analyzed, printed = output
        suffix = rounds // 2
        try:
            problems, gaps = checks.trace_file(trace_path, rounds, suffix, n)
            if os.path.getsize(findings_path) != 0:
                problems.append("findings file is not empty")
        finally:
            for path in (trace_path, findings_path):
                if os.path.exists(path):
                    os.remove(path)
        if (simulated, analyzed) != (0, 0):
            problems.append(f"exit codes simulate={simulated} analyze={analyzed}")
        if "violations: none" not in printed:
            problems.append("analyze reported violations")
        if any(g is None for g in gaps):
            problems.append(f"node unvisited in the suffix, gaps {gaps}")
        lines = _COVERAGE_LINE.findall(printed)
        want = [(str(suffix), str(max(g or 0 for g in gaps)))] * 2
        if lines != want:
            problems.append(f"printed coverage {lines} != recomputed {want}")
        if kind == "eventual_missing" and not _SENTINEL_LINE.search(printed):
            problems.append("sentinels not established")
        return problems

    return Job(f"longhaul {kind} n={n} rounds={rounds} seed={seed}", run, check)


def longhaul_cycle(seed: int, cycle: int, workdir: str) -> list[Job]:
    """A long n = 4 recurrent run and a missing-edge run, each through
    `simulate --out` and `analyze --findings`."""
    return [
        _longhaul_job(kind, n, rounds, _seed("longhaul", seed, cycle, kind), workdir)
        for kind, n, rounds in LONGHAUL_JOBS
    ]


def longhaul_warmup(workdir: str) -> Job:
    return _longhaul_job("recurrent", 4, 10_000, 1, workdir)


# -- adversary -------------------------------------------------------------

def _pinned(specs) -> list[RobotState]:
    return [
        RobotState.make(rid, pos, Direction(d), Chirality.RIGHT_IS_CLOCKWISE, i=1, nrpea=1, hmpea=True)
        for rid, pos, d in specs
    ]


def _adversary_job(label: str, searches: list, conf_n: int, confined: list[RobotState],
                   seed: int) -> Job:
    """`searches` holds (n, robots, algo, max_absent, allowed verdicts).
    Every ConfinableForever witness is replayed; the job's replay rounds
    are split evenly between its witnesses so every job simulates the same
    number of rounds.  The cohort `confined` then plays the window
    adversary on a ring of `conf_n` nodes."""

    def run(meter):
        results = [
            adversary.game_search(n, robots, algo, max_absent=ma)
            for n, robots, algo, ma, _ in searches
        ]
        witnesses = [r.witness for r in results if r.witness is not None]
        per = REPLAY_ROUNDS // len(witnesses) if witnesses else 0
        replays = [adversary.replay_witness(w, per) for w in witnesses]
        with meter.region("adversary.confinement", rounds=CONFINEMENT_ROUNDS):
            strategy = adversary.ConfinementAdversary(conf_n, stall_cap=100)
            trace = engine.run_states(
                conf_n, "pef3", confined, CONFINEMENT_ROUNDS, strategy=strategy
            )
        cov = analysis.coverage(trace, CONFINEMENT_ROUNDS // 2)
        return per * len(witnesses) + CONFINEMENT_ROUNDS, (results, replays, trace, cov)

    def check(output) -> list[str]:
        results, replays, trace, cov = output
        problems = []
        rng = random.Random(seed)
        replayed = iter(replays)
        for (n, robots, algo, ma, allowed), res in zip(searches, results):
            if res.verdict not in allowed:
                problems.append(f"n={n} k={len(robots)} max_absent={ma}: {res.verdict}")
            if res.witness is not None:
                problems += checks.witness_replay(res.witness, next(replayed), len(robots))
            elif res.verdict == NOT_CONFINABLE:
                problems += checks.random_plays(
                    robots, n, algo, ma, res.explored, rng, RANDOM_PLAYS
                )
        problems += checks.confinement(trace, cov, CONFINEMENT_ROUNDS // 2)
        return problems

    return Job(label, run, check)


def _criterion5_job(seed: int) -> Job:
    """The paper's necessity cases: two robots facing their shared edge on
    n = 4 and one pef2 robot on n = 3 are confinable; three robots on
    n = 4 are not.  A fuzzed n = 4 trio plays the window adversary."""
    searches = [
        (4, _pinned([(0, 0, "R"), (1, 1, "L")]), "pef3", 1, {CONFINABLE}),
        (3, _pinned([(0, 0, "R")]), "pef2", 1, {CONFINABLE}),
        (4, _pinned([(0, 0, "R"), (1, 1, "R"), (2, 2, "R")]), "pef3", 1, {NOT_CONFINABLE}),
    ]
    trio = engine.fuzz_initial(4, [0, 1, 2], random.Random(seed))
    return _adversary_job(f"adversary criterion-5 seed={seed}", searches, 4, trio, seed)


def _fuzzed_job(n: int, seed: int) -> Job:
    """A fuzzed 2-robot and 3-robot start on n nodes, each searched with
    one and with two simultaneously absent edges.  Three robots under one
    absent edge stay inside the class, where pef3 cannot be confined."""
    rng = random.Random(seed)
    pair = engine.fuzz_initial(n, [0, 1], rng)
    trio = engine.fuzz_initial(n, [0, 1, 2], rng)
    either = {CONFINABLE, NOT_CONFINABLE}
    searches = [
        (n, pair, "pef3", 1, either),
        (n, pair, "pef3", 2, either),
        (n, trio, "pef3", 1, {NOT_CONFINABLE}),
        (n, trio, "pef3", 2, either),
    ]
    return _adversary_job(f"adversary fuzzed n={n} seed={seed}", searches, n, trio, seed)


def adversary_cycle(seed: int, cycle: int, workdir: str) -> list[Job]:
    jobs = [_criterion5_job(_seed("adversary", seed, cycle, "criterion5"))]
    jobs += [_fuzzed_job(n, _seed("adversary", seed, cycle, n)) for n in (4, 5, 6)]
    return jobs


def adversary_warmup(workdir: str) -> Job:
    return _fuzzed_job(4, 1)


WORKLOADS = {
    "sweep": (sweep_cycle, sweep_warmup),
    "longhaul": (longhaul_cycle, longhaul_warmup),
    "adversary": (adversary_cycle, adversary_warmup),
}
