"""Command-line entry point: simulate, analyze, search, words.

Exit codes: 0 success and all monitors clean, 1 monitor or coverage
failure, 2 validation error, 3 inconclusive search.  The default seed
comes from the RINGSWEEP_SEED environment variable; identical command
lines (including seed) produce byte-identical trace files.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import adversary as adv
from . import analysis
from .engine import read_trace_file, write_trace_file
from .ring_model import eventual_missing_description
from .scenario import (
    Scenario,
    ScenarioError,
    apply_cohort,
    build_robots,
    parse_mutations,
    parse_removals,
    parse_robot_ids,
    parse_robot_record,
    parse_scenario_file,
    run_scenario,
)
from .words import (
    complement,
    divergence_cap,
    divergence_rounds,
    max_common_factor_len,
    transform_identifier,
)
from .directions import Chirality

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_VALIDATION = 2
EXIT_INCONCLUSIVE = 3


def _default_seed() -> int:
    env = os.environ.get("RINGSWEEP_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise ValueError(f"RINGSWEEP_SEED must be an integer, got {env!r}") from None


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", help="scenario file (key = value lines)")
    p.add_argument("--n", type=int, help="ring size")
    p.add_argument("--algo", choices=["pef3", "pef2"])
    p.add_argument("--robots", help="comma-separated robot ids, e.g. 0,1,2")
    p.add_argument(
        "--robot",
        action="append",
        default=[],
        metavar="REC",
        help="detailed robot record, e.g. 'id=0 pos=1 dir=L chirality=cw'",
    )
    p.add_argument("--schedule", choices=["static", "recurrent", "eventual_missing", "removal_list"])
    p.add_argument("--seed", type=int)
    p.add_argument("--p", type=float, help="edge presence probability (recurrent schedules)")
    p.add_argument("--recurrence-bound", type=int)
    p.add_argument("--missing-edge", type=int)
    p.add_argument("--cutoff", type=int)
    p.add_argument("--removals", help="edge:[start,end];... with end=inf allowed")
    p.add_argument("--adversary", help="'confinement' or 'witness:<path>'")
    p.add_argument("--stall-cap", type=int)
    p.add_argument("--rounds", type=int)
    p.add_argument("--mutations", help="comma-separated fault-injection flags")


def _apply_cohort_flags(sc: Scenario, args) -> Scenario:
    """`--n/--algo/--robots/--robot/--seed` on top of `sc`."""
    return apply_cohort(
        sc,
        n=args.n,
        algo=args.algo,
        robots=parse_robot_ids(args.robots) if args.robots is not None else None,
        records=[parse_robot_record(rec) for rec in args.robot],
        seed=args.seed,
    )


def _scenario_from_args(args) -> Scenario:
    # Seed order: the flag, then the file key, then RINGSWEEP_SEED, then 0.
    sc = Scenario(seed=_default_seed())
    if args.scenario:
        sc = parse_scenario_file(args.scenario, sc)
    _apply_cohort_flags(sc, args)
    for key in ("schedule", "p", "recurrence_bound", "missing_edge", "cutoff", "adversary",
                "stall_cap", "rounds"):
        if getattr(args, key) is not None:
            setattr(sc, key, getattr(args, key))
    if args.removals is not None:
        sc.removals = parse_removals(args.removals)
    if args.mutations is not None:
        sc.mutations = parse_mutations(args.mutations)
    return sc


# RobotState attribute of each robot record field.
_ROBOT_FIELDS = {"pos": "position", "dir": "direction", "chirality": "chirality", "i": "i",
                 "nrpea": "nrpea", "hmpea": "hmpea"}


def _read_replayed_witness(sc: Scenario) -> adv.Witness:
    """The witness `sc.adversary` names, once the effective scenario (file
    keys, then flags) is known not to contradict it.

    The witness embeds its own cohort and ring, and replays the unmutated
    rules it was searched with; the scenario only contributes the horizon.
    An `n`, `algo`, `robots` or `robot` key that names another ring,
    algorithm or robot is an error naming the key, not a replay of
    something else.
    """
    if sc.mutations:
        raise ScenarioError({
            "mutations": "a witness replays the unmutated rules it was searched with",
        })
    witness = adv.read_witness_file(sc.adversary.split(":", 1)[1])
    robots = {r.id: r for r in witness.robots}
    problems = {}
    if sc.n and sc.n != witness.n:
        problems["n"] = f"{sc.n} contradicts the witness's ring of {witness.n} nodes"
    if sc.algo is not None and sc.algo != witness.algo:
        problems["algo"] = f"{sc.algo} contradicts the witness's algorithm {witness.algo}"
    given = [spec.id for spec in sc.robots]
    if given and given != list(robots):
        problems["robots"] = f"{given} contradicts the witness's robots {list(robots)}"
    # A robot the witness lacks is named by `robots` unless a record pins it.
    pinned = []
    for spec in sc.robots:
        fields, robot = spec.overrides(), robots.get(spec.id)
        if fields and (robot is None or any(
            getattr(robot, _ROBOT_FIELDS[key]) != value for key, value in fields.items()
        )):
            record = " ".join(f"{key}={value}" for key, value in vars(spec).items()
                              if value is not None)
            pinned.append(f"{record} contradicts the witness's robot {spec.id}")
    if pinned:
        problems["robot"] = ", ".join(pinned)
    if problems:
        raise ScenarioError(problems)
    return witness


def _simulate_one(
    sc: Scenario, out_path: str | None, print_prefix: str = "", witness: adv.Witness | None = None
) -> int:
    if witness is not None:
        trace = adv.replay_witness(witness, sc.rounds)
    else:
        confine = sc.adversary == "confinement"
        strategy = adv.ConfinementAdversary(sc.n, stall_cap=sc.stall_cap) if confine else None
        trace = run_scenario(sc, strategy=strategy)
    if out_path:
        write_trace_file(trace, out_path)
    suffix = max(0, min(trace.rounds - 1, trace.rounds // 2))
    cov = analysis.coverage(trace, suffix)
    print(
        f"{print_prefix}coverage[{suffix}:]: {cov.verdict()}   towers: {analysis.count_towers(trace)}"
        + (f"   trace: {out_path}" if out_path else "")
    )
    return EXIT_OK if cov.covered else EXIT_FINDINGS


def cmd_simulate(args) -> int:
    if args.batch is not None and args.batch < 1:
        raise ValueError(f"--batch must be >= 1, got {args.batch}")
    sc = _scenario_from_args(args)
    witness = None
    if sc.adversary and sc.adversary.startswith("witness:"):
        witness = _read_replayed_witness(sc)
    if args.batch is None:
        return _simulate_one(sc, args.out, witness=witness)
    base_out = args.out or "trace"
    code = EXIT_OK
    for seed in range(sc.seed, sc.seed + args.batch):
        out = f"{base_out}.seed{seed}.jsonl"
        code = max(code, _simulate_one(
            replace(sc, seed=seed), out, print_prefix=f"[seed {seed}] ", witness=witness
        ))
    return code


def cmd_analyze(args) -> int:
    trace = read_trace_file(args.trace)
    suffix = args.suffix_start if args.suffix_start is not None else max(
        0, min(trace.rounds - 1, trace.rounds // 2)
    )
    cov = analysis.coverage(trace, suffix, args.window)
    towers = analysis.detect_towers(trace)
    violations = analysis.monitor_lemmas(trace, towers)
    print(f"rounds: {trace.rounds}   n: {trace.n}   algo: {trace.algo}")
    print(f"coverage[{suffix}:]: {cov.verdict()}")
    print(f"towers: {towers.census()}")
    coh = {rid: analysis.coherence_round(trace, rid) for rid in trace.robot_ids}
    print(f"coherence rounds: {coh}")
    if eventual_missing_description(trace.meta.get("schedule")) is not None:
        rep = analysis.sentinel_visitor_report(trace)
        print(
            f"sentinels at edge {rep.missing_edge}: established="
            f"{rep.established_round}   meetings={len(rep.meetings)}"
        )
    if violations:
        print(f"violations: {len(violations)}")
        for v in violations[:20]:
            print(f"  [{v.monitor}] round {v.round}: {v.detail}")
        if len(violations) > 20:
            print(f"  ... {len(violations) - 20} more")
    else:
        print("violations: none")
    if args.findings:
        with open(args.findings, "w", encoding="utf-8", newline="\n") as fh:
            analysis.write_findings(violations, fh)
    return EXIT_FINDINGS if (violations or not cov.covered) else EXIT_OK


def cmd_search(args) -> int:
    sc = _apply_cohort_flags(Scenario(seed=_default_seed()), args)
    sc.validate()
    robots = build_robots(sc)
    result = adv.game_search(
        sc.n, robots, sc.algorithm, max_absent=args.max_absent, state_budget=args.state_budget
    )
    print(
        f"verdict: {result.verdict}   explored states: {result.explored}"
        f"   max simultaneous absent: {result.max_absent}"
    )
    if result.witness is not None:
        w = result.witness
        print(
            f"witness: path {w.path_length}, cycle {w.cycle_length}, "
            f"starved nodes {list(w.starved_nodes)}, "
            f"permanently absent {list(w.cycle_always_absent)}"
        )
        if args.witness_out:
            adv.write_witness_file(w, args.witness_out)
            print(f"witness written to {args.witness_out}")
    if result.verdict == adv.VERDICT_INCONCLUSIVE:
        print(f"state budget {result.state_budget} exhausted", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_words(args) -> int:
    if args.table is not None and args.table < 0:
        raise ValueError(f"--table MAX_ID must be >= 0, got {args.table}")
    did_something = False
    if args.transform is not None:
        print(transform_identifier(args.transform))
        did_something = True
    for pair, flip in ((args.lcf, False), (args.lcf_complement, True)):
        if pair is not None:
            u, v = transform_identifier(pair[0]), transform_identifier(pair[1])
            if flip:
                v = complement(v)
            print(max_common_factor_len(u, v, len(u) + len(v)))
            did_something = True
    if args.divergence is not None:
        a, b = args.divergence
        chir_b = (
            Chirality.RIGHT_IS_CLOCKWISE
            if args.chirality == "same"
            else Chirality.RIGHT_IS_COUNTER_CLOCKWISE
        )
        d = divergence_rounds(
            a, 1, Chirality.RIGHT_IS_CLOCKWISE, b, 1, chir_b, divergence_cap(a, b)
        )
        print(d if d is not None else "no divergence within cap")
        did_something = True
    if args.table is not None:
        hi = args.table
        ids = list(range(hi + 1))
        print("id\ttransformed")
        for i in ids:
            print(f"{i}\t{transform_identifier(i)}")
        print("\nlongest common factor of periodic repetitions (bound = |u|+|v|)")
        print("\t" + "\t".join(map(str, ids)))
        for a in ids:
            row = []
            for b in ids:
                u, v = transform_identifier(a), transform_identifier(b)
                row.append(str(max_common_factor_len(u, v, len(u) + len(v))))
            print(f"{a}\t" + "\t".join(row))
        print("\nsynchronized draws to divergence (same chirality, start index 1)")
        print("\t" + "\t".join(map(str, ids)))
        for a in ids:
            row = []
            for b in ids:
                d = divergence_rounds(
                    a, 1, Chirality.RIGHT_IS_CLOCKWISE,
                    b, 1, Chirality.RIGHT_IS_CLOCKWISE,
                    divergence_cap(a, b),
                )
                row.append(str(d) if d is not None else "-")
            print(f"{a}\t" + "\t".join(row))
        did_something = True
    if not did_something:
        print("nothing to do: pass --transform, --lcf, --lcf-complement, --divergence or --table", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringsweep",
        description="Simulate and verify self-stabilizing perpetual exploration of dynamic rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario and report coverage")
    _add_scenario_flags(p_sim)
    p_sim.add_argument("--out", help="trace output path (line-delimited records)")
    p_sim.add_argument("--batch", type=int, help="run this many consecutive seeds, one after another")
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="coverage, towers and lemma monitors over a trace file")
    p_an.add_argument("trace")
    p_an.add_argument("--suffix-start", type=int)
    p_an.add_argument("--window", type=int)
    p_an.add_argument("--findings", help="write machine-readable findings here")
    p_an.set_defaults(func=cmd_analyze)

    p_se = sub.add_parser("search", help="exhaustive reactive-adversary confinement search")
    p_se.add_argument("--n", type=int, required=True)
    p_se.add_argument("--robots", required=True, help="comma-separated robot ids (<= 3)")
    p_se.add_argument("--robot", action="append", default=[], metavar="REC",
                      help="pin fields of one robot, e.g. 'id=0 pos=0 dir=R chirality=cw'")
    p_se.add_argument("--algo", choices=["pef3", "pef2"], default="pef3")
    p_se.add_argument("--seed", type=int)
    p_se.add_argument("--max-absent", type=int, default=1,
                      help="simultaneously absent edges the adversary may choose (default 1)")
    p_se.add_argument("--state-budget", type=int, default=2_000_000)
    p_se.add_argument("--witness-out", help="write the confining play here")
    p_se.set_defaults(func=cmd_search)

    p_wo = sub.add_parser("words", help="transformed identifiers and word oracles")
    p_wo.add_argument("--transform", type=int, metavar="ID")
    p_wo.add_argument("--lcf", type=int, nargs=2, metavar=("A", "B"))
    p_wo.add_argument("--lcf-complement", type=int, nargs=2, metavar=("A", "B"))
    p_wo.add_argument("--divergence", type=int, nargs=2, metavar=("A", "B"))
    p_wo.add_argument("--chirality", choices=["same", "opposite"], default="same")
    p_wo.add_argument("--table", type=int, metavar="MAX_ID")
    p_wo.set_defaults(func=cmd_words)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
