"""Scenario files, flag precedence, CLI contracts and exit codes."""
import json
import random
import re
from pathlib import Path

import pytest

from ringsweep import analysis, cli
from ringsweep.engine import read_trace_file
from ringsweep.ring_model import INF
from ringsweep.scenario import (
    Scenario,
    ScenarioError,
    RobotSpec,
    build_schedule,
    parse_removals,
    parse_robot_record,
    parse_scenario_text,
    run_scenario,
)
from ringsweep.words import complement, max_common_factor_len, transform_identifier

SCENARIO_TEXT = """
# demo scenario
n = 5
algo = pef3
schedule = eventual_missing
seed = 11
recurrence_bound = 8
missing_edge = 2
cutoff = 0
rounds = 300
robots = 0,1
robot = id=2 pos=4 dir=L chirality=ccw i=3 nrpea=1 hmpea=true
"""


class Put:
    """The last step of a malformed-input path: store `value` at the key
    instead of deleting it.  The records are then written as compact
    sorted-key lines, the writer's own layout, unless `spaced`."""

    def __init__(self, value, spaced=False):
        self.value = value
        self.spaced = spaced

    def __str__(self):
        return f"{self.value}-spaced" if self.spaced else str(self.value)


# Command lines that must exit 2, each with what stderr must say.  The
# argument "witness:{witness}" names a witness file the test writes first.
BAD_COMMAND_LINES = {
    ("simulate", "--n", "64", "--robots", "0,1", "--rounds", "5"): "ring size must be in 3..63",
    ("simulate", "--n", "5", "--robots", "0,1,2", "--adversary", "confinement",
     "--rounds", "30", "--stall-cap", "-1"): "stall_cap must be >= 0, got -1",
    ("simulate", "--adversary", "witness:{witness}", "--mutations", "skip_update",
     "--rounds", "5"): "a witness replays the unmutated rules",
    # The facing pair's witness is an n = 4 pef3 cohort of robots 0 (node 0)
    # and 1 (node 1); a cohort flag that says otherwise is not replayed.
    # WITNESS_SCENARIO_FILES holds the same keys in a scenario file.
    ("simulate", "--adversary", "witness:{witness}", "--n", "5", "--rounds", "5"):
        "n: 5 contradicts the witness's ring of 4 nodes",
    ("simulate", "--adversary", "witness:{witness}", "--algo", "pef2", "--rounds", "5"):
        "algo: pef2 contradicts the witness's algorithm pef3",
    ("simulate", "--adversary", "witness:{witness}", "--robots", "0,1,2", "--rounds", "5"):
        "robots: [0, 1, 2] contradicts the witness's robots [0, 1]",
    ("simulate", "--adversary", "witness:{witness}", "--robot", "id=1 pos=2", "--rounds", "5"):
        "robot: id=1 pos=2 contradicts the witness's robot 1",
    ("simulate", "--adversary", "witness:{witness}", "--robot", "id=2", "--rounds", "5"):
        "robots: [2] contradicts the witness's robots [0, 1]",
    ("words", "--table", "-1"): "--table MAX_ID must be >= 0, got -1",
    ("search", "--n", "4", "--robots", "0,1", "--state-budget", "0"):
        "state_budget must be >= 1, got 0",
    ("analyze", "{trace}", "--window", "0"): "window must be >= 1, got 0",
    ("analyze", "{trace}", "--window", "-1"): "window must be >= 1, got -1",
    ("simulate", "--n", "4", "--robots", "0,1", "--rounds", "5", "--batch", "0"):
        "--batch must be >= 1, got 0",
    ("simulate", "--n", "4", "--robots", "0,1", "--rounds", "5", "--batch", "-3"):
        "--batch must be >= 1, got -3",
}


# Scenario-file keys that contradict the facing pair's witness, each with
# what stderr must say; the file also holds `adversary = witness:<path>`
# and `rounds = 50`.  The first is the keys of a file that used to replay
# the n = 4 pair regardless.
WITNESS_SCENARIO_FILES = {
    "n = 5\nalgo = pef2\nrobots = 0,1,2\n": "n: 5 contradicts the witness's ring of 4 nodes",
    "n = 5\n": "n: 5 contradicts the witness's ring of 4 nodes",
    "algo = pef2\n": "algo: pef2 contradicts the witness's algorithm pef3",
    "robots = 0,1,2\n": "robots: [0, 1, 2] contradicts the witness's robots [0, 1]",
    "robots = 1,0\n": "robots: [1, 0] contradicts the witness's robots [0, 1]",
    "robots = 0,1\nrobot = id=1 pos=2\n": "robot: id=1 pos=2 contradicts the witness's robot 1",
    "robots = 0,1\nrobot = id=0 dir=L\n": "robot: id=0 dir=L contradicts the witness's robot 0",
}


def facing_pair_search(witness_out) -> list[str]:
    """The search command that writes the facing pair's two-record witness
    (n = 4, pef3) to `witness_out`."""
    return ["search", "--n", "4", "--robots", "0,1",
            "--robot", "id=0 pos=0 dir=R chirality=cw i=1 nrpea=1 hmpea=true",
            "--robot", "id=1 pos=1 dir=L chirality=cw i=1 nrpea=1 hmpea=true",
            "--witness-out", str(witness_out)]


def readme_scenario() -> str:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"```\n(n = 5\n.*?)```", readme, re.S)
    assert block, "README scenario example not found"
    return block.group(1)


class TestScenarioParsing:
    def test_full_file(self):
        sc = parse_scenario_text(SCENARIO_TEXT)
        assert (sc.n, sc.algo, sc.schedule, sc.seed) == (5, "pef3", "eventual_missing", 11)
        assert sc.missing_edge == 2 and sc.cutoff == 0 and sc.rounds == 300
        assert [r.id for r in sc.robots] == [0, 1, 2]
        detailed = sc.robots[2]
        assert (detailed.pos, detailed.dir, detailed.chirality) == (4, "L", "ccw")
        assert (detailed.i, detailed.nrpea, detailed.hmpea) == (3, 1, True)
        sc.validate()

    def test_readme_example_parses(self):
        sc = parse_scenario_text(readme_scenario())
        sc.validate()
        build_schedule(sc)
        assert sc.schedule == "eventual_missing" and [r.id for r in sc.robots] == [0, 1, 2]

    def test_readme_example_keeps_sentinels_under_removals(self, tmp_path, capsys):
        scen = tmp_path / "scenario.txt"
        scen.write_text(readme_scenario())
        out = tmp_path / "t.jsonl"
        assert cli.main(["simulate", "--scenario", str(scen), "--out", str(out)]) == 0
        schedule = read_trace_file(str(out)).meta["schedule"]
        assert schedule["kind"] == "removal_list"
        assert schedule["inner"]["kind"] == "eventual_missing"
        capsys.readouterr()
        cli.main(["analyze", str(out)])
        assert "sentinels at edge 2: established=" in capsys.readouterr().out

    def test_removals_syntax(self):
        assert parse_removals("0:[5,10];2:[3,inf]") == [(0, 5, 10.0), (2, 3, INF)]
        with pytest.raises(ValueError, match="interval"):
            parse_removals("0:5,10")

    def test_robot_record_errors(self):
        with pytest.raises(ValueError, match="lacks an id"):
            parse_robot_record("pos=2")
        with pytest.raises(ValueError, match="unknown robot field"):
            parse_robot_record("id=0 speed=9")

    def test_unknown_key_reported(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_text("n = 4\nwibble = 3\nrobots = 0\n")
        assert "wibble" in exc.value.fields

    def test_validation_names_offending_fields(self):
        sc = Scenario(n=2, algo="pefX", rounds=0, stall_cap=-1)
        with pytest.raises(ScenarioError) as exc:
            sc.validate()
        assert {"n", "algo", "rounds", "robots", "stall_cap"} <= set(exc.value.fields)

    def test_missing_edge_required_for_eventual_missing(self):
        sc = Scenario(n=4, schedule="eventual_missing", robots=[RobotSpec(id=0)])
        with pytest.raises(ScenarioError) as exc:
            sc.validate()
        assert "missing_edge" in exc.value.fields


class TestRunScenario:
    def test_meta_echoes_effective_scenario(self):
        sc = parse_scenario_text(SCENARIO_TEXT)
        trace = run_scenario(sc)
        assert trace.meta["scenario"]["schedule"] == "eventual_missing"
        assert trace.meta["scenario"]["missing_edge"] == 2
        assert trace.meta["schedule"]["kind"] == "eventual_missing"
        assert trace.meta["seed"] == 11

    def test_pinned_fields_survive_fuzzing(self):
        sc = parse_scenario_text(SCENARIO_TEXT)
        trace = run_scenario(sc)
        rec = next(r for r in trace.meta["robots"] if r["id"] == 2)
        assert rec["pos"] == 4 and rec["dir"] == "L" and rec["chirality"] == "ccw"

    def test_same_seed_same_trace(self):
        sc = parse_scenario_text(SCENARIO_TEXT)
        a, b = run_scenario(sc), run_scenario(sc)
        assert (a.pos == b.pos).all() and a.meta == b.meta


class TestCli:
    def test_simulate_writes_trace_and_reports(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        code = cli.main(
            [
                "simulate", "--n", "5", "--algo", "pef3", "--robots", "0,1,2",
                "--schedule", "static", "--rounds", "200", "--seed", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "Covered" in printed and "towers:" in printed
        trace = read_trace_file(str(out))
        assert trace.rounds == 200 and trace.n == 5

    def test_missing_robots_is_named(self, capsys):
        code = cli.main(["simulate", "--n", "4", "--schedule", "static"])
        assert code == 2
        assert "robots" in capsys.readouterr().err

    def test_analyze_clean_and_mutated(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert (
            cli.main(
                [
                    "simulate", "--n", "5", "--robots", "0,1,2", "--schedule", "static",
                    "--rounds", "120", "--seed", "3", "--out", str(out),
                ]
            )
            == 0
        )
        assert cli.main(["analyze", str(out)]) == 0
        lines = out.read_text().splitlines()
        rec = json.loads(lines[40])
        rec["robots"][0]["hmpea"] = not rec["robots"][0]["hmpea"]
        lines[40] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        mutated = tmp_path / "m.jsonl"
        mutated.write_text("\n".join(lines) + "\n")
        findings = tmp_path / "f.jsonl"
        code = cli.main(["analyze", str(mutated), "--findings", str(findings)])
        assert code == 1
        assert findings.read_text().strip()
        assert "coherence" in capsys.readouterr().out

    def test_analyze_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "e.jsonl"
        empty.write_text("")
        assert cli.main(["analyze", str(empty)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_search_pipeline_and_bounds(self, tmp_path, capsys):
        witness = tmp_path / "w.jsonl"
        code = cli.main(
            [
                "search", "--n", "4", "--robots", "0,1", "--algo", "pef3",
                "--robot", "id=0 pos=0 dir=R chirality=cw i=1 nrpea=1 hmpea=true",
                "--robot", "id=1 pos=1 dir=L chirality=cw i=1 nrpea=1 hmpea=true",
                "--witness-out", str(witness),
            ]
        )
        assert code == 0
        assert "ConfinableForever" in capsys.readouterr().out
        trace_path = tmp_path / "replay.jsonl"
        code = cli.main(
            [
                "simulate", "--adversary", f"witness:{witness}", "--rounds", "500",
                "--out", str(trace_path),
            ]
        )
        assert code == 1  # starved coverage is the expected outcome here
        assert "Starved" in capsys.readouterr().out
        assert cli.main(["search", "--n", "7", "--robots", "0,1"]) == 2

    def test_witness_replay_accepts_cohort_flags_that_agree(self, tmp_path, capsys):
        target = tmp_path / "witness.jsonl"
        assert cli.main(facing_pair_search(target)) == 0
        capsys.readouterr()
        argv = ["simulate", "--adversary", f"witness:{target}", "--rounds", "50", "--n", "4",
                "--algo", "pef3", "--robots", "0,1", "--robot", "id=1 pos=1 dir=L chirality=cw"]
        assert cli.main(argv) == 1  # the pair starves node 2
        assert "Starved" in capsys.readouterr().out

    def test_printed_tower_count_is_the_tower_table_length(self, tmp_path, capsys):
        # `simulate` counts towers without building the tower table; on
        # fuzzed runs of both algorithms the count is the table's length.
        rng = random.Random(31)
        out = tmp_path / "t.jsonl"
        counts = set()
        for case in range(16):
            algo = ("pef3", "pef2")[case % 2]
            n = 3 if algo == "pef2" else rng.randint(4, 7)
            ids = ",".join(map(str, rng.sample(range(6), 2 if algo == "pef2" else 3)))
            argv = ["simulate", "--n", str(n), "--algo", algo, "--robots", ids,
                    "--schedule", "recurrent", "--p", str(rng.choice((0.3, 0.5, 0.8))),
                    "--rounds", str(rng.randint(50, 400)), "--seed", str(case), "--out", str(out)]
            assert cli.main(argv) in (0, 1)
            printed = int(re.search(r"towers: (\d+)", capsys.readouterr().out).group(1))
            assert printed == len(analysis.detect_towers(read_trace_file(str(out)))), case
            counts.add(printed)
        assert len(counts) > 3

    def test_search_three_robots_not_confinable(self, capsys):
        code = cli.main(["search", "--n", "4", "--robots", "0,1,2", "--seed", "5"])
        assert code == 0
        assert "NotConfinable" in capsys.readouterr().out

    def test_words_outputs(self, capsys):
        assert cli.main(["words", "--transform", "5"]) == 0
        assert capsys.readouterr().out.strip() == "110011010"
        assert cli.main(["words", "--lcf", "0", "2"]) == 0
        assert int(capsys.readouterr().out) < 12
        # The complement is taken of the second word: 1 against itself
        # repeats forever, 1 against its complement does not.
        assert cli.main(["words", "--lcf", "1", "1"]) == 0
        assert int(capsys.readouterr().out) == 10
        assert cli.main(["words", "--lcf-complement", "1", "1"]) == 0
        u = transform_identifier(1)
        assert int(capsys.readouterr().out) == max_common_factor_len(u, complement(u), 10) < 10
        assert cli.main(["words", "--divergence", "0", "1", "--chirality", "same"]) == 0
        assert int(capsys.readouterr().out) >= 1
        assert cli.main(["words"]) == 2

    def test_words_table(self, capsys):
        assert cli.main(["words", "--table", "2"]) == 0
        out = capsys.readouterr().out
        assert "transformed" in out and "divergence" in out

    def test_batch_runs_per_seed_files(self, tmp_path, capsys):
        argv = ["simulate", "--n", "4", "--robots", "0,1,2", "--schedule", "recurrent",
                "--rounds", "300"]
        base = tmp_path / "batch"
        code = cli.main(argv + ["--seed", "10", "--batch", "3", "--out", str(base)])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert [line.split("]")[0] for line in printed] == ["[seed 10", "[seed 11", "[seed 12"]
        for seed in (10, 11, 12):
            single = tmp_path / f"single{seed}.jsonl"
            assert cli.main(argv + ["--seed", str(seed), "--out", str(single)]) == 0
            assert (tmp_path / f"batch.seed{seed}.jsonl").read_bytes() == single.read_bytes()

    def test_robot_record_pins_listed_id(self, tmp_path, monkeypatch, capsys):
        searched = []
        real_search = cli.adv.game_search

        def spy(n, robots, *args, **kwargs):
            searched.append(robots)
            return real_search(n, robots, *args, **kwargs)

        monkeypatch.setattr(cli.adv, "game_search", spy)
        out = tmp_path / "t.jsonl"
        pin = ["--n", "4", "--robots", "0,1", "--robot", "id=1 pos=2"]
        assert cli.main(["simulate", *pin, "--rounds", "20", "--out", str(out)]) in (0, 1)
        assert [(r["id"], r["pos"]) for r in read_trace_file(str(out)).meta["robots"]][1] == (1, 2)
        assert cli.main(["search", *pin]) == 0
        assert [r.id for r in searched[0]] == [0, 1] and searched[0][1].position == 2
        for cmd in ("simulate", "search"):
            assert cli.main([cmd, *pin, "--robot", "id=1 pos=3"]) == 2
            assert "two robot records for id 1" in capsys.readouterr().err
            assert cli.main([cmd, "--n", "4", "--robots", "0,1,0"]) == 2

    @pytest.mark.parametrize(
        "schedule",
        [
            ["eventual_missing", "--missing-edge", "2", "--removals", "3:[0,inf]"],
            ["removal_list", "--removals", "0:[0,inf];2:[0,inf]"],
        ],
        ids=["eventual_missing+removal", "two_removals"],
    )
    def test_two_forever_missing_edges_rejected(self, schedule, capsys):
        argv = ["simulate", "--n", "6", "--robots", "0,1,2", "--rounds", "50", "--schedule"]
        assert cli.main(argv + schedule) == 2
        assert "at most one eventually missing edge" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind,path",
        [
            ("trace", (0, "meta")),
            ("trace", (0, "meta", "robots")),
            ("trace", (0, "meta", "robots", 0, "gdir")),
            ("trace", (0, "meta", "schedule", "missing_edge")),
            ("trace", (1, "edges")),
            ("trace", (1, "robots", 0, "moved")),
            ("trace", (1, "robots", 0, "pos", Put(40000))),
            ("trace", (1, "robots", 0, "pos", Put(9))),
            ("trace", (1, "robots", 0, "gdir", Put("XW", spaced=True))),
            ("trace", (1, "robots", 1, "hmpea", Put(1))),
            ("trace", (1, "robots", 1, "nrpea", Put(2**63))),
            ("trace", (1, "edges", Put(-1))),
            ("trace", (0, "meta", "robots", 0, "i", Put(-(2**63) - 1))),
            # A 6-round trace whose last record was cut off:
            ("trace", (0, "meta", "rounds", Put(6))),
            ("trace", (0, "meta", "rounds", Put(4))),
            ("trace", (0, "meta", "rounds", Put("5"))),
            ("witness", (0, "robots")),
            ("witness", (0, "robots", 0, "chirality")),
            ("witness", (1, "absent")),
            ("witness", (1, "absent", Put(["x"]))),
            ("witness", (1, "absent", Put(5))),
            ("witness", (1, "absent", Put([99]))),
            ("witness", (1, "t")),
            ("witness", (1, "t", Put(1))),
            ("witness", (1, "t", Put(True))),
            ("witness", (1,)),
            ("witness", (0, "cycle_length", Put(0))),
            ("witness", (0, "version", Put(1))),
            ("witness", (0, "n", Put("4"))),
            ("witness", (0, "robots", Put(5))),
            ("witness", (1, Put([1]))),
            # Header claims that the play does not show:
            ("witness", (0, "starved_nodes", Put([0]))),
            ("witness", (0, "cycle_always_absent", Put([]))),
            *((argv[0], argv[1:]) for argv in BAD_COMMAND_LINES),
        ],
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else v,
    )
    def test_malformed_inputs_exit_2(self, kind, path, tmp_path, capsys):
        target = tmp_path / f"{kind}.jsonl"
        if kind not in ("trace", "witness"):  # a command line
            if "witness:{witness}" in path:
                assert cli.main(facing_pair_search(target)) == 0
            if "{trace}" in path:
                argv = ["simulate", "--n", "5", "--robots", "0,1,2", "--rounds", "50"]
                assert cli.main(argv + ["--out", str(target)]) in (0, 1)
            capsys.readouterr()
            args = (arg.format(witness=target, trace=target) for arg in path)
            assert cli.main([kind, *args]) == 2
            assert BAD_COMMAND_LINES[(kind, *path)] in capsys.readouterr().err
            return
        if kind == "trace":
            argv = ["simulate", "--n", "4", "--robots", "0,1", "--rounds", "5", "--out", str(target)]
            if "schedule" in path:
                argv += ["--schedule", "eventual_missing", "--missing-edge", "1"]
        else:
            argv = facing_pair_search(target)
        assert cli.main(argv) in (0, 1)
        records = [json.loads(line) for line in target.read_text().splitlines()]
        put = path[-1] if isinstance(path[-1], Put) else None
        *steps, key = path[:-1] if put else path
        obj = records
        for step in steps:
            obj = obj[step]
        if put:
            obj[key] = put.value
        else:
            del obj[key]
        if put and not put.spaced:
            lines = (json.dumps(rec, sort_keys=True, separators=(",", ":")) for rec in records)
        else:
            lines = (json.dumps(rec) for rec in records)
        target.write_text("".join(line + "\n" for line in lines))
        capsys.readouterr()
        if kind == "trace":
            assert cli.main(["analyze", str(target)]) == 2
        else:
            assert cli.main(["simulate", "--adversary", f"witness:{target}", "--rounds", "5"]) == 2
        assert f"{kind} line {path[0] + 1}" in capsys.readouterr().err

    def test_witness_round_records_must_match_the_header(self, tmp_path, capsys):
        # The facing pair's witness has path 1 and cycle 1: two round
        # records.  Dropping the first leaves round 1 on line 2, dropping the
        # second leaves the header short of a round, and a third record is
        # one round too many.
        target = tmp_path / "witness.jsonl"
        assert cli.main(facing_pair_search(target)) == 0
        header, *records = target.read_text().splitlines(keepends=True)
        assert records == ['{"absent":[0],"t":0}\n', '{"absent":[0],"t":1}\n']
        cases = [
            (records[1:], "witness line 2: expected round 0, got 1"),
            (records[:1], "witness line 1: path_length + cycle_length is 2 rounds but the "
                          "file holds 1 round records"),
            (records + ['{"absent":[0],"t":2}\n'],
             "witness line 4: a round record beyond the header's 2 rounds"),
        ]
        for kept, message in cases:
            target.write_text(header + "".join(kept))
            capsys.readouterr()
            assert cli.main(["simulate", "--adversary", f"witness:{target}", "--rounds", "5"]) == 2
            assert message in capsys.readouterr().err

    def test_witness_header_claims_must_match_the_play(self, tmp_path, capsys):
        # The facing pair's play starves nodes 2 and 3 with edge 0 absent
        # in its one-round cycle, which closes only while edge 0 stays
        # absent.
        target = tmp_path / "witness.jsonl"
        assert cli.main(facing_pair_search(target)) == 0
        text = target.read_text()
        header, *records = text.splitlines(keepends=True)
        assert '"cycle_always_absent":[0]' in header and '"starved_nodes":[2,3]' in header
        cases = [
            (text.replace('"starved_nodes":[2,3]', '"starved_nodes":[0]'),
             "witness line 1: starved_nodes [0] is not what the round records show: [2,3]"),
            (text.replace('"cycle_always_absent":[0]', '"cycle_always_absent":[]'),
             "witness line 1: cycle_always_absent [] is not what the round records show: [0]"),
            (header + records[0] + records[1].replace("[0]", "[]"),
             "witness line 1: cycle_length 1: the configuration after path_length + "
             "cycle_length rounds is not the one after path_length rounds"),
        ]
        for edited, message in cases:
            target.write_text(edited)
            capsys.readouterr()
            assert cli.main(["simulate", "--adversary", f"witness:{target}", "--rounds", "50"]) == 2
            assert message in capsys.readouterr().err
        target.write_text(text)
        capsys.readouterr()
        assert cli.main(["simulate", "--adversary", f"witness:{target}", "--rounds", "50"]) == 1
        assert "Starved" in capsys.readouterr().out

    @pytest.mark.parametrize("keys", list(WITNESS_SCENARIO_FILES))
    def test_witness_replay_rejects_a_scenario_file_that_contradicts_it(
        self, keys, tmp_path, capsys
    ):
        target = tmp_path / "witness.jsonl"
        assert cli.main(facing_pair_search(target)) == 0
        scen = tmp_path / "scenario.txt"
        scen.write_text(f"adversary = witness:{target}\nrounds = 50\n{keys}")
        capsys.readouterr()
        assert cli.main(["simulate", "--scenario", str(scen)]) == 2
        assert WITNESS_SCENARIO_FILES[keys] in capsys.readouterr().err

    def test_witness_replay_accepts_a_scenario_file_that_agrees(self, tmp_path, capsys):
        target = tmp_path / "witness.jsonl"
        assert cli.main(facing_pair_search(target)) == 0
        scen = tmp_path / "scenario.txt"
        scen.write_text(
            f"adversary = witness:{target}\nrounds = 50\nn = 4\nalgo = pef3\n"
            "robots = 0,1\nrobot = id=1 pos=1 dir=L chirality=cw i=1 nrpea=1 hmpea=true\n"
        )
        capsys.readouterr()
        assert cli.main(["simulate", "--scenario", str(scen)]) == 1  # the pair starves node 2
        assert "Starved(node=2, since=25)" in capsys.readouterr().out

    def test_witness_replay_rejects_mutations_from_a_scenario_file(self, tmp_path, capsys):
        target = tmp_path / "witness.jsonl"
        assert cli.main(facing_pair_search(target)) == 0
        scen = tmp_path / "scenario.txt"
        replay = f"adversary = witness:{target}\nrounds = 5\n"
        scen.write_text(replay)
        capsys.readouterr()
        assert cli.main(["simulate", "--scenario", str(scen)]) == 1  # the pair starves node 2
        scen.write_text(replay + "mutations = skip_update\n")
        assert cli.main(["simulate", "--scenario", str(scen)]) == 2
        assert "mutations: a witness replays the unmutated rules" in capsys.readouterr().err

    def test_scenario_file_with_flag_override(self, tmp_path, capsys):
        scen = tmp_path / "scenario.txt"
        scen.write_text(SCENARIO_TEXT)
        out = tmp_path / "t.jsonl"
        code = cli.main(
            ["simulate", "--scenario", str(scen), "--rounds", "100", "--out", str(out)]
        )
        assert code == 0
        trace = read_trace_file(str(out))
        assert trace.rounds == 100  # flag overrides the file's 300
        assert trace.meta["scenario"]["missing_edge"] == 2

    def test_explicit_seed_zero_beats_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RINGSWEEP_SEED", "5")
        assert cli.main(["search", "--n", "5", "--robots", "0,1", "--seed", "0"]) == 0
        assert "NotConfinable   explored states: 27" in capsys.readouterr().out
        scen = tmp_path / "scenario.txt"
        scen.write_text("n = 4\nrobots = 0,1\nseed = 0\nrounds = 20\n")
        out = tmp_path / "t.jsonl"
        assert cli.main(["simulate", "--scenario", str(scen), "--out", str(out)]) in (0, 1)
        assert read_trace_file(str(out)).meta["seed"] == 0

    @pytest.mark.parametrize("value", ["abc", "1.5", "0x10"])
    def test_non_integer_env_seed_exits_2(self, value, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RINGSWEEP_SEED", value)
        out = tmp_path / "t.jsonl"
        argv = ["simulate", "--n", "4", "--robots", "0,1", "--rounds", "5", "--out", str(out)]
        assert cli.main(argv) == 2
        assert f"RINGSWEEP_SEED must be an integer, got {value!r}" in capsys.readouterr().err
        assert not out.exists()
        assert cli.main(["search", "--n", "4", "--robots", "0,1"]) == 2
        assert "RINGSWEEP_SEED" in capsys.readouterr().err

    def test_env_seed_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RINGSWEEP_SEED", "77")
        out = tmp_path / "t.jsonl"
        code = cli.main(
            [
                "simulate", "--n", "4", "--robots", "0,1", "--algo", "pef2",
                "--schedule", "recurrent", "--rounds", "50", "--out", str(out),
            ]
        )
        assert code in (0, 1)  # coverage may or may not hold on a short run
        assert read_trace_file(str(out)).meta["seed"] == 77
