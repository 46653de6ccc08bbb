"""Scenario assembly: one record that fully determines a run.

A scenario fixes the ring, the schedule (or reactive adversary), the
cohort, the horizon and the seed; robot fields left unspecified are drawn
from the seeded fuzzer, because self-stabilization makes every initial
value legal.  Scenario files are plain text, one ``key = value`` per
line; command-line flags override file keys and the effective scenario is
echoed into the trace header so every artifact is self-describing.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from .directions import Chirality, Direction
from .engine import ALGO_PEF2, ALGO_PEF3, MAX_N, Trace, fuzz_initial, run_states
from .ring_model import (
    INF,
    EventualMissingSchedule,
    RecurrentRandomSchedule,
    RemovalSchedule,
    Schedule,
    StaticSchedule,
    forced_missing_edge,
)
from .robot_core import KNOWN_MUTATIONS, RobotState

SCHEDULE_KINDS = ("static", "recurrent", "eventual_missing", "removal_list")


class ScenarioError(ValueError):
    """Validation failure; `fields` names the offending keys."""

    def __init__(self, problems: dict[str, str]):
        self.fields = sorted(problems)
        msg = "; ".join(f"{k}: {v}" for k, v in sorted(problems.items()))
        super().__init__(f"invalid scenario ({msg})")


@dataclass
class RobotSpec:
    """Robot description record; every field but `id` may be left to the fuzzer."""

    id: int
    pos: int | None = None
    dir: str | None = None  # 'L' | 'R'
    chirality: str | None = None  # 'cw' | 'ccw'
    i: int | None = None
    nrpea: int | None = None
    hmpea: bool | None = None

    def overrides(self) -> dict:
        ov: dict = {}
        if self.pos is not None:
            ov["pos"] = self.pos
        if self.dir is not None:
            ov["dir"] = Direction(self.dir)
        if self.chirality is not None:
            ov["chirality"] = Chirality(self.chirality)
        if self.i is not None:
            ov["i"] = self.i
        if self.nrpea is not None:
            ov["nrpea"] = self.nrpea
        if self.hmpea is not None:
            ov["hmpea"] = self.hmpea
        return ov


@dataclass
class Scenario:
    n: int = 0
    # None until a file key or flag names the algorithm; runs read it as pef3.
    algo: str | None = None
    robots: list[RobotSpec] = field(default_factory=list)
    schedule: str = "static"
    seed: int = 0
    p: float = 0.5
    recurrence_bound: int = 8
    missing_edge: int | None = None
    cutoff: int = 0
    removals: list[tuple[int, int, float]] = field(default_factory=list)
    adversary: str | None = None  # 'confinement' | 'witness:<path>'
    stall_cap: int = 100
    rounds: int = 100
    mutations: frozenset[str] = frozenset()

    def validate(self) -> None:
        problems: dict[str, str] = {}
        if not 3 <= self.n <= MAX_N:
            problems["n"] = f"ring size must be in 3..{MAX_N} (edge masks are int64), got {self.n}"
        if self.algo not in (None, ALGO_PEF3, ALGO_PEF2):
            problems["algo"] = f"must be {ALGO_PEF3} or {ALGO_PEF2}, got {self.algo!r}"
        if not self.robots:
            problems["robots"] = "at least one robot id is required"
        ids = [r.id for r in self.robots]
        if len(set(ids)) != len(ids):
            problems["robots"] = f"robot ids must be distinct, got {ids}"
        for spec in self.robots:
            if spec.pos is not None and not 0 <= spec.pos < max(self.n, 1):
                problems[f"robot {spec.id} pos"] = f"{spec.pos} outside 0..{self.n - 1}"
            if spec.dir is not None and spec.dir not in ("L", "R"):
                problems[f"robot {spec.id} dir"] = f"must be L or R, got {spec.dir!r}"
            if spec.chirality is not None and spec.chirality not in ("cw", "ccw"):
                problems[f"robot {spec.id} chirality"] = f"must be cw or ccw, got {spec.chirality!r}"
        if self.schedule not in SCHEDULE_KINDS:
            problems["schedule"] = f"must be one of {SCHEDULE_KINDS}, got {self.schedule!r}"
        if not 0.0 <= self.p <= 1.0:
            problems["p"] = f"presence probability must be in [0,1], got {self.p}"
        if self.recurrence_bound < 1:
            problems["recurrence_bound"] = f"must be >= 1, got {self.recurrence_bound}"
        if self.schedule == "eventual_missing":
            if self.missing_edge is None:
                problems["missing_edge"] = "required for the eventual_missing schedule"
            elif not 0 <= self.missing_edge < max(self.n, 1):
                problems["missing_edge"] = f"{self.missing_edge} outside 0..{self.n - 1}"
            if self.cutoff < 0:
                problems["cutoff"] = f"must be >= 0, got {self.cutoff}"
        for edge, start, end in self.removals:
            if not 0 <= edge < max(self.n, 1):
                problems["removals"] = f"edge {edge} outside 0..{self.n - 1}"
            elif start < 0 or end < start:
                problems["removals"] = f"bad interval [{start},{end}] for edge {edge}"
        if self.rounds < 1:
            problems["rounds"] = f"must be >= 1, got {self.rounds}"
        unknown = set(self.mutations) - KNOWN_MUTATIONS
        if unknown:
            problems["mutations"] = f"unknown flags {sorted(unknown)}"
        if self.stall_cap < 0:
            problems["stall_cap"] = f"must be >= 0, got {self.stall_cap}"
        if self.adversary is not None:
            if self.adversary != "confinement" and not self.adversary.startswith("witness:"):
                problems["adversary"] = (
                    f"must be 'confinement' or 'witness:<path>', got {self.adversary!r}"
                )
            elif self.adversary == "confinement" and self.n < 4:
                problems["adversary"] = "confinement needs a ring of size >= 4"
        if problems:
            raise ScenarioError(problems)

    @property
    def algorithm(self) -> str:
        """The algorithm the scenario runs."""
        return self.algo or ALGO_PEF3

    def describe(self) -> dict:
        d = {
            "n": self.n,
            "algo": self.algorithm,
            "schedule": self.schedule,
            "seed": self.seed,
            "rounds": self.rounds,
        }
        if self.schedule == "recurrent" or self.schedule == "eventual_missing":
            d["p"] = self.p
            d["recurrence_bound"] = self.recurrence_bound
        if self.schedule == "eventual_missing":
            d["missing_edge"] = self.missing_edge
            d["cutoff"] = self.cutoff
        if self.schedule == "removal_list":
            d["removals"] = [
                [e, s, "inf" if x == INF else x] for e, s, x in self.removals
            ]
        if self.adversary:
            d["adversary"] = self.adversary
        if self.mutations:
            d["mutations"] = sorted(self.mutations)
        return d


def build_schedule(sc: Scenario) -> Schedule:
    base: Schedule
    if sc.schedule == "static":
        base = StaticSchedule(sc.n)
    elif sc.schedule == "recurrent":
        base = RecurrentRandomSchedule(sc.n, sc.p, sc.recurrence_bound, sc.seed)
    elif sc.schedule == "eventual_missing":
        inner = RecurrentRandomSchedule(sc.n, sc.p, sc.recurrence_bound, sc.seed)
        base = EventualMissingSchedule(inner, sc.missing_edge, sc.cutoff)
    elif sc.schedule == "removal_list":
        base = RemovalSchedule(StaticSchedule(sc.n), sc.removals)
    else:  # pragma: no cover - validate() rejects earlier
        raise ScenarioError({"schedule": sc.schedule})
    if sc.removals and sc.schedule != "removal_list":
        base = RemovalSchedule(base, sc.removals)
    forced_missing_edge(base)  # rejects rings outside connected-over-time
    return base


def build_robots(sc: Scenario) -> list[RobotState]:
    """Materialize the cohort; unspecified fields come from the seeded fuzzer."""
    rng = random.Random(f"fuzz:{sc.seed}")
    overrides = {spec.id: spec.overrides() for spec in sc.robots}
    return fuzz_initial(sc.n, [spec.id for spec in sc.robots], rng, overrides)


def run_scenario(sc: Scenario, strategy=None) -> Trace:
    """Validate, build and execute; `strategy` overrides the schedule for
    reactive adversaries (the CLI wires that up from sc.adversary)."""
    sc.validate()
    robots = build_robots(sc)
    meta_extra = {"scenario": sc.describe(), "seed": sc.seed}
    if strategy is not None:
        meta_extra["schedule"] = {"kind": "reactive", "adversary": sc.adversary or "custom"}
        return run_states(
            sc.n, sc.algorithm, robots, sc.rounds,
            strategy=strategy, mutations=sc.mutations, meta_extra=meta_extra,
        )
    schedule = build_schedule(sc)
    meta_extra["schedule"] = schedule.describe()
    return run_states(
        sc.n, sc.algorithm, robots, sc.rounds,
        schedule=schedule, mutations=sc.mutations, meta_extra=meta_extra,
    )


def apply_cohort(
    sc: Scenario,
    n: int | None = None,
    algo: str | None = None,
    robots: list[int] | None = None,
    records: Sequence[RobotSpec] = (),
    seed: int | None = None,
) -> Scenario:
    """Apply the cohort keys (`n`, `algo`, `robots`, `robot`, `seed`).

    The command line applies its cohort flags here, and scenario files
    their `robots`/`robot` keys.  None keeps the value already in `sc`.
    `robots` replaces the cohort with bare ids; each record then pins the
    fields of the robot with its id, or adds that robot.  Two records for
    one id are an error, and so (in `validate`) is an id listed twice.
    """
    if n is not None:
        sc.n = n
    if algo is not None:
        sc.algo = algo
    if seed is not None:
        sc.seed = seed
    if robots is not None:
        sc.robots = [RobotSpec(id=i) for i in robots]
    pins: dict[int, RobotSpec] = {}
    for spec in records:
        if pins.setdefault(spec.id, spec) is not spec:
            raise ScenarioError({"robots": f"two robot records for id {spec.id}"})
    sc.robots = [pins.pop(r.id, r) for r in sc.robots] + list(pins.values())
    return sc


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def parse_removals(text: str) -> list[tuple[int, int, float]]:
    """Parse `edge:[start,end];...` with `end` = `inf` allowed."""
    out: list[tuple[int, int, float]] = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        edge_txt, _, interval = part.partition(":")
        interval = interval.strip()
        if not (interval.startswith("[") and interval.endswith("]")):
            raise ValueError(f"bad removal interval {part!r}")
        start_txt, _, end_txt = interval[1:-1].partition(",")
        end_txt = end_txt.strip().lower()
        end = INF if end_txt == "inf" else float(int(end_txt))
        out.append((int(edge_txt), int(start_txt), end))
    return out


def parse_robot_ids(text: str) -> list[int]:
    """Parse a comma-separated id list such as `0,1,2`."""
    return [int(x) for x in text.split(",") if x.strip()]


def parse_robot_record(text: str) -> RobotSpec:
    """Parse `id=0 pos=2 dir=L chirality=cw i=3 nrpea=1 hmpea=true`."""
    kv: dict[str, str] = {}
    for token in text.replace(",", " ").split():
        key, eq, value = token.partition("=")
        if not eq:
            raise ValueError(f"robot record token {token!r} is not key=value")
        kv[key.strip()] = value.strip()
    if "id" not in kv:
        raise ValueError(f"robot record {text!r} lacks an id")
    spec = RobotSpec(id=int(kv.pop("id")))
    converters = {
        "pos": int,
        "dir": str,
        "chirality": str,
        "i": int,
        "nrpea": int,
        "hmpea": _parse_bool,
    }
    for key, value in kv.items():
        if key not in converters:
            raise ValueError(f"unknown robot field {key!r}")
        setattr(spec, key, converters[key](value))
    return spec


def parse_mutations(text: str) -> frozenset[str]:
    """Parse a comma-separated list of fault-injection flags."""
    return frozenset(x.strip() for x in text.split(",") if x.strip())


_SCENARIO_KEYS = {
    "n": int,
    "algo": str,
    "seed": int,
    "schedule": str,
    "p": float,
    "recurrence_bound": int,
    "missing_edge": int,
    "cutoff": int,
    "removals": parse_removals,
    "rounds": int,
    "adversary": str,
    "stall_cap": int,
    "mutations": parse_mutations,
}


def parse_scenario_text(text: str, base: Scenario | None = None) -> Scenario:
    """Parse the plain-text scenario format (one key = value per line).

    A `#` starts a comment that runs to the end of its line.  The keys are
    applied on top of `base` (default: a fresh `Scenario`).
    """
    sc = base if base is not None else Scenario()
    cohort: dict = {"records": []}
    problems: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            problems[f"line {lineno}"] = f"not a key = value line: {raw!r}"
            continue
        key = key.strip()
        value = value.strip()
        try:
            if key in _SCENARIO_KEYS:
                setattr(sc, key, _SCENARIO_KEYS[key](value))
            elif key == "robots":
                cohort.setdefault("robots", []).extend(parse_robot_ids(value))
            elif key == "robot":
                cohort["records"].append(parse_robot_record(value))
            else:
                problems[key] = f"unknown scenario key (line {lineno})"
        except (ValueError, KeyError) as exc:
            problems[key] = str(exc)
    if problems:
        raise ScenarioError(problems)
    return apply_cohort(sc, **cohort)


def parse_scenario_file(path: str, base: Scenario | None = None) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario_text(fh.read(), base)
