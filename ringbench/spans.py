"""In-memory spans around calls into the ringsweep layers.

The traced run replaces the public functions of each layer module with
wrappers that open a span, call the original and close the span.  The
program's files are not touched: the wrappers live here and are installed
in the benchmark process only.  Spans are kept in memory and written out
when the run ends; self time is a span's duration minus the time its
children cover.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time


class Recorder:
    """Spans as [name, start, end, parent index, job id, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job: int | None = None

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job, {}])
        self._stack.append(index)
        return index

    def close(self, index: int, **attrs) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5].update(attrs)
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[0]} closed out of order")

    @contextlib.contextmanager
    def region(self, name: str, **attrs):
        """A span opened by the benchmark itself around a group of calls."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index, **attrs)

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def has_ancestor_named(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: str, origin: float) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, job, attrs) in enumerate(self.spans):
                rec = {
                    "id": i,
                    "name": name,
                    "start_s": start - origin,
                    "end_s": end - origin,
                    "self_s": own[i],
                    "parent": parent,
                    "job": job,
                }
                rec.update(attrs)
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _wrap(rec: Recorder, name: str, fn, attrs):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        rec.spans[index][5].update(attrs(args, kwargs, result))
        return result

    return wrapper


def _replace_everywhere(original, wrapper) -> None:
    """Point every ringsweep module attribute bound to `original` at `wrapper`,
    so calls made through names imported with `from .x import f` are
    traced too."""
    for modname, module in list(sys.modules.items()):
        if modname != "ringsweep" and not modname.startswith("ringsweep."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _rounds_of_result(args, kwargs, result) -> dict:
    return {"rounds": int(result.rounds)}


def _rounds_of_trace_arg(args, kwargs, result) -> dict:
    trace = args[0] if args else kwargs["trace"]
    return {"rounds": int(trace.rounds)}


def _towers(args, kwargs, result) -> dict:
    return {"rounds": int(args[0].rounds), "towers": len(result)}


def _states(args, kwargs, result) -> dict:
    return {"states": int(result.explored)}


def _masks(args, kwargs, result) -> dict:
    return {"rounds": len(result)}


def _nothing(args, kwargs, result) -> dict:
    return {}


def _traced_write_trace(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(trace, out):
        index = rec.open("engine.write_trace")
        try:
            start = out.tell()
            fn(trace, out)
            written = out.tell() - start
        finally:
            rec.close(index)
        rec.spans[index][5].update(rounds=int(trace.rounds), bytes=int(written))

    return wrapper


def instrument(rec: Recorder) -> None:
    """Install span wrappers on the public functions of every layer."""
    from ringsweep import adversary, analysis, cli, engine, ring_model, scenario

    targets = [
        (engine.run_states, "engine.run_states", _rounds_of_result),
        (engine.read_trace, "engine.read_trace", _rounds_of_result),
        (analysis.detect_towers, "analysis.detect_towers", _towers),
        (analysis.monitor_lemmas, "analysis.monitor_lemmas", _rounds_of_trace_arg),
        (analysis.coverage, "analysis.coverage", _rounds_of_trace_arg),
        (analysis.sentinel_visitor_report, "analysis.sentinel_visitor_report",
         _rounds_of_trace_arg),
        (adversary.game_search, "adversary.game_search", _states),
        (adversary.replay_witness, "adversary.replay_witness", _rounds_of_result),
        (scenario.run_scenario, "scenario.run_scenario", _nothing),
        (cli.main, "cli.main", _nothing),
    ]
    for fn, name, attrs in targets:
        _replace_everywhere(fn, _wrap(rec, name, fn, attrs))
    _replace_everywhere(engine.write_trace, _traced_write_trace(rec, engine.write_trace))

    pending = [ring_model.Schedule]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "masks" in vars(cls):
            cls.masks = _wrap(rec, "ring_model.masks", vars(cls)["masks"], _masks)


def per_layer(rec: Recorder, timed_s: float, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans.

    Rounds and counts of a layer sum over its outermost spans, so a
    schedule that wraps another is counted once; time is self time,
    except for the witness-replay and confinement spans, whose rounds run
    through `engine.run_states` and are timed inclusively.
    """
    own = rec.self_times()
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    totals: dict[tuple[str, str], int] = {}
    for i, (name, start, end, _parent, _job, attrs) in enumerate(rec.spans):
        self_s[name] = self_s.get(name, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1
        if rec.has_ancestor_named(i, name):
            continue
        incl_s[name] = incl_s.get(name, 0.0) + (end - start)
        for key, value in attrs.items():
            if not isinstance(value, str):
                totals[(name, key)] = totals.get((name, key), 0) + value

    def count(name: str, key: str) -> int:
        return totals.get((name, key), 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def us_per_round(name: str, inclusive: bool = False) -> float:
        spent = (incl_s if inclusive else self_s).get(name, 0.0)
        return ratio(spent * 1e6, count(name, "rounds"))

    def self_ms_per_call(name: str) -> float:
        return ratio(self_s.get(name, 0.0) * 1e3, calls.get(name, 0))

    return {
        "engine.run_states.us_per_round": (us_per_round("engine.run_states"), "us"),
        "engine.run_states.rounds": (count("engine.run_states", "rounds"), "count"),
        "ring_model.masks.us_per_round": (us_per_round("ring_model.masks"), "us"),
        "engine.write_trace.us_per_round": (us_per_round("engine.write_trace"), "us"),
        "engine.write_trace.bytes_per_round": (
            ratio(count("engine.write_trace", "bytes"), count("engine.write_trace", "rounds")),
            "B",
        ),
        "engine.read_trace.us_per_round": (us_per_round("engine.read_trace"), "us"),
        "analysis.detect_towers.us_per_round": (us_per_round("analysis.detect_towers"), "us"),
        "analysis.detect_towers.towers": (count("analysis.detect_towers", "towers"), "count"),
        "analysis.monitor_lemmas.us_per_round": (us_per_round("analysis.monitor_lemmas"), "us"),
        "analysis.coverage.us_per_round": (us_per_round("analysis.coverage"), "us"),
        "analysis.sentinel_visitor_report.us_per_round": (
            us_per_round("analysis.sentinel_visitor_report"),
            "us",
        ),
        "adversary.game_search.states_per_s": (
            ratio(count("adversary.game_search", "states"),
                  self_s.get("adversary.game_search", 0.0)),
            "states/s",
        ),
        "adversary.game_search.states": (count("adversary.game_search", "states"), "count"),
        "adversary.replay_witness.us_per_round": (
            us_per_round("adversary.replay_witness", inclusive=True),
            "us",
        ),
        "adversary.confinement.us_per_round": (
            us_per_round("adversary.confinement", inclusive=True),
            "us",
        ),
        "scenario.run_scenario.self_ms_per_call": (self_ms_per_call("scenario.run_scenario"), "ms"),
        "cli.main.self_ms_per_call": (self_ms_per_call("cli.main"), "ms"),
        "bench.unattributed_s": (self_s.get("bench.job", 0.0), "s"),
        "bench.traced_rounds_per_s": (ratio(rounds, timed_s), "rounds/s"),
    }
