"""The sentinel/visitor dance at an eventually missing edge.

When one edge disappears forever, two robots end up stuck at its two
endpoints, pointing at the gap; the third shuttles back and forth between
them.  Each time the visitor reaches a sentinel, the roles swap: the
sentinel was stuck, sees more robots than at its previous edge-activation,
and turns around (becoming the visitor), while the arriving robot keeps
its direction and takes over the post.
"""
import random

from ringsweep import analysis
from ringsweep.engine import fuzz_initial, run_states
from ringsweep.ring_model import EventualMissingSchedule, RecurrentRandomSchedule

n, missing, seed = 6, 2, 7
schedule = EventualMissingSchedule(RecurrentRandomSchedule(n, 0.5, 8, seed), missing, cutoff=0)
robots = fuzz_initial(n, [0, 1, 2], random.Random(seed))

trace = run_states(
    n, "pef3", robots, rounds=4000,
    schedule=schedule, meta_extra={"schedule": schedule.describe()},
)

report = analysis.sentinel_visitor_report(trace)
a, b = missing, (missing + 1) % n
print(f"edge {missing} (between nodes {a} and {b}) is absent from round 0")
print(f"sentinels permanently posted on both endpoints from round {report.established_round}")
print(f"visitor meetings observed: {len(report.meetings)}")
print(f"first meetings (round, endpoint): {report.meetings[:6]}")
print(f"shuttle periods between meetings: {report.periods[:10]} ...")

coverage = analysis.coverage(trace, suffix_start=1000)
print(f"\ncoverage over the suffix: {coverage.verdict()}")
towers = analysis.detect_towers(trace)
print(f"lemma monitors: {len(analysis.monitor_lemmas(trace, towers))} violations")
print(f"towers formed along the way: {towers.census()}")
