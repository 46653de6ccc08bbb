"""Dynamic-ring schedules: static, edge-recurrent, connected-over-time.

A schedule maps each round to the set of present edges.  The classifier
scans a finite prefix and reports witnesses: edges present every round,
edges never absent for B consecutive rounds, and edges absent through a
long suffix (eventual-missing candidates).  The removal operator carves
arbitrary (edge, interval) holes out of any schedule.
"""
from ringsweep.ring_model import (
    INF,
    RecurrentRandomSchedule,
    RemovalSchedule,
    StaticSchedule,
    classify_prefix,
)


def edges_at(schedule, t):
    """The edges present in round t, in increasing order."""
    mask = schedule.masks(t + 1)[t]
    return [e for e in range(schedule.n) if mask >> e & 1]


n, horizon, bound = 5, 400, 8

ring = StaticSchedule(n)
print(f"static ring: edges at round 17 = {edges_at(ring, 17)}")
print(f"classified as: {classify_prefix(ring, horizon, bound).verdict}")

recurrent = RecurrentRandomSchedule(n, 0.5, bound, seed=11)
report = classify_prefix(recurrent, horizon, bound)
print(f"\nseeded recurrent ring (p=0.5, B={bound}): {report.verdict}")
print(f"  recurrence witnessed for edges {sorted(report.recurrent_edges)}")
print("  first rounds:", [edges_at(recurrent, t) for t in range(4)])

cut = RemovalSchedule(ring, [(2, 10, INF)])
report = classify_prefix(cut, horizon, bound)
print(f"\nstatic ring minus edge 2 from round 10: {report.verdict}")
print(f"  eventual-missing candidates (edge -> cutoff): {report.missing_candidates}")
print(f"  edges at round 9:  {edges_at(cut, 9)}")
print(f"  edges at round 10: {edges_at(cut, 10)}")

two_cut = RemovalSchedule(ring, [(0, 5, INF), (2, 5, INF)])
report = classify_prefix(two_cut, horizon, bound)
print(f"\ntwo permanent holes: verdict {report.verdict} "
      f"(two eventually missing edges break connected-over-time on a ring)")

windowed = RemovalSchedule(ring, [(1, 3, 6)])
print(f"\nfinite removal of edge 1 over rounds 3..6:")
for t in range(2, 8):
    print(f"  round {t}: {edges_at(windowed, t)}")
