"""Why two robots are not enough: confinement adversaries in action.

Two demonstrations.  First, the window adversary of the impossibility
argument: it watches two robots inside three consecutive nodes {v, w, x}
and removes exactly the boundary edge(s) a robot is about to leave by,
re-deciding whenever someone moves.  Second, the game search makes the
construction exhaustive: it explores every reactive removal policy (at
most one absent edge per round, so the play stays connected-over-time)
and either produces a replayable confining play or proves none exists.
"""
import random

from ringsweep import adversary as adv
from ringsweep import analysis
from ringsweep.directions import Chirality, Direction
from ringsweep.engine import fuzz_initial, run_states
from ringsweep.robot_core import RobotState

CW = Chirality.RIGHT_IS_CLOCKWISE
R, L = Direction.RIGHT, Direction.LEFT

print("--- window adversary, two robots starting on v=1 and w=2 (n=4) ---")
strategy = adv.ConfinementAdversary(4, stall_cap=100)
robots = [RobotState.make(0, 1, R, CW), RobotState.make(1, 2, R, CW)]
trace = run_states(4, "pef3", robots, 2000, strategy=strategy)
visited = sorted(set(int(p) for p in trace.config_positions().flat))
print(f"episode status: {strategy.status}")
print(f"nodes ever visited: {visited} (node 0 never)")
print(f"coverage: {analysis.coverage(trace, 100).verdict()}")

print("\n--- game search, two robots facing their shared edge ---")
pair = [
    RobotState.make(0, 0, R, CW, i=1, nrpea=1, hmpea=True),
    RobotState.make(1, 1, L, CW, i=1, nrpea=1, hmpea=True),
]
result = adv.game_search(4, pair, "pef3")
w = result.witness
print(f"verdict: {result.verdict} after exploring {result.explored} states")
print(f"witness: path {w.path_length} -> cycle {w.cycle_length}, "
      f"permanently absent edges {list(w.cycle_always_absent)} (connected-over-time)")
replay = adv.replay_witness(w, 10_000)
seen = set(int(p) for p in replay.config_positions().flat)
print(f"replaying 10,000 rounds: nodes never visited = {sorted(set(range(4)) - seen)}")

print("\n--- game search, three robots: the adversary always loses ---")
trio = fuzz_initial(4, [0, 1, 2], random.Random(1))
result3 = adv.game_search(4, trio, "pef3")
print(f"verdict: {result3.verdict} after exploring {result3.explored} states")

print("\n--- one robot on a ring of three (two-robot rule) ---")
solo = [RobotState.make(0, 0, R, CW, i=1, nrpea=1, hmpea=True)]
result1 = adv.game_search(3, solo, "pef2")
w1 = result1.witness
print(f"verdict: {result1.verdict}; starved nodes {list(w1.starved_nodes)}; "
      f"permanently absent edges {list(w1.cycle_always_absent)} "
      f"(the removals alternate, the schedule is even edge-recurrent)")
