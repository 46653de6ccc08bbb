"""Deterministic simulation and verification toolkit for perpetual
exploration of highly dynamic (connected-over-time) rings by synchronous
self-stabilizing robots."""

from .directions import Chirality, Direction, GlobalDirection, to_global, to_local
from .ring_model import EdgeClass, classify_prefix
from .robot_core import LookSnapshot, RobotState
from .engine import (
    Configuration,
    Trace,
    fuzz_initial,
    read_trace_file,
    run_states,
    step,
    write_trace_file,
)
from .analysis import (
    CoverageReport,
    Tower,
    TowerTable,
    coherence_round,
    coverage,
    detect_towers,
    monitor_lemmas,
    sentinel_visitor_report,
)
from .adversary import ConfinementAdversary, game_search, replay_witness
from .scenario import Scenario, parse_scenario_file, run_scenario

__all__ = [
    "Chirality",
    "Configuration",
    "ConfinementAdversary",
    "CoverageReport",
    "Direction",
    "EdgeClass",
    "GlobalDirection",
    "LookSnapshot",
    "RobotState",
    "Scenario",
    "Tower",
    "TowerTable",
    "Trace",
    "classify_prefix",
    "coherence_round",
    "coverage",
    "detect_towers",
    "fuzz_initial",
    "game_search",
    "monitor_lemmas",
    "parse_scenario_file",
    "read_trace_file",
    "replay_witness",
    "run_scenario",
    "run_states",
    "sentinel_visitor_report",
    "step",
    "to_global",
    "to_local",
    "write_trace_file",
]
