"""EMU circulation planning toolkit.

Builds the train connection network of a daily timetable, searches for a
minimum-waiting circulation plan with a discrete particle swarm plus a
randomized constructive repair, validates plans against the full constraint
set, and cross-checks against exact enumeration on small instances.
"""

from .connection import ConnectionMatrices, build_matrices
from .constructor import (
    InfeasibleError,
    construct,
    construct_with_stats,
)
from .diagram import render_dot
from .oracle import GapReport, InstanceTooLargeError, OracleResult, brute_force, compare
from .plan import (
    CirculationPlan,
    InvalidPlanError,
    PlanFormatError,
    Rotation,
    ValidationReport,
    Violation,
    decode_rotations,
    fitness_value,
    objective_value,
    parse_plan,
    plan_summary,
    render_plan,
    validate,
)
from .pso import (
    DEFAULT_SEED,
    SolveResult,
    SwarmConfig,
    TracePoint,
    decode,
    inertia_weight,
    solve,
    update_position,
    update_velocity,
)
from .timetable import (
    ModelParams,
    TimetableError,
    TimetableInstance,
    TimetableWarning,
    Train,
    generate_instance,
    parse_timetable,
    render_timetable,
)

__all__ = [
    "CirculationPlan",
    "ConnectionMatrices",
    "DEFAULT_SEED",
    "GapReport",
    "InfeasibleError",
    "InstanceTooLargeError",
    "InvalidPlanError",
    "ModelParams",
    "OracleResult",
    "PlanFormatError",
    "Rotation",
    "SolveResult",
    "SwarmConfig",
    "TimetableError",
    "TimetableInstance",
    "TimetableWarning",
    "TracePoint",
    "Train",
    "ValidationReport",
    "Violation",
    "brute_force",
    "build_matrices",
    "compare",
    "construct",
    "construct_with_stats",
    "decode",
    "decode_rotations",
    "fitness_value",
    "generate_instance",
    "inertia_weight",
    "objective_value",
    "parse_plan",
    "parse_timetable",
    "plan_summary",
    "render_dot",
    "render_plan",
    "render_timetable",
    "solve",
    "update_position",
    "update_velocity",
    "validate",
]

__version__ = "0.1.0"
