"""Circulation plans as a single closed loop over all trains.

A plan is an ordering of every train into one cycle plus a maintenance flag
per cycle arc. Cutting the cycle at maintenance arcs yields the rotations
(one EMU's work between two depot visits). The last position always carries
a maintenance flag, so the loop closes through the depot and position 1
starts a fresh rotation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

from .connection import ConnectionMatrices
from .timetable import TimetableInstance


class InvalidPlanError(ValueError):
    """Operation that requires a constraint-satisfying plan got a broken one."""


class PlanFormatError(ValueError):
    """Malformed plan file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class CirculationPlan:
    """order[d] is the train at cycle position d+1; maint_after[d] flags the
    arc leaving that position as a maintenance arc (the arc from the last
    position wraps back to the first).

    The class itself accepts any content; validate() reports what is wrong
    with a structurally broken plan instead of refusing to build it.
    """

    order: tuple[int, ...]
    maint_after: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.order)

    @property
    def n_rotations(self) -> int:
        return sum(self.maint_after)


def _walk(order, maint_after, matrices: ConnectionMatrices):
    """Running totals along the loop, the one place they are computed.

    Yields (index, train id, wait before it, km, min) per position, where km
    and min are the mileage and time racked up since the last maintenance.
    Position 1 and every position after a maintenance arc start at the
    train's own totals with a wait of 0; an ordinary arc adds its waiting
    minutes and the train's travel time. The wait is None on an arc that
    cannot connect, and the totals then carry on as if it were 0.
    """
    conn_rows = matrices.conn_rows
    mileage, travel = matrices.tables.mileage, matrices.tables.travel
    km = mins = prev = 0
    fresh = True  # position 1, or the arc into this position is a maintenance arc
    for d, tid in enumerate(order):
        if fresh:
            wait = 0
            km, mins = mileage[tid], travel[tid]
        else:
            wait = conn_rows[prev - 1][tid - 1]
            km += mileage[tid]
            mins += (wait or 0) + travel[tid]
        yield d, tid, wait, km, mins
        prev, fresh = tid, maint_after[d]


class Rotation(NamedTuple):
    """One EMU circulation: the trains served between two maintenances.

    A named tuple, built once per rotation of every scored plan: it reads and
    prints like a frozen record, and also compares equal to a plain tuple of
    the same values.
    """

    trains: tuple[int, ...]
    total_mileage: float
    total_time: int
    connection_time: int  # minutes waited between its trains


def decode_rotations(
    plan: CirculationPlan, instance: TimetableInstance, matrices: ConnectionMatrices
) -> list[Rotation]:
    """Cut the cycle at maintenance arcs and total up each piece.

    Requires the plan to be structurally sound (integer ids forming a
    permutation, 0/1 flags with the closing one set, all internal arcs
    connectable); raises InvalidPlanError otherwise. Concatenating the
    result reproduces `order`.
    """
    order, flags = plan.order, plan.maint_after
    if not flags or flags[-1] != 1:
        raise InvalidPlanError("cycle does not close with a maintenance arc")
    if len(order) != len(flags):
        raise InvalidPlanError("order and maint_after lengths differ")
    if not set(flags) <= {0, 1}:
        raise InvalidPlanError(f"maintenance flags must be 0 or 1, got {set(flags) - {0, 1}}")
    for kind in set(map(type, order)):
        if kind is bool or not issubclass(kind, Integral):
            raise InvalidPlanError(f"train ids must be integers, got a {kind.__name__}")
    n = instance.n
    for tid in order:
        if not 1 <= tid <= n:
            raise InvalidPlanError(f"train id {tid!r} outside 1..{n}")
    if len(order) != n or len(set(order)) != n:
        raise InvalidPlanError(f"order does not run each of the {n} trains exactly once")

    rotations: list[Rotation] = []
    start = waited = 0
    for d, tid, wait, km, mins in _walk(order, flags, matrices):
        if wait is None:
            raise InvalidPlanError(
                f"trains {order[d - 1]} and {tid} cannot connect (position {d + 1})"
            )
        waited += wait
        if flags[d]:
            rotations.append(Rotation(tuple(order[start : d + 1]), km, mins, waited))
            start, waited = d + 1, 0
    return rotations


@dataclass(frozen=True)
class Violation:
    tag: str
    message: str
    position: int | None = None

    def __str__(self) -> str:
        return f"{self.tag} {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def tags(self) -> set[str]:
        return {v.tag for v in self.violations}


def _train_id(t, n: int) -> int | None:
    """t as a plain int when it is an integral id in 1..n (any integer type
    with __index__, bools excluded), else None."""
    if isinstance(t, bool):
        return None
    try:
        i = operator.index(t)
    except TypeError:
        return None
    return i if 1 <= i <= n else None


def validate(
    plan: CirculationPlan, instance: TimetableInstance, matrices: ConnectionMatrices
) -> ValidationReport:
    """Check every constraint family; collect all violations, never raise.

    Families: SHAPE (vector shape/domain, closing flag), EQ8/EQ9 (each train
    used exactly once), CONN (ordinary arcs connectable), EQ10 (maintenance
    only at eligible arcs), EQ11 / EQ12 (mileage / time since maintenance
    within the allowance at every position). The single-loop rule needs no
    check of its own: the plan is a cyclic order, so once EQ8/EQ9 holds its
    successor graph is one n-cycle. Accumulation past a CONN violation treats
    the unknown waiting time as zero so later positions still get checked.
    """
    v: list[Violation] = []
    n = instance.n

    if len(plan.order) != n:
        v.append(Violation("SHAPE", f"plan covers {len(plan.order)} positions, instance has {n} trains"))
    if len(plan.maint_after) != len(plan.order):
        v.append(Violation("SHAPE", "order and maint_after lengths differ"))
        return ValidationReport(tuple(v))
    for d, flag in enumerate(plan.maint_after):
        if flag not in (0, 1):
            v.append(Violation("SHAPE", f"maintenance flag {flag!r} is not 0/1", d + 1))
    ids = [_train_id(t, n) for t in plan.order]
    bad_ids = [t for t, i in zip(plan.order, ids) if i is None]
    if bad_ids:
        v.append(Violation("SHAPE", f"train ids outside 1..{n}: {sorted(set(bad_ids))}"))
    if plan.maint_after and plan.maint_after[-1] != 1:
        v.append(Violation("SHAPE", "last position must be followed by a maintenance arc"))

    known = [i for i in ids if i is not None]
    counts: dict[int, int] = {}
    for t in known:
        counts[t] = counts.get(t, 0) + 1
    dups = sorted(t for t, c in counts.items() if c > 1)
    missing = sorted(set(range(1, n + 1)) - set(counts))
    if dups:
        v.append(Violation("EQ8/EQ9", f"trains used more than once: {dups}"))
    if missing and len(plan.order) == n:
        v.append(Violation("EQ8/EQ9", f"trains never used: {missing}"))

    if len(plan.order) != n or bad_ids:
        return ValidationReport(tuple(v))

    max_l, max_t = instance.params.max_mileage, instance.params.max_time
    for d, tid, wait, km, mins in _walk(ids, plan.maint_after, matrices):
        if wait is None:
            v.append(Violation("CONN", f"trains {ids[d - 1]} and {tid} cannot connect", d + 1))
        if km > max_l:
            v.append(Violation("EQ11", f"{km:.1f} km since maintenance exceeds {max_l:.1f}", d + 1))
        if mins > max_t:
            v.append(Violation("EQ12", f"{mins} min since maintenance exceeds {max_t:.0f}", d + 1))
        if plan.maint_after[d]:
            nxt = ids[(d + 1) % n]
            if not matrices.tables.arr_at_depot[tid] or matrices.conn_rows[tid - 1][nxt - 1] is None:
                v.append(
                    Violation("EQ10", f"maintenance between {tid} and {nxt} is not at the depot", d + 1)
                )
    return ValidationReport(tuple(v))


def objective_value(
    plan: CirculationPlan, instance: TimetableInstance, matrices: ConnectionMatrices
) -> float:
    """Weighted sum of total waiting time and per-rotation mileage slack.

    The slack term rewards rotations that run close to the mileage allowance.
    Only defined for fully valid plans; raises InvalidPlanError otherwise.
    Shares its arithmetic with fitness_value, so the two agree bit for bit on
    any valid plan (where the penalty branch is unreachable).
    """
    report = validate(plan, instance, matrices)
    if not report.ok:
        raise InvalidPlanError(
            f"plan violates {len(report.violations)} constraint(s): {sorted(report.tags())}"
        )
    return fitness_from_parts(decode_rotations(plan, instance, matrices), instance.params)


def fitness_from_totals(waited, rotation_km, params) -> tuple[float, bool]:
    """Penalized score (see fitness_value) from the minutes waited on ordinary
    arcs and each rotation's mileage in cycle order; also whether every
    rotation lies within the mileage allowance.

    The one place the fitness arithmetic is written: the waiting term first,
    then each rotation's slack or penalty in order, so any caller holding the
    same totals gets the same float.
    """
    max_l, omega2 = params.max_mileage, params.omega2
    total = float(params.omega1 * waited)
    feasible = True
    for km in rotation_km:
        if km > max_l:
            total += omega2 * params.beta * (km - max_l)
            feasible = False
        else:
            total += omega2 * (max_l - km)
    return total, feasible


def fitness_from_parts(rotations, params) -> float:
    """Penalized score of decoded rotations (see fitness_value)."""
    waited = sum(r.connection_time for r in rotations)
    return fitness_from_totals(waited, [r.total_mileage for r in rotations], params)[0]


def fitness_value(
    plan: CirculationPlan, instance: TimetableInstance, matrices: ConnectionMatrices
) -> float:
    """Objective with the mileage bound relaxed into a penalty.

    Rotations within the allowance contribute their slack; rotations over it
    contribute beta times the overrun instead. Equals objective_value exactly
    whenever every rotation respects the allowance. Requires structural
    soundness only (the mileage bound may be broken).
    """
    return fitness_from_parts(decode_rotations(plan, instance, matrices), instance.params)


@dataclass(frozen=True)
class PlanSummary:
    n_rotations: int
    total_connection_time: int
    min_rotation_mileage: float
    max_rotation_mileage: float
    min_rotation_time: int
    max_rotation_time: int
    fitness: float
    objective: float | None  # None when the plan fails validation


def plan_summary(
    plan: CirculationPlan, instance: TimetableInstance, matrices: ConnectionMatrices
) -> PlanSummary:
    rotations = decode_rotations(plan, instance, matrices)
    fitness = fitness_from_parts(rotations, instance.params)
    return PlanSummary(
        n_rotations=len(rotations),
        total_connection_time=sum(r.connection_time for r in rotations),
        min_rotation_mileage=min(r.total_mileage for r in rotations),
        max_rotation_mileage=max(r.total_mileage for r in rotations),
        min_rotation_time=min(r.total_time for r in rotations),
        max_rotation_time=max(r.total_time for r in rotations),
        fitness=fitness,
        # on a valid plan the fitness is the objective (objective_value)
        objective=fitness if validate(plan, instance, matrices).ok else None,
    )


def render_plan(
    plan: CirculationPlan, instance: TimetableInstance, matrices: ConnectionMatrices
) -> str:
    """Plan file form: one line per position with running totals, then the
    rotation breakdown. Deterministic formatting (km to 0.1, minutes whole).
    """
    rotations = decode_rotations(plan, instance, matrices)
    lines = ["cycle"]
    for d, tid, _, km, mins in _walk(plan.order, plan.maint_after, matrices):
        lines.append(
            f"pos {d + 1} train {tid} maint {plan.maint_after[d]} "
            f"accum_km {km:.1f} accum_min {mins}"
        )
    lines.append(f"rotations {len(rotations)}")
    for r, rot in enumerate(rotations, start=1):
        ids = ",".join(str(t) for t in rot.trains)
        lines.append(f"rotation {r}: {ids} km {rot.total_mileage:.1f} min {rot.total_time}")
    return "\n".join(lines) + "\n"


def parse_plan(text: str) -> CirculationPlan:
    """Read a plan file back; only order and maintenance flags are taken,
    running totals and the rotation section are derived output.
    """
    entries: dict[int, tuple[int, int]] = {}
    saw_cycle = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "cycle":
            saw_cycle = True
            continue
        if tokens[0] in ("rotations", "rotation"):
            continue
        if tokens[0] != "pos":
            raise PlanFormatError(f"unknown directive {tokens[0]!r}", lineno)
        if len(tokens) < 6 or tokens[2] != "train" or tokens[4] != "maint":
            raise PlanFormatError("expected: pos <d> train <id> maint <0|1> ...", lineno)
        try:
            d, tid, flag = int(tokens[1]), int(tokens[3]), int(tokens[5])
        except ValueError:
            raise PlanFormatError("position, train id and flag must be integers", lineno) from None
        if flag not in (0, 1):
            raise PlanFormatError(f"maintenance flag must be 0 or 1, got {flag}", lineno)
        if d in entries:
            raise PlanFormatError(f"duplicate position {d}", lineno)
        entries[d] = (tid, flag)

    if not saw_cycle:
        raise PlanFormatError("missing 'cycle' header")
    if not entries:
        raise PlanFormatError("no positions")
    if sorted(entries) != list(range(1, len(entries) + 1)):
        raise PlanFormatError(f"positions must form 1..{len(entries)}")
    order = tuple(entries[d][0] for d in sorted(entries))
    maint = tuple(entries[d][1] for d in sorted(entries))
    return CirculationPlan(order=order, maint_after=maint)
