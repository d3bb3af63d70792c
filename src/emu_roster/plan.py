"""Circulation plans as a single closed loop over all trains.

A plan is an ordering of every train into one cycle plus a maintenance flag
per cycle arc. Cutting the cycle at maintenance arcs yields the rotations
(one EMU's work between two depot visits). The last position always carries
a maintenance flag, so the loop closes through the depot and position 1
starts a fresh rotation.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass, field
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


class Rotation(NamedTuple):
    """One EMU circulation: the trains served between two maintenances.

    A named tuple, built only by decode_rotations (the swarm scores plans from
    totals and builds none): it reads and prints like a frozen record, and
    also compares equal to a plain tuple of the same values.
    """

    trains: tuple[int, ...]
    total_mileage: float
    total_time: int
    connection_time: int  # minutes waited between its trains


class Walk(NamedTuple):
    """What validate's walk records, per position (0-based) and per rotation."""

    ids: tuple[int, ...]  # the train at each position, as a plain int
    km: tuple[float, ...]  # mileage since the last maintenance, at each position
    mins: tuple[int, ...]  # minutes since the last maintenance, at each position
    ends: tuple[int, ...]  # each rotation's last position
    waited: tuple[int, ...]  # minutes waited inside each rotation

    def spans(self):
        """Each rotation's first and last position."""
        return zip((0, *(end + 1 for end in self.ends)), self.ends)

    def rotations(self) -> list[Rotation]:
        """The cycle cut after each rotation's last position."""
        return [Rotation(self.ids[first : last + 1], self.km[last], self.mins[last], waited)
                for (first, last), waited in zip(self.spans(), self.waited)]


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
    walk: Walk | None = field(default=None, repr=False, compare=False)  # None: not walked

    @property
    def ok(self) -> bool:
        return not self.violations

    def tags(self) -> set[str]:
        return {v.tag for v in self.violations}


def _integer(x) -> int | None:
    """x as a plain int if its type is an integer one (with __index__) but bool, else None."""
    try:
        return None if isinstance(x, bool) else operator.index(x)
    except TypeError:
        return None


def _structure(plan: CirculationPlan, n: int):
    """The one place the structural rule is written: a plan runs each of the
    n trains exactly once (EQ8/EQ9) in one closed cycle, with integer ids in
    1..n, integer 0/1 flags (see _integer) and the closing flag set (SHAPE).

    Returns (findings, ids): the SHAPE and EQ8/EQ9 violations in report
    order, and the ids as plain ints, or None when the plan has no walk (its
    length is not n, its lengths differ, a flag is not 0/1 or an id lies
    outside 1..n).
    """
    order, flags = plan.order, plan.maint_after
    v: list[Violation] = []
    if len(order) != n:
        v.append(Violation("SHAPE", f"plan covers {len(order)} positions, instance has {n} trains"))
    if len(flags) != len(order):
        v.append(Violation("SHAPE", "order and maint_after lengths differ"))
        return v, None
    # plain int flags are counted, hashing none; True and 1.0 equal 1 but are no flag
    flags_ok = (set(map(type, flags)) <= {int}
                and operator.countOf(flags, 0) + operator.countOf(flags, 1) == len(flags))
    if not flags_ok:
        bad_flags = [d for d, flag in enumerate(flags) if _integer(flag) not in (0, 1)]
        v += [Violation("SHAPE", f"maintenance flag {flags[d]!r} is not 0/1", d + 1)
              for d in bad_flags]
        flags_ok = not bad_flags
    bad, dups, missing = [], [], []
    if (set(map(type, order)) == {int} and 1 <= min(order) and max(order) <= n
            and len(set(order)) == len(order)):
        ids = order  # plain ids in 1..n with no repeat: nothing for SHAPE or EQ8/EQ9 to find
    else:
        ids, counts = [], {}
        for t in order:
            i = _integer(t)
            if i is not None and 1 <= i <= n:
                ids.append(i)
                counts[i] = counts.get(i, 0) + 1
            else:
                bad.append(t)
        dups = sorted(t for t, c in counts.items() if c > 1)
        missing = sorted(set(range(1, n + 1)) - counts.keys())
    if bad:
        try:
            bad = sorted(set(bad))
        except TypeError:  # unhashable or unordered ids are listed in plan order
            pass
        v.append(Violation("SHAPE", f"train ids outside 1..{n}: {bad}"))
    if flags and flags[-1] != 1:
        v.append(Violation("SHAPE", "last position must be followed by a maintenance arc"))
    if dups:
        v.append(Violation("EQ8/EQ9", f"trains used more than once: {dups}"))
    if missing and len(order) == n:
        v.append(Violation("EQ8/EQ9", f"trains never used: {missing}"))
    return v, (ids if len(order) == n and flags_ok and not bad else None)


# validate's memo: (plan, instance, matrices) weak references and their report
_last: tuple | None = None


def validate(
    plan: CirculationPlan, instance: TimetableInstance, matrices: ConnectionMatrices
) -> ValidationReport:
    """Check every constraint family; collect all violations, never raise.

    Families: SHAPE (vector shape/domain, closing flag), EQ8/EQ9 (each train
    used exactly once), CONN (ordinary arcs connectable), EQ10 (maintenance
    only at eligible arcs), EQ11 / EQ12 (mileage / time since maintenance
    within the allowance at every position). The single-loop rule needs no
    check of its own: the plan is a cyclic order, so once EQ8/EQ9 holds its
    successor graph is one n-cycle.

    The one walk over a plan's positions; the report carries its record (see
    Walk) for the readers that format it. An arc that cannot connect counts
    as 0 minutes waited, so later positions still get checked.

    A repeat call on the same three objects (by identity) returns the last
    report without walking, so readers that follow a validate of one plan
    walk it once. The one-entry memo holds weak references, keeping no plan,
    instance or network alive, and is replaced by one assignment. It stores
    only a walked report (every id and flag an integer) of a CirculationPlan
    whose order and maint_after are tuples, with a TimetableInstance and
    ConnectionMatrices themselves; any other call walks every time. It relies on the matrices being read-only by contract (see
    ConnectionMatrices): a network edited in place would go unnoticed.
    """
    global _last
    last = _last
    if last is not None and last[0]() is plan and last[1]() is instance and last[2]() is matrices:
        return last[3]
    n = instance.n
    v, ids = _structure(plan, n)
    if ids is None:
        return ValidationReport(tuple(v))

    max_l, max_t = instance.params.max_mileage, instance.params.max_time
    flags = plan.maint_after
    mileage, travel, at_depot = matrices.tables
    table, dep_time, arr_shifted = matrices.waits, matrices.dep_time, matrices.arr_shifted
    dep_slot, arr_slot = matrices.dep_slot, matrices.arr_slot
    kms, mins_at, ends, waits = [], [], [], []
    km = mins = waited = prev = 0  # prev: the train before an ordinary arc, else 0
    for d, tid in enumerate(ids):
        if prev:
            if dep_slot[tid] == arr_slot[prev]:
                wait = table[dep_time[tid] - arr_shifted[prev]]
            else:
                v.append(Violation("CONN", f"trains {prev} and {tid} cannot connect", d + 1))
                wait = 0
            km += mileage[tid]
            mins += wait + travel[tid]
            waited += wait
        else:
            km, mins = mileage[tid], travel[tid]
        kms.append(km)
        mins_at.append(mins)
        if km > max_l:
            v.append(Violation("EQ11", f"{km:.1f} km since maintenance exceeds {max_l:.1f}", d + 1))
        if mins > max_t:
            v.append(Violation("EQ12", f"{mins} min since maintenance exceeds {max_t:.0f}", d + 1))
        if flags[d]:
            nxt = ids[(d + 1) % n]
            if not at_depot[tid] or dep_slot[nxt] != arr_slot[tid]:
                v.append(
                    Violation("EQ10", f"maintenance between {tid} and {nxt} is not at the depot", d + 1)
                )
            ends.append(d)
            waits.append(waited)
            prev = waited = 0
        else:
            prev = tid
    walk = Walk(tuple(ids), tuple(kms), tuple(mins_at), tuple(ends), tuple(waits))
    report = ValidationReport(tuple(v), walk)
    if (type(plan) is CirculationPlan and type(plan.order) is tuple
            and type(plan.maint_after) is tuple and type(instance) is TimetableInstance
            and type(matrices) is ConnectionMatrices):
        _last = (weakref.ref(plan), weakref.ref(instance), weakref.ref(matrices), report)
    return report


def _sound_walk(report: ValidationReport) -> Walk:
    """The walk of a plan that runs each train exactly once in one connected
    cycle. Otherwise raises the one refusal of the readers that need such a
    plan: an InvalidPlanError naming every SHAPE, EQ8/EQ9 and CONN finding of
    the report with its position."""
    unsound = [f for f in report.violations if f.tag in ("SHAPE", "EQ8/EQ9", "CONN")]
    if unsound:
        named = "; ".join(str(f) if f.position is None else f"{f} (position {f.position})"
                          for f in unsound)
        raise InvalidPlanError(
            f"plan does not run each train exactly once in one connected cycle: {named}"
        )
    return report.walk


def _valid_walk(report: ValidationReport) -> Walk:
    """The walk of a plan that passes validate. Otherwise raises the one
    refusal of the readers that need a fully valid plan, naming the families
    it breaks but no position (an EQ11 plan at n = 500 has hundreds)."""
    if not report.ok:
        raise InvalidPlanError(f"invalid plan: {sorted(report.tags())}")
    return report.walk


def decode_rotations(
    plan: CirculationPlan, instance: TimetableInstance, matrices: ConnectionMatrices
) -> list[Rotation]:
    """Cut the cycle at maintenance arcs and total up each piece.

    Raises InvalidPlanError on a plan with a SHAPE, EQ8/EQ9 or CONN finding
    (see _sound_walk). Concatenating the result reproduces `order`.
    """
    return _sound_walk(validate(plan, instance, matrices)).rotations()


def objective_value(
    plan: CirculationPlan, instance: TimetableInstance, matrices: ConnectionMatrices
) -> float:
    """Weighted sum of total waiting time and per-rotation mileage slack.

    The slack term rewards rotations that run close to the mileage allowance.
    Only defined for fully valid plans (see _valid_walk). Shares its
    arithmetic with fitness_value, so the two agree bit for bit on any valid
    plan (where the penalty branch is unreachable).
    """
    walk = _valid_walk(validate(plan, instance, matrices))
    return fitness_from_totals(sum(walk.waited), [walk.km[e] for e in walk.ends], instance.params)[0]


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
    """Rotation counts and extremes, fitness, and the objective when the plan
    passes validate. Raises InvalidPlanError where decode_rotations does."""
    report = validate(plan, instance, matrices)
    walk = _sound_walk(report)
    km_ends = [walk.km[e] for e in walk.ends]
    min_ends = [walk.mins[e] for e in walk.ends]
    waited = sum(walk.waited)
    fitness = fitness_from_totals(waited, km_ends, instance.params)[0]
    return PlanSummary(
        n_rotations=len(km_ends),
        total_connection_time=waited,
        min_rotation_mileage=min(km_ends),
        max_rotation_mileage=max(km_ends),
        min_rotation_time=min(min_ends),
        max_rotation_time=max(min_ends),
        fitness=fitness,
        # on a valid plan the fitness is the objective (objective_value)
        objective=fitness if report.ok else None,
    )


def render_plan(
    plan: CirculationPlan, instance: TimetableInstance, matrices: ConnectionMatrices
) -> str:
    """Plan file form: one line per position with running totals, then the
    rotation breakdown. Deterministic formatting (km to 0.1, minutes whole).
    Raises InvalidPlanError where decode_rotations does.
    """
    walk = _sound_walk(validate(plan, instance, matrices))
    ids, km, mins = walk.ids, walk.km, walk.mins
    lines = ["cycle"]
    lines += [f"pos {d + 1} train {ids[d]} maint {flag} accum_km {km[d]:.1f} accum_min {mins[d]}"
              for d, flag in enumerate(plan.maint_after)]
    lines.append(f"rotations {len(walk.ends)}")
    lines += [f"rotation {r}: {','.join(map(str, ids[first : last + 1]))} km {km[last]:.1f} "
              f"min {mins[last]}" for r, (first, last) in enumerate(walk.spans(), start=1)]
    return "\n".join(lines) + "\n"


def parse_plan(text: str) -> CirculationPlan:
    """Read a plan file back; only order and maintenance flags are taken,
    running totals and the rotation section are derived output. Position,
    train id and flag are ASCII digits (see timetable.ascii_digits).
    """
    entries: dict[int, tuple[int, int]] = {}
    saw_cycle = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind != "pos":
            if kind == "cycle":
                saw_cycle = True
            elif kind not in ("rotations", "rotation"):
                raise PlanFormatError(f"unknown directive {kind!r}", lineno)
            continue
        if len(tokens) < 6 or tokens[2] != "train" or tokens[4] != "maint":
            raise PlanFormatError("expected: pos <d> train <id> maint <0|1> ...", lineno)
        digits = tokens[1] + tokens[3] + tokens[5]  # ASCII digits alone, so is each of the three
        if not (digits.isdigit() and digits.isascii()):
            raise PlanFormatError("position, train id and flag must be integers", lineno)
        d, tid, flag = int(tokens[1]), int(tokens[3]), int(tokens[5])
        if flag not in (0, 1):
            raise PlanFormatError(f"maintenance flag must be 0 or 1, got {flag}", lineno)
        if d in entries:
            raise PlanFormatError(f"duplicate position {d}", lineno)
        entries[d] = (tid, flag)

    if not saw_cycle:
        raise PlanFormatError("missing 'cycle' header")
    if not entries:
        raise PlanFormatError("no positions")
    positions = sorted(entries)
    if positions[0] != 1 or positions[-1] != len(positions):  # distinct, so exactly 1..len
        raise PlanFormatError(f"positions must form 1..{len(positions)}")
    order, maint = zip(*map(entries.__getitem__, positions))
    return CirculationPlan(order=order, maint_after=maint)
