"""DOT rendering of a circulation plan's connection network."""

from __future__ import annotations

from .connection import ConnectionMatrices
from .plan import CirculationPlan, _valid_walk, validate
from .timetable import TimetableInstance


def render_dot(
    plan: CirculationPlan, instance: TimetableInstance, matrices: ConnectionMatrices
) -> str:
    """One node per train, one edge per cycle arc.

    Ordinary connections are solid edges labelled with the waiting minutes;
    maintenance arcs are dashed. Node order follows train ids, edge order the
    cycle, so output is deterministic. A station name's backslashes and
    double quotes are escaped in the node labels. Raises InvalidPlanError on
    a plan that fails validate (see plan._valid_walk).
    """
    _valid_walk(validate(plan, instance, matrices))
    esc = {s: s.replace("\\", "\\\\").replace('"', '\\"') for s in instance.stations}
    lines = ["digraph circulation {", "  rankdir=LR;"]
    for t in instance.trains:
        lines.append(f'  t{t.id} [label="{t.id}: {esc[t.dep_station]}→{esc[t.arr_station]}"];')
    # validate passed, so every ordinary arc connects
    waits, dep_time, arr_shifted = matrices.waits, matrices.dep_time, matrices.arr_shifted
    n = plan.n
    for d in range(n):
        i, j = plan.order[d], plan.order[(d + 1) % n]
        if plan.maint_after[d]:
            lines.append(f"  t{i} -> t{j} [style=dashed];")
        else:
            lines.append(f'  t{i} -> t{j} [label="{waits[dep_time[j] - arr_shifted[i]]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
