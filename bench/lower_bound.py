"""Assignment lower bound on the circulation objective, computed by the
benchmark from the timetable alone.

For any feasible plan,

    objective = sum over ordinary arcs of omega1 * conn
              + R * omega2 * max_l - omega2 * total_mileage,

where R is the number of maintenance arcs and max_l = (1 + lambda) * l_cycle,
because each rotation contributes omega2 * (max_l - its mileage) and the
rotations partition the trains. A plan's cycle is a permutation, so charging
every arc omega1 * conn, or min(omega1 * conn, omega2 * max_l) where the arc
may carry maintenance, and taking the cheapest assignment (Jonker and
Volgenant 1987, behind scipy's linear_sum_assignment) relaxes the single-cycle
rule and the cycle windows. The result minus omega2 * total_mileage bounds
every feasible objective from below.

The connection rule is restated here rather than read from the program's
matrices, so the bound stays independent of how the program stores them.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

MINUTES_PER_DAY = 1440


def arc_costs(instance) -> np.ndarray:
    """n x n relaxed arc costs, inf where two trains cannot connect."""
    trains = instance.trains
    p = instance.params
    dep_st = np.array([t.dep_station for t in trains])
    arr_st = np.array([t.arr_station for t in trains])
    dep_t = np.array([t.dep_time for t in trains], dtype=np.int64)
    arr_t = np.array([t.arr_time for t in trains], dtype=np.int64)

    connectable = arr_st[:, None] == dep_st[None, :]
    np.fill_diagonal(connectable, False)
    gap = dep_t[None, :] - arr_t[:, None]
    conn = np.where(gap >= p.t_connect, gap, gap + MINUTES_PER_DAY)
    cost = p.omega1 * conn.astype(np.float64)
    at_depot = connectable & np.isin(dep_st, list(instance.maint_stations))[None, :]
    cost = np.where(at_depot, np.minimum(cost, p.omega2 * p.max_mileage), cost)
    cost[~connectable] = np.inf
    return cost


def feasible_arc_count(instance) -> int:
    """Ordered train pairs that can connect (arrival station = departure station)."""
    return int(np.isfinite(arc_costs(instance)).sum())


def assignment_bound(instance) -> float:
    """Lower bound on the objective of every feasible plan of the instance."""
    cost = arc_costs(instance)
    rows, cols = linear_sum_assignment(cost)
    total_mileage = sum(t.mileage for t in instance.trains)
    return float(cost[rows, cols].sum()) - instance.params.omega2 * total_mileage
