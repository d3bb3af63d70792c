"""Randomized construction of feasible circulation cycles.

Builds the single closed loop in one pass over positions 1..n. Position 1
and every position after a depot arrival are depot steps: each draws a train
leaving the depot and decides whether to cut a maintenance arc before it,
randomly or compulsorily when a cycle limit would be hit; the arc into
position 1 closes the cycle and is always cut. Other steps chain a
connectable train. The decision looks one station ahead: declining is refused
when no departure where the next train arrives would still fit the windows.
On paired timetables with default parameters that leaves no dead end. Dead
ends, still possible on multi-leg chains and under tight windows, restart the
whole attempt with fresh randomness.

Candidates come from the per-station departure index of ConnectionMatrices:
each attempt keeps, per station slot, the id-sorted list of unassigned
trains leaving it. When the running totals plus the station's reach bound
fit both windows, every train on that list fits and all are of one kind, so
a step draws straight from the list in O(1); otherwise it scans the list,
O(departures at that station), with _candidates. Either way it draws from
the same candidate list with the same single draw, so a seed gives the same
plan. A train drawn by index from the free list leaves it by list.pop of
that index; only a taken proposal or a pick from _candidates' filtered list
is found in the free list by bisection.
The per-train lists a step reads come from the matrices, built once per
instance: the tables, and the slot and reach of the station where each
train arrives, so a step reads a station's free list and reach by list
subscript. The oversize-train check, the windows and the depot station come
from the instance and its parameters, which cache them; an attempt copies
only the departure lists and a placed flag per train id. It keeps the
previous train, its connection row (fetched once per step; after a depot
arrival it also tells which trains depart the depot) and whether that train
arrives at the depot in locals, and writes each train and maintenance flag
straight to its final position in the plan, so nothing is rotated or copied
but the two closing tuples. The only randomness an attempt takes is
rng.random(), so any source of uniform doubles with that method serves,
such as solve's block-drawn Philox streams.

The same stepping engine also serves the swarm decoder: a caller may supply
a proposed train per position, which is taken whenever it is legal at that
step and repaired by the normal step logic otherwise; construct_with_stats
passes it to its first attempt only. An attempt also returns the minutes
waited and each rotation's mileage, which its running totals already hold,
so the swarm scores a decode without walking the plan again.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .connection import ConnectionMatrices, TrainTables
from .plan import CirculationPlan
from .timetable import TimetableInstance


class InfeasibleError(RuntimeError):
    """No circulation plan can exist (or none was found within the restart budget)."""


class DeadEnd(Exception):
    """Internal: the current attempt painted itself into a corner."""


def _candidates(
    free: list[int],
    acc_l: float,
    acc_t: float,
    conn_row: list[int | None],
    tables: TrainTables,
    max_l: float,
    max_t: float,
) -> tuple[list[int], list[int]]:
    """Split free, the unassigned departures (ascending ids) of the station
    where the previous train arrived, in one pass into the trains that fit
    both windows: those heading away from the depot and the depot-bound ones."""
    mileage, travel, arr_at_depot, _ = tables
    away: list[int] = []
    usable: list[int] = []
    for j in free:
        if acc_l + mileage[j] <= max_l and acc_t + conn_row[j - 1] + travel[j] <= max_t:
            if arr_at_depot[j]:
                usable.append(j)
            else:
                away.append(j)
    return away, usable


def _any_fits(
    free: list[int],
    acc_l: float,
    acc_t: float,
    conn_row: list[int | None],
    tables: TrainTables,
    max_l: float,
    max_t: float,
) -> bool:
    """Whether _candidates would find any train in free that fits both
    windows, away or depot-bound; stops at the first one."""
    mileage, travel = tables.mileage, tables.travel
    for j in free:
        if acc_l + mileage[j] <= max_l and acc_t + conn_row[j - 1] + travel[j] <= max_t:
            return True
    return False


def build_cycle(
    instance: TimetableInstance,
    matrices: ConnectionMatrices,
    rng: np.random.Generator,
    maint_prob: float = 0.5,
    proposal=None,
) -> tuple[CirculationPlan, int, list[float]]:
    """One construction attempt; raises DeadEnd when it cannot continue.

    Returns (plan, waited, rotation_km): the minutes waited on the plan's
    ordinary arcs and the total mileage of each rotation in cycle order, the
    totals fitness_from_totals scores. They are the running totals the steps
    keep anyway, summed in the order plan._walk sums them, so they equal what
    decode_rotations reports for the plan.

    At a depot step the coin may decline maintenance only when some departure
    from the station the next train reaches fits both windows at the
    carried-over totals (the rule of _candidates); otherwise the arc is cut.
    This look-ahead draws no random number and is the same with or without
    a proposal, so it never strands the unit one station on; an overrun two
    or more stations on still dead-ends. Position 1 draws no coin.

    With a proposal (one train id per position), each proposed train is taken
    when it is unassigned and legal under the current step's rules, except
    that a proposed depot-bound train may break the mileage window (the
    relaxed, penalty-scored regime); time overruns are never admitted.
    Illegal proposals fall back to the normal random step.
    """
    trains = instance.trains
    n = len(trains)
    if instance.oversize is not None:
        raise InfeasibleError(
            f"train {instance.oversize} alone exceeds a maintenance cycle allowance; no plan exists"
        )
    tables = matrices.tables
    mileage, travel, arr_at_depot, _ = tables
    params = instance.params
    max_l, max_t = params.max_mileage, params.max_time
    depot = instance.maint_station
    conn_rows = matrices.conn_rows
    arr_slot, arr_reach = matrices.arr_slot, matrices.arr_reach
    random = rng.random  # a uniform double in [0, 1); picks index by int(random() * len)

    departures = matrices.departures
    if depot not in departures:
        raise InfeasibleError("no train departs the depot station; no plan exists")
    placed = [False] * (n + 1)
    # unassigned departures per station slot, ascending ids, the depot's at
    # slot 0; a train leaves its list when placed
    free = [[*ids] for ids in departures.values()]
    depot_free = free[0]

    order = [0] * n
    # maint_after[d]: maintenance on the arc leaving position d + 1; the arc
    # from the last position closes the cycle into position 1 and is always cut
    maint_after = [0] * n
    maint_after[-1] = 1
    waited = 0  # minutes waited on the ordinary arcs so far
    rotation_km: list[float] = []  # mileage of each rotation cut so far
    # the train placed last, its connection row, and whether it ends at the depot
    prev, prev_row, at_depot = 0, None, True
    for d in range(n):  # position d + 1
        proposed = None
        if proposal is not None:
            proposed = int(proposal[d])
            if not 0 < proposed <= n or placed[proposed]:
                proposed = None  # out of range or already placed: repaired below

        if at_depot:
            here = depot_free
            if not here:
                raise DeadEnd(f"no depot departure left at position {d + 1}")
            # after the depot, connectable means departing it, which prev's
            # row tells from position 2 on
            if proposed is not None and (
                prev_row[proposed - 1] is not None if d
                else trains[proposed - 1].dep_station == depot
            ):
                j = proposed
                del here[bisect_left(here, j)]
            else:
                j = here.pop(int(random() * len(here)))
            if d:
                conn = prev_row[j - 1]
                next_l, next_t = acc_l + mileage[j], acc_t + conn + travel[j]
                # compulsory when continuing breaks a window, else the coin's
                maintain = not (next_l <= max_l and next_t <= max_t) or random() < maint_prob
                if not maintain and not arr_at_depot[j]:
                    # look one station ahead, drawing nothing: when no departure
                    # where j arrives fits at the carried-over totals, the next
                    # step would dead-end, so the maintenance arc is cut here (a
                    # depot-bound j needs no look: the depot step after it cuts)
                    ahead = free[arr_slot[j]]
                    reach_km, reach_min = arr_reach[j]
                    if next_l + reach_km <= max_l and next_t + reach_min <= max_t:
                        maintain = not ahead  # every departure there fits
                    else:
                        maintain = not _any_fits(ahead, next_l, next_t, conn_rows[j - 1],
                                                 tables, max_l, max_t)
                if maintain:
                    maint_after[d - 1] = 1
                    rotation_km.append(acc_l)
                    acc_l, acc_t = mileage[j], travel[j]
                else:
                    waited += conn
                    acc_l, acc_t = next_l, next_t
            else:
                acc_l, acc_t = mileage[j], travel[j]  # position 1 opens the first rotation
        else:
            here = free[arr_slot[prev]]
            conn = prev_row[proposed - 1] if proposed is not None else None
            # only a depot-bound proposal may break the mileage window
            if conn is not None and acc_t + conn + travel[proposed] <= max_t and (
                arr_at_depot[proposed] or acc_l + mileage[proposed] <= max_l
            ):
                j = proposed
                del here[bisect_left(here, j)]
            else:
                reach_km, reach_min = arr_reach[prev]
                if here and acc_l + reach_km <= max_l and acc_t + reach_min <= max_t:
                    # every train in here fits both windows and all are of one
                    # kind: whichever list _candidates returns non-empty is here
                    j = here.pop(int(random() * len(here)))
                else:
                    # the depot-bound fallback may run the windows tight (the
                    # following depot step can force maintenance), but a train
                    # that breaks one outright is unusable
                    away, usable = _candidates(here, acc_l, acc_t, prev_row, tables, max_l, max_t)
                    pick = away or usable
                    if not pick:
                        raise DeadEnd(f"no successor of train {prev} fits at position {d + 1}")
                    j = pick[int(random() * len(pick))]
                    del here[bisect_left(here, j)]
                conn = prev_row[j - 1]
            waited += conn
            acc_l += mileage[j]
            acc_t += conn + travel[j]
        order[d] = j
        placed[j] = True
        prev, prev_row, at_depot = j, conn_rows[j - 1], arr_at_depot[j]

    if not at_depot:
        # cannot happen on a flow-balanced instance; guard for odd inputs
        raise DeadEnd("cycle does not end at the depot")
    rotation_km.append(acc_l)  # the last rotation, closed by the arc into position 1
    return CirculationPlan(tuple(order), tuple(maint_after)), waited, rotation_km


def construct_with_stats(
    instance: TimetableInstance,
    matrices: ConnectionMatrices,
    rng: np.random.Generator,
    max_restarts: int = 100,
    maint_prob: float = 0.5,
    proposal=None,
) -> tuple[CirculationPlan, int, int, list[float]]:
    """Run build_cycle until it succeeds; returns (plan, failed attempts,
    waited, rotation_km), the last two as build_cycle returns them.

    A proposal guides the first attempt only, which max_restarts does not
    charge; the failed count, returned or raised, includes it.

    Raises ValueError, before any draw, for a negative max_restarts or a
    maint_prob outside [0, 1] (NaN included).
    """
    if max_restarts < 0:
        raise ValueError(f"max_restarts must be >= 0, got {max_restarts!r}")
    if not 0.0 <= maint_prob <= 1.0:
        raise ValueError(f"maint_prob must lie in [0, 1], got {maint_prob!r}")
    attempts = max_restarts + 1 if proposal is None else max_restarts + 2
    for failed in range(attempts):
        try:
            plan, waited, rotation_km = build_cycle(instance, matrices, rng, maint_prob, proposal)
            return plan, failed, waited, rotation_km
        except DeadEnd:
            proposal = None
    raise InfeasibleError(
        f"construction dead-ended in {attempts} consecutive attempts; multi-leg "
        f"chains or tight cycle windows strand the unit beyond the one-station "
        f"look-ahead, where a higher maint_prob or max_restarts may help"
    )


def construct(
    instance: TimetableInstance,
    matrices: ConnectionMatrices,
    rng: np.random.Generator,
    max_restarts: int = 100,
    maint_prob: float = 0.5,
) -> CirculationPlan:
    """Build a feasible circulation plan, restarting on dead ends."""
    return construct_with_stats(instance, matrices, rng, max_restarts, maint_prob)[0]
