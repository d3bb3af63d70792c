"""Randomized construction of feasible circulation cycles.

Builds the single closed loop position by position: start from a train
leaving the depot, keep chaining connectable trains, and whenever the chain
returns to the depot decide (randomly, or compulsorily when a cycle limit
would be hit) whether to cut a maintenance arc there. The decision looks one
station ahead: declining is refused when no departure where the next train
arrives would still fit the windows. On paired timetables (depot ->
turn-back -> depot) with default parameters that leaves no dead end, since
after a maintenance any return leg fits. Dead ends, still possible on
multi-leg chains and under tight windows, restart the whole attempt with
fresh randomness.

Candidates come from the per-station departure index of ConnectionMatrices:
each attempt keeps, per station, the id-sorted list of unassigned trains
leaving it, so a step costs O(departures at that station) rather than a sort
of every unassigned train, and draws from exactly the same candidate lists.
The per-train lists a step reads come from the matrices' tables, built once
per instance, and the oversize-train check from the instance itself; an
attempt copies only the departure lists and a placed flag per train id. The
only randomness an attempt takes is rng.random(), so any source of uniform
doubles with that method serves, such as solve's block-drawn Philox streams.

The same stepping engine also serves the swarm decoder: a caller may supply
a proposed train per position, which is taken whenever it is legal at that
step and repaired by the normal step logic otherwise.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .connection import ConnectionMatrices
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
    arr_at_depot: list[bool],
    mileage: list[float],
    travel: list[int],
    conn_row: list[int | None],
    max_l: float,
    max_t: float,
) -> tuple[list[int], list[int], list[int]]:
    """Split free, the unassigned departures (ascending ids) of the station
    where the previous train arrived, in one pass: away-from-depot trains
    that fit both windows, all depot-bound trains, and the depot-bound ones
    that fit both windows."""
    away: list[int] = []
    to_depot: list[int] = []
    usable: list[int] = []
    for j in free:
        fits = acc_l + mileage[j] <= max_l and acc_t + conn_row[j - 1] + travel[j] <= max_t
        if arr_at_depot[j]:
            to_depot.append(j)
            if fits:
                usable.append(j)
        elif fits:
            away.append(j)
    return away, to_depot, usable


def build_cycle(
    instance: TimetableInstance,
    matrices: ConnectionMatrices,
    rng: np.random.Generator,
    maint_prob: float = 0.5,
    proposal=None,
) -> CirculationPlan:
    """One construction attempt; raises DeadEnd when it cannot continue.

    At the depot the coin may decline maintenance only when some departure
    from the station the next train reaches fits both windows at the
    carried-over totals (the rule of _candidates); otherwise the arc is cut.
    This look-ahead draws no random number and is the same with or without
    a proposal, so it never strands the unit one station on; an overrun two
    or more stations on still dead-ends.

    With a proposal (one train id per position), each proposed train is taken
    when it is unassigned and legal under the current step's rules, except
    that a proposed depot-bound train may break the mileage window (the
    relaxed, penalty-scored regime); time overruns are never admitted.
    Illegal proposals fall back to the normal random step.
    """
    n = instance.n
    if instance.oversize is not None:
        raise InfeasibleError(
            f"train {instance.oversize} alone exceeds a maintenance cycle allowance; no plan exists"
        )
    mileage, travel, arr_at_depot, arr_station = matrices.tables
    params = instance.params
    max_l, max_t = params.max_mileage, params.max_time
    depot = instance.maint_station
    conn_rows = matrices.conn_rows
    random = rng.random  # a uniform double in [0, 1); picks index by int(random() * len)

    placed = [False] * (n + 1)
    # unassigned departures per station, ascending ids; a train leaves its
    # list when placed
    free = {s: list(ids) for s, ids in matrices.departures.items()}
    depot_free = free.get(depot)
    if not depot_free:
        raise InfeasibleError("no train departs the depot station; no plan exists")

    order: list[int] = []
    flags: list[int] = []

    first = None
    if proposal is not None:
        first = int(proposal[0])
        if not 0 < first <= n or instance.trains[first - 1].dep_station != depot:
            first = None
    if first is None:
        first = depot_free[int(random() * len(depot_free))]
    order.append(first)
    flags.append(0)
    placed[first] = True
    del depot_free[bisect_left(depot_free, first)]
    acc_l, acc_t = mileage[first], travel[first]

    for d in range(2, n + 1):
        prev = order[-1]
        conn_row = conn_rows[prev - 1]
        proposed = None
        if proposal is not None:
            proposed = int(proposal[d - 1])
            if not 0 < proposed <= n or placed[proposed]:
                proposed = None  # out of range or already placed: repaired below

        if arr_at_depot[prev]:
            here = depot_free
            if not here:
                raise DeadEnd(f"no depot departure left at position {d}")
            # prev arrived at the depot: connectable means departing it
            if proposed is not None and conn_row[proposed - 1] is not None:
                j = proposed
            else:
                j = here[int(random() * len(here))]
            conn = conn_row[j - 1]
            fits = acc_l + mileage[j] <= max_l and acc_t + conn + travel[j] <= max_t
            maintain = 1 if not fits or random() < maint_prob else 0
            if not maintain and not arr_at_depot[j]:
                # look one station ahead, drawing nothing: when no departure
                # where j arrives fits at the carried-over totals, the next
                # step would dead-end, so the maintenance arc is cut here (a
                # depot-bound j needs no look: the depot step after it cuts)
                away, _, usable = _candidates(
                    free[arr_station[j]], acc_l + mileage[j], acc_t + conn + travel[j],
                    arr_at_depot, mileage, travel, conn_rows[j - 1], max_l, max_t,
                )
                maintain = 0 if away or usable else 1
            if maintain:
                acc_l, acc_t = mileage[j], travel[j]
            else:
                acc_l += mileage[j]
                acc_t += conn + travel[j]
            flags[-1] = maintain
        else:
            here = free[arr_station[prev]]
            j = None
            if proposed is not None:
                conn = conn_row[proposed - 1]
                # only a depot-bound proposal may break the mileage window
                if conn is not None and acc_t + conn + travel[proposed] <= max_t and (
                    arr_at_depot[proposed] or acc_l + mileage[proposed] <= max_l
                ):
                    j = proposed
            if j is None:
                away, to_depot, usable = _candidates(
                    here, acc_l, acc_t, arr_at_depot, mileage, travel, conn_row, max_l, max_t
                )
                # the depot-bound fallback may run the windows tight (the
                # following depot step can force maintenance), but a train
                # that breaks one outright is unusable
                if away:
                    j = away[int(random() * len(away))]
                elif usable:
                    j = usable[int(random() * len(usable))]
                elif to_depot:
                    raise DeadEnd(f"every depot-bound successor overruns at position {d}")
                else:
                    raise DeadEnd(f"no successor from train {prev} at position {d}")
            conn = conn_row[j - 1]
            acc_l += mileage[j]
            acc_t += conn + travel[j]
            flags[-1] = 0

        order.append(j)
        flags.append(0)
        placed[j] = True
        del here[bisect_left(here, j)]

    if not arr_at_depot[order[-1]]:
        # cannot happen on a flow-balanced instance; guard for odd inputs
        raise DeadEnd("cycle does not end at the depot")
    flags[-1] = 1
    return CirculationPlan(order=tuple(order), maint_after=tuple(flags))


def construct_with_stats(
    instance: TimetableInstance,
    matrices: ConnectionMatrices,
    rng: np.random.Generator,
    max_restarts: int = 100,
    maint_prob: float = 0.5,
) -> tuple[CirculationPlan, int]:
    """Run build_cycle until it succeeds; returns (plan, failed attempts).

    Raises ValueError, before any draw, for a negative max_restarts or a
    maint_prob outside [0, 1] (NaN included).
    """
    if max_restarts < 0:
        raise ValueError(f"max_restarts must be >= 0, got {max_restarts!r}")
    if not 0.0 <= maint_prob <= 1.0:
        raise ValueError(f"maint_prob must lie in [0, 1], got {maint_prob!r}")
    failed = 0
    while True:
        try:
            return build_cycle(instance, matrices, rng, maint_prob), failed
        except DeadEnd:
            failed += 1
            if failed > max_restarts:
                raise InfeasibleError(
                    f"construction dead-ended in {failed} consecutive attempts; on large "
                    f"or tightly timed instances a higher maint_prob usually helps"
                ) from None


def construct(
    instance: TimetableInstance,
    matrices: ConnectionMatrices,
    rng: np.random.Generator,
    max_restarts: int = 100,
    maint_prob: float = 0.5,
) -> CirculationPlan:
    """Build a feasible circulation plan, restarting on dead ends."""
    plan, _ = construct_with_stats(instance, matrices, rng, max_restarts, maint_prob)
    return plan
