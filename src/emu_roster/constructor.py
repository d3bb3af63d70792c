"""Randomized construction of feasible circulation cycles.

Builds the single closed loop in one pass over positions 1..n. Position 1
and every position after a depot arrival are depot steps: each draws a train
leaving the depot and cuts a maintenance arc before it (the arc into
position 1 closes the cycle). Other steps chain a connectable train that
fits both windows, measured from the last cut. Dead ends, possible on
multi-leg chains and under tight windows, restart the whole attempt with
fresh randomness. Maintenance placement is then a function of the order
alone: _drop_paying_cuts keeps the best set of the chain's cuts, exactly,
and does not run when no cut's arc waits little enough to pay.

Candidates come from the per-station departure lists of ConnectionMatrices,
copied per attempt by station slot; a placed train leaves its list. When the
running totals plus the station's reach bound fit both windows, every train
on the list fits and all are of one kind, so a step draws from the list
itself; otherwise _candidates scans it. Either way one draw picks from the
same id-ordered list, so a seed gives the same plan. The per-train lists a
step reads are built once per instance, with the matrices. The only
randomness is rng.random(), at most once per position, so any source of
uniform doubles with that method serves, such as solve's Philox streams.

The swarm decoder supplies a proposed train per position, taken where it is
legal and repaired by the normal step elsewhere (pso's decoder passes it to
one attempt, then restarts with construct_with_stats). An attempt returns
the order and flags as lists, with the minutes waited and each rotation's
mileage, so the swarm scores a decode without a walk or a plan object.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from itertools import compress

import numpy as np

from .connection import ConnectionMatrices
from .plan import CirculationPlan
from .timetable import ModelParams, TimetableInstance

MAX_RESTARTS = 100  # failed attempts construct_with_stats allows by default


class InfeasibleError(RuntimeError):
    """No circulation plan can exist, or none was found within the restart
    budget; then attempts counts the attempts that dead-ended."""

    attempts = 0

    @classmethod
    def dead_ended(cls, attempts: int) -> InfeasibleError:
        err = cls(f"construction dead-ended in {attempts} consecutive attempts; on multi-leg "
                  "chains or under tight cycle windows no successor may fit, where a higher "
                  "max_restarts may help")
        err.attempts = attempts
        return err


class DeadEnd(Exception):
    """Internal: the current attempt painted itself into a corner."""


def _candidates(free: list[int], acc_l: float, acc_t: float, prev: int,
                matrices: ConnectionMatrices, max_l: float, max_t: float
                ) -> tuple[list[int], list[int]]:
    """Split free, the unassigned departures (ascending ids) of the station
    where train prev arrived, in one pass into the trains that fit both
    windows: those heading away from the depot and the depot-bound ones."""
    mileage, travel, arr_at_depot = matrices.tables
    waits, dep_time, arr = matrices.waits, matrices.dep_time, matrices.arr_shifted[prev]
    away: list[int] = []
    usable: list[int] = []
    for j in free:
        if acc_l + mileage[j] <= max_l and acc_t + waits[dep_time[j] - arr] + travel[j] <= max_t:
            if arr_at_depot[j]:
                usable.append(j)
            else:
                away.append(j)
    return away, usable


def _drop_paying_cuts(order: list[int], maint_after: list[int], waited: int,
                      rotation_km: list[float], joins: list[int], matrices: ConnectionMatrices,
                      params: ModelParams) -> tuple[int, list[float]]:
    """Clear the flags in maint_after of the set of cuts whose drop lowers
    the fitness most; return waited and rotation_km as build_cycle does.

    Dropping the cut on a depot arc that waits w minutes changes the fitness
    by omega1 * w - omega2 * max_mileage while the joined rotation fits both
    windows, so a cut pays only below that wait, and joins lists, ascending,
    the pieces whose cut to the next one pays. A cut that does not pay stays,
    so each run of pieces joined by paying cuts is a shortest path of its
    own: from each piece a forward scan joins the next ones until a window
    breaks. Ties keep the cut. Mileage is summed as validate's walk sums it.
    """
    table, dep_time, arr_shifted = matrices.waits, matrices.dep_time, matrices.arr_shifted
    mileage, travel = matrices.tables.mileage, matrices.tables.travel
    max_l, max_t = params.max_mileage, params.max_time
    omega1, pays = params.omega1, params.omega2 * max_l
    ends = list(compress(range(len(order)), maint_after))  # each piece's last position
    merged: list[float] = []
    k = done = 0  # joins[k] opens the next run; pieces before done are in merged
    while k < len(joins):
        s = t = joins[k]
        while k < len(joins) and joins[k] == t:  # the run is pieces s..t
            k, t = k + 1, t + 1
        cuts = ends[s:t]
        waits = [table[dep_time[order[e + 1]] - arr_shifted[order[e]]] for e in cuts]
        # from piece s on, best[i]: the least fitness change over i pieces; first[i]
        # and km[i]: the first piece and the mileage of the rotation ending there
        best = [0.0] + [math.inf] * (t - s + 1)
        first, km = [0] * len(best), [0.0] * len(best)
        for a in range(t - s + 1):
            change = best[a]
            if change <= best[a + 1]:  # piece a alone, the last candidate
                best[a + 1], first[a + 1], km[a + 1] = change, a, rotation_km[s + a]
            d = ends[s + a - 1] + 1 if s + a else 0
            acc_l, acc_t = mileage[order[d]], travel[order[d]]
            for b in range(a + 1, t - s + 1):  # join piece b over the cut before it
                for d in range(d + 1, ends[s + b] + 1):
                    acc_l += mileage[order[d]]
                    acc_t += (table[dep_time[order[d]] - arr_shifted[order[d - 1]]]
                              + travel[order[d]])
                if acc_l > max_l or acc_t > max_t:
                    break
                change += omega1 * waits[b - 1] - pays
                if change <= best[b + 1]:
                    best[b + 1], first[b + 1], km[b + 1] = change, a, acc_l
        rotations = []
        i = len(best) - 1
        while i:
            rotations.append(km[i])
            for c in range(first[i], i - 1):  # the cuts inside the rotation are dropped
                maint_after[cuts[c]] = 0
                waited += waits[c]
            i = first[i]
        merged += rotation_km[done:s]
        merged += reversed(rotations)
        done = t + 1
    return waited, merged + rotation_km[done:]


def build_cycle(
    instance: TimetableInstance, matrices: ConnectionMatrices, rng: np.random.Generator,
    proposal=None,
) -> tuple[list[int], list[int], int, list[float]]:
    """One construction attempt; raises DeadEnd when it cannot continue.

    Returns (order, maint_after, waited, rotation_km): the plan's fields as
    lists, for the caller that keeps a plan to freeze, then the minutes
    waited on its ordinary arcs and the total mileage of each rotation in
    cycle order, the totals fitness_from_totals scores, summed as validate's
    walk sums them. The chain cuts at every depot arrival; _drop_paying_cuts
    then keeps the best set of those cuts for the order, drawing nothing. An
    attempt draws at most one number per position, none for a taken proposal.

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
    mileage, travel, arr_at_depot = matrices.tables
    params = instance.params
    max_l, max_t = params.max_mileage, params.max_time
    # dropping the cut on a depot arc that waits w pays when omega1 * w < pays
    omega1, pays = params.omega1, params.omega2 * max_l
    waits, dep_time, arr_shifted = matrices.waits, matrices.dep_time, matrices.arr_shifted
    dep_slot, arr_slot, arr_reach = matrices.dep_slot, matrices.arr_slot, matrices.arr_reach
    random = rng.random  # a uniform double in [0, 1); picks index by int(random() * len)

    placed = [False] * (n + 1)
    # unassigned departures per station slot, ascending ids, the depot's at
    # slot 0; a train leaves its list when placed
    free = [[*ids] for ids in matrices.departures.values()]

    order = [0] * n
    # maint_after[d]: maintenance on the arc leaving position d + 1; the arc
    # from the last position closes the cycle into position 1 and is always cut
    maint_after = [0] * n
    maint_after[-1] = 1
    waited = 0  # minutes waited on the ordinary arcs so far
    rotation_km: list[float] = []  # mileage of each rotation cut so far
    joins: list[int] = []  # the rotations whose cut to the next one pays to drop
    # the train placed last, its arrival minute less a day, and the slot of the
    # station where it arrives, 0 at the depot
    prev, arr, slot = 0, 0, 0
    for d in range(n):  # position d + 1
        proposed = None
        if proposal is not None:
            proposed = int(proposal[d])
            if not 0 < proposed <= n or placed[proposed]:
                proposed = None  # out of range or already placed: repaired below

        here = free[slot]
        if not slot:
            if not here:
                raise DeadEnd(f"no depot departure left at position {d + 1}")
            # connectable at the depot means departing it
            if proposed is not None and dep_slot[proposed] == 0:
                j = proposed
                del here[bisect_left(here, j)]
            else:
                j = here.pop(int(random() * len(here)))
            if d:  # the maintenance arc into j closes the rotation before it
                maint_after[d - 1] = 1
                if omega1 * waits[dep_time[j] - arr] < pays:
                    joins.append(len(rotation_km))
                rotation_km.append(acc_l)
            acc_l, acc_t = mileage[j], travel[j]
        else:
            conn = (waits[dep_time[proposed] - arr]
                    if proposed is not None and dep_slot[proposed] == slot else None)
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
                    # a depot-bound train may fill the windows to the brim:
                    # the depot step after it cuts; one that breaks a window
                    # outright is unusable
                    away, usable = _candidates(here, acc_l, acc_t, prev, matrices, max_l, max_t)
                    pick = away or usable
                    if not pick:
                        raise DeadEnd(f"no successor of train {prev} fits at position {d + 1}")
                    j = pick[int(random() * len(pick))]
                    del here[bisect_left(here, j)]
                conn = waits[dep_time[j] - arr]
            waited += conn
            acc_l += mileage[j]
            acc_t += conn + travel[j]
        order[d] = j
        placed[j] = True
        prev, arr, slot = j, arr_shifted[j], arr_slot[j]

    # a trail from the depot over every train ends there, by flow balance
    rotation_km.append(acc_l)  # the last rotation, closed by the arc into position 1
    if joins:
        waited, rotation_km = _drop_paying_cuts(order, maint_after, waited, rotation_km, joins,
                                                matrices, params)
    return order, maint_after, waited, rotation_km


def check_maint_prob(maint_prob: float | None) -> None:
    """Refuse a maint_prob outside [0, 1] (NaN included); warn that any other
    value has no effect, as maintenance placement is exact. None is silent."""
    if maint_prob is not None:
        if not 0.0 <= maint_prob <= 1.0:
            raise ValueError(f"maint_prob must lie in [0, 1], got {maint_prob!r}")
        warnings.warn("maint_prob is deprecated and has no effect: maintenance placement is "
                      "exact", DeprecationWarning, stacklevel=3)


def construct_with_stats(
    instance: TimetableInstance, matrices: ConnectionMatrices, rng: np.random.Generator,
    max_restarts: int = MAX_RESTARTS,
) -> tuple[CirculationPlan, int, int, list[float]]:
    """Run build_cycle until it succeeds; returns (plan, failed attempts,
    waited, rotation_km), the last two as build_cycle returns them.

    Raises ValueError, before any draw, for a negative max_restarts.
    """
    if max_restarts < 0:
        raise ValueError(f"max_restarts must be >= 0, got {max_restarts!r}")
    for failed in range(max_restarts + 1):
        try:
            order, maint_after, waited, rotation_km = build_cycle(instance, matrices, rng)
            return CirculationPlan(tuple(order), tuple(maint_after)), failed, waited, rotation_km
        except DeadEnd:
            pass
    raise InfeasibleError.dead_ended(max_restarts + 1)


def construct(
    instance: TimetableInstance, matrices: ConnectionMatrices, rng: np.random.Generator,
    max_restarts: int = MAX_RESTARTS, maint_prob: float | None = None,
) -> CirculationPlan:
    """Build a feasible circulation plan, restarting on dead ends. maint_prob
    stays only because bench/run.py still passes it (ROADMAP item 5)."""
    check_maint_prob(maint_prob)
    return construct_with_stats(instance, matrices, rng, max_restarts)[0]
