"""Exact reference solver for desk-scale instances.

Enumerates every directed Hamiltonian cycle over the feasible-connection
digraph (anchored at the lowest-id depot-departing train so each cycle is
seen once) and, per cycle, every legal placement of maintenance arcs. The
minimum objective over all fully feasible combinations is the ground truth
against which the swarm heuristic is judged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .connection import ConnectionMatrices
from .plan import CirculationPlan, validate
from .pso import SolveResult
from .timetable import TimetableInstance


class InstanceTooLargeError(ValueError):
    """Instance exceeds the enumeration size limit."""


@dataclass(frozen=True)
class OracleResult:
    best_plan: CirculationPlan | None
    best_objective: float | None
    plans_enumerated: int  # (cycle, maintenance placement) pairs examined
    feasible_count: int


def brute_force(
    instance: TimetableInstance, matrices: ConnectionMatrices, n_limit: int = 10
) -> OracleResult:
    """Exhaustive minimum of the plan objective; prunes on connection
    infeasibility and on cycle-limit violations that no maintenance placement
    could avoid.
    """
    n = instance.n
    if n > n_limit:
        raise InstanceTooLargeError(f"instance has {n} trains, enumeration limit is {n_limit}")

    params = instance.params
    max_l, max_t = params.max_mileage, params.max_time
    mileage, travel, arr_at_depot = matrices.tables
    leaving, arr_slot = tuple(matrices.departures.values()), matrices.arr_slot  # by station slot
    waits, dep_time, arr_shifted = matrices.waits, matrices.dep_time, matrices.arr_shifted

    v_star = matrices.departures[instance.maint_station][0]  # ascending ids

    counters = {"plans": 0, "feasible": 0}
    best: list = [None]  # (objective, order, flags)

    def evaluate_cycle(cycle: list[int]) -> None:
        # every arc of the cycle connects, so eligibility is the arrival at the
        # depot, which some train of every cycle makes
        arc_conn = [waits[dep_time[cycle[(d + 1) % n]] - arr_shifted[cycle[d]]] for d in range(n)]
        eligible = [d for d in range(n) if arr_at_depot[cycle[d]]]
        total_conn = sum(arc_conn)
        for mask in range(1, 1 << len(eligible)):
            counters["plans"] += 1
            cut_after = [eligible[b] for b in range(len(eligible)) if mask >> b & 1]
            feasible = True
            slack = 0.0
            conn_sum = total_conn
            for s_idx, s in enumerate(cut_after):
                conn_sum -= arc_conn[s]
                # rotation runs from position s+1 up to the next cut
                end = cut_after[(s_idx + 1) % len(cut_after)]
                l_acc = 0.0
                t_acc = 0
                first = True
                d = (s + 1) % n
                while True:
                    tid = cycle[d]
                    if first:
                        l_acc, t_acc = mileage[tid], travel[tid]
                        first = False
                    else:
                        l_acc += mileage[tid]
                        t_acc += arc_conn[(d - 1) % n] + travel[tid]
                    if l_acc > max_l or t_acc > max_t:
                        feasible = False
                        break
                    if d == end:
                        break
                    d = (d + 1) % n
                if not feasible:
                    break
                slack += max_l - l_acc
            if not feasible:
                continue
            counters["feasible"] += 1
            objective = params.omega1 * conn_sum + params.omega2 * slack
            if best[0] is not None and objective > best[0][0]:
                continue  # cannot win the comparison below; ties still compare orders
            candidate_order, candidate_flags = _canonical(cycle, cut_after, n)
            entry = (objective, candidate_order, candidate_flags)
            if best[0] is None or entry < best[0]:
                best[0] = entry

    path = [v_star]
    used = {v_star}

    def extend(bc_l: float, bc_t: int) -> None:
        if len(path) == n:
            if arr_slot[path[-1]] == 0:  # v_star leaves the depot, slot 0
                evaluate_cycle(path)
            return
        i = path[-1]
        for j in leaving[arr_slot[i]]:
            if j in used:
                continue
            if arr_at_depot[i]:
                nl, nt = mileage[j], travel[j]
            else:
                nl = bc_l + mileage[j]
                nt = bc_t + waits[dep_time[j] - arr_shifted[i]] + travel[j]
            if nl > max_l or nt > max_t:
                continue  # even with the latest possible maintenance, j overruns
            path.append(j)
            used.add(j)
            extend(nl, nt)
            path.pop()
            used.remove(j)

    if mileage[v_star] <= max_l and travel[v_star] <= max_t:
        extend(mileage[v_star], travel[v_star])

    if best[0] is None:
        return OracleResult(None, None, counters["plans"], counters["feasible"])
    objective, order, flags = best[0]
    return OracleResult(
        best_plan=CirculationPlan(order=order, maint_after=flags),
        best_objective=objective,
        plans_enumerated=counters["plans"],
        feasible_count=counters["feasible"],
    )


def _canonical(cycle: list[int], cut_after: list[int], n: int) -> tuple[tuple, tuple]:
    """Smallest-order plan representation of a cycle with chosen cuts.

    Any cut arc may close the loop; pick the rotation start giving the
    lexicographically smallest order so ties resolve reproducibly.
    """
    cuts = set(cut_after)
    best_order = None
    best_flags = None
    for s in cut_after:
        order = tuple(cycle[(s + 1 + d) % n] for d in range(n))
        if best_order is None or order < best_order:
            flags = tuple(1 if (s + 1 + d) % n in cuts else 0 for d in range(n))
            best_order, best_flags = order, flags
    return best_order, best_flags


@dataclass(frozen=True)
class GapReport:
    oracle_objective: float | None
    heuristic_objective: float | None
    absolute_gap: float | None
    relative_gap: float | None
    oracle_feasible: bool
    heuristic_feasible: bool

    @property
    def consistently_infeasible(self) -> bool:
        return not self.oracle_feasible and self.heuristic_objective is None


def compare(
    instance: TimetableInstance,
    matrices: ConnectionMatrices,
    oracle_result: OracleResult,
    solve_result: SolveResult | None,
) -> GapReport:
    """Gap of the heuristic's best plan against the exact optimum."""
    oracle_feasible = oracle_result.feasible_count > 0
    if solve_result is None:
        return GapReport(oracle_result.best_objective, None, None, None, oracle_feasible, False)
    heur = solve_result.best_fitness
    heur_ok = validate(solve_result.best_plan, instance, matrices).ok
    if not oracle_feasible:
        return GapReport(None, heur, None, None, False, heur_ok)
    exact = oracle_result.best_objective
    absolute = heur - exact
    relative = absolute / max(exact, 1e-9)
    return GapReport(exact, heur, absolute, relative, True, heur_ok)
