"""Dead-simple exhaustive reference, kept independent of the package's
enumerator: connection times, eligibility, accumulation and the objective
are all recomputed here from raw train attributes.
"""

from __future__ import annotations

import itertools


def naive_best(instance):
    """(best objective or None, feasible combination count).

    Enumerates every permutation anchored at the lowest-id depot-departing
    train and, per closed cycle, every nonempty choice of depot arcs to cut
    at; no pruning anywhere.
    """
    n = instance.n
    p = instance.params
    max_l = (1.0 + p.lam) * p.l_cycle
    max_t = (1.0 + p.lam) * p.t_cycle
    trains = {t.id: t for t in instance.trains}
    depot = instance.maint_stations

    def conn(i, j):
        ti, tj = trains[i], trains[j]
        if ti.arr_station != tj.dep_station:
            return None
        gap = (tj.dep_time - ti.arr_time) % 1440
        return gap if gap >= p.t_connect else gap + 1440

    starts = sorted(t.id for t in instance.trains if t.dep_station in depot)
    if not starts:
        return None, 0
    v_star = starts[0]
    rest = [i for i in range(1, n + 1) if i != v_star]

    best = None
    feasible = 0
    for perm in itertools.permutations(rest):
        cycle = (v_star,) + perm
        ctimes = [conn(cycle[d], cycle[(d + 1) % n]) for d in range(n)]
        if any(c is None for c in ctimes):
            continue
        eligible = [
            d
            for d in range(n)
            if trains[cycle[d]].arr_station == trains[cycle[(d + 1) % n]].dep_station
            and trains[cycle[(d + 1) % n]].dep_station in depot
        ]
        for r in range(1, len(eligible) + 1):
            for cuts in itertools.combinations(eligible, r):
                cutset = set(cuts)
                conn_sum = sum(ctimes[d] for d in range(n) if d not in cutset)
                ok = True
                slack = 0.0
                l = t = 0
                fresh = True
                start = (cuts[0] + 1) % n
                for step in range(n):
                    d = (start + step) % n
                    tr = trains[cycle[d]]
                    if fresh:
                        l, t = tr.mileage, tr.travel_time
                        fresh = False
                    else:
                        l += tr.mileage
                        t += ctimes[(d - 1) % n] + tr.travel_time
                    if l > max_l or t > max_t:
                        ok = False
                        break
                    if d in cutset:
                        slack += max_l - l
                        fresh = True
                if not ok:
                    continue
                feasible += 1
                objective = p.omega1 * conn_sum + p.omega2 * slack
                if best is None or objective < best:
                    best = objective
    return best, feasible
