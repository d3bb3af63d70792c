"""Train connection network: pairwise connection times and depot eligibility.

Two trains can connect only when the first arrives where the second departs.
The connection time is the departure-minus-arrival gap, pushed to the next
service day (+1440 min) whenever the same-day gap falls below the minimum
turnaround. Pairs meeting at the depot-adjacent station may additionally
carry a maintenance arc.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .timetable import MINUTES_PER_DAY, TimetableInstance, Train

# Sentinel for "these trains cannot connect". Deliberately not a large finite
# number: arithmetic on None raises immediately instead of producing a
# plausible-looking total.
INFEASIBLE = None


def connection_time(vi: Train, vj: Train, t_connect: int) -> int | None:
    """Minutes an EMU waits between serving vi and then vj, or INFEASIBLE.

    Same-station pairs always connect: gaps shorter than t_connect roll over
    to the following day, so the result lies in [t_connect, t_connect + 1440).
    """
    if vi.arr_station != vj.dep_station:
        return INFEASIBLE
    gap = vj.dep_time - vi.arr_time
    if gap >= t_connect:
        return gap
    return gap + MINUTES_PER_DAY


def maintenance_eligible(vi: Train, vj: Train, maint_stations: frozenset[str]) -> int:
    """1 when a maintenance slot may separate vi and vj, else 0.

    Requires the handover station (vi's arrival = vj's departure) to be the
    depot-adjacent one.
    """
    if vi.arr_station == vj.dep_station and vj.dep_station in maint_stations:
        return 1
    return 0


@dataclass(frozen=True)
class ConnectionMatrices:
    """Dense n x n connection data, indexed by train id - 1.

    conn_time is float64 with NaN marking infeasible pairs (including the
    diagonal); theta is int8 in {0, 1}. Use feasible()/time() for scalar
    access; time() refuses infeasible entries. departures maps each station
    to the ids of the trains leaving it, ascending: the trains connectable
    after train i are exactly departures[i's arrival station] minus i.
    """

    conn_time: np.ndarray
    theta: np.ndarray
    n: int
    departures: dict[str, tuple[int, ...]]

    def feasible(self, i: int, j: int) -> bool:
        return not np.isnan(self.conn_time[i, j])

    def time(self, i: int, j: int) -> int:
        v = self.conn_time[i, j]
        if np.isnan(v):
            raise ValueError(f"trains {i + 1} and {j + 1} cannot connect")
        return int(v)

    def dump_tsv(self, which: str = "conn") -> str:
        """Tab-separated dump with 'INF' in place of infeasible entries."""
        if which == "conn":
            rows = [
                "\t".join("INF" if np.isnan(v) else str(int(v)) for v in row)
                for row in self.conn_time
            ]
        elif which == "theta":
            rows = ["\t".join(str(int(v)) for v in row) for row in self.theta]
        else:
            raise ValueError("which must be 'conn' or 'theta'")
        return "\n".join(rows) + "\n"

    @cached_property
    def conn_rows(self) -> list[list[int | None]]:
        """Connection times as plain nested lists (None = infeasible).

        Scalar lookups in the constructive inner loop are several times
        faster on lists than on the ndarray. Built on first use rather than
        in build_matrices, so matrices that nothing walks do not hold n x n
        Python ints.
        """
        return [[None if v != v else int(v) for v in row] for row in self.conn_time.tolist()]


def build_matrices(instance: TimetableInstance) -> ConnectionMatrices:
    """Evaluate connection time and maintenance eligibility for every pair."""
    n = instance.n
    conn = np.full((n, n), np.nan)
    theta = np.zeros((n, n), dtype=np.int8)
    t_connect = instance.params.t_connect
    maint = instance.maint_stations
    for i, vi in enumerate(instance.trains):
        for j, vj in enumerate(instance.trains):
            if i == j:
                continue
            c = connection_time(vi, vj, t_connect)
            if c is not INFEASIBLE:
                conn[i, j] = c
            theta[i, j] = maintenance_eligible(vi, vj, maint)
    conn.setflags(write=False)
    theta.setflags(write=False)
    departures: dict[str, list[int]] = {}
    for t in instance.trains:  # ordered by id
        departures.setdefault(t.dep_station, []).append(t.id)
    return ConnectionMatrices(
        conn_time=conn,
        theta=theta,
        n=n,
        departures={s: tuple(ids) for s, ids in departures.items()},
    )
