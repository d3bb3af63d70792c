"""Train connection network: pairwise connection times and depot eligibility.

Two trains can connect only when the first arrives where the second departs.
The connection time is the departure-minus-arrival gap, pushed to the next
service day (+1440 min) whenever the same-day gap falls below the minimum
turnaround. Pairs meeting at the depot-adjacent station may additionally
carry a maintenance arc. build_matrices is the one place this rule is
computed; everything else reads its result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .timetable import MINUTES_PER_DAY, TimetableInstance


class TrainTables(NamedTuple):
    """Per-train facts the constructor reads at every step, as plain lists
    indexed by train id (entry 0 is padding, so train k sits at entry k)."""

    mileage: list[float]
    travel: list[int]
    arr_at_depot: list[bool]
    arr_station: list[str]
    oversize: int | None  # first train that alone breaks a cycle window


@dataclass(frozen=True)
class ConnectionMatrices:
    """Dense n x n connection data, indexed by train id - 1.

    conn_time is float64 with NaN marking infeasible pairs (including the
    diagonal); theta is int8 in {0, 1}; both are read-only. Use
    feasible()/time() for scalar access; time() refuses infeasible entries.
    departures maps each station to the ids of the trains leaving it,
    ascending: the trains connectable after train i are exactly
    departures[i's arrival station] minus i. tables holds the constructor's
    per-train lists.

    Matrices belong to the instance they were built from: t_connect, the
    depot station and the cycle windows are baked in, so an instance from
    with_params needs its own build_matrices call.
    """

    conn_time: np.ndarray
    theta: np.ndarray
    n: int
    departures: dict[str, tuple[int, ...]]
    tables: TrainTables

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
    """Derive the connection network and the constructor's per-train tables.

    Pair (i, j) connects when i arrives where j departs; its wait is
    dep_j - arr_i, plus 1440 when that falls below t_connect. It is
    maintenance-eligible when that shared station is the depot. A train never
    arrives where it departs, so the diagonal never connects.
    """
    trains = instance.trains
    n = instance.n
    params = instance.params
    depot = instance.maint_station
    departures: dict[str, list[int]] = {}
    for t in trains:  # ordered by id
        departures.setdefault(t.dep_station, []).append(t.id)

    # Only the trains leaving where train i arrives can follow it, so the walk
    # visits the connecting pairs alone. At the n <= 10 of the exact oracle a
    # handful of NumPy array expressions over all n x n pairs costs more than
    # this walk, because every call pays NumPy's fixed overhead.
    conn = np.full((n, n), np.nan)
    theta = np.zeros((n, n), dtype=np.int8)
    t_connect = params.t_connect
    dep_time = [0] + [t.dep_time for t in trains]  # by id
    for i, vi in enumerate(trains):
        at_depot = vi.arr_station == depot
        for j in departures[vi.arr_station]:
            wait = dep_time[j] - vi.arr_time
            conn[i, j - 1] = wait if wait >= t_connect else wait + MINUTES_PER_DAY
            if at_depot:
                theta[i, j - 1] = 1
    conn.setflags(write=False)
    theta.setflags(write=False)

    max_l, max_t = params.max_mileage, params.max_time
    oversize = next(
        (t.id for t in trains if t.mileage > max_l or t.travel_time > max_t), None
    )
    return ConnectionMatrices(
        conn_time=conn,
        theta=theta,
        n=n,
        departures={s: tuple(ids) for s, ids in departures.items()},
        tables=TrainTables(
            mileage=[0.0] + [t.mileage for t in trains],
            travel=[0] + [t.travel_time for t in trains],
            arr_at_depot=[False] + [t.arr_station == depot for t in trains],
            arr_station=[""] + [t.arr_station for t in trains],
            oversize=oversize,
        ),
    )
