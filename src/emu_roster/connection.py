"""Train connection network: pairwise connection times and depot eligibility.

Two trains can connect only when the first arrives where the second departs.
The connection time is the departure-minus-arrival gap taken modulo a day,
pushed to the next service day (+1440 min) whenever that falls below the
minimum turnaround. Pairs meeting at the depot-adjacent station may
additionally carry a maintenance arc. build_matrices is the one place this
rule is computed; everything else reads its result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import nan
from typing import NamedTuple

import numpy as np

from .timetable import MINUTES_PER_DAY, TimetableInstance

# Every wait lies in [0, 2 * 1440): a gap within one day plus at most one day.
# build_matrices stores the int objects of this tuple, so the n x n waits of
# a network share at most 2,880 objects instead of holding one each.
_WAITS = tuple(range(2 * MINUTES_PER_DAY))
# The reach of a station whose departures are mixed, some depot-bound and
# some not: no window check against NaN holds.
_MIXED = (nan, nan)


class TrainTables(NamedTuple):
    """Per-train facts the constructor and the plan walk read at every step,
    as plain lists indexed by train id (entry 0 is padding, so train k sits at
    entry k)."""

    mileage: list[float]
    travel: list[int]
    arr_at_depot: list[bool]
    arr_station: list[str]


@dataclass(frozen=True)
class ConnectionMatrices:
    """The connection network as plain lists, indexed by train id - 1.

    conn_rows[i][j] is the wait in minutes from train i + 1 to train j + 1,
    or None where the pair cannot connect (the diagonal included). It is the
    one stored form: scalar lookups in the constructive inner loop are several
    times faster on lists than on an ndarray. A connecting pair is
    maintenance-eligible exactly when tables.arr_at_depot[i + 1] holds.
    time() refuses pairs that cannot connect. departures maps each station to
    the ids of the trains leaving it, ascending: the trains connectable after
    train i are exactly departures[i's arrival station] minus i. tables holds
    the per-train lists.

    The constructor's step reads a station by list subscript rather than by
    name: a station's slot is its place in departures, where the depot, which
    some train always leaves, is slot 0. arr_slot and arr_reach, lists by train id
    (entry 0 is padding), give the slot and the reach of the station where
    the train arrives. A station's reach bounds (km, minutes) what one step
    from it adds to a rotation's totals: the largest mileage of the trains
    leaving it, and the longest wait, t_connect + 1439, plus their longest
    travel time. When totals plus that bound fit both windows, every train
    leaving the station fits them too; a station whose departures are mixed,
    some depot-bound and some not, gets (nan, nan), so the bound holds only
    where all of them are of one kind.

    conn_rows, departures, tables and the two lists are derived together and
    are read-only by contract: editing one puts it out of step with the
    others. Freezing the rows as tuples would slow build_matrices.

    Matrices belong to the trains, depot station and t_connect they were
    built from, the only inputs build_matrices reads: an instance from
    with_params that changes t_connect needs its own build_matrices call,
    one that changes only the cycle windows, lambda or the weights does not.
    """

    conn_rows: list[list[int | None]]
    departures: dict[str, tuple[int, ...]]
    tables: TrainTables
    arr_slot: list[int]
    arr_reach: list[tuple[float, float]]

    def time(self, i: int, j: int) -> int:
        wait = self.conn_rows[i][j]
        if wait is None:
            raise ValueError(f"trains {i + 1} and {j + 1} cannot connect")
        return wait

    def dump_tsv(self, which: str = "conn") -> str:
        """Tab-separated dump with 'INF' in place of infeasible entries."""
        if which == "conn":
            rows = [
                "\t".join("INF" if w is None else str(w) for w in row) for row in self.conn_rows
            ]
        elif which == "theta":
            at_depot = self.tables.arr_at_depot
            rows = [
                "\t".join("1" if at_depot[i] and w is not None else "0" for w in row)
                for i, row in enumerate(self.conn_rows, start=1)
            ]
        else:
            raise ValueError("which must be 'conn' or 'theta'")
        return "\n".join(rows) + "\n"

    @cached_property
    def conn_time(self) -> np.ndarray:
        """conn_rows as a read-only float64 array with NaN where a pair cannot
        connect, built on first use for array code outside the package."""
        conn = np.array(self.conn_rows, dtype=np.float64)
        conn.setflags(write=False)
        return conn


def build_matrices(instance: TimetableInstance) -> ConnectionMatrices:
    """Derive the connection network and the per-train tables.

    Pair (i, j) connects when i arrives where j departs; its wait is
    (dep_j - arr_i) mod 1440, plus 1440 when that falls below t_connect, so it
    lies in [t_connect, t_connect + 1440). It is maintenance-eligible when
    that shared station is the depot. A train never arrives where it departs,
    so the diagonal never connects. A station's reach bounds the mileage and
    the wait plus travel of every pair that connects through it.
    """
    trains = instance.trains
    n = instance.n
    depot = instance.maint_station
    departures: dict[str, list[int]] = {depot: []}  # the depot first: slot 0
    for t in trains:  # ordered by id
        departures.setdefault(t.dep_station, []).append(t.id)

    # Only the trains leaving where train i arrives can follow it, so the walk
    # visits the connecting pairs alone. At the n <= 10 of the exact oracle a
    # handful of NumPy array expressions over all n x n pairs costs more than
    # this walk, because every call pays NumPy's fixed overhead.
    t_connect = instance.params.t_connect
    dep_time = [0] + [t.dep_time for t in trains]  # by id
    rows: list[list[int | None]] = []
    for vi in trains:
        row: list[int | None] = [None] * n
        arr = vi.arr_time
        for j in departures[vi.arr_station]:
            wait = (dep_time[j] - arr) % MINUTES_PER_DAY
            row[j - 1] = _WAITS[wait if wait >= t_connect else wait + MINUTES_PER_DAY]
        rows.append(row)

    tables = TrainTables(
        mileage=[0.0] + [t.mileage for t in trains],
        travel=[0] + [t.travel_time for t in trains],
        arr_at_depot=[False] + [t.arr_station == depot for t in trains],
        arr_station=[""] + [t.arr_station for t in trains],
    )
    mileage, travel, at_depot = tables.mileage, tables.travel, tables.arr_at_depot
    longest_wait = t_connect + MINUTES_PER_DAY - 1
    reach = {}
    for s, ids in departures.items():
        if len(set(map(at_depot.__getitem__, ids))) > 1:
            reach[s] = _MIXED
        else:
            reach[s] = (max(map(mileage.__getitem__, ids)),
                        longest_wait + max(map(travel.__getitem__, ids)))
    slot = {s: k for k, s in enumerate(departures)}
    return ConnectionMatrices(
        conn_rows=rows,
        departures={s: tuple(ids) for s, ids in departures.items()},
        tables=tables,
        arr_slot=[0] + [slot[t.arr_station] for t in trains],
        arr_reach=[_MIXED] + [reach[t.arr_station] for t in trains],
    )
