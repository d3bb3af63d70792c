"""Train connection network: pairwise connection times and depot eligibility.

Two trains can connect only when the first arrives where the second departs.
The connection time is the departure-minus-arrival gap taken modulo a day,
pushed to the next service day (+1440 min) whenever that falls below the
minimum turnaround. Pairs meeting at the depot-adjacent station may
additionally carry a maintenance arc. timetable._wait_table is the one place
this rule is written; build_matrices keeps its table with the per-train
lists that index it, and every reader looks up the wait of each pair it
reads there, as does generate_instance before any network exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import nan
from typing import NamedTuple

import numpy as np

from .timetable import MINUTES_PER_DAY, TimetableInstance, _wait_table


# The reach of a station whose departures are mixed, some depot-bound and
# some not: no window check against NaN holds.
_MIXED = (nan, nan)


class TrainTables(NamedTuple):
    """Per-train facts the constructor and the plan walk read at every step,
    as plain lists indexed by train id (entry 0 is padding, so train k sits at
    entry k). Where a train arrives is ConnectionMatrices.arr_slot."""

    mileage: list[float]
    travel: list[int]
    arr_at_depot: list[bool]


@dataclass(frozen=True)
class ConnectionMatrices:
    """The connection network as per-train lists, indexed by train id (entry
    0 is padding, so train k sits at entry k), and one table of waits.

    A station's slot is its place in departures, which maps each station to
    the ids of the trains leaving it, ascending; the depot, which some train
    always leaves, is slot 0. dep_slot and arr_slot give the slot of the
    station where each train departs and arrives (dep_slot's padding, -1,
    is no slot). Train i connects to train j exactly when
    dep_slot[j] == arr_slot[i], so the trains connectable after i are
    departures[its arrival station] minus i; no train departs where it
    arrives, so the diagonal never connects. The wait of a connecting pair
    is waits[dep_time[j] - arr_shifted[i]]: waits is the table of
    _wait_table(t_connect), dep_time each train's departure minute and
    arr_shifted its arrival minute less a day, the offset the table's index
    takes. time() makes that lookup and refuses pairs that cannot connect.
    A connecting pair is maintenance-eligible exactly when
    tables.arr_at_depot[i] holds. tables holds the other per-train lists.

    arr_reach, by train id, gives the reach of the station where the train
    arrives. A station's reach bounds (km, minutes) what one step from it
    adds to a rotation's totals: the largest mileage of the trains leaving
    it, and the longest wait, t_connect + 1439, plus their longest travel
    time. When totals plus that bound fit both windows, every train leaving
    the station fits them too; a station whose departures are mixed, some
    depot-bound and some not, gets (nan, nan), so the bound holds only where
    all of them are of one kind.

    The fields are derived together and are read-only by contract: editing
    one puts it out of step with the others, and plan.validate, whose memo
    is keyed by the matrices' identity, would answer from its last report.
    A changed network needs a new build_matrices call. conn_rows and
    conn_time, built on first use, are copies that nothing in the package
    reads.

    Matrices belong to the trains, depot station and t_connect they were
    built from, the only inputs build_matrices reads: an instance from
    with_params that changes t_connect needs its own build_matrices call,
    one that changes only the cycle windows, lambda or the weights does not.
    """

    departures: dict[str, tuple[int, ...]]
    tables: TrainTables
    dep_slot: list[int]
    arr_slot: list[int]
    dep_time: list[int]
    arr_shifted: list[int]
    waits: tuple[int, ...]
    arr_reach: list[tuple[float, float]]

    def time(self, i: int, j: int) -> int:
        """The wait from train i + 1 to train j + 1. Raises IndexError for an
        index outside 0..n - 1, which would read the lists' padding."""
        a, b = i + 1, j + 1
        if not (0 < a < len(self.dep_slot) and 0 < b < len(self.dep_slot)):
            raise IndexError(f"train index out of range: ({i}, {j})")
        if self.dep_slot[b] != self.arr_slot[a]:
            raise ValueError(f"trains {a} and {b} cannot connect")
        return self.waits[self.dep_time[b] - self.arr_shifted[a]]

    @cached_property
    def conn_rows(self) -> list[list[int | None]]:
        """conn_rows[i][j] is the wait from train i + 1 to train j + 1, or None
        where the pair cannot connect (the diagonal included): the lookup of
        time() over all pairs, built on first use for dump_tsv, conn_time and
        code outside the package. The waits are the table's own int objects."""
        waits, dep_slot, dep_time = self.waits, self.dep_slot, self.dep_time
        ids = range(1, len(dep_slot))
        return [[waits[dep_time[j] - arr] if dep_slot[j] == slot else None for j in ids]
                for slot, arr in zip(self.arr_slot[1:], self.arr_shifted[1:])]

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
    lies in [t_connect, t_connect + 1440). No pair is visited here: each
    train's slots and minutes are stored, and a reader looks a pair's wait up
    in the table of _wait_table, one subtraction and one index. A pair is
    maintenance-eligible when its shared station is the depot. A station's
    reach bounds the mileage and the wait plus travel of every pair that
    connects through it.
    """
    trains = instance.trains
    depot = instance.maint_station
    departures: dict[str, list[int]] = {depot: []}  # the depot first: slot 0
    for t in trains:  # ordered by id
        departures.setdefault(t.dep_station, []).append(t.id)

    t_connect = instance.params.t_connect
    tables = TrainTables(
        mileage=[0.0] + [t.mileage for t in trains],
        travel=[0] + [t.travel_time for t in trains],
        arr_at_depot=[False] + [t.arr_station == depot for t in trains],
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
        departures={s: tuple(ids) for s, ids in departures.items()},
        tables=tables,
        dep_slot=[-1] + [slot[t.dep_station] for t in trains],
        arr_slot=[0] + [slot[t.arr_station] for t in trains],
        dep_time=[0] + [t.dep_time for t in trains],
        arr_shifted=[0] + [t.arr_time - MINUTES_PER_DAY for t in trains],
        waits=_wait_table(t_connect),
        arr_reach=[_MIXED] + [reach[t.arr_station] for t in trains],
    )
