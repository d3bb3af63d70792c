import hashlib
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from emu_roster import (
    ConnectionMatrices,
    ModelParams,
    SwarmConfig,
    TimetableInstance,
    Train,
    brute_force,
    build_matrices,
    generate_instance,
    plan_summary,
    render_dot,
    render_plan,
    solve,
    validate,
)
from emu_roster.connection import _wait_table
from emu_roster.timetable import _WAITS

T_CONNECT = 20


def train(tid, dep, dep_hm, arr, arr_hm, km=300.0):
    dep_t = 60 * int(dep_hm[:2]) + int(dep_hm[3:])
    arr_t = 60 * int(arr_hm[:2]) + int(arr_hm[3:])
    return Train(tid, dep, dep_t, arr, arr_t, km, arr_t - dep_t)


def instance(*trains, maint="B"):
    """A flow-balanced instance made of trains."""
    return TimetableInstance(
        trains=trains,
        maint_station=maint,
        params=ModelParams(t_connect=T_CONNECT),
    )


def network(*trains, maint="B"):
    """build_matrices of a flow-balanced instance made of trains."""
    return build_matrices(instance(*trains, maint=maint))


def eligible(inst, m):
    """Maintenance-eligible pairs (ids), read from the timetable itself: train
    i arrives at the depot station and the pair connects."""
    return {
        (i, j)
        for i in range(1, inst.n + 1)
        for j in range(1, inst.n + 1)
        if inst.train(i).arr_station == inst.maint_station and m.conn_rows[i - 1][j - 1] is not None
    }


def theta_ones(m):
    """Pairs (ids) that dump_tsv("theta") marks eligible."""
    return {
        (i, j)
        for i, line in enumerate(m.dump_tsv("theta").splitlines(), start=1)
        for j, v in enumerate(line.split("\t"), start=1)
        if v == "1"
    }


def test_station_mismatch_is_infeasible():
    m = network(
        train(1, "B", "08:00", "A", "10:00"),
        train(2, "C", "10:30", "B", "12:00"),
        train(3, "A", "12:30", "C", "14:00"),
    )
    assert m.conn_rows[0][1] is None  # 1 arrives at A, 2 leaves C


def test_same_day_connection():
    m = network(train(1, "B", "08:00", "A", "10:00"), train(2, "A", "10:40", "B", "12:00"))
    assert m.conn_rows[0][1] == 40


def test_too_tight_rolls_to_next_day():
    m = network(train(1, "B", "08:00", "A", "10:00"), train(2, "A", "10:10", "B", "12:00"))
    assert m.conn_rows[0][1] == 1450


def test_result_bounds_property():
    # every feasible value lies in [t_connect, t_connect + 1440)
    rng = np.random.default_rng(0)
    times = [(1320, 1435, 5, 60)]  # arrive 23:55, leave 00:05: 10 min, rolled to 1450
    for _ in range(1000):
        a = int(rng.integers(0, 1438))
        arr = int(rng.integers(a + 1, 1440))
        d = int(rng.integers(0, 1438))
        dep = int(rng.integers(d + 1, 1440))
        times.append((a, arr, d, dep))
    for a, arr, d, dep in times:
        vi = Train(1, "B", a, "A", arr, 100.0, max(arr - a, 1))
        vj = Train(2, "A", d, "B", dep, 100.0, max(dep - d, 1))
        c = network(vi, vj).conn_rows[0][1]
        assert c is not None
        assert T_CONNECT <= c < T_CONNECT + 1440


def test_exactly_one_case_applies():
    # the three outcomes partition all pairs: mismatch, direct, wrapped
    m = network(
        train(1, "B", "08:00", "A", "10:00"),
        train(2, "A", "10:40", "B", "12:00"),  # direct
        train(3, "A", "10:05", "B", "12:00"),  # wrapped
        train(4, "C", "10:40", "B", "12:00"),  # elsewhere
        train(5, "B", "13:00", "A", "15:00"),  # 5 and 6 balance A and C
        train(6, "B", "13:00", "C", "15:00"),
    )
    outcomes = m.conn_rows[0][1:4]
    assert outcomes[0] == 40
    assert outcomes[1] == 1445
    assert outcomes[2] is None


def test_maintenance_eligibility():
    inst = instance(
        train(1, "A", "08:00", "C", "10:00"),
        train(2, "C", "10:40", "A", "12:00"),
        train(3, "B", "10:40", "C", "12:00"),
        train(4, "C", "13:00", "B", "15:00"),
        maint="C",
    )
    m = build_matrices(inst)
    pairs = eligible(inst, m)
    assert (1, 2) in pairs  # hand over at the depot C
    assert (2, 1) not in pairs  # meet at A, not depot
    assert (2, 3) not in pairs  # stations differ
    # eligible exactly where a train arriving at C hands over to one leaving C
    assert pairs == {(1, 2), (1, 4), (3, 2), (3, 4)}
    assert m.tables.arr_at_depot == [False, True, False, True, False]
    assert theta_ones(m) == pairs


# SHA-256 of dump_tsv("conn") + dump_tsv("theta"), recorded when
# build_matrices still evaluated every pair in a Python loop. n500 and
# n100_t_connect_180 were re-recorded when a gap across midnight below
# t_connect began to roll over to the next day (9 and 42 waits changed, each
# by +1440). At t_connect=180 most waits at the turnbacks roll over.
GOLDEN_MATRICES = {
    "n6": ((3, 2, 1, ModelParams()),
           "522a67e1d7833340e8eee51733c8a8deb439c28353ecd0cafce6ee1c743241de"),
    "n100": ((50, 4, 2, ModelParams()),
             "52b832d606ba8ee811257490fa0dcfdfe8ea0d6377e88de2125268de00ebcc4a"),
    "n500": ((250, 6, 3, ModelParams()),
             "c90cfd0e70a221bd53577816229b77f6f5b11e3d95402718703d2ccb7f78f78e"),
    "n100_t_connect_180": ((50, 3, 4, ModelParams(t_connect=180)),
                           "ae0124bba10f72bf91f6f75a9444d361e2f0e10dd3ca0b6520a000f4d89a1aba"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_MATRICES))
def test_golden_matrices(case):
    (pairs, turnbacks, seed, params), sha = GOLDEN_MATRICES[case]
    m = build_matrices(generate_instance(pairs, turnbacks, seed, params))
    text = m.dump_tsv("conn") + m.dump_tsv("theta")
    assert hashlib.sha256(text.encode()).hexdigest() == sha
    # conn_time is a read-only float64 view, NaN exactly where no connection is
    assert m.conn_time.dtype == np.float64
    assert not m.conn_time.flags.writeable
    none = np.array([[w is None for w in row] for row in m.conn_rows])
    assert np.array_equal(np.isnan(m.conn_time), none)
    assert np.array_equal(m.conn_time[~none], [w for row in m.conn_rows for w in row if w is not None])


# t_connect at both ends of its range, the default, the generator's largest
# turnaround, and a whole float, which ModelParams accepts
TABLE_T_CONNECT = (1, 20, 180, 1439, 1440, 30.0)


def rule(gap, t_connect):
    """The rollover rule as documented: the gap taken modulo a day, plus a day
    when that falls below t_connect, as the _WAITS object of that value."""
    wait = gap % 1440
    return _WAITS[wait + 1440 * (wait < t_connect)]


@pytest.mark.parametrize("t_connect", TABLE_T_CONNECT)
def test_wait_table_is_the_modular_rule(t_connect):
    t_connect = ModelParams(t_connect=t_connect).t_connect  # the table is keyed by this int
    assert type(t_connect) is int
    table = _wait_table(t_connect)
    assert len(table) == 2880
    for gap in range(-1439, 1440):
        assert table[gap + 1440] is rule(gap, t_connect), gap


def pairwise_rows(inst):
    """conn_rows restated as a walk over all n x n pairs with the rule above."""
    t_connect = inst.params.t_connect
    return [[rule(vj.dep_time - vi.arr_time, t_connect) if vi.arr_station == vj.dep_station
             else None for vj in inst.trains] for vi in inst.trains]


@pytest.mark.parametrize("t_connect", TABLE_T_CONNECT)
def test_rows_match_a_pairwise_walk(fig1, t_connect):
    # fig1 and paired timetables of n = 6, 8, 10, 100 and 500
    for inst in (fig1, generate_instance(3, 2, 1), generate_instance(4, 2, 3),
                 generate_instance(5, 3, 2), generate_instance(50, 4, 2),
                 generate_instance(250, 6, 3)):
        inst = inst.with_params(t_connect=t_connect)
        m = build_matrices(inst)
        rows = m.conn_rows
        expected = pairwise_rows(inst)
        assert rows == expected
        # the very same int objects, not equal copies
        assert all(a is b for row, exp in zip(rows, expected) for a, b in zip(row, exp))
        if inst.n > 100:
            continue  # 250,000 pairs: the rows above cover them
        # time() looks up every pair itself, not through the rows
        for i, row in enumerate(expected):
            for j, wait in enumerate(row):
                try:
                    assert m.time(i, j) is wait, (i, j)
                except ValueError:
                    assert wait is None, (i, j)


_REFUSAL = re.compile(r"pair 1 \(trains 1 and 2\) needs [\d.]+ km and (\d+) min")


@pytest.mark.parametrize("t_connect", [20, 180, 1440])
def test_generator_pair_check_agrees_with_the_network(t_connect):
    # generate_instance restates the rollover rule for each pair's turnaround
    # before any network exists; its minutes must be the network's. One pair
    # per seed, so the window can be set at that pair's minutes.
    turnarounds = set()
    for seed in range(300):
        inst = generate_instance(1, 1, seed, ModelParams(t_connect=t_connect))
        out, back = inst.trains
        turnarounds.add(back.dep_time - out.arr_time)
        minutes = 2 * out.travel_time + build_matrices(inst).conn_rows[0][1]
        assert minutes <= inst.params.max_time
        # a time window of exactly those minutes accepts the pair; the window
        # takes no draw, so the same trains come out
        exact = ModelParams(t_connect=t_connect, lam=0.0, t_cycle=minutes)
        assert generate_instance(1, 1, seed, exact).trains == inst.trains
        # one minute less refuses it, naming those minutes
        tight = ModelParams(t_connect=t_connect, lam=0.0, t_cycle=minutes - 1)
        with pytest.raises(ValueError) as refused:
            generate_instance(1, 1, seed, tight)
        match = _REFUSAL.match(str(refused.value))
        assert match and int(match[1]) == minutes, str(refused.value)
    # the seeds reach both ends of the 20..180 turnarounds, where a rule that
    # compared with > instead of >= would disagree at t_connect 20 and 180
    assert {20, 180} <= turnarounds


def test_readers_build_no_rows(fig1):
    # every reader in the package looks each wait up; none builds the n x n
    # rows or the array derived from them
    inst = generate_instance(4, 2, 3)  # n = 8
    m = build_matrices(inst)
    plan = solve(inst, m, SwarmConfig(n_particles=4, k_max=20, seed=1)).best_plan
    assert validate(plan, inst, m).ok
    plan_summary(plan, inst, m)
    render_plan(plan, inst, m)
    render_dot(plan, inst, m)
    brute_force(inst, m)
    assert "conn_rows" not in vars(m) and "conn_time" not in vars(m)
    # n = 100; fig1, whose multi-leg chains dead-end and restart
    for inst in (generate_instance(50, 4, 2), fig1):
        m = build_matrices(inst)
        solve(inst, m, SwarmConfig(n_particles=4, k_max=5, seed=1))
        assert "conn_rows" not in vars(m) and "conn_time" not in vars(m)


def test_rows_share_wait_objects():
    # every wait of a network is one of 2,880 shared int objects, so n x n
    # rows cost pointers, not one int each
    m = build_matrices(generate_instance(250, 6, 3))
    assert len({id(w) for row in m.conn_rows for w in row if w is not None}) <= 2880


def test_fig1_theta_entries(fig1, fig1_matrices):
    # arrivals at C: 4, 8, 12; departures from C: 1, 5, 9
    expected = {(i, j) for i in (4, 8, 12) for j in (1, 5, 9)}
    assert eligible(fig1, fig1_matrices) == expected
    assert theta_ones(fig1_matrices) == expected


def test_two_train_matrix(two_train):
    m = build_matrices(two_train)
    feasible = [(i, j) for i in range(2) for j in range(2) if m.conn_rows[i][j] is not None]
    assert feasible == [(0, 1), (1, 0)]
    assert m.time(0, 1) == 60  # arrive X 10:00, leave X 11:00
    assert m.time(1, 0) == 8 * 60 - 13 * 60 + 1440  # overnight back through C
    assert eligible(two_train, m) == {(2, 1)}


def test_theta_implies_feasible(fig1_matrices):
    for i, j in theta_ones(fig1_matrices):
        assert fig1_matrices.conn_rows[i - 1][j - 1] is not None


def test_diagonal_unused(fig1, fig1_matrices):
    assert all(fig1_matrices.conn_rows[i][i] is None for i in range(fig1.n))
    assert all((i, i) not in theta_ones(fig1_matrices) for i in range(1, fig1.n + 1))


def test_time_refuses_infeasible(fig1_matrices):
    with pytest.raises(ValueError, match="cannot connect"):
        fig1_matrices.time(0, 0)
    # train 12 arrives at C, where train 1 leaves: -1 must not wrap round to it
    assert fig1_matrices.time(11, 0) is not None
    for i, j in ((-1, 0), (0, -1), (12, 0), (0, 12)):
        with pytest.raises(IndexError, match="out of range"):
            fig1_matrices.time(i, j)


def test_dump_tsv_uses_inf(two_train):
    m = build_matrices(two_train)
    rows = m.dump_tsv().splitlines()
    assert rows[0].split("\t") == ["INF", "60"]
    assert rows[1].split("\t")[1] == "INF"


def test_dump_tsv_theta_and_bad_kind(two_train):
    m = build_matrices(two_train)
    assert m.dump_tsv("theta").splitlines() == ["0\t0", "1\t0"]
    with pytest.raises(ValueError, match="conn"):
        m.dump_tsv("nonsense")


def test_matrices_deterministic(fig1):
    a, b = build_matrices(fig1), build_matrices(fig1)
    assert a.conn_rows == b.conn_rows
    assert a.dump_tsv("theta") == b.dump_tsv("theta")


def test_station_slots_by_train_id(fig1):
    # fig1, paired timetables of n = 8 and n = 500, and one whose train 1 leaves
    # another station than the depot
    away_first = instance(train(1, "A", "06:00", "C", "07:00"),
                          train(2, "C", "08:00", "A", "09:00"), maint="C")
    for inst in (fig1, generate_instance(4, 4, seed=3), generate_instance(250, 4, seed=3),
                 away_first):
        m = build_matrices(inst)
        # a station's slot is its place in departures, which lists the depot first
        slots = list(m.departures)
        assert slots[0] == inst.maint_station
        assert m.arr_slot[0] == 0 and len(m.arr_slot) == len(m.arr_reach) == inst.n + 1
        longest_wait = inst.params.t_connect + 1439
        for k in range(1, inst.n + 1):
            s = inst.train(k).arr_station
            assert slots[m.arr_slot[k]] == s
            # the reach, recomputed from the trains leaving s
            leaving = [t for t in inst.trains if t.dep_station == s]
            if len({t.arr_station == inst.maint_station for t in leaving}) > 1:
                assert all(math.isnan(x) for x in m.arr_reach[k])
            else:
                assert m.arr_reach[k] == (max(t.mileage for t in leaving),
                                          longest_wait + max(t.travel_time for t in leaving))
    # fig1's A and B send trains both to the depot and away
    m = build_matrices(fig1)
    mixed = [k for k in range(1, fig1.n + 1) if fig1.train(k).arr_station in "AB"]
    assert mixed and all(math.isnan(m.arr_reach[k][0]) for k in mixed)


def test_matrices_read_only_t_connect_and_the_depot():
    # a paired timetable: no station is mixed, so no NaN reach defeats ==
    inst = generate_instance(20, 3, seed=5)
    other = inst.with_params(l_cycle=6000.0, t_cycle=4000.0, lam=0.1, omega1=2.0,
                             omega2=0.5, beta=20.0)
    a, b = build_matrices(inst), build_matrices(other)
    for f in fields(ConnectionMatrices):
        assert getattr(a, f.name) == getattr(b, f.name), f.name
    assert build_matrices(inst.with_params(t_connect=30)).conn_rows != a.conn_rows
