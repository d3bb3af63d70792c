"""Acceptance gate: one test per shipping criterion, each printing a PASS or
FAIL line (run with -s to see them). The heavy swarm suite is computed once
and shared by the criteria that grade it.
"""

import functools
import re
import time
from pathlib import Path

import numpy as np
import pytest

from naive_oracle import naive_best

from emu_roster import (
    SwarmConfig,
    Train,
    brute_force,
    build_matrices,
    construct,
    decode,
    decode_rotations,
    fitness_value,
    generate_instance,
    inertia_weight,
    objective_value,
    parse_plan,
    parse_timetable,
    solve,
    update_position,
    update_velocity,
    validate,
)
from emu_roster.cli import main
from emu_roster.pso import _philox_key, substream

FIG1 = "tests/data/fig1.timetable"


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nFAIL: {name}")
                raise
            print(f"\nPASS: {name}")

        return wrapper

    return deco


# --- shared heavy suite -------------------------------------------------------

@pytest.fixture(scope="module")
def swarm_suite():
    """50 paired instances with n in {4, 6, 8} (seeds 1..50), each solved by
    the swarm at default strength and by exact enumeration."""
    runs = []
    t0 = time.perf_counter()
    for seed in range(1, 51):
        n_pairs = 2 + (seed - 1) % 3
        inst = generate_instance(n_pairs, 1 + seed % 2, seed=seed)
        matrices = build_matrices(inst)
        result = solve(inst, matrices, SwarmConfig(n_particles=30, k_max=500, seed=seed))
        exact = brute_force(inst, matrices)
        runs.append((inst, matrices, result, exact))
    return runs, time.perf_counter() - t0


# --- criteria -----------------------------------------------------------------

@criterion("oracle equivalence: pruned enumerator == naive enumerator, n in {2,4,6}")
def test_oracle_equivalence_small_instances():
    t0 = time.perf_counter()
    for seed in range(1, 101):
        n_pairs = 1 + (seed - 1) % 3
        inst = generate_instance(n_pairs, 1 + seed % 2, seed=seed)
        matrices = build_matrices(inst)
        pruned = brute_force(inst, matrices)
        naive_obj, naive_count = naive_best(inst)
        assert pruned.feasible_count == naive_count, f"seed {seed}: feasible counts differ"
        if naive_obj is None:
            assert pruned.best_objective is None, f"seed {seed}"
        else:
            assert abs(pruned.best_objective - naive_obj) <= 1e-9, (
                f"seed {seed}: {pruned.best_objective} vs {naive_obj}"
            )
    elapsed = time.perf_counter() - t0
    print(f"\n  100 instances in {elapsed:.1f}s")
    assert elapsed < 30.0


@criterion("heuristic quality: 100% feasible, within 5% of optimum in >= 90% of runs")
def test_heuristic_quality(swarm_suite):
    runs, elapsed = swarm_suite
    feasible = 0
    within_5pct = 0
    for inst, matrices, result, exact in runs:
        ok = validate(result.best_plan, inst, matrices).ok
        feasible += ok
        assert exact.feasible_count > 0
        gap = (result.best_fitness - exact.best_objective) / max(exact.best_objective, 1e-9)
        assert gap >= -1e-9, "heuristic beat the exact optimum: enumeration bug"
        if gap <= 0.05:
            within_5pct += 1
    print(f"\n  feasible {feasible}/50, within 5% {within_5pct}/50, solve+oracle {elapsed:.1f}s")
    assert feasible == 50
    assert within_5pct >= 45
    assert elapsed < 120.0


@criterion("maintenance-cycle conformance: mileage and time windows hold at every position")
def test_maintenance_cycle_conformance(swarm_suite):
    runs, _ = swarm_suite
    violations = 0
    for inst, matrices, result, _ in runs:
        plan = result.best_plan
        max_l = 1.05 * 4000.0
        max_t = 1.05 * 2880.0
        assert inst.params.max_mileage == max_l and inst.params.max_time == max_t
        km = mins = 0
        for d, tid in enumerate(plan.order):
            train = inst.train(tid)
            if d == 0 or plan.maint_after[d - 1]:
                km, mins = train.mileage, train.travel_time
            else:
                km += train.mileage
                mins += matrices.time(plan.order[d - 1] - 1, tid - 1) + train.travel_time
            violations += km > max_l
            violations += mins > max_t
    print(f"\n  accumulation violations across 50 plans: {violations}")
    assert violations == 0


@criterion("formula unit values: connection cases, accumulation, inertia, rounding, boundary")
def test_formula_unit_values():
    from emu_roster import CirculationPlan, ModelParams, TimetableInstance

    # three-way connection-time case split, hand evaluated
    vi = Train(1, "B", 8 * 60, "A", 10 * 60, 100.0, 120)
    direct = Train(2, "A", 10 * 60 + 40, "B", 12 * 60, 100.0, 80)
    tight = Train(3, "A", 10 * 60 + 10, "B", 12 * 60, 100.0, 110)
    away = Train(4, "C", 10 * 60 + 40, "B", 12 * 60, 100.0, 80)
    cases = TimetableInstance(
        trains=(vi, direct, tight, away,
                # two more trains balance the flow at A and C
                Train(5, "B", 13 * 60, "A", 15 * 60, 100.0, 120),
                Train(6, "B", 13 * 60, "C", 15 * 60, 100.0, 120)),
        maint_station="B",
        params=ModelParams(t_connect=20),
    )
    conn = build_matrices(cases).conn_rows
    assert conn[0][1] == 40
    assert conn[0][2] == 1450
    assert conn[0][3] is None

    # accumulation: a maintenance arc resets, an ordinary arc adds wait + travel
    pair = TimetableInstance(
        trains=(vi, Train(2, "A", 10 * 60 + 40, "B", 12 * 60, 500.0, 80)),
        maint_station="B",
        params=ModelParams(),
    )
    pair_m = build_matrices(pair)
    ordinary = decode_rotations(CirculationPlan((1, 2), (0, 1)), pair, pair_m)
    assert [(r.total_mileage, r.total_time) for r in ordinary] == [(600.0, 240)]
    reset = decode_rotations(CirculationPlan((1, 2), (1, 1)), pair, pair_m)
    assert [(r.total_mileage, r.total_time) for r in reset] == [(100.0, 120), (500.0, 80)]

    # inertia endpoints
    cfg = SwarmConfig(w_max=0.9, w_min=0.4, k_max=100)
    assert inertia_weight(0, cfg) == 0.9
    assert inertia_weight(cfg.k_max, cfg) == 0.4

    # position rounding and clamping at both boundaries
    assert update_position(12, 5.0, 12) == 12
    assert update_position(1, -7.3, 12) == 1
    assert update_position(3, 1.4, 12) == 4

    # velocity hand value
    assert update_velocity(1.0, 4, 5, 3, 0.8, 2, 2, 0.5, 0.5, -10, 10) == 0.8

    # a rotation exactly at the mileage allowance adds nothing to the fitness
    boundary = TimetableInstance(
        trains=(
            Train(1, "C", 8 * 60, "X", 10 * 60, 2100.0, 120),
            Train(2, "X", 10 * 60 + 40, "C", 12 * 60 + 40, 2100.0, 120),
        ),
        maint_station="C",
        params=ModelParams(),
    )
    plan = CirculationPlan(order=(1, 2), maint_after=(0, 1))
    assert fitness_value(plan, boundary, build_matrices(boundary)) == 40.0


@criterion("structural invariants hold over >= 1000 randomized cases each")
def test_structural_invariants():
    instances = []
    for seed in range(1, 11):
        inst = generate_instance(2 + seed % 3, 1 + seed % 2, seed=100 + seed)
        instances.append((inst, build_matrices(inst)))

    rng = np.random.default_rng(2024)
    checked = 0
    for i in range(1000):
        inst, matrices = instances[i % len(instances)]
        n = inst.n
        vec = rng.integers(1, n + 1, size=n)
        plan, _ = decode(vec, inst, matrices, np.random.default_rng(int(rng.integers(1 << 31))))
        assert sorted(plan.order) == list(range(1, n + 1))
        assert plan.maint_after[-1] == 1
        for d in range(n):
            if plan.maint_after[d]:
                i_, j_ = plan.order[d], plan.order[(d + 1) % n]
                assert inst.train(i_).arr_station == inst.maint_station
                assert matrices.conn_rows[i_ - 1][j_ - 1] is not None
        rotations = decode_rotations(plan, inst, matrices)
        assert sum(r.total_mileage for r in rotations) == pytest.approx(
            inst.total_mileage, abs=1e-9
        )
        if validate(plan, inst, matrices).ok:
            assert fitness_value(plan, inst, matrices) == objective_value(plan, inst, matrices)
        checked += 1
    assert checked == 1000

    # constructor output: 1000 plans, all fully valid, fitness == objective
    rng = np.random.default_rng(55)
    for i in range(1000):
        inst, matrices = instances[i % len(instances)]
        plan = construct(inst, matrices, rng)
        assert validate(plan, inst, matrices).ok
        assert fitness_value(plan, inst, matrices) == objective_value(plan, inst, matrices)

    # global-best trace is non-increasing: 25 solves x 40 iterations
    points = 0
    for seed in range(25):
        inst, matrices = instances[seed % len(instances)]
        res = solve(inst, matrices, SwarmConfig(n_particles=6, k_max=40, seed=seed))
        fits = [p.global_best_fitness for p in res.trace]
        assert all(a >= b for a, b in zip(fits, fits[1:]))
        points += len(fits) - 1
    assert points == 1000


@criterion("12-train fixture: solve exits 0, diagram is one 12-node cycle, limits hold")
def test_fig1_regression(tmp_path, capsys):
    plan_path = tmp_path / "plan.txt"
    code = main(["solve", FIG1, "--out", str(plan_path), "--seed", "1"])
    capsys.readouterr()
    assert code == 0

    inst = parse_timetable(Path(FIG1).read_text())
    matrices = build_matrices(inst)
    plan = parse_plan(plan_path.read_text())
    assert validate(plan, inst, matrices).ok
    for rotation in decode_rotations(plan, inst, matrices):
        assert rotation.total_mileage <= 1.05 * 4000.0
        assert rotation.total_time <= 1.05 * 2880.0

    dot_path = tmp_path / "plan.dot"
    code = main(["diagram", FIG1, str(plan_path), "--out", str(dot_path)])
    capsys.readouterr()
    assert code == 0
    dot = dot_path.read_text()
    assert len(re.findall(r"^\s+t\d+ \[label=", dot, re.M)) == 12
    arcs = re.findall(r"(t\d+) -> (t\d+)", dot)
    assert len(arcs) == 12
    succ = dict(arcs)
    cur, seen = "t1", set()
    while cur not in seen:
        seen.add(cur)
        cur = succ[cur]
    assert len(seen) == 12  # a single closed loop


@criterion("determinism: repeated CLI invocations and substreams are byte-identical")
def test_cli_determinism(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        plan_path = tmp_path / f"{name}.txt"
        code = main(["solve", FIG1, "--out", str(plan_path),
                     "--particles", "12", "--iters", "60", "--seed", "7"])
        captured = capsys.readouterr()
        assert code == 0
        outs.append((plan_path.read_bytes(),
                     (tmp_path / f"{name}.txt.trace.csv").read_bytes(),
                     captured.out))
    assert outs[0] == outs[1]

    # counter-based splitting: draws depend only on (iteration, particle)
    key = _philox_key(7)
    forward = {(k, m): substream(key, k, m).random(3).tolist()
               for k in range(4) for m in range(4)}
    scrambled = {(k, m): substream(key, k, m).random(3).tolist()
                 for k in reversed(range(4)) for m in reversed(range(4))}
    assert forward == scrambled

    # generation is deterministic too
    g1 = main(["gen", "--pairs", "3", "--seed", "5"])
    out1 = capsys.readouterr().out
    g2 = main(["gen", "--pairs", "3", "--seed", "5"])
    out2 = capsys.readouterr().out
    assert g1 == g2 == 0 and out1 == out2
