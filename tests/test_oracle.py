import hashlib

import numpy as np
import pytest

from naive_oracle import naive_best

from emu_roster import (
    InstanceTooLargeError,
    ModelParams,
    SwarmConfig,
    TimetableInstance,
    Train,
    brute_force,
    build_matrices,
    compare,
    construct,
    fitness_value,
    generate_instance,
    objective_value,
    solve,
    validate,
)
from emu_roster.oracle import OracleResult


def test_two_train_unique_cycle(two_train):
    m = build_matrices(two_train)
    res = brute_force(two_train, m)
    assert res.plans_enumerated == 1
    assert res.feasible_count == 1
    assert res.best_plan.order == (1, 2)
    assert res.best_plan.maint_after == (0, 1)
    assert res.best_objective == objective_value(res.best_plan, two_train, m)


# at the default weights and at omega2 = 1, where the slack outweighs the waits
NAIVE_OMEGA2 = (0.01, 1.0)


@pytest.mark.parametrize("seed", [42, 7, 13, 99])
def test_matches_naive_on_paired_instances(seed):
    for omega2 in NAIVE_OMEGA2:
        inst = generate_instance(2, 1, seed=seed).with_params(omega2=omega2)
        m = build_matrices(inst)
        pruned = brute_force(inst, m)
        naive_obj, naive_feasible = naive_best(inst)
        assert pruned.feasible_count == naive_feasible
        if naive_obj is None:
            assert pruned.best_objective is None
        else:
            assert pruned.best_objective == pytest.approx(naive_obj, abs=1e-9)


@pytest.mark.parametrize("seed", [1, 5, 9, 14, 18])
def test_matches_naive_at_eight_trains(seed):
    # beyond the acceptance sweep's sizes; exercises deeper pruning
    for omega2 in NAIVE_OMEGA2:
        inst = generate_instance(4, 1 + seed % 3, seed=seed).with_params(omega2=omega2)
        m = build_matrices(inst)
        pruned = brute_force(inst, m)
        naive_obj, naive_feasible = naive_best(inst)
        assert pruned.feasible_count == naive_feasible
        assert pruned.best_objective == pytest.approx(naive_obj, abs=1e-9)


# The digest of every result field over the sweep below, recorded before the
# per-cycle segment table replaced the per-mask walk: the rewrite changes no
# optimum, no tie-break, no float bit and no count.
PINNED_SWEEP = "0f06526083794ed67c26e9a322ac05a4a57e4ca5ab167b755023fc5ee6015521"


def test_results_pinned_over_a_sweep(chain, fig1, fig1_matrices):
    cases = [(generate_instance(pairs, 2, seed=seed).with_params(omega2=omega2), 10)
             for pairs in (3, 4, 5) for omega2 in (0.01, 1.0) for seed in (1, 2, 3)]
    cases += [(chain, 10), (fig1, 12), (generate_instance(6, 2, seed=1), 12)]
    rows = []
    for inst, n_limit in cases:
        m = fig1_matrices if inst is fig1 else build_matrices(inst)
        res = brute_force(inst, m, n_limit=n_limit)
        plan = res.best_plan
        rows.append((repr(res.best_objective), plan and plan.order, plan and plan.maint_after,
                     res.plans_enumerated, res.feasible_count))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == PINNED_SWEEP, rows


def test_best_plan_always_validates():
    for seed in range(1, 16):
        inst = generate_instance(1 + seed % 3, 1 + seed % 2, seed=seed)
        m = build_matrices(inst)
        res = brute_force(inst, m)
        assert res.feasible_count > 0
        assert validate(res.best_plan, inst, m).ok
        assert res.best_objective == pytest.approx(
            objective_value(res.best_plan, inst, m), abs=1e-9
        )


def test_disconnected_components_are_infeasible():
    # flow balance holds everywhere, but no single loop covers both islands
    trains = (
        Train(1, "C", 8 * 60, "X", 10 * 60, 300.0, 120),
        Train(2, "X", 11 * 60, "C", 13 * 60, 300.0, 120),
        Train(3, "Y", 8 * 60, "Z", 10 * 60, 300.0, 120),
        Train(4, "Z", 11 * 60, "Y", 13 * 60, 300.0, 120),
    )
    inst = TimetableInstance(
        trains=trains,
        maint_station="C",
        params=ModelParams(),
    )
    res = brute_force(inst, build_matrices(inst))
    assert res.feasible_count == 0
    assert res.best_plan is None and res.best_objective is None


def test_size_limit_enforced():
    inst = generate_instance(6, 2, seed=1)  # n = 12
    m = build_matrices(inst)
    with pytest.raises(InstanceTooLargeError):
        brute_force(inst, m, n_limit=10)
    assert brute_force(inst, m, n_limit=12).feasible_count > 0


def test_oracle_lower_bounds_feasible_plans():
    inst = generate_instance(3, 2, seed=5)
    m = build_matrices(inst)
    exact = brute_force(inst, m)
    rng = np.random.default_rng(4)
    for _ in range(40):
        plan = construct(inst, m, rng)
        assert exact.best_objective <= fitness_value(plan, inst, m) + 1e-9


def test_oracle_deterministic():
    inst = generate_instance(3, 1, seed=8)
    m = build_matrices(inst)
    a, b = brute_force(inst, m), brute_force(inst, m)
    assert a == b


def test_fixture_plan_is_the_exact_optimum(fig1, fig1_matrices, fig1_plan):
    # the hand-built three-rotation plan attains the enumerated optimum
    res = brute_force(fig1, fig1_matrices, n_limit=12)
    assert res.best_objective == pytest.approx(858.2, abs=1e-9)
    assert res.best_objective == pytest.approx(
        objective_value(fig1_plan, fig1, fig1_matrices), abs=1e-9
    )


def test_swarm_reaches_fixture_optimum(fig1, fig1_matrices):
    # full-strength run; deterministic in the seed, so the hit is repeatable
    res = solve(fig1, fig1_matrices, SwarmConfig(seed=3))
    assert res.best_fitness == pytest.approx(858.2, abs=1e-9)


def test_compare_zero_gap(two_train):
    m = build_matrices(two_train)
    exact = brute_force(two_train, m)
    res = solve(two_train, m, SwarmConfig(n_particles=4, k_max=3, seed=1))
    report = compare(two_train, m, exact, res)
    assert report.relative_gap == pytest.approx(0.0, abs=1e-12)
    assert report.heuristic_feasible and report.oracle_feasible


def test_compare_gap_arithmetic(two_train):
    m = build_matrices(two_train)
    res = solve(two_train, m, SwarmConfig(n_particles=4, k_max=3, seed=1))
    fake_oracle = OracleResult(
        best_plan=res.best_plan, best_objective=100.0, plans_enumerated=1, feasible_count=1
    )
    from dataclasses import replace

    inflated = replace(res, best_fitness=105.0)
    report = compare(two_train, m, fake_oracle, inflated)
    assert report.absolute_gap == pytest.approx(5.0, abs=1e-12)
    assert report.relative_gap == pytest.approx(0.05, abs=1e-12)


def test_compare_consistently_infeasible():
    trains = (
        Train(1, "C", 8 * 60, "X", 10 * 60, 300.0, 120),
        Train(2, "X", 11 * 60, "C", 13 * 60, 300.0, 120),
        Train(3, "Y", 8 * 60, "Z", 10 * 60, 300.0, 120),
        Train(4, "Z", 11 * 60, "Y", 13 * 60, 300.0, 120),
    )
    inst = TimetableInstance(
        trains=trains,
        maint_station="C",
        params=ModelParams(),
    )
    m = build_matrices(inst)
    exact = brute_force(inst, m)
    report = compare(inst, m, exact, None)
    assert report.consistently_infeasible
