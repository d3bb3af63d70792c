import math

import numpy as np
import pytest

from emu_roster import (
    ModelParams,
    SwarmConfig,
    TimetableInstance,
    Train,
    brute_force,
    build_matrices,
    construct,
    decode,
    fitness_value,
    inertia_weight,
    objective_value,
    solve,
    update_position,
    update_velocity,
    validate,
)
from emu_roster.pso import substream, _philox_key

CFG = SwarmConfig(n_particles=8, k_max=40, seed=5)


def compact_instance():
    """Four trains whose every cycle and cut pattern stays far inside both
    allowances, so the decoder can never be forced to repair a feasible
    plan's order (limits bind nowhere).
    """
    trains = (
        Train(1, "C", 480, "X", 595, 300.0, 115),
        Train(2, "X", 630, "C", 745, 300.0, 115),
        Train(3, "C", 485, "X", 600, 300.0, 115),
        Train(4, "X", 635, "C", 750, 300.0, 115),
    )
    return TimetableInstance(
        trains=trains,
        stations=frozenset({"C", "X"}),
        maint_stations=frozenset({"C"}),
        params=ModelParams(),
    )


# --- formula-level operations -------------------------------------------------

def test_inertia_weight_endpoints():
    cfg = SwarmConfig(w_max=0.9, w_min=0.4, k_max=100)
    assert inertia_weight(0, cfg) == 0.9
    assert inertia_weight(100, cfg) == 0.4
    assert inertia_weight(50, cfg) == pytest.approx(0.65, abs=1e-12)


def test_inertia_weight_is_affine():
    cfg = SwarmConfig(w_max=0.95, w_min=0.3, k_max=77)
    w = [inertia_weight(k, cfg) for k in (10, 20, 30)]
    assert w[1] - w[0] == pytest.approx(w[2] - w[1], abs=1e-12)


def test_update_velocity_fixed_point():
    assert update_velocity(0.0, 4, 4, 4, 0.8, 2, 2, 0.3, 0.9, -10, 10) == 0.0


def test_update_velocity_hand_value():
    v = update_velocity(1.0, 4, 5, 3, 0.8, 2, 2, 0.5, 0.5, -10, 10)
    assert v == pytest.approx(0.8, abs=1e-12)


def test_update_velocity_clamps():
    assert update_velocity(100.0, 1, 9, 9, 1.0, 2, 2, 1, 1, -3, 3) == 3
    assert update_velocity(-100.0, 9, 1, 1, 1.0, 2, 2, 1, 1, -3, 3) == -3


def test_update_position_rounds_half_away_from_zero():
    assert update_position(3, 1.4, 12) == 4
    assert update_position(2, 0.5, 12) == 3
    assert update_position(3, -1.5, 12) == 2  # 1.5 rounds away from zero to 2
    assert update_position(2, 0.0, 12) == 2


def test_update_position_clamps_both_ends():
    assert update_position(12, 5.0, 12) == 12
    assert update_position(1, -7.3, 12) == 1


def test_vectorized_updates_match_scalar_ops():
    # solve() calls the updates on whole position vectors; each element must
    # equal the plain-Python scalar formula
    rng = np.random.default_rng(2)
    cfg = SwarmConfig()
    n, w = 12, 0.7
    x = rng.integers(1, n + 1, size=200)
    v = rng.uniform(-6, 6, size=200)
    pg = rng.integers(1, n + 1, size=200)
    pm = rng.integers(1, n + 1, size=200)
    r1, r2 = rng.random(200), rng.random(200)
    vel = update_velocity(v, x, pg, pm, w, cfg.c1, cfg.c2, r1, r2, -6, 6)
    pos = update_position(x, vel, n)
    assert pos.dtype == np.int64
    for d in range(200):
        v_ref = min(max(w * v[d] + cfg.c1 * r1[d] * (pg[d] - x[d])
                        + cfg.c2 * r2[d] * (pm[d] - x[d]), -6), 6)
        y = x[d] + v_ref
        rounded = math.floor(y + 0.5) if y >= 0 else math.ceil(y - 0.5)
        assert vel[d] == v_ref
        assert pos[d] == min(max(rounded, 1), n)


# --- counter-based randomness --------------------------------------------------

def test_substreams_independent_of_evaluation_order():
    key = _philox_key(42)
    forward = [substream(key, k, m).random(4).tolist() for k in range(3) for m in range(3)]
    backward = [
        substream(key, k, m).random(4).tolist()
        for k in reversed(range(3))
        for m in reversed(range(3))
    ]
    assert sorted(map(tuple, forward)) == sorted(map(tuple, backward))
    # and distinct (k, m) pairs give distinct draws
    assert len({tuple(x) for x in forward}) == 9


def test_substream_reproducible():
    key = _philox_key(7)
    assert substream(key, 5, 3).random(8).tolist() == substream(key, 5, 3).random(8).tolist()


# --- decoding -------------------------------------------------------------------

def test_decode_reproduces_feasible_plan_orders():
    inst = compact_instance()
    m = build_matrices(inst)
    rng = np.random.default_rng(0)
    for _ in range(40):
        plan = construct(inst, m, rng)
        for k in range(5):
            out = decode(plan.order, inst, m, np.random.default_rng(k))
            assert out.order == plan.order


def test_decode_two_train_identity(two_train):
    m = build_matrices(two_train)
    for k in range(50):
        out = decode((1, 2), two_train, m, np.random.default_rng(k))
        assert out.order == (1, 2)
        assert out.maint_after == (0, 1)


def test_decode_repairs_degenerate_vector(fig1, fig1_matrices):
    for k in range(30):
        plan = decode([1] * 12, fig1, fig1_matrices, np.random.default_rng(k))
        assert sorted(plan.order) == list(range(1, 13))
        assert plan.maint_after[-1] == 1


def test_decode_deterministic(fig1, fig1_matrices):
    vec = [7, 3, 3, 1, 12, 2, 2, 8, 5, 5, 10, 11]
    a = decode(vec, fig1, fig1_matrices, np.random.default_rng(9))
    b = decode(vec, fig1, fig1_matrices, np.random.default_rng(9))
    assert a == b


def test_decoded_plans_always_structurally_sound(fig1, fig1_matrices):
    rng = np.random.default_rng(77)
    for _ in range(300):
        vec = rng.integers(1, 13, size=12)
        plan = decode(vec, fig1, fig1_matrices, np.random.default_rng(int(rng.integers(1 << 31))))
        assert sorted(plan.order) == list(range(1, 13))
        assert plan.maint_after[-1] == 1
        for d in range(12):
            if plan.maint_after[d]:
                i, j = plan.order[d], plan.order[(d + 1) % 12]
                assert fig1_matrices.theta[i - 1, j - 1] == 1
        report = validate(plan, fig1, fig1_matrices)
        # only the mileage allowance may ever be broken
        assert report.tags() <= {"EQ11"}


# --- the full solver -------------------------------------------------------------

def test_two_train_solved_immediately(two_train):
    m = build_matrices(two_train)
    res = solve(two_train, m, SwarmConfig(n_particles=4, k_max=3, seed=1))
    assert res.best_plan.order == (1, 2)
    assert res.trace[0].global_best_fitness == res.best_fitness


def test_solve_is_deterministic(fig1, fig1_matrices):
    a = solve(fig1, fig1_matrices, CFG)
    b = solve(fig1, fig1_matrices, CFG)
    assert a.best_plan == b.best_plan
    assert a.best_fitness == b.best_fitness
    assert a.trace == b.trace
    assert a.restarts == b.restarts


def test_solve_trace_non_increasing(fig1, fig1_matrices):
    res = solve(fig1, fig1_matrices, CFG)
    fits = [p.global_best_fitness for p in res.trace]
    assert all(a >= b for a, b in zip(fits, fits[1:]))
    assert len(fits) == CFG.k_max + 1


def test_solve_output_is_fully_feasible(fig1, fig1_matrices):
    res = solve(fig1, fig1_matrices, CFG)
    assert validate(res.best_plan, fig1, fig1_matrices).ok
    assert res.best_fitness == objective_value(res.best_plan, fig1, fig1_matrices)
    assert res.best_fitness == fitness_value(res.best_plan, fig1, fig1_matrices)


def test_solve_matches_oracle_on_small_instance():
    inst = compact_instance()
    m = build_matrices(inst)
    res = solve(inst, m, SwarmConfig(n_particles=10, k_max=60, seed=2))
    exact = brute_force(inst, m)
    assert res.best_fitness == pytest.approx(exact.best_objective, abs=1e-9)


def test_config_validation():
    with pytest.raises(ValueError):
        SwarmConfig(n_particles=0)
    with pytest.raises(ValueError):
        SwarmConfig(w_max=0.1, w_min=0.5)


def test_fitness_reduces_to_connection_time_without_slack_weight(fig1, fig1_matrices):
    inst = fig1.with_params(omega2=0.0)
    rng = np.random.default_rng(21)
    for _ in range(30):
        plan = construct(inst, fig1_matrices, rng)
        waited = sum(
            fig1_matrices.time(plan.order[d] - 1, plan.order[(d + 1) % plan.n] - 1)
            for d in range(plan.n)
            if not plan.maint_after[d]
        )
        assert fitness_value(plan, inst, fig1_matrices) == float(waited)
