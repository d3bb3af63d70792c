import hashlib

import numpy as np
import pytest

from emu_roster import (
    InfeasibleError,
    ModelParams,
    SwarmConfig,
    TimetableInstance,
    TimetableWarning,
    Train,
    build_matrices,
    construct,
    construct_with_stats,
    generate_instance,
    render_plan,
    solve,
    validate,
)
from emu_roster.constructor import _candidates


def tricky_instance():
    """Continuing past the depot without maintenance strands the EMU at X.

    Pair 1 is short (500 km), pair 2 long (1700 km): after serving three
    trains the forced return leg overruns the mileage allowance, so any
    attempt that declines maintenance at the depot dead-ends.
    """
    trains = (
        Train(1, "C", 6 * 60, "X", 7 * 60, 500.0, 60),
        Train(2, "X", 7 * 60 + 30, "C", 8 * 60 + 30, 500.0, 60),
        Train(3, "C", 9 * 60, "X", 10 * 60, 1700.0, 60),
        Train(4, "X", 10 * 60 + 30, "C", 11 * 60 + 30, 1700.0, 60),
    )
    return TimetableInstance(
        trains=trains,
        stations=frozenset({"C", "X"}),
        maint_stations=frozenset({"C"}),
        params=ModelParams(),
    )


def test_two_train_unique_plan(two_train):
    m = build_matrices(two_train)
    for seed in range(10):
        plan = construct(two_train, m, np.random.default_rng(seed))
        assert plan.order == (1, 2)
        assert plan.maint_after == (0, 1)


def test_fig1_hundred_seeds_all_valid(fig1, fig1_matrices):
    for seed in range(100):
        plan = construct(fig1, fig1_matrices, np.random.default_rng(seed))
        assert validate(plan, fig1, fig1_matrices).ok


def test_same_seed_same_plan(fig1, fig1_matrices):
    a = construct(fig1, fig1_matrices, np.random.default_rng(123))
    b = construct(fig1, fig1_matrices, np.random.default_rng(123))
    assert a == b


def test_restarts_recover_from_dead_ends():
    inst = tricky_instance()
    m = build_matrices(inst)
    plan, failed = construct_with_stats(inst, m, np.random.default_rng(0))
    assert validate(plan, inst, m).ok
    # a maintenance cut must separate the two pairs
    assert plan.maint_after[1] == 1 or plan.maint_after[3] == 1


def test_never_maintaining_exhausts_restarts():
    inst = tricky_instance()
    m = build_matrices(inst)
    with pytest.raises(InfeasibleError, match="dead-ended"):
        construct(inst, m, np.random.default_rng(0), max_restarts=5, maint_prob=0.0)


def test_oversized_train_is_globally_infeasible():
    with pytest.warns(TimetableWarning):
        inst = TimetableInstance(
            trains=(
                Train(1, "C", 6 * 60, "X", 10 * 60, 4500.0, 240),
                Train(2, "X", 11 * 60, "C", 15 * 60, 4500.0, 240),
            ),
            stations=frozenset({"C", "X"}),
            maint_stations=frozenset({"C"}),
        )
    m = build_matrices(inst)
    with pytest.raises(InfeasibleError, match="alone exceeds"):
        construct(inst, m, np.random.default_rng(0))


def test_instance_tables_never_go_stale():
    inst = generate_instance(4, 2, seed=3)
    m = build_matrices(inst)
    longest = max(t.mileage for t in inst.trains)
    with pytest.warns(TimetableWarning):
        tight = inst.with_params(l_cycle=longest / 1.1)  # allowance below one train
    assert tight.params.max_mileage < longest
    tight_m = build_matrices(tight)
    oversize = tight.oversize
    assert oversize == next(t.id for t in tight.trains if t.mileage > tight.params.max_mileage)
    with pytest.raises(InfeasibleError, match=f"train {oversize} alone exceeds"):
        construct(tight, tight_m, np.random.default_rng(0))
    # the check reads the instance, even with the matrices of the roomier one
    with pytest.raises(InfeasibleError, match=f"train {oversize} alone exceeds"):
        construct(tight, m, np.random.default_rng(0))
    # the original instance keeps its own facts and still constructs
    assert inst.oversize is None
    assert validate(construct(inst, m, np.random.default_rng(0)), inst, m).ok


@pytest.mark.parametrize(
    "knob, message",
    [
        ({"max_restarts": -3}, "max_restarts must be >= 0, got -3"),
        ({"maint_prob": 1.5}, r"maint_prob must lie in \[0, 1\], got 1.5"),
        ({"maint_prob": -0.1}, r"maint_prob must lie in \[0, 1\], got -0.1"),
        ({"maint_prob": float("nan")}, r"maint_prob must lie in \[0, 1\], got nan"),
    ],
    ids=["restarts-3", "prob1.5", "prob-0.1", "prob-nan"],
)
def test_construct_rejects_out_of_range_knobs(fig1, fig1_matrices, knob, message):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        construct(fig1, fig1_matrices, rng, **knob)
    assert rng.bit_generator.state == before  # refused before any draw


def test_restart_rate_stays_low():
    # informative bound from the build contract: < 5 failed attempts per
    # success on synthetic paired instances
    total_failed = total_built = 0
    for seed in range(1, 26):
        inst = generate_instance(1 + seed % 4, 1 + seed % 2, seed=seed)
        m = build_matrices(inst)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            _, failed = construct_with_stats(inst, m, rng)
            total_failed += failed
            total_built += 1
    assert total_failed / total_built < 5


def _step_after_train_1(fig1, fig1_matrices, remaining, acc_l, acc_t):
    """_candidates as build_cycle calls it with train 1 last placed and only
    `remaining` unassigned: (away, to_depot, usable)."""
    depot = fig1.maint_station
    here = fig1_matrices.departures[fig1.train(1).arr_station]
    return _candidates(
        [j for j in here if j in remaining],
        acc_l,
        acc_t,
        [False] + [t.arr_station == depot for t in fig1.trains],
        [0.0] + [t.mileage for t in fig1.trains],
        [0] + [t.travel_time for t in fig1.trains],
        fig1_matrices.conn_rows[0],
        fig1.params.max_mileage,
        fig1.params.max_time,
    )


def test_step_candidates_split(fig1, fig1_matrices):
    # at A after train 1; train 2 heads to B (turn-back), train 4 to C (depot)
    away, to_depot, usable = _step_after_train_1(fig1, fig1_matrices, {2, 4}, 520.0, 125)
    assert away == [2]
    assert to_depot == [4]
    assert usable == [4]


def test_step_candidates_mileage_filter(fig1, fig1_matrices):
    # near the allowance: 4100 + 280 > 4200 pushes train 2 out of the first set
    away, to_depot, _ = _step_after_train_1(fig1, fig1_matrices, {2, 4}, 4100.0, 500)
    assert away == []
    assert to_depot == [4]


def test_step_candidates_time_filter(fig1, fig1_matrices):
    # 2900 accumulated minutes + 35 connection + 100 travel > 3024
    away, to_depot, usable = _step_after_train_1(fig1, fig1_matrices, {2, 4}, 520.0, 2900)
    assert away == []
    assert to_depot == [4]
    assert usable == []


def test_step_candidates_nothing_connects(fig1, fig1_matrices):
    # train 5 departs C, not A: unreachable after train 1
    assert _step_after_train_1(fig1, fig1_matrices, {5}, 520.0, 125) == ([], [], [])


def test_constructed_plans_cover_multiple_shapes(fig1, fig1_matrices):
    # the random strategy should produce varied rotation counts
    counts = set()
    rng = np.random.default_rng(7)
    for _ in range(60):
        plan = construct(fig1, fig1_matrices, rng)
        counts.add(plan.n_rotations)
    assert len(counts) >= 2


def test_scales_with_eager_maintenance():
    # the myopic depot coin needs a higher cut probability at size
    inst = generate_instance(50, 4, seed=1)
    m = build_matrices(inst)
    rng = np.random.default_rng(0)
    plan, failed = construct_with_stats(inst, m, rng, maint_prob=0.9)
    assert validate(plan, inst, m).ok
    assert failed < 20


def _plan_sha(plan, inst, m):
    return hashlib.sha256(render_plan(plan, inst, m).encode()).hexdigest()


# SHA-256 of render_plan output for fixed seeds. Any change to the order or
# number of random draws in construction or decoding changes these plans.
GOLDEN_CONSTRUCT = {
    # (n_pairs, turnback stations, instance seed, rng seed, kwargs): sha
    (4, 2, 3, 5, ()): "81b7e5bc8abfca46ac1ae257db9e65a1b575cb5195775b379b00e4f890639647",
    (50, 4, 1, 2, (("maint_prob", 0.9), ("max_restarts", 1000))):
        "3efdb9a80a8f3078f49636c5e03dbc18ad296c37a30aa75193b84bf762deccbe",
    (250, 8, 1, 2, (("maint_prob", 0.9), ("max_restarts", 1000))):
        "d32b232d2dda1fec0ac84caa93686b27d09f9ce77e57df5f54818e0fc66da517",
}
GOLDEN_SOLVE = "2a35d0a078af82554c1a7141c2fa9ce18f0abbe6e1341e15fd1a3a92b4a7d081"


@pytest.mark.parametrize("case", sorted(GOLDEN_CONSTRUCT), ids=lambda c: f"n{2 * c[0]}")
def test_golden_constructed_plans(case):
    pairs, turnbacks, inst_seed, rng_seed, kwargs = case
    inst = generate_instance(pairs, turnbacks, seed=inst_seed)
    m = build_matrices(inst)
    plan = construct(inst, m, np.random.default_rng(rng_seed), **dict(kwargs))
    assert _plan_sha(plan, inst, m) == GOLDEN_CONSTRUCT[case]


def test_golden_solved_plan():
    inst = generate_instance(4, 2, seed=3)
    m = build_matrices(inst)
    res = solve(inst, m, SwarmConfig(n_particles=10, k_max=20, seed=4))
    assert _plan_sha(res.best_plan, inst, m) == GOLDEN_SOLVE
    assert res.restarts == 82
