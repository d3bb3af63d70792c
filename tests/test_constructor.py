import hashlib
import math

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
    decode_rotations,
    fitness_value,
    generate_instance,
    render_plan,
    solve,
    validate,
)
from emu_roster.constructor import DeadEnd, _any_fits, _candidates, build_cycle
from emu_roster.plan import fitness_from_totals


def tricky_instance():
    """Continuing past the depot without maintenance would strand the EMU at X.

    Pair 1 is short (500 km), pair 2 long (1700 km): after serving three
    trains the forced return leg overruns the mileage allowance. The depot
    step looks one station ahead, sees that no return from X fits and cuts
    the maintenance arc instead of declining it.
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


def test_restarts_recover_from_dead_ends(chain):
    m = build_matrices(chain)
    plan, failed, _, _ = construct_with_stats(chain, m, np.random.default_rng(0))
    assert failed >= 1
    assert validate(plan, chain, m).ok
    # a maintenance cut must separate the two chains, which end with trains 3 and 6
    assert all(plan.maint_after[plan.order.index(last)] == 1 for last in (3, 6))


def test_never_maintaining_exhausts_restarts(chain):
    # the overrun shows two stations past the depot, beyond the look-ahead
    m = build_matrices(chain)
    with pytest.raises(InfeasibleError, match="dead-ended"):
        construct(chain, m, np.random.default_rng(0), max_restarts=5, maint_prob=0.0)


def test_look_ahead_forces_maintenance_one_station_on():
    inst = tricky_instance()
    m = build_matrices(inst)
    for seed in range(20):
        plan = construct(inst, m, np.random.default_rng(seed), max_restarts=0, maint_prob=0.0)
        assert validate(plan, inst, m).ok
        assert plan.maint_after[plan.order.index(2)] == 1


@pytest.mark.parametrize("pairs", [4, 50, 250], ids=lambda p: f"n{2 * p}")
def test_paired_timetables_never_dead_end(pairs):
    # after a maintenance any return leg fits the default windows, and the
    # look-ahead cuts one whenever declining it would leave no return that fits
    for inst_seed in (1, 2):
        inst = generate_instance(pairs, 4, seed=inst_seed)
        m = build_matrices(inst)
        rng = np.random.default_rng(inst_seed)
        for maint_prob in (0.0, 0.5, 0.9):
            for guided in (False, True):
                for _ in range(3):
                    vec = rng.integers(1, inst.n + 1, size=inst.n).tolist() if guided else None
                    plan, _, _ = build_cycle(inst, m, rng, maint_prob, vec)  # raises DeadEnd
                    if not guided:
                        assert validate(plan, inst, m).ok


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
            _, failed, _, _ = construct_with_stats(inst, m, rng)
            total_failed += failed
            total_built += 1
    assert total_failed / total_built < 5


def _step_after_train_1(fig1, fig1_matrices, remaining, acc_l, acc_t):
    """_candidates as build_cycle calls it with train 1 last placed and only
    `remaining` unassigned: (away, usable)."""
    here = fig1_matrices.departures[fig1.train(1).arr_station]
    return _candidates(
        [j for j in here if j in remaining],
        acc_l,
        acc_t,
        fig1_matrices.conn_rows[0],
        fig1_matrices.tables,
        fig1.params.max_mileage,
        fig1.params.max_time,
    )


def test_step_candidates_split(fig1, fig1_matrices):
    # at A after train 1; train 2 heads to B (turn-back), train 4 to C (depot)
    away, usable = _step_after_train_1(fig1, fig1_matrices, {2, 4}, 520.0, 125)
    assert away == [2]
    assert usable == [4]


def test_step_candidates_mileage_filter(fig1, fig1_matrices):
    # near the allowance: 4100 + 280 > 4200 pushes train 2 out of the first set
    away, _ = _step_after_train_1(fig1, fig1_matrices, {2, 4}, 4100.0, 500)
    assert away == []


def test_step_candidates_time_filter(fig1, fig1_matrices):
    # 2900 accumulated minutes + 35 connection + 100 travel > 3024
    away, usable = _step_after_train_1(fig1, fig1_matrices, {2, 4}, 520.0, 2900)
    assert away == []
    assert usable == []


def test_step_candidates_nothing_connects(fig1, fig1_matrices):
    # train 5 departs C, not A: unreachable after train 1
    assert _step_after_train_1(fig1, fig1_matrices, {5}, 520.0, 125) == ([], [])


def _look_ahead_case(case, fig1):
    """(instance, rng seed) of a test_look_ahead_agrees_with_candidates case."""
    if case.startswith("fig1"):
        # stations A and B send trains both to the depot and away from it;
        # "unbounded" windows are finite (ModelParams refuses inf) but never bind
        unbounded = case == "fig1-unbounded"
        return (fig1.with_params(l_cycle=1e9, t_cycle=1e9) if unbounded else fig1), 1
    pairs = {"n8": 4, "n500": 250, "tight": 4}[case]
    inst = generate_instance(pairs, 4, seed=pairs)
    return (inst.with_params(t_cycle=2000) if case == "tight" else inst), pairs


@pytest.mark.parametrize("case", ["n8", "n500", "fig1", "fig1-unbounded", "tight"])
def test_look_ahead_agrees_with_candidates(case, fig1):
    """The depot step's look-ahead asks only whether _candidates finds
    anything. Where the totals plus the station's reach fit both windows,
    build_cycle skips both scans and takes the free list itself: the scans
    must then keep every train, all of one kind."""
    inst, seed = _look_ahead_case(case, fig1)
    m = build_matrices(inst)
    mileage, travel, arr_at_depot, arr_station = m.tables
    for s, ids in m.departures.items():
        reach_km, reach_min = m.reach[s]
        if len({arr_at_depot[j] for j in ids}) > 1:
            assert math.isnan(reach_km) and math.isnan(reach_min)
            continue
        assert all(mileage[j] <= reach_km for j in ids)
        for i in range(1, inst.n + 1):
            if arr_station[i] == s:
                assert all(m.conn_rows[i - 1][j - 1] + travel[j] <= reach_min for j in ids)

    max_l, max_t = inst.params.max_mileage, inst.params.max_time
    # totals are drawn inside the default windows when these never bind
    top_l, top_t = min(max_l, 4200.0), min(max_t, 3024.0)
    rng = np.random.default_rng(seed)
    seen, shortcuts = set(), set()
    for _ in range(400):
        prev = int(rng.integers(1, inst.n + 1))
        here = [j for j in m.departures[arr_station[prev]] if j != prev]
        free = [j for j in here if rng.random() < 0.7]
        acc_l, acc_t = rng.uniform(0, top_l), int(rng.integers(0, int(top_t) + 1))
        args = (free, acc_l, acc_t, m.conn_rows[prev - 1], m.tables, max_l, max_t)
        away, usable = _candidates(*args)
        assert _any_fits(*args) == bool(away or usable)
        seen.add(bool(away or usable))
        reach_km, reach_min = m.reach[arr_station[prev]]
        shortcut = acc_l + reach_km <= max_l and acc_t + reach_min <= max_t
        if shortcut:
            assert (away, usable) in ((free, []), ([], free))
        shortcuts.add(shortcut)
    assert seen == {False, True}
    assert shortcuts == {False, True}


def _scored_builds(inst, m, rng, proposals, maint_prob):
    """Every plan build_cycle and construct_with_stats return for each
    proposal (None for an unguided attempt), with the totals they return.
    A build_cycle dead end is skipped; construct_with_stats then restarts."""
    for vec in proposals:
        try:
            yield build_cycle(inst, m, rng, maint_prob, vec)
        except DeadEnd:
            pass
        plan, _, waited, rotation_km = construct_with_stats(
            inst, m, rng, max_restarts=1000, maint_prob=maint_prob, proposal=vec)
        yield plan, waited, rotation_km


def test_constructor_totals_score_bit_identical(fig1, fig1_matrices, chain):
    """The swarm scores each decode from the constructor's own totals; they
    give exactly fitness_value's float and decode_rotations' feasibility."""
    rng = np.random.default_rng(11)

    def mixed(n, tries):
        return [None] * tries + [rng.integers(1, n + 1, size=n).tolist() for _ in range(tries)]

    chain_m = build_matrices(chain)
    cases = [
        (fig1, fig1_matrices, 0.5, mixed(fig1.n, 20)),  # restarts and guided fallbacks
        (chain, chain_m, 0.5, mixed(chain.n, 20)),
        # never maintaining, the in-order walk runs the second chain over the
        # allowance on its last, depot-bound leg: the proposal channel admits it
        (chain, chain_m, 0.0, [[1, 2, 3, 4, 5, 6]]),
    ]
    for pairs in (3, 4, 5, 50, 250):
        inst = generate_instance(pairs, 4, seed=pairs)
        m = build_matrices(inst)
        cases += [(inst, m, p, mixed(inst.n, 2 if pairs > 50 else 10)) for p in (0.0, 0.9)]
    overruns = 0
    for inst, m, maint_prob, proposals in cases:
        for plan, waited, rotation_km in _scored_builds(inst, m, rng, proposals, maint_prob):
            fit, feasible = fitness_from_totals(waited, rotation_km, inst.params)
            assert fit == fitness_value(plan, inst, m)
            rotations = decode_rotations(plan, inst, m)
            assert feasible == all(r.total_mileage <= inst.params.max_mileage for r in rotations)
            overruns += not feasible
    assert overruns > 0  # the penalty branch ran


def test_constructed_plans_cover_multiple_shapes(fig1, fig1_matrices):
    # the random strategy should produce varied rotation counts
    counts = set()
    rng = np.random.default_rng(7)
    for _ in range(60):
        plan = construct(fig1, fig1_matrices, rng)
        counts.add(plan.n_rotations)
    assert len(counts) >= 2


def test_scales_with_eager_maintenance():
    # a large paired instance at an eager cut probability
    inst = generate_instance(50, 4, seed=1)
    m = build_matrices(inst)
    rng = np.random.default_rng(0)
    plan, failed, _, _ = construct_with_stats(inst, m, rng, maint_prob=0.9)
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
        "64d8de336a90e7ea1eef2f217f2ff9f5efcaf3cc2e312f20eaec0e890e4cbfad",
    (250, 8, 1, 2, (("maint_prob", 0.9), ("max_restarts", 1000))):
        "756139afc56a711d4743d0ec5e15de28779df243a830776a74b6bbb758118ea7",
}
GOLDEN_SOLVE = "cb351a866879851a5d191d5aeccb8e07d90500c72813afd9b233bab603575a17"


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
    assert res.restarts == 0


def _golden_build_instance(case, fig1, chain):
    """The instance of a test_golden_build_outcomes case."""
    if case == "fig1":
        return fig1
    if case == "chain":
        return chain
    if case.startswith("t"):  # tight time windows on a paired n = 10 and n = 100
        t_cycle, n = (int(part) for part in case[1:].split("-n"))
        return generate_instance(n // 2, 4, seed=n).with_params(t_cycle=t_cycle)
    pairs = int(case[1:]) // 2
    return generate_instance(pairs, {3: 2, 5: 2, 50: 4, 250: 8}[pairs], seed=pairs)


def _golden_proposals(n, rng):
    """None and proposals that are random, in order, out of range, and that
    repeat ids (so later entries name placed trains), one as an ndarray."""
    random_ids = rng.integers(1, n + 1, size=n)
    out_of_range = [(0, -1, n + 1, 10**6)[d % 4] if d % 3 == 0 else int(random_ids[d])
                    for d in range(n)]
    repeats = [int(random_ids[d // 2]) for d in range(n)]
    return [None, None, random_ids.tolist(), random_ids, list(range(1, n + 1)),
            list(range(n, 0, -1)), out_of_range, repeats, [1] * n]


def _build_outcomes(inst, m, maint_prob, rng, proposals):
    """One line per build_cycle and construct_with_stats call: the plan and
    totals (and failed attempts), or the exception's type and message."""
    for vec in proposals:
        try:
            plan, waited, rotation_km = build_cycle(inst, m, rng, maint_prob, vec)
            yield repr((plan.order, plan.maint_after, waited, rotation_km))
        except (DeadEnd, InfeasibleError) as exc:
            yield f"{type(exc).__name__}: {exc}"
        try:
            plan, failed, waited, rotation_km = construct_with_stats(
                inst, m, rng, max_restarts=30, maint_prob=maint_prob, proposal=vec)
            yield repr((plan.order, plan.maint_after, failed, waited, rotation_km))
        except InfeasibleError as exc:
            yield f"{type(exc).__name__}: {exc}"


# SHA-256 over every outcome of a case, recorded before the construction step
# was last restructured: any change to the plans, the totals, the dead ends
# or the draws they consume changes these.
GOLDEN_BUILDS = {
    "n6": "728187c7e56218092b9020c439368c09af240c11d6b66781d1a58d9690a7ddf1",
    "n10": "eea6942e8f139a05fb6ee574011f4b34bb15c14b4c2ec3cd983d6822e83a1896",
    "n100": "5b20d526ccf678ab7ba5b73ba2f3225ecaea4428127511fe28316b62b28132ae",
    "n500": "febff23c62c743f7f03af8c3c8beaeba5313c9d8202fb19541e4f0811150905a",
    "fig1": "49dc0673878e3497b47202e8b3522340d1439bed8f6f836ba37508f24b4de9ef",
    "chain": "4ad41663e0e523df598b42e4eeae3fba1a01b75369abcd443aece08a72b5eb8b",
    "t1600-n10": "a9181b62c2451f1e47b9a32c4cf96aa27289818c5000461251443297bf696748",
    "t1600-n100": "1ee9d2e2d8b26fdb9c389150b3456e52fda2a51c62d3544cb1d98212fcb4fae1",
    "t2000-n10": "477202d32e35c26b6499516a471221d90000d4bbb92b1573923f09bca49c5c64",
    "t2000-n100": "8629b769174bbe90455447720a459f57dc969eb105ea2df05cc2303e805eb27d",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_BUILDS))
def test_golden_build_outcomes(case, fig1, chain):
    inst = _golden_build_instance(case, fig1, chain)
    m = build_matrices(inst)
    lines = []
    for maint_prob in (0.0, 0.5, 0.9):
        rng = np.random.default_rng(int(maint_prob * 10) + 7)
        lines += _build_outcomes(inst, m, maint_prob, rng, _golden_proposals(inst.n, rng))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN_BUILDS[case]
