import hashlib
import math
import warnings

import numpy as np
import pytest

from emu_roster import (
    InfeasibleError,
    ModelParams,
    SwarmConfig,
    TimetableInstance,
    TimetableWarning,
    Train,
    brute_force,
    build_matrices,
    construct,
    construct_with_stats,
    decode_rotations,
    fitness_value,
    generate_instance,
    objective_value,
    render_plan,
    solve,
    validate,
)
from emu_roster.constructor import DeadEnd, _candidates, build_cycle
from emu_roster.plan import CirculationPlan, fitness_from_totals
from emu_roster.pso import _decode


def build_plan(inst, m, rng, proposal=None):
    """build_cycle with its order and flags as the CirculationPlan they form,
    then its totals."""
    order, maint_after, waited, rotation_km = build_cycle(inst, m, rng, proposal)
    return CirculationPlan(tuple(order), tuple(maint_after)), waited, rotation_km


def decode_with_stats(inst, m, rng, max_restarts, proposal):
    """The swarm's decode, an attempt guided by the proposal and then
    unguided restarts, as (plan, failed attempts, waited, rotation_km)."""
    (order, maint_after, waited, rotation_km), failed = _decode(inst, m, rng, max_restarts,
                                                                proposal)
    return CirculationPlan(tuple(order), tuple(maint_after)), failed, waited, rotation_km


def tricky_instance():
    """Continuing past the depot without maintenance would strand the EMU at X.

    Pair 1 is short (500 km), pair 2 long (1700 km): after serving three
    trains the forced return leg overruns the mileage allowance. The chain
    cuts at every depot arrival, and dropping the cut between the pairs
    would merge 1,000 km with 3,400 km, so it stays.
    """
    trains = (
        Train(1, "C", 6 * 60, "X", 7 * 60, 500.0, 60),
        Train(2, "X", 7 * 60 + 30, "C", 8 * 60 + 30, 500.0, 60),
        Train(3, "C", 9 * 60, "X", 10 * 60, 1700.0, 60),
        Train(4, "X", 10 * 60 + 30, "C", 11 * 60 + 30, 1700.0, 60),
    )
    return TimetableInstance(
        trains=trains,
        maint_station="C",
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


def test_restarts_recover_from_dead_ends(fig1, fig1_matrices):
    # on the multi-leg fixture the chain runs out of time windows in most attempts
    plan, failed, _, _ = construct_with_stats(fig1, fig1_matrices, np.random.default_rng(0))
    assert failed >= 1
    assert validate(plan, fig1, fig1_matrices).ok


def test_chain_never_dead_ends(chain):
    # every depot arrival is cut, so either three-leg chain fits on its own,
    # and the split never merges the two: 4,500 km breaks the allowance
    m = build_matrices(chain)
    for seed in range(20):
        plan, failed, _, _ = construct_with_stats(chain, m, np.random.default_rng(seed))
        assert failed == 0
        assert validate(plan, chain, m).ok
        assert all(plan.maint_after[plan.order.index(last)] == 1 for last in (3, 6))


def test_restart_budget_exhaustion_raises(fig1, fig1_matrices):
    # seed 20 dead-ends in each of its 6 attempts
    with pytest.raises(InfeasibleError, match="dead-ended in 6 consecutive attempts"):
        construct(fig1, fig1_matrices, np.random.default_rng(20), max_restarts=5)


def test_split_keeps_the_cut_a_merge_would_overrun():
    inst = tricky_instance()
    m = build_matrices(inst)
    for seed in range(20):
        plan = construct(inst, m, np.random.default_rng(seed), max_restarts=0)
        assert validate(plan, inst, m).ok
        assert plan.maint_after[plan.order.index(2)] == 1


@pytest.mark.parametrize("pairs", [4, 50, 250], ids=lambda p: f"n{2 * p}")
def test_paired_timetables_never_dead_end(pairs):
    # the chain cuts at every depot arrival, and after a cut any return leg
    # fits the default windows
    for inst_seed in (1, 2):
        inst = generate_instance(pairs, 4, seed=inst_seed)
        m = build_matrices(inst)
        rng = np.random.default_rng(inst_seed)
        for guided in (False, True):
            for _ in range(3):
                vec = rng.integers(1, inst.n + 1, size=inst.n).tolist() if guided else None
                plan, _, _ = build_plan(inst, m, rng, vec)  # raises DeadEnd
                if not guided:
                    assert validate(plan, inst, m).ok


def test_oversized_train_is_globally_infeasible():
    with pytest.warns(TimetableWarning):
        inst = TimetableInstance(
            trains=(
                Train(1, "C", 6 * 60, "X", 10 * 60, 4500.0, 240),
                Train(2, "X", 11 * 60, "C", 15 * 60, 4500.0, 240),
            ),
            maint_station="C",
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


def test_maint_prob_is_deprecated_and_has_no_effect(fig1, fig1_matrices):
    ref = construct_with_stats(fig1, fig1_matrices, np.random.default_rng(3))
    # only construct keeps the keyword; construct_with_stats takes none
    with pytest.raises(TypeError, match="maint_prob"):
        construct_with_stats(fig1, fig1_matrices, np.random.default_rng(3), maint_prob=0.5)
    with pytest.raises(TypeError):  # nor a fifth positional argument
        construct_with_stats(fig1, fig1_matrices, np.random.default_rng(3), 100, 0.5)
    for maint_prob in (0.0, 0.5, 1.0):
        with pytest.warns(DeprecationWarning, match="maint_prob is deprecated"):
            plan = construct(fig1, fig1_matrices, np.random.default_rng(3), maint_prob=maint_prob)
        assert plan == ref[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        construct(fig1, fig1_matrices, np.random.default_rng(3))  # None, the default, is silent


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
        1,
        fig1_matrices,
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
    """Where the totals plus the station's reach fit both windows,
    build_cycle skips _candidates' scan and takes the free list itself: the
    scan must then keep every train, all of one kind."""
    inst, seed = _look_ahead_case(case, fig1)
    m = build_matrices(inst)
    mileage, travel, arr_at_depot = m.tables
    arr_station = [""] + [t.arr_station for t in inst.trains]  # by id, entry 0 padding
    for s, ids in m.departures.items():
        reach_km, reach_min = m.arr_reach[arr_station.index(s)]  # a train arriving at s
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
        args = (free, acc_l, acc_t, prev, m, max_l, max_t)
        away, usable = _candidates(*args)
        seen.add(bool(away or usable))
        reach_km, reach_min = m.arr_reach[prev]
        shortcut = acc_l + reach_km <= max_l and acc_t + reach_min <= max_t
        if shortcut:
            assert (away, usable) in ((free, []), ([], free))
        shortcuts.add(shortcut)
    assert seen == {False, True}
    assert shortcuts == {False, True}


def overrun_instance():
    """Two three-leg chains through depot C, C -> X -> Y -> C, one of 1,500 km
    legs and one of 200 km legs. Chaining the long legs in order runs over the
    allowance on the last, depot-bound leg (4,500 km), which only a relaxed
    proposal admits; any mix of the two chains fits. The arc from the long
    chain into the short one waits 30 minutes, so its cut pays to drop, but
    the merge would add to the overrun."""
    legs = [("C", "X", 1500.0), ("X", "Y", 1500.0), ("Y", "C", 1500.0),
            ("C", "X", 200.0), ("X", "Y", 200.0), ("Y", "C", 200.0)]
    trains = tuple(
        Train(k, dep, 6 * 60 + 90 * (k - 1), arr, 7 * 60 + 90 * (k - 1), km, 60)
        for k, (dep, arr, km) in enumerate(legs, start=1)
    )
    return TimetableInstance(
        trains=trains,
        maint_station="C",
        params=ModelParams(),
    )


def _scored_builds(inst, m, rng, proposals):
    """Every plan build_plan and decode_with_stats return for each
    proposal (None for an unguided attempt), with the totals they return.
    A build_plan dead end is skipped; decode_with_stats then restarts."""
    for vec in proposals:
        try:
            yield build_plan(inst, m, rng, vec)
        except DeadEnd:
            pass
        plan, _, waited, rotation_km = decode_with_stats(inst, m, rng, 1000, vec)
        yield plan, waited, rotation_km


def test_constructor_totals_score_bit_identical(fig1, fig1_matrices, chain):
    """The swarm scores each decode from the constructor's own totals; they
    give exactly fitness_value's float and decode_rotations' feasibility."""
    rng = np.random.default_rng(11)

    def mixed(n, tries):
        return [None] * tries + [rng.integers(1, n + 1, size=n).tolist() for _ in range(tries)]

    overrun = overrun_instance()
    cases = [
        (fig1, fig1_matrices, mixed(fig1.n, 20)),  # restarts and guided fallbacks
        (chain, build_matrices(chain), mixed(chain.n, 20)),
        # the in-order walk runs the long chain over the allowance on its
        # last, depot-bound leg: the proposal channel admits it
        (overrun, build_matrices(overrun), [[1, 2, 3, 4, 5, 6]] + mixed(overrun.n, 10)),
    ]
    for pairs in (3, 4, 5, 50, 250):
        inst = generate_instance(pairs, 4, seed=pairs)
        m = build_matrices(inst)
        heavy = inst.with_params(omega2=1.0)  # every cut pays: the split merges what fits
        cases += [(inst, m, mixed(inst.n, 4 if pairs > 50 else 20)),
                  (heavy, build_matrices(heavy), mixed(inst.n, 2 if pairs > 50 else 10))]
    overruns = 0
    for inst, m, proposals in cases:
        for plan, waited, rotation_km in _scored_builds(inst, m, rng, proposals):
            fit, feasible = fitness_from_totals(waited, rotation_km, inst.params)
            assert fit == fitness_value(plan, inst, m)
            rotations = decode_rotations(plan, inst, m)
            assert feasible == all(r.total_mileage <= inst.params.max_mileage for r in rotations)
            overruns += not feasible
    assert overruns > 0  # the penalty branch ran


def _least_placement_fitness(plan, inst, m):
    """The least fitness_value over every maintenance placement on plan's
    order: a flag or none at each depot arrival before the last position.
    A placement counts when each rotation fits the time window and none that
    joins two depot-to-depot pieces breaks the mileage allowance; a piece
    over it on its own (a relaxed proposal) is scored with its penalty."""
    order, n = plan.order, plan.n
    at_depot = m.tables.arr_at_depot
    max_l, max_t = inst.params.max_mileage, inst.params.max_time
    sites = [d for d in range(n - 1) if at_depot[order[d]]]
    least = math.inf
    for mask in range(1 << len(sites)):
        flags = [0] * n
        flags[-1] = 1
        for b, d in enumerate(sites):
            flags[d] = mask >> b & 1
        candidate = CirculationPlan(order, tuple(flags))
        if any(r.total_time > max_t
               or r.total_mileage > max_l and any(at_depot[t] for t in r.trains[:-1])
               for r in decode_rotations(candidate, inst, m)):
            continue
        least = min(least, fitness_value(candidate, inst, m))
    return least


@pytest.mark.parametrize("omega2", [0.01, 1.0])
def test_split_is_exact_against_enumeration(omega2):
    """Every attempt, guided or not, returns the least fitness that any
    maintenance placement on its order reaches."""
    rng = np.random.default_rng(31)
    overrun = overrun_instance().with_params(omega2=omega2)
    cases = [(overrun, [[1, 2, 3, 4, 5, 6], [4, 5, 6, 1, 2, 3]])]
    for pairs in (2, 3, 4, 5):
        for seed in range(1, 11):
            inst = generate_instance(pairs, 1 + seed % 2, seed=seed).with_params(omega2=omega2)
            cases.append((inst, [None] * 3 + [rng.integers(1, inst.n + 1, size=inst.n).tolist()
                                              for _ in range(3)]))
    checked = merged = overruns = 0
    for inst, proposals in cases:
        m = build_matrices(inst)
        for vec in proposals:
            try:
                plan, waited, rotation_km = build_plan(inst, m, rng, vec)
            except DeadEnd:
                continue
            fit, feasible = fitness_from_totals(waited, rotation_km, inst.params)
            assert fit == _least_placement_fitness(plan, inst, m)
            checked += 1
            merged += sum(plan.maint_after) < sum(m.tables.arr_at_depot[t] for t in plan.order)
            overruns += not feasible
    assert checked > 200 and merged > 0 and overruns > 0


def test_split_of_the_oracle_order_reaches_the_optimum():
    # the oracle's best order, proposed, is taken whole: its rotations fit,
    # so every piece between depot arrivals does
    for pairs in (3, 4, 5):
        for seed in range(1, 21):
            inst = generate_instance(pairs, 2, seed=seed)
            m = build_matrices(inst)
            exact = brute_force(inst, m)
            plan, waited, rotation_km = build_plan(inst, m, np.random.default_rng(seed),
                                                   exact.best_plan.order)
            assert plan.order == exact.best_plan.order
            fit = fitness_from_totals(waited, rotation_km, inst.params)[0]
            assert fit == objective_value(plan, inst, m)
            assert fit == pytest.approx(exact.best_objective, abs=1e-9)


class NoDraw:
    """A source that must not be read."""

    def random(self):
        raise AssertionError("a replay drew a uniform")


def test_replaying_a_realized_order_takes_it_without_a_draw(fig1, fig1_matrices):
    """Proposing a returned plan's order gives back the plan and its totals
    with no draw and no dead end: every entry is legal where the walk meets
    it, whether the attempt was unguided, guided, a guided attempt that fell
    back, or a relaxed proposal that overruns the allowance. The swarm keeps
    a particle's last decode while its position stays on this."""
    rng = np.random.default_rng(23)
    overrun = overrun_instance()
    cases = [(fig1, fig1_matrices, 30), (overrun, build_matrices(overrun), 30)]
    for pairs in (3, 4, 5):
        for seed in (1, 2, 3):
            inst = generate_instance(pairs, 1 + seed % 2, seed=seed)
            for omega2 in (0.01, 1.0):
                paired = inst.with_params(omega2=omega2)
                cases.append((paired, build_matrices(paired), 20))
    large = generate_instance(50, 4, seed=2)
    cases.append((large, build_matrices(large), 4))
    replayed = fallbacks = overruns = 0
    for inst, m, tries in cases:
        n = inst.n
        proposals = [None] * tries + [rng.integers(1, n + 1, size=n).tolist() for _ in range(tries)]
        if inst is overrun:
            proposals.append([1, 2, 3, 4, 5, 6])
        for vec in proposals:
            plan, failed, waited, rotation_km = decode_with_stats(inst, m, rng, 1000, vec)
            # the order with a few entries moved, as a swarm step proposes it
            near = list(plan.order)
            for d in rng.integers(0, n, size=3):
                near[d] = int(rng.integers(1, n + 1))
            near_plan, _, near_waited, near_km = decode_with_stats(inst, m, rng, 1000, near)
            built = [(plan, waited, rotation_km), (near_plan, near_waited, near_km)]
            try:
                built.append(build_plan(inst, m, rng, vec))
            except DeadEnd:
                pass
            for p, w, km in built:
                assert decode_with_stats(inst, m, NoDraw(), 0, list(p.order)) == (p, 0, w, km)
                replayed += 1
                overruns += not fitness_from_totals(w, km, inst.params)[1]
            fallbacks += vec is not None and failed > 0
    assert replayed > 1000 and fallbacks > 0 and overruns > 0


def test_constructed_plans_cover_multiple_shapes():
    # the random order decides which cuts the split can drop, so the
    # rotation counts vary (on fig1 no cut pays at the default weights)
    inst = generate_instance(5, 2, seed=3)
    m = build_matrices(inst)
    counts = set()
    rng = np.random.default_rng(7)
    for _ in range(60):
        plan = construct(inst, m, rng)
        counts.add(plan.n_rotations)
    assert len(counts) >= 2


def test_scales_with_eager_maintenance():
    # a large paired instance
    inst = generate_instance(50, 4, seed=1)
    m = build_matrices(inst)
    rng = np.random.default_rng(0)
    plan, failed, _, _ = construct_with_stats(inst, m, rng)
    assert validate(plan, inst, m).ok
    assert failed < 20


def _plan_sha(plan, inst, m):
    return hashlib.sha256(render_plan(plan, inst, m).encode()).hexdigest()


# SHA-256 of render_plan output for fixed seeds. Any change to the order or
# number of random draws in construction or decoding changes these plans.
GOLDEN_CONSTRUCT = {
    # (n_pairs, turnback stations, instance seed, rng seed, kwargs): sha
    (4, 2, 3, 5, ()): "1732ca7f774d98d5b4090a930c3f2fce7cfc8168a880469fab873fd738154f0f",
    (50, 4, 1, 2, (("max_restarts", 1000),)):
        "033cd6abe0652ad37744e4815e824ca41aee5c0459bf8e5bef4f2463492343a8",
    (250, 8, 1, 2, (("max_restarts", 1000),)):
        "2948a8408b5dcfffc6f06108bf381fec774301e57a90db8cd51472f036081b03",
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


def _build_outcomes(inst, m, rng, proposals):
    """One line per build_cycle and decode_with_stats call: the plan and
    totals (and failed attempts), or the exception's type and message."""
    for vec in proposals:
        try:
            order, maint_after, waited, rotation_km = build_cycle(inst, m, rng, vec)
            yield repr((tuple(order), tuple(maint_after), waited, rotation_km))
        except (DeadEnd, InfeasibleError) as exc:
            yield f"{type(exc).__name__}: {exc}"
        try:
            plan, failed, waited, rotation_km = decode_with_stats(inst, m, rng, 30, vec)
            yield repr((plan.order, plan.maint_after, failed, waited, rotation_km))
        except InfeasibleError as exc:
            yield f"{type(exc).__name__}: {exc}"


# SHA-256 over every outcome of a case, recorded when maintenance placement
# became the exact split: any change to the plans, the totals, the dead ends
# or the draws they consume changes these.
GOLDEN_BUILDS = {
    "n6": "d6c883c785739069a0ae58b402a4c49a9846edadc94cd8f979fd25ec52397182",
    "n10": "950a4533c33b11a2e385980f662bccad58295fc0a0bc7f3e96e300f7bd779741",
    "n100": "f877ac7553260a5580176406322a3ba7f1f70875aa14593489ed0a8fe80230ef",
    "n500": "e7e9e8ace16df9ffb8e988428b70bbc26c2cfbff02e3b6222bb243ae62d908f6",
    "fig1": "30da0a3a5a2e267b1fd51cd201e574ed79a6c3ab864005640c925610e7a4b92a",
    "chain": "9e0d072615ac5822cb1d12829e15c9273ce535e7523f55d48e4c15b794b971b9",
    "t1600-n10": "64801a0343ba7b6f1d0f7d65c07da2001c31a960150dec7cfeaac021c8a13e57",
    "t1600-n100": "11eab002513edb9450b47e5da13150126a9fbd1b057f0985ad0053447bab60c3",
    "t2000-n10": "7390fd71a04f0881ba22d02d7cdb83ebc45e6689982b9bd528fd93607d1a50dd",
    "t2000-n100": "b88ece8666238fd67e21408379d28f230d7b32a47776450bc12b793707a01c3b",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_BUILDS))
def test_golden_build_outcomes(case, fig1, chain):
    inst = _golden_build_instance(case, fig1, chain)
    m = build_matrices(inst)
    rng = np.random.default_rng(7)
    lines = list(_build_outcomes(inst, m, rng, _golden_proposals(inst.n, rng)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN_BUILDS[case]
