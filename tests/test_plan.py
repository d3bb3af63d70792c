import hashlib

import numpy as np
import pytest

from emu_roster import (
    CirculationPlan,
    InvalidPlanError,
    ModelParams,
    Rotation,
    TimetableInstance,
    Train,
    ValidationReport,
    build_matrices,
    construct,
    decode_rotations,
    fitness_value,
    generate_instance,
    objective_value,
    parse_plan,
    plan_summary,
    render_dot,
    render_plan,
    validate,
)


def pair_instance(conn_gap=40, mileage=500.0, params=None):
    """Two trains C->X->C with a chosen same-day gap at X."""
    t1 = Train(1, "C", 8 * 60, "X", 10 * 60, mileage, 120)
    t2 = Train(2, "X", 10 * 60 + conn_gap, "C", 12 * 60 + conn_gap, mileage, 120)
    return TimetableInstance(
        trains=(t1, t2),
        maint_station="C",
        params=params or ModelParams(),
    )


PAIR_PLAN = CirculationPlan(order=(1, 2), maint_after=(0, 1))


# --- accumulation -----------------------------------------------------------
# Train 2 arrives at the depot C where train 1 departs: the arc 2 -> 1 waits
# 1160 min (12:40 to 08:00 the next day) unless it is a maintenance arc.

def _accum(plan, inst):
    """(accum_km, accum_min) per position, as render_plan prints them."""
    lines = render_plan(plan, inst, build_matrices(inst)).splitlines()
    return [(float(ln.split()[7]), int(ln.split()[9])) for ln in lines if ln.startswith("pos ")]


def test_accumulate_resets_on_maintenance():
    inst = pair_instance()
    plan = CirculationPlan(order=(2, 1), maint_after=(1, 1))
    assert _accum(plan, inst) == [(500.0, 120), (500.0, 120)]
    rotations = decode_rotations(plan, inst, build_matrices(inst))
    assert [(r.total_mileage, r.total_time, r.connection_time) for r in rotations] == [
        (500.0, 120, 0),
        (500.0, 120, 0),
    ]


def test_accumulate_adds_connection_and_travel():
    inst = pair_instance()
    plan = CirculationPlan(order=(2, 1), maint_after=(0, 1))
    assert _accum(plan, inst) == [(500.0, 120), (1000.0, 120 + 1160 + 120)]
    (rotation,) = decode_rotations(plan, inst, build_matrices(inst))
    assert (rotation.total_mileage, rotation.total_time, rotation.connection_time) == (
        1000.0,
        1400,
        1160,
    )


def test_accumulate_from_zero_state():
    # position 1 starts at its train's own totals, whatever closes the loop
    inst = pair_instance(conn_gap=40)
    assert _accum(PAIR_PLAN, inst) == [(500.0, 120), (1000.0, 280)]
    (rotation,) = decode_rotations(PAIR_PLAN, inst, build_matrices(inst))
    assert (rotation.total_time, rotation.connection_time) == (280, 40)


# --- rotations --------------------------------------------------------------

def test_fig1_rotations(fig1, fig1_matrices, fig1_plan):
    rotations = decode_rotations(fig1_plan, fig1, fig1_matrices)
    assert [r.trains for r in rotations] == [
        (1, 2, 3, 4),
        (5, 6, 7, 8),
        (9, 10, 11, 12),
    ]
    assert [r.total_mileage for r in rotations] == [1600.0, 1840.0, 1840.0]
    assert [r.total_time for r in rotations] == [575, 620, 1040]


def test_all_maintenance_gives_single_train_rotations():
    inst = generate_instance(2, 1, seed=3)
    m = build_matrices(inst)
    plan = CirculationPlan(order=(1, 2, 3, 4), maint_after=(1, 1, 1, 1))
    rotations = decode_rotations(plan, inst, m)
    assert len(rotations) == 4
    assert all(len(r.trains) == 1 for r in rotations)


def test_two_train_single_rotation():
    inst = pair_instance()
    rotations = decode_rotations(PAIR_PLAN, inst, build_matrices(inst))
    assert len(rotations) == 1
    assert rotations[0].trains == (1, 2)
    assert rotations[0].total_mileage == 1000.0


def test_rotation_concatenation_is_identity(fig1, fig1_matrices):
    rng = np.random.default_rng(5)
    for _ in range(50):
        plan = construct(fig1, fig1_matrices, rng)
        rotations = decode_rotations(plan, fig1, fig1_matrices)
        flat = tuple(t for r in rotations for t in r.trains)
        assert flat == plan.order


def test_mileage_conservation(fig1, fig1_matrices):
    rng = np.random.default_rng(6)
    total = fig1.total_mileage
    for _ in range(50):
        plan = construct(fig1, fig1_matrices, rng)
        rotations = decode_rotations(plan, fig1, fig1_matrices)
        assert sum(r.total_mileage for r in rotations) == pytest.approx(total, abs=1e-9)


# --- validation -------------------------------------------------------------

def test_fig1_plan_is_valid(fig1, fig1_matrices, fig1_plan):
    assert validate(fig1_plan, fig1, fig1_matrices).ok


def test_numpy_integer_ids_are_valid(fig1, fig1_matrices, fig1_plan):
    # swarm positions are int64 arrays; their entries are train ids too
    plan = CirculationPlan(order=tuple(np.array(fig1_plan.order, dtype=np.int64)),
                           maint_after=fig1_plan.maint_after)
    assert validate(plan, fig1, fig1_matrices).ok


@pytest.mark.parametrize("bad", [True, 1.0])
def test_non_integer_ids_are_shape(fig1, fig1_matrices, fig1_plan, bad):
    plan = CirculationPlan(order=(bad,) + fig1_plan.order[1:], maint_after=fig1_plan.maint_after)
    assert "SHAPE" in validate(plan, fig1, fig1_matrices).tags()


def test_duplicate_train_is_degree_violation(fig1, fig1_matrices):
    plan = CirculationPlan(order=(1, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
                           maint_after=(0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1))
    tags = validate(plan, fig1, fig1_matrices).tags()
    assert "EQ8/EQ9" in tags


def test_maintenance_away_from_depot_is_eq10(fig1, fig1_matrices):
    # cut after train 2 (at station B): theta is 0 there
    plan = CirculationPlan(order=tuple(range(1, 13)),
                           maint_after=(0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1))
    tags = validate(plan, fig1, fig1_matrices).tags()
    assert "EQ10" in tags


def test_mileage_overrun_is_eq11():
    inst = pair_instance(mileage=2200.0)  # rotation of 4400 km > 4200
    report = validate(PAIR_PLAN, inst, build_matrices(inst))
    assert report.tags() == {"EQ11"}


def test_time_overrun_is_eq12(fig1, fig1_matrices):
    # one big rotation: only the closing arc is a maintenance arc; the
    # accumulated time blows through two overnight wraps
    plan = CirculationPlan(order=tuple(range(1, 13)),
                           maint_after=(0,) * 11 + (1,))
    tags = validate(plan, fig1, fig1_matrices).tags()
    assert "EQ12" in tags


def test_unconnectable_arc_is_conn(fig1, fig1_matrices):
    # 1 arrives at A, 5 departs C: cannot follow each other
    plan = CirculationPlan(order=(1, 5, 6, 7, 8, 2, 3, 4, 9, 10, 11, 12),
                           maint_after=(0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1))
    tags = validate(plan, fig1, fig1_matrices).tags()
    assert "CONN" in tags


def test_missing_closing_flag_is_shape(fig1, fig1_matrices):
    plan = CirculationPlan(order=tuple(range(1, 13)), maint_after=(1,) + (0,) * 11)
    assert "SHAPE" in validate(plan, fig1, fig1_matrices).tags()


def test_wrong_length_is_shape(fig1, fig1_matrices):
    plan = CirculationPlan(order=(1, 2, 3), maint_after=(0, 0, 1))
    assert "SHAPE" in validate(plan, fig1, fig1_matrices).tags()


def test_validator_lists_all_violations(fig1, fig1_matrices):
    plan = CirculationPlan(order=(1, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
                           maint_after=(0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0))
    report = validate(plan, fig1, fig1_matrices)
    assert len(report.violations) >= 2  # exhaustive, not fail-fast


# --- independent 0-1 model checker ------------------------------------------

def model_ok(plan, instance, matrices):
    """Direct check over the induced arc variables: unit degrees, maintenance
    only on eligible arcs, cycle-limit recursions, one closed loop.
    Intentionally reimplemented from scratch.
    """
    n = instance.n
    if len(plan.order) != n or len(plan.maint_after) != n:
        return False
    if any(f not in (0, 1) for f in plan.maint_after):
        return False
    if plan.maint_after[-1] != 1:
        return False
    if sorted(plan.order) != list(range(1, n + 1)):
        return False

    x = {}
    y = {}
    for d in range(n):
        i, j = plan.order[d], plan.order[(d + 1) % n]
        x[(i, j)] = 1
        y[(i, j)] = plan.maint_after[d]
    for j in range(1, n + 1):
        if sum(x.get((i, j), 0) for i in range(1, n + 1)) != 1:
            return False
        if sum(x.get((j, i), 0) for i in range(1, n + 1)) != 1:
            return False
    for (i, j), yij in y.items():
        connects = matrices.conn_rows[i - 1][j - 1] is not None
        # eligible: train i arrives at the depot station and the pair connects
        if yij > (connects and instance.train(i).arr_station == instance.maint_station):
            return False
        if not connects:
            return False

    succ = {i: j for (i, j) in x}
    seen = set()
    cur = plan.order[0]
    while cur not in seen:
        seen.add(cur)
        cur = succ[cur]
    if len(seen) != n or cur != plan.order[0]:
        return False

    max_l = (1 + instance.params.lam) * instance.params.l_cycle
    max_t = (1 + instance.params.lam) * instance.params.t_cycle
    start = plan.order[0]  # incoming arc is a maintenance arc
    l = t = 0.0
    cur = start
    prev = None
    for _ in range(n):
        train = instance.train(cur)
        if prev is None or y[(prev, cur)]:
            l, t = train.mileage, train.travel_time
        else:
            l += train.mileage
            t += matrices.time(prev - 1, cur - 1) + train.travel_time
        if l > max_l or t > max_t:
            return False
        prev, cur = cur, succ[cur]
    return True


def test_validator_matches_direct_model_checker(fig1, fig1_matrices):
    rng = np.random.default_rng(99)
    agree = 0
    for _ in range(300):
        if rng.random() < 0.4:
            plan = construct(fig1, fig1_matrices, rng)
        else:
            order = tuple(rng.permutation(12) + 1)
            flags = tuple(int(rng.random() < 0.4) for _ in range(11)) + (
                (1,) if rng.random() < 0.8 else (0,)
            )
            plan = CirculationPlan(order=order, maint_after=flags)
        ours = validate(plan, fig1, fig1_matrices).ok
        theirs = model_ok(plan, fig1, fig1_matrices)
        assert ours == theirs
        agree += 1
    assert agree == 300


# --- objective and fitness ---------------------------------------------------

def test_objective_hand_value():
    inst = pair_instance(conn_gap=40)
    m = build_matrices(inst)
    assert objective_value(PAIR_PLAN, inst, m) == pytest.approx(72.0, abs=1e-12)


def test_objective_drops_with_tighter_connection():
    loose = pair_instance(conn_gap=40)
    tight = pair_instance(conn_gap=20)
    delta = objective_value(PAIR_PLAN, loose, build_matrices(loose)) - objective_value(
        PAIR_PLAN, tight, build_matrices(tight)
    )
    assert delta == pytest.approx(20.0 * loose.params.omega1, abs=1e-12)


def test_objective_without_slack_weight():
    inst = pair_instance(conn_gap=40, params=ModelParams(omega2=0.0))
    m = build_matrices(inst)
    assert objective_value(PAIR_PLAN, inst, m) == 40.0


def test_objective_rejects_invalid_plan():
    inst = pair_instance(mileage=2200.0)
    with pytest.raises(InvalidPlanError):
        objective_value(PAIR_PLAN, inst, build_matrices(inst))


def test_fig1_objective_hand_value(fig1, fig1_matrices, fig1_plan):
    # 785 waiting minutes + 0.01 * (2600 + 2360 + 2360) slack
    assert objective_value(fig1_plan, fig1, fig1_matrices) == pytest.approx(858.2, abs=1e-12)


def test_fitness_boundary_rotation_contributes_zero():
    inst = pair_instance(conn_gap=40, mileage=2100.0)  # exactly (1+lam)*l_cycle
    m = build_matrices(inst)
    assert fitness_value(PAIR_PLAN, inst, m) == 40.0


def test_fitness_slack_branch():
    inst = pair_instance(conn_gap=40, mileage=1500.0)  # rotation 3000 km
    m = build_matrices(inst)
    assert fitness_value(PAIR_PLAN, inst, m) == pytest.approx(40.0 + 12.0, abs=1e-12)


def test_fitness_penalty_branch():
    inst = pair_instance(conn_gap=40, mileage=2250.0)  # rotation 4500 km
    m = build_matrices(inst)
    assert fitness_value(PAIR_PLAN, inst, m) == pytest.approx(40.0 + 30.0, abs=1e-12)


def test_fitness_equals_objective_when_feasible(fig1, fig1_matrices):
    rng = np.random.default_rng(12)
    for _ in range(100):
        plan = construct(fig1, fig1_matrices, rng)
        assert fitness_value(plan, fig1, fig1_matrices) == objective_value(
            plan, fig1, fig1_matrices
        )


# --- summary and file format --------------------------------------------------

def test_summary_fig1(fig1, fig1_matrices, fig1_plan):
    s = plan_summary(fig1_plan, fig1, fig1_matrices)
    assert s.n_rotations == 3
    assert s.total_connection_time == 785
    assert s.objective == objective_value(fig1_plan, fig1, fig1_matrices)
    assert s.min_rotation_mileage == 1600.0
    assert s.max_rotation_time == 1040


def test_summary_counts_all_maintenance():
    inst = generate_instance(2, 1, seed=3)
    m = build_matrices(inst)
    plan = CirculationPlan(order=(1, 2, 3, 4), maint_after=(1, 1, 1, 1))
    assert plan_summary(plan, inst, m).n_rotations == 4


def test_plan_file_roundtrip(fig1, fig1_matrices, fig1_plan):
    text = render_plan(fig1_plan, fig1, fig1_matrices)
    back = parse_plan(text)
    assert back == fig1_plan
    assert text.startswith("cycle\n")
    assert "rotations 3" in text
    assert "rotation 1: 1,2,3,4 km 1600.0 min 575" in text


def test_plan_file_rejects_garbage():
    from emu_roster import PlanFormatError

    with pytest.raises(PlanFormatError, match="line 1"):
        parse_plan("nonsense\n")
    with pytest.raises(PlanFormatError, match="cycle"):
        parse_plan("pos 1 train 1 maint 1\n")
    with pytest.raises(PlanFormatError, match="duplicate"):
        parse_plan("cycle\npos 1 train 1 maint 0\npos 1 train 2 maint 1\n")
    # int() also reads other scripts' digits, a sign and underscores between
    # digits; the file format takes ASCII digits only
    for line in ("pos \u0661 train 1 maint 1", "pos 1 train \u0662 maint 1",
                 "pos 1 train 1 maint \u0661", "pos +1 train 1 maint 1",
                 "pos 1 train 0_2 maint 1", "pos 1 train 1 maint -0"):
        with pytest.raises(PlanFormatError) as info:
            parse_plan(f"cycle\n{line}\n")
        assert str(info.value) == "line 2: position, train id and flag must be integers"


def test_rotation_and_fitness_helpers_reject_unknown_ids(fig1, fig1_matrices):
    plan = CirculationPlan(order=(99, 2) + tuple(range(3, 13)),
                           maint_after=(0,) * 11 + (1,))
    with pytest.raises(InvalidPlanError, match="99"):
        decode_rotations(plan, fig1, fig1_matrices)
    with pytest.raises(InvalidPlanError):
        fitness_value(plan, fig1, fig1_matrices)
    # the validator stays total and just reports
    assert "SHAPE" in validate(plan, fig1, fig1_matrices).tags()


def test_rotation_and_fitness_helpers_reject_a_repeated_train(fig1, fig1_matrices):
    # train 3 twice and train 6 never: every id is in range, so only the
    # permutation check stands between the plan and a score
    built = construct(fig1, fig1_matrices, np.random.default_rng(0))
    order = list(built.order)
    order[1] = 3
    plan = CirculationPlan(order=tuple(order), maint_after=built.maint_after)
    assert 6 not in plan.order
    assert "EQ8/EQ9" in validate(plan, fig1, fig1_matrices).tags()
    for helper in (decode_rotations, fitness_value, plan_summary, render_plan):
        with pytest.raises(InvalidPlanError, match="exactly once"):
            helper(plan, fig1, fig1_matrices)
    # a short order with no repeat is refused the same way
    with pytest.raises(InvalidPlanError, match="exactly once"):
        decode_rotations(CirculationPlan(order=(1, 2), maint_after=(0, 1)), fig1, fig1_matrices)


def _flag_5_is_2(plan):
    flags = list(plan.maint_after)
    flags[4] = 2
    return CirculationPlan(plan.order, tuple(flags))


def _flag_4_is_a_list(plan):
    flags = list(plan.maint_after)
    flags[3] = [1]
    return CirculationPlan(plan.order, tuple(flags))


@pytest.mark.parametrize("corrupt", [
    _flag_5_is_2,
    lambda plan: CirculationPlan(tuple(True if t == 1 else t for t in plan.order),
                                 plan.maint_after),
    lambda plan: CirculationPlan(tuple(map(float, plan.order)), plan.maint_after),
    _flag_4_is_a_list,
], ids=["flag-2", "bool-id", "float-ids", "list-flag"])
def test_rotation_and_fitness_helpers_refuse_what_validate_calls_shape(
        fig1, fig1_matrices, corrupt):
    plan = corrupt(construct(fig1, fig1_matrices, np.random.default_rng(0)))
    assert "SHAPE" in validate(plan, fig1, fig1_matrices).tags()
    for helper in (decode_rotations, fitness_value, plan_summary, render_plan):
        with pytest.raises(InvalidPlanError):
            helper(plan, fig1, fig1_matrices)


def test_a_list_flag_is_named_where_validate_reports_it(fig1, fig1_matrices):
    plan = _flag_4_is_a_list(construct(fig1, fig1_matrices, np.random.default_rng(0)))
    # a plan whose flags are not all 0/1 is not walked: the flag is its only finding
    report = validate(plan, fig1, fig1_matrices)
    assert [(v.tag, v.position, v.message) for v in report.violations] == [
        ("SHAPE", 4, "maintenance flag [1] is not 0/1")]
    assert report.walk is None
    for helper in (decode_rotations, fitness_value, plan_summary, render_plan):
        with pytest.raises(InvalidPlanError) as info:
            helper(plan, fig1, fig1_matrices)
        assert str(info.value).endswith(": SHAPE maintenance flag [1] is not 0/1 (position 4)")


@pytest.mark.parametrize("kind", [bool, float], ids=["bool", "float"])
def test_a_flag_that_only_equals_0_or_1_is_shape(fig1, fig1_matrices, kind):
    plan = construct(fig1, fig1_matrices, np.random.default_rng(0))
    # True and 1.0 equal 1, yet render_plan would write "maint True" or "maint 1.0"
    flags = tuple(map(kind, plan.maint_after))
    report = validate(CirculationPlan(plan.order, flags), fig1, fig1_matrices)
    assert [(v.tag, v.position, v.message) for v in report.violations] == [
        ("SHAPE", d, f"maintenance flag {flag!r} is not 0/1") for d, flag in enumerate(flags, 1)]
    assert report.walk is None
    one = plan.maint_after[:-1] + (kind(1),)
    assert [str(v) for v in validate(CirculationPlan(plan.order, one), fig1, fig1_matrices)
            .violations] == [f"SHAPE maintenance flag {kind(1)!r} is not 0/1"]
    with pytest.raises(InvalidPlanError):
        render_plan(CirculationPlan(plan.order, one), fig1, fig1_matrices)
    # any other integer type is a flag, as it is an id
    numpy_flags = CirculationPlan(plan.order, tuple(map(np.int64, plan.maint_after)))
    assert validate(numpy_flags, fig1, fig1_matrices).ok
    assert (render_plan(numpy_flags, fig1, fig1_matrices)
            == render_plan(plan, fig1, fig1_matrices))


@pytest.mark.parametrize("bad", [[1], "a"], ids=["unhashable", "unordered"])
def test_validate_stays_total_on_ids_it_cannot_sort(fig1, fig1_matrices, bad):
    plan = CirculationPlan(order=(bad, 99) + tuple(range(3, 13)), maint_after=(0,) * 11 + (1,))
    assert [str(v) for v in validate(plan, fig1, fig1_matrices).violations] == [
        f"SHAPE train ids outside 1..12: {[bad, 99]}",
        "EQ8/EQ9 trains never used: [1, 2]",
    ]
    with pytest.raises(InvalidPlanError, match="99"):
        decode_rotations(plan, fig1, fig1_matrices)


# --- golden validator text and summary -----------------------------------------

def _golden_n100():
    inst = generate_instance(50, 4, seed=1)
    m = build_matrices(inst)
    plan = construct(inst, m, np.random.default_rng(7), max_restarts=1000)
    return inst, m, plan


def _corrupt(plan, inst, m, family):
    """Break the n = 100 golden plan so that validate reports `family`."""
    order, flags = list(plan.order), list(plan.maint_after)
    rots = decode_rotations(plan, inst, m)
    ends = [d for d, flag in enumerate(flags) if flag]  # the last position of each rotation
    n = len(order)
    train = inst.train
    if family == "CONN":  # swap the successor of the first ordinary arc for one departing elsewhere
        d = next(d for d in range(n - 2) if flags[d] == 0
                 and train(order[d]).arr_station != train(order[d + 2]).dep_station)
        order[d + 1], order[d + 2] = order[d + 2], order[d + 1]
    elif family == "EQ8/EQ9":
        order[10] = order[20]
    elif family == "SHAPE":
        flags[-1] = 0
    elif family == "EQ10":
        d = next(d for d in range(n) if train(order[d]).arr_station not in inst.maint_stations)
        flags[d] = 1
    elif family == "EQ11":  # merges the fewest rotations (earliest first) past the km allowance
        km = [r.total_mileage for r in rots]
        k, size = next(
            (k, size) for size in range(2, len(km) + 1) for k in range(len(km) - size + 1)
            if sum(km[k : k + size]) > inst.params.max_mileage
        )
        for d in ends[k : k + size - 1]:
            flags[d] = 0
    elif family == "EQ12":  # merges two rotations past the time allowance only
        flags[next(
            d for d, a, b in zip(ends, rots, rots[1:])
            if a.total_mileage + b.total_mileage <= inst.params.max_mileage
            and a.total_time + m.time(a.trains[-1] - 1, b.trains[0] - 1) + b.total_time
            > inst.params.max_time
        )] = 0
    return CirculationPlan(order=tuple(order), maint_after=tuple(flags))


# SHA-256 of the position and text of every violation, one per line
GOLDEN_VIOLATIONS = {
    "CONN": "b066177570686c0c532a46ca17d65a98f8d286eebf8debb62f328dd4374ea773",
    "EQ8/EQ9": "650069ee046e852d73adfaac8782a8aabf6cff517f7e4fc6cd44b013b6dec10c",
    "SHAPE": "76bf8f6ebb66f6254c15378e55ab95550b7b5759f7e036d93464902fc0edbe11",
    "EQ10": "45ab70006c06340036a996fa12e89477fc5153c65992a34e896dfc5a39c4e0de",
    "EQ11": "1ea5c5065fcb6eee306dd78fbf20fafdc970e1411685a0305c7e8fe3c475839e",
    "EQ12": "959eeced8394d252d966d3ac3dc3433948ec64d4ca9141df55c2929ffc0d5c70",
}
# SHA-256 of repr(plan_summary) of the clean plan: every field, floats exact
GOLDEN_SUMMARY = "087b22f24c38e0aaee6dc3009b6acdb4f09bb308b67b87a4ffedd60876c98909"


@pytest.mark.parametrize("family", sorted(GOLDEN_VIOLATIONS))
def test_golden_violation_text(family):
    inst, m, plan = _golden_n100()
    report = validate(_corrupt(plan, inst, m, family), inst, m)
    assert family in report.tags()
    text = "\n".join(f"{v.position} {v}" for v in report.violations)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_VIOLATIONS[family]


def test_golden_summary():
    inst, m, plan = _golden_n100()
    summary = plan_summary(plan, inst, m)
    assert hashlib.sha256(repr(summary).encode()).hexdigest() == GOLDEN_SUMMARY


# SHA-256 of the read side's output on the n = 100 golden plan ("clean") and on
# its EQ11 variant, which is structurally sound but overruns the km allowance
GOLDEN_READ_SIDE = {
    "render_plan clean": "40d94a502805faa50ba579d95a4fd2144010768d4264a8fbcffa8f11a15f0f79",
    "render_dot clean": "47cdab3824be8fa43ff85b2da604dd2ba7ef6dbc4c30175daf0a27ebf66bcab0",
    "objective_value clean": "318f2fa8247d00c02b29bcab0016490530ed57d4f9e0e5efaf00e6ccfc516967",
    "render_plan EQ11": "ba5c819be684bdf355b946767089512317065a20ba4601c9d6fba49c036c978b",
    "plan_summary EQ11": "00ee01f5ed6479b1eb54fbddb4a31ad119a064a1f0613fd84f237d5d99d5239b",
}


def test_golden_read_side():
    inst, m, plan = _golden_n100()
    overrun = _corrupt(plan, inst, m, "EQ11")
    summary = plan_summary(overrun, inst, m)
    assert summary.objective is None
    texts = {
        "render_plan clean": render_plan(plan, inst, m),
        "render_dot clean": render_dot(plan, inst, m),
        "objective_value clean": repr(objective_value(plan, inst, m)),
        "render_plan EQ11": render_plan(overrun, inst, m),
        "plan_summary EQ11": repr(summary),
    }
    assert {k: hashlib.sha256(t.encode()).hexdigest() for k, t in texts.items()} == GOLDEN_READ_SIDE
    assert parse_plan(texts["render_plan clean"]) == plan
    assert parse_plan(texts["render_plan EQ11"]) == overrun


@pytest.mark.parametrize("family", sorted(GOLDEN_VIOLATIONS))
def test_refusal_and_report_agree(family):
    # the readers that need a sound plan refuse exactly what validate calls
    # SHAPE, EQ8/EQ9 or CONN, all with one text naming every such finding
    inst, m, plan = _golden_n100()
    broken = _corrupt(plan, inst, m, family)
    if family not in ("SHAPE", "EQ8/EQ9", "CONN"):
        decode_rotations(broken, inst, m)
        fitness_value(broken, inst, m)
        render_plan(broken, inst, m)
        assert plan_summary(broken, inst, m).objective is None
        return
    unsound = [v for v in validate(broken, inst, m).violations
               if v.tag in ("SHAPE", "EQ8/EQ9", "CONN")]
    named = "; ".join(str(v) if v.position is None else f"{v} (position {v.position})"
                      for v in unsound)
    for reader in (decode_rotations, render_plan, fitness_value, plan_summary):
        with pytest.raises(InvalidPlanError) as info:
            reader(broken, inst, m)
        assert str(info.value) == (
            f"plan does not run each train exactly once in one connected cycle: {named}")


def test_report_repr_and_equality_leave_out_the_walk(fig1, fig1_matrices, fig1_plan):
    report = validate(fig1_plan, fig1, fig1_matrices)
    assert report.walk is not None
    assert repr(report) == "ValidationReport(violations=())"
    assert report == ValidationReport(())
    assert hash(report) == hash(ValidationReport(()))
    assert isinstance(report.walk.km, tuple) and isinstance(report.walk.ends, tuple)
    with pytest.raises(AttributeError):
        report.walk = None


def _as_int64(ids):
    return tuple(np.int64(t) for t in ids)


def _mixed(ids):
    return tuple(np.int64(t) if d % 2 else t for d, t in enumerate(ids))


@pytest.mark.parametrize("family", [None] + sorted(GOLDEN_VIOLATIONS))
def test_validate_reads_numpy_and_mixed_ids_like_plain_ints(family):
    inst, m, plan = _golden_n100()
    if family is not None:
        plan = _corrupt(plan, inst, m, family)
    expected = validate(plan, inst, m)
    for convert in (_as_int64, _mixed):
        assert validate(CirculationPlan(convert(plan.order), plan.maint_after), inst, m) == expected
    if family == "EQ8/EQ9":
        twice, never = [str(v) for v in expected.violations if v.tag == "EQ8/EQ9"]
        assert twice.startswith("EQ8/EQ9 trains used more than once: [")
        assert never.startswith("EQ8/EQ9 trains never used: [")


def test_rotation_repr_and_immutability():
    rot = Rotation((1, 2, 3), 1234.5, 600, 75)
    # the repr of the earlier frozen-dataclass record
    assert repr(rot) == (
        "Rotation(trains=(1, 2, 3), total_mileage=1234.5, total_time=600, connection_time=75)"
    )
    assert rot == Rotation(trains=(1, 2, 3), total_mileage=1234.5, total_time=600,
                           connection_time=75)
    assert hash(rot) == hash(Rotation((1, 2, 3), 1234.5, 600, 75))
    for name in ("trains", "total_mileage", "total_time", "connection_time"):
        with pytest.raises(AttributeError):
            setattr(rot, name, 0)
