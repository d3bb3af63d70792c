import dataclasses
import math
import pickle
import re
import time

import pytest

from emu_roster import (
    ModelParams,
    TimetableError,
    TimetableInstance,
    TimetableWarning,
    Train,
    generate_instance,
    brute_force,
    build_matrices,
    parse_timetable,
    render_timetable,
)
from emu_roster.timetable import _CLOCK, _HHMM, _parse_hhmm


def test_fig1_parses(fig1):
    assert fig1.n == 12
    assert len(fig1.maint_stations) == 1
    assert fig1.maint_station == "C"
    assert fig1.stations == frozenset({"A", "B", "C"})
    assert fig1.params.l_cycle == 4000.0
    assert fig1.params.t_cycle == 2880.0
    assert fig1.train(5).dep_time == 7 * 60 + 30
    assert fig1.train(5).mileage == 640.0


def test_stations_are_derived():
    # the stations the trains serve, the depot among them; the set form of
    # the depot holds it alone
    a, c = Train(1, "A", 360, "C", 420, 300.0, 60), Train(2, "C", 480, "A", 540, 300.0, 60)
    inst = TimetableInstance(trains=(a, c), maint_station="C")
    assert inst.stations == frozenset({"A", "C"})
    assert inst.maint_stations == frozenset({"C"}) == frozenset({inst.maint_station})
    assert [f.name for f in dataclasses.fields(inst)] == ["trains", "maint_station", "params"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.maint_station = "A"


def test_a_depot_no_train_serves_is_refused():
    a, c = Train(1, "A", 360, "C", 420, 300.0, 60), Train(2, "C", 480, "A", 540, 300.0, 60)
    with pytest.raises(TimetableError) as info:
        TimetableInstance(trains=(a, c), maint_station="B")
    assert str(info.value) == "unknown station in maint_stations: 'B'"
    # checked right after "no trains", before the ids and the flow balance
    with pytest.raises(TimetableError, match="no trains"):
        TimetableInstance(trains=(), maint_station="B")
    with pytest.raises(TimetableError, match="unknown station in maint_stations: 'B'"):
        TimetableInstance(trains=(c, a), maint_station="B")


def test_empty_file_is_no_trains():
    with pytest.raises(TimetableError, match="no trains"):
        parse_timetable("maint_station C\n")


@pytest.mark.parametrize("name", ["A B", "A#1", ""], ids=["space", "hash", "empty"])
def test_station_name_no_file_line_holds_is_refused(name):
    # render_timetable would write a train line that parse_timetable cannot read back
    trains = (Train(1, "C", 480, name, 600, 300.0, 120), Train(2, name, 660, "C", 780, 300.0, 120))
    with pytest.raises(TimetableError, match=re.escape(f"station name {name!r} must be one token")):
        TimetableInstance(trains=trains, maint_station="C")


def test_station_name_not_a_str_is_refused():
    # no name is a str: split() would raise AttributeError
    trains = (Train(1, 0, 480, 7, 600, 300.0, 120), Train(2, 7, 660, 0, 780, 300.0, 120))
    with pytest.raises(TimetableError, match=re.escape("station name 0 must be a str, got int")):
        TimetableInstance(trains=trains, maint_station=0)


def test_station_names_of_mixed_types_are_refused():
    # sorting an int among strs would raise TypeError
    trains = (Train(1, "C", 480, 7, 600, 300.0, 120), Train(2, 7, 660, "C", 780, 300.0, 120))
    with pytest.raises(TimetableError, match=re.escape("station name 7 must be a str, got int")):
        TimetableInstance(trains=trains, maint_station="C")


def test_flow_imbalance_rejected():
    # A: two arrivals, one departure
    with pytest.raises(TimetableError, match="flow imbalance"):
        parse_timetable(
            "maint_station C\n"
            "train 1 C 08:00 A 10:00 300.0 120\n"
            "train 2 A 11:00 C 13:00 300.0 120\n"
            "train 3 C 09:00 A 11:00 300.0 120\n"
        )


def test_duplicate_id_rejected():
    with pytest.raises(TimetableError, match="duplicate"):
        parse_timetable(
            "maint_station C\n"
            "train 1 C 08:00 A 10:00 300.0 120\n"
            "train 1 A 11:00 C 13:00 300.0 120\n"
        )


def test_duplicate_id_among_many_trains_is_found_in_linear_time():
    # 20,000 trains, id 1 twice: counting each id with list.count took seconds
    trains = (Train(1, "C", 480, "A", 600, 300.0, 120),
              *(Train(k, "C", 480, "A", 600, 300.0, 120) for k in range(1, 20_000)))
    start = time.perf_counter()
    with pytest.raises(TimetableError) as info:
        TimetableInstance(trains=trains, maint_station="C")
    elapsed = time.perf_counter() - start
    assert str(info.value) == "duplicate train id(s): [1]"
    assert elapsed < 1.0


def test_unknown_maint_station_rejected():
    with pytest.raises(TimetableError, match="unknown station"):
        parse_timetable(
            "maint_station D\n"
            "train 1 C 08:00 A 10:00 300.0 120\n"
            "train 2 A 11:00 C 13:00 300.0 120\n"
        )


def test_exactly_one_maint_station():
    with pytest.raises(TimetableError, match="maint_station"):
        parse_timetable(
            "maint_station C\nmaint_station A\n"
            "train 1 C 08:00 A 10:00 300.0 120\n"
            "train 2 A 11:00 C 13:00 300.0 120\n"
        )


def test_syntax_error_reports_line():
    with pytest.raises(TimetableError, match="line 2"):
        parse_timetable("maint_station C\ntrain 1 C 8h00 A 10:00 300.0 120\n")


@pytest.mark.parametrize("line, where, message", [
    ("train x1 C 08:00 A 10:00 300.0 120", (2, 7), "bad train id 'x1'"),
    ("train 1 C 8h00 A 10:00 300.0 120", (2, 11), "expected HH:MM, got '8h00'"),
    ("train 1 C 08:00:00 A 10:00 300.0 120", (2, 11), "expected HH:MM, got '08:00:00'"),
    ("train 1 C 08:00 A +9:00 300.0 120", (2, 19), "expected HH:MM, got '+9:00'"),
    ("train 1 C 0²:00 A 10:00 300.0 120", (2, 11), "expected HH:MM, got '0²:00'"),
    ("train 1 C 08:0\u0665 A 10:00 300.0 120", (2, 11), "expected HH:MM, got '08:0\u0665'"),
    ("train 1 C 08:00 A 24:00 300.0 120", (2, 19), "clock time out of range: '24:00'"),
    ("train 1 C 08:00 A 10:60 300.0 120", (2, 19), "clock time out of range: '10:60'"),
    ("train 1 C 08:00 A 10:00 3OO 120", (2, 25), "bad mileage or travel time"),
    ("train 1 C 08:00 A 10:00 300.0 2h", (2, 25), "bad mileage or travel time"),
    ("train 1 C 08:00 A 10:00 300.0", (2, 1), "train lines take 7 fields, got 6"),
    ("  train 1 C 23:30 A 01:30 300.0 120", (2, 3),
     "train 1: arrives at or before departure (spans midnight?)"),
    ("   trian 1 C 08:00 A 10:00 300.0 120", (2, 4), "unknown directive 'trian'"),
    ("param  speed 3", (2, 8), "unknown parameter 'speed'"),
    ("param omega1  1,0", (2, 15), "bad numeric value '1,0'"),
    (" param omega1", (2, 2), "param lines take exactly a name and a value"),
    ("maint_station C D", (2, 1), "maint_station takes exactly one station id"),
    ("train \u0662 C 08:00 A 10:00 300.0 120", (2, 7), "bad train id '\u0662'"),
    ("train 1 C 08:00 A 10:00 \u0662\u0668\u0660.\u0660 120", (2, 25), "bad mileage or travel time"),
    ("train 1 C 08:00 A 10:00 300.0 \u0661\u0660\u0660", (2, 25), "bad mileage or travel time"),
    ("param omega1 \u0661", (2, 14), "bad numeric value '\u0661'"),
    # int() and float() also take underscores between digits, int() a sign
    ("train +1 C 08:00 A 10:00 300.0 120", (2, 7), "bad train id '+1'"),
    ("train 1_0 C 08:00 A 10:00 300.0 120", (2, 7), "bad train id '1_0'"),
    ("train 1 C 08:00 A 10:00 3_00.0 120", (2, 25), "bad mileage or travel time"),
    ("train 1 C 08:00 A 10:00 300.0 1_20", (2, 25), "bad mileage or travel time"),
    ("train 1 C 08:00 A 10:00 300.0 +120", (2, 25), "bad mileage or travel time"),
    ("param omega1 1_0", (2, 14), "bad numeric value '1_0'"),
], ids=["train-id", "hhmm", "hhmm-3-parts", "hhmm-sign", "hhmm-superscript", "hhmm-arabic-indic",
        "hour-range", "minute-range", "mileage", "travel", "field-count", "train-field",
        "directive", "param-name", "param-value", "param-arity", "maint-arity",
        "train-id-arabic-indic", "mileage-arabic-indic", "travel-arabic-indic",
        "param-value-arabic-indic", "train-id-sign", "train-id-underscore",
        "mileage-underscore", "travel-underscore", "travel-sign", "param-value-underscore"])
def test_syntax_error_line_and_column(line, where, message):
    text = f"maint_station C\n{line}\ntrain 2 A 11:00 C 13:00 300.0 120\n"
    with pytest.raises(TimetableError) as info:
        parse_timetable(text)
    assert (info.value.line, info.value.col) == where
    assert str(info.value) == f"line {where[0]}, col {where[1]}: {message}"


def test_midnight_spanning_train_rejected():
    with pytest.raises(TimetableError, match="midnight"):
        parse_timetable(
            "maint_station C\n"
            "train 1 C 23:30 A 01:30 300.0 120\n"
            "train 2 A 11:00 C 13:00 300.0 120\n"
        )


def test_travel_time_mismatch_warns_not_errors():
    text = (
        "maint_station C\n"
        "train 1 C 08:00 A 10:00 300.0 90\n"  # span is 120
        "train 2 A 11:00 C 13:00 300.0 120\n"
    )
    with pytest.warns(TimetableWarning, match="travel_time 90"):
        inst = parse_timetable(text)
    assert inst.train(1).travel_time == 90  # file value kept, not recomputed


def test_oversized_train_warns_globally_infeasible():
    text = (
        "maint_station C\n"
        "train 1 C 08:00 A 10:00 4500.0 120\n"
        "train 2 A 11:00 C 13:00 4500.0 120\n"
    )
    with pytest.warns(TimetableWarning, match="no feasible plan"):
        parse_timetable(text)


def test_lambda_bound_enforced():
    with pytest.raises(TimetableError, match="lambda"):
        ModelParams(lam=0.2)


def test_t_connect_at_most_one_day():
    assert ModelParams(t_connect=1440).t_connect == 1440
    for t_connect in (0, 1441):
        with pytest.raises(TimetableError, match=r"t_connect must lie in \(0, 1440\]"):
            ModelParams(t_connect=t_connect)


@pytest.mark.parametrize("value", [20.5, True, False], ids=["fraction", "True", "False"])
def test_t_connect_must_be_whole_minutes(value):
    with pytest.raises(TimetableError, match=r"^t_connect must be an integer number of minutes"):
        ModelParams(t_connect=value)
    # a whole float is accepted, stored as an int, and renders as the integer
    # parse_timetable reads
    assert type(ModelParams(t_connect=30.0).t_connect) is int
    inst = generate_instance(3, 2, 1, ModelParams(t_connect=30.0, lam=0.1))
    text = render_timetable(inst)
    assert "\nparam t_connect 30\n" in text
    assert parse_timetable(text) == inst and render_timetable(parse_timetable(text)) == text


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("field", ["l_cycle", "t_cycle", "lam", "t_connect", "omega1", "omega2",
                                   "beta"])
def test_non_finite_parameters_refused(field, value):
    # an infinite window or weight makes every fitness inf or NaN, so no plan
    # could ever become the swarm's best; the error names the field
    name = "lambda" if field == "lam" else field
    with pytest.raises(TimetableError, match=rf"^{name} must be finite"):
        ModelParams(**{field: value})


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_t_connect_line_refused(fig1_text, value):
    text = fig1_text.replace("param t_connect 20\n", f"param t_connect {value}\n")
    assert text != fig1_text
    with pytest.raises(TimetableError, match=f"^t_connect must be finite, got {value}$"):
        parse_timetable(text)


def test_cached_windows_follow_with_params():
    inst = generate_instance(4, 2, seed=1)
    params = inst.params
    assert (params.max_mileage, params.max_time, inst.maint_station) == (4200.0, 3024.0, "C")
    assert {"max_mileage", "max_time"} <= vars(params).keys()  # read once, then cached
    changed = inst.with_params(lam=0.1)
    assert changed.params.max_mileage == pytest.approx(4400.0)
    assert changed.params.max_time == pytest.approx(3168.0)
    assert changed.maint_station == "C"
    # the cached values are not fields: a read object still equals and
    # hashes like a fresh copy of itself
    fresh = dataclasses.replace(params)
    assert "max_mileage" not in vars(fresh)
    assert params == fresh and hash(params) == hash(fresh)
    assert dataclasses.astuple(params) == dataclasses.astuple(fresh)


def test_train_invariants():
    with pytest.raises(TimetableError, match="station"):
        Train(1, "A", 0, "A", 60, 100.0, 60)
    with pytest.raises(TimetableError, match="mileage"):
        Train(1, "A", 0, "B", 60, -5.0, 60)
    # each rule refused just past its edge, with its own message
    fields = dict(id=1, dep_station="A", dep_time=0, arr_station="B", arr_time=60, mileage=100.0,
                  travel_time=60)
    refusals = [
        (dict(id=0), "train id must be >= 1, got 0"),
        (dict(arr_station="A"), "train 1: departure and arrival station are equal"),
        (dict(dep_time=-1), "train 1: dep_time -1 outside [0, 1440)"),
        (dict(arr_time=1440), "train 1: arr_time 1440 outside [0, 1440)"),
        (dict(dep_time=60), "train 1: arrives at or before departure (spans midnight?)"),
        (dict(mileage=0.0), "train 1: mileage must be positive and finite, got 0.0"),
        (dict(mileage=-1.0), "train 1: mileage must be positive and finite, got -1.0"),
        (dict(mileage=math.nan), "train 1: mileage must be positive and finite, got nan"),
        (dict(mileage=math.inf), "train 1: mileage must be positive and finite, got inf"),
        (dict(travel_time=0), "train 1: travel_time must be positive"),
        # the first broken rule is the one named
        (dict(id=0, arr_station="A", travel_time=0), "train id must be >= 1, got 0"),
        (dict(dep_time=-1, arr_time=1440), "train 1: dep_time -1 outside [0, 1440)"),
        (dict(mileage=0.0, travel_time=0), "train 1: mileage must be positive and finite, got 0.0"),
    ]
    for change, message in refusals:
        with pytest.raises(TimetableError, match=f"^{re.escape(message)}$"):
            Train(**{**fields, **change})
    # and accepted on its edge
    for change in (dict(dep_time=0, arr_time=1), dict(dep_time=1438, arr_time=1439),
                   dict(mileage=5e-324), dict(travel_time=1)):
        assert dataclasses.asdict(Train(**{**fields, **change})) == {**fields, **change}
    # a comparison that cannot be made raises as it did, not as a refusal
    message = "'<' not supported between instances of 'NoneType' and 'int'"
    with pytest.raises(TypeError, match=f"^{message}$"):
        Train(None, "A", 0, "B", 60, 100.0, 60)


def test_train_dataclass_contract():
    train = Train(3, "A", 420, "B", 545, 520.0, 125)
    assert [f.name for f in dataclasses.fields(Train)] == [
        "id", "dep_station", "dep_time", "arr_station", "arr_time", "mileage", "travel_time"]
    assert train == Train(id=3, dep_station="A", dep_time=420, arr_station="B", arr_time=545,
                          mileage=520.0, travel_time=125)
    assert train != Train(3, "A", 420, "B", 545, 520.0, 124)
    assert hash(train) == hash((3, "A", 420, "B", 545, 520.0, 125))
    assert repr(train) == ("Train(id=3, dep_station='A', dep_time=420, arr_station='B', "
                           "arr_time=545, mileage=520.0, travel_time=125)")
    copy = pickle.loads(pickle.dumps(train))
    assert copy == train and hash(copy) == hash(train) and repr(copy) == repr(train)
    for target in (train, copy):
        with pytest.raises(dataclasses.FrozenInstanceError):
            target.arr_time = 600
        with pytest.raises(dataclasses.FrozenInstanceError):
            del target.id
    assert train.arr_time == 545
    # replace builds a new train through the same checks
    assert dataclasses.replace(train, mileage=300.0) == Train(3, "A", 420, "B", 545, 300.0, 125)
    with pytest.raises(TimetableError, match=re.escape("train 3: arrives at or before departure")):
        dataclasses.replace(train, arr_time=420)
    with pytest.raises(TimetableError, match="^train id must be >= 1, got 0$"):
        dataclasses.replace(train, id=0)
    # station names that are not str still construct; check_instance refuses them
    assert Train(1, 0, 480, 7, 600, 300.0, 120).dep_station == 0


def test_clock_table_holds_every_canonical_time():
    # the tokens render_timetable writes, one per minute, and the minute
    # _parse_hhmm reads from each
    tokens = [f"{m // 60:02d}:{m % 60:02d}" for m in range(1440)]
    assert list(_HHMM) == tokens
    assert list(_CLOCK.items()) == list(zip(tokens, range(1440)))
    assert [_parse_hhmm(token, 1, token) for token in tokens] == list(range(1440))


@pytest.mark.parametrize("dep, arr, minutes", [
    ("7:05", "9:10", (425, 550)),
    ("007:05", "0009:010", (425, 550)),
    ("0:0", "23:59", (0, 1439)),
    ("00:00", "0023:59", (0, 1439)),
])
def test_clock_times_off_the_table_still_parse(dep, arr, minutes):
    # a token the table does not hold is read by _parse_hhmm, as every token was
    assert dep not in _CLOCK or arr not in _CLOCK
    span = minutes[1] - minutes[0]
    inst = parse_timetable(f"maint_station C\ntrain 1 C {dep} A {arr} 300.0 {span}\n"
                           "train 2 A 11:00 C 13:00 300.0 120\n")
    assert (inst.train(1).dep_time, inst.train(1).arr_time) == minutes


@pytest.mark.parametrize("token, message", [
    ("8h00", "expected HH:MM, got '8h00'"),
    ("08:00:00", "expected HH:MM, got '08:00:00'"),
    ("+9:00", "expected HH:MM, got '+9:00'"),
    ("0²:00", "expected HH:MM, got '0²:00'"),
    ("08:0\u0665", "expected HH:MM, got '08:0\u0665'"),
    ("0800", "expected HH:MM, got '0800'"),
    (":00", "expected HH:MM, got ':00'"),
    ("08:", "expected HH:MM, got '08:'"),
    ("24:00", "clock time out of range: '24:00'"),
    ("10:60", "clock time out of range: '10:60'"),
    ("99:99", "clock time out of range: '99:99'"),
])
def test_clock_errors_keep_text_line_and_column(token, message):
    # no malformed token is in the table, so _parse_hhmm refuses it as before,
    # on either side of the line, the departure first
    assert token not in _CLOCK
    for line, col in ((f"train 1 C {token} A 23:00 300.0 120", 11),
                      (f"train 1 C 07:15 A {token} 300.0 120", 19),
                      (f"train 1 C {token} A {token} 300.0 120", 11)):
        with pytest.raises(TimetableError) as info:
            parse_timetable(f"maint_station C\n\n{line}\ntrain 2 A 11:00 C 13:00 300.0 120\n")
        assert (info.value.line, info.value.col) == (3, col)
        assert str(info.value) == f"line 3, col {col}: {message}"


@pytest.mark.parametrize("mileage", [math.nan, math.inf, -math.inf, 0.0])
def test_train_refuses_non_finite_or_non_positive_mileage(mileage):
    # a NaN would pass a "<= 0" test and then fail every window check, so
    # every construction attempt would dead-end; an inf would read as oversize
    message = f"train 2: mileage must be positive and finite, got {mileage!r}"
    with pytest.raises(TimetableError, match=f"^{re.escape(message)}$"):
        Train(2, "A", 0, "B", 60, mileage, 60)


def test_roundtrip_fig1(fig1, fig1_text):
    rendered = render_timetable(fig1)
    assert parse_timetable(rendered) == fig1
    # and rendering is byte-stable
    assert render_timetable(parse_timetable(rendered)) == rendered


@pytest.mark.parametrize("seed", range(1, 21))
def test_roundtrip_generated(seed):
    inst = generate_instance(1 + seed % 4, 1 + seed % 3, seed=seed)
    assert parse_timetable(render_timetable(inst)) == inst


def test_generate_smallest_pair():
    inst = generate_instance(1, 1, seed=7)
    assert inst.n == 2
    out, back = inst.trains
    assert out.dep_station == inst.maint_station and out.arr_station != inst.maint_station
    assert back.dep_station == out.arr_station and back.arr_station == inst.maint_station


def test_generate_deterministic():
    assert generate_instance(4, 2, seed=7) == generate_instance(4, 2, seed=7)


def test_generate_seeds_differ():
    seen = {render_timetable(generate_instance(4, 2, seed=s)) for s in range(1, 101)}
    assert len(seen) == 100


@pytest.mark.parametrize("seed", range(1, 51))
def test_generate_always_valid(seed):
    inst = generate_instance(1 + seed % 5, 1 + seed % 3, seed=seed)
    # constructing the instance runs all invariant checks; spot-check a few
    assert sorted(t.id for t in inst.trains) == list(range(1, inst.n + 1))
    for t in inst.trains:
        assert 100.0 <= t.mileage <= 1200.0
        assert 0 <= t.dep_time < t.arr_time < 1440


@pytest.mark.parametrize("seed", range(1, 7))
def test_generate_refuses_a_pair_beyond_the_windows(seed):
    # at l_cycle = 1500 (allowance 1575 km) a pair of legs over 787.5 km
    # cannot be one rotation, so the "maintain after every return" plan is
    # gone; the generator names the pair instead of promising feasibility
    params = ModelParams(l_cycle=1500.0)
    try:
        inst = generate_instance(4, 1 + seed % 2, seed=seed, params=params)
    except ValueError as exc:
        found = re.match(r"pair (\d) \(trains (\d) and (\d)\) needs ", str(exc))
        assert found, str(exc)
        pair, out_id, back_id = map(int, found.groups())
        assert (out_id, back_id) == (2 * pair - 1, 2 * pair)
        # the same trains under the default windows: that pair is too long here
        loose = generate_instance(4, 1 + seed % 2, seed=seed)
        assert 2 * loose.train(out_id).mileage > params.max_mileage
    else:
        assert all(2 * t.mileage <= params.max_mileage for t in inst.trains)
        assert brute_force(inst, build_matrices(inst)).feasible_count > 0


def test_generate_l_cycle_1500_refuses_seed_1():
    with pytest.raises(ValueError, match=r"^pair 1 \(trains 1 and 2\) needs 2291\.0 km"):
        generate_instance(4, 2, seed=1, params=ModelParams(l_cycle=1500.0))
