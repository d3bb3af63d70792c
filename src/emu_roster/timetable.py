"""Timetabled trains, model parameters, and the timetable file format.

A timetable instance is the full input of the planner: the train list, the
single depot-adjacent station where maintenance can be performed, and the
numeric model parameters (cycle limits, overrun tolerance, objective
weights). The station universe follows from the trains, the depot among them.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

MINUTES_PER_DAY = 1440

# Every wait lies in [0, 2 * 1440): a gap within one day plus at most one day.
# A wait table holds the int objects of this tuple, so the n x n waits of a
# network's derived rows share at most 2,880 objects instead of holding one each.
_WAITS = tuple(range(2 * MINUTES_PER_DAY))


@lru_cache(maxsize=64)
def _wait_table(t_connect: int) -> tuple[int, ...]:
    """The wait for each gap dep - arr in (-1440, 1440), at entry gap + 1440:
    the one place the rollover rule is written.

    The wait is gap mod 1440, plus 1440 when that falls below t_connect. A
    gap below zero reaches the next day's departure and one of zero or more
    the same day's, so each half of the table is the same run: the rolled
    waits 1440 .. 1440 + t_connect - 1, then the direct ones t_connect ..
    1439. The entries are _WAITS' own objects. Cached by t_connect: building
    one costs more than build_matrices of a ten-train network.
    """
    day = MINUTES_PER_DAY
    return _WAITS[day:day + t_connect] + _WAITS[t_connect:day + t_connect] + _WAITS[t_connect:day]


class TimetableError(ValueError):
    """Invalid timetable content. Carries the offending line when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            place = f"line {line}" + (f", col {col}" if col is not None else "")
            message = f"{place}: {message}"
        super().__init__(message)


class TimetableWarning(UserWarning):
    """Suspicious but tolerated timetable content."""


@dataclass(frozen=True)
class ModelParams:
    """Numeric knobs of the circulation model.

    l_cycle / t_cycle are the maintenance cycle limits (km / minutes);
    lam is the tolerated overrun fraction on both; t_connect the minimum
    turnaround; omega1 weighs total connection time, omega2 the per-rotation
    mileage slack; beta multiplies mileage overrun in the penalized fitness.
    l_cycle=4000 km and t_cycle=2880 min are the routine-inspection limits
    for Chinese high-speed EMUs; the remaining defaults are ours. Every value
    must be finite, and t_connect a whole number of minutes, which is stored
    as an int (30.0 becomes 30).
    """

    l_cycle: float = 4000.0
    t_cycle: float = 2880.0
    lam: float = 0.05
    t_connect: int = 20
    omega1: float = 1.0
    omega2: float = 0.01
    beta: float = 10.0

    def __post_init__(self):
        for key in PARAM_KEYS:
            value = getattr(self, param_field(key))
            if not math.isfinite(value):
                # an infinite window or weight makes every fitness inf or NaN
                raise TimetableError(f"{key} must be finite, got {value!r}")
        t_connect = int(self.t_connect)
        if isinstance(self.t_connect, bool) or self.t_connect != t_connect:
            # a fractional turnaround renders to a line parse_timetable refuses
            raise TimetableError(
                f"t_connect must be an integer number of minutes, got {self.t_connect!r}"
            )
        object.__setattr__(self, "t_connect", t_connect)
        if self.l_cycle <= 0 or self.t_cycle <= 0:
            raise TimetableError("cycle limits must be positive")
        if not 0 < self.t_connect <= MINUTES_PER_DAY:
            # waits roll over by one day at most, so a longer t_connect is never met
            raise TimetableError(f"t_connect must lie in (0, {MINUTES_PER_DAY}] minutes")
        if not 0.0 <= self.lam <= 0.10:
            raise TimetableError("lambda must lie in [0, 0.10]")
        if self.omega1 < 0 or self.omega2 < 0:
            raise TimetableError("objective weights must be non-negative")
        if self.beta <= 1.0:
            raise TimetableError("beta must exceed 1")

    @cached_property
    def max_mileage(self) -> float:
        return (1.0 + self.lam) * self.l_cycle

    @cached_property
    def max_time(self) -> float:
        return (1.0 + self.lam) * self.t_cycle


# file keys, in render order
PARAM_KEYS = ("l_cycle", "t_cycle", "lambda", "t_connect", "omega1", "omega2", "beta")


def param_field(key: str) -> str:
    """The ModelParams field a file key names: "lambda" is the file spelling
    of lam, every other key its field's name."""
    return "lam" if key == "lambda" else key


@dataclass(frozen=True, init=False)
class Train:
    """One timetabled service: where and when it runs, and what it costs.

    Times are integer minutes since the start of the service day; a train
    never spans midnight, so arr_time > dep_time always. travel_time is an
    independent field (running time), normally equal to arr_time - dep_time.
    """

    id: int
    dep_station: str
    dep_time: int
    arr_station: str
    arr_time: int
    mileage: float
    travel_time: int

    # Written by hand: the generated init of a frozen dataclass sets each field
    # with its own object.__setattr__ call, about a quarter of parse_timetable's
    # time. One dict update sets them all. The test makes _refuse's comparisons
    # in _refuse's order, so a comparison that raises raises as it would there,
    # and _refuse, which names the first broken rule, runs only when one is broken.
    def __init__(self, id: int, dep_station: str, dep_time: int, arr_station: str,
                 arr_time: int, mileage: float, travel_time: int):
        self.__dict__.update(id=id, dep_station=dep_station, dep_time=dep_time,
                             arr_station=arr_station, arr_time=arr_time, mileage=mileage,
                             travel_time=travel_time)
        if (id < 1 or dep_station == arr_station or not 0 <= dep_time < MINUTES_PER_DAY
                or not 0 <= arr_time < MINUTES_PER_DAY or arr_time <= dep_time
                or not 0 < mileage < math.inf or travel_time <= 0):
            self._refuse()

    def _refuse(self):
        if self.id < 1:
            raise TimetableError(f"train id must be >= 1, got {self.id}")
        if self.dep_station == self.arr_station:
            raise TimetableError(f"train {self.id}: departure and arrival station are equal")
        for name, t in (("dep_time", self.dep_time), ("arr_time", self.arr_time)):
            if not 0 <= t < MINUTES_PER_DAY:
                raise TimetableError(f"train {self.id}: {name} {t} outside [0, {MINUTES_PER_DAY})")
        if self.arr_time <= self.dep_time:
            raise TimetableError(f"train {self.id}: arrives at or before departure (spans midnight?)")
        if not 0 < self.mileage < math.inf:  # NaN fails both comparisons
            raise TimetableError(f"train {self.id}: mileage must be positive and finite, "
                                 f"got {self.mileage!r}")
        if self.travel_time <= 0:
            raise TimetableError(f"train {self.id}: travel_time must be positive")


@dataclass(frozen=True)
class TimetableInstance:
    """A validated daily timetable: trains, depot station, params.

    trains are sorted by id and ids form exactly 1..n, so the train with id
    k sits at trains[k-1]; matrix code indexes rows/columns the same way.
    """

    trains: tuple[Train, ...]
    maint_station: str
    params: ModelParams = field(default_factory=ModelParams)

    def __post_init__(self):
        check_instance(self.trains, self.maint_station, self.params)

    @property
    def n(self) -> int:
        return len(self.trains)

    def train(self, train_id: int) -> Train:
        return self.trains[train_id - 1]

    @cached_property
    def stations(self) -> frozenset[str]:
        """The stations the trains serve, the depot among them."""
        return frozenset(s for t in self.trains for s in (t.dep_station, t.arr_station))

    @property
    def maint_stations(self) -> frozenset[str]:
        return frozenset({self.maint_station})

    @property
    def total_mileage(self) -> float:
        return sum(t.mileage for t in self.trains)

    @cached_property
    def oversize(self) -> int | None:
        """The first train that alone breaks a cycle window, or None."""
        max_l, max_t = self.params.max_mileage, self.params.max_time
        return next(
            (t.id for t in self.trains if t.mileage > max_l or t.travel_time > max_t), None
        )

    def with_params(self, **overrides) -> "TimetableInstance":
        return replace(self, params=replace(self.params, **overrides))


def check_instance(trains, maint_station, params) -> None:
    """Enforce instance-level invariants, among them a depot some train
    serves and station names a file line can hold (one token, no '#'); warn
    on tolerated oddities."""
    if not trains:
        raise TimetableError("no trains")
    if not any(maint_station in (t.dep_station, t.arr_station) for t in trains):
        raise TimetableError(f"unknown station in maint_stations: {maint_station!r}")
    ids = [t.id for t in trains]
    if sorted(ids) != list(range(1, len(trains) + 1)):
        dup = sorted(i for i, count in Counter(ids).items() if count > 1)
        if dup:
            raise TimetableError(f"duplicate train id(s): {dup}")
        raise TimetableError(f"train ids must form 1..{len(trains)}, got {sorted(ids)}")
    if list(ids) != sorted(ids):
        raise TimetableError("trains must be ordered by id")

    # a single closed loop with no empty runs needs per-station flow balance
    arr_counts: dict[str, int] = {}
    dep_counts: dict[str, int] = {}
    for t in trains:
        arr_counts[t.arr_station] = arr_counts.get(t.arr_station, 0) + 1
        dep_counts[t.dep_station] = dep_counts.get(t.dep_station, 0) + 1
    for s in (*dep_counts, *arr_counts):  # before anything sorts or splits the names
        if not isinstance(s, str):
            raise TimetableError(f"station name {s!r} must be a str, got {type(s).__name__}")
    for s in sorted(arr_counts.keys() | dep_counts.keys()):
        if s.split() != [s] or "#" in s:  # a file line could not hold it
            raise TimetableError(f"station name {s!r} must be one token with no '#'")
        a, d = arr_counts.get(s, 0), dep_counts.get(s, 0)
        if a != d:
            raise TimetableError(f"flow imbalance at station {s}: {a} arrivals vs {d} departures")

    for t in trains:
        if t.travel_time != t.arr_time - t.dep_time:
            warnings.warn(
                f"train {t.id}: travel_time {t.travel_time} differs from timetable span "
                f"{t.arr_time - t.dep_time}",
                TimetableWarning,
                stacklevel=2,
            )
        if t.mileage > params.max_mileage:
            warnings.warn(
                f"train {t.id}: mileage {t.mileage} alone exceeds the cycle allowance "
                f"{params.max_mileage:.1f} km; no feasible plan exists",
                TimetableWarning,
                stacklevel=2,
            )
        if t.travel_time > params.max_time:
            warnings.warn(
                f"train {t.id}: travel_time {t.travel_time} alone exceeds the cycle allowance "
                f"{params.max_time:.0f} min; no feasible plan exists",
                TimetableWarning,
                stacklevel=2,
            )


def _col(line: str, token: str) -> int:
    """The column of token's first occurrence in line: worked out only for an
    error, since a line that parses needs none."""
    return line.index(token) + 1


def ascii_digits(token: str) -> bool:
    """Whether token is an integer of the text formats: ASCII digits alone
    (int() also takes a sign, underscores and other scripts' digits)."""
    return token.isdigit() and token.isascii()


def float_token(token: str) -> float:
    """A real number of the text formats: float()'s syntax in ASCII with no
    underscore, inf, nan and 1e-05 included; raises ValueError otherwise."""
    if "_" in token or not token.isascii():
        raise ValueError(token)
    return float(token)


def _parse_hhmm(token: str, lineno: int, line: str) -> int:
    h, colon, m = token.partition(":")
    if not (colon and ascii_digits(h) and ascii_digits(m)):
        raise TimetableError(f"expected HH:MM, got {token!r}", lineno, _col(line, token))
    hours, minutes = int(h), int(m)
    if hours > 23 or minutes > 59:
        raise TimetableError(f"clock time out of range: {token!r}", lineno, _col(line, token))
    return 60 * hours + minutes


# The canonical clock token of each minute of the day, "00:00" .. "23:59" at
# index 0 .. 1439: the form render_timetable writes, spelled out only here.
_TWO_DIGITS = tuple(f"{i:02d}" for i in range(60))
_HHMM = tuple(f"{h}:{m}" for h in _TWO_DIGITS[:24] for m in _TWO_DIGITS)

# The minute of each canonical token. A train line looks its clock times up
# here and hands a miss (a non-canonical 7:05, a malformed token) to
# _parse_hhmm, which reads or refuses it. The minute is the token's index:
# running _parse_hhmm on the 1,440 tokens would cost about as much as a whole
# n = 500 parse in every process that imports this module.
_CLOCK = dict(zip(_HHMM, range(MINUTES_PER_DAY)))


def parse_timetable(text: str) -> TimetableInstance:
    """Parse timetable file content into a validated instance.

    Format (UTF-8, line oriented, '#' comments):
        param <name> <value>      one line per model parameter (optional)
        maint_station <id>        required, exactly once
        train <id> <dep> <HH:MM> <arr> <HH:MM> <mileage_km> <travel_min>
    with ids and minutes as ascii_digits and other numbers as float_token reads.

    Raises TimetableError with line/column info on malformed input, and on
    any instance-invariant violation (duplicate ids, flow imbalance, ...).
    """
    params_seen: dict[str, float] = {}
    maint: list[str] = []
    trains: list[Train] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "param":
            if len(tokens) != 3:
                raise TimetableError("param lines take exactly a name and a value", lineno,
                                     _col(line, kind))
            name = tokens[1]
            if name not in PARAM_KEYS:
                raise TimetableError(f"unknown parameter {name!r}", lineno, _col(line, name))
            try:
                params_seen[name] = float_token(tokens[2])
            except ValueError:
                raise TimetableError(f"bad numeric value {tokens[2]!r}", lineno,
                                     _col(line, tokens[2])) from None
        elif kind == "maint_station":
            if len(tokens) != 2:
                raise TimetableError("maint_station takes exactly one station id", lineno,
                                     _col(line, kind))
            maint.append(tokens[1])
        elif kind == "train":
            if len(tokens) != 8:
                raise TimetableError(
                    f"train lines take 7 fields, got {len(tokens) - 1}", lineno, _col(line, kind)
                )
            if not ascii_digits(tokens[1]):
                raise TimetableError(f"bad train id {tokens[1]!r}", lineno, _col(line, tokens[1]))
            dep_t = _CLOCK.get(tokens[3])
            if dep_t is None:
                dep_t = _parse_hhmm(tokens[3], lineno, line)
            arr_t = _CLOCK.get(tokens[5])
            if arr_t is None:
                arr_t = _parse_hhmm(tokens[5], lineno, line)
            try:
                mileage = float_token(tokens[6])
            except ValueError:
                mileage = None
            if mileage is None or not ascii_digits(tokens[7]):
                raise TimetableError("bad mileage or travel time", lineno, _col(line, tokens[6]))
            try:
                trains.append(Train(int(tokens[1]), tokens[2], dep_t, tokens[4], arr_t, mileage,
                                    int(tokens[7])))
            except TimetableError as exc:
                raise TimetableError(str(exc), lineno, _col(line, kind)) from None
        else:
            raise TimetableError(f"unknown directive {kind!r}", lineno, _col(line, kind))

    if len(maint) != 1:
        raise TimetableError(f"exactly one maint_station line required, got {len(maint)}")

    params = ModelParams(**{param_field(k): v for k, v in params_seen.items()})

    trains.sort(key=lambda t: t.id)
    return TimetableInstance(trains=tuple(trains), maint_station=maint[0], params=params)


def render_timetable(instance: TimetableInstance) -> str:
    """Render an instance to its file form. Byte-stable: parse(render(x)) == x."""
    lines = [f"param {key} {getattr(instance.params, param_field(key))!r}" for key in PARAM_KEYS]
    lines.append(f"maint_station {instance.maint_station}")
    for t in instance.trains:  # already sorted by id
        lines.append(
            f"train {t.id} {t.dep_station} {_HHMM[t.dep_time]} "
            f"{t.arr_station} {_HHMM[t.arr_time]} {t.mileage:.1f} {t.travel_time}"
        )
    return "\n".join(lines) + "\n"


def generate_instance(
    n_pairs: int,
    n_turnback_stations: int,
    seed: int,
    params: ModelParams | None = None,
) -> TimetableInstance:
    """Build a synthetic paired timetable: n_pairs out-and-back train pairs.

    Every pair runs depot -> turnback -> depot with a common mileage, which
    guarantees flow balance and at least one feasible circulation (maintain
    after every return trip) as long as each pair fits the cycle allowances
    as one rotation. Raises ValueError naming the first pair that does not:
    its two legs and the wait between them exceed the mileage or time
    allowance of params (default params never do: a pair runs at most
    2,400 km against 4,200). The return leg departs 20..180 minutes after
    the outbound arrival, as real turn-backs do; both legs stay inside one
    service day. Mileages fall in [100, 1200] km, rounded to 0.1 km so
    rendering round-trips exactly. Deterministic in seed.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    if n_turnback_stations < 1:
        raise ValueError("n_turnback_stations must be >= 1")
    params = params or ModelParams()
    rng = np.random.default_rng(seed)
    depot = "C"
    turnbacks = [f"T{i}" for i in range(1, n_turnback_stations + 1)]

    trains: list[Train] = []
    next_id = 1
    for _ in range(n_pairs):
        station = turnbacks[int(rng.integers(0, n_turnback_stations))]
        mileage = round(float(rng.uniform(100.0, 1200.0)), 1)
        speed = float(rng.uniform(2.5, 5.0))  # km per minute
        travel = max(20, int(round(mileage / speed)))
        turnaround = int(rng.integers(20, 181))
        out_dep = int(rng.integers(0, MINUTES_PER_DAY - 2 * travel - turnaround - 1))
        out = Train(next_id, depot, out_dep, station, out_dep + travel, mileage, travel)
        back_dep = out.arr_time + turnaround
        back = Train(next_id + 1, station, back_dep, depot, back_dep + travel, mileage, travel)
        wait = _wait_table(params.t_connect)[turnaround + MINUTES_PER_DAY]
        if 2 * mileage > params.max_mileage or 2 * travel + wait > params.max_time:
            raise ValueError(
                f"pair {next_id // 2 + 1} (trains {out.id} and {back.id}) needs "
                f"{2 * mileage:.1f} km and {2 * travel + wait} min as one rotation, beyond the "
                f"allowance of {params.max_mileage:.1f} km and {params.max_time:.0f} min"
            )
        trains.extend([out, back])
        next_id += 2

    return TimetableInstance(trains=tuple(trains), maint_station=depot, params=params)
