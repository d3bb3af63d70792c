"""Discrete particle swarm search over circulation cycles.

Each particle's position assigns a train id to every cycle position. The
classic inertia-weighted velocity/position update proposes a new assignment
per dimension; proposals are pushed through the constructive step logic,
which takes legal ones and repairs the rest, so every scored particle is a
structurally sound plan. Only the mileage allowance may be exceeded, and
such plans are scored with the overrun penalty.

Randomness is counter-based: a Philox block cipher keyed once from the
master seed, with the (iteration, particle) pair in the counter. Particle
evaluation order therefore cannot change any draw, and particles could be
evaluated concurrently without affecting results.

Iteration 0 is the first pass of the same particle loop: each particle is
built by the constructor with no proposal, then scored and recorded like any
later plan. Every later iteration is one array step. Each particle's
generator, built once per solve, is re-keyed to its (iteration, particle)
counter and fills the particle's row of 3n doubles in one call; one
velocity/position update moves the whole swarm with the first 2n of each row
as coefficients; then each proposal is decoded from the row's last n
doubles, enough for a first attempt (at most one draw per position).
Restarts, and iteration 0, read blocks of BLOCK doubles per generator call:
the doubles of as many scalar calls, at a fraction of the cost.

A particle whose rounded position does not move is not decoded again. Its
position is the order its last decode realized, and proposing a realized
order replays that attempt without a draw or a dead end, so the particle
keeps its last (order, flags, fitness, feasibility). It is still re-keyed,
because its coefficients move its velocity, and its plan goes through the
same bookkeeping of bests as every other. So does a particle whose decode runs
out of restarts after iteration 0: it keeps its last decode too. A decode is
kept as lists, as build_cycle returns it; solve freezes a CirculationPlan
only for the plan it reports.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import chain
from numbers import Integral

import numpy as np

from .connection import ConnectionMatrices, build_matrices
from .constructor import (
    MAX_RESTARTS,
    DeadEnd,
    InfeasibleError,
    build_cycle,
    check_maint_prob,
    construct_with_stats,
)
from .plan import CirculationPlan, fitness_from_totals
from .timetable import TimetableInstance

DEFAULT_SEED = 1
BLOCK = 64  # uniforms drawn per generator call in solve


@dataclass(frozen=True)
class SwarmConfig:
    n_particles: int = 30
    k_max: int = 500
    w_max: float = 0.9
    w_min: float = 0.4
    c1: float = 2.0  # pull toward the swarm's global best
    c2: float = 2.0  # pull toward the particle's personal best
    v_min: float | None = None  # default -n/2, resolved against the instance
    v_max: float | None = None  # default +n/2
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for name in ("n_particles", "k_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_particles < 1 or self.k_max < 1:
            raise ValueError("need at least one particle and one iteration")
        # NumPy's SeedSequence takes only non-negative integers
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        for name in ("w_max", "w_min", "c1", "c2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        # -inf and inf leave the clamp open on their side; NaN, or an infinity
        # on the other side, makes every velocity NaN or infinite
        for name, open_end in (("v_min", -math.inf), ("v_max", math.inf)):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) or value == open_end):
                raise ValueError(f"{name} must be finite or {open_end}, got {value!r}")
        if self.w_max < self.w_min:
            raise ValueError("w_max must be >= w_min")
        if self.v_min is not None and self.v_max is not None and self.v_min > self.v_max:
            raise ValueError("v_min must not exceed v_max")


def inertia_weight(k: int, cfg: SwarmConfig) -> float:
    """Linear decay from w_max at k=0 to w_min at k=k_max."""
    return cfg.w_max - (cfg.w_max - cfg.w_min) * k / cfg.k_max


def update_velocity(v, x, p_g_d, p_m_d, w: float, c1: float, c2: float, r1, r2,
                    v_min: float, v_max: float):
    """Inertia-weighted velocity step, clamped to [v_min, v_max].

    Works per dimension on scalars or elementwise on arrays, such as the
    whole swarm's (particles, dimensions) arrays. c1 weighs the global best
    and c2 the personal best (with equal defaults the distinction is moot).
    """
    return np.minimum(np.maximum(w * v + c1 * r1 * (p_g_d - x) + c2 * r2 * (p_m_d - x), v_min),
                      v_max)


def update_position(x, v_new, n: int):
    """Move by v_new, round half away from zero, clamp into [1, n].

    Scalars or arrays; the result is int64.
    """
    y = x + v_new
    # y + copysign(0.5, y) is the operand of floor(y + 0.5) for y >= 0 and of
    # ceil(y - 0.5) below, and trunc rounds it as they do; only y = -0.0
    # differs (-0.0 against 0.0), which the clamp into [1, n] absorbs
    return np.minimum(np.maximum(np.trunc(y + np.copysign(0.5, y)), 1), n).astype(np.int64)


def _philox_key(seed: int) -> np.ndarray:
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


def substream(key: np.ndarray, k: int, m: int) -> np.random.Generator:
    """Independent deterministic stream for iteration k, particle m."""
    counter = np.array([0, 0, m, k], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


class _BlockUniforms:
    """The float64 uniforms of one Philox generator, served one at a time.

    reset(k, m) re-keys the generator to the state substream(key, k, m)
    starts in and fills row, the particle's 3n lanes of the swarm's
    coefficient array, with its first 3n doubles in one generator call.
    The first 2n lanes are the caller's velocity coefficients; random(), the
    only method the constructor calls, serves the last n and then blocks of
    BLOCK doubles per generator call. Before the first reset (iteration 0)
    it serves blocks only. A fill or a block gives exactly the doubles of as
    many scalar gen.random() calls, so no draw changes, while a value costs a
    list step instead of a generator call.
    """

    __slots__ = ("gen", "row", "_tail", "_state", "_counter", "_blocks", "random")

    def __init__(self, gen: np.random.Generator, key: np.ndarray, row: np.ndarray):
        self.gen, self.row = gen, row
        self._tail = memoryview(row[len(row) // 3 * 2:])
        # Philox's state with an empty buffer and no cached half word; a
        # reset replaces only the counter, (0, 0, m, k) as in substream. The
        # key as Python ints: the state setter reads them faster than uint64s
        self._counter = {"counter": (0, 0, 0, 0), "key": tuple(key.tolist())}
        self._state = {"bit_generator": "Philox", "state": self._counter,
                       "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        # one list of BLOCK doubles per step, without end; holds no values itself
        self._blocks = iter(lambda: gen.random(BLOCK).tolist(), None)
        self.random = chain.from_iterable(self._blocks).__next__

    def reset(self, k: int, m: int) -> None:
        self._counter["counter"] = (0, 0, m, k)
        self.gen.bit_generator.state = self._state
        self.gen.random(out=self.row)
        self.random = chain(self._tail, chain.from_iterable(self._blocks)).__next__


def _decode(
    instance: TimetableInstance, matrices: ConnectionMatrices, rng, max_restarts: int,
    proposal=None, normalized: bool = False,
) -> tuple[tuple[list[int], list[int], int, list[float]], int]:
    """One decode: (order, flags, waited, rotation_km) as build_cycle returns
    them, and the failed attempts.

    A proposal guides one attempt, which max_restarts does not charge; after
    its dead end, or with no proposal, construct_with_stats runs up to
    max_restarts + 1 unguided attempts on the same generator. The count,
    returned or raised, includes a failed guided attempt. normalized is
    build_cycle's: solve's rows are lists of ids in 0..n already.
    """
    guided = proposal is not None
    if guided:
        try:
            return build_cycle(instance, matrices, rng, proposal=proposal,
                               normalized=normalized), 0
        except DeadEnd:
            pass
    try:
        plan, failed, waited, rotation_km = construct_with_stats(instance, matrices, rng,
                                                                 max_restarts)
    except InfeasibleError as exc:
        if not guided:
            raise
        raise InfeasibleError.dead_ended(exc.attempts + 1) from None
    return (list(plan.order), list(plan.maint_after), waited, rotation_km), failed + guided


def decode(
    position,
    instance: TimetableInstance,
    matrices: ConnectionMatrices,
    rng: np.random.Generator,
    *,
    max_restarts: int = MAX_RESTARTS,
) -> tuple[CirculationPlan, int]:
    """Realize a position vector as a plan, repairing illegal entries.

    An entry outside 1..n, NaN or infinite proposes nothing; build_cycle
    normalizes the vector once, before its first step. The position guides a
    first attempt that max_restarts does not charge; returns (plan, dead
    ends), a guided dead end included.
    """
    (order, flags, _, _), failed = _decode(instance, matrices, rng, max_restarts, position)
    return CirculationPlan(tuple(order), tuple(flags)), failed


@dataclass(frozen=True)
class TracePoint:
    iteration: int
    global_best_fitness: float
    feasible_fraction: float


@dataclass(frozen=True)
class SolveResult:
    best_plan: CirculationPlan
    best_fitness: float  # equals the objective: the reported plan is feasible
    trace: tuple[TracePoint, ...]
    restarts: int
    wall_time: float


def solve(
    instance: TimetableInstance,
    matrices: ConnectionMatrices | None = None,
    cfg: SwarmConfig | None = None,
    maint_prob: float | None = None,
    max_restarts: int = MAX_RESTARTS,
) -> SolveResult:
    """Full swarm run; returns the best fully feasible plan encountered.

    The swarm itself chases raw (penalized) fitness, so its global best may
    pass through mileage-overrun plans; the reported plan is always the best
    one with every rotation inside the allowance. The initial swarm comes
    from the random constructor, so at least one such plan always exists.
    Only iteration 0 raises InfeasibleError: a later particle whose decode
    runs out of max_restarts keeps its last plan, and its failed attempts
    count in restarts. maint_prob stays only because bench/run.py still
    passes it (ROADMAP item 6); it has no effect.
    """
    check_maint_prob(maint_prob)
    if matrices is None:
        matrices = build_matrices(instance)
    cfg = cfg or SwarmConfig()
    t0 = time.perf_counter()
    n = instance.n
    params = instance.params
    v_max = cfg.v_max if cfg.v_max is not None else n / 2
    v_min = cfg.v_min if cfg.v_min is not None else -n / 2
    key = _philox_key(cfg.seed)
    restarts = 0

    n_p = cfg.n_particles
    positions = np.zeros((n_p, n), dtype=np.int64)
    velocities = np.zeros((n_p, n), dtype=np.float64)
    pbest_pos = np.zeros((n_p, n), dtype=np.int64)
    pbest_fit = [np.inf] * n_p
    gbest_fit = np.inf
    gbest_pos = pbest_pos[0]  # replaced at the end of iteration 0
    # per particle: r1 in lanes [0, n), r2 in [n, 2n), and in [2n, 3n) the
    # draws its decode reads first
    r = np.empty((n_p, 3 * n))
    streams = [_BlockUniforms(substream(key, 0, m), key, r[m]) for m in range(n_p)]

    best_feasible_fit = np.inf
    best_feasible = None  # the decode of the plan solve reports
    trace: list[TracePoint] = []
    # each particle's last decode as (order, flags, fit, feasible), reused while it stays
    decoded: list[tuple[list[int], list[int], float, bool] | None] = [None] * n_p
    stays = [False] * n_p

    # Iteration 0 builds every particle with the constructor; the bests start
    # at inf and every fitness is finite (ModelParams refuses non-finite
    # parameters), so its plans are taken by the same bookkeeping as later ones.
    for k in range(cfg.k_max + 1):
        if k:
            # Particle m's rows are read only by particle m and gbest_pos
            # changes only after the iteration, so drawing every r and moving
            # the whole swarm before any decode gives the draws and arithmetic
            # of doing it particle by particle.
            for m, rng in enumerate(streams):
                rng.reset(k, m)
            velocities = update_velocity(velocities, positions, gbest_pos, pbest_pos,
                                         inertia_weight(k, cfg), cfg.c1, cfg.c2,
                                         r[:, :n], r[:, n:2 * n], v_min, v_max)
            moved = update_position(positions, velocities, n)
            # the clamp keeps every id in [1, n] but a NaN velocity's, which
            # the int64 cast makes -2**63 (0 on some platforms); 0 proposes nothing
            np.maximum(moved, 0, out=moved)
            # A position is an order some attempt realized; proposing it again
            # replays that attempt without a draw or a dead end, so a particle
            # that stays keeps its last decode (see docs/model.md).
            stays = (moved == positions).all(axis=1).tolist()
            proposed = moved.tolist()

        feasible_now = 0
        orders = []
        for m, rng in enumerate(streams):
            if stays[m]:
                order, flags, fit, feasible = decoded[m]
            else:
                try:
                    (order, flags, waited, rotation_km), failed = _decode(
                        instance, matrices, rng, max_restarts, proposed[m] if k else None,
                        normalized=True)
                except InfeasibleError as exc:
                    if not k:
                        raise
                    # keeps its last decode; every attempt failed, the guided one included
                    restarts += exc.attempts
                    order, flags, fit, feasible = decoded[m]
                else:
                    restarts += failed
                    fit, feasible = fitness_from_totals(waited, rotation_km, params)
                    decoded[m] = order, flags, fit, feasible
            orders.append(order)
            if fit < pbest_fit[m]:
                pbest_fit[m] = fit
                pbest_pos[m] = order
            if feasible:
                feasible_now += 1
                if fit < best_feasible_fit:
                    best_feasible_fit, best_feasible = fit, decoded[m]
        positions[:] = orders  # repaired dimensions become the realized ids

        best = min(pbest_fit)
        if best < gbest_fit:
            gbest_fit = best
            gbest_pos = pbest_pos[pbest_fit.index(best)].copy()  # the lowest index of equal bests
        trace.append(TracePoint(k, gbest_fit, feasible_now / n_p))

    assert best_feasible is not None  # initial swarm is feasible by construction
    return SolveResult(
        best_plan=CirculationPlan(tuple(best_feasible[0]), tuple(best_feasible[1])),
        best_fitness=best_feasible_fit,
        trace=tuple(trace),
        restarts=restarts,
        wall_time=time.perf_counter() - t0,
    )
