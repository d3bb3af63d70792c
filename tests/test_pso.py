import hashlib
import math
import re
import warnings

import numpy as np
import pytest

from emu_roster import (
    InfeasibleError,
    ModelParams,
    SwarmConfig,
    TimetableInstance,
    Train,
    brute_force,
    build_matrices,
    construct,
    decode,
    fitness_value,
    generate_instance,
    inertia_weight,
    objective_value,
    render_plan,
    solve,
    update_position,
    update_velocity,
    validate,
)
from emu_roster import pso
from emu_roster.constructor import DeadEnd, build_cycle, construct_with_stats
from emu_roster.plan import CirculationPlan
from emu_roster.pso import BLOCK, _BlockUniforms, _philox_key, substream

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
        maint_station="C",
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


def test_array_step_edge_grid_matches_scalar_formula():
    # exact k.5 ties, signed zeros, values beyond both velocity clamps and
    # beyond [1, n], magnitudes up to 1e6: the array step equals the scalar
    # min/max/floor/ceil formula bit for bit
    n = 12
    half_ulp_below = math.nextafter(0.5, 0)
    grid = ([k + 0.5 for k in range(-15, 15)] + [float(k) for k in range(-14, 15)]
            + [0.0, -0.0, half_ulp_below, -half_ulp_below, 2.9999999, -2.9999999, 3.0000001,
               -3.0000001, 1e6, -1e6, 1e6 + 0.5, -1e6 - 0.5, 123456.5, -123456.5])
    v = np.array(grid)
    for v_min, v_max in [(-3.0, 3.0), (-n / 2, n / 2), (-math.inf, math.inf), (-1.5, 2.5)]:
        # w = 1 and r = 0: the clamp sees each grid value (-0.0 becomes 0.0)
        vel = update_velocity(v, 4, 7, 9, 1.0, 2.0, 2.0, 0.0, 0.0, v_min, v_max)
        ref = [min(max(1.0 * g + 2.0 * 0.0 * (7 - 4) + 2.0 * 0.0 * (9 - 4), v_min), v_max)
               for g in grid]
        assert vel.tobytes() == np.array(ref).tobytes()
    for x in (0, 1, 5, n, -0.0):  # -0.0 + -0.0 is the only way to y = -0.0
        pos = update_position(np.full(len(grid), x), v, n)
        assert pos.dtype == np.int64
        for d, g in enumerate(grid):
            y = x + g
            rounded = math.floor(y + 0.5) if y >= 0 else math.ceil(y - 0.5)
            assert pos[d] == min(max(rounded, 1), n), (x, g)
    # the rounding itself, before the clamp: trunc(y + copysign(0.5, y)) is
    # floor(y + 0.5) or ceil(y - 0.5) on every grid value but -0.0
    for g in grid:
        rounded = math.floor(g + 0.5) if g >= 0 else math.ceil(g - 0.5)
        assert update_position(g, 0.0, 2 * 10**6) == min(max(rounded, 1), 2 * 10**6)
        assert update_position(g, 0.0, 2 * 10**6) == max(math.trunc(g + math.copysign(0.5, g)), 1)


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


@pytest.mark.parametrize("leftover", [
    lambda g: None,
    lambda g: g.random(3),
    lambda g: g.integers(0, 7, size=5),
    lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),  # odd count: a half word cached
    lambda g: g.bit_generator.random_raw(2),  # buffer part consumed
], ids=["fresh", "doubles", "integers", "odd-uint32", "raw"])
def test_reset_stream_matches_substream(leftover):
    # solve() builds one generator per particle and re-keys it for every later
    # iteration; whatever the previous stream left behind, the row and the
    # draws after it must be exactly those of a newly built substream
    n = 5
    for seed in (11, 19):  # both key words of seed 19 lie above 2**63
        key = _philox_key(seed)
        src = _BlockUniforms(substream(key, 0, 4), key, np.empty(3 * n))
        rng = src.gen
        for k, m in [(1, 4), (2, 0), (500, 29), (2**40, 7), (3, 3)]:
            leftover(rng)
            src.reset(k, m)
            ref = substream(key, k, m)
            assert src.row.tolist() == ref.random(3 * n).tolist()
            # a 32-bit draw: it would return a stale cached half word
            assert (rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist()
                    == ref.integers(0, 2**32, size=3, dtype=np.uint32).tolist())
            assert rng.random(9).tolist() == ref.random(9).tolist()
            assert rng.integers(0, 1000, size=4).tolist() == ref.integers(0, 1000, size=4).tolist()


def scalar_draws(key, k, m, count):
    """What count scalar random() calls on a fresh substream give."""
    ref = substream(key, k, m)
    return [ref.random() for _ in range(count)]


def block_source(key, m, n):
    """A particle's source as solve() builds it, over a row of 3n doubles."""
    return _BlockUniforms(substream(key, 0, m), key, np.empty(3 * n))


def test_block_uniforms_cross_block_boundaries():
    key = _philox_key(13)
    src = block_source(key, 2, 8)
    count = 2 * BLOCK + 5
    assert [src.random() for _ in range(count)] == scalar_draws(key, 0, 2, count)


def test_block_uniforms_reset_mid_block():
    key = _philox_key(13)
    n = 8
    src = block_source(key, 0, n)
    for _ in range(BLOCK // 2):
        src.random()
    src.reset(3, 1)
    # random() serves the row's last n lanes, then the stream after the row
    served = scalar_draws(key, 3, 1, 2 * n + BLOCK + 3)[2 * n:]
    assert [src.random() for _ in range(BLOCK + 3)] == served


def test_block_uniforms_coefficient_fill_spans_two_blocks():
    # solve() reads the 2n velocity coefficients from the row's head, then the
    # decode reads the rest of the stream one value at a time
    key = _philox_key(17)
    n = BLOCK // 2 + 3
    src = block_source(key, 5, n)
    src.reset(9, 5)
    r = src.row[:2 * n]
    rest = [src.random() for _ in range(BLOCK)]
    ref = substream(key, 9, 5)
    assert r.tolist() == ref.random(2 * n).tolist()
    assert rest == [ref.random() for _ in range(BLOCK)]


def test_block_uniforms_reused_pairs_after_partial_consumption():
    key = _philox_key(19)
    n = 8
    src = block_source(key, 0, n)
    for k, m, used in [(1, 0, 3), (2, 1, BLOCK), (1, 0, BLOCK + 1), (2, 1, 0), (1, 0, 7),
                       (2, 1, 2 * BLOCK - 1)]:
        src.reset(k, m)
        assert [src.random() for _ in range(used)] == scalar_draws(key, k, m, 2 * n + used)[2 * n:]


@pytest.mark.parametrize("n", [8, BLOCK // 2, 500], ids=["below-block", "one-block", "many-blocks"])
def test_block_uniforms_coefficient_array_is_scalar_draws(n):
    # reset fills the row in one call: it holds draws 0..3n-1 of the stream,
    # the coefficients are its head, the decode's first random() is draw 2n
    # and, once the row's tail is read, the next is draw 3n, from a block
    key = _philox_key(23)
    for leftover in (lambda s: s.random(),  # the previous stream left mid-block
                     lambda s: s.gen.integers(0, 2**32, size=3, dtype=np.uint32)):  # half word
        src = block_source(key, 3, n)
        leftover(src)
        src.reset(4, 3)
        coefficients = src.row[:2 * n]
        rest = [src.random() for _ in range(n + 2 * BLOCK + 1)]
        ref = scalar_draws(key, 4, 3, 3 * n + 2 * BLOCK + 1)
        assert src.row.tolist() == ref[:3 * n]
        assert isinstance(coefficients, np.ndarray) and coefficients.shape == (2 * n,)
        assert coefficients.tolist() == ref[:2 * n]
        assert rest[0] == ref[2 * n]
        assert rest[n] == ref[3 * n]
        assert rest == ref[2 * n:]


class _CountingUniforms:
    """random() of a generator, counting the calls."""

    def __init__(self, gen):
        self.gen, self.calls = gen, 0

    def random(self):
        self.calls += 1
        return self.gen.random()


@pytest.mark.parametrize("shape", [(3, 2), (4, 1), (5, 2), (250, 8), "fig1", "chain"])
def test_first_attempt_draws_at_most_n(shape, fig1, chain):
    # at most a pick per position, and maintenance placement draws nothing: a
    # guided or unguided attempt, finished or dead-ended, never reads past the
    # row's n-double tail
    inst = {"fig1": fig1, "chain": chain}.get(shape) or generate_instance(*shape, seed=3)
    m = build_matrices(inst)
    n = inst.n
    rng = np.random.default_rng(5)
    most = 0
    for i in range(40 if n > 100 else 300):
        counter = _CountingUniforms(np.random.default_rng(i))
        proposal = None if i % 4 == 0 else rng.integers(1, n + 1, size=n).tolist()
        try:
            build_cycle(inst, m, counter, proposal)
        except DeadEnd:
            pass
        most = max(most, counter.calls)
    assert 0 < most <= n


@pytest.mark.parametrize("name", ["fig1", "chain"])
def test_reset_source_decodes_as_fresh_substream(name, fig1, chain):
    # a guided decode fed by the re-keyed source is the decode fed by a fresh
    # substream after its 2n coefficients; on fig1 the guided walk dead-ends
    # and the restarts read past the row into BLOCK lists, on chain it never
    # dead-ends and never reads past the row
    inst = {"fig1": fig1, "chain": chain}[name]
    m = build_matrices(inst)
    n = inst.n
    key = _philox_key(29)
    src = block_source(key, 0, n)
    rng = np.random.default_rng(3)
    beyond_row = 0
    for k in range(1, 61):
        vec = rng.integers(1, n + 1, size=n).tolist()
        src.reset(k, 0)
        got = pso._decode(inst, m, src, 100, vec)
        ref = substream(key, k, 0)
        ref.random(2 * n)
        counter = _CountingUniforms(ref)
        assert got == pso._decode(inst, m, counter, 100, vec)
        beyond_row += counter.calls > n
    assert beyond_row if name == "fig1" else beyond_row == 0


# --- decoding -------------------------------------------------------------------

def test_decode_reproduces_feasible_plan_orders():
    inst = compact_instance()
    m = build_matrices(inst)
    rng = np.random.default_rng(0)
    for _ in range(40):
        plan = construct(inst, m, rng)
        for k in range(5):
            out, _ = decode(plan.order, inst, m, np.random.default_rng(k))
            assert out.order == plan.order


def test_decode_two_train_identity(two_train):
    m = build_matrices(two_train)
    for k in range(50):
        out, _ = decode((1, 2), two_train, m, np.random.default_rng(k))
        assert out.order == (1, 2)
        assert out.maint_after == (0, 1)


def test_decode_repairs_degenerate_vector(fig1, fig1_matrices):
    for k in range(30):
        plan, _ = decode([1] * 12, fig1, fig1_matrices, np.random.default_rng(k))
        assert sorted(plan.order) == list(range(1, 13))
        assert plan.maint_after[-1] == 1


def test_decode_counts_dead_ends(fig1, fig1_matrices):
    """0 when the guided walk succeeds; else 1 plus the failed attempts of the
    fallback construction, which continues on the same generator."""
    inst, m = fig1, fig1_matrices  # both walks run out of time windows in most attempts
    rng = np.random.default_rng(1)
    seen = set()
    for i in range(200):
        vec = rng.integers(1, inst.n + 1, size=inst.n)
        ref_rng = np.random.default_rng(i)
        try:
            order, maint_after, _, _ = build_cycle(inst, m, ref_rng, vec)
            expected = CirculationPlan(tuple(order), tuple(maint_after)), 0
        except DeadEnd:
            plan, failed, _, _ = construct_with_stats(inst, m, ref_rng, 100)
            expected = plan, failed + 1
        assert decode(vec, inst, m, np.random.default_rng(i)) == expected
        seen.add(min(expected[1], 2))
    assert seen == {0, 1, 2}  # success, fallback at once, fallback after retries


def test_decode_error_counts_every_dead_end(fig1, fig1_matrices):
    """The guided attempt is not charged against max_restarts, so
    max_restarts + 2 attempts run, and the error counts all of them."""
    ref_rng = np.random.default_rng(17)  # a seed whose first five attempts dead-end
    for vec in [[1] * 12] + [None] * 4:  # the guided attempt, then max_restarts + 1 more
        with pytest.raises(DeadEnd):
            build_cycle(fig1, fig1_matrices, ref_rng, vec)
    rng = np.random.default_rng(17)
    with pytest.raises(InfeasibleError, match="dead-ended in 5 consecutive attempts"):
        decode([1] * 12, fig1, fig1_matrices, rng, max_restarts=3)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_decode_deterministic(fig1, fig1_matrices):
    vec = [7, 3, 3, 1, 12, 2, 2, 8, 5, 5, 10, 11]
    a, _ = decode(vec, fig1, fig1_matrices, np.random.default_rng(9))
    b, _ = decode(vec, fig1, fig1_matrices, np.random.default_rng(9))
    assert a == b


def test_decoded_plans_always_structurally_sound(fig1, fig1_matrices):
    rng = np.random.default_rng(77)
    for _ in range(300):
        vec = rng.integers(1, 13, size=12)
        plan, _ = decode(vec, fig1, fig1_matrices, np.random.default_rng(int(rng.integers(1 << 31))))
        assert sorted(plan.order) == list(range(1, 13))
        assert plan.maint_after[-1] == 1
        for d in range(12):
            if plan.maint_after[d]:
                i, j = plan.order[d], plan.order[(d + 1) % 12]
                assert fig1.train(i).arr_station == fig1.maint_station
                assert fig1_matrices.conn_rows[i - 1][j - 1] is not None
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


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_default_solve_at_200_trains_finds_a_plan(seed):
    # default max_restarts 100, a short 4 x 5 swarm
    inst = generate_instance(100, 4, seed=seed)
    m = build_matrices(inst)
    res = solve(inst, m, SwarmConfig(n_particles=4, k_max=5, seed=seed))
    assert validate(res.best_plan, inst, m).ok


def test_config_validation():
    with pytest.raises(ValueError):
        SwarmConfig(n_particles=0)
    with pytest.raises(ValueError):
        SwarmConfig(w_max=0.1, w_min=0.5)


@pytest.mark.parametrize("field, value, message", [
    ("w_max", math.inf, "w_max must be finite, got inf"),
    ("w_max", math.nan, "w_max must be finite, got nan"),
    ("w_min", -math.inf, "w_min must be finite, got -inf"),
    ("c1", math.nan, "c1 must be finite, got nan"),
    ("c2", math.inf, "c2 must be finite, got inf"),
    ("v_min", math.nan, "v_min must be finite or -inf, got nan"),
    ("v_min", math.inf, "v_min must be finite or -inf, got inf"),
    ("v_max", math.nan, "v_max must be finite or inf, got nan"),
    ("v_max", -math.inf, "v_max must be finite or inf, got -inf"),
    ("n_particles", 2.0, "n_particles must be an integer, got 2.0"),
    ("n_particles", True, "n_particles must be an integer, got True"),
    ("k_max", 7.5, "k_max must be an integer, got 7.5"),
    ("k_max", False, "k_max must be an integer, got False"),
    ("seed", 1.5, "seed must be a non-negative integer, got 1.5"),
    ("seed", -1, "seed must be a non-negative integer, got -1"),
    ("seed", True, "seed must be a non-negative integer, got True"),
])
def test_config_refuses_non_finite_and_non_integer_values(field, value, message):
    # a NaN coefficient or bound turns every velocity into NaN, which the
    # position step casts to garbage ids: every proposal is then repaired
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SwarmConfig(**{field: value})


def test_config_open_velocity_clamp_is_accepted(fig1, fig1_matrices):
    cfg = SwarmConfig(n_particles=4, k_max=10, v_min=-math.inf, v_max=math.inf)
    assert SwarmConfig(n_particles=np.int64(4), k_max=10).n_particles == 4
    assert SwarmConfig(seed=np.int64(3)).seed == 3
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = solve(fig1, fig1_matrices, cfg)
    assert validate(res.best_plan, fig1, fig1_matrices).ok


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


# SHA-256 of render_plan of the best plan, repr of the trace and the restart
# count. Any change to the draws, the order of the swarm arithmetic or the
# bookkeeping of bests changes these.
GOLDEN_SWARM = {
    # name: (n_pairs, turnback stations, instance seed, SwarmConfig kwargs, sha)
    "n6-default": (3, 2, 13, (("seed", 13),),
                   "d5014c70129aca68277645d78672cb80047b12a8a4e5a0d4c7732452ba7b2ab8"),
    "n8-default": (4, 1, 14, (("seed", 14),),
                   "17e8dbc341f4303ab3c5e8a1107d3d2d88ffe5faf11a3825e70ce113b2f5c493"),
    "n10-default": (5, 2, 15, (("seed", 15),),
                    "b7192d0fd664f3edd9068fd7fa8423df719cc505fbdf6e9cac4fb1af76715477"),
    "one-particle": (4, 1, 16, (("n_particles", 1), ("k_max", 200), ("seed", 16)),
                     "5d8965080ae1931c918b36c64201b159bad737f2fc1cfb1c1d2cd0c370f114bc"),
    "custom-coefficients": (
        5, 2, 17,
        (("n_particles", 12), ("k_max", 60), ("c1", 1.3), ("c2", 0.6),
         ("v_min", -1.5), ("v_max", 2.5), ("seed", 17)),
        "5c18bf353573ee4865797319ec2f8d1a769107a4767bea170aab971dc7ce00e0",
    ),
}


def _swarm_sha(pairs, turnbacks, inst_seed, cfg, **solve_kwargs):
    inst = generate_instance(pairs, turnbacks, seed=inst_seed)
    m = build_matrices(inst)
    res = solve(inst, m, SwarmConfig(**dict(cfg)), **solve_kwargs)
    text = render_plan(res.best_plan, inst, m) + repr(res.trace) + str(res.restarts)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN_SWARM))
def test_golden_swarm_runs(name):
    pairs, turnbacks, inst_seed, cfg, sha = GOLDEN_SWARM[name]
    assert _swarm_sha(pairs, turnbacks, inst_seed, cfg) == sha


# The benchmark's solve-large shape: 500 trains over 8 turn-back stations, a
# 4 x 5 swarm at max_restarts 1000.
GOLDEN_SOLVE_LARGE = "26020ce6961d6fe18706f9d7c6c8c362fd374948ae0c8b8998ebe84fbde1b649"
SOLVE_LARGE = (250, 8, 1, (("n_particles", 4), ("k_max", 5), ("seed", 1)))


def test_golden_solve_large_shaped_run():
    sha = _swarm_sha(*SOLVE_LARGE, max_restarts=1000)
    assert sha == GOLDEN_SOLVE_LARGE


@pytest.mark.parametrize("name", ["n6-default", "one-particle", "solve-large"])
def test_particles_that_stay_skip_their_decode(name, monkeypatch):
    # a particle whose rounded position does not move keeps its last decode,
    # and only such a particle: one decode per particle and iteration less one
    # per stayer, and the same run. A decode is an iteration-0 construction or
    # a guided build_cycle call, which passes its proposal by keyword; a
    # construction after the first guided call follows a guided dead end. The
    # goldens alone do not see a stale plan reused for a particle that moved.
    if name == "solve-large":
        run, sha, kwargs = SOLVE_LARGE, GOLDEN_SOLVE_LARGE, {"max_restarts": 1000}
    else:
        *run, sha = GOLDEN_SWARM[name]
        kwargs = {}
    calls = guided = stayers = 0

    def counting(*args, **kw):
        nonlocal calls
        calls += not guided
        return construct_with_stats(*args, **kw)

    def counting_guided(*args, **kw):
        nonlocal calls, guided
        assert kw["proposal"] is not None
        calls, guided = calls + 1, guided + 1
        return build_cycle(*args, **kw)

    def counting_stayers(x, v_new, n):
        nonlocal stayers
        moved = update_position(x, v_new, n)
        stayers += int((moved == x).all(axis=1).sum())
        return moved

    monkeypatch.setattr(pso, "construct_with_stats", counting)
    monkeypatch.setattr(pso, "build_cycle", counting_guided)
    monkeypatch.setattr(pso, "update_position", counting_stayers)
    assert _swarm_sha(*run, **kwargs) == sha
    swarm = SwarmConfig(**dict(run[3]))
    assert stayers > 0
    assert calls == swarm.n_particles * (swarm.k_max + 1) - stayers


def test_maint_prob_is_deprecated_in_decode_and_solve(fig1, fig1_matrices):
    vec = [7, 3, 3, 1, 12, 2, 2, 8, 5, 5, 10, 11]
    # decode no longer takes the keyword, nor reads a fifth positional argument
    # as max_restarts
    with pytest.raises(TypeError, match="maint_prob"):
        decode(vec, fig1, fig1_matrices, np.random.default_rng(9), maint_prob=0.5)
    with pytest.raises(TypeError):
        decode(vec, fig1, fig1_matrices, np.random.default_rng(9), 0.9)
    cfg = SwarmConfig(n_particles=4, k_max=5, seed=3)
    ref = solve(fig1, fig1_matrices, cfg)
    with pytest.warns(DeprecationWarning, match="maint_prob is deprecated"):
        got = solve(fig1, fig1_matrices, cfg, maint_prob=0.0)
    assert (got.best_plan, got.trace, got.restarts) == (ref.best_plan, ref.trace, ref.restarts)


@pytest.mark.parametrize("knob", [{"maint_prob": 1.5}, {"max_restarts": -1}],
                         ids=["prob1.5", "restarts-1"])
def test_solve_rejects_out_of_range_knobs(fig1, fig1_matrices, knob):
    with pytest.raises(ValueError, match="must"):
        solve(fig1, fig1_matrices, SwarmConfig(n_particles=4, k_max=5), **knob)


def _failed_attempts(monkeypatch):
    """Spy on solve's decodes: the failed attempts of each, in call order, as
    returned or as the error counts them, or None for an iteration-0
    construction that ran out of restarts. A guided decode is a build_cycle
    call; after a dead end its construction's attempts follow, and the
    guided one counts among them."""
    failed = []
    after_dead_end = False

    def guided(*args, **kw):
        nonlocal after_dead_end
        try:
            out = build_cycle(*args, **kw)
        except DeadEnd:
            after_dead_end = True
            raise
        failed.append(0)
        return out

    def spy(*args, **kw):
        nonlocal after_dead_end
        fallback, after_dead_end = after_dead_end, False
        try:
            out = construct_with_stats(*args, **kw)
        except InfeasibleError as exc:
            attempts = int(re.search(r"in (\d+) consecutive attempts", str(exc)).group(1))
            failed.append(attempts + 1 if fallback else None)
            raise
        failed.append(out[1] + fallback)
        return out

    monkeypatch.setattr(pso, "build_cycle", guided)
    monkeypatch.setattr(pso, "construct_with_stats", spy)
    return failed


def test_a_decode_out_of_restarts_after_iteration_0_keeps_the_last_plan(
        fig1, fig1_matrices, monkeypatch):
    # fig1's multi-leg chains dead-end often: at max_restarts=3 some guided
    # decodes of this run use up all five attempts (the guided one and four
    # more), and the search goes on with each particle's last plan
    failed = _failed_attempts(monkeypatch)
    result = solve(fig1, fig1_matrices, SwarmConfig(n_particles=8, k_max=40, seed=0), max_restarts=3)
    assert 5 in failed and None not in failed
    assert result.restarts == sum(failed)
    assert validate(result.best_plan, fig1, fig1_matrices).ok
    assert result.best_fitness == objective_value(result.best_plan, fig1, fig1_matrices)


def test_a_construction_out_of_restarts_in_iteration_0_still_raises(
        fig1, fig1_matrices, monkeypatch):
    failed = _failed_attempts(monkeypatch)
    with pytest.raises(InfeasibleError, match="dead-ended in 4 consecutive attempts"):
        solve(fig1, fig1_matrices, SwarmConfig(n_particles=8, k_max=40, seed=1), max_restarts=3)
    assert failed[-1] is None


# The restart path, which the goldens above never take: on fig1 at
# max_restarts=10 guided decodes dead-end often, 339 attempts fail in all, and
# two decodes after iteration 0 run out of restarts and keep their particle's
# last plan. SHA-256 as in _swarm_sha, then best_fitness and restarts.
GOLDEN_RESTART_PATH = ("612936c2a06e022ccd76273d49f9812c409e19eacf36b2011bf235e3826e1e94",
                       2298.2, 339)


def test_golden_restart_path(fig1, fig1_matrices, monkeypatch):
    failed = _failed_attempts(monkeypatch)
    res = solve(fig1, fig1_matrices, SwarmConfig(n_particles=10, k_max=20, seed=0),
                max_restarts=10)
    text = render_plan(res.best_plan, fig1, fig1_matrices) + repr(res.trace) + str(res.restarts)
    sha = hashlib.sha256(text.encode()).hexdigest()
    assert (sha, res.best_fitness, res.restarts) == GOLDEN_RESTART_PATH
    assert failed.count(12) == 2  # the guided attempt and max_restarts + 1 more
    assert sum(failed) == res.restarts


def test_golden_restart_path_seed_2_raises_in_iteration_0(fig1, fig1_matrices):
    # 11 attempts: max_restarts + 1 with no guided one, so an iteration-0 construction
    with pytest.raises(InfeasibleError, match="dead-ended in 11 consecutive attempts"):
        solve(fig1, fig1_matrices, SwarmConfig(n_particles=10, k_max=20, seed=2),
              max_restarts=10)
