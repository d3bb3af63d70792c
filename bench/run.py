"""emu-roster benchmark.

    python3 bench/run.py --workload compare-small --seed 1 --seconds 30 --trace 0

Run it from the root of an emu-roster checkout: the program is imported from
./src and nothing is installed. One client runs the ops back to back (closed
loop, one process, one thread). Each op calls the library the way the
`emu-roster solve`, `compare` and `validate`/`diagram` subcommands do, minus
argument parsing and file I/O; the program only ever sees timetable text and
plan text that the benchmark generates from --seed.

Workloads (see BENCHMARK.json for why each exists):
  compare-small  n in {6, 8, 10}; brute_force, default swarm solve, compare
  solve-large    n = 500; reduced swarm at maint_prob 0.9, render_plan, plan_summary
  plan-check     one n = 500 timetable; a stream of plan texts, a quarter of
                 them corrupted; parse_plan, validate, then summary/render/dot

Every op is checked (see each workload's check); a failed check or any
exception counts the op as failed and is reported by op index. Times are
reported in wall seconds and in reference seconds, wall time scaled by a
calibration work timed between ops (see CAL_REF_S), which cancels most of a
shared host's drift in speed. The last
stdout line is one JSON object: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1. --trace 1 runs every op twice, untraced then traced,
on fresh copies of its input, and reports the difference as the tracing
overhead. Full results (all metrics, plan hashes, environment stamp) go to
.bench_out/<workload>-seed<seed>-trace<t>.json, the spans of the latest
traced run of a workload to .bench_out/spans-<workload>.npz.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True  # leave no caches in the checkout

import numpy as np  # noqa: E402

SRC = Path("src")
OUT = Path(".bench_out")
TOL = 1e-9
SHARED_RELOAD_S = 2.0  # plan-check re-times its timetable's set-up this often
# Construction attempts allowed at n = 500 (`--max-restarts`). One attempt at
# maint_prob 0.9 succeeds with probability 0.06-0.08 there, so the default
# budget of 100 runs out in about 1 construction in 1,000 and fails ~1% of
# solve-large ops with InfeasibleError; at 1000 that chance is below 1e-25.
# The traced run reports the longest run of dead ends (constructor.max_dead_end_run).
LARGE_MAX_RESTARTS = 1000
# Set-up and op times are also given in reference seconds: wall time scaled by
# CAL_REF_S over what a fixed calibration work, timed between ops, takes at
# that moment. CAL_REF_S is its time on an Intel Xeon (2 vCPU) in that host's
# fast phase. The shared host flips between phases about 1.7x apart every few
# seconds; the scaling cancels most of that.
CAL_REF_S = 0.008
CAL_EVERY_S = 0.25  # a calibration sample before an op, at most this often

# Public names whose calls the traced run records, as "<module>.<function>".
TARGETS = [
    "timetable.parse_timetable",
    "connection.build_matrices",
    "constructor.build_cycle",
    "constructor.construct_with_stats",
    "pso.solve",
    "pso.substream",
    "plan.decode_rotations",
    "plan.fitness_from_parts",
    "plan.fitness_value",
    "plan.objective_value",
    "plan.validate",
    "plan.plan_summary",
    "plan.render_plan",
    "plan.parse_plan",
    "oracle.brute_force",
    "oracle.compare",
    "diagram.render_dot",
]
SETUP_TARGETS = ("timetable.parse_timetable", "connection.build_matrices")

# Metric names and units, in report order. The final JSON line carries the
# ones listed in BENCHMARK.json; the rest are printed and saved.
END_TO_END = ["setup_s", "op_ref_s_p50", "ops_per_ref_s", "peak_rss_mb", "objective_over_bound_mean"]
PER_LAYER = [
    "timetable.parse_timetable.s",
    "connection.build_matrices.s",
    "connection.feasible_arcs",
    "plan.validate.s",
    "plan.self_s",
    "constructor.build_cycle.calls",
    "constructor.dead_ends",
    "pso.decodes",
    "pso.substream.calls",
    "pso.restarts",
    "oracle.plans_enumerated",
    "trace.overhead_s",
]


def unit_of(name: str) -> str:
    if name.startswith("ops_per_"):
        return "1/s"
    if name == "peak_rss_mb":
        return "MB"
    if name.startswith(("op_s", "op_ref_s", "calibration_s", "self_per_op.")) or name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_share", "_ratio", "_mean")):
        return "ratio"
    return "count"


class CheckFailed(Exception):
    """The program returned a wrong answer for an op."""


def import_program():
    if not (SRC / "emu_roster" / "__init__.py").is_file():
        raise SystemExit("bench/run.py: no src/emu_roster here; run it from the root of an emu-roster checkout")
    sys.path.insert(0, str(SRC.resolve()))
    import emu_roster

    if Path(emu_roster.__file__).resolve().parent != (SRC / "emu_roster").resolve():
        raise SystemExit(f"bench/run.py: emu_roster was imported from {emu_roster.__file__}, not ./src")
    from emu_roster import connection, constructor, diagram, oracle, plan, pso, timetable

    return connection, constructor, diagram, oracle, plan, pso, timetable


connection, constructor, diagram, oracle, plan, pso, timetable = import_program()
from lower_bound import assignment_bound, feasible_arc_count  # noqa: E402
from spans import GUIDED, RAISED, SpanRecorder  # noqa: E402


# --- inputs and checks -------------------------------------------------------

@dataclass
class Ctx:
    """One parsed timetable with its matrices and the benchmark's own facts about it."""

    instance: object
    matrices: object
    index: int
    bound: float = math.nan
    feasible_arcs: int = 0
    pool: list = field(default_factory=list)  # plan-check: (plan text, expected tag or None)


@dataclass
class OpOutcome:
    quality: dict[str, float]
    digest: str
    stats: dict[str, float]


def instance_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_search_result(ctx: Ctx, result, objective: float) -> None:
    """The returned plan is valid, its objective is the reported fitness, and
    it is not below the assignment bound."""
    report = plan.validate(result.best_plan, ctx.instance, ctx.matrices)
    if not report.ok:
        raise CheckFailed(f"returned plan fails validation: {sorted(report.tags())}")
    if not math.isclose(objective, result.best_fitness, rel_tol=TOL, abs_tol=TOL):
        raise CheckFailed(f"objective {objective!r} differs from best_fitness {result.best_fitness!r}")
    if ctx.bound > objective + TOL:
        raise CheckFailed(f"objective {objective!r} is below the lower bound {ctx.bound!r}")


def search_stats(result) -> dict[str, float]:
    return {
        "pso.restarts": result.restarts,
        "pso.feasible_fraction_mean": statistics.fmean(p.feasible_fraction for p in result.trace),
    }


class CompareSmall:
    name = "compare-small"
    min_ops = 6  # quality is taken over the first min_ops ops: two of each size
    setup_instances, setup_samples = 6, 30
    shared = False

    def __init__(self, seed: int):
        self.seed = seed

    def timetable_text(self, i: int) -> str:
        inst = timetable.generate_instance((3, 4, 5)[i % 3], 2, seed=instance_seed(self.seed, i))
        return timetable.render_timetable(inst)

    def op(self, ctx: Ctx, i: int):
        exact = oracle.brute_force(ctx.instance, ctx.matrices, n_limit=10)
        cfg = pso.SwarmConfig(n_particles=30, k_max=500, seed=instance_seed(self.seed, i))
        result = pso.solve(ctx.instance, ctx.matrices, cfg, maint_prob=0.5, max_restarts=100)
        return exact, result, oracle.compare(ctx.instance, ctx.matrices, exact, result)

    def check(self, ctx: Ctx, i: int, out) -> OpOutcome:
        exact, result, _ = out
        if exact.best_objective is None:
            raise CheckFailed("oracle found no feasible plan on a generated (feasible) instance")
        objective = plan.objective_value(result.best_plan, ctx.instance, ctx.matrices)
        check_search_result(ctx, result, objective)
        if objective < exact.best_objective - TOL:
            raise CheckFailed(f"objective {objective!r} beats the exact optimum {exact.best_objective!r}")
        if ctx.bound > exact.best_objective + TOL:
            raise CheckFailed(f"lower bound {ctx.bound!r} exceeds the exact optimum {exact.best_objective!r}")
        gap = (objective - exact.best_objective) / exact.best_objective
        return OpOutcome(
            quality={
                "objective_over_bound_mean": objective / ctx.bound,
                "gap_exact_mean": gap,
                "within_5pct_share": float(gap <= 0.05),
            },
            digest=digest(plan.render_plan(result.best_plan, ctx.instance, ctx.matrices)),
            stats={**search_stats(result), "oracle.plans_enumerated": exact.plans_enumerated},
        )


class SolveLarge:
    name = "solve-large"
    min_ops = 6
    setup_instances, setup_samples = 6, 6
    shared = False
    swarm = dict(n_particles=4, k_max=5)

    def __init__(self, seed: int):
        self.seed = seed

    def timetable_text(self, i: int) -> str:
        inst = timetable.generate_instance(250, 8, seed=instance_seed(self.seed, i))
        return timetable.render_timetable(inst)

    def op(self, ctx: Ctx, i: int):
        cfg = pso.SwarmConfig(**self.swarm, seed=instance_seed(self.seed, i))
        result = pso.solve(ctx.instance, ctx.matrices, cfg, maint_prob=0.9, max_restarts=LARGE_MAX_RESTARTS)
        text = plan.render_plan(result.best_plan, ctx.instance, ctx.matrices)
        return result, text, plan.plan_summary(result.best_plan, ctx.instance, ctx.matrices)

    def check(self, ctx: Ctx, i: int, out) -> OpOutcome:
        result, text, summary = out
        if summary.objective is None:
            raise CheckFailed("plan_summary reports the returned plan as invalid")
        check_search_result(ctx, result, summary.objective)
        return OpOutcome(
            quality={
                "objective_over_bound_mean": summary.objective / ctx.bound,
                "gap_bound_mean": (summary.objective - ctx.bound) / ctx.bound,
            },
            digest=digest(text),
            stats=search_stats(result),
        )


def plan_text(order, flags) -> str:
    """Plan file form as parse_plan reads it (position, train, maintenance flag)."""
    lines = ["cycle"]
    lines += [f"pos {d} train {t} maint {f}" for d, (t, f) in enumerate(zip(order, flags), start=1)]
    return "\n".join(lines) + "\n"


def corrupt(order, flags, kind: str, instance, rng):
    """Break one constraint the validator must report under tag `kind`."""
    order, flags = list(order), list(flags)
    n = len(order)
    train = instance.train
    if kind == "CONN":  # swap in a train that departs elsewhere after an ordinary arc
        while True:
            a, b = sorted(int(x) for x in rng.choice(np.arange(1, n), 2, replace=False))
            if flags[a - 1] == 0 and train(order[a - 1]).arr_station != train(order[b]).dep_station:
                order[a], order[b] = order[b], order[a]
                return order, flags
    if kind == "EQ8/EQ9":  # one train twice, another never
        a, b = (int(x) for x in rng.choice(n, 2, replace=False))
        order[a] = order[b]
    elif kind == "SHAPE":  # the loop no longer closes through the depot
        flags[-1] = 0
    elif kind == "EQ10":  # maintenance away from the depot
        away = [d for d in range(n - 1) if train(order[d]).arr_station not in instance.maint_stations]
        flags[away[int(rng.integers(len(away)))]] = 1
    elif kind == "EQ11":  # no maintenance until the loop closes: mileage overruns
        flags = [0] * (n - 1) + [1]
    return order, flags


class PlanCheck:
    name = "plan-check"
    pool_size = 40
    corrupt_every = 4  # a quarter of the plans are corrupted
    kinds = ("CONN", "EQ8/EQ9", "SHAPE", "EQ10", "EQ11")
    min_ops = pool_size  # one pass over the pool
    setup_instances, setup_samples = 1, 5
    shared = True

    def __init__(self, seed: int):
        self.seed = seed

    def timetable_text(self, i: int) -> str:
        inst = timetable.generate_instance(250, 8, seed=instance_seed(self.seed, 0))
        return timetable.render_timetable(inst)

    def build_pool(self, ctx: Ctx) -> None:
        for k in range(self.pool_size):
            rng = np.random.default_rng([self.seed, k])
            p = constructor.construct(ctx.instance, ctx.matrices, rng, max_restarts=LARGE_MAX_RESTARTS, maint_prob=0.9)
            order, flags, expected = p.order, p.maint_after, None
            if k % self.corrupt_every == self.corrupt_every - 1:
                expected = self.kinds[(k // self.corrupt_every) % len(self.kinds)]
                order, flags = corrupt(order, flags, expected, ctx.instance, rng)
            ctx.pool.append((plan_text(order, flags), expected))

    def op(self, ctx: Ctx, i: int):
        parsed = plan.parse_plan(ctx.pool[i % self.pool_size][0])
        report = plan.validate(parsed, ctx.instance, ctx.matrices)
        if not report.ok:
            return report, None, None, None
        return (
            report,
            plan.plan_summary(parsed, ctx.instance, ctx.matrices),
            plan.render_plan(parsed, ctx.instance, ctx.matrices),
            diagram.render_dot(parsed, ctx.instance, ctx.matrices),
        )

    def check(self, ctx: Ctx, i: int, out) -> OpOutcome:
        report, summary, text, dot = out
        expected = ctx.pool[i % self.pool_size][1]
        if expected is None:
            if not report.ok:
                raise CheckFailed(f"clean plan {i % self.pool_size} rejected: {sorted(report.tags())}")
            if summary.objective is None or summary.objective < ctx.bound - TOL:
                raise CheckFailed(f"objective {summary.objective!r} is below the lower bound {ctx.bound!r}")
            if not dot.startswith("digraph"):
                raise CheckFailed("render_dot returned no digraph")
            return OpOutcome({"objective_over_bound_mean": summary.objective / ctx.bound}, digest(text), {})
        if expected not in report.tags():
            raise CheckFailed(f"plan {i % self.pool_size} corrupted as {expected}, validate reported {sorted(report.tags())}")
        return OpOutcome({}, digest("\n".join(map(str, report.violations))), {})


WORKLOADS = {w.name: w for w in (CompareSmall, SolveLarge, PlanCheck)}


# --- running -----------------------------------------------------------------

def calibration_work() -> None:
    """Fixed interpreter work that calls nothing of the program: dict counting,
    a keyed sort, and formatting and parsing text lines. Its speed follows the
    host's phases about as the program's ops do (slope 0.8-1.1 in log-log)."""
    keys = [(i * 7919) % 1000 for i in range(10000)]
    counts: dict[int, int] = {}
    for i, k in enumerate(keys):
        counts[k] = counts.get(k, 0) + i
    sorted(keys, key=lambda v: -v)
    text = "\n".join(f"pos {i} train {k} maint {i % 2} at {i * 0.37:.2f}" for i, k in enumerate(keys[:2000]))
    for line in text.splitlines():
        fields = line.split()
        int(fields[3]) + float(fields[7])


@dataclass
class Calibration:
    """Calibration samples (time taken, seconds) through the run."""

    at: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)

    def sample(self) -> None:
        """One timing, stalls included: the ops next to it suffer them too."""
        t0 = time.perf_counter()
        calibration_work()
        self.at.append(time.perf_counter())
        self.seconds.append(self.at[-1] - t0)

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= CAL_EVERY_S

    def ref_seconds(self, mids: list[float], seconds: list[float]) -> list[float]:
        """Wall times in reference seconds, each scaled by the calibration time
        interpolated to the middle of its interval."""
        cal = np.interp(mids, self.at, self.seconds)
        return [t * CAL_REF_S / c for t, c in zip(seconds, cal)]


def load_timetable(wl, i: int) -> tuple[Ctx, float]:
    """Set-up as a CLI invocation pays it: parse the timetable, build the matrices."""
    text = wl.timetable_text(i)
    t0 = time.perf_counter()
    instance = timetable.parse_timetable(text)
    matrices = connection.build_matrices(instance)
    return Ctx(instance, matrices, i), time.perf_counter() - t0


class Runner:
    def __init__(self, wl, recorder: SpanRecorder | None, cal: Calibration):
        self.wl = wl
        self.recorder = recorder
        self.cal = cal
        self.setup_times: list[float] = []
        self.setup_mids: list[float] = []
        self.prepared: dict[int, Ctx] = {}
        self.feasible_arcs: list[int] = []
        self.last_load = 0.0

    def traced(self):
        return self.recorder.installed() if self.recorder else nullcontext()

    def set_up(self) -> None:
        """setup_samples loads cycling over the first setup_instances, before any op."""
        self.cal.sample()
        with self.traced():
            for k in range(self.wl.setup_samples):
                ctx = self.load(k % self.wl.setup_instances)
                self.prepared[ctx.index] = ctx
        for ctx in self.prepared.values():
            self.complete(ctx)

    def load(self, i: int) -> Ctx:
        """Every load is a set-up sample; samples taken throughout the run keep
        setup_s from hinging on the machine's speed in its first second."""
        ctx, dt = load_timetable(self.wl, i)
        self.last_load = time.perf_counter()
        self.setup_times.append(dt)
        self.setup_mids.append(self.last_load - dt / 2)
        return ctx

    def complete(self, ctx: Ctx) -> Ctx:
        """The benchmark's own facts about a timetable, computed outside any timing."""
        ctx.bound = assignment_bound(ctx.instance)
        ctx.feasible_arcs = feasible_arc_count(ctx.instance)
        self.feasible_arcs.append(ctx.feasible_arcs)
        if self.wl.shared:
            self.wl.build_pool(ctx)
        return ctx

    def context(self, i: int, fresh: bool = False) -> Ctx:
        if self.wl.shared:
            if time.perf_counter() - self.last_load >= SHARED_RELOAD_S:
                with self.traced():
                    self.load(0)
            return self.prepared[0]
        if not fresh and i in self.prepared:
            return self.prepared.pop(i)
        with self.traced():
            ctx = self.load(i)
        return self.complete(ctx)


@dataclass
class OpRecord:
    index: int
    start: float
    seconds: float
    error: str | None = None
    outcome: OpOutcome | None = None


def run_op(wl, ctx: Ctx, i: int, recorder: SpanRecorder | None = None) -> OpRecord:
    t0 = time.perf_counter()
    try:
        if recorder:
            with recorder.installed(), recorder.op_span(i):
                out = wl.op(ctx, i)
        else:
            out = wl.op(ctx, i)
    except Exception as exc:  # any exception fails the op; the run goes on
        return OpRecord(i, t0, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}")
    rec = OpRecord(i, t0, time.perf_counter() - t0)
    try:
        rec.outcome = wl.check(ctx, i, out)
    except CheckFailed as exc:
        rec.error = f"check failed: {exc}"
    return rec


def run_ops(wl, runner: Runner, seconds: float, min_ops: int, paired: bool):
    """Closed loop until the deadline, and at least min_ops ops. Paired mode
    runs each op untraced, then traced on a fresh copy of its input. Untimed
    calibration samples are taken between ops and once after the last."""
    plain: list[OpRecord] = []
    traced: list[OpRecord] = []
    deadline = time.perf_counter() + seconds
    lap: list[float] = []  # wall time per loop turn, to stop before overrunning the deadline
    i = 0
    while i < min_ops or time.perf_counter() + (statistics.median(lap) if lap else 0.0) < deadline:
        t0 = time.perf_counter()
        ctx = runner.context(i)
        if runner.cal.due():
            runner.cal.sample()
        plain.append(run_op(wl, ctx, i))
        if paired:
            traced.append(run_op(wl, runner.context(i, fresh=True), i, runner.recorder))
            a, b = plain[-1], traced[-1]
            if a.outcome and b.outcome and a.outcome.digest != b.outcome.digest:
                b.error = "check failed: traced and untraced runs of the op gave different plans"
        if wl.shared and i >= wl.pool_size:
            ref, cur = plain[i - wl.pool_size], plain[-1]
            if ref.outcome and cur.outcome and ref.outcome.digest != cur.outcome.digest:
                cur.error = f"check failed: plan {i % wl.pool_size} gave a different result than at op {ref.index}"
        lap.append(time.perf_counter() - t0)
        i += 1
    runner.cal.sample()
    return plain, traced


# --- metrics -----------------------------------------------------------------

def median_or_nan(values) -> float:
    return statistics.median(values) if values else math.nan


def finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def quantile_label(n: int) -> str | None:
    """Highest of p99/p90 with at least ten samples beyond it."""
    for q, label in ((0.99, "p99"), (0.90, "p90")):
        if n * (1 - q) >= 10:
            return label
    return None


def end_to_end(wl, runner: Runner, ops: list[OpRecord]) -> tuple[dict[str, float], dict[str, int]]:
    ok = [r for r in ops if r.error is None]
    times = sorted(r.seconds for r in ok)
    cal = runner.cal
    ref = cal.ref_seconds([r.start + r.seconds / 2 for r in ops], [r.seconds for r in ops])
    m: dict[str, float] = {
        "setup_s": statistics.median(cal.ref_seconds(runner.setup_mids, runner.setup_times)),
        "setup_wall_s": statistics.median(runner.setup_times),
        "op_ref_s_p50": median_or_nan([t for t, r in zip(ref, ops) if r.error is None]),
        "ops_per_ref_s": len(ok) / sum(ref),
        "op_s_p50": median_or_nan(times),
        "ops_per_s": len(ok) / sum(r.seconds for r in ops),
        "calibration_s_p50": statistics.median(cal.seconds),
        "failed_share": (len(ops) - len(ok)) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    label = quantile_label(len(times))
    if label:
        m[f"op_s_{label}"] = float(np.quantile(times, 0.99 if label == "p99" else 0.90))
    first = [r.outcome.quality for r in ops[: wl.min_ops] if r.error is None]
    for key in sorted({k for q in first for k in q}):
        values = [q[key] for q in first if key in q]
        m[key] = statistics.fmean(values)
    return m, {"op_s_p50": len(times), "op_ref_s_p50": len(times)}


def per_layer(recorder: SpanRecorder, plain: list[OpRecord], traced: list[OpRecord], arcs: list[int]):
    tab = recorder.table()
    n_ops = len(traced)
    in_op = tab["op"] >= 0
    m: dict[str, float] = {"connection.feasible_arcs": statistics.fmean(arcs)}

    def select(target: str, scope):
        return scope & (tab["name"] == recorder.names.index(target))

    for target in TARGETS:
        sel = select(target, ~in_op if target in SETUP_TARGETS else in_op)
        calls = int(sel.sum())
        if target not in SETUP_TARGETS:
            m[f"{target}.calls"] = calls / n_ops
        if calls:
            m[f"{target}.s"] = float(tab["dur"][sel].mean())

    builds = select("constructor.build_cycle", in_op)
    raised = (tab["flags"] & RAISED) != 0
    guided = builds & ((tab["flags"] & GUIDED) != 0)
    m["constructor.dead_ends"] = int((builds & raised).sum()) / n_ops
    m["pso.decodes"] = int(guided.sum()) / n_ops
    if builds.any():
        m["constructor.attempt_success_ratio"] = float((builds & ~raised).sum() / builds.sum())
    if guided.any():
        m["pso.fallback_share"] = float((guided & raised).sum() / guided.sum())
    constructions = select("constructor.construct_with_stats", in_op)
    if constructions.any():
        dead_ends = np.bincount(tab["parent"][builds & raised & ~guided], minlength=len(builds))
        m["constructor.max_dead_end_run"] = int(dead_ends[constructions].max())
    solves = select("pso.solve", in_op)
    if solves.any():
        m["pso.solve.self_s"] = float(tab["self"][solves].mean())

    # self time per op by span name and by module: these add up to the mean op time
    for idx, name in enumerate(recorder.names):
        sel = in_op & (tab["name"] == idx)
        if sel.any():
            m[f"self_per_op.{name}"] = float(tab["self"][sel].sum()) / n_ops
    module = np.array([n.split(".")[0] for n in recorder.names])[tab["name"]]
    m["plan.self_s"] = float(tab["self"][in_op & (module == "plan")].sum()) / n_ops

    ok = [r for r in traced if r.error is None]
    reported = {k for r in ok for k in r.outcome.stats} | {"pso.restarts", "oracle.plans_enumerated"}
    for key in sorted(reported):
        m[key] = statistics.fmean(r.outcome.stats.get(key, 0) for r in ok) if ok else 0.0
    t_plain = median_or_nan([r.seconds for r in plain if r.error is None])
    t_traced = median_or_nan([r.seconds for r in ok])
    m["op_s_p50_traced"] = t_traced
    m["op_s_p50_untraced"] = t_plain
    m["trace.overhead_s"] = t_traced - t_plain
    m["op_s_mean_traced"] = statistics.fmean(r.seconds for r in traced)
    return m


# --- environment and output --------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    """HEAD of a git checkout in the current directory, read without git."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = Path(".git") / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = Path(".git/packed-refs")
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


def source_digest() -> str:
    """SHA-256 over the program's sources, identifying the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "emu_roster").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload_seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed)
    recorder = SpanRecorder(TARGETS) if args.trace else None
    t_run = time.perf_counter()
    runner = Runner(wl, recorder, Calibration())
    runner.set_up()
    # the traced run keeps no minimum: its quality metrics are not reported
    plain, traced = run_ops(wl, runner, args.seconds, 1 if args.trace else wl.min_ops, bool(args.trace))

    ops = traced if args.trace else plain
    failures = [(r.index, r.error) for r in plain + traced if r.error]
    if args.trace:
        metrics = per_layer(recorder, plain, traced, runner.feasible_arcs)
        counts = {"op_s_p50_traced": sum(r.error is None for r in traced)}
        contract = PER_LAYER
    else:
        metrics, counts = end_to_end(wl, runner, plain)
        contract = END_TO_END

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {len(ops)} ops, {len(failures)} failed")
    for index, error in failures:
        print(f"FAILED op {index}: {error}")
    if recorder and recorder.missing:
        print(f"not found in the program, so not traced: {', '.join(recorder.missing)}")
    for name, value in metrics.items():
        extra = f" (n={counts[name]})" if name in counts else ""
        print(f"{name} {value:.6g} {unit_of(name)}{extra}")

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    # plan-check replays its pool, and each replay is checked against the first pass
    hashes = {str(r.index): r.outcome.digest for r in (ops[: wl.pool_size] if wl.shared else ops) if r.outcome}
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "attempted": len(ops),
        "failed": len({i for i, _ in failures}),
        "failures": [{"op": i, "error": e} for i, e in failures],
        "metrics": {k: {"value": finite_or_none(v), "unit": unit_of(k)} for k, v in metrics.items()},
        "plan_sha256": hashes,
        "untraced_targets": recorder.missing if recorder else [],
        "wall_s": time.perf_counter() - t_run,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if recorder:
        recorder.write(OUT / f"spans-{wl.name}.npz", t_run)  # latest traced run only

    final = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": result["failed"],
        # a metric no successful op could give (every op failed) is null
        "metrics": {k: {"value": finite_or_none(metrics.get(k, math.nan)), "unit": unit_of(k)} for k in contract},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
