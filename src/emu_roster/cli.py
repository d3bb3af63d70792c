"""Command line front end.

Subcommands: solve (swarm search, writes plan + fitness trace), validate
(check a plan file against its timetable), compare (exact enumeration vs
swarm on small instances), gen (synthetic paired timetables), diagram (DOT
graph of a plan). Exit codes: 0 ok, 1 input or usage error, 2 infeasible
instance, 3 validation failures. All randomness flows from the swarm seed
(--seed, else the config file's seed=, else a fixed constant), so identical
invocations give identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from . import oracle as oracle_mod
from .connection import build_matrices
from .constructor import MAX_RESTARTS, InfeasibleError
from .diagram import render_dot
from .plan import (
    PlanFormatError,
    parse_plan,
    plan_summary,
    render_plan,
    validate,
)
from .pso import DEFAULT_SEED, SolveResult, SwarmConfig, solve
from .timetable import (
    PARAM_KEYS,
    ModelParams,
    TimetableError,
    float_token,
    generate_instance,
    param_field,
    parse_timetable,
    render_timetable,
)

_SWARM_KEYS = {f.name for f in fields(SwarmConfig)}
# every config key: the model parameters, the swarm's, and the constructor's max_restarts
_KEYS = set(PARAM_KEYS) | _SWARM_KEYS | {"max_restarts"}
_INT_KEYS = {"n_particles", "k_max", "seed", "max_restarts", "t_connect"}
_GEN_KEYS = set(PARAM_KEYS) | {"seed"}  # the keys gen reads: the model and its generator's seed


class CliError(Exception):
    """Bad input; maps to exit code 1."""


def _check_range(key: str, value: float, where: str) -> None:
    """Reject a negative max_restarts; where names its source."""
    if key == "max_restarts" and value < 0:
        raise CliError(f"{where} must be >= 0, got {value!r}")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _write(path: str, content: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from None


def _parse_config_file(path: str) -> dict[str, float]:
    """key=value lines; '#' comments; keys from _KEYS; values are number
    tokens as the timetable reads them (see float_token). Counts, the seed and
    t_connect must be integral and are returned as ints."""
    values: dict[str, float] = {}
    for lineno, raw in enumerate(_read(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            value = float_token(val.strip())
        except ValueError:
            raise CliError(f"{path}:{lineno}: bad numeric value {val.strip()!r}") from None
        if key in _INT_KEYS:
            if not value.is_integer():
                raise CliError(f"{path}:{lineno}: {key} must be an integer, got {val.strip()!r}")
            value = int(value)
        _check_range(key, value, f"{path}:{lineno}: {key}")
        values[key] = value
    return values


def _settings(args) -> dict[str, float]:
    """The --config file's values with the flags given on top, keyed by config
    key (each flag's dest is its key; gen reads the model keys and the seed,
    which seeds its generator, and refuses every other key)."""
    values = _parse_config_file(args.config) if args.config else {}
    for key, value in vars(args).items():
        if key in _KEYS and value is not None:
            _check_range(key, value, "--" + key.replace("_", "-"))
            values[key] = value
    return values


def _model_params(params: ModelParams, settings: dict[str, float]) -> ModelParams:
    return replace(params, **{param_field(k): settings[k] for k in PARAM_KEYS if k in settings})


def _load_search(args):
    """(instance, swarm configuration, max_restarts) of solve and compare,
    with the timetable's param lines under the settings."""
    instance = parse_timetable(_read(args.timetable))
    settings = _settings(args)
    params = _model_params(instance.params, settings)
    if params != instance.params:  # a new instance re-runs the checks and their warnings
        instance = replace(instance, params=params)
    cfg = SwarmConfig(**{k: v for k, v in settings.items() if k in _SWARM_KEYS})
    return instance, cfg, settings.get("max_restarts", MAX_RESTARTS)


def _trace_csv(result: SolveResult) -> str:
    lines = ["iter,global_best_fitness,feasible_fraction"]
    for p in result.trace:
        lines.append(f"{p.iteration},{p.global_best_fitness:.6f},{p.feasible_fraction:.6f}")
    return "\n".join(lines) + "\n"


def _cmd_solve(args) -> int:
    instance, cfg, max_restarts = _load_search(args)
    matrices = build_matrices(instance)
    result = solve(instance, matrices, cfg, max_restarts=max_restarts)

    _write(args.out, render_plan(result.best_plan, instance, matrices))
    trace_path = args.trace if args.trace else args.out + ".trace.csv"
    _write(trace_path, _trace_csv(result))

    summary = plan_summary(result.best_plan, instance, matrices)
    print(f"rotations {summary.n_rotations}")
    print(f"connection_minutes {summary.total_connection_time}")
    print(f"objective {summary.objective:.6f}")
    print(f"fitness {summary.fitness:.6f}")
    print(f"restarts {result.restarts}")
    print(f"wall_time {result.wall_time:.2f}s", file=sys.stderr)
    return 0


def _load_plan(args):
    """(plan, instance, matrices) from the plan and timetable files of validate
    and diagram; the plan must have one position per train and name no other."""
    instance = parse_timetable(_read(args.timetable))
    plan = parse_plan(_read(args.plan))
    if len(plan.order) != instance.n:
        raise CliError(
            f"plan has {len(plan.order)} positions but the timetable has {instance.n} trains"
        )
    unknown = sorted({t for t in plan.order if not 1 <= t <= instance.n})
    if unknown:
        raise CliError(f"plan references unknown train ids: {unknown}")
    return plan, instance, build_matrices(instance)


def _cmd_validate(args) -> int:
    report = validate(*_load_plan(args))
    for violation in report.violations:
        print(violation)
    return 0 if report.ok else 3


def _cmd_compare(args) -> int:
    instance, cfg, max_restarts = _load_search(args)
    matrices = build_matrices(instance)
    try:
        exact = oracle_mod.brute_force(instance, matrices, n_limit=args.oracle_limit)
    except oracle_mod.InstanceTooLargeError as exc:
        raise CliError(f"instance too large for oracle: {exc}") from None

    heuristic: SolveResult | None = None
    heuristic_error = None
    try:
        heuristic = solve(instance, matrices, cfg, max_restarts=max_restarts)
    except InfeasibleError as exc:
        heuristic_error = str(exc)

    report = oracle_mod.compare(instance, matrices, exact, heuristic)
    print(f"plans_enumerated {exact.plans_enumerated}")
    print(f"feasible_count {exact.feasible_count}")
    if report.consistently_infeasible:
        print("consistently infeasible")
        if heuristic_error:
            print(f"heuristic_error {heuristic_error}", file=sys.stderr)
        return 0
    if report.oracle_objective is not None:
        print(f"oracle_objective {report.oracle_objective:.6f}")
    if report.heuristic_objective is not None:
        print(f"heuristic_fitness {report.heuristic_objective:.6f}")
        print(f"heuristic_feasible {'true' if report.heuristic_feasible else 'false'}")
    if report.relative_gap is not None:
        print(f"absolute_gap {report.absolute_gap:.6f}")
        print(f"relative_gap {report.relative_gap:.6f}")
    return 0


def _cmd_gen(args) -> int:
    settings = _settings(args)
    unused = sorted(settings.keys() - _GEN_KEYS)
    if unused:
        raise CliError(f"{args.config}: gen does not use key(s) {', '.join(unused)}")
    params = _model_params(ModelParams(), settings)
    instance = generate_instance(args.pairs, args.turnbacks, settings.get("seed", DEFAULT_SEED),
                                 params)
    text = render_timetable(instance)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_diagram(args) -> int:
    dot = render_dot(*_load_plan(args))
    if args.out:
        _write(args.out, dot)
    else:
        sys.stdout.write(dot)
    return 0


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file (swarm and model overrides)")
    p.add_argument("--lambda", dest="lambda", type=float, help="overrun tolerance fraction")
    p.add_argument("--omega1", type=float, help="weight on total connection time")
    p.add_argument("--omega2", type=float, help="weight on maintenance mileage slack")
    p.add_argument("--beta", type=float, help="mileage overrun penalty coefficient")
    p.add_argument("--t-connect", dest="t_connect", type=int, help="minimum connection minutes")


def _add_swarm_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, help=f"swarm seed (default {DEFAULT_SEED})")
    p.add_argument("--particles", dest="n_particles", metavar="PARTICLES", type=int,
                   help="swarm size")
    p.add_argument("--iters", dest="k_max", metavar="ITERS", type=int, help="iteration count")
    p.add_argument("--max-restarts", dest="max_restarts", type=int,
                   help="failed construction attempts allowed before giving up (>= 0)")


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors on exit code 1, as CliError's: argparse's
    own code 2 means an infeasible instance here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="emu-roster", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute a circulation plan")
    p.add_argument("timetable")
    p.add_argument("--out", required=True, help="plan file to write")
    p.add_argument("--trace", help="fitness trace CSV (default: <out>.trace.csv)")
    _add_swarm_flags(p)
    _add_model_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("validate", help="check a plan file against its timetable")
    p.add_argument("timetable")
    p.add_argument("plan")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("compare", help="exact optimum vs swarm heuristic")
    p.add_argument("timetable")
    p.add_argument("--oracle-limit", type=int, default=10)
    _add_swarm_flags(p)
    _add_model_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("gen", help="generate a synthetic paired timetable")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--turnbacks", type=int, default=1)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    _add_model_flags(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("diagram", help="emit the plan's network as DOT")
    p.add_argument("timetable")
    p.add_argument("plan")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_diagram)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, TimetableError, PlanFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
