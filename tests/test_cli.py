import hashlib
import re

import pytest

from emu_roster import (
    InfeasibleError,
    SwarmConfig,
    build_matrices,
    parse_plan,
    parse_timetable,
    render_plan,
    solve,
    validate,
)
from emu_roster.cli import main

FIG1 = "tests/data/fig1.timetable"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_parseable_file(tmp_path, capsys):
    out = tmp_path / "tt.txt"
    code, _, _ = run(capsys, "gen", "--pairs", "3", "--turnbacks", "2", "--seed", "9",
                     "--out", str(out))
    assert code == 0
    inst = parse_timetable(out.read_text())
    assert inst.n == 6


def test_gen_stdout_deterministic(capsys):
    code1, out1, _ = run(capsys, "gen", "--pairs", "2", "--seed", "4")
    code2, out2, _ = run(capsys, "gen", "--pairs", "2", "--seed", "4")
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_refuses_a_pair_beyond_configured_allowance(tmp_path, capsys):
    cfgf = tmp_path / "tight.cfg"
    cfgf.write_text("l_cycle=1500\n")
    code, out, err = run(capsys, "gen", "--pairs", "4", "--seed", "1", "--config", str(cfgf))
    assert (code, out) == (1, "")
    assert err == (
        "error: pair 2 (trains 3 and 4) needs 2287.0 km and 857 min as one rotation, "
        "beyond the allowance of 1575.0 km and 3024 min\n"
    )


def test_solve_fig1_end_to_end(tmp_path, capsys):
    plan_path = tmp_path / "plan.txt"
    code, out, err = run(capsys, "solve", FIG1, "--out", str(plan_path),
                         "--particles", "10", "--iters", "40", "--seed", "3")
    assert code == 0
    assert "objective" in out
    inst = parse_timetable(open(FIG1).read())
    plan = parse_plan(plan_path.read_text())
    assert validate(plan, inst, build_matrices(inst)).ok
    trace = (tmp_path / "plan.txt.trace.csv").read_text().splitlines()
    assert trace[0] == "iter,global_best_fitness,feasible_fraction"
    assert len(trace) == 42  # header + init row + 40 iterations


def test_solve_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    code1, out1, _ = run(capsys, "solve", FIG1, "--out", str(a),
                         "--particles", "6", "--iters", "25", "--seed", "11")
    code2, out2, _ = run(capsys, "solve", FIG1, "--out", str(b),
                         "--particles", "6", "--iters", "25", "--seed", "11")
    assert code1 == code2 == 0
    assert out1 == out2
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.txt.trace.csv").read_bytes() == (tmp_path / "b.txt.trace.csv").read_bytes()


def test_solve_rejects_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("maint_station C\ntrain 1 C 8h00 A 10:00 300.0 120\n")
    code, _, err = run(capsys, "solve", str(bad), "--out", str(tmp_path / "p.txt"))
    assert code == 1
    assert "line 2" in err


def test_solve_flow_imbalance_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "maint_station C\n"
        "train 1 C 08:00 A 10:00 300.0 120\n"
        "train 2 A 11:00 C 13:00 300.0 120\n"
        "train 3 C 09:00 A 11:00 300.0 120\n"
    )
    code, _, err = run(capsys, "solve", str(bad), "--out", str(tmp_path / "p.txt"))
    assert code == 1
    assert "flow imbalance" in err


def test_solve_infinite_window_is_input_error(tmp_path, capsys):
    tt = tmp_path / "inf.txt"
    text = open(FIG1).read()
    assert "param l_cycle 4000.0\n" in text
    tt.write_text(text.replace("param l_cycle 4000.0\n", "param l_cycle inf\n"))
    code, out, err = run(capsys, "solve", str(tt), "--out", str(tmp_path / "p.txt"))
    assert code == 1
    assert out == ""
    assert err == "error: l_cycle must be finite, got inf\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_solve_non_finite_mileage_is_input_error(tmp_path, capsys, value):
    tt = tmp_path / "km.txt"
    text = open(FIG1).read()
    assert "train 2 A 09:40 B 11:20 280.0 100\n" in text
    tt.write_text(text.replace("train 2 A 09:40 B 11:20 280.0 100\n",
                               f"train 2 A 09:40 B 11:20 {value} 100\n"))
    plan_path = tmp_path / "p.txt"
    code, out, err = run(capsys, "solve", str(tt), "--out", str(plan_path))
    assert (code, out) == (1, "")
    assert err == f"error: line 12, col 1: train 2: mileage must be positive and finite, got {value}\n"
    assert not plan_path.exists()


def test_solve_non_ascii_clock_digit_is_input_error(tmp_path, capsys):
    tt = tmp_path / "sup.txt"
    text = open(FIG1).read()
    assert "train 2 A 09:40 B 11:20 280.0 100\n" in text
    tt.write_text(text.replace("train 2 A 09:40 ", "train 2 A 0\u2079:40 "), encoding="utf-8")
    plan_path = tmp_path / "p.txt"
    code, out, err = run(capsys, "solve", str(tt), "--out", str(plan_path))
    assert (code, out) == (1, "")
    assert err == "error: line 12, col 11: expected HH:MM, got '0\u2079:40'\n"
    assert not plan_path.exists()


def test_solve_fig1_reaches_the_optimum(tmp_path, capsys):
    # 858.2 is fig1's exact optimum (brute_force with n_limit=12)
    code, out, _ = run(capsys, "solve", FIG1, "--out", str(tmp_path / "p.txt"))
    assert code == 0
    assert "objective 858.200000\n" in out


def test_maint_prob_flag_and_key_are_refused(tmp_path, capsys):
    plan_path = tmp_path / "p.txt"
    with pytest.raises(SystemExit) as exc:
        main(["solve", FIG1, "--out", str(plan_path), "--maint-prob", "0.9"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "error: unrecognized arguments: --maint-prob 0.9" in captured.err
    cfgf = tmp_path / "knob.cfg"
    cfgf.write_text("maint_prob=0.5\n")
    for argv in (("solve", FIG1, "--out", str(plan_path)), ("gen", "--pairs", "3")):
        assert run(capsys, *argv, "--config", str(cfgf)) == (
            1, "", f"error: {cfgf}:1: unknown key 'maint_prob'\n")
    assert not plan_path.exists()


def test_solve_infeasible_instance_exit_2(tmp_path, capsys):
    tt = tmp_path / "big.txt"
    tt.write_text(
        "maint_station C\n"
        "train 1 C 08:00 X 12:00 4500.0 240\n"
        "train 2 X 13:00 C 17:00 4500.0 240\n"
    )
    with pytest.warns(Warning):
        code, _, err = run(capsys, "solve", str(tt), "--out", str(tmp_path / "p.txt"))
    assert code == 2
    assert "infeasible" in err


def test_validate_ok_plan(tmp_path, capsys):
    plan_path = tmp_path / "plan.txt"
    run(capsys, "solve", FIG1, "--out", str(plan_path),
        "--particles", "6", "--iters", "20", "--seed", "2")
    code, out, _ = run(capsys, "validate", FIG1, str(plan_path))
    assert code == 0
    assert out == ""


def test_validate_reports_eq11(tmp_path, capsys):
    tt = tmp_path / "tt.txt"
    tt.write_text(
        "maint_station C\n"
        "train 1 C 08:00 X 10:00 2200.0 120\n"
        "train 2 X 11:00 C 13:00 2200.0 120\n"
    )
    plan = tmp_path / "plan.txt"
    plan.write_text("cycle\npos 1 train 1 maint 0\npos 2 train 2 maint 1\n")
    code, out, _ = run(capsys, "validate", str(tt), str(plan))
    assert code == 3
    lines = out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("EQ11")


def test_validate_unknown_train_exit_1(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text(
        "cycle\n" + "".join(
            f"pos {d} train {d + 30} maint {1 if d == 12 else 0}\n" for d in range(1, 13)
        )
    )
    code, _, err = run(capsys, "validate", FIG1, str(plan))
    assert code == 1
    assert "unknown train" in err


def test_validate_length_mismatch_exit_1(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text("cycle\npos 1 train 1 maint 1\n")
    code, _, err = run(capsys, "validate", FIG1, str(plan))
    assert code == 1


def test_compare_small_instance(tmp_path, capsys):
    tt = tmp_path / "tt.txt"
    code, out, _ = run(capsys, "gen", "--pairs", "3", "--seed", "1", "--out", str(tt))
    assert code == 0
    code, out, _ = run(capsys, "compare", str(tt), "--particles", "10", "--iters", "40",
                       "--seed", "2")
    assert code == 0
    values = dict(line.split(" ", 1) for line in out.splitlines())
    assert float(values["relative_gap"]) >= -1e-12
    assert values["heuristic_feasible"] == "true"


def test_compare_two_train_zero_gap(tmp_path, capsys):
    tt = tmp_path / "tt.txt"
    run(capsys, "gen", "--pairs", "1", "--seed", "3", "--out", str(tt))
    code, out, _ = run(capsys, "compare", str(tt), "--particles", "4", "--iters", "5")
    assert code == 0
    values = dict(line.split(" ", 1) for line in out.splitlines())
    assert float(values["relative_gap"]) == pytest.approx(0.0, abs=1e-12)


def test_compare_too_large_exit_1(tmp_path, capsys):
    tt = tmp_path / "tt.txt"
    run(capsys, "gen", "--pairs", "20", "--seed", "1", "--out", str(tt))
    code, _, err = run(capsys, "compare", str(tt))
    assert code == 1
    assert "too large" in err


def test_diagram_fixture_plan(tmp_path, capsys, fig1, fig1_matrices, fig1_plan):
    dot_path = tmp_path / "plan.dot"
    plan_path = tmp_path / "plan.txt"
    plan_path.write_text(render_plan(fig1_plan, fig1, fig1_matrices))
    code, _, _ = run(capsys, "diagram", FIG1, str(plan_path), "--out", str(dot_path))
    assert code == 0
    dot = dot_path.read_text()
    assert dot.startswith("digraph circulation {")
    assert dot.rstrip().endswith("}")
    assert len(re.findall(r"^\s+t\d+ \[label=", dot, re.M)) == 12
    edges = re.findall(r"^\s+t\d+ -> t\d+ \[(.*)\];$", dot, re.M)
    assert len(edges) == 12
    assert sum("style=dashed" in e for e in edges) == 3
    # edge heads/tails form one cycle over all 12 nodes
    arcs = re.findall(r"(t\d+) -> (t\d+)", dot)
    succ = dict(arcs)
    assert len(succ) == 12
    cur, seen = "t1", set()
    while cur not in seen:
        seen.add(cur)
        cur = succ[cur]
    assert len(seen) == 12


def test_diagram_two_train(tmp_path, capsys):
    tt = tmp_path / "tt.txt"
    run(capsys, "gen", "--pairs", "1", "--seed", "3", "--out", str(tt))
    inst = parse_timetable(tt.read_text())
    m = build_matrices(inst)
    from emu_roster import CirculationPlan

    plan_path = tmp_path / "plan.txt"
    plan_path.write_text(
        render_plan(CirculationPlan(order=(1, 2), maint_after=(0, 1)), inst, m)
    )
    code, out, _ = run(capsys, "diagram", str(tt), str(plan_path))
    assert code == 0
    assert len(re.findall(r"\[label=\"\d+: ", out)) == 2
    assert out.count("->") == 2
    assert out.count("style=dashed") == 1


def test_diagram_unknown_train_exit_1(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text(
        "cycle\n" + "".join(
            f"pos {d} train {d + 30} maint {1 if d == 12 else 0}\n" for d in range(1, 13)
        )
    )
    code, out, err = run(capsys, "diagram", FIG1, str(plan))
    assert code == 1
    assert out == ""
    assert err == f"error: plan references unknown train ids: {list(range(31, 43))}\n"


def test_diagram_invalid_plan_exit_1(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text(
        "cycle\n" + "".join(
            f"pos {d} train {d} maint 1\n" for d in range(1, 13)
        )
    )
    # maintenance after every train is ineligible away from the depot
    code, _, err = run(capsys, "diagram", FIG1, str(plan))
    assert code == 1
    assert "invalid plan" in err


def test_config_file_feeds_solver(tmp_path, capsys):
    cfgf = tmp_path / "solver.cfg"
    cfgf.write_text("n_particles=5\nk_max=12\nomega2=0.0\n")
    plan_path = tmp_path / "plan.txt"
    code, out, _ = run(capsys, "solve", FIG1, "--out", str(plan_path),
                       "--config", str(cfgf), "--seed", "1")
    assert code == 0
    trace = (plan_path.parent / "plan.txt.trace.csv").read_text().splitlines()
    assert len(trace) == 14  # header + init + 12 iterations
    # omega2=0 -> objective is pure connection time (an integer value)
    values = dict(line.split(" ", 1) for line in out.splitlines())
    assert float(values["objective"]) == int(float(values["objective"]))


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfgf = tmp_path / "solver.cfg"
    cfgf.write_text("bogus=1\n")
    code, _, err = run(capsys, "solve", FIG1, "--out", str(tmp_path / "p.txt"),
                       "--config", str(cfgf))
    assert code == 1
    assert "unknown key" in err


@pytest.mark.parametrize("key", ["n_particles", "k_max", "seed", "max_restarts", "t_connect"])
def test_config_file_rejects_non_integral_counts(tmp_path, capsys, key):
    cfgf = tmp_path / "solver.cfg"
    cfgf.write_text(f"{key}=2.5\n")
    code, _, err = run(capsys, "solve", FIG1, "--out", str(tmp_path / "p.txt"),
                       "--config", str(cfgf), "--particles", "2", "--iters", "2")
    assert code == 1
    assert f"{key} must be an integer" in err


@pytest.mark.parametrize("flag, value, message", [
    ("--max-restarts", "-3", "--max-restarts must be >= 0"),
])
def test_constructor_knob_flags_out_of_range_exit_1(tmp_path, capsys, flag, value, message):
    plan_path = tmp_path / "p.txt"
    code, out, err = run(capsys, "solve", FIG1, "--out", str(plan_path), flag, value,
                         "--particles", "2", "--iters", "2")
    assert code == 1
    assert message in err
    assert out == "" and not plan_path.exists()


@pytest.mark.parametrize("line, message", [
    ("max_restarts=-3", "max_restarts must be >= 0"),
])
def test_config_file_rejects_out_of_range_knobs(tmp_path, capsys, line, message):
    cfgf = tmp_path / "solver.cfg"
    cfgf.write_text(f"# knobs\n{line}\n")
    code, _, err = run(capsys, "solve", FIG1, "--out", str(tmp_path / "p.txt"),
                       "--config", str(cfgf), "--particles", "2", "--iters", "2")
    assert code == 1
    assert f"{cfgf}:2: {message}" in err


@pytest.mark.parametrize("line", ["seed=\u0665", "k_max=1_0", "lambda=0_0.05"],
                         ids=["arabic-indic", "underscore", "float-underscore"])
def test_config_file_reads_numbers_as_the_timetable_does(tmp_path, capsys, line):
    # float() also reads other scripts' digits and underscores between digits
    cfgf = tmp_path / "solver.cfg"
    cfgf.write_text(f"n_particles=3\n{line}\n")
    plan_path = tmp_path / "p.txt"
    code, out, err = run(capsys, "solve", FIG1, "--out", str(plan_path), "--config", str(cfgf))
    value = line.split("=")[1]
    assert (code, out, err) == (1, "", f"error: {cfgf}:2: bad numeric value {value!r}\n")
    assert not plan_path.exists()
    # inf and exponents still read: the key's own check refuses an inf
    cfgf.write_text("omega2=1e-05\nl_cycle=inf\n")
    assert run(capsys, "gen", "--pairs", "3", "--config", str(cfgf)) == (
        1, "", "error: l_cycle must be finite, got inf\n")


@pytest.mark.parametrize("line, message", [
    ("v_max = nan", "v_max must be finite or inf, got nan"),
    ("c1 = inf", "c1 must be finite, got inf"),
    ("w_min = -inf", "w_min must be finite, got -inf"),
])
def test_config_file_rejects_non_finite_swarm_values(tmp_path, capsys, line, message):
    cfgf = tmp_path / "swarm.cfg"
    cfgf.write_text(f"{line}\n")
    plan_path = tmp_path / "p.txt"
    code, out, err = run(capsys, "solve", FIG1, "--out", str(plan_path), "--config", str(cfgf))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not plan_path.exists()


def test_negative_seed_is_usage_error(tmp_path, capsys):
    plan_path = tmp_path / "p.txt"
    code, out, err = run(capsys, "solve", FIG1, "--out", str(plan_path), "--seed", "-1")
    assert (code, out, err) == (1, "", "error: seed must be a non-negative integer, got -1\n")
    assert not plan_path.exists()


def test_constructor_knob_range_ends_are_accepted(tmp_path, capsys):
    code, _, err = run(capsys, "solve", FIG1, "--out", str(tmp_path / "p.txt"), "--max-restarts",
                       "0", "--particles", "2", "--iters", "2", "--seed", "1")
    # a single attempt (no restarts) may honestly dead-end: exit 2, not a usage error
    assert code in (0, 2) and "error:" not in err


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfgf = tmp_path / "solver.cfg"
    cfgf.write_text("k_max=50\nn_particles=5\n")
    plan_path = tmp_path / "plan.txt"
    code, _, _ = run(capsys, "solve", FIG1, "--out", str(plan_path),
                     "--config", str(cfgf), "--iters", "7", "--seed", "1")
    assert code == 0
    trace = (plan_path.parent / "plan.txt.trace.csv").read_text().splitlines()
    assert len(trace) == 9  # header + init + 7 iterations


def test_config_file_seed_is_used_and_flag_wins(tmp_path, capsys):
    cfgf = tmp_path / "solver.cfg"
    cfgf.write_text("seed=7\nn_particles=4\nk_max=6\n")

    def solve_bytes(name, *extra):
        plan_path = tmp_path / name
        code, out, _ = run(capsys, "solve", FIG1, "--out", str(plan_path), *extra)
        assert code == 0
        return out, plan_path.read_bytes(), (tmp_path / f"{name}.trace.csv").read_bytes()

    from_file = solve_bytes("file.txt", "--config", str(cfgf))
    from_flag = solve_bytes("flag.txt", "--particles", "4", "--iters", "6", "--seed", "7")
    assert from_file == from_flag
    flag_wins = solve_bytes("both.txt", "--config", str(cfgf), "--seed", "3")
    flag_only = solve_bytes("three.txt", "--particles", "4", "--iters", "6", "--seed", "3")
    assert flag_wins == flag_only
    assert flag_wins != from_file


def test_explicit_trace_path_and_constructor_knobs(tmp_path, capsys):
    plan_path = tmp_path / "plan.txt"
    trace_path = tmp_path / "fitness.csv"
    code, _, _ = run(capsys, "solve", FIG1, "--out", str(plan_path),
                     "--trace", str(trace_path), "--particles", "5", "--iters", "8",
                     "--seed", "2", "--max-restarts", "50")
    assert code == 0
    assert trace_path.exists()
    assert not (tmp_path / "plan.txt.trace.csv").exists()
    inst = parse_timetable(open(FIG1).read())
    plan = parse_plan(plan_path.read_text())
    assert validate(plan, inst, build_matrices(inst)).ok


def test_model_param_flags_reach_solver(tmp_path, capsys):
    plan_path = tmp_path / "plan.txt"
    code, out, _ = run(capsys, "solve", FIG1, "--out", str(plan_path),
                       "--particles", "5", "--iters", "10", "--seed", "1",
                       "--omega2", "0.0")
    assert code == 0
    values = dict(line.split(" ", 1) for line in out.splitlines())
    assert float(values["objective"]) == float(values["connection_minutes"])


@pytest.mark.parametrize("argv", [
    ("solve", FIG1, "--bogus", "1"),
    ("solve", FIG1, "--out", "unwritten.plan", "--bogus", "1"),
    ("solve", FIG1, "--out", "unwritten.plan", "--iters", "abc"),
    (),
], ids=["unknown-flag-no-out", "unknown-flag", "non-integer-iters", "no-command"])
def test_usage_errors_exit_1(capsys, argv):
    # exit code 2 belongs to an infeasible instance, not to argparse
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0


def test_model_settings_precedence_in_gen(tmp_path, capsys):
    # every model key from the file; a flag, where there is one, wins over it
    in_file = {"l_cycle": "5000.0", "t_cycle": "3000.0", "lambda": "0.02", "t_connect": "25",
               "omega1": "2.0", "omega2": "0.5", "beta": "20.0"}
    flags = {"lambda": "0.1", "t_connect": "35", "omega1": "3.0", "omega2": "0.25",
             "beta": "30.0"}
    cfgf = tmp_path / "model.cfg"
    cfgf.write_text("".join(f"{k}={v}\n" for k, v in in_file.items()))

    def param_lines(*extra):
        code, out, _ = run(capsys, "gen", "--pairs", "3", "--seed", "2", "--config", str(cfgf),
                           *extra)
        assert code == 0
        return dict(line.split()[1:] for line in out.splitlines() if line.startswith("param"))

    assert param_lines() == in_file
    argv = [a for k, v in flags.items() for a in ("--" + k.replace("_", "-"), v)]
    assert param_lines(*argv) == {**in_file, **flags}


def test_gen_reads_the_seed_from_config(tmp_path, capsys):
    cfgf = tmp_path / "seed.cfg"
    cfgf.write_text("seed=5\n")
    _, by_flag, _ = run(capsys, "gen", "--pairs", "3", "--seed", "5")
    _, by_default, _ = run(capsys, "gen", "--pairs", "3")
    assert by_flag != by_default
    assert run(capsys, "gen", "--pairs", "3", "--config", str(cfgf)) == (0, by_flag, "")
    # the flag wins over the file
    assert run(capsys, "gen", "--pairs", "3", "--seed", "1", "--config", str(cfgf)) == (
        0, by_default, "")


@pytest.mark.parametrize("line", ["k_max=5", "n_particles=4", "w_max=0.8", "max_restarts=3"])
def test_gen_refuses_a_key_it_does_not_use(tmp_path, capsys, line):
    cfgf = tmp_path / "unused.cfg"
    cfgf.write_text(f"seed=5\n{line}\n")
    code, out, err = run(capsys, "gen", "--pairs", "3", "--config", str(cfgf))
    assert (code, out) == (1, "")
    assert err == f"error: {cfgf}: gen does not use key(s) {line.split('=')[0]}\n"


# (config key, value in the file, its flag or None, value by the flag)
SWARM_SETTINGS = [
    ("n_particles", 3, "--particles", 5),
    ("k_max", 5, "--iters", 4),
    ("seed", 2, "--seed", 9),
    ("max_restarts", 2, "--max-restarts", 40),
    ("w_max", 0.8, None, None),
    ("w_min", 0.3, None, None),
    ("c1", 1.5, None, None),
    ("c2", 1.0, None, None),
    ("v_min", -3.0, None, None),
    ("v_max", 3.0, None, None),
]


@pytest.mark.parametrize("key, in_file, flag, by_flag", SWARM_SETTINGS,
                         ids=[case[0] for case in SWARM_SETTINGS])
def test_swarm_settings_precedence_in_solve(tmp_path, capsys, key, in_file, flag, by_flag):
    # the timetable's own param lines, off their defaults, lie under file and flags
    text = open(FIG1).read().replace("param lambda 0.05", "param lambda 0.08")
    text = text.replace("param omega2 0.01", "param omega2 0.02")
    tt = tmp_path / "tt.timetable"
    tt.write_text(text)
    base = {"n_particles": 4, "k_max": 6, "seed": 7}
    cfgf = tmp_path / "swarm.cfg"
    cfgf.write_text("".join(f"{k}={v}\n" for k, v in {**base, key: in_file}.items()))

    def library(value):
        inst = parse_timetable(text)
        m = build_matrices(inst)
        cfg = {**base, key: value}
        restarts = {"max_restarts": cfg.pop("max_restarts")} if key == "max_restarts" else {}
        try:
            result = solve(inst, m, SwarmConfig(**cfg), **restarts)
        except InfeasibleError:
            return 2, None
        trace = "".join(f"{p.iteration},{p.global_best_fitness:.6f},{p.feasible_fraction:.6f}\n"
                        for p in result.trace)
        return 0, (render_plan(result.best_plan, inst, m), result.restarts, trace)

    def cli(*extra):
        plan_path = tmp_path / "plan.txt"
        code, out, _ = run(capsys, "solve", str(tt), "--out", str(plan_path),
                           "--config", str(cfgf), *extra)
        if code:
            return code, None
        values = dict(line.split(" ", 1) for line in out.splitlines())
        trace = (tmp_path / "plan.txt.trace.csv").read_text().split("\n", 1)[1]
        return 0, (plan_path.read_text(), int(values["restarts"]), trace)

    from_file = cli()
    assert from_file == library(in_file)
    if flag is None:
        assert from_file != library(base.get(key, getattr(SwarmConfig(), key)))
    else:
        from_flag = cli(flag, str(by_flag))
        assert from_flag == library(by_flag)
        assert from_flag != from_file


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# SHA-256 of the bytes of a default fig1 solve and of validate/diagram on its plan
GOLDEN_FIG1 = {
    "plan": "ad7091b67562488f78ec1fefc8932f5618596ab96697a850a0cf360af32aafc4",
    "solve_stdout": "0268704cffdfac477386f4543abf64f72e4ba1a57e8c14199c82fbaea1c10ee7",
    "trace": "81b60357ed6e5b514954d06b7fc0d5b5e34a80fd8c0c1fe48108cc439e849ba9",
    "validate_stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "diagram": "1f8f7ae94618c36ccc3d7c89d6db3b68456511123f2b16d858d59eacf4e9ade1",
}


def test_golden_fig1_cli_bytes(tmp_path, capsys):
    plan_path = tmp_path / "plan.txt"
    code, solve_out, _ = run(capsys, "solve", FIG1, "--out", str(plan_path))
    assert code == 0
    code_v, validate_out, _ = run(capsys, "validate", FIG1, str(plan_path))
    code_d, diagram_out, _ = run(capsys, "diagram", FIG1, str(plan_path))
    assert (code_v, code_d) == (0, 0)
    assert {
        "plan": _sha(plan_path.read_bytes()),
        "solve_stdout": _sha(solve_out.encode()),
        "trace": _sha((tmp_path / "plan.txt.trace.csv").read_bytes()),
        "validate_stdout": _sha(validate_out.encode()),
        "diagram": _sha(diagram_out.encode()),
    } == GOLDEN_FIG1
