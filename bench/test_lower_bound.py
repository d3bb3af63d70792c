"""Self-test of the benchmark's assignment lower bound.

    PYTHONPATH=src python3 -m pytest -q bench/test_lower_bound.py

The bound must never exceed the exact optimum (brute force, n <= 10) nor the
objective of any feasible plan, and its arc-count side must agree with the
program's connection matrices.
"""

import numpy as np
import pytest

from emu_roster import brute_force, build_matrices, construct, generate_instance, objective_value
from lower_bound import assignment_bound, feasible_arc_count

SMALL = [(n_pairs, turnbacks, seed) for n_pairs in (1, 2, 3, 4, 5) for turnbacks in (1, 2) for seed in (1, 2, 3)]


@pytest.mark.parametrize("n_pairs,turnbacks,seed", SMALL)
def test_bound_never_exceeds_exact_optimum(n_pairs, turnbacks, seed):
    inst = generate_instance(n_pairs, turnbacks, seed=seed)
    exact = brute_force(inst, build_matrices(inst))
    assert exact.best_objective is not None
    assert assignment_bound(inst) <= exact.best_objective + 1e-9


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bound_below_constructed_plans(seed):
    inst = generate_instance(50, 4, seed=seed)
    matrices = build_matrices(inst)
    bound = assignment_bound(inst)
    assert bound > 0
    for k in range(5):
        plan = construct(inst, matrices, np.random.default_rng([seed, k]), maint_prob=0.9)
        assert bound <= objective_value(plan, inst, matrices) + 1e-9


@pytest.mark.parametrize("seed", [1, 2])
def test_feasible_arcs_match_program_matrices(seed):
    inst = generate_instance(20, 3, seed=seed)
    assert feasible_arc_count(inst) == int((~np.isnan(build_matrices(inst).conn_time)).sum())
