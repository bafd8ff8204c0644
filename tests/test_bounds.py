"""Unit tests for the ILP energy lower bound."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.mapping import energy_lower_bound, solve_exact, solve_hap
from tests.test_schedule import tiny_problem


class TestBoundCorrectness:
    def test_bound_below_exact_on_known_instance(self):
        prob = tiny_problem(
            durations=[[10, 30], [10, 30], [10, 30]],
            chains=[(0, 1, 2)],
            energies=[[9.0, 1.0], [9.0, 1.0], [9.0, 1.0]])
        bound = energy_lower_bound(prob, 50)
        exact = solve_exact(prob, 50)
        assert bound.feasible and exact.feasible
        assert bound.energy_nj <= exact.energy_nj + 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_bound_sandwich(self, seed):
        """bound <= exact <= heuristic on random instances."""
        rng = np.random.default_rng(seed)
        layers = 7
        durations = rng.integers(5, 40, size=(layers, 2)).tolist()
        energies = rng.uniform(1, 20, size=(layers, 2)).tolist()
        prob = tiny_problem(durations, [tuple(range(4)),
                                        tuple(range(4, layers))], energies)
        budget = int(np.asarray(durations).min(axis=1).sum() * 1.5) + 1
        bound = energy_lower_bound(prob, budget)
        exact = solve_exact(prob, budget)
        heur = solve_hap(prob, budget)
        assert bound.feasible
        if exact.feasible:
            assert bound.energy_nj <= exact.energy_nj + 1e-6
            if heur.feasible:
                assert exact.energy_nj <= heur.energy_nj + 1e-6

    def test_relaxation_infeasible_implies_instance_infeasible(self):
        prob = tiny_problem([[10], [10]], [(0, 1)])
        bound = energy_lower_bound(prob, 5)
        exact = solve_exact(prob, 5)
        assert not bound.feasible
        assert not exact.feasible

    def test_unconstrained_bound_is_min_energy(self):
        prob = tiny_problem(
            durations=[[10, 10], [10, 10]],
            chains=[(0, 1)],
            energies=[[5.0, 3.0], [2.0, 8.0]])
        bound = energy_lower_bound(prob, 10_000)
        assert bound.energy_nj == pytest.approx(3.0 + 2.0)

    def test_assignment_reported(self):
        prob = tiny_problem(
            durations=[[10, 10]],
            chains=[(0,)],
            energies=[[5.0, 3.0]])
        bound = energy_lower_bound(prob, 100)
        assert bound.assignment == (1,)

    def test_invalid_constraint(self):
        prob = tiny_problem([[10]], [(0,)])
        with pytest.raises(ValueError, match="positive"):
            energy_lower_bound(prob, 0)

    def test_real_problem_bound(self, cost_model, cifar_net_small,
                                small_accel):
        from repro.mapping import MappingProblem
        prob = MappingProblem.build((cifar_net_small,), small_accel,
                                    cost_model)
        heur = solve_hap(prob, 10**9)
        bound = energy_lower_bound(prob, 10**9)
        assert bound.feasible
        assert bound.energy_nj <= heur.energy_nj + 1e-6


def test_cli_import_leaves_scipy_unloaded():
    """scipy is imported only when a bound is solved: loading it roughly
    doubles the start-up time of every ``repro`` command."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, repro.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
