"""ILP-based energy lower bound for HAP instances.

The paper notes the HAP can be solved optimally with Integer Linear
Programming but runs a heuristic for speed.  Scheduling (one layer at a
time per sub-accelerator, chain precedence) is what makes the exact
problem hard; dropping it yields a *relaxation* whose optimum is a valid
**lower bound** on any schedulable solution's energy:

    minimise   sum_ij energy[i][j] * x[i][j]
    subject to sum_j x[i][j] = 1                     (each layer placed)
               sum_i dur[i][j] * x[i][j] <= LS       (per-slot load)
               sum_{i in chain} dur[i][a_i] <= LS    (chain critical path)
               x binary

Both constraint families are *necessary* for feasibility under any
scheduler (a slot cannot run longer than the makespan; a chain is
serial), so every feasible schedule satisfies the relaxation and the
relaxation's optimum can only be lower.  Solved with
``scipy.optimize.milp``.  Tests certify ``bound <= exact <= heuristic``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mapping.problem import MappingProblem

__all__ = ["IlpBound", "energy_lower_bound"]


@dataclass(frozen=True)
class IlpBound:
    """Result of the ILP relaxation.

    Attributes:
        energy_nj: The lower bound (``None`` if the relaxation itself is
            infeasible — then the true instance is certainly infeasible).
        feasible: Whether the relaxation admits any assignment.
        assignment: The relaxation's optimal placement (may not be
            schedulable; useful as a warm start / diagnostic).
    """

    energy_nj: float | None
    feasible: bool
    assignment: tuple[int, ...] | None


def energy_lower_bound(problem: MappingProblem,
                       latency_constraint: int) -> IlpBound:
    """Solve the scheduling-free ILP relaxation of a HAP instance."""
    # Imported here: scipy costs ~0.5 s to load and nothing else needs it.
    from scipy.optimize import Bounds, LinearConstraint, milp

    if latency_constraint <= 0:
        raise ValueError(
            f"latency constraint must be positive, got {latency_constraint}")
    layers = problem.num_layers
    slots = problem.num_slots
    n_vars = layers * slots

    def var(i: int, j: int) -> int:
        return i * slots + j

    cost = problem.energies.reshape(-1).astype(float)
    constraints = []
    # Each layer assigned exactly once.
    assign = np.zeros((layers, n_vars))
    for i in range(layers):
        for j in range(slots):
            assign[i, var(i, j)] = 1.0
    constraints.append(LinearConstraint(assign, lb=1.0, ub=1.0))
    # Per-slot load within the latency budget.
    load = np.zeros((slots, n_vars))
    for j in range(slots):
        for i in range(layers):
            load[j, var(i, j)] = float(problem.durations[i, j])
    constraints.append(
        LinearConstraint(load, lb=0.0, ub=float(latency_constraint)))
    # Each chain's serial execution time within the budget.
    chain_rows = np.zeros((len(problem.chains), n_vars))
    for c, chain in enumerate(problem.chains):
        for i in chain:
            for j in range(slots):
                chain_rows[c, var(i, j)] = float(problem.durations[i, j])
    constraints.append(
        LinearConstraint(chain_rows, lb=0.0, ub=float(latency_constraint)))

    res = milp(
        c=cost,
        constraints=constraints,
        integrality=np.ones(n_vars),
        bounds=Bounds(0.0, 1.0),
    )
    if not res.success or res.x is None:
        return IlpBound(energy_nj=None, feasible=False, assignment=None)
    x = np.round(res.x).reshape(layers, slots)
    assignment = tuple(int(np.argmax(x[i])) for i in range(layers))
    return IlpBound(
        energy_nj=float(res.fun),
        feasible=True,
        assignment=assignment,
    )
