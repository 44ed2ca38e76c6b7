"""Faithful semidefinite relaxation of the FIFO constraints (Eq. (2)-(4)).

Eq. (1) is a product of two affine forms of the arrival times. The paper
lifts the arrival-time vector ``u`` to a matrix ``U`` standing in for
``u u'``: each product constraint becomes *linear* in ``(u, U)``
(``Tr(P U) >= 0``), and the rank-one equality is relaxed to the PSD
Schur-complement block ``[[U, u], [u', 1]] >= 0``. (The paper's Eq. (4)
prints the block with a flipped inequality sign; the standard — and only
convex — form is PSD, which is what we implement.)

The Eq. (8) objective is also quadratic in ``u``, so after the lift the
whole estimation problem is one SDP per window, solved by
:func:`repro.optim.sdp.solve_sdp`. The lift costs O(n^2) extra variables,
so this path is intended for modest windows; the pipeline's default
``fifo_mode="linearized"`` avoids the lift for large traces, and the
ablation benchmark compares the two.

RLT tightening: for every unknown with interval ``[lo, hi]`` we add
``(u - lo)(hi - u) >= 0`` lifted, i.e. ``-U_ii + (lo+hi) u_i >= lo*hi``,
which substantially tightens the relaxation at negligible cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.constants import INF
from repro.core.constraints import ConstraintSystem
from repro.backends.domo_qp import EstimatorConfig, enumerate_pairs, _linear_form
from repro.core.records import ArrivalKey
from repro.optim.result import SolverError, SolverResult
from repro.optim.sdp import PSDBlock, SDPProblem, SDPSettings, solve_sdp


@dataclass
class SdrConfig:
    """Knobs of the lifted solve."""

    #: refuse to lift windows with more unknowns than this (O(n^2) memory).
    max_unknowns: int = 80
    #: strict-inequality margin for the lifted FIFO products, ms^2.
    product_margin: float = 0.0
    #: add the RLT interval products (strongly recommended).
    use_rlt: bool = True
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    sdp: SDPSettings = field(default_factory=SDPSettings)


class _LiftIndex:
    """Column layout of the lifted variable x = [u ; svec(U)]."""

    def __init__(self, n: int) -> None:
        self.n = n
        self._pair_offset: dict[tuple[int, int], int] = {}
        offset = n
        for i in range(n):
            for j in range(i, n):
                self._pair_offset[(i, j)] = offset
                offset += 1
        self.total = offset

    def u(self, i: int) -> int:
        return i

    def U(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return self._pair_offset[(i, j)]


def solve_window_sdr(
    system: ConstraintSystem, config: SdrConfig | None = None
) -> dict[ArrivalKey, float]:
    """Estimate a window's unknown arrival times via the full SDR lift."""
    solution, _ = solve_window_sdr_info(system, config)
    return solution


def solve_window_sdr_info(
    system: ConstraintSystem, config: SdrConfig | None = None
) -> tuple[dict[ArrivalKey, float], SolverResult | None]:
    """Like :func:`solve_window_sdr`, also returning the SDP solver result.

    The second element carries iteration counts, residuals and solve time
    for telemetry; it is ``None`` for the trivial zero-unknown window.
    """
    solution, _, _, _, result = _solve_lifted(system, config or SdrConfig())
    return solution, result


def sdr_bounds(
    system: ConstraintSystem,
    key: ArrivalKey,
    config: SdrConfig | None = None,
) -> tuple[float, float]:
    """Bounds of one arrival time over the *SDR* feasible set (§IV.C).

    The paper's bound problems "consider the three kinds of constraints",
    i.e. including the relaxed FIFO products; this solves
    ``min t`` / ``max t`` over the lifted set (linear rows + RLT + PSD),
    which is at least as tight as the pure-LP bounds whenever unresolved
    FIFO pairs touch the target. Intended for small systems (the lift is
    O(n^2)); the production path remains the LP in
    :mod:`repro.core.bounds`.
    """
    config = config or SdrConfig()
    column = system.variables.get(key)
    if column is None:
        value = system.index.known_value(key)
        return value, value
    n = system.num_unknowns
    objective = np.zeros(n)
    objective[column] = 1.0
    low, _, _, _, _ = _solve_lifted(system, config, objective=objective)
    high, _, _, _, _ = _solve_lifted(system, config, objective=-objective)
    lo_interval, hi_interval = system.intervals[key]
    lower = max(low[key], lo_interval)
    upper = min(high[key], hi_interval)
    if lower > upper:  # solver tolerance: fall back to the interval
        return lo_interval, hi_interval
    return lower, upper


def _solve_lifted(
    system: ConstraintSystem,
    config: SdrConfig,
    objective: np.ndarray | None = None,
) -> tuple[
    dict[ArrivalKey, float],
    np.ndarray,
    np.ndarray,
    tuple[float, float],
    SolverResult | None,
]:
    """Run the lifted solve; also return (u, U), the (t_ref, scale) frame
    and the raw :class:`SolverResult` (``None`` when nothing was solved).

    ``objective`` (a vector over the unknowns) replaces the Eq. (8)
    objective when given — used by :func:`sdr_bounds` for min/max of a
    single arrival time.
    """
    n = system.num_unknowns
    if n == 0:
        return {}, np.zeros(0), np.zeros((0, 0)), (0.0, 1.0), None
    if n > config.max_unknowns:
        raise ValueError(
            f"window has {n} unknowns > SDR cap {config.max_unknowns}; "
            "shrink the window or use fifo_mode='linearized'"
        )

    lows, highs = system.variable_bounds()
    lows = np.asarray(lows)
    highs = np.asarray(highs)
    t_ref = float(np.min(lows))
    # Normalize times into ~[0, 1]: the lifted U entries are quadratic in
    # u, so without scaling the ADMM iteration is badly conditioned.
    scale = max(1.0, float(np.max(highs - t_ref)))
    lo = (lows - t_ref) / scale
    hi = (highs - t_ref) / scale
    mid = 0.5 * (lo + hi)

    lift = _LiftIndex(n)
    total = lift.total

    rows: list[dict[int, float]] = []
    row_lower: list[float] = []
    row_upper: list[float] = []

    def add_row(coeffs: dict[int, float], lower=-INF, upper=INF):
        rows.append(coeffs)
        row_lower.append(lower)
        row_upper.append(upper)

    # --- linear rows of the window (over u only) -----------------------
    A_rows = system.rows.matrix()
    b_lower, b_upper = system.rows.lower, system.rows.upper
    shift = np.asarray(A_rows @ np.ones(n)).ravel() * t_ref
    for r in range(A_rows.shape[0]):
        start, stop = A_rows.indptr[r], A_rows.indptr[r + 1]
        coeffs = {
            int(c): float(v)
            for c, v in zip(A_rows.indices[start:stop], A_rows.data[start:stop])
        }
        lower = (b_lower[r] - shift[r]) / scale if np.isfinite(b_lower[r]) else -INF
        upper = (b_upper[r] - shift[r]) / scale if np.isfinite(b_upper[r]) else INF
        add_row(coeffs, lower, upper)

    # --- interval box on u --------------------------------------------
    for i in range(n):
        add_row({lift.u(i): 1.0}, lo[i], hi[i])

    # --- lifted FIFO products (Eq. (2)-(3)) ----------------------------
    for pair in system.fifo_unresolved:
        _add_lifted_product(system, lift, add_row, pair, t_ref, scale, config)

    # --- RLT interval products -----------------------------------------
    if config.use_rlt:
        for i in range(n):
            add_row(
                {lift.U(i, i): -1.0, lift.u(i): lo[i] + hi[i]},
                lower=lo[i] * hi[i],
            )

    # --- objective: Eq. (8) lifted + midpoint anchor, or an override ----
    q = np.zeros(total)
    if objective is not None:
        q[:n] = np.asarray(objective, dtype=float)
    else:
        for _, x_at, x_next, y_at, y_next in enumerate_pairs(
            system, config.estimator
        ):
            form = {x_next: 1.0, x_at: -1.0, y_next: -1.0, y_at: 1.0}
            columns, coefficients, constant = _linear_form(
                system, form, t_ref, scale
            )
            if not columns:
                continue
            for ci, ai in zip(columns, coefficients):
                q[lift.u(ci)] += 2.0 * constant * ai
            for idx_i, (ci, ai) in enumerate(zip(columns, coefficients)):
                for cj, aj in list(zip(columns, coefficients))[idx_i:]:
                    if ci == cj:
                        q[lift.U(ci, ci)] += ai * aj
                    else:
                        q[lift.U(ci, cj)] += 2.0 * ai * aj
        lam = config.estimator.anchor_weight
        for i in range(n):
            q[lift.U(i, i)] += lam
            q[lift.u(i)] += -2.0 * lam * mid[i]

    # --- PSD block [[U, u], [u', 1]] ------------------------------------
    dim = n + 1
    C = sp.lil_matrix((dim * dim, total))
    d = np.zeros(dim * dim)
    for i in range(n):
        for j in range(n):
            C[i * dim + j, lift.U(i, j)] = 1.0
        C[i * dim + n, lift.u(i)] = 1.0
        C[n * dim + i, lift.u(i)] = 1.0
    d[n * dim + n] = 1.0
    block = PSDBlock(dim=dim, C=sp.csr_matrix(C), d=d)

    # --- assemble and solve ---------------------------------------------
    data, row_ids, col_ids = [], [], []
    for r, coeffs in enumerate(rows):
        for c, v in coeffs.items():
            row_ids.append(r)
            col_ids.append(c)
            data.append(v)
    A = sp.csr_matrix((data, (row_ids, col_ids)), shape=(len(rows), total))
    problem = SDPProblem(
        P=sp.csc_matrix((total, total)),
        q=q,
        A=A,
        lower=np.array(row_lower),
        upper=np.array(row_upper),
        psd_blocks=[block],
        settings=config.sdp,
    )
    result = solve_sdp(problem)
    if not result.status.is_usable:
        raise SolverError(result.status, "SDR window solve failed")
    u = result.x[:n]
    U = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            U[i, j] = U[j, i] = result.x[lift.U(i, j)]
    solution_vec = u * scale + t_ref
    solution = {
        key: float(solution_vec[system.variables.index_of(key)])
        for key in system.variables
    }
    return solution, u, U, (t_ref, scale), result


def solve_window_sdr_randomized(
    system: ConstraintSystem,
    config: SdrConfig | None = None,
    num_samples: int = 50,
    rng: np.random.Generator | None = None,
) -> dict[ArrivalKey, float]:
    """SDR + Gaussian randomized rounding (d'Aspremont & Boyd, ref. [21]).

    The relaxation's ``(u, U)`` define a Gaussian ``N(u, U - u u')`` whose
    second moment matches the lifted solution. Samples are drawn, repaired
    to satisfy the box and order constraints, scored by the true Eq. (8)
    objective plus the linear-constraint violation, and the best candidate
    (the mean solution included) wins. This implements the randomization
    step the paper's SDR reference describes but Domo itself leaves out.
    """
    config = config or SdrConfig()
    rng = rng or np.random.default_rng()
    mean_solution, u, U, (t_ref, scale), _ = _solve_lifted(system, config)
    n = system.num_unknowns
    if n == 0:
        return {}

    covariance = U - np.outer(u, u)
    # Numerical cleanup: the relaxation guarantees PSD only up to solver
    # tolerance.
    eigenvalues, eigenvectors = np.linalg.eigh(0.5 * (covariance + covariance.T))
    root = eigenvectors * np.sqrt(np.clip(eigenvalues, 0.0, None))

    lows, highs = system.variable_bounds()
    lows = np.asarray(lows)
    highs = np.asarray(highs)

    candidates = [np.array([mean_solution[key] for key in system.variables])]
    for _ in range(num_samples):
        z = u + root @ rng.normal(size=n)
        candidates.append(np.clip(z * scale + t_ref, lows, highs))

    best = None
    best_score = np.inf
    for candidate in candidates:
        repaired = _repair_order(system, candidate)
        score = _true_objective(system, repaired) + 10.0 * _violation(
            system, repaired
        )
        if score < best_score:
            best_score = score
            best = repaired
    assert best is not None
    return {
        key: float(best[system.variables.index_of(key)])
        for key in system.variables
    }


def _repair_order(system: ConstraintSystem, x: np.ndarray) -> np.ndarray:
    """Force each packet's interior times into monotone order (Eq. (5))."""
    repaired = x.copy()
    omega = system.index.omega_ms
    for packet in system.index.packets:
        previous = packet.generation_time_ms
        for hop in range(1, packet.path_length - 1):
            column = system.variables.get(ArrivalKey(packet.packet_id, hop))
            if column is None:
                continue
            ceiling = packet.sink_arrival_ms - (
                packet.path_length - 1 - hop
            ) * omega
            value = min(max(repaired[column], previous + omega), ceiling)
            repaired[column] = value
            previous = value
    return repaired


def _true_objective(system: ConstraintSystem, x: np.ndarray) -> float:
    """The unrelaxed Eq. (8) objective at a candidate point."""
    total = 0.0
    estimator_config = EstimatorConfig()
    for _, x_at, x_next, y_at, y_next in enumerate_pairs(
        system, estimator_config
    ):
        form = {x_next: 1.0, x_at: -1.0, y_next: -1.0, y_at: 1.0}
        value = 0.0
        for key, coefficient in form.items():
            column = system.variables.get(key)
            if column is None:
                value += coefficient * system.index.known_value(key)
            else:
                value += coefficient * x[column]
        total += value * value
    return total


def _violation(system: ConstraintSystem, x: np.ndarray) -> float:
    """Total violation of the linear rows at a candidate point."""
    return system.rows.max_violation(x)


def _add_lifted_product(
    system, lift, add_row, pair, t_ref, scale, config
) -> None:
    """Lift ``(t_xa - t_ya)(t_xn - t_yn) >= margin`` into (u, U) space."""
    a_cols, a_coef, a_const = _linear_form(
        system, {pair.x_at: 1.0, pair.y_at: -1.0}, t_ref, scale
    )
    b_cols, b_coef, b_const = _linear_form(
        system, {pair.x_next: 1.0, pair.y_next: -1.0}, t_ref, scale
    )
    coeffs: dict[int, float] = {}

    def bump(col: int, value: float) -> None:
        coeffs[col] = coeffs.get(col, 0.0) + value

    for ci, ai in zip(a_cols, a_coef):
        for cj, bj in zip(b_cols, b_coef):
            if ci == cj:
                bump(lift.U(ci, ci), ai * bj)
            else:
                # U is symmetric: u_i u_j appears once as U_(min,max).
                bump(lift.U(ci, cj), ai * bj)
    for ci, ai in zip(a_cols, a_coef):
        bump(lift.u(ci), b_const * ai)
    for cj, bj in zip(b_cols, b_coef):
        bump(lift.u(cj), a_const * bj)
    constant = a_const * b_const
    if not coeffs:
        return
    add_row(coeffs, lower=config.product_margin / scale**2 - constant)
