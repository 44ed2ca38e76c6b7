"""Convex optimization substrate used by the Domo PC-side reconstruction.

The paper solves its estimation problem (a convex QP), its bound problems
(LPs) and its semidefinite relaxation (an SDP) with off-the-shelf solvers.
This subpackage provides those solvers from scratch:

* :mod:`repro.optim.qp` — an OSQP-style ADMM solver for quadratic programs
  of the form ``min 0.5 x'Px + q'x  s.t.  l <= Ax <= u``.
* :mod:`repro.optim.lp` — linear programs via scipy's HiGHS backend with a
  self-contained dense simplex fallback.
* :mod:`repro.optim.sdp` — an ADMM solver for QPs with additional affine
  positive-semidefinite (PSD) cone constraints, used by the faithful
  semidefinite relaxation of the FIFO constraints.
* :mod:`repro.optim.modeling` — the variable registry and the CSR
  :class:`RowStore` every constraint producer emits rows into.
"""

from repro.optim.lp import LinearProgram, solve_lp, solve_lp_simplex
from repro.optim.modeling import RowStore, VariableRegistry
from repro.optim.qp import QPProblem, solve_qp
from repro.optim.result import SolverError, SolverResult, SolverStatus
from repro.optim.sdp import PSDBlock, SDPProblem, solve_sdp

__all__ = [
    "LinearProgram",
    "PSDBlock",
    "QPProblem",
    "RowStore",
    "SDPProblem",
    "SolverError",
    "SolverResult",
    "SolverStatus",
    "VariableRegistry",
    "solve_lp",
    "solve_lp_simplex",
    "solve_qp",
    "solve_sdp",
]
