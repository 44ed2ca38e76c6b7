"""Domo: per-hop per-packet delay tomography (the paper's contribution).

The PC-side pipeline mirrors §IV of the paper:

1. :mod:`repro.core.records` / :mod:`repro.core.candidate` — index the
   unknown arrival times and compute candidate sets C(p), C*(p);
2. :mod:`repro.core.constraints` — build the three constraint families
   (FIFO, order, sum-of-delays) over the unknowns;
3. :mod:`repro.backends.domo_qp` + :mod:`repro.core.windows` — the
   Eq. (8) minimum-delay-variance estimate, solved per overlapping time
   window;
4. :mod:`repro.core.sdr` — the faithful semidefinite relaxation of the
   FIFO constraints (Eq. (2)-(4));
5. :mod:`repro.core.bounds` — per-arrival-time lower/upper bounds via LPs
   over extracted sub-graphs;
6. :mod:`repro.core.pipeline` — :class:`DomoReconstructor`, the public API;
7. :mod:`repro.core.metrics` — the paper's accuracy metrics (§VI.A).
"""

from repro.core.candidate import CandidateSets, compute_candidate_sets
from repro.core.constraints import ConstraintSystem, FifoPair, build_constraints
from repro.core.metrics import (
    average_displacement,
    bound_width_stats,
    estimation_error_stats,
)
from repro.core.pipeline import (
    BoundReconstruction,
    DelayReconstruction,
    DomoConfig,
    DomoReconstructor,
)
from repro.core.records import ArrivalKey, TraceIndex
from repro.core.validation import (
    TraceValidationError,
    ValidationConfig,
    ValidationReport,
    validate_packets,
)
from repro.core.windows import TimeWindow, plan_windows

__all__ = [
    "ArrivalKey",
    "BoundReconstruction",
    "CandidateSets",
    "ConstraintSystem",
    "DelayReconstruction",
    "DomoConfig",
    "DomoReconstructor",
    "FifoPair",
    "TimeWindow",
    "TraceIndex",
    "TraceValidationError",
    "ValidationConfig",
    "ValidationReport",
    "average_displacement",
    "bound_width_stats",
    "build_constraints",
    "compute_candidate_sets",
    "estimation_error_stats",
    "plan_windows",
    "validate_packets",
]
