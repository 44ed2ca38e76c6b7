"""Pluggable per-window estimator backends.

Importing this package registers the three built-in backends:

* ``domo-qp`` — the paper's Eq. (8) minimum-delay-variance QP (default;
  also takes the SDR lift under ``fifo_mode="sdr"``);
* ``cs`` — compressed-sensing delay tomography (ISTA/OMP sparse
  recovery over the window's routing matrix);
* ``message-tracing`` — order-only uniform spacing (baseline).

Resolve one with :func:`get_backend`; see :mod:`repro.backends.base`
for the contract.
"""

from __future__ import annotations

from repro.backends.base import (
    EstimatorBackend,
    UnknownBackendError,
    WindowSolution,
    available_backends,
    backend_names,
    get_backend,
    register_backend,
)
from repro.backends.baselines import MessageTracingBackend
from repro.backends.cs import CsBackend, CsConfig
from repro.backends.domo_qp import DomoQpBackend, EstimatorConfig

#: the default backend name (the paper's estimator).
DEFAULT_BACKEND = "domo-qp"

register_backend(DomoQpBackend())
register_backend(CsBackend())
register_backend(MessageTracingBackend())

__all__ = [
    "CsBackend",
    "CsConfig",
    "DEFAULT_BACKEND",
    "DomoQpBackend",
    "EstimatorBackend",
    "EstimatorConfig",
    "MessageTracingBackend",
    "UnknownBackendError",
    "WindowSolution",
    "available_backends",
    "backend_names",
    "get_backend",
    "register_backend",
]
