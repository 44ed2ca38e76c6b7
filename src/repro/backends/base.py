"""The estimator-backend contract and its string-keyed registry.

Domo's Eq. (8) QP is the accuracy gold standard of the pipeline, but it
is also its throughput ceiling: every window pays a full ADMM solve.
This module makes the per-window estimator a *pluggable* component so
the batch pipeline, the streaming engine and the serve tier can pick a
different accuracy/throughput point per run — or per served stream —
without touching the window state machine around it.

A backend consumes one sealed window (a
:class:`~repro.core.preprocessor.WindowSystem`'s constraint system) and
produces a :class:`WindowSolution`: estimates for the unknown
:class:`~repro.core.records.ArrivalKey` quantities plus the solver
metadata the telemetry layer records. Backends are registered under
short stable names (``domo-qp``, ``cs``, ``message-tracing``)
and resolved with :func:`get_backend`; unknown names raise
:class:`UnknownBackendError` listing what *is* registered.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.constraints import ConstraintSystem
from repro.core.records import ArrivalKey
from repro.optim.result import SolverResult


@dataclass
class WindowSolution:
    """What one backend solve produced for one window.

    Attributes:
        estimates: value per unknown :class:`ArrivalKey` of the window
            (knowns are never included).
        solver: short solver label recorded in window telemetry
            (e.g. ``"linearized"``, ``"sdr"``, ``"cs-ista"``).
        result: the numeric solver's
            :class:`~repro.optim.result.SolverResult` when one ran, for
            iteration/residual telemetry; ``None`` for closed-form or
            trivial solves.
    """

    estimates: dict[ArrivalKey, float]
    solver: str
    result: SolverResult | None = None


class EstimatorBackend:
    """One per-window estimation strategy.

    Subclasses implement :meth:`solve_window`; the spec passed in is the
    :class:`~repro.runtime.executor.WindowSolveSpec` of the run, which
    carries every backend's config (``estimator``, ``sdr``, ``cs``) so
    one frozen picklable object can cross the process-pool boundary
    regardless of which backend the worker dispatches to.
    """

    #: registry key; subclasses must override.
    name: str = ""
    #: whether re-solving a ladder-relaxed system is meaningful. Backends
    #: that never consume the constraint rows (the uniform split, the CS
    #: engine) return the same answer at every rung, so the ladder skips
    #: them.
    supports_relaxation: bool = True

    def solve_window(
        self, system: ConstraintSystem, spec
    ) -> WindowSolution:
        """Estimate every unknown arrival time of one window.

        May raise :class:`~repro.optim.result.SolverError`; the executor
        then walks the degradation ladder.
        """
        raise NotImplementedError

    def solve_relaxed(
        self, system: ConstraintSystem, spec
    ) -> WindowSolution:
        """Solve a ladder-relaxed copy of the system.

        Default: same as :meth:`solve_window`. The ``domo-qp`` backend
        overrides this to force the linearized QP (the SDR lift encodes
        FIFO products the ladder is discarding anyway).
        """
        return self.solve_window(system, spec)


class UnknownBackendError(ValueError):
    """Raised by :func:`get_backend` for an unregistered backend name."""

    def __init__(self, name: str, known: list[str]):
        self.name = name
        self.known = known
        super().__init__(
            f"unknown estimator backend {name!r}; "
            f"registered backends: {', '.join(known)}"
        )


_REGISTRY: dict[str, EstimatorBackend] = {}


def register_backend(backend: EstimatorBackend) -> EstimatorBackend:
    """Register ``backend`` under ``backend.name`` (idempotent by name)."""
    if not backend.name:
        raise ValueError("backend must define a non-empty name")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> EstimatorBackend:
    """The backend registered under ``name``.

    Raises :class:`UnknownBackendError` (a ``ValueError``) listing the
    registered names when ``name`` is not one of them.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(name, backend_names()) from None


def backend_names() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def available_backends() -> dict[str, EstimatorBackend]:
    """Name -> backend snapshot of the registry (sorted by name)."""
    return {name: _REGISTRY[name] for name in backend_names()}
