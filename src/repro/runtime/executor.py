"""Parallel window-solve engine for the estimation pipeline (§IV.B).

The overlapping time windows of the paper are independent subproblems:
each window's Eq. (8) QP (or SDR lift) reads only its own
:class:`~repro.core.preprocessor.WindowSystem`. This module fans those
solves out over a :class:`concurrent.futures.ProcessPoolExecutor` while
guaranteeing that parallel and serial execution produce *identical*
estimates: the same :func:`solve_one_window` function runs in both modes
and results are merged in window order, so the only difference is which
process executes each solve.

Robustness rules:

* serial execution is the default and the fallback — a pool that cannot
  be created or that breaks mid-run (missing ``fork``/``spawn`` support,
  unpicklable payloads, killed workers) degrades to in-process solving
  rather than failing the reconstruction;
* a window whose solver raises :class:`~repro.optim.result.SolverError`
  walks the **degradation ladder** before giving up: the system is
  re-solved with progressively relaxed constraint families — drop the
  loss-unsafe Eq. (6) sum-upper rows, then all FIFO rows, then everything
  but the Eq. (5) order rows — and only when even the order-only system
  fails does the window fall back to interval midpoints. Each rung is
  recorded in the window's telemetry (``relax_rung``/``relax_stage``), so
  a reconstruction that survived dirty data says exactly how.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pickle import PicklingError

from repro.backends import (
    DEFAULT_BACKEND,
    CsConfig,
    EstimatorConfig,
    get_backend,
)
from repro.core.constraints import FIFO, ORDER, SUM_LO
from repro.core.preprocessor import WindowSystem
from repro.core.records import ArrivalKey
from repro.core.sdr import SdrConfig
from repro.obs.registry import (
    COUNT_EDGES,
    current_registry,
    isolated_registry,
)
from repro.obs.solver_telemetry import WindowTelemetry
from repro.obs.spans import span
from repro.optim.result import SolverError


@dataclass(frozen=True)
class WindowSolveSpec:
    """Everything a worker needs to solve one window (picklable).

    Carries every backend's config (``estimator``, ``sdr``, ``cs``) so
    one frozen object crosses the process-pool boundary regardless of
    which registered backend ``backend`` names.
    """

    fifo_mode: str = "linearized"
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    sdr: SdrConfig = field(default_factory=SdrConfig)
    #: registry name of the estimator backend (see :mod:`repro.backends`).
    backend: str = DEFAULT_BACKEND
    cs: CsConfig = field(default_factory=CsConfig)


@dataclass
class WindowResult:
    """Kept estimates plus the telemetry record of one window solve."""

    window_index: int
    estimates: dict[ArrivalKey, float]
    telemetry: WindowTelemetry
    #: metrics-registry snapshot captured around the solve (QP/SDP
    #: histograms, window timings). Recorded in the solving process —
    #: possibly a pool worker — and merged into the submitting process's
    #: registry when the result is drained; ``None`` once merged.
    metrics: dict | None = None


@dataclass
class ExecutionReport:
    """Outcome of a full window sweep, results in window order."""

    results: list[WindowResult]
    #: "serial" or "parallel" — what actually ran (after any fallback).
    mode: str
    #: worker processes used (1 for serial).
    workers: int
    #: why a requested parallel run degraded to serial, if it did.
    fallback_reason: str | None = None


#: the degradation ladder: rung name -> the constraint families whose
#: rows survive at that rung. Walked in order by :func:`solve_one_window`
#: when the full system cannot be solved.
RELAXATION_LADDER: tuple[tuple[str, frozenset[int]], ...] = (
    ("drop_sum_upper", frozenset({ORDER, FIFO, SUM_LO})),
    ("drop_fifo", frozenset({ORDER, SUM_LO})),
    ("order_only", frozenset({ORDER})),
)

#: rung index reported when even the order-only system failed and the
#: window fell back to interval midpoints.
MIDPOINT_RUNG = len(RELAXATION_LADDER) + 1


def _relaxed_system(system, families):
    """A copy of ``system`` keeping only the rows of ``families``.

    The index, variables and intervals are shared (read-only in the
    estimator); unresolved FIFO pairs are cleared so an SDR re-solve of a
    relaxed system would not resurrect the dropped family.
    """
    return replace(
        system,
        rows=system.rows.select(families),
        fifo_unresolved=[],
        stats=dict(system.stats),
    )


def solve_one_window(
    window_index: int, ws: WindowSystem, spec: WindowSolveSpec
) -> WindowResult:
    """Solve one window and keep only its keep-region estimates.

    This is the single code path shared by serial and parallel execution;
    :class:`~repro.optim.result.SolverError` walks the relaxation ladder
    (drop sum-upper -> drop FIFO -> order-only -> interval midpoints) and
    never raises.

    Metrics emitted during the solve (the QP/SDP histograms and the
    ``window.*`` aggregates) are captured in an isolated registry and
    shipped back on ``WindowResult.metrics``, so a pool worker's
    observations reach the parent process and the merged aggregate is
    identical between serial and parallel runs.
    """
    with isolated_registry() as window_registry:
        result = _solve_one_window_inner(window_index, ws, spec)
        result.telemetry.publish(window_registry)
    result.metrics = window_registry.snapshot()
    return result


def _solve_one_window_inner(
    window_index: int, ws: WindowSystem, spec: WindowSolveSpec
) -> WindowResult:
    started = time.perf_counter()
    system = ws.system
    backend = get_backend(spec.backend)
    solver = "linearized"
    status = "optimal"
    iterations = 0
    attempts = 0
    relax_rung = 0
    relax_stage = "full"
    primal = dual = float("nan")
    estimates = None
    result = None
    try:
        attempts += 1
        solution = backend.solve_window(system, spec)
        estimates, result, solver = (
            solution.estimates, solution.result, solution.solver
        )
    except SolverError:
        # Degradation ladder: retry with whole constraint families
        # removed before surrendering to midpoints. Backends that never
        # consume the constraint rows would return the same answer at
        # every rung, so the ladder only walks for those that do.
        if backend.supports_relaxation:
            for rung, (stage, families) in enumerate(
                RELAXATION_LADDER, start=1
            ):
                relaxed = _relaxed_system(system, families)
                try:
                    attempts += 1
                    solution = backend.solve_relaxed(relaxed, spec)
                    estimates, result, solver = (
                        solution.estimates,
                        solution.result,
                        solution.solver,
                    )
                    relax_rung = rung
                    relax_stage = stage
                    break
                except SolverError:
                    continue
        if estimates is None:
            solver = "fallback"
            status = "fallback"
            relax_rung = MIDPOINT_RUNG
            relax_stage = "midpoints"
            estimates = {
                key: 0.5 * (lo + hi)
                for key, (lo, hi) in system.intervals.items()
                if key in system.variables
            }
    if result is not None:
        status = result.status.value
        iterations = result.iterations
        primal = result.primal_residual
        dual = result.dual_residual
    kept = {
        key: value
        for key, value in estimates.items()
        if key.packet_id in ws.kept_ids
    }
    telemetry = WindowTelemetry(
        window_index=window_index,
        num_packets=ws.num_packets,
        num_unknowns=system.num_unknowns,
        num_kept=len(kept),
        solver=solver,
        status=status,
        iterations=iterations,
        primal_residual=primal,
        dual_residual=dual,
        solve_time_s=time.perf_counter() - started,
        relax_rung=relax_rung,
        relax_stage=relax_stage,
        solve_attempts=attempts,
        backend=backend.name,
    )
    return WindowResult(
        window_index=window_index, estimates=kept, telemetry=telemetry
    )


def _solve_entry(payload) -> WindowResult:
    """Module-level pool target (must be picklable by name)."""
    window_index, ws, spec = payload
    return solve_one_window(window_index, ws, spec)


def resolve_worker_count(
    num_windows: int, max_workers: int | None = None
) -> int:
    """Workers actually worth starting for ``num_windows`` subproblems."""
    available = max_workers if max_workers is not None else os.cpu_count() or 1
    return max(1, min(available, num_windows))


#: infrastructure failures that degrade a pool run to serial solving.
POOL_ERRORS = (BrokenProcessPool, PicklingError, OSError, RuntimeError)


class WindowExecutor:
    """Non-blocking submit/drain engine over the window-solve pool.

    The streaming pipeline submits windows one at a time as their seal
    watermark passes and drains completed solves whenever it polls; the
    batch pipeline submits everything up front and drains blocking. Both
    go through the same :func:`solve_one_window`, so results are
    identical to a plain serial sweep regardless of scheduling.

    In serial mode (the default and the fallback) ``submit`` solves
    synchronously and queues the result for the next ``drain``. In
    parallel mode solves run on a lazily created
    :class:`~concurrent.futures.ProcessPoolExecutor`; any pool
    infrastructure failure re-solves the affected windows in-process and
    permanently degrades the executor to serial (``fallback_reason``
    records why) — a broken pool never fails or drops a window.

    **Threading model.** One executor may be shared by multiple producer
    threads (the serve layer runs one ingest thread per stream session
    over a single pool): ``submit``, ``drain`` and ``close`` are safe to
    call concurrently. Internal bookkeeping is lock-guarded, the
    blocking ``wait`` in ``drain`` runs *outside* the lock (a blocking
    drainer never stalls a submitter), and every completed result is
    handed to exactly one ``drain`` call — no window is lost, duplicated
    or double-merged into the metrics registry. Results are *not*
    routed per producer: any drainer may receive any producer's result,
    so a multiplexer that needs per-stream routing (e.g.
    :class:`repro.serve.pool.SharedSolverPool`) must key results by
    ``window_index`` itself, typically by submitting globally unique
    indices and being the executor's only drainer.
    """

    def __init__(
        self,
        spec: WindowSolveSpec,
        parallel: bool = False,
        max_workers: int | None = None,
    ) -> None:
        self.spec = spec
        self.max_workers = max_workers
        self.mode = "parallel" if parallel else "serial"
        self.workers = (
            resolve_worker_count(max_workers or os.cpu_count() or 1, max_workers)
            if parallel
            else 1
        )
        self.fallback_reason: str | None = None
        #: guards mode/pool/_pending; reentrant so _degrade may run while
        #: submit already holds it. Never held across a solve or a wait.
        self._lock = threading.RLock()
        self._pool: ProcessPoolExecutor | None = None
        self._pending: dict = {}  # future -> payload
        self._done: deque[WindowResult] = deque()

    # ------------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Submitted windows whose results have not been drained yet."""
        return len(self._pending) + len(self._done)

    def _degrade(self, exc: BaseException) -> None:
        """Fall back to serial: re-solve everything the pool still owed."""
        current_registry().inc("executor.pool_degraded")
        with self._lock:
            if self.fallback_reason is None:
                self.fallback_reason = f"{type(exc).__name__}: {exc}"
            self.mode = "serial"
            self.workers = 1
            pending = list(self._pending.values())
            self._pending.clear()
            pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
        for payload in pending:
            self._done.append(_solve_entry(payload))

    def submit(
        self,
        window_index: int,
        ws: WindowSystem,
        spec: WindowSolveSpec | None = None,
    ) -> None:
        """Queue one window for solving; never blocks on other windows.

        (Serial mode solves inline, which does take this solve's wall
        time, but nothing waits on other windows.) Safe to call from
        multiple producer threads. ``spec`` overrides the executor's
        default solve spec for this window only — the serve tier uses
        this to run per-stream backends over one shared pool.
        """
        payload = (window_index, ws, spec if spec is not None else self.spec)
        registry = current_registry()
        registry.inc("executor.submitted")
        registry.observe(
            "executor.queue_depth", float(self.in_flight + 1), COUNT_EDGES
        )
        registry.set_gauge("executor.in_flight", self.in_flight + 1)
        with self._lock:
            # The mode check happens under the lock so a concurrent
            # _degrade cannot race a submission onto a dying pool.
            if self.mode == "parallel":
                try:
                    if self._pool is None:
                        self._pool = ProcessPoolExecutor(
                            max_workers=self.workers
                        )
                    future = self._pool.submit(_solve_entry, payload)
                except POOL_ERRORS as exc:
                    self._degrade(exc)
                else:
                    self._pending[future] = payload
                    return
        # Serial mode (or a pool that failed to accept the submission):
        # solve inline, outside the lock — the stage trace charges the
        # wall time to "solve" here rather than at drain time, and other
        # producers keep submitting while this thread solves.
        with span("solve"):
            self._done.append(_solve_entry(payload))

    def drain(self, block: bool = False) -> list[WindowResult]:
        """Completed window results, in completion order.

        With ``block=False`` returns whatever has finished so far; with
        ``block=True`` waits for every submitted window first. Callers
        needing window order sort on ``WindowResult.window_index``.
        Concurrent drains are safe: each completed result is delivered
        to exactly one caller, and the blocking wait runs outside the
        lock so a blocked drainer never stalls submitters.
        """
        while True:
            with self._lock:
                pending = list(self._pending)
            if not pending:
                break
            done, _ = wait(pending, timeout=None if block else 0.0)
            failure: BaseException | None = None
            for future in done:
                # A broken pool marks every in-flight future done-and-
                # failing at once (and a concurrent drainer may have
                # claimed this future first), so pop defensively:
                # _degrade (below) clears _pending, and a future already
                # re-solved or claimed must not be solved again.
                with self._lock:
                    payload = self._pending.pop(future, None)
                if payload is None:
                    continue
                try:
                    self._done.append(future.result())
                except POOL_ERRORS as exc:
                    self._done.append(_solve_entry(payload))
                    failure = exc
            if failure is not None:
                # Degrade only after the done set is drained: completed
                # futures keep their pool results (no duplicate solves)
                # and _degrade re-solves just the still-running remainder.
                self._degrade(failure)
            if not block or not done:
                break
        # Atomic pops, not list()+clear(): two concurrent drains must
        # partition the done queue, never both see the same result.
        results: list[WindowResult] = []
        while True:
            try:
                results.append(self._done.popleft())
            except IndexError:
                break
        if results:
            # Fold the workers' metric snapshots into this process's
            # registry exactly once per result (results leave drain once).
            registry = current_registry()
            registry.inc("executor.drained", len(results))
            for result in results:
                registry.merge(result.metrics)
                result.metrics = None
        return results

    def close(self) -> None:
        """Shut the pool down (pending futures are drained first)."""
        if self._pending:
            self.drain(block=True)
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


def execute_windows(
    systems: list[WindowSystem],
    spec: WindowSolveSpec,
    parallel: bool = False,
    max_workers: int | None = None,
) -> ExecutionReport:
    """Solve every window, in a process pool when asked and worthwhile.

    Results come back ordered by window index regardless of completion
    order, so downstream merging is deterministic and parallel runs are
    estimate-for-estimate identical to serial ones. This is the blocking
    batch map over :class:`WindowExecutor`'s submit/drain engine.
    """
    workers = resolve_worker_count(len(systems), max_workers)
    use_parallel = parallel and workers > 1 and len(systems) > 1
    executor = WindowExecutor(
        spec, parallel=use_parallel, max_workers=workers
    )
    try:
        for index, ws in enumerate(systems):
            executor.submit(index, ws)
        results = executor.drain(block=True)
    finally:
        executor.close()
    results.sort(key=lambda result: result.window_index)
    return ExecutionReport(
        results=results,
        mode=executor.mode,
        workers=executor.workers,
        fallback_reason=executor.fallback_reason,
    )
