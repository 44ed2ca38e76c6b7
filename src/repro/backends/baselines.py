"""The MessageTracing baseline wrapped as an estimator backend.

This adapter puts the paper's order-only comparison baseline behind the
same per-window :class:`~repro.backends.base.EstimatorBackend` contract
as the Domo QP and the CS engine, so a stream — or the benchmark
harness — can swap it in by name and every downstream consumer (window
state machine, serve tier, run reports) works unchanged.

It is an *approximate* backend: it ignores the constraint-system rows
and works from the packets alone, which also means a ladder-relaxed
re-solve would return the same answer — ``supports_relaxation`` is off.
(The MNT baseline stays a whole-trace reconstructor,
:mod:`repro.baselines.mnt`: per window it was less accurate than this
uniform split on every evaluated trace and no faster end to end.)
"""

from __future__ import annotations

from repro.backends.base import EstimatorBackend, WindowSolution
from repro.core.constraints import ConstraintSystem
from repro.core.records import ArrivalKey


class MessageTracingBackend(EstimatorBackend):
    """MessageTracing (Sundaram & Eugster) per window.

    MessageTracing reconstructs *order*, never time: its causal DAG has
    no global clock, and the per-node logs it stitches are not part of a
    window's received-packet view anyway. The faithful per-window
    timing estimate an order-only method induces is uniform spacing —
    each packet's exact total delay split evenly over its hops —
    clamped into the Eq. (5) intervals.
    """

    name = "message-tracing"
    supports_relaxation = False

    def solve_window(
        self, system: ConstraintSystem, spec
    ) -> WindowSolution:
        if system.num_unknowns == 0:
            return WindowSolution(estimates={}, solver="empty", result=None)
        estimates: dict[ArrivalKey, float] = {}
        for key in system.variables:
            packet = system.index.by_id[key.packet_id]
            hops = packet.path_length - 1
            total = packet.sink_arrival_ms - packet.generation_time_ms
            value = packet.generation_time_ms + total * key.hop / hops
            low, high = system.intervals.get(
                key, system.index.trivial_interval(key)
            )
            estimates[key] = float(min(max(value, low), high))
        return WindowSolution(
            estimates=estimates, solver="message-tracing", result=None
        )
