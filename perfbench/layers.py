"""The traced run's decomposed flow: each layer timed at its entry point.

The streaming engine (which ``DomoReconstructor.estimate`` runs on)
decides window membership. :func:`captured_windows` records the inputs
of every window it builds, untimed. :class:`LayerTrace` then re-runs
those windows through the public layer functions one by one -- the two
calls inside ``make_window_system`` (``TraceIndex``, then
``build_constraints``), ``solve_one_window``, and
``assemble_arrival_vector`` -- timing each, and the caller checks that
the result equals the program's own output bit for bit.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.core.constraints import build_constraints
from repro.core.preprocessor import WindowSystem
from repro.core.records import TraceIndex, assemble_arrival_vector
from repro.core.validation import validate_packets
from repro.runtime.executor import MIDPOINT_RUNG, solve_one_window

from common import percentile


@contextmanager
def captured_windows():
    """Yield a list that collects ``(window, members, kept_ids, config)``
    for every window the streaming engine seals, in solve order."""
    import repro.stream.engine as engine_module

    original = engine_module.make_window_system
    captured: list[tuple] = []

    def capture(window, members, kept_ids, constraint_config):
        captured.append(
            (window, list(members), set(kept_ids), constraint_config)
        )
        return original(window, members, kept_ids, constraint_config)

    engine_module.make_window_system = capture
    try:
        yield captured
    finally:
        engine_module.make_window_system = original


class LayerTrace:
    """Per-layer seconds and counts accumulated over decomposed passes."""

    def __init__(self) -> None:
        self.seconds = {
            "validate": 0.0,
            "index": 0.0,
            "constraints": 0.0,
            "solve": 0.0,
            "assemble": 0.0,
        }
        self.window_solve_ms: list[float] = []
        self.rows = 0
        self.unknowns = 0
        self.fifo_resolved = 0
        self.fifo_pairs = 0
        self.iterations = 0
        self.relaxed_windows = 0
        self.midpoint_windows = 0
        self.attempts = 0

    @property
    def windows(self) -> int:
        return len(self.window_solve_ms)

    def validate(self, packets, config):
        started = time.perf_counter()
        packets, _ = validate_packets(packets, config.validation)
        self.seconds["validate"] += time.perf_counter() - started
        return packets

    def solve_windows(self, captured, spec) -> list[dict]:
        """Build and solve every captured window; kept estimates each."""
        kept = []
        for solve_index, (window, members, kept_ids, ccfg) in enumerate(
            captured
        ):
            t0 = time.perf_counter()
            index = TraceIndex(members, omega_ms=ccfg.omega_ms)
            t1 = time.perf_counter()
            system = build_constraints(index, ccfg)
            t2 = time.perf_counter()
            result = solve_one_window(
                solve_index,
                WindowSystem(window, index, system, kept_ids),
                spec,
            )
            t3 = time.perf_counter()
            self.seconds["index"] += t1 - t0
            self.seconds["constraints"] += t2 - t1
            self.seconds["solve"] += t3 - t2
            self.window_solve_ms.append(1000.0 * (t3 - t2))
            stats = system.stats
            self.rows += stats["rows"]
            self.unknowns += stats["unknowns"]
            self.fifo_resolved += stats["fifo_resolved"]
            self.fifo_pairs += (
                stats["fifo_resolved"] + stats["fifo_unresolved"]
            )
            telemetry = result.telemetry
            self.iterations += telemetry.iterations
            self.attempts += telemetry.solve_attempts
            if telemetry.relax_rung > 0:
                self.relaxed_windows += 1
            if telemetry.relax_rung == MIDPOINT_RUNG:
                self.midpoint_windows += 1
            kept.append(result.estimates)
        return kept

    def assemble(self, packets, estimates, omega_ms: float) -> dict:
        """Full arrival vectors, built the way ``estimate`` builds them."""
        started = time.perf_counter()
        index = TraceIndex(packets, omega_ms=omega_ms)
        vectors = {
            packet.packet_id: assemble_arrival_vector(
                packet, estimates, omega_ms
            )
            for packet in index.packets
        }
        self.seconds["assemble"] += time.perf_counter() - started
        return vectors

    def metrics(self) -> dict:
        """The ``core.*`` / ``runtime.*`` / ``optim.*`` per-layer metrics."""
        s = self.seconds
        return {
            "core.validate.s": s["validate"],
            "core.index.s": s["index"],
            "core.constraints.s": s["constraints"],
            "core.assemble.s": s["assemble"],
            "core.constraints.rows": self.rows,
            "core.constraints.unknowns": self.unknowns,
            "core.constraints.fifo_resolved_ratio": (
                self.fifo_resolved / self.fifo_pairs
                if self.fifo_pairs
                else 0.0
            ),
            "runtime.solve.s": s["solve"],
            "runtime.solve.window_p50_ms": percentile(
                self.window_solve_ms, 50
            ),
            "optim.qp.iterations": self.iterations,
            "runtime.ladder.relaxed_windows": self.relaxed_windows,
            "runtime.ladder.midpoint_windows": self.midpoint_windows,
            "runtime.solve.attempts_ratio": (
                self.attempts / max(1, self.windows)
            ),
        }
