"""Tests of telemetry aggregation and reporting."""

import math

from repro.obs.solver_telemetry import (
    WindowTelemetry,
    format_telemetry_report,
    summarize_telemetry,
)


def _record(index, solver="linearized", status="optimal", **overrides):
    values = dict(
        window_index=index,
        num_packets=10,
        num_unknowns=8,
        num_kept=5,
        solver=solver,
        status=status,
        iterations=100,
        primal_residual=1e-4,
        dual_residual=2e-5,
        solve_time_s=0.25,
    )
    values.update(overrides)
    return WindowTelemetry(**values)


def test_summarize_counts_solver_kinds():
    stats = summarize_telemetry(
        [
            _record(0),
            _record(1, solver="sdr"),
            _record(2, solver="fallback", status="fallback",
                    iterations=0, primal_residual=float("nan"),
                    dual_residual=float("nan")),
            _record(3, solver="empty", iterations=0),
        ]
    )
    assert stats["windows"] == 4
    assert stats["linearized_windows"] == 1
    assert stats["sdr_windows"] == 1
    assert stats["failed_windows"] == 1
    assert stats["empty_windows"] == 1
    assert stats["status_counts"] == {"optimal": 3, "fallback": 1}


def test_summarize_totals_and_maxima():
    stats = summarize_telemetry(
        [
            _record(0, iterations=100, solve_time_s=0.5, primal_residual=1e-3),
            _record(1, iterations=250, solve_time_s=0.1, primal_residual=1e-6),
        ]
    )
    assert stats["total_iterations"] == 350
    assert stats["total_unknowns"] == 16
    assert math.isclose(stats["window_solve_time_s"], 0.6)
    assert math.isclose(stats["max_window_solve_time_s"], 0.5)
    assert math.isclose(stats["max_primal_residual"], 1e-3)


def test_summarize_skips_nan_residuals():
    stats = summarize_telemetry(
        [
            _record(0, primal_residual=float("nan"),
                    dual_residual=float("nan")),
        ]
    )
    assert stats["max_primal_residual"] == 0.0
    assert stats["max_dual_residual"] == 0.0


def test_summarize_exposes_per_window_records():
    records = [_record(0), _record(1, solver="sdr")]
    stats = summarize_telemetry(records)
    assert len(stats["window_telemetry"]) == 2
    assert stats["window_telemetry"][0] == records[0].as_dict()
    assert stats["window_telemetry"][1]["solver"] == "sdr"


def test_empty_run_summarizes_cleanly():
    stats = summarize_telemetry([])
    assert stats["windows"] == 0
    assert stats["window_telemetry"] == []
    assert stats["total_iterations"] == 0


def test_format_report_mentions_key_figures():
    stats = summarize_telemetry([_record(0), _record(1, solver="fallback",
                                                     status="fallback")])
    stats["execution_mode"] = "parallel"
    stats["workers"] = 4
    report = format_telemetry_report(stats)
    assert "windows solved       : 2" in report
    assert "parallel" in report
    assert "workers: 4" in report
    assert "fallback: 1" in report
