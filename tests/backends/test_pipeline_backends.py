"""Backend selection through the executor and the batch pipeline.

The load-bearing guarantees: the ``domo-qp`` refactor is *bit-exact*
(moving Eq. (8) behind the backend contract changed no estimate), every
backend covers the same unknowns through the same window machinery, and
and a window whose every relaxation fails surrenders to midpoints.
"""

import pytest

from repro.backends import backend_names
from repro.core.constraints import ConstraintConfig
from repro.backends.domo_qp import (
    EstimatorConfig,
    estimate_arrival_times_info,
)
from repro.core.pipeline import DomoConfig, DomoReconstructor
from repro.core.preprocessor import build_window_systems
from repro.optim.result import SolverError, SolverStatus
from repro.runtime.executor import (
    MIDPOINT_RUNG,
    RELAXATION_LADDER,
    WindowSolveSpec,
    execute_windows,
    solve_one_window,
)

from tests.core.conftest import make_received


def _stream(num_sources=4, packets_per_source=12, period=500.0):
    """Periodic two-hop traffic through forwarder 1 (interior unknowns)."""
    received = []
    for source in range(2, 2 + num_sources):
        for seqno in range(packets_per_source):
            t0 = seqno * period + source * 17.0
            packet, _ = make_received(
                source, seqno, (source, 1, 0), (t0, t0 + 10.0, t0 + 20.0)
            )
            received.append(packet)
    return received


def _systems(span_ms=2_000.0):
    return build_window_systems(
        _stream(), ConstraintConfig(), window_span_ms=span_ms
    )


def test_domo_qp_backend_is_bit_exact_with_the_direct_estimator():
    """The refactor guarantee: solving through the backend contract
    returns byte-identical floats to calling Eq. (8) directly."""
    ws = _systems()[0]
    direct, _ = estimate_arrival_times_info(ws.system, EstimatorConfig())
    kept = {
        key: value
        for key, value in direct.items()
        if key.packet_id in ws.kept_ids
    }
    result = solve_one_window(0, ws, WindowSolveSpec())
    assert result.estimates == kept  # bit-identical floats
    assert result.telemetry.backend == "domo-qp"
    assert result.telemetry.solver == "linearized"


def test_default_config_matches_explicit_domo_qp_backend():
    packets = _stream()
    default = DomoReconstructor(DomoConfig()).estimate(packets)
    explicit = DomoReconstructor(
        DomoConfig(backend="domo-qp")
    ).estimate(packets)
    assert default.estimates == explicit.estimates  # bit-identical floats


def test_every_backend_covers_the_same_unknowns():
    ws = _systems()[0]
    coverage = {}
    for name in backend_names():
        result = solve_one_window(0, ws, WindowSolveSpec(backend=name))
        assert result.telemetry.backend == name
        assert result.telemetry.relax_rung == 0
        coverage[name] = set(result.estimates)
    assert len({frozenset(keys) for keys in coverage.values()}) == 1


def test_cs_backend_flows_through_the_batch_pipeline():
    packets = _stream()
    qp = DomoReconstructor(DomoConfig()).estimate(packets)
    cs = DomoReconstructor(DomoConfig(backend="cs")).estimate(packets)
    # Same coverage, different estimator: the per-node approximation
    # cannot reproduce the QP's per-packet values on this trace.
    assert set(cs.estimates) == set(qp.estimates)
    assert cs.estimates != qp.estimates
    windows = cs.stats["windows"]
    assert cs.stats["backend_windows"] == {"cs": windows}
    assert qp.stats["backend_windows"] == {"domo-qp": windows}


def _always_failing(system, config=None):
    raise SolverError(SolverStatus.NUMERICAL_ERROR, "forced failure")


def test_ladder_surrenders_to_midpoints_without_the_opt_in(monkeypatch):
    ws = _systems()[0]
    monkeypatch.setattr(
        "repro.backends.domo_qp.estimate_arrival_times_info",
        _always_failing,
    )
    result = solve_one_window(0, ws, WindowSolveSpec())
    telemetry = result.telemetry
    assert telemetry.relax_rung == MIDPOINT_RUNG
    assert telemetry.relax_stage == "midpoints"
    assert telemetry.backend == "domo-qp"
    assert telemetry.solver == "fallback"
    # Full ladder walked, then midpoints: no other rung in between.
    assert telemetry.solve_attempts == 1 + len(RELAXATION_LADDER)
    assert MIDPOINT_RUNG == len(RELAXATION_LADDER) + 1
    for key, value in result.estimates.items():
        lo, hi = ws.system.intervals[key]
        assert value == pytest.approx(0.5 * (lo + hi))


def test_backend_config_reaches_the_spec():
    default = DomoConfig().solve_spec()
    assert default.backend == "domo-qp"
    cs_spec = DomoConfig(backend="cs").solve_spec()
    assert cs_spec.backend == "cs"


def test_unknown_backend_rejected_at_config_time():
    with pytest.raises(ValueError, match="not registered"):
        DomoConfig(backend="nope")


def test_backend_windows_summary_across_a_sweep():
    systems = _systems()
    report = execute_windows(
        systems, WindowSolveSpec(backend="message-tracing")
    )
    from repro.obs.solver_telemetry import summarize_telemetry

    stats = summarize_telemetry([r.telemetry for r in report.results])
    assert stats["backend_windows"] == {"message-tracing": len(systems)}
