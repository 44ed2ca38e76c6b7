"""End-to-end tests of the DomoReconstructor public API."""

import numpy as np
import pytest

from repro.core.pipeline import (
    DomoConfig,
    DomoReconstructor,
)
from repro.core.records import ArrivalKey
from repro.sim import NetworkConfig, simulate_network


@pytest.fixture(scope="module")
def trace():
    return simulate_network(
        NetworkConfig(
            num_nodes=25,
            placement="grid",
            duration_ms=40_000.0,
            packet_period_ms=3_000.0,
            seed=11,
        )
    )


@pytest.fixture(scope="module")
def estimate(trace):
    return DomoReconstructor(DomoConfig()).estimate(trace)


def test_config_validates_fifo_mode():
    with pytest.raises(ValueError):
        DomoConfig(fifo_mode="quantum")


def test_config_rejects_zero_window_span():
    """Regression: span 0.0 used to silently fall through to auto-sizing."""
    with pytest.raises(ValueError):
        DomoConfig(window_span_ms=0.0)
    with pytest.raises(ValueError):
        DomoConfig(window_span_ms=-5.0)


def test_config_rejects_bad_max_workers():
    with pytest.raises(ValueError):
        DomoConfig(max_workers=0)
    with pytest.raises(ValueError):
        DomoConfig(max_workers=-2)


def test_explicit_window_span_is_honored(trace):
    config = DomoConfig(window_span_ms=9_000.0)
    estimate = DomoReconstructor(config).estimate(trace.received[:60])
    assert estimate.stats["window_span_ms"] == pytest.approx(9_000.0)


def test_shared_subconfigs_are_not_cross_contaminated():
    """Regression: __post_init__ used to mutate user sub-configs in place."""
    from repro.core.constraints import ConstraintConfig
    from repro.backends.domo_qp import EstimatorConfig
    from repro.core.sdr import SdrConfig

    shared_constraints = ConstraintConfig()
    shared_estimator = EstimatorConfig()
    shared_sdr = SdrConfig()
    one = DomoConfig(
        omega_ms=1.0, epsilon_ms=500.0,
        constraints=shared_constraints, estimator=shared_estimator,
        sdr=shared_sdr,
    )
    two = DomoConfig(
        omega_ms=3.0, epsilon_ms=2_000.0,
        constraints=shared_constraints, estimator=shared_estimator,
        sdr=shared_sdr,
    )
    # The user's objects are untouched...
    assert shared_constraints.omega_ms == ConstraintConfig().omega_ms
    assert shared_estimator.epsilon_ms == EstimatorConfig().epsilon_ms
    assert shared_sdr.estimator is not one.estimator
    # ...and each DomoConfig owns an independent copy.
    assert one.constraints.omega_ms == 1.0
    assert two.constraints.omega_ms == 3.0
    assert one.estimator.epsilon_ms == 500.0
    assert two.estimator.epsilon_ms == 2_000.0
    assert one.sdr.estimator.epsilon_ms == 500.0
    assert two.sdr.estimator.epsilon_ms == 2_000.0


def test_parallel_estimate_identical_to_serial(trace):
    packets = trace.received[:120]
    serial = DomoReconstructor(DomoConfig()).estimate(packets)
    parallel = DomoReconstructor(
        DomoConfig(parallel=True, max_workers=2)
    ).estimate(packets)
    assert parallel.stats["execution_mode"] == "parallel"
    assert serial.arrival_times == parallel.arrival_times
    assert serial.estimates == parallel.estimates


def test_estimate_stats_expose_solver_telemetry(estimate):
    stats = estimate.stats
    assert stats["windows"] == estimate.windows_used
    assert stats["execution_mode"] == "serial"
    assert stats["workers"] == 1
    assert stats["total_iterations"] > 0
    assert stats["window_solve_time_s"] > 0.0
    assert len(stats["window_telemetry"]) == estimate.windows_used
    for record in stats["window_telemetry"]:
        assert record["solver"] in ("linearized", "sdr", "fallback", "empty")
        assert record["solve_time_s"] >= 0.0
    assert sum(stats["status_counts"].values()) == estimate.windows_used


def test_failed_windows_counted_and_fallback_estimates_used(
    trace, monkeypatch
):
    from repro.optim.result import SolverError, SolverStatus

    def boom(system, config=None):
        raise SolverError(SolverStatus.ITERATION_LIMIT, "forced failure")

    monkeypatch.setattr(
        "repro.backends.domo_qp.estimate_arrival_times_info", boom
    )
    estimate = DomoReconstructor(DomoConfig()).estimate(trace.received[:80])
    assert estimate.windows_used >= 1
    assert estimate.stats["failed_windows"] == estimate.windows_used
    # Coverage is preserved: every packet still gets a full vector.
    for p in trace.received[:80]:
        assert len(estimate.arrival_times[p.packet_id]) == p.path_length


def test_estimate_covers_every_received_packet(trace, estimate):
    assert set(estimate.arrival_times) == {
        p.packet_id for p in trace.received
    }
    for p in trace.received:
        assert len(estimate.arrival_times[p.packet_id]) == p.path_length


def test_estimate_endpoints_match_knowns(trace, estimate):
    for p in trace.received:
        times = estimate.arrival_times[p.packet_id]
        assert times[0] == pytest.approx(p.generation_time_ms)
        assert times[-1] == pytest.approx(p.sink_arrival_ms)


def test_estimated_delays_accurate(trace, estimate):
    """Reconstruction error in the paper's ballpark (a few ms)."""
    errors = []
    for p in trace.received:
        truth = trace.truth_of(p.packet_id).node_delays()
        reconstructed = estimate.delays_of(p.packet_id)
        errors.extend(abs(a - b) for a, b in zip(reconstructed, truth))
    mean_error = float(np.mean(errors))
    assert mean_error < 6.0, f"mean error {mean_error:.2f} ms too large"
    assert float(np.mean(np.asarray(errors) < 4.0)) > 0.6


def test_estimate_windows_used(trace, estimate):
    assert estimate.windows_used >= 2
    assert estimate.stats["failed_windows"] == 0
    assert estimate.time_per_delay_ms > 0.0


def test_estimates_within_trivial_intervals(trace, estimate):
    for p in trace.received:
        times = estimate.arrival_times[p.packet_id]
        for hop in range(1, p.path_length - 1):
            lo = p.generation_time_ms + hop * 1.0
            hi = p.sink_arrival_ms - (p.path_length - 1 - hop) * 1.0
            # ADMM satisfies the box only up to its primal tolerance,
            # which scales with the window's absolute times (~0.1 ms).
            assert lo - 0.5 <= times[hop] <= hi + 0.5


def test_bounds_api(trace):
    domo = DomoReconstructor(DomoConfig(graph_cut_size=10_000))
    wanted = [p.packet_id for p in trace.received[:20]]
    bounds = domo.bounds(trace, packet_ids=wanted)
    assert bounds.bounds  # some interior hops exist among the first 20
    for key, result in bounds.bounds.items():
        assert key.packet_id in wanted
        truth = trace.truth_of(key.packet_id).arrival_times_ms[key.hop]
        assert result.lower - 1e-5 <= truth <= result.upper + 1e-5
    widths = [r.width for r in bounds.bounds.values()]
    assert float(np.mean(widths)) < 60.0


def test_delay_bounds_consistent(trace):
    domo = DomoReconstructor(DomoConfig())
    wanted = [p.packet_id for p in trace.received[:10]]
    bounds = domo.bounds(trace, packet_ids=wanted)
    for pid in wanted:
        packet = bounds.index.by_id[pid]
        db = bounds.delay_bounds(pid)
        assert len(db) == packet.path_length - 1
        truth = trace.truth_of(pid).node_delays()
        for (lo, hi), true_delay in zip(db, truth):
            # Bounds live on the sink's reconstructed timeline, which
            # differs from ground truth by the clock-drift error of the
            # e2e-accumulation time reconstruction (< 2 ms, see §III).
            assert lo - 2.0 <= true_delay <= hi + 2.0


def test_fifo_mode_none_still_works(trace):
    domo = DomoReconstructor(DomoConfig(fifo_mode="none"))
    estimate = domo.estimate(trace.received[:150])
    assert estimate.arrival_times


def test_sdr_mode_small_trace(trace):
    config = DomoConfig(fifo_mode="sdr", target_window_packets=15)
    domo = DomoReconstructor(config)
    estimate = domo.estimate(trace.received[:60])
    assert estimate.stats["sdr_windows"] > 0
    errors = []
    for p in trace.received[:60]:
        truth = trace.truth_of(p.packet_id).node_delays()
        errors.extend(
            abs(a - b)
            for a, b in zip(estimate.delays_of(p.packet_id), truth)
        )
    assert float(np.mean(errors)) < 10.0


def test_hardened_pipeline_byte_identical_on_clean_trace(trace):
    """The acceptance bar: validation on (default) vs off — same bytes."""
    from repro.core.validation import ValidationConfig

    packets = trace.received[:120]
    hardened = DomoReconstructor(DomoConfig()).estimate(packets)
    seed_like = DomoReconstructor(
        DomoConfig(validation=ValidationConfig(mode="off"))
    ).estimate(packets)
    assert hardened.estimates == seed_like.estimates  # bit-identical floats
    assert hardened.arrival_times == seed_like.arrival_times
    assert hardened.stats["quarantined_packets"] == 0
    assert hardened.stats["degraded_constraints"] == 0
    assert hardened.stats["validation"]["mode"] == "repair"


def test_dirty_trace_quarantine_and_degradation_visible(trace):
    """Corrupt packets are quarantined and Eq. (6) rows downgraded."""
    from dataclasses import replace as dc_replace

    packets = list(trace.received[:120])
    inverted = dc_replace(packets[5], sink_arrival_ms=-100.0)
    wrapped = dc_replace(packets[9], sum_of_delays_ms=-7)
    packets[5], packets[9] = inverted, wrapped
    estimate = DomoReconstructor(DomoConfig()).estimate(packets)
    stats = estimate.stats
    assert stats["quarantined_packets"] == 1
    assert stats["validation"]["distrusted_sums"] == 1
    assert stats["validation"]["reason_counts"] == {
        "impossible_timestamps": 1,
        "sum_out_of_range": 1,
    }
    # The quarantined packet is gone; the repaired one is reconstructed.
    assert inverted.packet_id not in estimate.arrival_times
    assert wrapped.packet_id in estimate.arrival_times
    # Known loss (the quarantine) arms the C*(p)-only degradation, so at
    # least the distrusted packet's sum rows were skipped.
    assert stats["degraded_constraints"] >= 1


def test_strict_validation_mode_raises_on_dirty_input(trace):
    from dataclasses import replace as dc_replace

    from repro.core.validation import TraceValidationError, ValidationConfig

    packets = list(trace.received[:40])
    packets[0] = dc_replace(packets[0], sink_arrival_ms=-100.0)
    domo = DomoReconstructor(
        DomoConfig(validation=ValidationConfig(mode="strict"))
    )
    with pytest.raises(TraceValidationError):
        domo.estimate(packets)


def test_bounds_stats_expose_validation(trace):
    domo = DomoReconstructor(DomoConfig())
    wanted = [p.packet_id for p in trace.received[:10]]
    bounds = domo.bounds(trace, packet_ids=wanted)
    assert bounds.stats["quarantined_packets"] == 0
    assert bounds.stats["degraded_constraints"] == 0
    assert bounds.stats["validation"]["mode"] == "repair"


def test_accepts_trace_bundle_and_plain_list(trace):
    domo = DomoReconstructor()
    few = trace.received[:30]
    from_bundle = domo.estimate(trace.restrict([p.packet_id for p in few]))
    from_list = domo.estimate(few)
    assert set(from_bundle.arrival_times) == set(from_list.arrival_times)
