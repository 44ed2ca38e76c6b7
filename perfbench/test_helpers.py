"""Tests of the benchmark's own helpers.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_helpers.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from common import mae_terms, order_violation_ms, percentile  # noqa: E402


@pytest.fixture(scope="module")
def small_trace():
    from repro.analysis.scenarios import paper_scenario
    from repro.sim.simulator import simulate_network

    return simulate_network(
        paper_scenario(num_nodes=16, seed=3, duration_ms=20_000.0)
    )


def test_order_violation_is_zero_on_ground_truth(small_trace):
    vectors = [
        small_trace.truth_of(p.packet_id).arrival_times_ms
        for p in small_trace.received
    ]
    assert order_violation_ms(vectors, omega_ms=1.0) == 0.0


def test_order_violation_reports_the_worst_gap():
    vectors = [[0.0, 5.0, 5.25], [10.0, 10.5]]
    assert order_violation_ms(vectors, omega_ms=1.0) == 0.75


def test_percentile_refuses_fewer_than_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        percentile(range(99), 90)
    with pytest.raises(ValueError):
        percentile(range(19), 50)
    with pytest.raises(ValueError):
        percentile(range(999), 99)
    assert percentile(range(100), 90) == pytest.approx(89.1)
    assert percentile(range(21), 50) == 10


def test_mae_agrees_with_the_accuracy_experiment(small_trace):
    from repro.analysis.experiments import evaluate_accuracy
    from repro.core.pipeline import DomoConfig, DomoReconstructor

    config = DomoConfig()
    estimate = DomoReconstructor(config).estimate(small_trace.received)
    total, hops = mae_terms(small_trace, estimate.arrival_times)
    expected = evaluate_accuracy(small_trace, domo_config=config).domo.mean
    assert total / hops == pytest.approx(expected, rel=1e-12)
