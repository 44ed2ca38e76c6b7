"""Soundness of the Eq. (7) lower-bound sum rows under packet loss.

The paper's robustness claim (§III.C): the guaranteed candidate set
C*(p) only ever *undercounts* the delays folded into S(p), so the rows
``D(p) + sum over C*(p) <= S(p)`` stay valid no matter how many received
records are missing — as long as unanchorable packets (a seqno gap right
before p) emit no row at all. These tests delete received records at the
paper's evaluated loss rates (10–30%) and assert the surviving ``sum_lo``
rows never exclude the ground-truth arrival times.
"""

import numpy as np
import pytest

from repro.core.candidate import compute_candidate_sets, loss_evidence
from repro.core.constraints import SUM_LO, ConstraintConfig, build_constraints
from repro.core.records import ArrivalKey, TraceIndex
from repro.faults.injectors import make_injector
from repro.sim import NetworkConfig, simulate_network
from repro.sim.io import trace_from_dict, trace_to_dict

from tests.core.conftest import bundle_of, make_received


@pytest.fixture(scope="module")
def trace():
    return simulate_network(
        NetworkConfig(
            num_nodes=16,
            placement="grid",
            duration_ms=30_000.0,
            packet_period_ms=2_000.0,
            seed=5,
        )
    )


def _ground_truth_vector(system, trace) -> np.ndarray:
    """Unknown-variable vector filled with the true arrival times."""
    values = []
    for key in system.variables:
        truth = trace.ground_truth[key.packet_id]
        values.append(truth.arrival_times_ms[key.hop])
    return np.asarray(values)


def _max_sum_lo_violation(faulted, trace, config=None) -> tuple[float, dict]:
    index = TraceIndex(faulted.received, omega_ms=1.0)
    system = build_constraints(index, config or ConstraintConfig())
    x = _ground_truth_vector(system, trace)
    rows = system.rows.select({SUM_LO})
    assert len(rows), "expected some Eq. (7) rows to survive"
    return rows.max_violation(x), system.stats


@pytest.mark.parametrize("rate", [0.1, 0.2, 0.3])
def test_sum_lower_rows_sound_under_loss(trace, rate):
    """Ground truth satisfies every surviving Eq. (7) row at 10-30% loss."""
    injector = make_injector("delete_received", rate=rate)
    rng = np.random.default_rng(int(rate * 100))
    faulted = trace_from_dict(injector.apply(trace_to_dict(trace), rng))
    assert len(faulted.received) < trace.num_received
    # Tolerance: the sum slack is already folded into each row's bound;
    # allow the reconstructed-timeline skew of the simulator's received
    # timestamps (< 2 ms, see §III) on top.
    violation, stats = _max_sum_lo_violation(faulted, trace)
    assert violation <= 2.0, (
        f"Eq. (7) row excludes ground truth by {violation:.3f} ms "
        f"at loss rate {rate}"
    )
    # Loss must be visible: seqno gaps appear, and gapped packets are
    # skipped as unanchored rather than emitting an unsound row.
    index = TraceIndex(faulted.received, omega_ms=1.0)
    assert loss_evidence(index) > 0
    assert stats["sum_unanchored"] > 0


def test_sum_lower_rows_sound_on_clean_trace(trace):
    violation, stats = _max_sum_lo_violation(trace, trace)
    assert violation <= 2.0
    assert stats["sum_unanchored"] == 0


@pytest.mark.parametrize("rate", [0.1, 0.3])
def test_loss_aware_mode_drops_all_upper_rows(trace, rate):
    """With loss evidence, loss_aware_sums suppresses every Eq. (6) row."""
    injector = make_injector("delete_received", rate=rate)
    rng = np.random.default_rng(int(rate * 100))
    faulted = trace_from_dict(injector.apply(trace_to_dict(trace), rng))
    _, stats = _max_sum_lo_violation(
        faulted, trace, ConstraintConfig(loss_aware_sums=True)
    )
    assert stats["sum_upper_rows"] == 0
    assert stats["sum_upper_degraded"] > 0


def test_unanchored_candidate_sets_are_detected_and_skipped():
    """A seqno gap right before p makes C*(p) unanchorable: no sum rows."""
    # Source 2's seqno 1 was lost: 0 then 2 arrive at the sink.
    a = make_received(2, 0, (2, 1, 0), (0.0, 10.0, 20.0), sum_of_delays=10)
    b = make_received(2, 2, (2, 1, 0), (100.0, 110.0, 120.0),
                      sum_of_delays=10)
    bundle = bundle_of(a, b)
    index = TraceIndex(bundle.received, omega_ms=1.0)
    sets = compute_candidate_sets(index, bundle.received[1])
    assert sets is not None
    assert sets.anchored is False
    system = build_constraints(index, ConstraintConfig())
    assert system.stats["sum_unanchored"] == 1
    # The gapped packet's own Eq. (7) row would carry its (pid, 1) column.
    gapped = bundle.received[1].packet_id
    column = system.variables.index_of(ArrivalKey(gapped, 1))
    sum_lo = system.rows.select({SUM_LO})
    assert column not in sum_lo.indices
