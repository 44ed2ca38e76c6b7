"""Property-based soundness: ground truth always satisfies Domo's rows.

Hypothesis drives the simulator across seeds, loads, link qualities and
MAC settings; for every resulting trace the constraint system built from
sink-side data must (a) keep the true arrival times feasible and (b) keep
every tightened interval containing the truth. This is the core
correctness contract of the whole reconstruction: a violated row could
silently exclude the right answer.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import substrate_domo_config
from repro.core.constraints import SUM_HI, build_constraints
from repro.core.records import TraceIndex
from repro.sim import NetworkConfig, Simulator
from repro.sim.mac import MacConfig
from repro.sim.radio import RadioConfig


def _simulate(seed, period_ms, reference_loss_db, ack_loss, max_transmissions):
    config = NetworkConfig(
        num_nodes=16,
        placement="grid",
        duration_ms=15_000.0,
        packet_period_ms=period_ms,
        seed=seed,
        radio=RadioConfig(reference_loss_db=reference_loss_db),
        mac=MacConfig(
            ack_loss_prob=ack_loss, max_transmissions=max_transmissions
        ),
    )
    return Simulator(config).run()


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    period_ms=st.sampled_from([800.0, 2_000.0, 5_000.0]),
    reference_loss_db=st.floats(44.0, 50.0),
    ack_loss=st.sampled_from([0.0, 0.1]),
    max_transmissions=st.sampled_from([3, 30]),
)
def test_truth_feasible_for_any_simulated_trace(
    seed, period_ms, reference_loss_db, ack_loss, max_transmissions
):
    trace = _simulate(
        seed, period_ms, reference_loss_db, ack_loss, max_transmissions
    )
    if trace.num_received < 5:
        return
    config = substrate_domo_config()
    index = TraceIndex(list(trace.received), omega_ms=config.omega_ms)
    system = build_constraints(index, config.constraints)
    if system.num_unknowns == 0:
        return

    truth = np.zeros(system.num_unknowns)
    for i, key in enumerate(system.variables):
        truth[i] = trace.truth_of(key.packet_id).arrival_times_ms[key.hop]

    # (a) every emitted row holds at the true point. Eq. (6) rows are the
    # known loss-unsafe exception; they must be the ONLY violated family.
    violations = system.rows.violations(truth)
    for row, violation in enumerate(violations):
        if violation > 1e-6:
            family = system.rows.family[row]
            assert family == SUM_HI, (
                f"sound row {row} (family {family}) violated by "
                f"{violation:.4f} ms (seed={seed}, "
                f"loss_db={reference_loss_db:.1f}, ack_loss={ack_loss})"
            )

    # (b) every tightened interval still contains the truth.
    for i, key in enumerate(system.variables):
        lo, hi = system.intervals[key]
        assert lo - 1e-6 <= truth[i] <= hi + 1e-6, (
            f"interval for {key} excludes truth (seed={seed})"
        )
