"""Tests for constraint construction: order, FIFO, sum-of-delays.

The central property — checked both on hand-built fixtures and on real
simulator traces — is **soundness**: the true arrival times always satisfy
every emitted row.
"""

import numpy as np
import pytest

from repro.core.constraints import (
    FIFO,
    ORDER,
    SUM_HI,
    SUM_LO,
    ConstraintConfig,
    build_constraints,
)
from repro.core.records import ArrivalKey, TraceIndex
from repro.sim import NetworkConfig, simulate_network
from repro.sim.packet import PacketId

from tests.core.conftest import bundle_of, make_received


def _system(bundle, **cfg):
    index = TraceIndex(list(bundle.received))
    return build_constraints(index, ConstraintConfig(**cfg))


def _truth_vector(system, bundle):
    x = np.zeros(system.num_unknowns)
    for i, key in enumerate(system.variables):
        x[i] = bundle.truth_of(key.packet_id).arrival_times_ms[key.hop]
    return x


def test_order_rows_emitted(busy_node_trace):
    system = _system(busy_node_trace)
    order_rows = system.rows.select({ORDER})
    # x and z have one unknown each: two order rows survive folding per
    # packet (t1-t0 >= w and t2-t1 >= w), y likewise.
    assert len(order_rows) == 6


def test_truth_satisfies_all_rows_hand_built(busy_node_trace):
    system = _system(busy_node_trace)
    x = _truth_vector(system, busy_node_trace)
    assert system.rows.max_violation(x) <= 1e-9


def test_fifo_pairs_resolved_on_busy_node(busy_node_trace):
    system = _system(busy_node_trace)
    # x and z from the same source are unambiguous; x/y overlap at node 1
    # but their sink arrivals resolve them via the next-hop intervals.
    assert len(system.fifo_resolved) >= 1


def test_fifo_direction_matches_truth(busy_node_trace):
    system = _system(busy_node_trace)
    for pair in system.fifo_resolved:
        t_x = busy_node_trace.truth_of(pair.x_at.packet_id).arrival_times_ms[
            pair.x_at.hop
        ]
        t_y = busy_node_trace.truth_of(pair.y_at.packet_id).arrival_times_ms[
            pair.y_at.hop
        ]
        expected = 1 if t_x < t_y else -1
        assert pair.direction == expected, f"pair at node {pair.node}"


def test_unresolvable_pair_goes_to_sdr_list():
    # Two packets through node 1 whose arrival intervals overlap at the
    # shared hop AND whose next hops are interior (unknown) too: no sound
    # resolution exists.
    x = make_received(2, 0, (2, 1, 4, 0), (0.0, 50.0, 70.0, 100.0))
    y = make_received(3, 0, (3, 1, 5, 0), (1.0, 52.0, 72.0, 101.0))
    system = _system(bundle_of(x, y))
    assert len(system.fifo_unresolved) == 1
    assert len(system.fifo_resolved) == 0


def test_fifo_horizon_limits_pairs():
    x = make_received(2, 0, (2, 1, 0), (0.0, 10.0, 20.0))
    y = make_received(3, 0, (3, 1, 0), (50_000.0, 50_010.0, 50_020.0))
    system = _system(bundle_of(x, y), fifo_horizon_ms=1000.0)
    assert len(system.fifo_resolved) + len(system.fifo_unresolved) == 0


def test_sum_lower_row_accounted(chain_trace):
    system = _system(chain_trace)
    # Packet d anchors a sum row, but d is single-hop so every term is
    # known: the row folds to a (consistent) constant and is not emitted.
    assert system.stats["sum_lower_rows"] == 1
    assert len(system.rows.select({SUM_LO})) == 0
    assert system.stats.get("inconsistent_known_rows", 0) == 0


def test_sum_lower_row_with_unknown_terms():
    # Source 5 is two hops from the sink, so D_5(p) involves the unknown
    # t(p@1): the Eq. (7) row survives folding.
    q = make_received(5, 0, (5, 4, 0), (0.0, 10.0, 20.0), sum_of_delays=10)
    p = make_received(5, 1, (5, 4, 0), (100.0, 112.0, 125.0), sum_of_delays=12)
    system = _system(bundle_of(q, p))
    assert len(system.rows.select({SUM_LO})) == 1


def test_sum_rows_skipped_on_seqno_gap():
    q = make_received(1, 0, (1, 0), (0.0, 10.0), sum_of_delays=10)
    p = make_received(1, 2, (1, 0), (100.0, 110.0), sum_of_delays=10)
    system = _system(bundle_of(q, p))
    assert len(system.rows.select({SUM_LO})) == 0
    assert len(system.rows.select({SUM_HI})) == 0


def test_upper_sum_can_be_disabled(chain_trace):
    system = _system(chain_trace, use_upper_sum=False)
    assert len(system.rows.select({SUM_HI})) == 0


def test_known_only_rows_checked_not_emitted():
    # Single-hop packets: everything known; sum rows fold to constants.
    q = make_received(1, 0, (1, 0), (0.0, 10.0), sum_of_delays=10)
    p = make_received(1, 1, (1, 0), (100.0, 110.0), sum_of_delays=10)
    system = _system(bundle_of(q, p))
    assert system.num_unknowns == 0
    assert len(system.rows) == 0


def test_inconsistent_known_row_counted():
    # S(p) = 3 but D(p) = 10 with everything known: impossible row.
    q = make_received(1, 0, (1, 0), (0.0, 10.0), sum_of_delays=10)
    p = make_received(1, 1, (1, 0), (100.0, 110.0), sum_of_delays=3)
    system = _system(bundle_of(q, p), sum_slack_ms=0.0)
    assert system.stats.get("inconsistent_known_rows", 0) >= 1


def test_interval_tightening_recorded_in_system(busy_node_trace):
    system = _system(busy_node_trace)
    index = TraceIndex(list(busy_node_trace.received))
    for key, (lo, hi) in system.intervals.items():
        t_lo, t_hi = index.trivial_interval(key)
        assert lo >= t_lo - 1e-9
        assert hi <= t_hi + 1e-9


@pytest.fixture(scope="module")
def sim_trace():
    return simulate_network(
        NetworkConfig(
            num_nodes=25,
            placement="grid",
            duration_ms=30_000.0,
            packet_period_ms=3_000.0,
            seed=11,
        )
    )


def test_truth_satisfies_all_rows_simulated(sim_trace):
    """Soundness on a real trace: ground truth inside the feasible set."""
    index = TraceIndex(list(sim_trace.received))
    system = build_constraints(index, ConstraintConfig())
    x = _truth_vector(system, sim_trace)
    assert system.rows.max_violation(x) <= 1e-6


def test_intervals_contain_truth_simulated(sim_trace):
    index = TraceIndex(list(sim_trace.received))
    system = build_constraints(index, ConstraintConfig())
    for key in system.variables:
        lo, hi = system.intervals[key]
        t = sim_trace.truth_of(key.packet_id).arrival_times_ms[key.hop]
        assert lo - 1e-6 <= t <= hi + 1e-6


def test_resolution_statistics_populated(sim_trace):
    index = TraceIndex(list(sim_trace.received))
    system = build_constraints(index, ConstraintConfig())
    assert system.stats["unknowns"] == system.num_unknowns
    assert system.stats["fifo_resolved"] > 0
    assert system.stats["rows"] == len(system.rows)


def test_row_store_pins_every_family_row():
    """Exact CSR rows, bounds and family codes of a small window.

    q and p (source 2) and z (source 4, forwarded by 2) share forwarders
    2 and 1; columns are the unknowns (q,1), (z,1), (z,2), (p,1). Known
    times are folded into the bounds, columns are sorted, and rows that
    fold to constants (FIFO legs between two known times) are dropped.
    Pinning the arrays catches a reordered or re-folded row without
    depending on solver floating point.
    """
    q = make_received(2, 0, (2, 1, 0), (0.0, 10.0, 20.0), sum_of_delays=10)
    z = make_received(4, 0, (4, 2, 1, 0), (40.0, 50.0, 60.0, 70.0))
    p = make_received(2, 1, (2, 1, 0), (100.0, 112.0, 125.0),
                      sum_of_delays=22)
    system = _system(bundle_of(q, z, p))
    keys = [(k.packet_id.source, k.packet_id.seqno, k.hop)
            for k in system.variables]
    assert keys == [(2, 0, 1), (4, 0, 1), (4, 0, 2), (2, 1, 1)]
    rows = system.rows
    inf = np.inf
    expected = [
        # Eq. (5) order rows, omega = 1: t(h+1) - t(h) >= 1 per packet.
        (ORDER, [0], [1.0], 1.0, inf),          # (q,1) - 0 >= 1
        (ORDER, [0], [-1.0], -19.0, inf),       # 20 - (q,1) >= 1
        (ORDER, [1], [1.0], 41.0, inf),         # (z,1) - 40 >= 1
        (ORDER, [1, 2], [-1.0, 1.0], 1.0, inf),
        (ORDER, [2], [-1.0], -69.0, inf),       # 70 - (z,2) >= 1
        (ORDER, [3], [1.0], 101.0, inf),        # (p,1) - 100 >= 1
        (ORDER, [3], [-1.0], -124.0, inf),      # 125 - (p,1) >= 1
        # Linearized Eq. (1): later - earlier >= 0 per resolved leg.
        (FIFO, [1], [1.0], 0.0, inf),           # node 2: (z,1) after q@0
        (FIFO, [0, 2], [-1.0, 1.0], 0.0, inf),
        (FIFO, [0, 3], [-1.0, 1.0], 0.0, inf),  # node 2: q, p
        (FIFO, [1], [-1.0], -100.0, inf),       # node 2: p@0 after (z,1)
        (FIFO, [2, 3], [-1.0, 1.0], 0.0, inf),
        (FIFO, [0, 2], [-1.0, 1.0], 0.0, inf),  # node 1: q, z
        (FIFO, [0, 3], [-1.0, 1.0], 0.0, inf),  # node 1: q, p
        (FIFO, [2, 3], [-1.0, 1.0], 0.0, inf),  # node 1: z, p
        # Eq. (7)/(6): D(p) + D_2(z) against S(p) = 22 with 2 ms slack.
        (SUM_LO, [1, 2, 3], [-1.0, 1.0, 1.0], -inf, 124.0),
        (SUM_HI, [1, 2, 3], [-1.0, 1.0, 1.0], 120.0, inf),
    ]
    indptr = np.cumsum([0] + [len(row[1]) for row in expected])
    assert rows.indptr.tolist() == indptr.tolist()
    assert rows.indices.tolist() == [c for row in expected for c in row[1]]
    assert rows.data.tolist() == [v for row in expected for v in row[2]]
    assert rows.lower.tolist() == [row[3] for row in expected]
    assert rows.upper.tolist() == [row[4] for row in expected]
    assert rows.family.tolist() == [row[0] for row in expected]
    assert system.stats["rows"] == len(expected)
    # The truth satisfies every pinned row.
    assert rows.max_violation(_truth_vector(system, bundle_of(q, z, p))) == 0.0
