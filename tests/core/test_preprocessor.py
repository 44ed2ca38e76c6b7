"""Tests for trace preprocessing (window span choice, window systems)."""

import numpy as np
import pytest

from repro.core.constraints import ConstraintConfig
from repro.core.preprocessor import (
    build_window_systems,
    choose_window_span,
)
from repro.sim.packet import PacketId

from tests.core.conftest import make_received


def _stream(num_sources=4, packets_per_source=10, period=1000.0):
    """Synthetic periodic single-hop traffic from several sources."""
    received = []
    for source in range(2, 2 + num_sources):
        for seqno in range(packets_per_source):
            t0 = seqno * period + source * 17.0
            packet, _ = make_received(
                source, seqno, (source, 0), (t0, t0 + 10.0)
            )
            received.append(packet)
    return received


def test_span_targets_packet_count():
    packets = _stream(num_sources=4, packets_per_source=25, period=100.0)
    span = choose_window_span(packets, target_window_packets=20)
    duration = max(p.generation_time_ms for p in packets) - min(
        p.generation_time_ms for p in packets
    )
    density = len(packets) / duration
    # 20 packets at this density need span 20/density, but the span is
    # also floored at 3 generation periods (300 ms here).
    assert span >= 20 / density - 1e-9
    assert span >= 3 * 100.0 - 1e-9


def test_span_covers_generation_periods():
    """The span must include several per-source periods (sum anchors)."""
    packets = _stream(num_sources=40, packets_per_source=10, period=5000.0)
    span = choose_window_span(packets, target_window_packets=10)
    assert span >= 3 * 5000.0 * 0.99


def test_span_handles_tiny_traces():
    packets = _stream(num_sources=1, packets_per_source=2)
    span = choose_window_span(packets, target_window_packets=100)
    assert span > 0
    assert choose_window_span([], 10) > 0


def test_window_systems_partition_kept_ids():
    packets = _stream(num_sources=4, packets_per_source=20, period=500.0)
    systems = build_window_systems(
        packets,
        ConstraintConfig(),
        window_span_ms=2_000.0,
        effective_ratio=0.5,
    )
    assert len(systems) >= 2
    kept_total: list[PacketId] = []
    for ws in systems:
        kept_total.extend(ws.kept_ids)
    # Every packet's estimate is kept exactly once.
    assert sorted(kept_total, key=lambda p: (p.source, p.seqno)) == sorted(
        (p.packet_id for p in packets), key=lambda p: (p.source, p.seqno)
    )


def test_window_members_contain_kept_ids():
    packets = _stream(num_sources=3, packets_per_source=15, period=700.0)
    systems = build_window_systems(
        packets, ConstraintConfig(), window_span_ms=3_000.0
    )
    for ws in systems:
        member_ids = {p.packet_id for p in ws.index.packets}
        assert ws.kept_ids <= member_ids


def test_keep_boundary_packet_kept_exactly_once():
    """A t0 exactly on a keep-region boundary belongs to one window only.

    With span 2000 and ratio 0.5 the keep regions tile at multiples of
    1000 ms; half-open [keep_start, keep_end) intervals mean a packet
    generated exactly at a boundary is kept by the *later* window and
    only that one.
    """
    received = []
    for seqno, t0 in enumerate([0.0, 500.0, 1000.0, 1500.0, 2000.0,
                                2500.0, 3000.0, 3500.0, 4000.0]):
        packet, _ = make_received(2, seqno, (2, 0), (t0, t0 + 10.0))
        received.append(packet)
    systems = build_window_systems(
        received,
        ConstraintConfig(),
        window_span_ms=2_000.0,
        effective_ratio=0.5,
    )
    assert len(systems) >= 2
    keep_counts: dict[PacketId, int] = {}
    boundary_pids = set()
    for p in received:
        if p.generation_time_ms % 1_000.0 == 0.0:
            boundary_pids.add(p.packet_id)
    for ws in systems:
        for pid in ws.kept_ids:
            keep_counts[pid] = keep_counts.get(pid, 0) + 1
    assert boundary_pids  # the scenario does exercise exact boundaries
    for p in received:
        assert keep_counts.get(p.packet_id, 0) == 1, (
            f"packet at t0={p.generation_time_ms} kept "
            f"{keep_counts.get(p.packet_id, 0)} times"
        )


def test_unsorted_input_builds_identical_systems():
    """The bisect sweep is input-order independent (it sorts first)."""
    packets = _stream(num_sources=4, packets_per_source=15, period=600.0)
    rng = np.random.default_rng(5)
    shuffled = list(packets)
    rng.shuffle(shuffled)
    assert shuffled != packets  # the scenario does exercise reordering
    reference = build_window_systems(
        packets, ConstraintConfig(), window_span_ms=2_000.0
    )
    permuted = build_window_systems(
        shuffled, ConstraintConfig(), window_span_ms=2_000.0
    )
    assert len(reference) == len(permuted)
    for left, right in zip(reference, permuted):
        assert left.window == right.window
        assert left.kept_ids == right.kept_ids
        assert [p.packet_id for p in left.index.packets] == [
            p.packet_id for p in right.index.packets
        ]
        assert left.system.intervals == right.system.intervals
        assert len(left.system.rows) == len(right.system.rows)


def test_empty_input():
    assert build_window_systems([], ConstraintConfig(), 1000.0) == []


def test_single_window_when_span_exceeds_duration():
    packets = _stream(num_sources=2, packets_per_source=3, period=100.0)
    systems = build_window_systems(
        packets, ConstraintConfig(), window_span_ms=1e9
    )
    assert len(systems) == 1
    assert len(systems[0].kept_ids) == len(packets)
