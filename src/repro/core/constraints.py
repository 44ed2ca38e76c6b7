"""Construction of Domo's three constraint families (paper §IV.A).

:func:`build_constraints` turns a :class:`TraceIndex` into a
:class:`ConstraintSystem`: one :class:`~repro.optim.modeling.RowStore`
of sparse linear rows over the unknown arrival times (known times folded
in as constants, each row carrying its family code) plus the list of
*unresolved* FIFO pairs kept for semidefinite relaxation.

FIFO handling. Eq. (1) — ``(t_ix(x) - t_iy(y)) (t_ix+1(x) - t_iy+1(y)) > 0``
— is non-convex. Two convexifications are supported:

* **resolved/linearized** (default): when the packets' arrival intervals
  at either hop are disjoint, the sign of both factors is determined, and
  Eq. (1) splits into two *linear* inequalities. Resolving tightens
  intervals, which resolves more pairs, so resolution iterates to a fixed
  point.
* **SDR**: pairs whose direction cannot be proven are returned in
  ``fifo_unresolved`` and handled by :mod:`repro.core.sdr` (Eq. (2)-(4)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.candidate import compute_candidate_sets, loss_evidence
from repro.core.intervals import (
    Interval,
    clip_to_valid,
    propagate_path_monotonicity,
    trivial_intervals,
)
from repro.core.records import ArrivalKey, TraceIndex
from repro.constants import INF
from repro.optim.modeling import RowStore, VariableRegistry

#: Family code of each row in a window's :class:`RowStore`: Eq. (5)
#: order rows, linearized Eq. (1) FIFO rows, the always-sound Eq. (7)
#: sum rows and the loss-unsafe Eq. (6) sum rows. The degradation ladder
#: and the bound LPs drop rows by family.
ORDER, FIFO, SUM_LO, SUM_HI = range(4)


@dataclass(frozen=True)
class FifoPair:
    """One shared-node packet pair subject to Eq. (1).

    ``x_at`` / ``y_at`` are the arrival keys at the shared node ``node``;
    ``x_next`` / ``y_next`` at the respective next hops. ``direction`` is
    ``+1`` when x provably precedes y, ``-1`` for the converse, ``0`` when
    unresolved.
    """

    node: int
    x_at: ArrivalKey
    y_at: ArrivalKey
    x_next: ArrivalKey
    y_next: ArrivalKey
    direction: int = 0

    def keys(self) -> tuple[ArrivalKey, ArrivalKey, ArrivalKey, ArrivalKey]:
        return (self.x_at, self.y_at, self.x_next, self.y_next)


@dataclass
class ConstraintConfig:
    """Knobs of constraint construction."""

    #: minimum software processing delay per hop (paper's omega), ms.
    omega_ms: float = 1.0
    #: tolerance absorbed by the quantized S(p) field and clock drift, ms.
    sum_slack_ms: float = 2.0
    #: emit the loss-unsafe upper sum constraint Eq. (6)?
    use_upper_sum: bool = True
    #: Eq. (6) rows are skipped when C(p) exceeds this size (weak + dense).
    max_possible_set: int = 60
    #: generation-time horizon within which two packets sharing a node are
    #: examined as a FIFO pair, ms. Pairs further apart are resolved by
    #: their trivial intervals already.
    fifo_horizon_ms: float = 5_000.0
    #: each node visit is paired with at most this many successors (keeps
    #: pair counts linear on busy forwarders near the sink; more distant
    #: orderings follow transitively from the chained constraints).
    max_fifo_pairs_per_visit: int = 12
    #: minimum separation enforced between ordered same-node events, ms.
    #: The *arrival* margin applies when both packets were received over
    #: the radio (frames at one receiver cannot overlap, so successive
    #: receptions are at least one airtime apart); it must be 0 whenever a
    #: local generation is involved (generations can coincide with
    #: receptions). The *departure* margin applies to successive
    #: transmissions from one node (ack turnaround + backoff + airtime).
    #: Defaults are 0 (paper-faithful, substrate-agnostic); the experiment
    #: harness sets MAC-derived values for the simulator substrate.
    fifo_arrival_margin_ms: float = 0.0
    fifo_departure_margin_ms: float = 0.0
    #: rounds of resolve-then-propagate iteration.
    resolution_rounds: int = 3
    #: packet ids whose S(p) field was flagged by validation (wrapped,
    #: saturated, repaired): their Eq. (6)/(7) rows are skipped entirely —
    #: a corrupt sum poisons both directions.
    distrusted_sum_ids: frozenset = frozenset()
    #: constraint-level degradation: when True and the window shows loss
    #: evidence (seqno gaps, or quarantined packets upstream), the
    #: loss-unsafe Eq. (6) upper rows are suppressed, falling back to the
    #: C*(p)-only Eq. (7) form the paper guarantees under loss. Off by
    #: default (seed behavior); the pipeline turns it on when validation
    #: detects corruption.
    loss_aware_sums: bool = False


@dataclass
class ConstraintSystem:
    """The assembled constraint set over one packet collection."""

    index: TraceIndex
    variables: VariableRegistry
    rows: RowStore
    intervals: dict[ArrivalKey, Interval]
    fifo_resolved: list[FifoPair] = field(default_factory=list)
    fifo_unresolved: list[FifoPair] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def num_unknowns(self) -> int:
        return len(self.variables)

    def term_index(self, key: ArrivalKey) -> int | None:
        """Column of an unknown key (None for known arrival times)."""
        return self.variables.get(key)

    def variable_bounds(self):
        """Per-variable interval bounds aligned with the registry order."""
        lows, highs = [], []
        for key in self.variables:
            lo, hi = self.intervals[key]
            lows.append(lo)
            highs.append(hi)
        return lows, highs

    def add_row(
        self,
        terms: dict[ArrivalKey, float],
        family: int,
        lower: float = -INF,
        upper: float = INF,
    ) -> None:
        """Add a row expressed over arrival keys; constants are folded.

        Known arrival times contribute ``coeff * value`` to both bounds;
        rows that become constant are checked and dropped.
        """
        folded: dict[int, float] = {}
        shift = 0.0
        for key, coefficient in terms.items():
            column = self.variables.get(key)
            if column is None:
                shift += coefficient * self.index.known_value(key)
            else:
                folded[column] = folded.get(column, 0.0) + coefficient
        new_lower = lower - shift if lower != -INF else -INF
        new_upper = upper - shift if upper != INF else INF
        if not folded:
            # Fully known: tolerate small violations (quantization noise).
            if new_lower > 1e-6 or new_upper < -1e-6:
                self.stats["inconsistent_known_rows"] = (
                    self.stats.get("inconsistent_known_rows", 0) + 1
                )
            return
        self.rows.add(folded, lower=new_lower, upper=new_upper, family=family)


def build_constraints(
    index: TraceIndex, config: ConstraintConfig | None = None
) -> ConstraintSystem:
    """Assemble the full constraint system for the packets in ``index``."""
    config = config or ConstraintConfig()
    variables = VariableRegistry()
    for key in index.unknown_keys():
        variables.add(key)
    system = ConstraintSystem(
        index=index,
        variables=variables,
        rows=RowStore(len(variables)),
        intervals=trivial_intervals(index),
    )
    _resolve_fifo_pairs(system, config)
    _add_order_rows(system, config)
    _add_fifo_rows(system, config)
    _add_sum_rows(system, config)
    system.stats.update(
        unknowns=len(variables),
        rows=len(system.rows),
        fifo_resolved=len(system.fifo_resolved),
        fifo_unresolved=len(system.fifo_unresolved),
    )
    return system


# ----------------------------------------------------------------------
# FIFO pair enumeration and resolution
# ----------------------------------------------------------------------


def _enumerate_fifo_pairs(
    index: TraceIndex, config: ConstraintConfig
) -> list[FifoPair]:
    """All same-node packet pairs within the generation-time horizon."""
    pairs: list[FifoPair] = []
    for node, visits in index.node_visits.items():
        ordered = sorted(
            visits, key=lambda item: item[0].generation_time_ms
        )
        for i, (x, hop_x) in enumerate(ordered):
            taken = 0
            for y, hop_y in ordered[i + 1:]:
                gap = y.generation_time_ms - x.generation_time_ms
                if gap > config.fifo_horizon_ms:
                    break
                if taken >= config.max_fifo_pairs_per_visit:
                    break
                if x.packet_id == y.packet_id:
                    continue
                taken += 1
                pairs.append(
                    FifoPair(
                        node=node,
                        x_at=ArrivalKey(x.packet_id, hop_x),
                        y_at=ArrivalKey(y.packet_id, hop_y),
                        x_next=ArrivalKey(x.packet_id, hop_x + 1),
                        y_next=ArrivalKey(y.packet_id, hop_y + 1),
                    )
                )
    return pairs


def _try_resolve(
    pair: FifoPair, intervals: dict[ArrivalKey, Interval]
) -> int:
    """Direction of a pair provable from current intervals (0 if none)."""
    x_lo, x_hi = intervals[pair.x_at]
    y_lo, y_hi = intervals[pair.y_at]
    xn_lo, xn_hi = intervals[pair.x_next]
    yn_lo, yn_hi = intervals[pair.y_next]
    if x_hi <= y_lo or xn_hi <= yn_lo:
        return 1
    if y_hi <= x_lo or yn_hi <= xn_lo:
        return -1
    return 0


def _leg_margins(pair: FifoPair, config: ConstraintConfig) -> tuple[float, float]:
    """(arrival-leg, departure-leg) margins for one pair.

    The arrival margin only applies when *both* packets physically arrived
    at the node over the radio; a locally generated packet (hop 0) can be
    timestamped at any instant, so those pairs get margin 0. Departures
    are always transmissions, so the departure margin always applies.
    """
    arrival = (
        config.fifo_arrival_margin_ms
        if pair.x_at.hop > 0 and pair.y_at.hop > 0
        else 0.0
    )
    return arrival, config.fifo_departure_margin_ms


def _apply_direction(
    pair: FifoPair,
    direction: int,
    intervals: dict[ArrivalKey, Interval],
    config: ConstraintConfig,
) -> int:
    """Tighten intervals with a resolved ordering; returns #tightenings."""
    if direction == 1:
        earlier = (pair.x_at, pair.x_next)
        later = (pair.y_at, pair.y_next)
    else:
        earlier = (pair.y_at, pair.y_next)
        later = (pair.x_at, pair.x_next)
    tightened = 0
    for (early_key, late_key), margin in zip(
        zip(earlier, later), _leg_margins(pair, config)
    ):
        e_lo, e_hi = intervals[early_key]
        l_lo, l_hi = intervals[late_key]
        if l_hi - margin < e_hi:
            intervals[early_key] = (e_lo, l_hi - margin)
            tightened += 1
        if e_lo + margin > l_lo:
            intervals[late_key] = (e_lo + margin, l_hi)
            tightened += 1
    return tightened


def _shared_suffix_direction(index: TraceIndex, pair: FifoPair) -> int:
    """Sound resolution for pairs whose downstream paths coincide.

    When x and y follow the *same node sequence* from the shared node all
    the way to the sink, per-hop FIFO preserves their relative order at
    every one of those hops, so the (known) sink arrival order equals the
    departure order at the shared node.
    """
    x = index.by_id[pair.x_at.packet_id]
    y = index.by_id[pair.y_at.packet_id]
    if x.path[pair.x_at.hop:] != y.path[pair.y_at.hop:]:
        return 0
    return 1 if x.sink_arrival_ms < y.sink_arrival_ms else -1


def _resolve_fifo_pairs(system: ConstraintSystem, config: ConstraintConfig):
    """Iteratively resolve pair directions and tighten intervals."""
    index = system.index
    pairs = _enumerate_fifo_pairs(index, config)
    directions: dict[int, int] = {}
    propagate_path_monotonicity(index, system.intervals)
    # First pass: structural resolution via shared downstream paths.
    for pair_id, pair in enumerate(pairs):
        direction = _shared_suffix_direction(index, pair)
        if direction != 0:
            directions[pair_id] = direction
            _apply_direction(pair, direction, system.intervals, config)
    propagate_path_monotonicity(index, system.intervals)
    clip_to_valid(system.intervals)
    for _ in range(max(1, config.resolution_rounds)):
        progress = 0
        for pair_id, pair in enumerate(pairs):
            if directions.get(pair_id, 0) != 0:
                continue
            direction = _try_resolve(pair, system.intervals)
            if direction != 0:
                directions[pair_id] = direction
                progress += 1
                _apply_direction(pair, direction, system.intervals, config)
        propagate_path_monotonicity(index, system.intervals)
        clip_to_valid(system.intervals)
        if progress == 0:
            break
    for pair_id, pair in enumerate(pairs):
        direction = directions.get(pair_id, 0)
        resolved_pair = FifoPair(
            node=pair.node,
            x_at=pair.x_at,
            y_at=pair.y_at,
            x_next=pair.x_next,
            y_next=pair.y_next,
            direction=direction,
        )
        if direction == 0:
            system.fifo_unresolved.append(resolved_pair)
        else:
            system.fifo_resolved.append(resolved_pair)


# ----------------------------------------------------------------------
# Row emission
# ----------------------------------------------------------------------


def _add_order_rows(system: ConstraintSystem, config: ConstraintConfig):
    """Eq. (5): consecutive arrival times separated by at least omega."""
    for packet in system.index.packets:
        keys = system.index.keys_of(packet)
        for prev_key, key in zip(keys, keys[1:]):
            system.add_row(
                {key: 1.0, prev_key: -1.0},
                lower=config.omega_ms,
                family=ORDER,
            )


def _add_fifo_rows(system: ConstraintSystem, config: ConstraintConfig):
    """Linear rows for every resolved FIFO pair (both hops)."""
    for pair in system.fifo_resolved:
        if pair.direction == 1:
            first = (pair.x_at, pair.x_next)
            second = (pair.y_at, pair.y_next)
        else:
            first = (pair.y_at, pair.y_next)
            second = (pair.x_at, pair.x_next)
        for (early, late), margin in zip(
            zip(first, second), _leg_margins(pair, config)
        ):
            system.add_row(
                {late: 1.0, early: -1.0},
                lower=margin,
                family=FIFO,
            )


def _add_sum_rows(system: ConstraintSystem, config: ConstraintConfig):
    """Eq. (6)/(7): bracket each S(p) by candidate-set delay sums.

    Degradation hooks (robustness tier): packets whose S(p) was flagged
    by validation contribute no sum rows at all; with ``loss_aware_sums``
    and loss evidence in the window, the loss-unsafe Eq. (6) rows are
    suppressed (C*(p)-only degradation). Both events are counted in
    ``system.stats``.
    """
    emitted_lower = emitted_upper = 0
    distrusted_skips = degraded_upper = 0
    unanchored = 0
    suppress_upper = (
        config.loss_aware_sums and loss_evidence(system.index) > 0
    )
    for packet in system.index.packets:
        if packet.packet_id in config.distrusted_sum_ids:
            distrusted_skips += 1
            continue
        sets = compute_candidate_sets(system.index, packet)
        if sets is None:
            continue
        if not sets.anchored:
            unanchored += 1
            continue
        own_terms = {
            ArrivalKey(packet.packet_id, 1): 1.0,
            ArrivalKey(packet.packet_id, 0): -1.0,
        }
        if packet.path_length < 2:
            continue
        s_value = float(packet.sum_of_delays_ms)

        # Eq. (7): S(p) >= D(p) + sum over C*(p). Always sound.
        terms = dict(own_terms)
        for candidate, hop in sets.guaranteed:
            _accumulate_delay_terms(terms, candidate.packet_id, hop)
        system.add_row(
            terms,
            upper=s_value + config.sum_slack_ms,
            family=SUM_LO,
        )
        emitted_lower += 1

        # Eq. (6): S(p) <= D(p) + sum over C(p). Only holds loss-free;
        # kept optional, size-capped, and suppressed under loss evidence.
        if (
            config.use_upper_sum
            and len(sets.possible) <= config.max_possible_set
        ):
            if suppress_upper:
                degraded_upper += 1
                continue
            terms = dict(own_terms)
            for candidate, hop in sets.possible:
                _accumulate_delay_terms(terms, candidate.packet_id, hop)
            system.add_row(
                terms,
                lower=s_value - config.sum_slack_ms,
                family=SUM_HI,
            )
            emitted_upper += 1
    system.stats["sum_lower_rows"] = emitted_lower
    system.stats["sum_upper_rows"] = emitted_upper
    system.stats["sum_rows_distrusted"] = distrusted_skips
    system.stats["sum_upper_degraded"] = degraded_upper
    system.stats["sum_unanchored"] = unanchored


def _accumulate_delay_terms(
    terms: dict[ArrivalKey, float], packet_id, hop: int
) -> None:
    """Add ``D = t[hop+1] - t[hop]`` of a packet into a row's terms."""
    arrive = ArrivalKey(packet_id, hop)
    depart = ArrivalKey(packet_id, hop + 1)
    terms[depart] = terms.get(depart, 0.0) + 1.0
    terms[arrive] = terms.get(arrive, 0.0) - 1.0
