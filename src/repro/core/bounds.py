"""Lower/upper bounds of arrival times via sub-graph LPs (paper §IV.C).

For each unknown arrival time ``t`` Domo solves ``min t`` and ``max t``
subject to the three constraint families. Using every constraint in the
trace for every target would be quadratically expensive, so a sub-graph
of the constraint graph is extracted around the target (BFS seed of
*graph cut size* vertices, boundary tuned by BLP) and only constraints
among extracted vertices are used — constraints crossing the boundary are
*soundly relaxed* by replacing outside variables with their interval
endpoints, so the bounds remain valid (just possibly looser).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.constraints import FIFO, ORDER, SUM_LO, ConstraintSystem
from repro.core.records import ArrivalKey
from repro.graphcut.extraction import SubgraphExtractor
from repro.graphcut.graph import ConstraintGraph
from repro.optim.lp import LinearProgram, solve_lp
from repro.constants import INF
from repro.optim.modeling import RowStore


@dataclass
class BoundsConfig:
    """Knobs of the bound computation."""

    #: the paper's *graph cut size* (Fig. 10 sweeps 5000-20000).
    graph_cut_size: int = 10_000
    #: tune the BFS boundary with balanced label propagation.
    use_blp: bool = True
    #: when the LP is infeasible (loss broke an Eq. (6) row), retry
    #: without the loss-unsafe rows before falling back to the interval.
    drop_upper_sum_on_infeasible: bool = True
    #: in batched mode one extraction serves every target inside its BFS
    #: core of this fraction of the cut size (an amortization on top of
    #: the paper's per-target scheme; set to 0 to force per-target).
    core_fraction: float = 0.25


@dataclass
class BoundResult:
    """Bounds of one arrival time, with provenance."""

    key: ArrivalKey
    lower: float
    upper: float
    #: "lp" (full solve), "lp_relaxed" (Eq. (6) dropped), "interval"
    #: (LP unusable; trivial/propagated interval), or "known".
    method: str = "lp"

    @property
    def width(self) -> float:
        return self.upper - self.lower


class BoundComputer:
    """Computes per-arrival-time bounds over one constraint system."""

    def __init__(
        self, system: ConstraintSystem, config: BoundsConfig | None = None
    ) -> None:
        self.system = system
        self.config = config or BoundsConfig()
        self.graph = self._build_graph()
        self._extractor = SubgraphExtractor(
            self.graph,
            cut_size=self.config.graph_cut_size,
            use_blp=self.config.use_blp,
        )
        self._stats: dict[str, int] = {}
        # Rows by column (CSC), so sub-graph projection only visits
        # relevant rows instead of scanning the whole system per target.
        self._by_column = system.rows.matrix().tocsc()

    @property
    def stats(self) -> dict:
        return dict(self._stats)

    def _build_graph(self) -> ConstraintGraph:
        """Vertices = unknown keys; cliques per constraint row (paper §IV.C)."""
        graph = ConstraintGraph()
        variables = self.system.variables
        for key in variables:
            graph.add_vertex(key)
        rows = self.system.rows
        indptr, indices = rows.indptr, rows.indices.tolist()
        for row_id in range(len(rows)):
            columns = indices[indptr[row_id]:indptr[row_id + 1]]
            graph.add_clique([variables.key_of(c) for c in columns])
        return graph

    # ------------------------------------------------------------------

    def bounds_for(self, key: ArrivalKey) -> BoundResult:
        """Bounds of one arrival time (knowns collapse to a point)."""
        if self.system.index.is_known(key):
            value = self.system.index.known_value(key)
            return BoundResult(key=key, lower=value, upper=value, method="known")
        inside = self._extractor.extract(key).inside
        return self._solve_batch([key], inside)[key]

    def bounds_for_packet(self, packet_id) -> list[BoundResult]:
        """Bounds of every unknown arrival time of one packet."""
        return [
            self.bounds_for(key)
            for key in self.system.variables
            if key.packet_id == packet_id
        ]

    def bounds_for_all(
        self, keys: list[ArrivalKey] | None = None
    ) -> dict[ArrivalKey, BoundResult]:
        """Bounds of many (default: all) unknown arrival times.

        When the constraint graph exceeds the cut size, one extraction is
        reused for every still-uncovered target inside its BFS core
        (``core_fraction`` of the cut size) — the projected constraint
        rows are identical for all of them, so only the LP objective
        changes per target.
        """
        wanted = list(keys) if keys is not None else list(self.system.variables)
        results: dict[ArrivalKey, BoundResult] = {}
        if self.graph.num_vertices <= self.config.graph_cut_size:
            inside = set(self.graph.vertices())
            return self._solve_batch(wanted, inside)

        core_size = max(1, int(self.config.graph_cut_size * self.config.core_fraction))
        pending = [k for k in wanted]
        covered: set = set()
        for target in pending:
            if target in covered:
                continue
            extracted = self._extractor.extract(target)
            if self.config.core_fraction > 0.0:
                core = set(self.graph.bfs_ball(target, core_size))
                core &= extracted.inside
            else:
                core = {target}
            batch = [
                k for k in pending
                if k not in covered and (k == target or k in core)
            ]
            batch_results = self._solve_batch(batch, extracted.inside)
            results.update(batch_results)
            covered.update(batch_results)
        return results

    # ------------------------------------------------------------------

    def _solve_batch(
        self, keys: list[ArrivalKey], inside: set
    ) -> dict[ArrivalKey, BoundResult]:
        """Solve min/max LPs for several targets over one sub-graph."""
        variables = self.system.variables
        columns = sorted(
            variables.index_of(k) for k in inside if k in variables
        )
        local_of = {column: i for i, column in enumerate(columns)}
        n_local = len(columns)

        lows = np.empty(n_local)
        highs = np.empty(n_local)
        for column, i in local_of.items():
            lo, hi = self.system.intervals[variables.key_of(column)]
            lows[i] = lo
            highs[i] = hi

        full_rows = self._relax_rows(local_of)
        systems = [_BatchLP(full_rows, lows, highs)]
        if self.config.drop_upper_sum_on_infeasible:
            # Every family but the loss-unsafe Eq. (6) rows.
            relaxed = full_rows.select({ORDER, FIFO, SUM_LO})
            systems.append(_BatchLP(relaxed, lows, highs))

        results: dict[ArrivalKey, BoundResult] = {}
        for key in keys:
            interval = self.system.intervals[key]
            target_local = local_of[variables.index_of(key)]
            entry = None
            for attempt, batch_lp in enumerate(systems):
                outcome = batch_lp.min_max(target_local)
                if outcome is None:
                    continue
                lower = max(outcome[0], interval[0])
                upper = min(outcome[1], interval[1])
                if lower <= upper:
                    method = "lp" if attempt == 0 else "lp_relaxed"
                    entry = BoundResult(key, lower, upper, method)
                    break
            if entry is None:
                entry = BoundResult(key, interval[0], interval[1], "interval")
            self._stats[entry.method] = self._stats.get(entry.method, 0) + 1
            results[key] = entry
        return results

    def _relax_rows(self, local_of: dict[int, int]) -> RowStore:
        """Project the window's rows onto the sub-graph, soundly relaxed.

        Rows not touching any inside column are irrelevant; rows partially
        outside have their outside terms replaced by interval worst cases,
        which keeps every remaining row valid for the true arrival times.
        """
        variables = self.system.variables
        by_column = self._by_column
        relevant_ids: set[int] = set()
        for column in local_of:
            start, stop = by_column.indptr[column], by_column.indptr[column + 1]
            relevant_ids.update(by_column.indices[start:stop].tolist())
        rows = self.system.rows
        indptr, indices, data = rows.indptr, rows.indices, rows.data
        projected = RowStore(len(local_of))
        for row_id in sorted(relevant_ids):
            start, stop = indptr[row_id], indptr[row_id + 1]
            inside_terms: dict[int, float] = {}
            slack_lo = slack_hi = 0.0
            for column, coefficient in zip(
                indices[start:stop].tolist(), data[start:stop].tolist()
            ):
                local = local_of.get(column)
                if local is not None:
                    inside_terms[local] = coefficient
                    continue
                lo, hi = self.system.intervals[variables.key_of(column)]
                slack_lo += min(coefficient * lo, coefficient * hi)
                slack_hi += max(coefficient * lo, coefficient * hi)
            if not inside_terms:
                continue
            row_lower = float(rows.lower[row_id])
            row_upper = float(rows.upper[row_id])
            lower = row_lower - slack_hi if np.isfinite(row_lower) else -INF
            upper = row_upper - slack_lo if np.isfinite(row_upper) else INF
            if lower == -INF and upper == INF:
                continue
            projected.add(inside_terms, lower, upper, int(rows.family[row_id]))
        return projected


class _BatchLP:
    """A fixed feasible region; min/max of single coordinates on demand."""

    def __init__(self, rows: RowStore, lows, highs):
        self.n_local = rows.num_variables
        self.lows = lows
        self.highs = highs
        self.A = rows.matrix()
        self.row_lower = rows.lower
        self.row_upper = rows.upper

    def min_max(self, target_local: int) -> tuple[float, float] | None:
        """(min, max) of one coordinate, or None when the LP fails."""
        c = np.zeros(self.n_local)
        c[target_local] = 1.0
        low = solve_lp(
            LinearProgram(
                c=c, A=self.A, row_lower=self.row_lower,
                row_upper=self.row_upper, x_lower=self.lows, x_upper=self.highs,
            )
        )
        if not low.status.is_usable:
            return None
        high = solve_lp(
            LinearProgram(
                c=-c, A=self.A, row_lower=self.row_lower,
                row_upper=self.row_upper, x_lower=self.lows, x_upper=self.highs,
            )
        )
        if not high.status.is_usable:
            return None
        return float(low.objective), float(-high.objective)
