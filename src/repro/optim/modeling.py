"""A small modeling layer: named variables and box-form linear constraints.

All Domo constraint producers (order, sum-of-delays, FIFO) emit rows into a
:class:`RowStore`, which holds the sparse system ``l <= A x <= u`` consumed
by the QP/LP/SDP solvers in CSR form. Equalities are rows with ``l == u``;
one-sided rows use ``-inf`` / ``+inf``.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from repro.constants import INF


class VariableRegistry:
    """Bidirectional mapping between hashable variable keys and indices.

    Domo indexes every unknown arrival time by a ``(packet_id, hop)`` key;
    the registry assigns each key a dense column index for the solvers.
    """

    def __init__(self) -> None:
        self._index: dict[Hashable, int] = {}
        self._keys: list[Hashable] = []

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._keys)

    def add(self, key: Hashable) -> int:
        """Register ``key`` (idempotent) and return its column index."""
        index = self._index.get(key)
        if index is None:
            index = len(self._keys)
            self._index[key] = index
            self._keys.append(key)
        return index

    def index_of(self, key: Hashable) -> int:
        """Column index of an already-registered key."""
        return self._index[key]

    def get(self, key: Hashable) -> int | None:
        """Column index of ``key``, or ``None`` if unregistered."""
        return self._index.get(key)

    def key_of(self, index: int) -> Hashable:
        """Key registered at a column index."""
        return self._keys[index]

    def keys(self) -> list[Hashable]:
        """All keys in column order (copy)."""
        return list(self._keys)


class RowStore:
    """Sparse rows ``lower <= A x <= upper``, one family code per row.

    The single representation of a window's linear constraint system:
    CSR arrays (``indptr``, ``indices``, ``data``) over ``num_variables``
    columns, the ``lower``/``upper`` bound vectors, and one small-int
    ``family`` code per row naming the constraint family that emitted it
    (the producer owns the codes; Domo's are defined in
    :mod:`repro.core.constraints`). Rows keep their insertion order.
    Consumers ask for what they need — the :meth:`matrix`, the rows of
    some families (:meth:`select`) or per-row :meth:`violations` —
    instead of inspecting rows one by one.
    """

    def __init__(self, num_variables: int) -> None:
        self.num_variables = num_variables
        self._indptr: list[int] = [0]
        self._indices: list[int] = []
        self._data: list[float] = []
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._family: list[int] = []
        self._arrays: tuple[np.ndarray, ...] | None = None

    def __len__(self) -> int:
        return len(self._lower)

    def add(
        self,
        terms: dict[int, float] | Iterable[tuple[int, float]],
        lower: float = -INF,
        upper: float = INF,
        family: int = 0,
    ) -> None:
        """Append a row ``lower <= sum(coeff * x) <= upper``.

        ``terms`` maps columns to coefficients, or is an iterable of
        ``(column, coefficient)`` pairs whose duplicate columns are
        summed. Zero coefficients are dropped and columns sorted; a row
        left with no terms is checked for feasibility and not stored.
        """
        if lower > upper:
            raise ValueError(f"empty row interval [{lower}, {upper}]")
        if not isinstance(terms, dict):
            merged: dict[int, float] = {}
            for column, coefficient in terms:
                merged[column] = merged.get(column, 0.0) + coefficient
            terms = merged
        columns = sorted(c for c, v in terms.items() if v != 0.0)
        if not columns:
            if lower > 0.0 or upper < 0.0:
                raise ValueError("constant row is infeasible")
            return
        if columns[0] < 0:
            raise ValueError(f"negative variable index {columns[0]}")
        if columns[-1] >= self.num_variables:
            raise ValueError(
                f"row references column {columns[-1]} >= n={self.num_variables}"
            )
        self._indices.extend(columns)
        self._data.extend([float(terms[c]) for c in columns])
        self._indptr.append(len(self._indices))
        self._lower.append(float(lower))
        self._upper.append(float(upper))
        self._family.append(family)
        self._arrays = None

    def _frozen(self) -> tuple[np.ndarray, ...]:
        """Read-only arrays of the rows added so far (cached)."""
        if self._arrays is None:
            arrays = (
                np.array(self._indptr, dtype=np.int32),
                np.array(self._indices, dtype=np.int32),
                np.array(self._data, dtype=float),
                np.array(self._lower, dtype=float),
                np.array(self._upper, dtype=float),
                np.array(self._family, dtype=np.int8),
            )
            for array in arrays:
                array.flags.writeable = False
            self._arrays = arrays
        return self._arrays

    @property
    def indptr(self) -> np.ndarray:
        return self._frozen()[0]

    @property
    def indices(self) -> np.ndarray:
        return self._frozen()[1]

    @property
    def data(self) -> np.ndarray:
        return self._frozen()[2]

    @property
    def lower(self) -> np.ndarray:
        return self._frozen()[3]

    @property
    def upper(self) -> np.ndarray:
        return self._frozen()[4]

    @property
    def family(self) -> np.ndarray:
        return self._frozen()[5]

    def matrix(self) -> sp.csr_matrix:
        """``A`` as a CSR matrix over the store's (read-only) arrays."""
        indptr, indices, data = self._frozen()[:3]
        return sp.csr_matrix(
            (data, indices, indptr), shape=(len(self), self.num_variables)
        )

    def select(self, families) -> "RowStore":
        """A new store holding only the rows of the given families.

        Used by the degradation ladder: an infeasible system is re-solved
        with whole constraint families removed. Row order is kept.
        """
        indptr, indices, data, lower, upper, family = self._frozen()
        keep = np.isin(family, list(families))
        lengths = np.diff(indptr)
        entries = np.repeat(keep, lengths)
        out = RowStore(self.num_variables)
        out._indptr = [0, *np.cumsum(lengths[keep]).tolist()]
        out._indices = indices[entries].tolist()
        out._data = data[entries].tolist()
        out._lower = lower[keep].tolist()
        out._upper = upper[keep].tolist()
        out._family = family[keep].tolist()
        return out

    def violations(self, x: np.ndarray) -> np.ndarray:
        """Per-row amount by which ``x`` violates its row (0 if satisfied)."""
        value = self.matrix() @ x
        return np.maximum(0.0, np.maximum(self.lower - value, value - self.upper))

    def max_violation(self, x: np.ndarray) -> float:
        """Largest violation of any row at ``x`` (0 when fully feasible)."""
        return float(self.violations(x).max(initial=0.0))
