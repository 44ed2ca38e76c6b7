"""Tests for the variable registry and the constraint row store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optim.modeling import RowStore, VariableRegistry


class TestVariableRegistry:
    def test_add_assigns_sequential_indices(self):
        reg = VariableRegistry()
        assert reg.add("a") == 0
        assert reg.add("b") == 1
        assert reg.add("c") == 2

    def test_add_is_idempotent(self):
        reg = VariableRegistry()
        assert reg.add(("p", 1)) == 0
        assert reg.add(("p", 1)) == 0
        assert len(reg) == 1

    def test_lookup_roundtrip(self):
        reg = VariableRegistry()
        keys = [("p", i) for i in range(5)]
        for key in keys:
            reg.add(key)
        for key in keys:
            assert reg.key_of(reg.index_of(key)) == key

    def test_contains_and_get(self):
        reg = VariableRegistry()
        reg.add("x")
        assert "x" in reg
        assert "y" not in reg
        assert reg.get("y") is None
        assert reg.get("x") == 0

    def test_keys_in_column_order(self):
        reg = VariableRegistry()
        for key in ["c", "a", "b"]:
            reg.add(key)
        assert reg.keys() == ["c", "a", "b"]
        assert list(reg) == ["c", "a", "b"]


class TestConstraintBuilder:
    """The :class:`RowStore` every constraint producer builds rows into."""

    def test_build_simple_system(self):
        store = RowStore(2)
        store.add({0: 1.0, 1: 1.0}, upper=5.0)
        store.add({0: 1.0}, lower=1.0)
        store.add({1: 2.0}, lower=4.0, upper=4.0)
        A = store.matrix()
        assert A.shape == (3, 2)
        assert A.toarray().tolist() == [[1.0, 1.0], [1.0, 0.0], [0.0, 2.0]]
        lower, upper = store.lower, store.upper
        assert lower[0] == -np.inf and upper[0] == 5.0
        assert lower[1] == 1.0 and upper[1] == np.inf
        assert lower[2] == upper[2] == 4.0

    def test_terms_with_same_index_merge(self):
        store = RowStore(1)
        store.add([(0, 1.0), (0, 2.0)], lower=0.0, upper=3.0)
        assert store.indptr.tolist() == [0, 1]
        assert store.indices.tolist() == [0]
        assert store.data.tolist() == [3.0]

    def test_columns_sorted_and_zeros_dropped(self):
        store = RowStore(4)
        store.add({3: 2.0, 0: -1.0, 2: 0.0}, lower=0.0, family=5)
        assert store.indices.tolist() == [0, 3]
        assert store.data.tolist() == [-1.0, 2.0]
        assert store.family.tolist() == [5]

    def test_zero_coefficient_rows_dropped(self):
        store = RowStore(1)
        store.add([(0, 1.0), (0, -1.0)], lower=-1.0, upper=1.0)
        assert len(store) == 0

    def test_infeasible_constant_row_raises(self):
        store = RowStore(1)
        with pytest.raises(ValueError):
            store.add([(0, 1.0), (0, -1.0)], lower=1.0, upper=2.0)

    def test_empty_interval_raises(self):
        store = RowStore(1)
        with pytest.raises(ValueError):
            store.add({0: 1.0}, lower=2.0, upper=1.0)

    def test_negative_index_raises(self):
        store = RowStore(1)
        with pytest.raises(ValueError):
            store.add({-1: 1.0}, upper=0.0)

    def test_column_overflow_detected_at_build(self):
        store = RowStore(3)
        with pytest.raises(ValueError, match=">= n=3"):
            store.add({5: 1.0}, upper=1.0)
        assert len(store) == 0

    def test_column_count_fixed_at_construction(self):
        store = RowStore(5)
        assert store.matrix().shape == (0, 5)
        store.add({4: 1.0}, upper=1.0)
        assert store.matrix().shape == (1, 5)

    def test_violation_and_max_violation(self):
        store = RowStore(2)
        store.add({0: 1.0}, upper=1.0)
        store.add({1: 1.0}, lower=0.0)
        x = np.array([3.0, -0.5])
        assert store.violations(x).tolist() == pytest.approx([2.0, 0.5])
        assert store.max_violation(x) == pytest.approx(2.0)
        assert store.max_violation(np.array([0.0, 1.0])) == 0.0
        assert RowStore(2).max_violation(x) == 0.0

    def test_select_keeps_family_rows_in_order(self):
        store = RowStore(3)
        store.add({0: 1.0}, upper=1.0, family=0)
        store.add({1: 1.0, 2: -1.0}, lower=0.0, family=1)
        store.add({2: 4.0}, upper=2.0, family=0)
        kept = store.select({0})
        assert len(kept) == 2
        assert kept.num_variables == 3
        assert kept.indptr.tolist() == [0, 1, 2]
        assert kept.indices.tolist() == [0, 2]
        assert kept.data.tolist() == [1.0, 4.0]
        assert kept.upper.tolist() == [1.0, 2.0]
        assert kept.family.tolist() == [0, 0]
        assert len(store.select(set())) == 0
        assert len(store) == 3

    def test_arrays_are_read_only_and_refresh_after_add(self):
        store = RowStore(2)
        store.add({0: 1.0}, upper=1.0)
        with pytest.raises(ValueError):
            store.data[0] = 2.0
        store.add({1: 1.0}, upper=2.0)
        assert store.matrix().shape == (2, 2)
        assert store.upper.tolist() == [1.0, 2.0]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 9),
                st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_build_matches_row_evaluation(self, terms):
        """Sparse matrix product equals per-term evaluation for random rows."""
        store = RowStore(10)
        store.add(terms, lower=-100.0, upper=100.0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=10)
        if len(store) == 0:
            return
        expected = sum(c * x[i] for i, c in terms)
        assert (store.matrix() @ x)[0] == pytest.approx(expected, abs=1e-9)
