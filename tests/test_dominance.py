"""Unit tests for the dominance kernels (repro.core.dominance)."""
from unittest import mock

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import dominance as dm
from repro.core.spec import DimType, SkylineSpec, sdiff, smax, smin, spec_of


def arr(*rows):
    return np.array(rows, dtype=np.float64)


class TestNormalizeMatrix:
    def test_min_passthrough_max_negated(self):
        spec = spec_of(smin("a"), smax("b"))
        pdf = pd.DataFrame({"a": [1.0, 2.0], "b": [3.0, 4.0]})
        mm, diff = dm.normalize_matrix(pdf, spec, ["a", "b"])
        assert diff is None
        np.testing.assert_array_equal(mm, arr([1, -3], [2, -4]))

    def test_diff_split_out(self):
        spec = spec_of(smin("a"), sdiff("c"))
        pdf = pd.DataFrame({"a": [1.0], "c": [9.0]})
        mm, diff = dm.normalize_matrix(pdf, spec, ["a", "c"])
        np.testing.assert_array_equal(mm, arr([1]))
        np.testing.assert_array_equal(diff, arr([9]))

    def test_null_becomes_nan(self):
        spec = spec_of(smin("a"))
        pdf = pd.DataFrame({"a": [1.0, None]})
        mm, _ = dm.normalize_matrix(pdf, spec, ["a"])
        assert np.isnan(mm[1, 0])

    def test_max_diff_negated_consistently(self):
        # DIFF on a MAX-marked dim is impossible (type is DIFF), but MAX
        # negation must not leak into diff columns.
        spec = spec_of(smax("a"), sdiff("c"))
        pdf = pd.DataFrame({"a": [2.0], "c": [5.0]})
        mm, diff = dm.normalize_matrix(pdf, spec, ["a", "c"])
        assert mm[0, 0] == -2.0 and diff[0, 0] == 5.0

    def test_cols_mismatch_rejected(self):
        spec = spec_of(smin("a"))
        with pytest.raises(ValueError):
            dm.normalize_matrix(pd.DataFrame({"a": [1.0]}), spec, ["a", "b"])

    def test_integer_input_cast(self):
        spec = spec_of(smin("a"))
        mm, _ = dm.normalize_matrix(pd.DataFrame({"a": [1, 2]}), spec, ["a"])
        assert mm.dtype == np.float64


class TestCompleteKernels:
    def test_strict_dominance(self):
        assert dm.dominates_complete(arr(1, 1), None, arr(2, 2), None)

    def test_equal_rows_do_not_dominate(self):
        assert not dm.dominates_complete(arr(1, 1), None, arr(1, 1), None)

    def test_incomparable(self):
        assert not dm.dominates_complete(arr(1, 2), None, arr(2, 1), None)
        assert not dm.dominates_complete(arr(2, 1), None, arr(1, 2), None)

    def test_weak_plus_one_strict(self):
        assert dm.dominates_complete(arr(1, 1), None, arr(1, 2), None)

    def test_diff_mismatch_blocks(self):
        assert not dm.dominates_complete(arr(1), arr(0), arr(2), arr(1))

    def test_diff_match_allows(self):
        assert dm.dominates_complete(arr(1), arr(7), arr(2), arr(7))

    def test_any_dominates(self):
        mm = arr([5, 5], [1, 1])
        assert dm.any_dominates_complete(mm, None, arr(2, 2), None)
        assert not dm.any_dominates_complete(mm, None, arr(0, 0), None)

    def test_any_dominates_empty_set(self):
        assert not dm.any_dominates_complete(np.empty((0, 2)), None, arr(1, 1), None)

    def test_dominated_mask(self):
        mm = arr([1, 1])
        cand = arr([2, 2], [0, 0], [1, 1])
        mask = dm.dominated_mask_complete(mm, None, cand, None)
        np.testing.assert_array_equal(mask, [True, False, False])

    def test_dominated_mask_with_diff(self):
        mm = arr([1])
        diff = arr([0])
        cand = arr([2], [2])
        cand_diff = arr([0], [1])
        mask = dm.dominated_mask_complete(mm, diff, cand, cand_diff)
        np.testing.assert_array_equal(mask, [True, False])

    def test_dominated_mask_empty(self):
        assert dm.dominated_mask_complete(np.empty((0, 1)), None, arr([1]), None).tolist() == [False]
        assert dm.dominated_mask_complete(arr([1]), None, np.empty((0, 1)), None).size == 0


class TestIncompleteKernels:
    def test_null_dims_skipped(self):
        # r=(1, NaN), s=(2, 5): only dim 0 comparable -> r < s.
        assert dm.dominates_incomplete(arr(1, np.nan), None, arr(2, 5), None)

    def test_no_common_dims_incomparable(self):
        assert not dm.dominates_incomplete(arr(1, np.nan), None, arr(np.nan, 5), None)

    def test_strict_needed_on_common(self):
        assert not dm.dominates_incomplete(arr(1, np.nan), None, arr(1, 5), None)

    def test_cyclic_example_from_paper(self):
        # Paper §3: a=(1,*,10), b=(3,2,*), c=(*,5,3) — a<b, b<c, c<a.
        a, b, c = arr(1, np.nan, 10), arr(3, 2, np.nan), arr(np.nan, 5, 3)
        assert dm.dominates_incomplete(a, None, b, None)
        assert dm.dominates_incomplete(b, None, c, None)
        assert dm.dominates_incomplete(c, None, a, None)
        assert not dm.dominates_incomplete(a, None, c, None)

    def test_diff_null_treated_equal(self):
        assert dm.dominates_incomplete(arr(1), arr(np.nan), arr(2), arr(7))
        assert not dm.dominates_incomplete(arr(1), arr(5), arr(2), arr(7))

    def test_any_dominates_incomplete(self):
        mm = np.array([[1, np.nan], [np.nan, 5]])
        assert dm.any_dominates_incomplete(mm, None, arr(2, 2), None)

    def test_mask_exclude_self(self):
        mm = arr([1, 1], [1, 1])
        mask = dm.dominated_mask_incomplete(mm, None, mm, None, exclude_self=True)
        np.testing.assert_array_equal(mask, [False, False])

    def test_mask_matches_scalar(self):
        rng = np.random.default_rng(1)
        mm = rng.random((40, 3))
        mm[rng.random((40, 3)) < 0.3] = np.nan
        mask = dm.dominated_mask_incomplete(mm, None, mm, None, exclude_self=True)
        for i in range(40):
            others = np.arange(40) != i
            expected = dm.any_dominates_incomplete(mm[others], None, mm[i], None)
            assert mask[i] == expected, i


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 30),
    st.integers(0, 10_000),
    st.sampled_from([7, dm._PAIRS]),
)
def test_batch_mask_agrees_with_scalar_complete(d, n, seed, pairs):
    rng = np.random.default_rng(seed)
    mm = rng.integers(0, 4, size=(n, d)).astype(float)
    cand = rng.integers(0, 4, size=(7, d)).astype(float)
    with mock.patch.object(dm, "_PAIRS", pairs):
        mask = dm.dominated_mask_complete(mm, None, cand, None)
    for i in range(7):
        assert mask[i] == dm.any_dominates_complete(mm, None, cand[i], None)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 25), st.integers(0, 10_000))
def test_incomplete_reduces_to_complete_without_nans(d, n, seed):
    rng = np.random.default_rng(seed)
    mm = rng.random((n, d))
    t = rng.random(d)
    assert dm.any_dominates_incomplete(mm, None, t, None) == dm.any_dominates_complete(
        mm, None, t, None
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10_000))
def test_complete_dominance_is_transitive(d, seed):
    rng = np.random.default_rng(seed)
    a, b, c = rng.integers(0, 3, size=(3, d)).astype(float)
    if dm.dominates_complete(a, None, b, None) and dm.dominates_complete(b, None, c, None):
        assert dm.dominates_complete(a, None, c, None)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10_000))
def test_dominance_is_irreflexive_and_asymmetric(d, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, 3, size=(2, d)).astype(float)
    assert not dm.dominates_complete(a, None, a, None)
    if dm.dominates_complete(a, None, b, None):
        assert not dm.dominates_complete(b, None, a, None)
