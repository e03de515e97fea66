"""Vectorized dominance-check kernels (paper §5.5 "dominance check utility").

All kernels operate on *sign-normalized* float64 matrices: MAX
dimensions are negated up front so that "better" always means
"smaller".  NULL is represented as NaN (the incomplete kernels are
NaN-aware; the complete kernels assume no NaN, as the paper's complete
algorithms assume no NULLs).

Matrix layout: ``mm`` is the (n, k) matrix of MIN/MAX values (already
normalized), ``diff`` is the (n, j) matrix of DIFF values (or None if
the spec has no DIFF dimensions).

Definition 3.1 (complete data): r dominates s iff
  * r == s on every DIFF dimension, and
  * r <= s on every normalized MIN/MAX dimension, and
  * r <  s on at least one normalized MIN/MAX dimension.

Incomplete data (§3): every comparison is restricted to dimensions
where *both* tuples are non-NULL; DIFF dimensions where either side is
NULL are treated as equal.  This relation is not transitive, which is
why the incomplete global phase (bnl.py) never deletes eagerly.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .spec import DimType, SkylineSpec

__all__ = [
    "normalize_matrix",
    "dominates_complete",
    "dominates_incomplete",
    "any_dominates_complete",
    "any_dominates_incomplete",
    "dominated_mask_complete",
    "dominated_mask_incomplete",
]


def normalize_matrix(pdf: pd.DataFrame, spec: SkylineSpec, cols: list[str]) -> tuple[np.ndarray, np.ndarray | None]:
    """Extract (mm, diff) float64 matrices from ``pdf``.

    ``cols`` gives the materialized column name of each dimension in
    clause order (dimension expressions are pre-evaluated into columns
    by the physical layer).  MAX columns are negated; NULL becomes NaN.
    """
    if len(cols) != len(spec.dimensions):
        raise ValueError("cols must align 1:1 with spec.dimensions")
    mm_cols: list[np.ndarray] = []
    diff_cols: list[np.ndarray] = []
    for dim, col in zip(spec.dimensions, cols):
        v = pd.to_numeric(pdf[col], errors="raise").to_numpy(dtype=np.float64, na_value=np.nan)
        if dim.dim_type is DimType.MAX:
            v = -v
        (diff_cols if dim.dim_type is DimType.DIFF else mm_cols).append(v)
    n = len(pdf)
    mm = np.column_stack(mm_cols) if mm_cols else np.empty((n, 0))
    diff = np.column_stack(diff_cols) if diff_cols else None
    return mm, diff


#: Target (set, candidate) pairs per chunk of the batch dominance masks.
_PAIRS = 1_000_000


def _check_pair_shapes(mm: np.ndarray, diff: np.ndarray | None) -> None:
    if mm.ndim != 2:
        raise ValueError("mm must be 2-D (n, k)")
    if diff is not None and diff.shape[0] != mm.shape[0]:
        raise ValueError("diff row count must match mm")


# ---------------------------------------------------------------------------
# Complete-data kernels
# ---------------------------------------------------------------------------

def dominates_complete(r_mm: np.ndarray, r_diff: np.ndarray | None,
                       s_mm: np.ndarray, s_diff: np.ndarray | None) -> bool:
    """Scalar check: does tuple r dominate tuple s (complete data)?"""
    if r_diff is not None and not np.array_equal(r_diff, s_diff):
        return False
    return bool(np.all(r_mm <= s_mm) and np.any(r_mm < s_mm))


def any_dominates_complete(mm: np.ndarray, diff: np.ndarray | None,
                           t_mm: np.ndarray, t_diff: np.ndarray | None) -> bool:
    """Is tuple t dominated by *any* row of the (mm, diff) set?"""
    _check_pair_shapes(mm, diff)
    le = np.all(mm <= t_mm, axis=1)
    lt = np.any(mm < t_mm, axis=1)
    dom = le & lt
    if diff is not None:
        dom &= np.all(diff == t_diff, axis=1)
    return bool(dom.any())


def dominated_mask_complete(mm: np.ndarray, diff: np.ndarray | None,
                            cand_mm: np.ndarray, cand_diff: np.ndarray | None) -> np.ndarray:
    """Boolean mask over ``cand``: candidate i is dominated by some row of the set.

    This is the batch-elimination primitive of the chunked BNL and of
    its pre-filter in bnl.py.  On NaN-free rows the null-aware test of
    :func:`_dominated_mask` is Definition 3.1 itself.
    """
    return _dominated_mask(mm, diff, cand_mm, cand_diff, exclude_self=False)


# ---------------------------------------------------------------------------
# Incomplete-data (NaN-aware) kernels
# ---------------------------------------------------------------------------

def dominates_incomplete(r_mm: np.ndarray, r_diff: np.ndarray | None,
                         s_mm: np.ndarray, s_diff: np.ndarray | None) -> bool:
    """Scalar null-aware check: does r dominate s (incomplete data)?"""
    both = ~np.isnan(r_mm) & ~np.isnan(s_mm)
    ok = np.all(~both | (r_mm <= s_mm))
    better = np.any(both & (r_mm < s_mm))
    if not (ok and better):
        return False
    if r_diff is not None:
        both_d = ~np.isnan(r_diff) & ~np.isnan(s_diff)
        if not np.all(~both_d | (r_diff == s_diff)):
            return False
    return True


def any_dominates_incomplete(mm: np.ndarray, diff: np.ndarray | None,
                             t_mm: np.ndarray, t_diff: np.ndarray | None) -> bool:
    """Is tuple t dominated by any row of the set, under null-aware semantics?"""
    _check_pair_shapes(mm, diff)
    both = ~np.isnan(mm) & ~np.isnan(t_mm)  # (n, k)
    with np.errstate(invalid="ignore"):
        ok = np.all(~both | (mm <= t_mm), axis=1)
        better = np.any(both & (mm < t_mm), axis=1)
    dom = ok & better
    if diff is not None:
        both_d = ~np.isnan(diff) & ~np.isnan(t_diff)
        with np.errstate(invalid="ignore"):
            dom &= np.all(~both_d | (diff == t_diff), axis=1)
    return bool(dom.any())


def dominated_mask_incomplete(mm: np.ndarray, diff: np.ndarray | None,
                              cand_mm: np.ndarray, cand_diff: np.ndarray | None,
                              *, exclude_self: bool = False) -> np.ndarray:
    """Null-aware batch mask: candidate i dominated by some row of the set.

    With ``exclude_self=True`` the set and candidates are the *same*
    array and row i is not compared against itself — this is the
    all-pairs global phase for incomplete data (Appendix A "Correct
    Skyline Computation"): flags are computed against the full set and
    only applied afterwards, so cyclic dominance never deletes a
    dominator prematurely.
    """
    return _dominated_mask(mm, diff, cand_mm, cand_diff, exclude_self=exclude_self)


def _dominated_mask(mm: np.ndarray, diff: np.ndarray | None,
                    cand_mm: np.ndarray, cand_diff: np.ndarray | None,
                    *, exclude_self: bool) -> np.ndarray:
    """Null-aware dominated mask over ``cand``, shared by both batch kernels.

    The (set, candidate) pair masks are 2-D and built one dimension at
    a time, in candidate chunks of about ``_PAIRS`` pairs, so peak
    memory stays at three ``(|set|, chunk)`` boolean arrays whatever
    the number of dimensions.
    """
    _check_pair_shapes(mm, diff)
    n_set = mm.shape[0]
    n_cand = cand_mm.shape[0]
    out = np.zeros(n_cand, dtype=bool)
    if n_set == 0 or n_cand == 0:
        return out
    chunk = max(1, _PAIRS // n_set)
    for lo in range(0, n_cand, chunk):
        hi = min(n_cand, lo + chunk)
        # Any comparison with NaN is False, so a < b and a > b hold only
        # where both tuples are non-NULL: exactly the dimensions that count.
        worse = np.zeros((n_set, hi - lo), dtype=bool)
        better = np.zeros((n_set, hi - lo), dtype=bool)
        cmp = np.empty((n_set, hi - lo), dtype=bool)
        for j in range(mm.shape[1]):
            a, b = mm[:, j, None], cand_mm[None, lo:hi, j]
            worse |= np.greater(a, b, out=cmp)
            better |= np.less(a, b, out=cmp)
        for j in range(0 if diff is None else diff.shape[1]):
            a, b = diff[:, j, None], cand_diff[None, lo:hi, j]
            worse |= np.greater(a, b, out=cmp)
            worse |= np.less(a, b, out=cmp)
        better &= np.logical_not(worse, out=worse)
        if exclude_self:
            idx = np.arange(lo, hi)
            better[idx, idx - lo] = False
        out[lo:hi] = better.any(axis=0)
    return out
