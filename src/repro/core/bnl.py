"""Block-Nested-Loop skyline kernels (paper §5.6 / §5.7).

These functions compute *keep masks* over pre-normalized matrices (see
``dominance.normalize_matrix``): MAX dimensions already negated, NULL
as NaN.  The physical layer (physical.py) feeds them per-partition
pandas batches via ``mapInPandas``.

* :func:`bnl_skyline_mask` — the window-based BNL algorithm [5] for
  complete data, used for both the local and the global stage of the
  "complete" algorithms.  Above ``_SEED`` rows an elimination filter
  (LESS, Godfrey et al. 2005; SFS, Chomicki et al. 2003) runs first:
  the skyline of the ``_SEED`` rows with the lowest per-dimension rank
  sums drops every row it dominates, in one batch dominance pass.  The
  window loop then runs once over the survivors, vectorized in chunks:
  each incoming chunk is first bulk-filtered against the current
  window, and only the survivors go through the per-tuple insert/evict
  loop.  The filter is exact (DESIGN.md §5): it drops only dominated
  rows, and dominance on complete data is transitive.
* :func:`incomplete_local_skyline_mask` — local stage for incomplete
  data: rows are grouped by their null bitmap (which dimensions are
  NULL) and a complete BNL runs inside each group over the group's
  non-NULL dimensions.  Inside a group all tuples share the same NULL
  positions, so dominance is transitive again (§5.7).
* :func:`incomplete_global_skyline_mask` — global stage for incomplete
  data: all-pairs, flag-then-delete (Appendix A, "Correct Skyline
  Computation") so cyclic dominance relationships cannot resurrect
  dominated tuples.
* :func:`naive_skyline_mask` — O(n²) definitional implementation, used
  only as a test oracle.
"""
from __future__ import annotations

import numpy as np

from . import dominance as dm

__all__ = [
    "bnl_skyline_mask",
    "incomplete_local_skyline_mask",
    "incomplete_global_skyline_mask",
    "naive_skyline_mask",
]

_CHUNK = 2048
#: Rows whose skyline seeds the elimination filter of bnl_skyline_mask.
_SEED = 64


def bnl_skyline_mask(mm: np.ndarray, diff: np.ndarray | None, *, chunk: int = _CHUNK) -> np.ndarray:
    """Complete-data BNL: boolean keep-mask of the skyline rows of (mm, diff).

    Above ``_SEED`` rows an elimination filter (:func:`_prefilter`)
    first drops rows a small skyline dominates; the window loop
    (:func:`_window_mask`) then runs once over the survivors.
    """
    n = mm.shape[0]
    keep = np.zeros(n, dtype=bool)
    if n == 0:
        return keep
    if np.isnan(mm).any() or (diff is not None and np.isnan(diff).any()):
        raise ValueError("bnl_skyline_mask requires complete (NaN-free) data")
    rows = _prefilter(mm, diff) if n > _SEED else np.arange(n)
    keep[rows] = _window_mask(mm[rows], None if diff is None else diff[rows], chunk)
    return keep


def _prefilter(mm: np.ndarray, diff: np.ndarray | None) -> np.ndarray:
    """Indices of the rows not dominated by the skyline of ``_SEED`` seed rows.

    The seeds are the rows with the lowest sum of per-dimension ranks,
    which tend to dominate much of the input (LESS/SFS elimination
    filter).  Dominance is full Definition 3.1, DIFF equality included,
    so a dropped row is never a skyline row and every dominated survivor
    is still dominated by a skyline row among the survivors.
    """
    seeds = _lowest_rank_sums(mm)  # its n-row temporaries are freed before the pass below
    sky = seeds[_window_mask(mm[seeds], None if diff is None else diff[seeds], _CHUNK)]
    dominated = dm.dominated_mask_complete(mm[sky], None if diff is None else diff[sky], mm, diff)
    return np.flatnonzero(~dominated)


def _lowest_rank_sums(mm: np.ndarray) -> np.ndarray:
    """Indices of the ``_SEED`` rows with the lowest sum of per-column ranks."""
    n = mm.shape[0]
    positions = np.arange(n)
    rank = np.empty(n, dtype=np.int64)
    rank_sum = np.zeros(n, dtype=np.int64)
    for col in mm.T:
        rank[np.argsort(col)] = positions
        rank_sum += rank
    return np.argpartition(rank_sum, _SEED)[:_SEED]


def _window_mask(mm: np.ndarray, diff: np.ndarray | None, chunk: int) -> np.ndarray:
    """The window BNL loop [5] over NaN-free (mm, diff).

    The window holds (indices of) the skyline of all rows seen so far.
    A tuple dominated by the window is dropped without further checks
    (transitivity); a surviving tuple evicts every window tuple it
    dominates and is inserted (also when merely incomparable) [5].
    """
    n = mm.shape[0]
    keep = np.zeros(n, dtype=bool)
    w_idx: np.ndarray = np.empty(0, dtype=np.int64)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        cand = np.arange(lo, hi)
        if w_idx.size:
            d = dm.dominated_mask_complete(
                mm[w_idx], None if diff is None else diff[w_idx],
                mm[cand], None if diff is None else diff[cand],
            )
            cand = cand[~d]
        for i in cand:
            t_mm = mm[i]
            t_diff = None if diff is None else diff[i]
            if w_idx.size:
                w_mm = mm[w_idx]
                w_diff = None if diff is None else diff[w_idx]
                if dm.any_dominates_complete(w_mm, w_diff, t_mm, t_diff):
                    continue
                # Evict window tuples dominated by t.
                le = np.all(t_mm <= w_mm, axis=1)
                lt = np.any(t_mm < w_mm, axis=1)
                evict = le & lt
                if diff is not None:
                    evict &= np.all(t_diff == w_diff, axis=1)
                if evict.any():
                    w_idx = w_idx[~evict]
            w_idx = np.append(w_idx, i)
    keep[w_idx] = True
    return keep


def _null_bitmaps(mm: np.ndarray, diff: np.ndarray | None) -> np.ndarray:
    """Row-wise null bitmap over all skyline dimensions, encoded as an int."""
    nan = np.isnan(mm)
    if diff is not None:
        nan = np.concatenate([nan, np.isnan(diff)], axis=1)
    if not nan.shape[1]:
        return np.zeros(mm.shape[0], dtype=np.int64)
    weights = 1 << np.arange(nan.shape[1], dtype=np.int64)
    return nan.astype(np.int64) @ weights


def incomplete_local_skyline_mask(mm: np.ndarray, diff: np.ndarray | None) -> np.ndarray:
    """Local skyline for (potentially) incomplete data (§5.7).

    Partition rows by null bitmap; run a complete BNL per bitmap group
    restricted to the group's non-NULL dimensions.  Groups whose
    MIN/MAX dimensions are all NULL have no dominance relation and are
    kept wholesale.
    """
    n = mm.shape[0]
    keep = np.zeros(n, dtype=bool)
    if n == 0:
        return keep
    bitmaps = _null_bitmaps(mm, diff)
    for b in np.unique(bitmaps):
        rows = np.flatnonzero(bitmaps == b)
        g_mm = mm[rows]
        g_diff = None if diff is None else diff[rows]
        mm_cols = ~np.isnan(g_mm[0]) if g_mm.shape[1] else np.empty(0, dtype=bool)
        sub_mm = g_mm[:, mm_cols]
        sub_diff = None
        if g_diff is not None and g_diff.shape[1]:
            diff_cols = ~np.isnan(g_diff[0])
            sub_diff = g_diff[:, diff_cols] if diff_cols.any() else None
        if sub_mm.shape[1] == 0:
            keep[rows] = True  # no comparable dimension -> nothing dominates
            continue
        keep[rows] = bnl_skyline_mask(sub_mm, sub_diff)
    return keep


def incomplete_global_skyline_mask(mm: np.ndarray, diff: np.ndarray | None) -> np.ndarray:
    """Global skyline for incomplete data: all-pairs with deferred deletion.

    Every tuple is compared against every other tuple; dominated
    tuples are only *flagged* and all flags are applied at the end
    (Appendix A).  This is O(n²) but safe under cyclic dominance.
    """
    dominated = dm.dominated_mask_incomplete(mm, diff, mm, diff, exclude_self=True)
    return ~dominated


def naive_skyline_mask(mm: np.ndarray, diff: np.ndarray | None, *, incomplete: bool) -> np.ndarray:
    """Definitional O(n²) skyline — test oracle only."""
    n = mm.shape[0]
    keep = np.ones(n, dtype=bool)
    check = dm.any_dominates_incomplete if incomplete else dm.any_dominates_complete
    for i in range(n):
        others = np.arange(n) != i
        keep[i] = not check(
            mm[others], None if diff is None else diff[others],
            mm[i], None if diff is None else diff[i],
        )
    return keep
