"""Independent skyline oracle for the benchmark's correctness check.

Plain NumPy, sharing no code with ``repro.core``: the expected answer of
every benchmark query is computed here from the generators' pandas
frames, before any Spark session runs, and compared with the rows the
system returns as a multiset of row keys.

Semantics (paper §3):

* complete — ``p`` dominates ``q`` iff ``p`` is no worse in every
  dimension and strictly better in at least one;
* incomplete (null-aware) — the same test restricted to the dimensions
  where both tuples are non-NULL; tuples sharing no non-NULL dimension
  are incomparable.

The complete skyline is a sort-filter skyline: rows are sorted by the
sum of their oriented values (ties broken lexicographically), so a row
can only be dominated by rows before it, and each block of rows is
filtered against the skyline found so far. The incomplete skyline first
reduces every null-bitmap group to its complete skyline on its non-NULL
dimensions, then keeps the group skylines' rows that no other group
skyline row dominates. That second step is exact: if any row ``p``
dominates ``q``, the member of ``p``'s group skyline that dominates (or
equals) ``p`` on all of ``p``'s non-NULL dimensions dominates ``q`` too.
"""
from __future__ import annotations

import numpy as np

__all__ = ["oriented", "skyline_mask"]

_BLOCK = 2048
_CHUNK = 64


def oriented(values: np.ndarray, maximize: list[bool]) -> np.ndarray:
    """Float matrix in which smaller is better in every column (NaN = NULL)."""
    x = np.asarray(values, dtype=np.float64).copy()
    for j, is_max in enumerate(maximize):
        if is_max:
            x[:, j] = -x[:, j]
    return x


def _dominated_by(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """For each row of ``x``: does some row of ``s`` dominate it (complete)?

    ``s`` is scanned in chunks, each against the rows of ``x`` still
    undominated; with ``s`` in ascending-sum order the first chunk holds
    the strongest dominators and removes most rows.
    """
    out = np.zeros(len(x), dtype=bool)
    alive = np.arange(len(x))
    for i in range(0, len(s), _CHUNK):
        if len(alive) == 0:
            break
        sc = s[None, i:i + _CHUNK, :]
        xa = x[alive, None, :]
        hit = ((sc <= xa).all(axis=2) & (sc < xa).any(axis=2)).any(axis=1)
        out[alive[hit]] = True
        alive = alive[~hit]
    return out


def _complete_mask(x: np.ndarray) -> np.ndarray:
    n, d = x.shape
    keep = np.zeros(n, dtype=bool)
    if n == 0:
        return keep
    # lexsort's last key is the primary one: sum first, then columns.
    order = np.lexsort(tuple(x[:, j] for j in reversed(range(d))) + (x.sum(axis=1),))
    xs = x[order]
    sky = np.empty((0, d))
    for start in range(0, n, _BLOCK):
        blk = xs[start:start + _BLOCK]
        alive = np.nonzero(~_dominated_by(sky, blk))[0]
        cand = blk[alive]
        own = ~_dominated_by(cand, cand)
        sky = np.vstack([sky, cand[own]])
        keep[order[start + alive[own]]] = True
    return keep


def _incomplete_dominated(x: np.ndarray) -> np.ndarray:
    """Null-aware all-pairs test over a (small) candidate set."""
    out = np.zeros(len(x), dtype=bool)
    nan = np.isnan(x)
    for i in range(len(x)):
        q, qn = x[i], nan[i]
        skip = nan | qn  # dimensions not shared with q count as "no worse"
        le = ((x <= q) | skip).all(axis=1)
        lt = ((x < q) & ~skip).any(axis=1)
        out[i] = bool((le & lt).any())
    return out


def skyline_mask(x: np.ndarray, *, complete: bool) -> np.ndarray:
    """Boolean mask of the skyline rows of oriented matrix ``x``."""
    if complete:
        if np.isnan(x).any():
            raise ValueError("complete skyline over data with NULLs")
        return _complete_mask(x)
    nan = np.isnan(x)
    bitmaps, group = np.unique(nan, axis=0, return_inverse=True)
    group = np.asarray(group).reshape(-1)
    keep = np.zeros(len(x), dtype=bool)
    for g, bitmap in enumerate(bitmaps):
        rows = np.nonzero(group == g)[0]
        local = _complete_mask(x[np.ix_(rows, np.nonzero(~bitmap)[0])])
        keep[rows[local]] = True
    cand = np.nonzero(keep)[0]
    keep[cand[_incomplete_dominated(x[cand])]] = False
    return keep
