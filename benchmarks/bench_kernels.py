"""NumPy-only benchmark of the dominance kernels (no Spark).

Times the layer that dominates a skyline query's local stage: the
complete BNL kernel ``bnl.bnl_skyline_mask`` (elimination pre-filter
plus window loop), the incomplete local stage (a complete BNL per null
bitmap) and the incomplete global phase, on the repository's generators
with fixed seeds.  62,500 rows is one local-stage partition of the
250k-row store_sales query at 4 partitions.

    PYTHONPATH=src pytest benchmarks/bench_kernels.py --benchmark-only \\
        --benchmark-json=BENCH_kernels.json

Each cell records its input rows, skyline size and pre-filter survivors
in ``extra_info``; pytest-benchmark adds the machine and git commit.
"""
from __future__ import annotations

import functools
import os

import pytest

from repro.core import bnl
from repro.core.dominance import normalize_matrix
from repro.core.spec import SkylineSpec
from repro.data.airbnb import AIRBNB_DIMS, airbnb_dims, airbnb_pandas
from repro.data.store_sales import store_sales_dims, store_sales_pandas

SEED = 11


@functools.lru_cache(maxsize=None)
def _matrices(dataset: str, k: int, n: int, complete: bool = True):
    if dataset == "store_sales":
        pdf = store_sales_pandas(n=n, seed=SEED, complete=complete)
        dims = store_sales_dims(k)
    else:  # complete Airbnb: the listings with no NULL skyline dimension
        pdf = airbnb_pandas(n=int(n * 1.6), seed=SEED)
        pdf = pdf.dropna(subset=[c for c, _ in AIRBNB_DIMS]).head(n)
        assert len(pdf) == n
        dims = airbnb_dims(k)
    spec = SkylineSpec(tuple(dims), complete=complete)
    return normalize_matrix(pdf, spec, [d.expr for d in dims])


def _record(benchmark, mm, mask) -> None:
    benchmark.extra_info.update(rows=int(mm.shape[0]), skyline=int(mask.sum()), cores=os.cpu_count())


@pytest.mark.parametrize("dataset,k,n", [
    ("store_sales", 6, 62_500),
    ("store_sales", 6, 250_000),
    ("store_sales", 2, 250_000),
    ("airbnb", 6, 62_500),
    ("airbnb", 6, 250_000),
])
def test_bnl_skyline_mask(benchmark, dataset, k, n):
    mm, diff = _matrices(dataset, k, n)
    benchmark.group = "bnl_skyline_mask"
    mask = benchmark.pedantic(bnl.bnl_skyline_mask, args=(mm, diff), rounds=3, iterations=1)
    _record(benchmark, mm, mask)
    benchmark.extra_info["filter_survivors"] = int(bnl._prefilter(mm, diff).size)


def test_incomplete_local_skyline_mask(benchmark):
    mm, diff = _matrices("store_sales", 6, 62_500, complete=False)
    benchmark.group = "incomplete_local_skyline_mask"
    mask = benchmark.pedantic(bnl.incomplete_local_skyline_mask, args=(mm, diff), rounds=3, iterations=1)
    _record(benchmark, mm, mask)


def test_incomplete_global_skyline_mask(benchmark):
    mm, diff = _matrices("store_sales", 6, 3_000, complete=False)
    benchmark.group = "incomplete_global_skyline_mask"
    mask = benchmark.pedantic(bnl.incomplete_global_skyline_mask, args=(mm, diff), rounds=3, iterations=1)
    _record(benchmark, mm, mask)
