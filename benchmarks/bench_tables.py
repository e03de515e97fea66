"""pytest-benchmark suite for paper Tables 3–12.

Regenerates a subset of each table's grid at bench scale (see
benchmarks/common.py); the full-scale numbers recorded in EXPERIMENTS.md
come from ``python jobs/run_table.py --table N``.
"""
import pytest

from repro.bench.tables import table_def

from benchmarks.common import run_cell_benchmark

#: Benchmarked sweep values per table (the dims / tuples / executors axis).
SWEEP_SUBSETS = {
    3: [1, 6],
    4: [1, 6],
    5: [1, 2, 6],
    6: [1, 6],
    7: [1_000_000, 10_000_000],
    8: [1_000_000, 10_000_000],
    9: [1, 5, 10],
    10: [1, 10],
    11: [1, 10],
    12: [1, 10],
}

CELLS = [
    pytest.param(table, value, algorithm, id=f"table{table:02d}-{value}-{algorithm}")
    for table, values in SWEEP_SUBSETS.items()
    for value in values
    for algorithm in table_def(table).algorithms
]


@pytest.mark.parametrize("table,sweep_value,algorithm", CELLS)
def test_table(spark, benchmark, table, sweep_value, algorithm):
    benchmark.group = f"table{table:02d}:{table_def(table).sweep}={sweep_value}"
    run_cell_benchmark(spark, benchmark, table, sweep_value, algorithm)
