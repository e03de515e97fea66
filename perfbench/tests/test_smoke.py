"""Smoke test of the benchmark at tiny input sizes.

Run from the repository root (takes a few minutes; each run starts Spark):

    python3 -m pytest perfbench/tests -q

Every workload, including those ``BENCHMARK.json`` does not list, runs
once untraced and once traced; each must print, as its last line, a
correct result carrying exactly the metrics that ``BENCHMARK.json``
names, with their units. A traced run must report above 0 the figures
that each of its sources yields on that workload. The oracle itself is checked
against a DuckDB ``NOT EXISTS`` skyline, and the benchmark must refuse to
run where the program's sources are missing.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
from workloads import SIZES  # noqa: E402  (every runnable workload, listed or not)


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    # Output goes to files, not pipes: a pipe would also wait for any
    # process the run left behind holding it, and hide that process.
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        p = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err, text=True)
        p.wait(timeout=300)
        out.seek(0)
        err.seek(0)
        proc = subprocess.CompletedProcess(cmd, p.returncode, out.read(), err.read())
    proc.pid = p.pid
    return proc


def _left_running(pid: int) -> list[str]:
    """Processes still alive that the run with ``pid`` started (the JVM and Python
    workers inherit its run directory ``.work/run-<pid>`` in their environment)."""
    mark = f"/.work/run-{pid}/".encode()
    left = []
    for p in Path("/proc").iterdir():
        try:
            if p.name.isdigit() and mark in (p / "environ").read_bytes():
                left.append((p / "cmdline").read_bytes().replace(b"\0", b" ")[:120].decode())
        except OSError:
            continue
    return left


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SIZES))
def test_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert _left_running(proc.pid) == []
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values()), values
        return
    # The traced figures must come from the program: each source (event
    # log, UDF profiles, wrapped functions) has to yield its numbers.
    positive = TRACED_POSITIVE["all"] + TRACED_POSITIVE[workload]
    assert [k for k in positive if not values[k] > 0] == [], values
    if workload.startswith("ss-"):
        assert 0 < values["worker.kernel_share.local"] <= 1, values


# Per-layer metrics a traced run must report above 0, per workload. The
# skyline stages run on every workload; the kernels' sources show on
# store_sales, the SQL layers' only on mb-sql.
TRACED_POSITIVE = {
    "all": ["spark.stages", "spark.tasks", "spark.action_s", "spark.executor_run_s",
            "spark.skyline_local.tasks", "spark.skyline_local.max_task_s",
            "spark.skyline_global.s", "spark.skyline_global.rows_in", "physical.lower_s",
            "worker.stage_s.local", "self.spark.executor_s", "session.start_s", "warmup_s"],
    "ss-complete-6d": ["api.skyline_s", "physical.chose.distributed_complete",
                       "bnl.bnl_skyline_mask_calls", "bnl.bnl_skyline_mask_s",
                       "dominance.any_dominates_complete_calls"],
    "ss-incomplete-6d": ["api.skyline_s", "physical.chose.distributed_incomplete",
                         "bnl.bnl_skyline_mask_calls", "bnl.incomplete_local_skyline_mask_s",
                         "bnl.incomplete_global_skyline_mask_s"],
    "mb-sql": ["sqlext.sky_sql_s", "sqlext.parse_s", "sqlext.analyze_s", "optimizer.single_dim_rewrites",
               "physical.chose.reference", "physical.chose.distributed_complete",
               "physical.chose.distributed_incomplete", "query.mb-c1_s", "query.mb-c6-sort_s",
               "query.mb-i4_s", "query.mb-i4-ref_s"],
}


def _duckdb_skyline(x: np.ndarray, complete: bool) -> np.ndarray:
    """Listing-4 style NOT EXISTS skyline in DuckDB, null-aware unless complete."""
    import duckdb
    import pandas as pd

    d = x.shape[1]
    pdf = pd.DataFrame(x, columns=[f"c{j}" for j in range(d)]).assign(k=np.arange(len(x)))
    soft, strict = [], []
    for j in range(d):
        i, o = f"i.c{j}", f"o.c{j}"
        null = "" if complete else f" OR {i} IS NULL OR {o} IS NULL"
        soft.append(f"({i} <= {o}{null})")
        strict.append(f"({i} < {o})")
    cond = " AND ".join(soft + [f"({' OR '.join(strict)})"])
    con = duckdb.connect()
    try:
        con.register("t", pdf)
        got = con.execute(f"SELECT k FROM t o WHERE NOT EXISTS (SELECT 1 FROM t i WHERE {cond})").fetchdf()
    finally:
        con.close()
    mask = np.zeros(len(x), dtype=bool)
    mask[got["k"].to_numpy()] = True
    return mask


@pytest.mark.parametrize("complete", [True, False])
def test_oracle_matches_duckdb(complete):
    import oracle
    from repro.core.spec import DimType
    from repro.data.store_sales import STORE_SALES_DIMS, store_sales_pandas

    pdf = store_sales_pandas(n=1500, seed=5, complete=complete)
    x = oracle.oriented(pdf[[c for c, _ in STORE_SALES_DIMS]].to_numpy(),
                        [t is DimType.MAX for _, t in STORE_SALES_DIMS])
    for k in (1, 3, 6):
        want = _duckdb_skyline(x[:, :k], complete)
        assert np.array_equal(oracle.skyline_mask(x[:, :k], complete=complete), want), k


def test_refuses_without_program():
    bare = HERE / ".work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
