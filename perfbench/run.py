"""Skyline benchmark: named workloads through the public entry points.

Usage (from the repository root):

    python3 perfbench/run.py --workload ss-complete-6d --seed 1 --seconds 10 --trace 0

One process is one closed-loop client: it sends the next query only
after the previous one has finished. Spark runs as ``local[N]`` with
N = min(4, cores) and the repository's session settings (64 shuffle
partitions, Arrow on, broadcast joins off).

A run

1. generates the workload's inputs from ``--seed`` and computes the
   oracle's answers (neither is timed);
2. sets up once: SparkSession start (JVM launch included), data
   generation, load/persist/materialize, and one warm-up pass whose
   answers are checked against the oracle; that is ``setup_s``;
3. runs passes over the query list for ``--seconds`` (noop sink); the
   first ``WARM_ROUNDS`` are not recorded, and ``query_s`` is the median
   time of the others. A pass is timed from the API call to the last
   row written, summed over the pass's queries.

With ``--trace 1`` Spark's event log is on for the whole session and
the timed passes alternate: an untraced pass, then one with driver spans
and the Python UDF profiler on. The run prints per-layer metrics instead
(see ``tracing.py``).

The last stdout line is the result object; the line before it holds
provenance and sample counts. Everything the run writes goes under
``perfbench/.work/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

WARM_ROUNDS = 2  # the JVM still speeds up over the first passes after set-up
MIN_PASSES = 3
QUERY_TIMEOUT_S = 40.0
SHUFFLE_PARTITIONS = 64
DRIVER_MEMORY = "2g"


def _cores() -> int:
    return min(4, len(os.sched_getaffinity(0)))


def _configure_env(run_dir: Path) -> None:
    """Environment for the Spark JVM and Python workers; before pyspark starts."""
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{_cores()}] --driver-memory {DRIVER_MEMORY} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false pyspark-shell"
    )
    sys.path[:0] = [str(SRC), str(HERE)]


def _session(run_dir: Path, trace: bool):
    from pyspark.sql import SparkSession

    b = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", str(run_dir / "warehouse"))
        .config("spark.ui.showConsoleProgress", "false")
    )
    if trace:
        events = run_dir / "events"
        events.mkdir(exist_ok=True)
        b = (b.config("spark.eventLog.enabled", "true")
             .config("spark.eventLog.dir", events.as_uri())
             .config("spark.eventLog.compress", "false")
             .config("spark.eventLog.rolling.enabled", "false"))
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _parents() -> dict[int, int]:
    """pid -> parent pid of every process visible in /proc."""
    parent: dict[int, int] = {}
    for p in Path("/proc").iterdir():
        if p.name.isdigit():
            try:
                stat = (p / "stat").read_text()
                parent[int(p.name)] = int(stat[stat.rindex(")") + 2:].split()[1])
            except (OSError, ValueError):
                continue
    return parent


def _descendants() -> list[int]:
    """Every process started under this one: the Spark JVM, its Python workers, ..."""
    parent = _parents()

    def ours(pid: int) -> bool:
        while pid in parent:
            pid = parent[pid]
            if pid == os.getpid():
                return True
        return False

    return [pid for pid in parent if ours(pid)]


def _worker_peak_rss_mb() -> float:
    """Largest VmHWM of this run's PySpark Python workers (daemon and forks)."""
    peak_kb = 0
    for pid in _descendants():
        try:
            cmd = Path(f"/proc/{pid}/cmdline").read_bytes()
            if b"pyspark.daemon" not in cmd and b"pyspark/daemon.py" not in cmd:
                continue
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    peak_kb = max(peak_kb, int(line.split()[1]))
        except (OSError, ValueError):
            continue
    return peak_kb / 1024.0


def _become_subreaper() -> None:
    """Adopt orphaned descendants (Python workers outlive the JVM briefly), so they can be waited for."""
    try:
        import ctypes
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _stop_all(spark, grace_s: float = 30.0) -> None:
    """Stop Spark and its JVM, then wait until every process started under this one has ended.

    ``SparkSession.stop`` leaves the py4j gateway JVM running until the
    interpreter exits, and the JVM then ends on its own, after this
    process. Here the JVM is told to exit (its stdin is closed) and is
    waited for; stragglers are killed once ``grace_s`` has passed.
    """
    if spark is not None:
        try:
            spark.stop()
        except Exception:  # the JVM may be gone already; it is stopped below either way
            traceback.print_exc(limit=2)
    if "pyspark" in sys.modules:
        from pyspark import SparkContext

        gateway, SparkContext._gateway, SparkContext._jvm = SparkContext._gateway, None, None
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            if proc.stdin is not None:
                proc.stdin.close()
            try:
                proc.wait(grace_s)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    deadline, killed = time.monotonic() + grace_s, False
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        left = _descendants()
        if not left:
            return
        if time.monotonic() > deadline:
            if killed:
                print(f"perfbench: processes {left} did not end", file=sys.stderr)
                return
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            deadline, killed = time.monotonic() + 10.0, True
        time.sleep(0.05)


def _provenance(spark, args, workload) -> dict:
    import duckdb
    import pandas
    import pyarrow
    import pyspark

    ram_kb = 0
    for line in Path("/proc/meminfo").read_text().splitlines():
        if line.startswith("MemTotal:"):
            ram_kb = int(line.split()[1])
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for f in sorted((SRC / "repro").rglob("*.py")):
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(ram_kb / 2**20, 1),
        "spark_master": spark.sparkContext.master,
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "pyspark": pyspark.__version__,
        "numpy": np.__version__,
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
        "duckdb": duckdb.__version__,
        "workload": workload.name,
        "rows": workload.n,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
    }


class Bench:
    """One benchmark run: setup, checked warm-up passes, timed passes."""

    def __init__(self, args, run_dir: Path) -> None:
        from tracing import Tracer
        from workloads import WORKLOADS

        self.args = args
        self.run_dir = run_dir
        self.workload = WORKLOADS[args.workload](args.seed, args.scale)
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.spark = None

    # -- one query -----------------------------------------------------
    def _run_query(self, q, qid: str, collect: bool):
        """Run ``q`` under job group ``qid``; (seconds, keys) or None on failure."""
        self.attempted += 1
        sc = self.spark.sparkContext
        tr = self.tracer
        box: dict = {}

        def body() -> None:
            sc.setJobGroup(qid, q.name, interruptOnCancel=True)
            try:
                with tr.span("query", qid=qid, query=q.name):
                    t0 = time.perf_counter()
                    df = q.build(self.spark)
                    with tr.span("spark.action"):
                        if collect:
                            box["keys"] = df.select(q.key).toPandas()[q.key].to_numpy()
                        else:
                            df.write.format("noop").mode("overwrite").save()
                    box["t"] = time.perf_counter() - t0
            except Exception:  # reported as a failed query, run continues
                box["err"] = traceback.format_exc(limit=3)

        th = threading.Thread(target=body, daemon=True)
        th.start()
        th.join(QUERY_TIMEOUT_S)
        if th.is_alive():
            sc.cancelJobGroup(qid)
            th.join(30.0)
            box["err"] = f"timeout after {QUERY_TIMEOUT_S:.0f} s"
        if "err" in box:
            self._fail(f"{qid} {q.name}: {box['err']}")
            return None
        return box["t"], box.get("keys")

    def _fail(self, msg: str) -> None:
        self.failed += 1
        self.errors.append(msg)
        print(f"perfbench: FAILED {msg}", file=sys.stderr)

    # -- passes --------------------------------------------------------
    def _checked_pass(self, queries, expected, tag: str) -> None:
        for q in queries:
            out = self._run_query(q, f"{tag}-{q.name}", collect=True)
            if out is None:
                continue
            got = np.sort(out[1])
            want = expected[q.name]
            if len(got) != len(want) or not np.array_equal(got, want):
                self._fail(f"{tag} {q.name}: {len(got)} rows differ from the oracle's {len(want)}")

    def _one_pass(self, queries, tag: str, after_query=None):
        """One pass over ``queries``: (seconds, per-query seconds), or None on a failure."""
        total, per_query = 0.0, {}
        for q in queries:
            qid = f"{tag}-{q.name}"
            out = self._run_query(q, qid, collect=False)
            if out is None:
                return None
            total += out[0]
            per_query[q.name] = out[0]
            if after_query is not None:
                after_query(qid)
        return total, per_query

    def _timed_passes(self, queries, seconds: float, modes=(("p", None),)) -> dict:
        """Closed loop of rounds for ``seconds``; per mode tag, pass and per-query seconds.

        A round runs one pass in each mode, in order. A mode is a tag (the
        prefix of its query ids) and None or a context manager factory
        whose value is called with each query id after the query. The
        first ``WARM_ROUNDS`` rounds are not recorded. A round starts only
        if one more round of the last round's length fits in ``seconds``,
        except that ``MIN_PASSES`` recorded rounds always run.
        """
        out = {tag: {"passes": [], "per_query": {q.name: [] for q in queries}} for tag, _ in modes}
        start = time.perf_counter()
        rounds, last = 0, 0.0
        while rounds < WARM_ROUNDS + MIN_PASSES or time.perf_counter() - start + last <= seconds:
            t0 = time.perf_counter()
            for tag, mode in modes:
                with (mode() if mode is not None else nullcontext()) as after_query:
                    res = self._one_pass(queries, f"{tag}{rounds}", after_query)
                if res is None:
                    return out
                if rounds < WARM_ROUNDS:
                    continue
                out[tag]["passes"].append(res[0])
                for name, s in res[1].items():
                    out[tag]["per_query"][name].append(s)
            rounds += 1
            last = time.perf_counter() - t0
        return out

    # -- the run -------------------------------------------------------
    def run(self) -> dict:
        wl = self.workload
        trace = bool(self.args.trace)
        data = wl.generate()
        expected = wl.expected(data)  # outside setup_s and the timed region
        queries = wl.queries()
        del data

        t0 = time.perf_counter()
        self.spark = _session(self.run_dir, trace)
        t1 = time.perf_counter()
        data = wl.generate()
        t2 = time.perf_counter()
        wl.load(self.spark, data)
        t3 = time.perf_counter()
        del data
        self._checked_pass(queries, expected, "w")
        t4 = time.perf_counter()
        setup = {"session_s": t1 - t0, "generate_s": t2 - t1, "load_s": t3 - t2,
                 "warmup_s": t4 - t3, "total_s": t4 - t0}

        if trace:
            from tracing import traced_loop
            loop = traced_loop(self, queries, self.args.seconds)
        else:
            loop = self._timed_passes(queries, self.args.seconds)
        passes, per_query = loop["p"]["passes"], loop["p"]["per_query"]
        traced = loop.get("t")
        rss_mb = _worker_peak_rss_mb()
        prov = _provenance(self.spark, self.args, wl)
        app_id = self.spark.sparkContext.applicationId
        _stop_all(self.spark)
        self.spark = None

        # No complete pass: every query counts as having hit the timeout.
        query_s = statistics.median(passes) if passes else QUERY_TIMEOUT_S * len(queries)
        detail = {
            "provenance": prov,
            "samples": {"timed_passes": len(passes),
                        "traced_passes": len(traced["passes"]) if traced else 0},
            "fail_ratio": {"value": self.failed / max(1, self.attempted), "unit": "fraction"},
            "pass_s": passes,
            "query_median_s": {k: statistics.median(v) if v else None for k, v in per_query.items()},
            "setup": setup,
            "errors": self.errors,
        }
        if trace:
            from tracing import per_layer_metrics
            metrics = per_layer_metrics(self, loop, setup, app_id, WORK / "traces")
        else:
            metrics = {
                "query_s": {"value": query_s, "unit": "s"},
                "setup_s": {"value": setup["total_s"], "unit": "s"},
                "success_ratio": {"value": 1.0 - self.failed / max(1, self.attempted),
                                  "unit": "fraction"},
                "worker_peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
        return {"detail": detail, "metrics": metrics}


def main(argv=None) -> int:
    from workloads import SIZES

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("bench", "smoke"), default="bench",
                    help="input sizes: the benchmark's, or tiny ones for the smoke test")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    _become_subreaper()
    # A SIGTERM ends the run through the ``finally`` below, which stops every process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _configure_env(run_dir)
    bench = Bench(args, run_dir)
    try:
        out = bench.run()
    finally:
        _stop_all(bench.spark)
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"perfbench": out["detail"]}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": out["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
