"""Traced runs: driver spans, Spark's event log and the Python UDF profiler.

Nothing under ``src/`` is instrumented. Driver-side spans come from
wrapping the public functions of each module for the duration of the
traced loop (:func:`instrumented`); Spark stages and tasks come from the
event log (``spark.eventLog.enabled``); Python worker and kernel times
come from Spark's built-in UDF profiler (``spark.sql.pyspark.udf.profiler
= perf``), dumped after every query with ``spark.profile.dump``.

Spans carry name, start, end, parent span and the query id; Spark stages
become child spans of the query's ``spark.action`` span. A layer's self
time is its spans' duration minus the part covered by their children.
Per-layer metrics are medians over the traced passes of per-pass sums.
"""
from __future__ import annotations

import functools
import itertools
import json
import pstats
import statistics
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

# span name -> layer (module) it times
LAYER = {
    "query": "bench",
    "api.skyline": "api",
    "sqlext.sky_sql": "sqlext",
    "sqlext.parse": "sqlext",
    "sqlext.analyze": "sqlext",
    "sqlext.rewrite": "sqlext",
    "optimizer.optimize": "core.optimizer",
    "physical.lower": "core.physical",
    "physical.select_algorithm": "core.physical",
    "spark.action": "spark.driver",
    "spark.stage": "spark.executor",
}
MB_QUERIES = ("mb-c1", "mb-c6-sort", "mb-i4", "mb-i4-ref")

# (file, function) -> metric for cumulative seconds; the profiler strips
# directories from file names
_PROFILED_S = {
    ("dominance.py", "normalize_matrix"): "dominance.normalize_matrix_s",
    ("bnl.py", "bnl_skyline_mask"): "bnl.bnl_skyline_mask_s",
    ("bnl.py", "incomplete_local_skyline_mask"): "bnl.incomplete_local_skyline_mask_s",
    ("bnl.py", "incomplete_global_skyline_mask"): "bnl.incomplete_global_skyline_mask_s",
    ("dominance.py", "dominated_mask_complete"): "dominance.dominated_mask_complete_s",
    ("dominance.py", "dominated_mask_incomplete"): "dominance.dominated_mask_incomplete_s",
}
_PROFILED_CALLS = {
    ("bnl.py", "bnl_skyline_mask"): "bnl.bnl_skyline_mask_calls",
    ("dominance.py", "any_dominates_complete"): "dominance.any_dominates_complete_calls",
}
_KERNELS = ("bnl_skyline_mask", "incomplete_local_skyline_mask", "incomplete_global_skyline_mask")


class Tracer:
    """In-memory spans and counters; inert until ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self) -> dict | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, **attrs):
        return self._span(name, attrs) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str, attrs: dict):
        parent = self.current()
        sp = {"id": next(self._ids), "name": name, "parent": parent and parent["id"],
              "qid": attrs.pop("qid", parent and parent["qid"]), **attrs}
        self._stack().append(sp)
        sp["start"] = time.time()
        try:
            yield
        finally:
            sp["end"] = time.time()
            self._stack().pop()
            self.spans.append(sp)

    def count(self, name: str) -> None:
        cur = self.current()
        self.counts[(cur and cur["qid"], name)] += 1


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap the layers' public functions with spans and counters."""
    from repro import api, sqlext
    from repro.core import optimizer, physical, plan
    from repro.sqlext import analyzer, engine

    saved = []

    def wrap(owner, attr, name=None, on_call=None, nested=True):
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*a, **k):
            if on_call is not None:
                on_call(a, k)
            cur = tracer.current()
            if name is None or (not nested and cur is not None and cur["name"] == name):
                return orig(*a, **k)
            with tracer.span(name):
                return orig(*a, **k)

        saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def chose_explicit(a, k):
        if k.get("algorithm"):
            tracer.count(f"physical.chose.{k['algorithm']}")

    wrap(api, "skyline", "api.skyline")
    wrap(sqlext, "sky_sql", "sqlext.sky_sql")
    wrap(engine, "parse_skyline_query", "sqlext.parse")
    wrap(analyzer, "resolve", "sqlext.analyze")
    wrap(engine, "reference_sql", "sqlext.rewrite",
         on_call=lambda a, k: tracer.count("physical.chose.reference"))
    wrap(optimizer, "optimize", "optimizer.optimize")
    wrap(plan, "execute", "physical.lower", nested=False)
    wrap(physical, "compute_skyline", on_call=chose_explicit)
    orig_select = physical.select_algorithm

    @functools.wraps(orig_select)
    def select_algorithm(*a, **k):
        with tracer.span("physical.select_algorithm"):
            algo = orig_select(*a, **k)
        tracer.count(f"physical.chose.{algo}")
        return algo

    saved.append((physical, "select_algorithm", orig_select))
    physical.select_algorithm = select_algorithm
    rewrite_call = optimizer.SingleDimensionRewrite.__call__

    def single_dim(self, node):
        out = rewrite_call(self, node)
        if out is not node:
            tracer.count("optimizer.single_dim_rewrites")
        return out

    saved.append((optimizer.SingleDimensionRewrite, "__call__", rewrite_call))
    optimizer.SingleDimensionRewrite.__call__ = single_dim
    try:
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def traced_loop(bench, queries, seconds: float) -> dict:
    """Timed rounds of an untraced pass (tag ``p``) and a traced one (``t``).

    A traced pass runs with spans, wrapped public functions and the UDF
    profiler, whose profiles are dumped after every query. Alternating
    keeps warm-up drift out of the comparison of the two.
    """
    spark = bench.spark
    prof_dir = bench.run_dir / "profiles"
    spark.profile.clear(type="perf")

    def dump(qid: str) -> None:
        spark.profile.dump(str(prof_dir / qid), type="perf")
        spark.profile.clear(type="perf")

    @contextmanager
    def tracing():
        spark.conf.set("spark.sql.pyspark.udf.profiler", "perf")
        bench.tracer.enabled = True
        try:
            with instrumented(bench.tracer):
                yield dump
        finally:
            bench.tracer.enabled = False
            spark.conf.unset("spark.sql.pyspark.udf.profiler")

    loop = bench._timed_passes(queries, seconds, (("p", None), ("t", tracing)))
    loop["profiles"] = prof_dir
    return loop


# ---------------------------------------------------------------------------
# Spark event log
# ---------------------------------------------------------------------------

def _plan_nodes(info: dict, out: list, parent_mip: bool = False) -> bool:
    """Append each MapInPandas node's row-count accumulators and skyline role.

    A MapInPandas above another one is the global stage, one below is a
    local stage, and one alone is a single-stage (global) skyline.
    Returns whether ``info``'s subtree holds a MapInPandas node.
    """
    name = info["nodeName"]
    is_mip = name == "MapInPandas"
    below = [_plan_nodes(c, out, parent_mip or is_mip) for c in info["children"]]
    if is_mip:
        metrics = {m["name"]: m["accumulatorId"] for m in info["metrics"]}
        role = "global" if any(below) or not parent_mip else "local"
        out.append({"rows_out": metrics.get("number of output rows"),
                    "rows_in": _first_rows(info["children"]), "role": role})
    return is_mip or any(below)


def _first_rows(children: list) -> int | None:
    for c in children:
        metrics = {m["name"]: m["accumulatorId"] for m in c["metrics"]}
        for key in ("records read", "number of output rows"):
            if key in metrics:
                return metrics[key]
        found = _first_rows(c["children"])
        if found is not None:
            return found
    return None


def parse_event_log(path: Path) -> dict:
    """Per query id: stages with timing, tasks and skyline roles."""
    exec_plan: dict[int, dict] = {}
    exec_group: dict[int, str] = {}
    stage_group: dict[int, str] = {}
    stages: dict[int, dict] = {}
    tasks: dict[int, list] = defaultdict(list)
    acc_value: dict[int, float] = {}
    with open(path) as f:
        for line in f:
            e = json.loads(line)
            kind = e["Event"]
            if kind.endswith("SQLExecutionStart") or kind.endswith("SQLAdaptiveExecutionUpdate"):
                exec_plan[e["executionId"]] = e["sparkPlanInfo"]
            elif kind == "SparkListenerJobStart":
                props = e.get("Properties") or {}
                group = props.get("spark.jobGroup.id")
                if group is None:
                    continue
                if "spark.sql.execution.id" in props:
                    exec_group[int(props["spark.sql.execution.id"])] = group
                for sid in e["Stage IDs"]:
                    stage_group[sid] = group
            elif kind == "SparkListenerStageCompleted":
                si = e["Stage Info"]
                accs = {a["ID"]: a for a in si.get("Accumulables", [])}
                for aid, a in accs.items():
                    try:
                        acc_value[aid] = max(acc_value.get(aid, 0.0), float(a["Value"]))
                    except (TypeError, ValueError):
                        pass
                named = {a["Name"]: float(a["Value"]) for a in accs.values()
                         if a.get("Name", "").startswith("internal.metrics.")}
                stages[si["Stage ID"]] = {
                    "id": si["Stage ID"], "tasks": si["Number of Tasks"],
                    "start": si["Submission Time"] / 1000.0, "end": si["Completion Time"] / 1000.0,
                    "run_s": named.get("internal.metrics.executorRunTime", 0.0) / 1000.0,
                    "shuffle_write_mb": named.get("internal.metrics.shuffle.write.bytesWritten", 0.0) / 2**20,
                    "shuffle_read_records": named.get("internal.metrics.shuffle.read.recordsRead", 0.0),
                    "acc_ids": set(accs),
                }
            elif kind == "SparkListenerTaskEnd":
                ti = e["Task Info"]
                tasks[e["Stage ID"]].append({
                    "s": (ti["Finish Time"] - ti["Launch Time"]) / 1000.0,
                    "updates": {a["ID"]: a.get("Update") for a in ti.get("Accumulables", [])},
                })

    queries: dict[str, dict] = defaultdict(lambda: {"stages": [], "mip": []})
    for sid, st in stages.items():
        group = stage_group.get(sid)
        if group is not None:
            st["task_s"] = [t["s"] for t in tasks.get(sid, [])]
            st["task_updates"] = [t["updates"] for t in tasks.get(sid, [])]
            queries[group]["stages"].append(st)
    for eid, info in exec_plan.items():
        group = exec_group.get(eid)
        if group is None:
            continue
        nodes: list = []
        _plan_nodes(info, nodes)
        for n in nodes:
            n["rows_out_v"] = acc_value.get(n["rows_out"], 0.0)
            n["rows_in_v"] = acc_value.get(n["rows_in"], 0.0)
        queries[group]["mip"].extend(nodes)
    return dict(queries)


def _stage_metrics(q: dict) -> dict:
    m = Counter()
    m["spark.stages"] = len(q["stages"])
    for st in q["stages"]:
        m["spark.tasks"] += st["tasks"]
        m["spark.executor_run_s"] += st["run_s"]
        m["spark.shuffle_write_mb"] += st["shuffle_write_mb"]
        m["spark.shuffle_read_records"] += st["shuffle_read_records"]
    max_task = 0.0
    for node in q["mip"]:
        role = node["role"]
        m[f"spark.skyline_{role}.rows_in"] += node["rows_in_v"]
        m[f"spark.skyline_{role}.rows_out"] += node["rows_out_v"]
        for st in q["stages"]:
            if node["rows_out"] not in st["acc_ids"]:
                continue
            m[f"spark.skyline_{role}.s"] += st["end"] - st["start"]
            m[f"spark.skyline_{role}.tasks"] += st["tasks"]
            if role == "local":
                max_task = max([max_task, *st["task_s"]])
                m["spark.skyline_local.busy_tasks"] += sum(
                    1 for u in st["task_updates"] if float(u.get(node["rows_out"]) or 0) > 0)
            st["kind"] = f"skyline_{role}"
    m["spark.skyline_local.max_task_s"] = max_task
    return m


# ---------------------------------------------------------------------------
# UDF profiles
# ---------------------------------------------------------------------------

def _profile_metrics(qdir: Path) -> Counter:
    """Worker and kernel metrics of one query from its dumped UDF profiles."""
    m = Counter()
    udfs = []
    for f in qdir.glob("udf_*_perf.pstats"):
        udfs.append((int(f.name.split("_")[1]), pstats.Stats(str(f)).stats))
    udfs.sort(key=lambda u: u[0])
    complete = [u for u in udfs if _funcs(u[1], "bnl_skyline_mask")]
    for i, (uid, stats) in enumerate(udfs):
        if _funcs(stats, "incomplete_local_skyline_mask"):
            role = "local"
        elif _funcs(stats, "incomplete_global_skyline_mask"):
            role = "global"
        else:  # complete: local stage UDF is created before the global one
            role = "local" if len(complete) > 1 and (uid, stats) == complete[0] else "global"
        stage_s = sum(v[3] for k, v in _funcs(stats, "stage").items() if k[0].endswith("physical.py"))
        # The incomplete kernels call the complete one: count the outermost only.
        kernel_s = max(sum(v[3] for v in _funcs(stats, name).values()) for name in _KERNELS)
        m[f"worker.stage_s.{role}"] += stage_s
        m[f"worker.kernel_s.{role}"] += kernel_s
        arrow = [v[3] for v in _funcs(stats, "arrow_to_pandas").values()]
        m["worker.arrow_to_pandas_s"] += max(arrow, default=0.0)
        for (fn, name), metric in _PROFILED_S.items():
            m[metric] += sum(v[3] for k, v in _funcs(stats, name).items() if k[0].endswith(fn))
        for (fn, name), metric in _PROFILED_CALLS.items():
            m[metric] += sum(v[1] for k, v in _funcs(stats, name).items() if k[0].endswith(fn))
    return m


def _funcs(stats: dict, name: str) -> dict:
    return {k: v for k, v in stats.items() if k[2] == name}


# ---------------------------------------------------------------------------
# Self time and the per-layer metrics
# ---------------------------------------------------------------------------

def _covered(children: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, cur = 0.0, lo
    for s, e in sorted(children):
        s, e = max(s, cur), min(e, hi)
        if e > s:
            total += e - s
            cur = e
    return total


def self_times(spans: list[dict]) -> Counter:
    """Per layer: span durations minus their children's (union) coverage.

    Spark stages run in parallel, so the executor layer's time is the
    union of a query's stage intervals within its ``spark.action`` span.
    """
    kids = defaultdict(list)
    for sp in spans:
        if sp["parent"] is not None:
            kids[sp["parent"]].append((sp["start"], sp["end"]))
    out = Counter()
    for sp in spans:
        if sp["name"] == "spark.stage":
            continue
        covered = _covered(kids[sp["id"]], sp["start"], sp["end"])
        out[LAYER[sp["name"]]] += sp["end"] - sp["start"] - covered
        if sp["name"] == "spark.action":
            out[LAYER["spark.stage"]] += covered
    return out


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer_metrics(bench, loop: dict, setup: dict, app_id: str, traces_dir: Path) -> dict:
    """Every ``per_layer`` metric of BENCHMARK.json, with its unit."""
    tracer = bench.tracer
    log = parse_event_log(bench.run_dir / "events" / app_id)
    spans = list(tracer.spans)
    next_id = max((s["id"] for s in spans), default=0) + 1
    action_of = {s["qid"]: s for s in spans if s["name"] == "spark.action"}

    per_pass: dict[str, Counter] = defaultdict(Counter)
    for qid, q in log.items():
        if not qid.startswith("t") or qid not in action_of:
            continue
        pass_id = qid.split("-", 1)[0]
        per_pass[pass_id].update(_stage_metrics(q))
        per_pass[pass_id].update(_profile_metrics(loop["profiles"] / qid))
        for st in q["stages"]:
            spans.append({"id": next_id, "name": "spark.stage", "parent": action_of[qid]["id"],
                          "qid": qid, "stage": st["id"], "kind": st.get("kind", "other"),
                          "tasks": st["tasks"], "start": st["start"], "end": st["end"]})
            next_id += 1
    for (qid, name), n in tracer.counts.items():
        if qid:
            per_pass[qid.split("-", 1)[0]][name] += n
    by_qid = defaultdict(list)
    for sp in spans:
        by_qid[sp["qid"]].append(sp)
    for qid, group in by_qid.items():
        p = per_pass[qid.split("-", 1)[0]]
        for layer, s in self_times(group).items():
            p[f"self.{layer}_s"] += s
        for sp in group:
            if sp["name"] != "spark.stage":
                p[f"{sp['name']}_s"] += sp["end"] - sp["start"]
    for p in per_pass.values():
        local = p.get("worker.stage_s.local", 0.0)
        p["worker.kernel_share.local"] = p.get("worker.kernel_s.local", 0.0) / local if local else 0.0

    untraced, traced = loop["p"], loop["t"]
    values = {
        "session.start_s": setup["session_s"],
        "data.generate_s": setup["generate_s"],
        "data.load_s": setup["load_s"],
        "warmup_s": setup["warmup_s"],
        "trace.overhead_s": _median(traced["passes"]) - _median(untraced["passes"]),
    }
    for name in MB_QUERIES:
        values[f"query.{name}_s"] = _median(untraced["per_query"].get(name, []))
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    for m in spec["per_layer"]:
        if m["name"] not in values:
            values[m["name"]] = _median(p.get(m["name"], 0.0) for p in per_pass.values())
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in spec["per_layer"]}
    traces_dir.mkdir(parents=True, exist_ok=True)
    out = traces_dir / f"{bench.workload.name}.json"
    out.write_text(json.dumps({"workload": bench.workload.name, "seed": bench.args.seed,
                               "metrics": metrics, "spans": spans}, default=str))
    return metrics
