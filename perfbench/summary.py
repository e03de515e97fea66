"""One-command trace summary: per-layer self time and the local/global split.

Usage (from the repository root):

    python3 perfbench/summary.py [--seed 1] [--seconds 10] [--workload NAME ...]

Runs ``run.py --trace 1`` for each workload (all by default), then reads
the trace each run leaves in ``perfbench/.work/traces/<workload>.json``
and prints, per workload, the self time of every layer per traced pass
and the skyline's local and global stages with rows in and out.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRACES = HERE / ".work" / "traces"
LAYERS = ("bench", "api", "sqlext", "core.optimizer", "core.physical", "spark.driver", "spark.executor")


def summarize(trace: dict) -> str:
    m = {k: v["value"] for k, v in trace["metrics"].items()}
    lines = [f"== {trace['workload']} (seed {trace['seed']}), per traced pass =="]
    lines.append("self time by layer:")
    for layer in LAYERS:
        lines.append(f"  {layer:<16} {m.get(f'self.{layer}_s', 0.0):8.3f} s")
    lines.append(f"  (worker/kernels inside spark.executor: local stage UDF {m['worker.stage_s.local']:.3f} s, "
                 f"kernel share {m['worker.kernel_share.local']:.0%}; global stage UDF "
                 f"{m['worker.stage_s.global']:.3f} s; arrow->pandas {m['worker.arrow_to_pandas_s']:.3f} s)")
    for role in ("local", "global"):
        p = f"spark.skyline_{role}"
        extra = ""
        if role == "local":
            extra = (f", {m[p + '.busy_tasks']:.0f} with rows, "
                     f"slowest task {m[p + '.max_task_s']:.3f} s")
        lines.append(f"{role:>6} stage: {m[p + '.s']:.3f} s, {m[p + '.tasks']:.0f} tasks{extra}, "
                     f"rows {m[p + '.rows_in']:.0f} -> {m[p + '.rows_out']:.0f}")
    lines.append(f"spark: {m['spark.stages']:.0f} stages, {m['spark.tasks']:.0f} tasks, "
                 f"executor run {m['spark.executor_run_s']:.3f} s, action {m['spark.action_s']:.3f} s; "
                 f"trace overhead {m['trace.overhead_s']:+.3f} s")
    return "\n".join(lines)


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import SIZES

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="*", choices=sorted(SIZES), default=list(SIZES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args(argv)
    status = 0
    for name in args.workload:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "1"]
        if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
            print(f"== {name}: traced run failed ==")
            status = 1
            continue
        path = TRACES / f"{name}.json"
        if not path.is_file():
            print(f"== {name}: no trace at {path} ==")
            status = 1
            continue
        print(summarize(json.loads(path.read_text())))
    return status


if __name__ == "__main__":
    sys.exit(main())
