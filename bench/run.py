"""Hermetic benchmark of the veridebate pipeline.

Run from the root of a checkout:

    python3 bench/run.py --workload ingest_cold --seed 1 --seconds 20 --trace 0

Workloads: ingest_cold, resume_warm, train_warm, remote_latency (see
workloads.py for what each stresses and why). BENCHMARK.json gates all
but resume_warm, whose read path train_warm also drives. Every process
this script starts runs with OpenBLAS pinned to one thread and ``src``
first on PYTHONPATH:

1. ``prepare`` writes the seeded dataset and prefills warm workspaces;
2. one ``measure`` process runs the workload for --seconds after one
   untimed warm-up run and checks every run's outputs. Between timed
   runs it starts fresh ``setup`` processes, 20 spread over the window,
   that time set-up (import veridebate, load_dataset, Pipeline
   construction).

With --trace 0 the result holds the end-to-end metrics from untraced
runs. With --trace 1 it holds the per-layer metrics, from traced runs
alternated with untraced ones so the tracing overhead is measured; the
spans are written to .bench_work/trace-<workload>-seed<n>.jsonl.

Workspaces live under .bench_work/ in the checkout and are deleted at
the end. Disk writeback is not measured: workspace.files_written and
workspace.bytes_written stand in for it.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER, STAGE_METRICS
from stats import describe

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("ingest_cold", "resume_warm", "train_warm", "remote_latency")
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ingest_items_per_s", "1/s"),
    ("train_samples_per_s", "1/s"),
    ("predict_items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH", "")) if p)
    return env


def run_child(mode: str, args, work: Path, env: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for {mode}")
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--dir", str(work), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    # A session of its own, so a timeout ends the worker's children too.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{mode} did not finish within {timeout:.0f} s") from exc
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def benchmark(args, root: Path) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + DEADLINE_S
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    env = child_env(root)
    try:
        run_child("prepare", args, work, env, deadline)
        measured = run_child("measure", args, work, env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(args, measured)


def summarize(args, measured: dict) -> tuple[dict, list[str]]:
    runs = measured["runs"]
    failed = sum(r["stage_failures"] or (1 if r["problems"] else 0) for r in runs)
    attempted = len(runs) * measured["items_per_run"]
    lines = [
        f"workload {args.workload} seed {args.seed}: {len(runs)} runs "
        f"({sum(r['traced'] for r in runs)} traced) of {measured['items_per_run']} items",
        f"failed_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} items)",
    ]
    lines += [f"check failed in run {i}: {p}" for i, r in enumerate(runs) for p in r["problems"]]
    samples = measured["samples"]
    if args.trace:
        layers = measured["layers"]
        untraced, traced = layers["trace.run_s_untraced"], layers["trace.run_s_traced"]
        stage_sum = sum(layers[name] for name in STAGE_METRICS)
        gap = stage_sum - untraced
        within = "within" if abs(gap) <= abs(traced - untraced) else "outside"
        lines += [
            f"tracing overhead {layers['trace.overhead_ratio']:+.2%}: run_s {traced:.6g} s "
            f"traced vs {untraced:.6g} s untraced",
            f"the six stage times sum to {stage_sum:.6g} s, {gap:+.6g} s from untraced run_s, "
            f"{within} the overhead; {layers['trace.unattributed_s']:.6g} s of a traced run "
            f"is in no stage span",
        ]
        metrics = {}
        for name, unit in PER_LAYER:
            value = measured["layers"].get(name)
            if value is None:
                lines.append(f"absent {name}: {measured['notes'][name]} (reported as 0)")
            metrics[name] = {"value": value or 0, "unit": unit}
    else:
        values = {name: statistics.median(data) for name, data in samples.items()}
        values["peak_rss_mb"] = measured["peak_rss_mb"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        lines += [f"{name} {describe(samples[name], unit)}"
                  for name, unit in END_TO_END if name in samples]
        lines.append(f"peak_rss_mb {values['peak_rss_mb']:.6g} MB (ru_maxrss of the measure process)")
    lines.append("env " + json.dumps(measured["env"], sort_keys=True))
    lines.append("disk writeback is not measured; workspace.files_written and "
                 "workspace.bytes_written (--trace 1) stand in for it")
    result = {"correct": failed == 0 and not any(r["problems"] for r in runs),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "veridebate" / "__init__.py").is_file():
        print(f"error: {root} is not a veridebate checkout (no src/veridebate)", file=sys.stderr)
        return 2
    try:
        result, lines = benchmark(args, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
