"""One benchmark process: ``prepare``, ``setup`` or ``measure``.

Started by run.py with OPENBLAS_NUM_THREADS pinned and ``src`` on
PYTHONPATH. Prints one JSON object as its last line of output.

  prepare  write the dataset and prefill a warm workload's workspace
  setup    time import + load_dataset + Pipeline(...) in this fresh process
  measure  run the workload repeatedly for --seconds and check outputs,
           with a setup probe after each timed run
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from layers import SUBDIRS, layer_metrics
from stats import median
from tracing import Instrumentation, Tracer

# Set-up probes per result, started at an even pace through the window.
SETUP_PROBES = 20


def machine_info(path: Path, seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    fs = filesystem_type(path)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workspace_fs": fs,
        "workspace_in_memory": fs in ("tmpfs", "ramfs"),
        "seed": seed,
    }


def filesystem_type(path: Path) -> str:
    """Type of the mount holding ``path``, from /proc/self/mountinfo."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as fh:
            for line in fh:
                fields, _, rest = line.partition(" - ")
                mount = fields.split()[4].replace("\\040", " ")
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, rest.split()[0]
    except (OSError, IndexError):
        pass
    return fstype


def tree_state(root: Path) -> dict[str, tuple[int, int, int]]:
    """Relative path -> (mtime_ns, inode, size) for every file under root."""
    state = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            st = os.stat(os.path.join(dirpath, name))
            state[os.path.relpath(os.path.join(dirpath, name), root)] = (
                st.st_mtime_ns, st.st_ino, st.st_size)
    return state


def files_written(before: dict, after: dict) -> dict[str, int]:
    """Files created or rewritten between two tree states, in total and
    per workspace subdirectory."""
    written = {path: entry[2] for path, entry in after.items() if before.get(path) != entry}
    out = {"workspace.files_written": len(written),
           "workspace.bytes_written": sum(written.values())}
    for key, subdir in SUBDIRS:
        sizes = [size for path, size in written.items() if path.startswith(subdir + os.sep)]
        out[f"workspace.{key}.files"] = len(sizes)
        out[f"workspace.{key}.bytes"] = sum(sizes)
    return out


def cmd_prepare(args) -> dict:
    from workloads import WORKLOADS, prepare

    start = time.perf_counter()
    prepare(WORKLOADS[args.workload], args.seed, Path(args.dir))
    return {"prepare_s": time.perf_counter() - start}


def cmd_setup(args) -> dict:
    start = time.perf_counter()
    from veridebate.evaluation import load_dataset
    from workloads import WORKLOADS, dataset_path

    root = Path(args.dir)
    load_dataset(dataset_path(root))
    WORKLOADS[args.workload].pipeline(root / f"setup{os.getpid()}")
    return {"setup_s": time.perf_counter() - start}


def setup_probe(args) -> float:
    """Set-up time of a fresh ``setup`` process; probes are spread over
    the measuring window so their median sees the same machine as the
    runs do."""
    cmd = [sys.executable, os.path.abspath(__file__), "setup", "--workload", args.workload,
           "--seed", str(args.seed), "--dir", args.dir, "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=60, check=True)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def one_run(spec, dataset, workspace: Path, traced: bool, reference):
    """Run the pipeline once; returns (record, tracer, writes, metrics bytes)."""
    from workloads import check_run

    pipeline = spec.pipeline(workspace)
    tracer = Tracer()
    inst = Instrumentation(tracer)
    inst.install_stages(pipeline)
    requests = inst.count_requests(pipeline.gateway)
    if traced:
        inst.install_layers(pipeline)
        before = tree_state(workspace)
    try:
        pipeline.run(dataset)
    finally:
        inst.remove()
    stage = {s.name: s for s in tracer.spans if s.name.startswith("pipeline.")}
    writes = files_written(before, tree_state(workspace)) if traced else None
    failures = sum(s.tag or 0 for s in stage.values())
    problems = check_run(spec, dataset, workspace, failures, requests, reference)
    record = {
        "traced": traced,
        "run_s": stage["pipeline.run"].end - stage["pipeline.run"].start,
        "ingest_s": sum(stage[n].end - stage[n].start for n in
                        ("pipeline.debate", "pipeline.synthesize", "pipeline.encode")),
        "train_s": stage["pipeline.train"].end - stage["pipeline.train"].start,
        "predict_s": stage["pipeline.predict"].end - stage["pipeline.predict"].start,
        "stage_failures": failures,
        "problems": problems,
    }
    return record, tracer, writes, (workspace / "metrics.json").read_bytes()


def cmd_measure(args) -> dict:
    from veridebate.evaluation import load_dataset
    from workloads import WORKLOADS, dataset_path, warmup_dataset, workspace_path

    spec = WORKLOADS[args.workload]
    root = Path(args.dir)
    dataset = load_dataset(dataset_path(root))

    warmup = root / "warmup"
    spec.pipeline(warmup).run(warmup_dataset(dataset))
    shutil.rmtree(warmup)

    # Every run must reproduce the first run's metrics.json byte for byte,
    # or the prefill run's, which resume_warm's workspace already holds.
    reference_path = workspace_path(root, spec, 0) / "metrics.json"
    reference = reference_path.read_bytes() if reference_path.exists() else None
    runs, tracers, writes, setup = [], [], [], []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace and len(runs) % 2 == 1)
        workspace = workspace_path(root, spec, len(runs))
        record, tracer, written, metrics = one_run(spec, dataset, workspace, traced, reference)
        reference = reference or metrics
        runs.append(record)
        if traced:
            tracers.append(tracer)
            writes.append(written)
        if spec.fresh:
            # Deleted before writeback, the data of a cold run's thousands
            # of small files is never written, so it cannot slow later runs.
            shutil.rmtree(workspace)
        while not args.trace and len(setup) < SETUP_PROBES * min(
                1.0, (time.perf_counter() - start) / args.seconds):
            setup.append(setup_probe(args))
        elapsed = time.perf_counter() - start
        longest = max(r["run_s"] for r in runs)
        if len(runs) >= (2 if args.trace else 1) and elapsed + longest > args.seconds:
            break

    while not args.trace and len(setup) < SETUP_PROBES:
        setup.append(setup_probe(args))

    untraced = [r for r in runs if not r["traced"]]
    n_train, n_test = len(dataset.split("train")), len(dataset.split("test"))
    result = {
        "runs": runs,
        "samples": {
            "setup_s": setup,
            "run_s": [r["run_s"] for r in untraced],
            "ingest_items_per_s": [len(dataset) / r["ingest_s"] for r in untraced],
            "train_samples_per_s": [n_train * spec.epochs / r["train_s"] for r in untraced],
            "predict_items_per_s": [n_test / r["predict_s"] for r in untraced],
        },
        "items_per_run": len(dataset),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": machine_info(root, args.seed),
    }
    if args.trace:
        traced_s = median([r["run_s"] for r in runs if r["traced"]])
        values, notes = layer_metrics(tracers, writes, median(result["samples"]["run_s"]),
                                      traced_s)
        result["layers"] = values
        result["notes"] = notes
        with open(root.parent / f"trace-{spec.name}-seed{args.seed}.jsonl", "w",
                  encoding="utf-8") as fh:
            for index, tracer in enumerate(tracers):
                for s in tracer.spans:
                    fh.write(json.dumps({"run": index, **s._asdict()}) + "\n")
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("prepare", "setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    command = {"prepare": cmd_prepare, "setup": cmd_setup, "measure": cmd_measure}[args.mode]
    print(json.dumps(command(args)))


if __name__ == "__main__":
    main()
