"""Benchmark of the kdmps gs -> variance -> excite pipeline.

Usage, from the repository root::

    python3 perfbench/run.py --workload hs12-pipeline --seed 1 --seconds 40 --trace 0

One process runs one workload as a closed loop with a single client: after
one untimed warm-up repetition it repeats the pipeline back to back until
``--seconds`` seconds have passed (at least three whole repetitions), checks
every repetition's outputs, and prints one JSON object as its last line of
output::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, each the median
over the repetitions; nothing is wrapped. With ``--trace 1`` every other
repetition runs with span wrappers installed (see ``tracing.py``); the
metrics are the per-layer ones, medians over the traced repetitions, plus
the tracing overhead against the unwrapped repetitions of the same run.

BLAS and OpenMP are pinned to one thread before numpy is imported. The
result, the machine description and the raw per-repetition figures go to
``perfbench/_results/``; spans of a traced run go there too.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "_results"
MIN_REPS = 3
WARM_UP_REP = 1 << 30  # repetition index whose seed the warm-up uses


def blas_info() -> dict:
    """BLAS build and the thread count it reports, read through ctypes."""
    import ctypes
    import glob

    import numpy as np

    info = {"numpy": np.__version__}
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
    info["blas_threads"] = None
    if libs:
        lib = ctypes.CDLL(libs[0])
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            info["blas_threads"] = int(getter())
    return info


def machine_info() -> dict:
    info = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }
    info.update(blas_info())
    return info


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "kdmps").is_dir():
        print(f"error: no kdmps sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import pipeline
    import tracing

    if args.workload not in pipeline.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(pipeline.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = pipeline.WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir = HERE / "_work" / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    try:
        result = measure(wl, args, workdir, pipeline, tracing, tag)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def warm_up(wl, seed: int, workdir: Path, pipeline) -> None:
    """One untimed repetition (with at most the first excitation), so lazy
    BLAS/LAPACK set-up and the first large allocations are not timed; its
    operations are not counted."""
    sub = workdir / "warm-up"
    sub.mkdir()
    pipeline.run_rep(replace(wl, excite_ns=wl.excite_ns[:1]), pipeline.rep_seed(seed, WARM_UP_REP), sub, pipeline.Ops())


def layer_figures(tracing, spans: list, out: dict) -> dict:
    """Per-layer figures of one traced repetition."""
    figures = tracing.layer_metrics(spans)
    figures.update(
        {
            "mpo.max_bond": out["mpo_max_bond"],
            "mps.archive_bytes": out["mps_archive_bytes"],
            "dmrg.sweeps": out["gs"].n_sweeps,
            "excitation.archive_bytes": sum(e[3] for e in out["excitations"]),
        }
    )
    return figures


def measure(wl, args, workdir: Path, pipeline, tracing, tag: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    start = perf_counter()
    warm_up(wl, args.seed, workdir, pipeline)
    tracer = tracing.kdmps_tracer() if args.trace else None
    ops = pipeline.Ops()
    reps: list[dict] = []
    rep_spans: list[list] = []
    failures: list[str] = []
    first = perf_counter()
    while True:
        index = len(reps)
        traced = tracer is not None and index % 2 == 0
        repdir = workdir / f"rep{index}"
        repdir.mkdir()
        if traced:
            tracer.install()
        try:
            times, out = pipeline.run_rep(wl, pipeline.rep_seed(args.seed, index), repdir, ops)
        finally:
            if traced:
                tracer.uninstall()
        fails = pipeline.check_rep(wl, out)
        failures += [f"repetition {index}: {f}" for f in fails]
        rep = {"traced": traced, "times": times, "sweeps": out["gs"].n_sweeps, "checks_failed": len(fails)}
        if traced:
            rep_spans.append(list(tracer.spans))
            tracer.spans.clear()
            rep["layers"] = layer_figures(tracing, rep_spans[-1], out)
        reps.append(rep)
        shutil.rmtree(repdir, ignore_errors=True)
        out = None
        gc.collect()  # outside the timed part, so no repetition pays for another's garbage
        now = perf_counter()
        if len(reps) >= MIN_REPS and now - start + (now - first) / len(reps) > args.seconds:
            break

    plain = [r["times"] for r in reps if not r["traced"]]
    if tracer is None:
        metrics = {k: statistics.median(t[k] for t in plain) for k in units if k != "peak_rss_mb"}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        traced = [r for r in reps if r["traced"]]
        metrics = {k: statistics.median(r["layers"][k] for r in traced) for k in units if k != "trace.overhead_pct"}
        traced_total = statistics.median(r["times"]["total_s"] for r in traced)
        metrics["trace.overhead_pct"] = 100.0 * (traced_total / statistics.median(t["total_s"] for t in plain) - 1.0)

    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    record = {
        "workload": wl.name,
        "parameters": {k: getattr(wl, k) for k in ("model", "L", "D", "n_max", "excite_ns")},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "repetitions": reps,
        "operation_errors": sorted(set(ops.errors)),
        "check_failures": failures,
        "metrics": metrics,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if rep_spans:
        (RESULTS / f"spans-{tag}.json").write_text(json.dumps(rep_spans))
    print(f"# {wl.name}: {len(reps)} repetitions, machine {json.dumps(record['machine'])}")
    return {
        "correct": not failures,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


if __name__ == "__main__":
    sys.exit(main())
