"""One measured pass of a workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --src DIR [--spans FILE]

Times the import of ``hmlab.cli`` (which must come from DIR), then runs the workload's jobs back to
back, timing each and checking its output; a job that raises or fails
its check is recorded as failed and the pass goes on.  With ``--spans``
the pass is traced (see tracing.py) and its spans are written to FILE at
the end.  The host's interpreter speed is sampled while the jobs run (see
hostspeed.py).  Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


BLAS_THREAD_QUERIES = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_",
                       "MKL_Get_Max_Threads")


def blas_threads():
    """Thread count reported by each BLAS library loaded in this process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() or "mkl" in line.lower()})
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in BLAS_THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                found[Path(path).name] = query()
                break
    return found


def metadata():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--src", required=True)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import hmlab.cli  # noqa: F401
    setup_s = time.perf_counter() - t0
    hmlab_file = Path(sys.modules["hmlab"].__file__).resolve()
    if Path(args.src).resolve() not in hmlab_file.parents:
        sys.exit(f"hmlab imported from {hmlab_file}, not from {args.src}")

    import tracing
    from hostspeed import SpeedProbe
    from workloads import WORKLOADS, CliOutput, load_expected

    recorder = None
    if args.spans:
        recorder = tracing.Recorder(run_id=Path(args.spans).stem)
        tracing.install(recorder)

    speed = SpeedProbe()
    speed.start()

    ctx = {"seed": args.seed, "expected": load_expected()}
    jobs = []
    report_bytes = 0
    for job in WORKLOADS[args.workload]:
        entry = {"name": job.name, "group": job.group, "ok": False}
        if recorder:
            recorder.job = job.name
        start = time.perf_counter()
        try:
            try:
                output = job.run(ctx)
            finally:
                entry["seconds"] = time.perf_counter() - start
                if recorder:
                    recorder.job = None
            if isinstance(output, CliOutput):
                report_bytes += len(output.text.encode())
            job.check(ctx, output)
            entry["ok"] = True
        # a failed job is counted, not fatal; argparse rejects a flag the
        # CLI no longer accepts by raising SystemExit
        except (Exception, SystemExit) as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
        jobs.append(entry)

    speed.stop()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {"setup_s": setup_s, "jobs": jobs,
              "slowdown": speed.slowdown(),
              "interpreted_share": speed.interpreted_share(),
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
              "report_bytes": report_bytes, "meta": metadata()}
    if recorder:
        result["layers"] = tracing.layer_metrics(recorder.spans)
        recorder.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
