"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
the checkout's ``src`` directory and nowhere else.  A run is a closed
loop with one caller: passes of the workload run back to back, each in a
fresh interpreter (see worker.py), until another pass would end after
``--seconds``; there is always at least one.  Fresh interpreters make
every pass pay the import and first-call costs a command-line user pays,
and keep module-level caches from leaking between passes.

``--trace 0`` reports the end-to-end metrics, medians over the passes;
``setup_s`` also takes in interpreters that only import the program,
started before and after the passes so that its median spans the run.
``pass_s`` and ``pass_cpu_s`` are each pass's times with its interpreted
share scaled to a reference interpreter speed, both measured while the
pass ran (see hostspeed.py), so that the load other tenants put on a
shared host does not read as a change in the program; the raw times and
the slowdown are per-layer metrics of the traced run.

``--trace 1`` alternates untraced and traced passes (at least one of
each) and reports the per-layer metrics: layer times from the traced
passes, job times from the untraced ones, and the tracing overhead
between the two.  Traced passes write their spans to
``bench/spans/<workload>-seed<N>-pass<k>.jsonl``.  Metric definitions are
in metrics.py.

The last line of standard output is the result as one JSON object; the
line before it holds the run's metadata (Python, numpy, scipy, BLAS and
its thread count, CPU, and the raw times and interpreted share of the
untraced passes).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent

SETUP_SAMPLES = 3      # before the passes, and again after them
RUN_LIMIT_S = 170.0   # a run must end within 180 s
SETUP_SNIPPET = ("import time; t = time.perf_counter(); import hmlab.cli; "
                 "print(time.perf_counter() - t)")


class BenchError(Exception):
    pass


def check_design(root):
    """BENCHMARK.json must list exactly the metrics this benchmark prints."""
    declared = json.loads((root / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        got = {m["name"]: (m["unit"], m["better"]) for m in declared[key]}
        want = {name: spec[:2] for name, spec in table.items()}
        if got != want:
            raise BenchError(f"BENCHMARK.json {key} does not match metrics.py")
    if sorted(w["name"] for w in declared["workloads"]) != sorted(WORKLOADS):
        raise BenchError("BENCHMARK.json workloads do not match workloads.py")


def worker_env(src):
    """The program's source on the path, and no more BLAS threads than CPUs."""
    path = [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(min(max(wanted, 1), nproc))
    return env


class Runner:
    def __init__(self, root, env, deadline):
        self.root = root
        self.env = env
        self.deadline = deadline

    def python(self, argv):
        """Run a fresh interpreter to completion; returns (stdout, wall s)."""
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError("run time limit reached")
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable] + argv, cwd=self.root,
                                  env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{argv[:3]} exceeded the run time limit") \
                from exc
        wall = time.perf_counter() - start
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{argv[:3]} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        return proc.stdout.strip().splitlines()[-1], wall

    def setup_sample(self):
        line, _ = self.python(["-c", SETUP_SNIPPET])
        return float(line)

    def run_pass(self, workload, seed, spans):
        argv = [str(BENCH_DIR / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--src", str(self.root / "src")]
        if spans:
            argv += ["--spans", str(spans)]
        line, wall = self.python(argv)
        result = json.loads(line)
        result["wall_s"] = wall
        result["traced"] = spans is not None
        return result


def job_time(result, group=None):
    return sum(j["seconds"] for j in result["jobs"]
               if group is None or j["group"] == group)


def pass_s(result):
    return result["wall_s"] / result["slowdown"]


def end_to_end(setup, untraced):
    median = statistics.median
    return {
        "setup_s": median(setup + [r["setup_s"] for r in untraced]),
        "pass_s": median(pass_s(r) for r in untraced),
        "pass_cpu_s": median(r["cpu_s"] / r["slowdown"] for r in untraced),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
    }


def raw_times(untraced):
    median = statistics.median
    return {
        "raw.wall_s": median(r["wall_s"] for r in untraced),
        "raw.cpu_s": median(r["cpu_s"] for r in untraced),
        "host.slowdown": median(r["slowdown"] for r in untraced),
    }


def per_layer(untraced, traced):
    median = statistics.median
    out = raw_times(untraced)
    for name in PER_LAYER:
        if name in out:
            continue
        if name.startswith("job."):
            out[name] = median(job_time(r, name[4:]) for r in untraced)
        elif name == "cli.report_bytes":
            out[name] = median(r["report_bytes"] for r in traced)
        elif name == "trace.overhead_frac":
            out[name] = (median(pass_s(r) for r in traced)
                         / median(pass_s(r) for r in untraced) - 1.0)
        else:
            out[name] = median(r["layers"].get(name, 0) for r in traced)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    # on SIGTERM, unwind so subprocess.run kills and reaps the running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    begin = time.perf_counter()
    root = Path.cwd().resolve()
    src = root / "src"
    try:
        if not (src / "hmlab" / "cli.py").is_file():
            raise BenchError(f"no hmlab sources under {src}")
        check_design(root)
        runner = Runner(root, worker_env(src), begin + RUN_LIMIT_S)
        setup = [runner.setup_sample() for _ in range(SETUP_SAMPLES)]
        spans_dir = BENCH_DIR / "spans"
        spans_dir.mkdir(exist_ok=True)
        passes = []
        loop_start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            spans = None
            if traced:
                spans = spans_dir / (f"{args.workload}-seed{args.seed}"
                                     f"-pass{len(passes)}.jsonl")
            passes.append(runner.run_pass(args.workload, args.seed, spans))
            elapsed = time.perf_counter() - loop_start
            too_late = elapsed * (len(passes) + 1) / len(passes) > args.seconds
            if too_late and len(passes) >= 1 + args.trace:
                break
        setup += [runner.setup_sample() for _ in range(SETUP_SAMPLES)]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    untraced = [r for r in passes if not r["traced"]]
    traced = [r for r in passes if r["traced"]]
    jobs = [j for r in passes for j in r["jobs"]]
    failed = [j for j in jobs if not j["ok"]]
    for job in failed:
        print(f"bench: job {job['name']} failed: {job['error']}",
              file=sys.stderr)
    if args.trace:
        values, units = per_layer(untraced, traced), PER_LAYER
    else:
        values, units = end_to_end(setup, untraced), END_TO_END
    meta = dict(passes[0]["meta"], passes=len(passes),
                setup_samples=len(setup) + len(untraced),
                workload=args.workload, seed=args.seed,
                raw=raw_times(untraced),
                interpreted_share=statistics.median(
                    r["interpreted_share"] for r in untraced))
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not failed, "attempted": len(jobs), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
