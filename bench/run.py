"""Benchmark for uichan: timed jobs on four workloads, checked against references.

    python3 bench/run.py --workload verify-d64 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20

One client runs one job at a time in this process (a closed loop), on the
sources under ``src/`` of the checkout this file sits in.  With ``--trace 0``
the last line of standard output is the result with the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of ``tracing.Tracer``.
``--workload all`` runs every workload in a process of its own and prints a
table.  See README.md in this directory for the workloads and metrics.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, imports included

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("verify-d64", "export-n4", "seesaw-i3322", "grid-library")
SETUP_REPEATS = (3, 15)  # fewest and most set-ups per run
SETUP_BUDGET_S = 3.0  # set up again while the set-ups so far took less than this
CHILD_TIMEOUT_S = 170
BLAS_THREADS = 1  # two threads on two shared CPUs made the timings far less steady

END_TO_END = {"setup_s": "s", "jobs_per_s": "jobs/s", "job_s.p50": "s", "peak_rss_mb": "MB"}
SPANS = ("models.validate_commuting", "models.embed_tensor_as_commuting", "models.check",
         "channels.channel_direct.tensor", "channels.channel_direct.commuting",
         "channels.moment_table", "channels.channel_from_moments",
         "channels.contraction_defects", "channels.cptp_report",
         "bell.behaviour_from_channel", "serialize.dumps", "serialize.channel_to_json",
         "serialize.channel_from_json", "serialize.model_from_json", "cli.main",
         "seesaw.optimize_bell", "seesaw.lift_and_verify", "linalg.kron")
COUNTED = ("models.validate_commuting", "serialize.dumps", "linalg.kron",
           "linalg.partial_trace", "linalg.herm_eig")
PER_LAYER = {**{f"{s}.self_s": "s/job" for s in SPANS},
             **{f"{s}.calls": "calls/job" for s in COUNTED},
             "serialize.dumps.chars": "chars/job",
             "trace.overhead_jobs_per_s": "jobs/s"}


def pin_blas_threads() -> int:
    """Give BLAS one thread (see README.md); must run before numpy loads.  Returns nproc."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def import_program():
    """Put the checkout's ``src`` first on the path and import the benchmark modules."""
    if not os.path.isfile(os.path.join(SRC, "uichan", "__init__.py")):
        sys.exit(f"error: no uichan sources under {SRC}")
    sys.path.insert(0, SRC)
    import uichan
    if not os.path.abspath(uichan.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported uichan from {uichan.__file__}, not from {SRC}")
    import refcheck
    import tracing
    import workloads
    return refcheck, tracing, workloads


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def fingerprint(nproc: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "nproc": nproc}


class Tally:
    """Outcomes of the operations one run attempts."""

    def __init__(self, check_failed: type[Exception]):
        self.check_failed = check_failed
        self.attempted = 0
        self.failed = 0
        self.rounds: list[list[float]] = []  # job wall times, one list per round
        self.failures: dict[str, str] = {}  # first exception per operation
        self.wrong: dict[str, str] = {}  # first failed reference check per operation

    @property
    def job_s(self) -> list[float]:
        return [t for r in self.rounds for t in r]

    def jobs_per_s(self) -> float:
        return len(self.job_s) / sum(self.job_s)

    def job_s_p50(self) -> float:
        """Median over rounds of the mean job time in each round."""
        return statistics.median(statistics.fmean(r) for r in self.rounds if r)

    def run_round(self, ops, tracer=None) -> None:
        gc.collect()  # each round starts from a swept heap, not mid-way to a collection
        self.rounds.append([])
        for op in ops:
            self.run(op, tracer)

    def run(self, op, tracer=None) -> None:
        """Time ``op.run``, then check its outputs; an operation that raises counts as failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is not None and op.job:
                with tracer.installed():
                    out = op.run()
            else:
                out = op.run()
        except Exception as exc:  # the run goes on; the failure is counted and reported
            self.failed += 1
            self.failures.setdefault(op.name, f"{type(exc).__name__}: {exc}")
            return
        if op.job:
            self.rounds[-1].append(time.perf_counter() - start)
        try:
            op.check(out)
        except self.check_failed as exc:
            self.wrong.setdefault(op.name, str(exc))


def measure_setup(args, workdir: str) -> list[float]:
    """Set up the workload in fresh processes, imports included; seconds per set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--dir", workdir]
    times = []
    while len(times) < SETUP_REPEATS[0] or (sum(times) < SETUP_BUDGET_S
                                            and len(times) < SETUP_REPEATS[1]):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit(f"error: set-up of {args.workload} failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]))
    return times


def measure(args, nproc: int, refcheck, tracing, workloads) -> dict:
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        setup = measure_setup(args, workdir)
        ops = workloads.WORKLOADS[args.workload](args.seed, workdir).ops()
        warm, plain, traced = (Tally(refcheck.CheckFailed) for _ in range(3))
        warm.run_round(ops[:1])  # caches fill before timing starts; counted nowhere

        tracer = tracing.Tracer() if args.trace else None
        start = time.perf_counter()
        while not plain.rounds or time.perf_counter() - start < args.seconds:
            plain.run_round(ops)
            if tracer is not None:
                traced.run_round(ops, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tallies = (warm, plain, traced)
    failures = {k: v for t in tallies for k, v in t.failures.items()}
    wrong = {k: v for t in tallies for k, v in t.wrong.items()}
    if not plain.job_s or (tracer is not None and not traced.job_s):
        sys.exit(f"error: no {args.workload} job completed: {failures} {wrong}")
    if tracer is None:
        metrics = {"setup_s": statistics.median(setup),
                   "jobs_per_s": plain.jobs_per_s(),
                   "job_s.p50": plain.job_s_p50(),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
    else:
        jobs = len(traced.job_s)
        metrics = {f"{s}.self_s": tracer.self_s[s] / jobs for s in SPANS}
        metrics.update({f"{s}.calls": tracer.calls[s] / jobs for s in COUNTED})
        metrics["serialize.dumps.chars"] = tracer.chars / jobs
        metrics["trace.overhead_jobs_per_s"] = plain.jobs_per_s() - traced.jobs_per_s()
        units = PER_LAYER
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "rounds": len(plain.rounds), "jobs": len(plain.job_s) + len(traced.job_s),
                      "setup_s": setup, "wrong": wrong,
                      "failures": failures,
                      "fingerprint": fingerprint(nproc)}))
    return {"correct": not wrong,
            "attempted": plain.attempted + traced.attempted,
            "failed": plain.failed + traced.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}


def run_all(args) -> int:
    """Every workload in a process of its own, so that peak memory is per workload."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=args.seconds + CHILD_TIMEOUT_S)
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        results[name] = result = json.loads(done.stdout.splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:40s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    args = parser.parse_args()
    nproc = pin_blas_threads()
    refcheck, tracing, workloads = import_program()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed, args.dir)
        print(time.perf_counter() - T0)
        return 0
    print(json.dumps(measure(args, nproc, refcheck, tracing, workloads)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
