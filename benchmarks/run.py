"""condensery benchmark: seeded CLI workloads, end-to-end and per-layer.

    python3 benchmarks/run.py --workload condense_mnist28 --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload's timed commands at least 3 times and
until ``--seconds`` would be exceeded, and reports the end-to-end metrics
(medians over the repetitions). Its time metric is the CPU time of the
commands, not their wall time: on a few shared cores the host's steal
moved the wall time of the eval pool's threads by a third between runs;
CPU time leaves steal out. ``--trace 1`` makes a warm-up, a traced and an
untraced repetition and reports the per-layer metrics, wall times among
them. BLAS runs one thread (see ``main``). The last stdout line is the result
object; the line before it holds the environment stamp, the output
hashes and every failed operation. ``--workload all`` runs each workload
in its own process, one after another, and prints a table.

Run it from the repository root: it imports ``condensery`` from ``src/``
and keeps its scratch files under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("condense_mnist28", "eval_ipc1", "coreset_mnist28")
END_TO_END = (("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("accuracy", "fraction"), ("ok_ratio", "fraction"))
SETUP_REPS = 5
# Imports timed before each repetition: the host's speed changes within a
# run, and samples spread over the run see it as the repetitions do.
IMPORTS_PER_REP = 2
# A median of three or more repetitions rejects one slow repetition.
MIN_REPS = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Times the import of condensery in a fresh interpreter; argv[1] is src/.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
                "import condensery.cli; print(time.perf_counter() - t0)")


def git_commit() -> str:
    """HEAD of the checkout, read without starting git; "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    from condensery import evaluate
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    worker_count = getattr(evaluate, "_worker_count", None)
    return {
        "commit": git_commit(), "seed": seed, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "CONDENSERY_THREADS": os.environ.get("CONDENSERY_THREADS"),
        "eval_workers": worker_count() if worker_count else None,
        **{v: os.environ.get(v) for v in BLAS_VARS},
    }


def import_seconds(n: int) -> list[float]:
    """Import condensery in n fresh interpreters, one after another.

    A process imports a module once, so one in-process sample is all a run
    would get; the first import in a checkout also compiles the bytecode."""
    times = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                              stdout=subprocess.PIPE, text=True, check=True, timeout=120)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(run, seconds: float, out_root: Path) -> tuple[dict, dict]:
    """End-to-end: repeat the commands MIN_REPS times, then while the next
    repetition still fits in ``seconds``. Returns the metrics and the
    samples behind them."""
    walls: list[float] = []
    cpus: list[float] = []
    imports: list[float] = []
    t0 = time.perf_counter()
    while True:
        imports += import_seconds(IMPORTS_PER_REP)
        wall, cpu, _ = run.rep(out_root / f"rep{len(walls)}", timed=False)
        walls.append(wall)
        cpus.append(cpu)
        elapsed = time.perf_counter() - t0
        if len(walls) >= MIN_REPS and elapsed + statistics.median(walls) > seconds:
            break
    rss = peak_rss_mb()
    accuracy = run.accuracy(out_root / f"rep{len(walls) - 1}")
    return ({"cpu_s": statistics.median(cpus), "import_s": statistics.median(imports),
             "peak_rss_mb": rss, "accuracy": accuracy},
            {"rep_walls_s": walls, "rep_cpu_s": cpus, "import_s": imports})


def measure_traced(run, out_root: Path) -> dict:
    """Per-layer: a warm-up repetition, then one traced and one untraced.

    The first repetition in a process runs slower; without the warm-up it
    made the tracing overhead come out negative."""
    run.rep(out_root / "warm-up", timed=False)
    traced, _, tracer = run.rep(out_root / "traced", timed=True)
    untraced, _, _ = run.rep(out_root / "untraced", timed=False)
    m = tracer.layer_metrics()
    m["trace.traced_wall_s"] = traced
    m["trace.untraced_wall_s"] = untraced
    m["trace.overhead_s"] = traced - untraced
    m["evaluate.thread_speedup"] = 0.0
    if run.name == "eval_ipc1":
        protocol = sum(s.dur for s in tracer.spans if s.name == "evaluate.protocol")
        saved = os.environ.get("CONDENSERY_THREADS")
        os.environ["CONDENSERY_THREADS"] = "1"
        try:
            _, _, single = run.rep(out_root / "one-thread", timed=True)
        finally:
            if saved is None:
                del os.environ["CONDENSERY_THREADS"]
            else:
                os.environ["CONDENSERY_THREADS"] = saved
        one = sum(s.dur for s in single.spans if s.name == "evaluate.protocol")
        m["evaluate.thread_speedup"] = one / protocol if protocol else 0.0
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> tuple[dict, dict]:
    """Run one workload in this process; return (result object, detail)."""
    import workloads
    from tracing import PER_LAYER

    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = workloads.Run(name, seed, workloads.SIZES[size], work)
        prepare = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            run.prepare()
            prepare.append(time.perf_counter() - t0)
        run.check_prepared_container()
        samples = {}
        if trace:
            values, units = measure_traced(run, work), dict(PER_LAYER)
        else:
            values, samples = measure(run, seconds, work)
            values["setup_s"] = values["import_s"] + statistics.median(prepare)
            units = dict(END_TO_END)
        ledger = run.ledger
        values["ok_ratio"] = 1.0 - len(ledger.failures) / ledger.attempted
        result = {"correct": not ledger.failures, "attempted": ledger.attempted,
                  "failed": len(ledger.failures),
                  "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
        detail = {"workload": name, "trace": int(trace), "size": size,
                  "env": environment(seed), "hashes": run.hashes,
                  "failures": ledger.failures, **samples, "prepare_s": prepare}
        return result, detail
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def run_all(args) -> int:
    """Each workload in its own process, one at a time, so peak RSS is its own."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append(result)
        print(f"== {name}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")
        for metric, v in result["metrics"].items():
            print(f"   {metric:<34} {v['value']:>14.6g} {v['unit']}")
    print(json.dumps({"correct": all(r["correct"] for r in rows),
                      "attempted": sum(r["attempted"] for r in rows),
                      "failed": sum(r["failed"] for r in rows),
                      "metrics": {f"{n}.{k}": v for n, r in zip(WORKLOADS, rows)
                                  for k, v in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for the smoke test only")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    src = ROOT / "src"
    if not (src / "condensery" / "__init__.py").is_file():
        print(f"error: no condensery sources under {src}", file=sys.stderr)
        return 2
    # One BLAS thread. On a few shared cores a threaded BLAS under the eval
    # pool's threads oversubscribes them; condense and coreset also ran
    # faster with one. Set before numpy is first imported.
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  args.size)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
