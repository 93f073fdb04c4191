"""Run one valrep benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
One closed-loop caller runs the seed's job list (see workloads.py) in
passes until the time is spent, always finishing at least one pass, and
checks every result exactly against `perfbench/reference/`.  The last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1` the
run makes one untraced pass and one traced pass and reports per-layer
metrics (tracer.py); the spans go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("pants-sweep", "framings", "generic-qx", "cli")
SETUP_CHILDREN = 3
CHILD_TIMEOUT_S = 120
TAIL_BEYOND = 10


class Run:
    """One workload under one seed: its set-up and its timed passes.

    After set-up the heap is frozen (`gc.freeze`), and a garbage collection
    runs before each job, outside its timing, so that no job pays for a
    collection of what earlier jobs or the set-up left behind.
    """

    def __init__(self, workload: str, seed: int, limit: int | None = None):
        self.setup_s, self.workloads, self.job_lists = timed_setup(workload, seed, limit)
        self.reference = self.workloads.load_reference(workload)
        self.job_s: list[float] = []
        self.pass_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        gc.freeze()

    def run_pass(self, jobs=None, tracer=None) -> float:
        """Run the next job list once; returns the sum of the job times."""
        from sympy.core.cache import clear_cache

        if jobs is None:
            jobs = self.job_lists[len(self.pass_s) % len(self.job_lists)]
        clear_cache()  # each pass starts as cold as the first
        results = []
        for job in jobs:
            if tracer is not None:
                tracer.job = job.id
            gc.collect()
            begin = time.perf_counter()
            try:
                result = job.run()
            except Exception as err:  # a job that raises counts as failed
                result = err
            results.append((job, result, time.perf_counter() - begin))
        wall = sum(seconds for _, _, seconds in results)
        self.pass_s.append(wall)
        for job, result, seconds in results:
            self.job_s.append(seconds)
            self.attempted += 1
            if isinstance(result, Exception):
                self.failures.append(f"{job.id}: raised {result!r}")
            elif self.workloads.canonical(result) != self.reference.get(job.id):
                self.failures.append(f"{job.id}: result differs from the reference")
        return wall


def timed_setup(workload: str, seed: int, limit: int | None = None):
    """Imports, one sympy warm-up, and input construction, timed together."""
    started = time.perf_counter()
    workloads = importlib.import_module("workloads")
    workloads.sympy_warmup()
    job_lists = workloads.job_lists(workload, seed)
    if limit is not None:
        job_lists = [[job for job in jobs if job.light][:limit] for jobs in job_lists]
    return time.perf_counter() - started, workloads, job_lists


def setup_in_children(workload: str, seed: int, count: int) -> list[float]:
    """Set-up time of `count` fresh processes, one after another."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, jobs beyond) at the highest percentile with ten jobs beyond it.

    With ten jobs or fewer no such percentile exists and the slowest job is
    reported, at percentile 100 with no job beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def peak_rss_mb(workload: str) -> float:
    """Peak resident memory of the process that runs the jobs."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(workload: str, seed: int, seconds: float, limit: int | None = None,
            setup_children: int = SETUP_CHILDREN) -> tuple[Run, dict]:
    run = Run(workload, seed, limit)
    run.run_pass()
    while limit is None and sum(run.pass_s) < seconds:
        run.run_pass()
    rss = peak_rss_mb(workload)  # before the set-up children add to RUSAGE_CHILDREN
    setups = [run.setup_s] + setup_in_children(workload, seed, setup_children)
    tail_ms, percentile, beyond = tail(run.job_s)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(run.pass_s), "s"),
        "job_p50_ms": (statistics.median(run.job_s) * 1000.0, "ms"),
        "job_tail_ms": (tail_ms * 1000.0, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    details = {
        "workload": workload,
        "seed": seed,
        "passes": len(run.pass_s),
        "jobs_per_pass": len(run.job_lists[0]),
        "jobs_timed": len(run.job_s),
        "job_tail_percentile": round(percentile, 2),
        "job_tail_jobs_beyond": beyond,
        "fail_ratio": len(run.failures) / run.attempted,
        "setup_samples_s": setups,
        "failures": run.failures[:20],
    }
    return run, {"metrics": metrics, "details": details}


def measure_traced(workload: str, seed: int, limit: int | None = None) -> tuple[Run, dict]:
    """One untraced pass, then one traced pass; per-layer metrics of the traced one."""
    run = Run(workload, seed, limit)
    jobs = run.job_lists[0]
    untraced = run.run_pass(jobs)
    tracer = Tracer()
    if workload == "cli":
        jobs = [trace_cli_job(job, tracer, run.workloads) for job in jobs]
    tracer.install()
    try:
        traced = run.run_pass(jobs, tracer)
    finally:
        tracer.uninstall()
    covered = tracer.covered_s()
    metrics = tracer.metrics()
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    metrics["trace.uncovered_s"] = (max(traced - covered, 0.0), "s")
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    with open(spans_file, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "untraced_wall_s": untraced,
                   "traced_wall_s": traced, **tracer.export()}, fh)
    details = {
        "workload": workload,
        "seed": seed,
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "failures": run.failures[:20],
        "report": layer_report(tracer, traced),
    }
    return run, {"metrics": metrics, "details": details}


def trace_cli_job(job, tracer, workloads):
    """The same cli job, run under perfbench/cli_child.py, which traces inside the child."""
    command = [sys.executable, str(BENCH_DIR / "cli_child.py"), *job.argv]
    env = workloads.cli_env()

    def run():
        result, stderr = workloads.run_cli(command, env)
        tracer.merge(json.loads(stderr.rsplit(workloads.TRACE_MARKER, 1)[1]))
        return result

    return dataclasses.replace(job, run=run)


def layer_report(tracer, wall: float) -> list[str]:
    """Self time per module and per callable, as shares of the traced wall."""
    by_module: dict[str, float] = {}
    for name, seconds in tracer.self_s.items():
        module = name.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + seconds
    lines = [f"traced wall {wall:.3f} s; uncovered {max(wall - tracer.covered_s(), 0):.3f} s"]
    lines.append(f"{'layer':<16}{'self_s':>10}{'share':>8}")
    for module, seconds in sorted(by_module.items(), key=lambda kv: -kv[1]):
        lines.append(f"{module:<16}{seconds:>10.3f}{seconds / wall:>8.1%}")
    lines.append(f"{'callable':<44}{'calls':>9}{'self_s':>10}{'share':>8}{'total_s':>10}")
    for name in sorted(tracer.self_s, key=lambda n: -tracer.self_s[n]):
        if tracer.calls[name]:
            lines.append(
                f"{name:<44}{tracer.calls[name]:>9}{tracer.self_s[name]:>10.3f}"
                f"{tracer.self_s[name] / wall:>8.1%}{tracer.total_s[name]:>10.3f}"
            )
    return lines


def result_line(run: Run, metrics: dict) -> dict:
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "valrep" / "__init__.py").is_file():
        print(f"valrep sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        setup_s, _, _ = timed_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        run, out = measure_traced(args.workload, args.seed)
        print("\n".join(out["details"].pop("report")))
    else:
        run, out = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(out["details"]))
    print(json.dumps(result_line(run, out["metrics"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
