"""The benchmark's own tests.

    python3 perfbench/selftest.py

Checks, at tiny sizes (a few light jobs per workload):
  * every workload runs correctly under the default seed 0 and the
    held-out seed 1;
  * a perturbed result counts as a failure, so the check can fail;
  * traced `calls` counts repeat exactly across two traced runs;
  * every binding the tracer patched is restored after a traced run;
  * without `src/valrep` beside it, the benchmark exits nonzero and prints
    no result.
"""

from __future__ import annotations

import dataclasses
import importlib
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run as bench  # noqa: E402  (import after the path is set)
import tracer  # noqa: E402

SEEDS = (0, 1)
LIMIT = 3


def test_smoke_every_workload_both_seeds():
    for workload in bench.WORKLOAD_NAMES:
        for seed in SEEDS:
            run, out = bench.measure(workload, seed, 0, limit=LIMIT, setup_children=1)
            assert run.attempted >= 1 and not run.failures, (workload, seed, run.failures)
            assert set(out["metrics"]) == {
                "setup_s", "wall_s", "job_p50_ms", "job_tail_ms", "peak_rss_mb"
            }
            assert all(value > 0 for value, _ in out["metrics"].values()), out["metrics"]


def test_perturbed_result_fails():
    run = bench.Run("framings", 0, limit=LIMIT)
    jobs = list(run.job_lists[0])
    first = jobs[0]
    jobs[0] = dataclasses.replace(first, run=lambda: {"perturbed": first.run()})
    run.run_pass(jobs)
    assert len(run.failures) == 1 and run.failures[0].startswith(first.id), run.failures
    assert run.attempted == len(jobs)


def test_traced_calls_repeat_exactly():
    for workload in ("generic-qx", "cli"):
        counts = []
        for _ in range(2):
            run, out = bench.measure_traced(workload, 0, limit=2)
            assert not run.failures, run.failures
            counts.append(
                {k: v for k, (v, _) in out["metrics"].items() if k.endswith(".calls")}
            )
        assert counts[0] == counts[1], workload
        assert sum(counts[0].values()) > 0, workload


def bindings() -> dict[tuple[str, str], int]:
    """id() of every global of every valrep module and every attribute of its classes."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name != "valrep" and not name.startswith("valrep."):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for cls_attr, cls_value in vars(value).items():
                    out[(f"{name}.{attr}", cls_attr)] = id(cls_value)
    return out


def test_bindings_restored_after_trace():
    for module_name, _, _ in tracer.TARGETS:
        importlib.import_module(f"valrep.{module_name}")
    before = bindings()
    t = tracer.Tracer()
    t.install()
    patched = t.patched_bindings
    during = bindings()
    t.uninstall()
    after = bindings()
    assert len(patched) >= len(tracer.TARGETS)
    assert before != during
    assert before == after
    # a consumer module's own binding is patched too, not only the defining one
    owners = {getattr(owner, "__name__", None) for owner, _, _ in patched}
    assert {"valrep.fields", "valrep.currents", "valrep"} <= owners, owners
    bench.measure_traced("framings", 0, limit=2)
    assert bindings() == before


def test_fails_without_sources():
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("out"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "cli", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as err:  # report every test, then fail overall
            failed += 1
            print(f"FAIL {name}: {err!r}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
