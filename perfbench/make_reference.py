"""Regenerate the committed reference results of the benchmark.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs every variant of every slot once (the whole catalogue, which covers
every seed) and writes `perfbench/reference/<workload>.json`.  It first
writes the cli workload's generic representation file,
`perfbench/inputs/generic_rep.json`.  Before writing, it checks the
identities the results must satisfy: crossratio axioms, maximal framings,
framing periods equal to translation-length periods, pseudodistance
symmetry, triangle inequality and invariance, nonzero lengths where the
workload promises them, and exit code 0 for every cli job.

A changed reference is a change to the benchmark, never part of a change
that claims a speed-up.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402  (import after the path is set)


def write_generic_rep():
    path = workloads.ROOT / workloads.GENERIC_REP_FILE
    path.parent.mkdir(exist_ok=True)
    data = workloads.generic_rep_json(random.Random("cli/generic-rep"))
    path.write_text(json.dumps(data, indent=1) + "\n")


def check(workload: str, results: dict):
    if workload == "framings":
        for job_id, r in results.items():
            if "ok" in r:
                assert r["ok"] and r["additivity"] == 1, (job_id, r)
            else:
                assert r["maximal"][0], (job_id, r)
                assert r["period_framing"] == r["period_length"], (job_id, r)
    elif workload == "generic-qx":
        nonzero = set()
        for job_id, r in results.items():
            if job_id.startswith("sweep"):
                assert any(Fraction(l) > 0 for _, l in r), (job_id, r)
                continue
            slot, variant, pair = job_id.split("/")
            if pair != "ab":
                continue
            pairs = ("ab", "ba", "ac", "bc", "kakb")
            d = {p: Fraction(results[f"{slot}/{variant}/{p}"]) for p in pairs}
            assert d["ab"] == d["ba"] == d["kakb"] and d["ac"] <= d["ab"] + d["bc"], (job_id, d)
            if any(d.values()):
                nonzero.add(slot)
        slots = {job_id.split("/")[0] for job_id in results if job_id.startswith("distance")}
        assert nonzero == slots, f"slots with only zero distances: {slots - nonzero}"
    elif workload == "cli":
        for job_id, r in results.items():
            assert r["exit"] == 0, (job_id, r)


def main(names: list[str]) -> int:
    write_generic_rep()
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    workloads.sympy_warmup()
    for workload in names or list(workloads.SLOTS):
        results = {}
        for job in workloads.catalogue(workload):
            results[job.id] = job.run()
        check(workload, results)
        out = workloads.REFERENCE_DIR / f"{workload}.json"
        out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
        print(f"{workload}: {len(results)} results -> {out.relative_to(workloads.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
