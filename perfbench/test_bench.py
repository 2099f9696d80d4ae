#!/usr/bin/env python3
"""The benchmark's own test.  From the repository root:

    python3 perfbench/test_bench.py

For every workload of BENCHMARK.json it makes very short runs on a
second seed, untraced and traced, twice each, and checks
that every declared metric is printed with its unit, that every output
check passed, and that the deterministic metrics repeat exactly.  It
then checks that the benchmark fails cleanly, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark's files.
Takes a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys

SEED = 2
DETERMINISTIC_UNITS = {"count", "cycles", "words"}
# Counts of events that depend on timing, not on the inputs.
TIMING_COUNTS = {"sim.deadlocks", "service.rejected"}


def run(workload, trace, cwd="."):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)


def result(workload, trace, declared):
    p = run(workload, trace)
    assert p.returncode == 0, f"{workload} trace={trace}: exit {p.returncode}\n{p.stderr}"
    r = json.loads(p.stdout.strip().splitlines()[-1])
    assert sorted(r) == ["attempted", "correct", "failed", "metrics"], r.keys()
    assert r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1, p.stdout
    got = {k: v["unit"] for k, v in r["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"{workload} trace={trace}: printed {got}, declared {want}"
    return {k: v["value"] for k, v in r["metrics"].items()}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    deterministic = {"vcs_added"} | {
        m["name"] for m in bench["per_layer"]
        if m["unit"] in DETERMINISTIC_UNITS and m["name"] not in TIMING_COUNTS}
    deterministic |= {"sim.latency_p50_cycles", "sim.latency_p99_cycles"}
    for w in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            a = result(w, trace, declared)
            b = result(w, trace, declared)
            for name in sorted(deterministic & a.keys()):
                assert a[name] == b[name], f"{w}: {name} differs between runs: {a[name]} {b[name]}"
            if trace == 0:
                assert all(v > 0 for v in a.values()), f"{w}: an end-to-end metric reads 0: {a}"
            print(f"ok {w} trace={trace}")

    bare = os.path.join("perfbench", "_tmp", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_tmp", "__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    try:
        p = run(bench["workloads"][0]["name"], 0, cwd=bare)
        assert p.returncode != 0 and p.stdout.strip() == "", (p.returncode, p.stdout)
        print("ok fails cleanly without the sources")
    finally:
        shutil.rmtree(os.path.join("perfbench", "_tmp"), ignore_errors=True)


if __name__ == "__main__":
    main()
