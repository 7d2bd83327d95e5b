"""Self-test of the benchmark harness (not of the library).

    python3 perfbench/selftest.py

Checks that a tiny run of every workload completes, untraced and traced,
with exactly the metric names BENCHMARK.json declares and no failures; that
the same seed generates the same inputs; that a corrupted stored expected
value is counted as a failure; and that the benchmark refuses to run
without the library sources.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import run
from workloads import workloads

ROOT = run.ROOT


def bench(*args, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    problems = []

    for w in spec["workloads"]:
        for trace, names in (("0", e2e), ("1", layers)):
            out = bench("--workload", w["name"], "--seed", "5", "--seconds", "1", "--trace", trace)
            if out.returncode != 0:
                problems.append(f"{w['name']} trace={trace}: exit {out.returncode}: {out.stderr[-500:]}")
                continue
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{w['name']} trace={trace}: result keys {sorted(res)}")
            if set(res["metrics"]) != names:
                problems.append(f"{w['name']} trace={trace}: metric names differ: "
                                f"{sorted(set(res['metrics']) ^ names)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{w['name']} trace={trace}: {res['failed']} of {res['attempted']} failed")
            print(f"ran {w['name']} trace={trace}: {res['attempted']} ops", flush=True)

    sys.path.insert(0, run.SRC)
    lib = run.load_library()
    for name, wl in workloads(run.SRC).items():
        a = run.inputs_hash(wl.build(lib, 7))
        b = run.inputs_hash(wl.build(lib, 7))
        c = run.inputs_hash(wl.build(lib, 8))
        if a != b or a == c:
            problems.append(f"{name}: input hash not a function of the seed ({a}, {b}, {c})")
    print("ran input hash comparison", flush=True)

    # a corrupted stored value must show up as a failed operation
    real = run.load_expected
    def corrupted(name, seed):
        exp = real(name, seed)
        exp = dict(exp, digests=list(exp["digests"]))
        exp["digests"][0] = "0" * 16
        return exp
    run.load_expected = corrupted
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            run.main(["--workload", "invariants", "--seconds", "1"])
    finally:
        run.load_expected = real
    res = json.loads(buf.getvalue().strip().splitlines()[-1])
    if res["correct"] or res["failed"] < 1:
        problems.append("a corrupted expected value was not counted as a failure")
    print(f"ran corrupted expected value: failed={res['failed']}", flush=True)

    # without the library sources the benchmark must refuse, printing no result
    bare = os.path.join(ROOT, ".bench_selftest")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = bench("--workload", "invariants", "--seconds", "1", cwd=bare)
        if out.returncode == 0 or out.stdout.strip():
            problems.append("ran without library sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ran without sources", flush=True)

    for p in problems:
        print("FAIL", p)
    print("FAILED" if problems else "all self-test checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
