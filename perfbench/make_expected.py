"""Regenerate expected.json: the digest of every output of the leading
operations of each workload for the default seed.

    python3 perfbench/make_expected.py [workload ...]

Only run this when a change to the library is meant to change results, or
when the workloads change; the stored digests are what the benchmark
compares outputs with on the default seed.
"""

import json
import os
import sys

import run
from workloads import digest, workloads

# whole rounds, enough to cover a run of BENCHMARK.json's length about twice
STORED = {"invariants": 5560, "construct_cli": 2520}


def main(names) -> int:
    sys.path.insert(0, run.SRC)
    path = os.path.join(run.HERE, "expected.json")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    data["seed"] = run.DEFAULT_SEED
    data["workloads"] = {k: v for k, v in data["workloads"].items() if k in STORED}
    for name in names or STORED:
        wl = workloads(run.SRC)[name]
        lib = run.load_library()
        ops = wl.build(lib, run.DEFAULT_SEED)[: STORED[name]]
        _, outs, wall = run.run_ops(wl, lib, ops)
        bad = run.check_outputs(wl, lib, ops, outs, None)
        if bad:
            print(f"{name}: refusing to store outputs that fail their checks: {bad[:5]}")
            return 1
        data["workloads"][name] = {
            "inputs_hash": run.inputs_hash(wl.build(lib, run.DEFAULT_SEED)),
            "digests": [digest(wl.canon_out(op, o)) for op, o in zip(ops, outs)],
        }
        print(f"{name}: {len(outs)} digests in {wall:.1f} s", flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
