"""Benchmark of the toricmld library.

Run from the root of a source checkout (the package is imported from
``src/``; nothing needs installing):

    python3 perfbench/run.py --workload invariants --seed 3 --seconds 50 --trace 0

Workloads (see workloads.py for what each holds and why): invariants and
construct_cli.  Each is a single-caller closed loop over rounds of
operations generated from ``--seed``.

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it first runs the same operations untraced, then again with
span wrappers installed (tracer.py), checks that both produce the same
outputs, and prints the per-layer metrics.  Every output is checked
(expected values stored for the default seed in expected.json, plus
independent checks on any seed); failures count in ``failed``.

``ops_per_s`` counts the operations of the whole rounds completed in the
timed phase, over the time they took, so that where in a round the time
ran out does not move it.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 1
SETUP_REPEATS = 3
MODULES = (
    "intlinalg", "cones", "fans", "divisors", "singularities",
    "ratlp", "fibration", "bounds", "mfs",
)

sys.path.insert(0, HERE)

from tracer import CACHES, OUTCOMES, Tracer, merge  # noqa: E402
from workloads import digest, workloads  # noqa: E402


class Raised:
    """Stands in for the output of an operation that raised."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"


def load_library():
    """Import the library afresh (so that repeated set-ups each pay the import)."""
    for name in [n for n in sys.modules if n == "toricmld" or n.startswith("toricmld.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{m: importlib.import_module("toricmld." + m) for m in MODULES}
    )


def clear_caches(lib) -> None:
    for modname, fname in CACHES.values():
        getattr(getattr(lib, modname), fname).cache_clear()


def run_ops(wl, lib, ops, deadline=None):
    """Closed loop: each operation starts when the previous one returned."""
    lat, outs = [], []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter_ns()
        try:
            out = wl.run(lib, op)
        except Exception as exc:  # counted as a failed operation
            out = Raised(exc)
        lat.append(time.perf_counter_ns() - t0)
        outs.append(out)
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return lat, outs, time.perf_counter() - start


def setup(wl, seed):
    """Import, input generation and warm-up; returns (lib, ops, seconds, warm failures)."""
    t0 = time.perf_counter()
    lib = load_library()
    warm = wl.build(lib, seed, warm=True)
    ops = wl.build(lib, seed)
    _, outs, _ = run_ops(wl, lib, warm)
    bad = sum(isinstance(o, Raised) for o in outs)
    return lib, ops, time.perf_counter() - t0, bad


def inputs_hash(ops) -> str:
    text = json.dumps([op.spec for op in ops], sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected(name, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(name)


def check_outputs(wl, lib, ops, outs, expected):
    """Indices and reasons of operations whose output failed a check."""
    bad = []
    digests = expected["digests"] if expected else []
    for i, (op, out) in enumerate(zip(ops, outs)):
        if isinstance(out, Raised):
            bad.append((i, "raised " + out.text))
            continue
        if i < len(digests) and digests[i] != digest(wl.canon_out(op, out)):
            bad.append((i, "differs from the stored expected value"))
            continue
        try:
            msg = wl.check(lib, op, out)
            if msg is None and i < wl.deep_ops:
                msg = wl.deep_check(lib, op, out)
        except Exception as exc:  # a check that cannot run is a failed check
            msg = f"check raised {type(exc).__name__}: {exc}"
        if msg:
            bad.append((i, msg))
    return bad


def tail(lat_ns):
    """(percentile, value) at the highest whole percentile (or 99.9) that
    leaves at least 10 samples beyond it; nearest-rank."""
    n = len(lat_ns)
    srt = sorted(lat_ns)
    for p10 in (999, *range(990, 0, -10)):
        if n * (1000 - p10) >= 10_000:
            return p10 / 10, srt[-(-p10 * n // 1000) - 1]
    return 100.0, srt[-1]


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    gitdir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(gitdir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(gitdir, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(gitdir, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def emit(line: str = "") -> None:
    print(line, flush=True)


def metric_line(name, value, unit, note=""):
    emit(f"metric {name} = {value:.6g} {unit}{'  ' + note if note else ''}")


# -- per-layer metrics ---------------------------------------------------------


def per_layer(snap, cli, overhead, wall_s):
    calls, self_ns, incl_ns = snap.get("calls", {}), snap.get("self_ns", {}), snap.get("incl_ns", {})
    counts, cache = snap.get("counts", {}), snap.get("cache", {})

    def self_s(*names):
        return sum(self_ns.get(n, 0) for n in names) / 1e9

    def hit(name):
        h, m = cache.get(name, (0, 0))
        return h / (h + m) if h + m else 0.0

    sing = [n for n in self_ns if n.startswith("singularities.")]
    mld_time = (incl_ns.get("singularities.global_mld", 0) + incl_ns.get("singularities.mld_at_cone", 0)) / 1e9
    points = counts.get("singularities.points_enumerated", 0)
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    put("cones.box_points.calls", calls.get("cones.box_points", 0), "count")
    put("cones.box_points.points", counts.get("cones.box_points.points", 0), "count")
    put("cones.box_points.self_s", self_s("cones.box_points"), "s")
    put("intlinalg.solve_exact.calls", calls.get("intlinalg.solve_exact", 0), "count")
    put("intlinalg.solve_exact.self_s", self_s("intlinalg.solve_exact"), "s")
    put("singularities.self_s", self_s(*sing), "s")
    put("singularities.points_enumerated", points, "count")
    put("singularities.points_per_s", points / mld_time if mld_time else 0.0, "1/s")
    put("singularities.triangulated.hit_frac", hit("singularities.triangulated"), "fraction")
    put("cones.hrep.calls", calls.get("cones.hrep", 0), "count")
    put("cones.hrep.hit_frac", hit("cones.hrep"), "fraction")
    put("cones.hrep.self_s", self_s("cones.hrep"), "s")
    put("cones.cut.calls", calls.get("cones.cut", 0), "count")
    put("cones.cut.gens_total", counts.get("cones.cut.gens_total", 0), "count")
    put("cones.cut.gens_max", counts.get("cones.cut.gens_max", 0), "count")
    put("cones.cut.self_s", self_s("cones.cut"), "s")
    put("cones.covered_by.self_s", self_s("cones.covered_by"), "s")
    put("cones.triangulate.self_s", self_s("cones.triangulate"), "s")
    for fn in ("hermite_normal_form", "kernel_basis", "smith_normal_form"):
        put(f"intlinalg.{fn}.calls", calls.get(f"intlinalg.{fn}", 0), "count")
        put(f"intlinalg.{fn}.self_s", self_s(f"intlinalg.{fn}"), "s")
    put("fans.fan.calls", calls.get("fans.fan", 0), "count")
    put("fans.fan.self_s", self_s("fans.fan"), "s")
    put("fans.locate.calls", calls.get("fans.locate", 0), "count")
    put("fans.locate.self_s", self_s("fans.locate"), "s")
    put("fans.walls.hit_frac", hit("fans.walls"), "fraction")
    put("ratlp.solve_min.calls", calls.get("ratlp.solve_min", 0), "count")
    put("ratlp.solve_min.self_s", self_s("ratlp.solve_min"), "s")
    put("ratlp.simplex_min.calls", calls.get("ratlp.simplex_min", 0), "count")
    for fn in ("log_discrepancy_function", "rel_trivial_witness", "is_ample_over"):
        put(f"divisors.{fn}.calls", calls.get(f"divisors.{fn}", 0), "count")
        put(f"divisors.{fn}.self_s", self_s(f"divisors.{fn}"), "s")
    put("fibration.relative_mld.calls", calls.get("fibration.relative_mld", 0), "count")
    put("fibration.relative_mld.self_s", self_s("fibration.relative_mld"), "s")
    for kind in OUTCOMES:
        key = "fibration.relative_mld.outcome." + kind
        put(key, counts.get(key, 0), "count")
    put("fibration.validate_morphism.self_s", self_s("fibration.validate_morphism"), "s")
    put("fibration.lc_threshold_over.self_s", self_s("fibration.lc_threshold_over"), "s")
    put("mfs.factor_mfs.self_s", self_s("mfs.factor_mfs"), "s")
    put("bounds.example_family.self_s", self_s("bounds.example_family"), "s")
    put("bounds.verify.self_s", self_s("bounds.verify"), "s")
    put("serialize.parse_input.self_s", self_s("serialize.parse_input"), "s")
    put("serialize.jsonable.self_s", self_s("serialize.jsonable"), "s")
    put("cli.import_s", cli["import_s"], "s")
    put("cli.process_s", cli["process_s"], "s")
    put("cli.main_s", cli["main_s"], "s")
    put("trace.wall_s", wall_s, "s")
    put("trace.overhead_frac", overhead, "fraction")
    return m


def cli_children(part):
    """Merge the span aggregates the traced CLI children sent back."""
    snap = {}
    cli = {"import_s": 0.0, "process_s": 0.0, "main_s": 0.0}
    for spawned, err in part.child_stats:
        lines = err.decode().strip().splitlines()
        rep = json.loads(lines[-1])
        merge(snap, rep["trace"])
        main_ns = rep["main_end"] - rep["main_start"]
        cli["import_s"] += (rep["imported"] - rep["import_start"]) / 1e9
        cli["main_s"] += main_ns / 1e9
        cli["process_s"] += (rep["exit"] - spawned - main_ns) / 1e9
    return snap, cli


def round_rate(lat_ns, k):
    """(ops/s, number of rounds) over the whole rounds of k operations;
    None if no round is complete."""
    m = len(lat_ns) // k
    if not m:
        return None, 0
    rounds = [sum(lat_ns[i * k:(i + 1) * k]) for i in range(m)]
    emit("# round rates (ops/s): " + " ".join(f"{k * 1e9 / r:.4g}" for r in rounds))
    return m * k * 1e9 / sum(rounds), m


def peak_rss_mib():
    """Peak resident memory of this process or of any CLI child it waited for."""
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def end_to_end(wl, lat, wall, setups):
    n = len(lat)
    p, tail_ns = tail(lat)
    rate, rounds = round_rate(lat, wl.round_ops)
    if rate is None:  # a run too short for one round: the overall rate
        rate = n / wall
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (rate, "1/s"),
        "op_p50_ms": (statistics.median(lat) / 1e6, "ms"),
        "op_tail_ms": (tail_ns / 1e6, "ms"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    notes = {
        "setup_s": f"(median of {len(setups)} set-ups: " + ", ".join(f"{s:.3f}" for s in setups) + ")",
        "ops_per_s": f"({rounds} whole rounds of {wl.round_ops} ops; overall {n} ops in {wall:.3f} s)",
        "op_p50_ms": f"(n={n})",
        "op_tail_ms": f"(p{p:g}, n={n}, {sum(x > tail_ns for x in lat)} samples beyond)",
        "peak_rss_mib": "(this process or a CLI child)",
    }
    for name, (value, unit) in metrics.items():
        metric_line(name, value, unit, notes[name])
    return metrics


def _output_key(wl, op, out):
    return out.text if isinstance(out, Raised) else digest(wl.canon_out(op, out))


def traced_pass(wl, lib, ops, outs, wall, seed, bad):
    """Run the operations again with spans recorded, from the same cache
    state, and check that every output is unchanged."""
    clear_caches(lib)
    run_ops(wl, lib, wl.build(lib, seed, warm=True))
    tracer = Tracer()
    if wl.cli:
        wl.cli.child = os.path.join(HERE, "cli_child.py")  # spans of CLI ops are recorded in the children
    tracer.install()
    try:
        _, outs_t, wall_t = run_ops(wl, lib, ops)
    finally:
        tracer.uninstall()
    for i, (op, a, b) in enumerate(zip(ops, outs, outs_t)):
        if _output_key(wl, op, a) != _output_key(wl, op, b):
            bad.append((i, "traced output differs from the untraced output"))
    snap, cli = tracer.snapshot(), {"import_s": 0.0, "process_s": 0.0, "main_s": 0.0}
    if wl.cli:
        child_snap, cli = cli_children(wl.cli)
        merge(snap, child_snap)
    metrics = per_layer(snap, cli, wall_t / wall - 1, wall_t)
    emit(f"# traced run: {len(ops)} ops, untraced {wall:.3f} s, traced {wall_t:.3f} s")
    for name, (value, unit) in metrics.items():
        metric_line(name, value, unit, f"(n={len(ops)} ops)")
    return metrics


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads(SRC)))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "toricmld", "__init__.py")):
        print(f"error: no toricmld sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)

    wl = workloads(SRC)[args.workload]
    setups = []
    warm_bad = 0
    for _ in range(SETUP_REPEATS):
        lib, ops, secs, bad = setup(wl, args.seed)
        setups.append(secs)
        warm_bad += bad
    gc.collect()
    expected = load_expected(wl.name, args.seed)
    ihash = inputs_hash(ops)

    emit(f"# toricmld benchmark  workload={wl.name}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}")
    emit(f"# inputs_hash={ihash}  generated_inputs={len(ops)}")
    emit(f"# python={platform.python_version()}  nproc={nproc()}  commit={git_commit()}")
    emit("# loop: closed, 1 caller")

    if args.trace:
        # a fixed number of operations, so that the counts repeat exactly
        count = max(1, round(wl.trace_rate * args.seconds / 2))
        lat, outs, wall = run_ops(wl, lib, ops[:count])
    else:
        lat, outs, wall = run_ops(wl, lib, ops, deadline=time.perf_counter() + args.seconds)
    if not args.trace and len(outs) == len(ops):
        emit(f"# warning: all {len(ops)} generated inputs used before the time ran out")
    n = len(outs)
    bad = check_outputs(wl, lib, ops[:n], outs, expected)
    if expected and expected["inputs_hash"] != ihash:
        bad.append((-1, "generated inputs differ from the stored ones for the default seed"))
    if warm_bad:
        bad.append((-1, f"{warm_bad} warm-up operations raised"))

    if args.trace:
        metrics = traced_pass(wl, lib, ops[:n], outs, wall, args.seed, bad)
    else:
        metrics = end_to_end(wl, lat, wall, setups)

    failed_ops = min(n, len({i for i, _ in bad}))
    metric_line("failed_frac", failed_ops / max(n, 1), "fraction", f"({failed_ops} of {n} ops)")
    for i, why in bad[:10]:
        emit(f"# failure at op {i}: {why}")
    result = {
        "correct": not bad,
        "attempted": n,
        "failed": failed_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    emit(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
