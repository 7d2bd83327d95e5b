"""Span tracer for the toricmld benchmark.

The tracer wraps public library functions from the outside: for every
traced function it replaces each binding of that function object in every
loaded ``toricmld.*`` module namespace, so calls made through
``from .cones import box_points``-style imports are caught as well as
calls through ``cones.box_points``.  The ``functools.lru_cache`` objects
are wrapped like any other function and keep their caches; hit and miss
counts are read from ``cache_info()`` deltas.

Each call opens a span (name, start, end, parent).  Spans are folded into
per-name aggregates as they close: the parent is the span on top of the
stack, and a span's self time is its duration minus the durations of its
direct children.  Counts are taken from return values at the same
boundaries.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

# (span name, defining module, function name)
TRACED = (
    ("cones.box_points", "cones", "box_points"),
    ("cones.hrep", "cones", "hrep"),
    ("cones.cut", "cones", "cut"),
    ("cones.covered_by", "cones", "covered_by"),
    ("cones.triangulate", "cones", "triangulate"),
    ("intlinalg.solve_exact", "intlinalg", "solve_exact"),
    ("intlinalg.hermite_normal_form", "intlinalg", "hermite_normal_form"),
    ("intlinalg.kernel_basis", "intlinalg", "kernel_basis"),
    ("intlinalg.smith_normal_form", "intlinalg", "smith_normal_form"),
    ("singularities.global_mld", "singularities", "global_mld"),
    ("singularities.mld_at_cone", "singularities", "mld_at_cone"),
    ("singularities.is_eps_lc", "singularities", "is_eps_lc"),
    ("singularities.log_discrepancy", "singularities", "log_discrepancy"),
    ("singularities.triangulated", "singularities", "_triangulated"),
    ("fans.fan", "fans", "fan"),
    ("fans.locate", "fans", "locate"),
    ("fans.walls", "fans", "_walls"),
    ("ratlp.solve_min", "ratlp", "solve_min"),
    ("ratlp.simplex_min", "ratlp", "simplex_min"),
    ("divisors.log_discrepancy_function", "divisors", "log_discrepancy_function"),
    ("divisors.rel_trivial_witness", "divisors", "rel_trivial_witness"),
    ("divisors.is_ample_over", "divisors", "is_ample_over"),
    ("fibration.relative_mld", "fibration", "relative_mld"),
    ("fibration.validate_morphism", "fibration", "validate_morphism"),
    ("fibration.lc_threshold_over", "fibration", "lc_threshold_over"),
    ("mfs.factor_mfs", "mfs", "factor_mfs"),
    ("bounds.example_family", "bounds", "example_family"),
    ("bounds.verify", "bounds", "verify_fano_contraction_theorem"),
    ("bounds.verify", "bounds", "verify_adjunction_theorem"),
    ("bounds.verify", "bounds", "verify_lc_complement_theorem"),
    ("serialize.parse_input", "serialize", "parse_input"),
    ("serialize.jsonable", "serialize", "jsonable"),
)

# span name -> lru_cache object whose hit fraction is reported
CACHES = {
    "cones.hrep": ("cones", "hrep"),
    "singularities.triangulated": ("singularities", "_triangulated"),
    "fans.walls": ("fans", "_walls"),
}

OUTCOMES = (
    "exact_enum",
    "exact_lp",
    "exact_search",
    "certified_at_least",
    "witness",
    "indeterminate",
    "minus_infinity",
)


def _library_modules():
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "toricmld" or name.startswith("toricmld."))
    }


class Tracer:
    """Installs span wrappers into the loaded toricmld modules."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.incl_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._cache_start: dict[str, tuple[int, int]] = {}
        self.cache_delta: dict[str, tuple[int, int]] = {}

    # -- counters taken from return values ---------------------------------

    def _count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _on_return(self, name, args, kwargs, result, box_calls_before):
        if name == "cones.box_points":
            self._count("cones.box_points.points", len(result))
        elif name == "cones.cut":
            self._count("cones.cut.gens_total", len(result))
            if len(result) > self.counts.get("cones.cut.gens_max", 0):
                self.counts["cones.cut.gens_max"] = len(result)
        elif name in ("singularities.global_mld", "singularities.mld_at_cone"):
            self._count("singularities.points_enumerated", result.enumerated_count)
        elif name == "fibration.relative_mld":
            kind = relative_mld_outcome(
                args, kwargs, result, self.calls.get("cones.box_points", 0) > box_calls_before
            )
            self._count("fibration.relative_mld.outcome." + kind, 1)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self._stack
        calls, self_ns, incl_ns = self.calls, self.self_ns, self.incl_ns
        on_return = self._on_return
        watch = name in (
            "cones.box_points",
            "cones.cut",
            "singularities.global_mld",
            "singularities.mld_at_cone",
            "fibration.relative_mld",
        )
        calls.setdefault(name, 0)
        self_ns.setdefault(name, 0)
        incl_ns.setdefault(name, 0)

        def traced(*args, **kwargs):
            box_before = calls["cones.box_points"] if watch else 0
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - start
                children = stack.pop()
                calls[name] += 1
                self_ns[name] += dur - children
                incl_ns[name] += dur
                if stack:
                    stack[-1] += dur
            if watch:
                on_return(name, args, kwargs, result, box_before)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        mods = _library_modules()
        for name, modname, fname in TRACED:
            home = mods.get("toricmld." + modname)
            if home is None:
                continue
            orig = getattr(home, fname)
            wrapper = self._wrap(name, orig)
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        self._cache_start = {}
        for name, (modname, fname) in CACHES.items():
            cache = _cache_object(mods, modname, fname)
            if cache is not None:
                info = cache.cache_info()
                self._cache_start[name] = (info.hits, info.misses)

    def uninstall(self) -> None:
        mods = _library_modules()
        for name, (modname, fname) in CACHES.items():
            cache = _cache_object(mods, modname, fname)
            if cache is not None and name in self._cache_start:
                info = cache.cache_info()
                h0, m0 = self._cache_start[name]
                self.cache_delta[name] = (info.hits - h0, info.misses - m0)
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates as plain data (also the format a CLI child sends back)."""
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "incl_ns": dict(self.incl_ns),
            "counts": dict(self.counts),
            "cache": {k: list(v) for k, v in self.cache_delta.items()},
        }


def _cache_object(mods, modname, fname):
    home = mods.get("toricmld." + modname)
    if home is None:
        return None
    obj = getattr(home, fname)
    if not hasattr(obj, "cache_info"):  # our wrapper around the cache
        obj = getattr(obj, "__wrapped__", None)
    return obj if hasattr(obj, "cache_info") else None


def relative_mld_outcome(args, kwargs, result, searched: bool) -> str:
    """Which path produced a relative_mld result."""
    kind = type(result).__name__
    if kind == "Exact":
        if type(result.value).__name__ == "_MinusInfinity":
            return "minus_infinity"
        b = args[1] if len(args) > 1 else kwargs["b"]
        if all(1 - c > 0 for c in b.coeffs):
            return "exact_enum"
        return "exact_search" if searched else "exact_lp"
    return {
        "CertifiedAtLeast": "certified_at_least",
        "Witness": "witness",
        "Indeterminate": "indeterminate",
    }[kind]


def merge(total: dict, part: dict) -> None:
    """Add one snapshot into another (used for CLI children)."""
    for section in ("calls", "self_ns", "incl_ns", "counts"):
        dst = total.setdefault(section, {})
        for k, v in part.get(section, {}).items():
            if k == "cones.cut.gens_max":
                dst[k] = max(dst.get(k, 0), v)
            else:
                dst[k] = dst.get(k, 0) + v
    dst = total.setdefault("cache", {})
    for k, (h, m) in part.get("cache", {}).items():
        h0, m0 = dst.get(k, (0, 0))
        dst[k] = [h0 + h, m0 + m]
