"""Command-line front end.

Every command reads JSON documents (from files or stdin), runs one library
operation, and writes a single JSON report to stdout:

    {"command": ..., "status": ..., "payload": ..., "witnesses": ..., "timing_ms": ...}

Payload rationals are "p/q" strings.  Exit code 0 on success, 1 when an
input document fails parsing or validation, 2 when the computation itself
reports an error (or a verification claim fails).  Command outputs parse
as input documents, so commands compose through pipes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bounds import (
    delta,
    example_family,
    tightness_csv,
    tightness_scan,
    u_sequence,
    verify_adjunction_theorem,
    verify_fano_contraction_theorem,
    verify_lc_complement_theorem,
)
from .divisors import (
    ToricDivisor,
    boundary_divisor,
    is_ample_over,
    rel_trivial_witness,
    zero_divisor,
)
from .errors import ParseError, ToricError, ValidationError
from .fans import Fan
from .fibration import (
    BudgetExhausted,
    CertifiedAtLeast,
    Exact,
    Indeterminate,
    ToricMorphism,
    Witness,
    discriminant_divisor,
    lc_threshold_over,
    pullback_multiplicities,
    relative_mld,
    validate_morphism,
)
from .mfs import factor_mfs
from .serialize import (
    divisor_doc,
    fan_doc,
    jsonable,
    morphism_doc,
    parse_input,
    parse_rat,
)
from .singularities import global_mld, is_eps_lc, mld_at_cone


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_fan(path: str) -> Fan:
    obj = parse_input(_read(path))
    if isinstance(obj, ToricMorphism):
        return obj.source
    if isinstance(obj, Fan):
        return obj
    raise ParseError("expected a fan (or morphism) document")


def _load_morphism(path: str) -> ToricMorphism:
    obj = parse_input(_read(path))
    if not isinstance(obj, ToricMorphism):
        raise ParseError("expected a morphism document")
    return obj


def _load_divisor(arg: str, f: Fan) -> ToricDivisor:
    if arg == "zero":
        return zero_divisor(f)
    if arg == "boundary":
        return boundary_divisor(f)
    obj = parse_input(_read(arg), context=f)
    if not isinstance(obj, ToricDivisor):
        raise ParseError("expected a divisor document")
    return obj


def _int_list(text: str, error: str = "expected comma-separated integers") -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise ParseError(f"{error}, got {text!r}") from None


_CONE_ERROR = "cone indices must be integers"


def _mld_payload(rep) -> dict:
    return {
        "mld": rep.value,
        "witness": list(rep.witness) if rep.witness is not None else None,
        "status": rep.status,
    }


def cmd_validate(args):
    try:
        obj = parse_input(_read(args.input), context=None)
    except ValidationError as exc:
        payload = {"valid": False, "violations": [list(v) for v in exc.violations]}
        return "invalid", payload, None, 1
    if isinstance(obj, Fan):
        payload = {
            "kind": "fan",
            "valid": True,
            "rank": obj.rank,
            "rays": len(obj.rays),
            "max_cones": len(obj.max_cones),
        }
    else:
        d = validate_morphism(obj)
        payload = {
            "kind": "morphism",
            "valid": True,
            "compatible": d.compatible,
            "is_contraction": d.is_contraction,
            "is_proper": d.is_proper,
            "relative_dimension": d.relative_dimension,
        }
    return "ok", payload, None, 0


def cmd_mld(args):
    f = _load_fan(args.fan)
    b = _load_divisor(args.divisor, f)
    rep = global_mld(f, b)
    payload = _mld_payload(rep)
    return "ok", payload, {"witness": payload["witness"]}, 0


def cmd_mld_at(args):
    f = _load_fan(args.fan)
    b = _load_divisor(args.divisor, f)
    rep = mld_at_cone(f, b, _int_list(args.cone, _CONE_ERROR))
    payload = _mld_payload(rep)
    return "ok", payload, {"witness": payload["witness"]}, 0


def cmd_eps_lc(args):
    f = _load_fan(args.fan)
    b = _load_divisor(args.divisor, f)
    eps = parse_rat(args.eps)
    return "ok", {"eps": eps, "eps_lc": is_eps_lc(f, b, eps)}, None, 0


def cmd_ample(args):
    f = _load_morphism(args.morphism)
    b = _load_divisor(args.divisor, f.source)
    return "ok", {"ample_over": is_ample_over(f, b)}, None, 0


def cmd_rel_trivial(args):
    f = _load_morphism(args.morphism)
    b = _load_divisor(args.divisor, f.source)
    w = rel_trivial_witness(f, b)
    if w is None:
        return "ok", {"rel_trivial": False, "m": None, "ell": None}, None, 0
    payload = {
        "rel_trivial": True,
        "m": list(w.m),
        "ell": [list(fn) for fn in w.ell.functionals],
    }
    return "ok", payload, {"m": payload["m"]}, 0


def _check_ray(f: ToricMorphism, w: int) -> None:
    if not 0 <= w < len(f.target.rays):
        raise ParseError(f"target ray index {w} out of range")


def cmd_pullback(args):
    f = _load_morphism(args.morphism)
    _check_ray(f, args.ray)
    pulls = pullback_multiplicities(f, args.ray)
    payload = {
        "ray": args.ray,
        "multiplicities": [
            {"ray": list(v), "multiplicity": c} for v, c in pulls
        ],
    }
    return "ok", payload, None, 0


def cmd_lct(args):
    f = _load_morphism(args.morphism)
    _check_ray(f, args.ray)
    b = _load_divisor(args.divisor, f.source)
    return "ok", {"lct": lc_threshold_over(f, b, args.ray)}, None, 0


def cmd_discriminant(args):
    f = _load_morphism(args.morphism)
    b = _load_divisor(args.divisor, f.source)
    res = discriminant_divisor(f, b)
    payload = divisor_doc(res.divisor)
    payload["thresholds"] = list(res.thresholds)
    payload["moduli_is_zero"] = res.moduli_is_zero
    return "ok", payload, None, 0


def cmd_rel_mld(args):
    f = _load_morphism(args.morphism)
    b = _load_divisor(args.divisor, f.source)
    cone = _int_list(args.cone, _CONE_ERROR)
    res = relative_mld(f, b, cone, parse_rat(args.eps), radius=args.radius)
    if isinstance(res, Exact):
        payload = {
            "status": "exact",
            "value": res.value,
            "witness": list(res.witness) if res.witness is not None else None,
        }
    elif isinstance(res, CertifiedAtLeast):
        payload = {"status": "certified_at_least", "bound": res.bound}
    elif isinstance(res, Witness):
        payload = {"status": "witness", "value": res.value, "witness": list(res.v)}
    elif isinstance(res, BudgetExhausted):
        payload = {"status": "budget_exhausted", "radius": res.radius, "searched": res.searched}
    else:
        assert isinstance(res, Indeterminate)
        payload = {"status": "indeterminate", "radius": res.radius}
    return "ok", payload, {"witness": payload.get("witness")}, 0


def cmd_factor_mfs(args):
    f = _load_morphism(args.morphism)
    res = factor_mfs(f)
    payload = {
        "e": res.e,
        "e_ray": list(res.e_ray),
        "a_e": res.a_e,
        "w": fan_doc(res.w),
        "pi": morphism_doc(res.pi),
        "g": morphism_doc(res.g),
        "h": morphism_doc(res.h),
    }
    return "ok", payload, {"e_ray": payload["e_ray"]}, 0


def cmd_delta(args):
    return "ok", {"delta": delta(args.r, parse_rat(args.eps))}, None, 0


def cmd_example_family(args):
    inst = example_family(args.r, args.q)
    payload = morphism_doc(inst.f)
    payload["r"] = inst.r
    payload["q"] = inst.q
    payload["multiple_ray"] = inst.multiple_ray
    payload["multiplicity"] = u_sequence(inst.r + 1, inst.q) - 1
    return "ok", payload, None, 0


def _report_payload(rep) -> dict:
    return {
        "status": rep.status,
        "passed": rep.passed,
        "hypotheses": {name: ok for name, ok in rep.hypotheses},
        "claims": {name: ok for name, ok in rep.claims},
        "measurements": {name: val for name, val in rep.measurements},
    }


def _verify_exit(rep) -> int:
    return 0 if rep.passed else 2


def cmd_verify_fano(args):
    f = _load_morphism(args.morphism)
    b = _load_divisor(args.divisor, f.source)
    rep = verify_fano_contraction_theorem(
        f, b, _int_list(args.cone, _CONE_ERROR), parse_rat(args.eps), radius=args.radius
    )
    wit = {name: val for name, val in rep.witnesses}
    return rep.status, _report_payload(rep), wit, _verify_exit(rep)


def cmd_verify_adjunction(args):
    f = _load_morphism(args.morphism)
    b = _load_divisor(args.divisor, f.source)
    probes = tuple(_int_list(p) for p in args.probe)
    rep = verify_adjunction_theorem(
        f,
        b,
        _int_list(args.cone, _CONE_ERROR),
        parse_rat(args.eps),
        probes=probes,
        radius=args.radius,
    )
    wit = {name: val for name, val in rep.witnesses}
    return rep.status, _report_payload(rep), wit, _verify_exit(rep)


def cmd_verify_lc(args):
    f = _load_morphism(args.morphism)
    b = _load_divisor(args.divisor, f.source)
    plus = _load_divisor(args.plus, f.source)
    rep = verify_lc_complement_theorem(
        f, b, plus, _int_list(args.cone, _CONE_ERROR), parse_rat(args.eps), radius=args.radius
    )
    wit = {name: val for name, val in rep.witnesses}
    return rep.status, _report_payload(rep), wit, _verify_exit(rep)


def cmd_tightness_scan(args):
    rows = tightness_scan(args.r, _int_list(args.q))
    if args.out == "csv":
        sys.stdout.write(tightness_csv(rows))
        return None, None, None, 0
    payload = {
        "rows": [
            {
                "q": row.q,
                "multiplicity": row.multiplicity,
                "inverse_delta": row.inverse_delta,
                "ratio": row.ratio,
            }
            for row in rows
        ]
    }
    return "ok", payload, None, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricmld",
        description="Exact singularity invariants of toric pairs and fibrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", cmd_validate, help="validate a fan or morphism document")
    p.add_argument("--in", dest="input", default="-", help="document path or - for stdin")

    for name, fn, needs_eps in [
        ("mld", cmd_mld, False),
        ("mld-at", cmd_mld_at, False),
        ("eps-lc", cmd_eps_lc, True),
    ]:
        p = add(name, fn, help=f"{name} of a toric pair")
        p.add_argument("--fan", default="-", help="fan document path or - for stdin")
        p.add_argument("--divisor", default="zero", help="path, 'zero', or 'boundary'")
        if name == "mld-at":
            p.add_argument("--cone", required=True, help="comma-separated ray indices")
        if needs_eps:
            p.add_argument("--eps", required=True, help="rational p/q in (0,1]")

    for name, fn in [
        ("ample", cmd_ample),
        ("rel-trivial", cmd_rel_trivial),
        ("discriminant", cmd_discriminant),
    ]:
        p = add(name, fn, help=f"{name.replace('-', ' ')} over the base")
        p.add_argument("--morphism", default="-", help="morphism document path or -")
        p.add_argument("--divisor", default="zero", help="path, 'zero', or 'boundary'")

    p = add("pullback", cmd_pullback, help="multiplicities of the fiber over a base ray")
    p.add_argument("--morphism", default="-")
    p.add_argument("--ray", type=int, default=0, help="target ray index")

    p = add("lct", cmd_lct, help="lc threshold over the generic point of a base ray")
    p.add_argument("--morphism", default="-")
    p.add_argument("--divisor", default="zero")
    p.add_argument("--ray", type=int, default=0)

    p = add("rel-mld", cmd_rel_mld, help="minimal log discrepancy over a base cone")
    p.add_argument("--morphism", default="-")
    p.add_argument("--divisor", default="zero")
    p.add_argument("--cone", default="0")
    p.add_argument("--eps", default="1/2")
    p.add_argument("--radius", type=int, default=10_000)

    p = add("factor-mfs", cmd_factor_mfs, help="factor through a divisorial extraction")
    p.add_argument("--morphism", default="-")

    p = add("delta", cmd_delta, help="the explicit lower bound delta(r, eps)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--eps", required=True)

    p = add("example-family", cmd_example_family, help="extremal family instance")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    for name, fn in [
        ("verify-fano", cmd_verify_fano),
        ("verify-adjunction", cmd_verify_adjunction),
        ("verify-lc", cmd_verify_lc),
    ]:
        p = add(name, fn, help=f"run the {name[7:]} check on an instance")
        p.add_argument("--morphism", default="-")
        p.add_argument("--divisor", default="zero")
        p.add_argument("--cone", default="0")
        p.add_argument("--eps", default="1/2")
        p.add_argument("--radius", type=int, default=10_000)
        if name == "verify-adjunction":
            p.add_argument(
                "--probe",
                action="append",
                default=[],
                help="comma-separated base vector; repeatable",
            )
        if name == "verify-lc":
            p.add_argument("--plus", required=True, help="auxiliary boundary document")

    p = add("tightness-scan", cmd_tightness_scan, help="multiplicity against 1/delta")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--q", required=True, help="comma-separated list of q >= 2")
    p.add_argument("--out", choices=["csv", "json"], default="csv")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        status, payload, witnesses, code = args.fn(args)
    except (ParseError, ValidationError) as exc:
        status = "validation_error"
        payload = {"error": type(exc).__name__, "detail": str(exc)}
        witnesses, code = None, 1
    except ToricError as exc:
        status = "error"
        payload = {"error": type(exc).__name__, "detail": str(exc)}
        witnesses, code = None, 2
    if status is None:
        return code  # raw (csv) output already written
    elapsed = (time.perf_counter() - start) * 1000.0
    report = {
        "command": args.command,
        "status": status,
        "payload": jsonable(payload),
        "witnesses": jsonable(witnesses),
        "timing_ms": round(elapsed, 3),
    }
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
