"""Command-line surface: reproducible batch analyses with JSON reports.

Subcommands: analyze (full per-c classification of one function),
construct (build + validate + classify a recipe), monomial (tower sweep
of a power function), verify-theorems (the cross-module suites), and
experiment (open-problem probes).  JSON is the canonical output; the
human format is a projection of it.  Reports embed the field modulus so
every result is reconstructible, and identical config + seed gives
byte-identical JSON at any parallelism.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cdiff, construct, monomial, verify
from .errors import CduError, ConfigError, ParseError
from .field import format_field_spec, make_field, parse_element, parse_field_spec
from .funcs import PolyFunc, is_permutation, is_two_to_one, parse_function

DEFAULT_DDT_CAP = 1 << 12

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_STRICT_FAILURE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdu",
        description="c-differential uniformity toolkit over finite fields")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "human"], default=None,
                        help="output format (default json)")
    common.add_argument("--parallel", type=int, default=None,
                        help="worker pool size (default 1)")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized suites (default 0)")
    common.add_argument("--cap", type=int, default=None,
                        help=f"field-order cap (analyze default {DEFAULT_DDT_CAP})")
    common.add_argument("--force", action="store_true",
                        help="override the field-size cap")
    common.add_argument("--config", default=None,
                        help="JSON file with default option values")
    common.add_argument("--strict", action="store_true",
                        help="exit nonzero when a verification suite fails")

    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", parents=[common],
                          help="classify a function for every multiplier c")
    p_an.add_argument("--field", required=True, help="field spec, e.g. 3^2 or 2^3/1,1,0,1")
    p_an.add_argument("--function", required=True, help="polynomial text, e.g. 'x^2 + x^3'")
    p_an.add_argument("--c-scope", type=int, default=None, metavar="DEGREE",
                      help="restrict multipliers to the subfield F_{p^DEGREE}")
    p_an.add_argument("--matrix-c", default=None,
                      help="also dump the full count matrix for this c")
    p_an.add_argument("--matrix-out", default=None,
                      help="CSV path for the matrix dump (default stdout)")

    p_co = sub.add_parser("construct", parents=[common],
                          help="build, validate and classify a construction recipe")
    p_co.add_argument("--recipe", required=True,
                      help="inline JSON or @file with keys theorem/q/n/phi/g/h_or_b/kind/terms")

    p_mo = sub.add_parser("monomial", parents=[common],
                          help="exceptionality sweep of x^d over a tower")
    p_mo.add_argument("--p", type=int, required=True)
    p_mo.add_argument("--h", type=int, required=True)
    p_mo.add_argument("--d", type=int, required=True)
    p_mo.add_argument("--c", required=True, help="element of F_{p^h} (integer or g-form)")
    p_mo.add_argument("--rmax", type=int, required=True)

    p_ve = sub.add_parser("verify-theorems", parents=[common],
                          help="run the cross-module verification suites")
    p_ve.add_argument("--suite", action="append", default=None,
                      choices=sorted(verify.SUITES), help="run only these suites")

    p_ex = sub.add_parser("experiment", parents=[common],
                          help="open-problem probes (no invariant asserted)")
    p_ex.add_argument("--probe", required=True,
                      choices=["pseudo-pcn", "relaxed-pcn-odd-p", "quad-zero-index"])
    p_ex.add_argument("--field", default=None, help="field spec for the probe")
    p_ex.add_argument("--count", type=int, default=200,
                      help="sample size for randomized probes")

    return parser


def _load_config(args) -> dict:
    if not args.config:
        return {}
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


def _resolve(args, cfg, key, default):
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in cfg:
        return cfg[key]
    return default


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        _emit_human(report)


def _emit_human(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v:
                print(f"{pad}{k}:")
                _emit_human(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                _emit_human(v, indent + 1)
                print()
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{obj}")


def _field_from(spec_text: str):
    try:
        return parse_field_spec(spec_text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_analyze(args, cfg) -> tuple[dict, int]:
    ctx = _field_from(_resolve(args, cfg, "field", None))
    q = ctx.order
    scope = getattr(args, "c_scope", None)
    if scope is not None and (scope < 1 or ctx.n % scope):
        raise ConfigError(f"--c-scope {scope} does not divide the extension degree {ctx.n}")
    cap = _resolve(args, cfg, "cap", DEFAULT_DDT_CAP)
    if q > cap and not args.force:
        n_c = q if scope is None else ctx.p ** scope
        raise ConfigError(
            f"field order {q} exceeds the cap {cap}: the report evaluates {n_c} multipliers"
            f" x {q} directions = {n_c * q} c-derivative rows of {q} elements each;"
            " pass --force to override")
    try:
        f = parse_function(_resolve(args, cfg, "function", None), ctx)
    except ParseError as exc:
        raise ConfigError(f"cannot parse function: {exc}") from None
    workers = _resolve(args, cfg, "parallel", 1)
    cs = None if scope is None else ctx.subfield_elements(ctx.p ** scope)
    report = cdiff.full_report(f, workers=workers, cs=cs).to_dict()
    if args.matrix_c is not None:
        c = parse_element(ctx, args.matrix_c)
        spectrum = cdiff.c_ddt(f, c)
        if args.matrix_out:
            with open(args.matrix_out, "w") as fh:
                spectrum.to_csv(fh)
            report["matrix_csv"] = args.matrix_out
        else:
            spectrum.to_csv(sys.stdout)
    return {"command": "analyze", "report": report}, EXIT_OK


def _prime_of(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            m = 0
            t = q
            while t % p == 0:
                t //= p
                m += 1
            if t != 1:
                raise ConfigError(f"q={q} is not a prime power")
            return p, m
    raise ConfigError(f"q={q} is not a prime power")


def cmd_construct(args, cfg) -> tuple[dict, int]:
    raw = args.recipe
    if raw.startswith("@"):
        try:
            with open(raw[1:]) as fh:
                raw = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read recipe file: {exc}") from None
    try:
        recipe = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"recipe is not valid JSON: {exc}") from None
    for key in ("theorem", "q", "n"):
        if key not in recipe:
            raise ConfigError(f"recipe is missing {key!r}")
    theorem = recipe["theorem"]
    q0, n = int(recipe["q"]), int(recipe["n"])
    p, m = _prime_of(q0)
    ctx = make_field(p, m * n)
    workers = _resolve(args, cfg, "parallel", 1)

    def fparse(key, default=None):
        text = recipe.get(key, default)
        if text is None:
            raise ConfigError(f"recipe is missing {key!r}")
        return parse_function(str(text), ctx)

    if theorem == "pcn1":
        phi = fparse("phi", "x")
        g = fparse("g", "0")
        h_or_b = recipe.get("h_or_b", 1)
        kind = recipe.get("kind", "f1")
        if isinstance(h_or_b, (int, str)) and str(h_or_b).lstrip("-").isdigit():
            params = construct.AgwParams(ctx=ctx, q=q0, phi=phi, g=g,
                                         b=int(h_or_b), kind=kind)
        else:
            params = construct.AgwParams(ctx=ctx, q=q0, phi=phi, g=g,
                                         h=parse_function(str(h_or_b), ctx), kind=kind)
        validation = construct.validate_preconditions(params).to_dict()
        f = construct.build_agw_pp(params, validate=True)
        extra = {"is_permutation": is_permutation(f)}
    elif theorem == "quad":
        phi = fparse("phi", "x")
        b = int(recipe.get("h_or_b", 1))
        terms = [(parse_function(str(t["g"]), ctx), int(t["s"]))
                 for t in recipe.get("terms", [])]
        if not terms:
            raise ConfigError("recipe needs a nonempty 'terms' list for theorem=quad")
        f = construct.build_quad_exponent_pp(ctx, q0, phi, b, terms)
        validation = {"terms": len(terms)}
        extra = {"is_permutation": is_permutation(f)}
    elif theorem == "apcnagw":
        phi = fparse("phi")
        g = fparse("g", "0")
        b = int(recipe.get("h_or_b", 1))
        kind = recipe.get("kind", "f1")
        params = construct.AgwParams(ctx=ctx, q=q0, phi=phi, g=g, b=b, kind=kind)
        validation = construct.validate_preconditions(params, two_to_one=True).to_dict()
        f = construct.build_apcn_2to1(params, validate=True)
        extra = {"is_two_to_one": is_two_to_one(f)}
    else:
        raise ConfigError(f"unknown theorem {theorem!r}; use pcn1 | quad | apcnagw")

    classification = cdiff.full_report(f, workers=workers).to_dict()
    return {
        "command": "construct",
        "recipe": recipe,
        "field": format_field_spec(ctx),
        "function": str(f),
        "validation": validation,
        "properties": extra,
        "classification": classification,
    }, EXIT_OK


def cmd_monomial(args, cfg) -> tuple[dict, int]:
    base = make_field(args.p, args.h)
    try:
        c = parse_element(base, args.c)
    except ParseError as exc:
        raise ConfigError(f"cannot parse c: {exc}") from None
    workers = _resolve(args, cfg, "parallel", 1)
    cap = _resolve(args, cfg, "cap", monomial.DEFAULT_SWEEP_CAP)
    analysis = monomial.exceptionality_sweep(
        args.p, args.h, args.d, c, args.rmax, cap=cap, workers=workers)
    return {"command": "monomial", "report": analysis.to_dict()}, EXIT_OK


def cmd_verify(args, cfg) -> tuple[dict, int]:
    seed = _resolve(args, cfg, "seed", 0)
    workers = _resolve(args, cfg, "parallel", 1)
    names = args.suite or sorted(verify.SUITES)
    results = {}
    for name in names:
        results[name] = verify.SUITES[name](seed, workers)
    all_passed = all(r["passed"] for r in results.values())
    report = {
        "command": "verify-theorems",
        "seed": seed,
        "suites": results,
        "passed": all_passed,
    }
    status = EXIT_OK if (all_passed or not args.strict) else EXIT_STRICT_FAILURE
    return report, status


def cmd_experiment(args, cfg) -> tuple[dict, int]:
    seed = _resolve(args, cfg, "seed", 0)
    probe = args.probe
    if probe == "pseudo-pcn":
        ctx = _field_from(args.field or "2^3")
        if ctx.p != 2:
            raise ConfigError("the pseudo-PcN probe needs characteristic 2")
        rows = []
        for d in range(1, ctx.order):
            f = PolyFunc(ctx, {d: 1})
            cs = [c for c in range(ctx.order)
                  if cdiff.is_pseudo_pcn(f, c)]
            if cs:
                rows.append({"d": d, "pseudo_pcn_c": cs})
        report = {"probe": probe, "field": format_field_spec(ctx),
                  "monomials_with_pseudo_pcn_c": rows}
    elif probe == "relaxed-pcn-odd-p":
        ctx = _field_from(args.field or "3^2")
        if ctx.p == 2:
            raise ConfigError("this probe explores odd characteristic")
        import random as _random
        counterexamples = []
        relaxed = 0
        for i in range(args.count):
            rng = _random.Random(f"{seed}:oddp:{i}")
            table = [rng.randrange(ctx.order) for _ in range(ctx.order)]
            f = PolyFunc.from_table(ctx, table)
            for c in range(ctx.order):
                if c == 1:
                    continue
                if cdiff.is_relaxed_pcn(f, c):
                    relaxed += 1
                    if not is_permutation(f):
                        counterexamples.append({"index": i, "c": c, "table": table})
        report = {"probe": probe, "field": format_field_spec(ctx), "count": args.count,
                  "relaxed_instances": relaxed,
                  "non_pp_counterexamples": counterexamples,
                  "note": "exploratory: no invariant asserted for odd characteristic"}
    else:  # quad-zero-index
        ctx = _field_from(args.field or "5^2")
        p = ctx.p
        m = ctx.n // 2
        q0 = p ** m
        j = construct.subspace_j(ctx, q0)
        rows = []
        for k in range(1, 2 * m):
            s = 1 + p ** k  # index 0 deliberately outside the builder's range
            phi = PolyFunc(ctx, {1: 1})
            g = PolyFunc(ctx, {1: 1, 0: j.elements[1] if len(j) > 1 else 0})
            psi = construct.psi_table(ctx, q0)
            table = ctx.vadd(phi.table, ctx.vpow_const(g.table[psi], s))
            f = PolyFunc.from_table(ctx, table)
            rows.append({"s": s, "is_permutation": is_permutation(f)})
        report = {"probe": probe, "field": format_field_spec(ctx),
                  "excluded_exponents": rows,
                  "note": "s = p^0 + p^k lies outside the builder's index range"}
    return {"command": "experiment", "seed": seed, "report": report}, EXIT_OK


_COMMANDS = {
    "analyze": cmd_analyze,
    "construct": cmd_construct,
    "monomial": cmd_monomial,
    "verify-theorems": cmd_verify,
    "experiment": cmd_experiment,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        report, status = _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CduError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - internal faults
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    fmt = _resolve(args, cfg, "format", "json")
    _emit(report, fmt)
    return status


if __name__ == "__main__":
    sys.exit(main())
