"""Command-line surface: reproducible batch analyses with JSON reports.

Four subcommands: analyze (full per-c classification of one function),
construct (build + validate + classify a recipe), monomial (tower sweep
of a power function) and verify-theorems (the cross-module suites).
JSON is the canonical output; the human format is a projection of it.
Reports embed the field modulus so every result is reconstructible, and
identical config + seed gives byte-identical JSON across reruns.  Every
command runs serially.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys

from . import cdiff, construct
from .errors import CapExceeded, CduError, ConfigError, ParseError
from .field import format_field_spec, make_field, parse_element, prime_factors, split_field_spec
from .funcs import is_permutation, is_two_to_one, parse_function

DEFAULT_DDT_CAP = 1 << 12
DEFAULT_SWEEP_CAP = 1 << 20
# the sweep factors d-1 and phi(d-1) by trial division, with divisors up
# to about 2^20 each at this bound (about a second)
MAX_D_BITS = 40

# sorted(verify.SUITES), spelled out so that the parser does not import verify
SUITE_NAMES = ("classical-ddt", "constructions", "monomial-sweep", "planar-example",
               "planar-power-family", "quadratic-characterization", "relaxed-pcn",
               "shift-identity", "singular-points")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_STRICT_FAILURE = 3


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The cdu parser, and the parser of each command by name.  Each
    command takes only the options it reads."""
    parser = argparse.ArgumentParser(
        prog="cdu",
        description="c-differential uniformity toolkit over finite fields")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "human"], default="json",
                        help="output format (default json)")
    common.add_argument("--config", default=None,
                        help="JSON file of option values, keyed by long option name;"
                             " the command line overrides them")

    def capped(p, default):
        p.add_argument("--cap", type=int, default=default,
                       help=f"field-order cap (default {default})")
        p.add_argument("--force", action="store_true", help="override the cap, and monomial's bound on d")

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
    capped(p_an, DEFAULT_DDT_CAP)

    p_co = sub.add_parser("construct", parents=[common],
                          help="build, validate and classify a construction recipe")
    p_co.add_argument("--recipe", required=True,
                      help="inline JSON or @file with keys theorem/q/n/phi/g/h_or_b/kind/terms")
    capped(p_co, DEFAULT_DDT_CAP)

    p_mo = sub.add_parser("monomial", parents=[common],
                          help="exceptionality sweep of x^d over a tower")
    p_mo.add_argument("--p", type=int, required=True)
    p_mo.add_argument("--h", type=int, required=True)
    p_mo.add_argument("--d", type=int, required=True)
    p_mo.add_argument("--c", required=True, help="element of F_{p^h} (integer or g-form)")
    p_mo.add_argument("--rmax", type=int, required=True)
    capped(p_mo, DEFAULT_SWEEP_CAP)

    p_ve = sub.add_parser("verify-theorems", parents=[common],
                          help="run the cross-module verification suites")
    p_ve.add_argument("--suite", action="append", default=None,
                      choices=SUITE_NAMES, help="run only these suites")
    p_ve.add_argument("--seed", type=int, default=0,
                      help="seed for the randomized suites (default 0)")
    p_ve.add_argument("--strict", action="store_true",
                      help="exit 3 when a suite fails")

    return parser, sub.choices


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


def _config_argv(command: argparse.ArgumentParser, cfg: dict) -> list[str]:
    """The options a config file sets, as command-line tokens.

    Each key is a long option of the running command without its dashes,
    and each value is checked against that option's own argparse action:
    it must be what the action's type makes of its text (9 for --cap,
    not "9") and one of its choices; a flag takes true or false.
    """
    actions = {opt[2:]: action for action in command._actions
               for opt in action.option_strings if opt[2:] not in ("", "help", "config")}
    argv = []
    for key, value in cfg.items():
        action = actions.get(key)
        if action is None:
            raise ConfigError(f"config key {key!r}: {command.prog} takes no option --{key}")
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise ConfigError(f"config key {key!r}: --{key} takes true or false, not {value!r}")
            argv += [f"--{key}"] * value
            continue
        try:
            ok = (action.type or str)(str(value)) == value
        except ValueError:
            ok = False
        if not ok or (action.choices is not None and value not in action.choices):
            raise ConfigError(f"config key {key!r}: {value!r} is not a value of --{key}")
        argv.append(f"--{key}={value}")
    return argv


_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.lru_cache(maxsize=None)
def _flat_encoder(pad: str):
    """The C encoder, with items separated by a newline and pad; one is
    kept per nesting depth."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + pad, ": ")).encode


def _indented_json(obj, pad: str = "") -> str:
    """Exactly json.dumps(obj, sort_keys=True, indent=2), pad being the
    indentation of the line obj starts on.

    With an indent, json.dumps runs its pure-Python encoder.  Here a
    container that nests nothing nonempty is one call of the C encoder,
    whose item separator carries the newline and indentation, and so is
    a list of nonempty dicts of scalars; other containers recurse.
    """
    if isinstance(obj, dict):
        values = obj.values()
    elif isinstance(obj, (list, tuple)):
        values = obj
    else:
        return json.dumps(obj)
    if not obj:
        return json.dumps(obj)
    inner = pad + "  "
    if not any(isinstance(v, (dict, list, tuple)) and v for v in values):
        text = _flat_encoder(inner)(obj)
    elif isinstance(obj, dict):
        # json.dumps({k: None}) renders a key as the encoder does: 1 -> "1"
        text = "{" + f",\n{inner}".join(
            json.dumps({k: None})[1:-7] + ": " + _indented_json(v, inner)
            for k, v in sorted(obj.items())) + "}"
    elif ({*map(type, obj)} == {dict} and all(obj)
          and _SCALARS.issuperset(map(type, itertools.chain.from_iterable(map(dict.values, obj))))):
        # a list of nonempty dicts of scalars, like a report's entries: a
        # raw newline only ever comes from a separator, and every item of a
        # dict starts with its key, so "},\n" + inner2 + "{" is exactly a
        # boundary between two of the dicts
        inner2 = inner + "  "
        text = _flat_encoder(inner2)(obj).replace(
            f"}},\n{inner2}{{", f"\n{inner}}},\n{inner}{{\n{inner2}")
        return f"[\n{inner}{{\n{inner2}{text[2:-2]}\n{inner}}}\n{pad}]"
    else:
        text = "[" + f",\n{inner}".join(_indented_json(v, inner) for v in obj) + "]"
    return f"{text[0]}\n{inner}{text[1:-1]}\n{pad}{text[-1]}"


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(_indented_json(report))
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


def _drop_stdout():
    """Send the rest of stdout to os.devnull once its reader has closed
    the pipe, so that the flush at exit does not raise again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _field_spec(spec_text: str):
    try:
        return split_field_spec(spec_text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _power(p: int, e: int) -> str:
    """p^e in decimal, or written as a power once it has more than 18 digits."""
    return str(p ** e) if e * math.log10(max(p, 1)) <= 18 else f"{p}^{e}"


def _check_cap(args, cap: int, p: int, e: int, cost: str):
    """Refuse work over a field of order p^e above cap unless --force is
    given.  Commands call this before they build the field.  Neither the
    check nor cost computes a power too large to read, whose time would
    grow with e."""
    if not args.force and ((p > 1 and e > cap.bit_length()) or p ** e > cap):
        raise CapExceeded(f"field order {_power(p, e)} exceeds the cap {cap}: {cost};"
                          " pass --force to override")


def _check_report_cap(args, p: int, n: int, s: int):
    """The cap of an all-c report over F_{p^n} with p^s multipliers."""
    q = _power(p, n)
    _check_cap(args, args.cap, p, n,
               f"the report evaluates at most {_power(p, s)} multipliers x {q} directions"
               f" = {_power(p, s + n)} c-derivative rows of {q} elements each, an upper"
               " bound that the c = 0 fiber, the orbits of c (semilinear twist, c -> 1/c) and"
               " the orbits of directions (semilinear twist, x -> lambda*x scaling, a -> -a)"
               " lower")


def cmd_analyze(args) -> tuple[dict, int]:
    p, n, modulus = _field_spec(args.field)
    scope = args.c_scope
    if scope is not None and (scope < 1 or n % scope):
        raise ConfigError(f"--c-scope {scope} does not divide the extension degree {n}")
    _check_report_cap(args, p, n, n if scope is None else scope)
    ctx = make_field(p, n, modulus)
    try:
        f = parse_function(args.function, ctx)
    except ParseError as exc:
        raise ConfigError(f"cannot parse function: {exc}") from None
    cs = None if scope is None else ctx.subfield_elements(ctx.p ** scope)
    matrix_c, matrix_out = None, None
    if args.matrix_c is not None:
        # both are checked before the report is counted
        try:
            matrix_c = parse_element(ctx, args.matrix_c)
        except ParseError as exc:
            raise ConfigError(f"cannot parse --matrix-c: {exc}") from None
        if args.matrix_out:
            try:
                matrix_out = open(args.matrix_out, "w")
            except OSError as exc:
                raise ConfigError(f"cannot write --matrix-out: {exc}") from None
    with matrix_out or contextlib.nullcontext():
        report = cdiff.full_report(f, cs=cs).to_dict()
        if matrix_c is not None:
            spectrum = cdiff.c_ddt(f, matrix_c)
            if matrix_out:
                spectrum.to_csv(matrix_out)
                report["matrix_csv"] = args.matrix_out
            else:
                try:
                    spectrum.to_csv(sys.stdout)
                except BrokenPipeError:
                    _drop_stdout()
    return {"command": "analyze", "report": report}, EXIT_OK


def cmd_construct(args) -> tuple[dict, int]:
    raw = args.recipe
    if raw.startswith("@"):
        try:
            with open(raw[1:]) as fh:
                raw = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read recipe file: {exc}") from None
    try:
        recipe = json.loads(raw)
    except ValueError as exc:
        raise ConfigError(f"recipe is not valid JSON: {exc}") from None
    if not isinstance(recipe, dict):
        raise ConfigError("the recipe must be a JSON object")
    for key in ("theorem", "q", "n"):
        if key not in recipe:
            raise ConfigError(f"recipe is missing {key!r}")

    def integer(key, value):
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ConfigError(f"the recipe's {key} must be an integer, got {value!r}") from None

    theorem = recipe["theorem"]
    q0, n = integer("q", recipe["q"]), integer("n", recipe["n"])
    # the cap comes first: factoring a large q would take longer than refusing it
    _check_report_cap(args, q0, n, n)
    factors = prime_factors(q0)
    if len(factors) != 1:
        raise ConfigError(f"q={q0} is not a prime power")
    p = factors[0]
    ctx = make_field(p, n * next(m for m in itertools.count(1) if p ** m == q0))

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
        report = construct.validate_preconditions(params)
        report.require_pp()
        validation = report.to_dict()
        f = construct.build_agw_pp(params, validate=False)
        extra = {"is_permutation": is_permutation(f)}
    elif theorem == "quad":
        phi = fparse("phi", "x")
        b = integer("h_or_b", recipe.get("h_or_b", 1))
        terms = recipe.get("terms")
        if not (isinstance(terms, list) and terms
                and all(isinstance(t, dict) and {"g", "s"} <= t.keys() for t in terms)):
            raise ConfigError("recipe needs a nonempty 'terms' list of objects "
                              "with keys 'g' and 's' for theorem=quad")
        terms = [(parse_function(str(t["g"]), ctx), integer("s", t["s"])) for t in terms]
        f = construct.build_quad_exponent_pp(ctx, q0, phi, b, terms)
        validation = {"terms": len(terms)}
        extra = {"is_permutation": is_permutation(f)}
    elif theorem == "apcnagw":
        phi = fparse("phi")
        g = fparse("g", "0")
        b = integer("h_or_b", recipe.get("h_or_b", 1))
        kind = recipe.get("kind", "f1")
        params = construct.AgwParams(ctx=ctx, q=q0, phi=phi, g=g, b=b, kind=kind)
        report = construct.validate_preconditions(params, two_to_one=True)
        validation = report.to_dict()
        # the builder's own checks (characteristic, parity of n, b) fail first
        f = construct.build_apcn_2to1(params, validate=False)
        report.require_two_to_one()
        extra = {"is_two_to_one": is_two_to_one(f)}
    else:
        raise ConfigError(f"unknown theorem {theorem!r}; use pcn1 | quad | apcnagw")

    classification = cdiff.full_report(f).to_dict()
    return {
        "command": "construct",
        "recipe": recipe,
        "field": format_field_spec(ctx),
        "function": str(f),
        "validation": validation,
        "properties": extra,
        "classification": classification,
    }, EXIT_OK


def cmd_monomial(args) -> tuple[dict, int]:
    from . import monomial

    _check_cap(args, args.cap, args.p, args.h * args.rmax,
               f"the sweep builds F_{args.p}^({args.h}r) for r = 1..{args.rmax}")
    bits = (args.d - 1).bit_length()
    if bits > MAX_D_BITS and not args.force:
        raise CapExceeded(f"d - 1 has {bits} bits, above the bound of {MAX_D_BITS}: the sweep"
                          " factors d - 1 and phi(d - 1) by trial division, about"
                          f" 2^{(bits + 1) // 2} divisions each (2^{MAX_D_BITS // 2} at the"
                          " bound); pass --force to override")
    base = make_field(args.p, args.h)
    try:
        c = parse_element(base, args.c)
    except ParseError as exc:
        raise ConfigError(f"cannot parse c: {exc}") from None
    analysis = monomial.exceptionality_sweep(args.p, args.h, args.d, c, args.rmax)
    return {"command": "monomial", "report": analysis.to_dict()}, EXIT_OK


def cmd_verify(args) -> tuple[dict, int]:
    from . import verify

    names = args.suite or SUITE_NAMES
    results = {name: verify.SUITES[name](args.seed) for name in names}
    all_passed = all(r["passed"] for r in results.values())
    report = {
        "command": "verify-theorems",
        "seed": args.seed,
        "suites": results,
        "passed": all_passed,
    }
    status = EXIT_OK if (all_passed or not args.strict) else EXIT_STRICT_FAILURE
    return report, status


_COMMANDS = {
    "analyze": cmd_analyze,
    "construct": cmd_construct,
    "monomial": cmd_monomial,
    "verify-theorems": cmd_verify,
}


def main(argv=None) -> int:
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the config's options go first, so the command line's own
            # override them; argv[0] is the command, as cdu takes no option
            # before it but --help
            config_argv = _config_argv(commands[args.command], _load_config(args.config))
            args = parser.parse_args([argv[0], *config_argv, *argv[1:]])
        report, status = _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CduError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - internal faults
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        _emit(report, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
    return status


if __name__ == "__main__":
    sys.exit(main())
