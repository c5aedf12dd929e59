"""Command-line surface: reproducible batch analyses with JSON reports.

Four subcommands: analyze (full per-c classification of one function),
construct (build + validate + classify a recipe), monomial (tower sweep
of a power function) and verify-theorems (the cross-module suites).
JSON is the canonical output; the human format is a projection of it.
Reports embed the field modulus so every result is reconstructible, and
identical config + seed gives byte-identical JSON across reruns.  Every
command runs serially.  All but verify-theorems go through _admit, which
refuses a field above MAX_ORDER elements and work above --cap element
operations (default 2^30, about 10 s) unless --force is given.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
from dataclasses import asdict

from . import cdiff, construct
from .errors import CapExceeded, CduError, InvalidParams, ParseError, quoted
from .field import format_field_spec, make_field, parse_element, prime_power, split_field_spec
from .funcs import is_permutation, is_two_to_one, parse_function

# the largest field a command builds, about 32 MiB of tables
MAX_ORDER = 1 << 20
# a trial division took about 126 ns, a counted element 3.4-5.5 ns
DIVISION_OPS = 32

# sorted(verify.SUITES), spelled out so that the parser does not import verify
SUITE_NAMES = ("classical-ddt", "constructions", "monomial-sweep", "planar-example",
               "planar-power-family", "quadratic-characterization", "relaxed-pcn",
               "shift-identity", "singular-points")

# the recipe keys each theorem reads
_RECIPE_KEYS = {
    "pcn1": ("theorem", "q", "n", "phi", "g", "h_or_b", "kind"),
    "quad": ("theorem", "q", "n", "phi", "h_or_b", "terms"),
    "apcnagw": ("theorem", "q", "n", "phi", "g", "h_or_b", "kind"),
}

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_STRICT_FAILURE = 3


def _integer(text: str) -> int:
    """int(text), for an option or a recipe, refused in a short message."""
    try:
        return int(text)
    except ValueError:
        digits = text.strip().lstrip("+-")
        raise argparse.ArgumentTypeError(
            f"is an integer of {len(digits)} digits, too long to read" if digits.isdigit()
            else f"must be an integer, got {quoted(text)}") from None


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

    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--cap", type=_integer, default=1 << 30,
                        help="most element operations to admit (default 2^30, about 10 s)")
    capped.add_argument("--force", action="store_true",
                        help=f"lift --cap and the limit of {MAX_ORDER} elements on a field")

    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", parents=[common, capped],
                          help="classify a function for every multiplier c")
    p_an.add_argument("--field", required=True, help="field spec, e.g. 3^2 or 2^3/1,1,0,1")
    p_an.add_argument("--function", required=True, help="polynomial text, e.g. 'x^2 + x^3'")
    p_an.add_argument("--c-scope", type=_integer, default=None, metavar="DEGREE",
                      help="restrict multipliers to the subfield F_{p^DEGREE}")
    p_an.add_argument("--matrix-c", default=None,
                      help="also dump the full count matrix for this c")
    p_an.add_argument("--matrix-out", default=None,
                      help="CSV path for the --matrix-c dump (default stdout)")

    p_co = sub.add_parser("construct", parents=[common, capped],
                          help="build, validate and classify a construction recipe")
    p_co.add_argument("--recipe", required=True,
                      help="inline JSON or @file with keys theorem/q/n/phi/g/h_or_b/kind/terms")

    p_mo = sub.add_parser("monomial", parents=[common, capped],
                          help="exceptionality sweep of x^d over a tower")
    p_mo.add_argument("--p", type=_integer, required=True)
    p_mo.add_argument("--h", type=_integer, required=True)
    p_mo.add_argument("--d", type=_integer, required=True)
    p_mo.add_argument("--c", required=True, help="element of F_{p^h} (integer or g-form)")
    p_mo.add_argument("--rmax", type=_integer, required=True)

    p_ve = sub.add_parser("verify-theorems", parents=[common],
                          help="run the cross-module verification suites")
    p_ve.add_argument("--suite", action="append", default=None,
                      choices=SUITE_NAMES, help="run only these suites")
    p_ve.add_argument("--seed", type=_integer, default=0,
                      help="seed for the randomized suites (default 0)")
    p_ve.add_argument("--strict", action="store_true",
                      help="exit 3 when a suite fails")

    return parser, sub.choices


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidParams(f"cannot read config file: {exc}") from None
    if not isinstance(cfg, dict):
        raise InvalidParams("config file must hold a JSON object")
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
            name = f"--{key}" if quoted(key) == repr(key) else "of that name"
            raise InvalidParams(f"config key {quoted(key)}: {command.prog} takes no option {name}")
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise InvalidParams(
                    f"config key {key!r}: --{key} takes true or false, not {quoted(value)}")
            argv += [f"--{key}"] * value
            continue
        try:
            ok = (action.type or str)(str(value)) == value
        except argparse.ArgumentTypeError:
            ok = False
        if not ok or (action.choices is not None and value not in action.choices):
            raise InvalidParams(f"config key {key!r}: {quoted(value)} is not a value of --{key}")
        argv.append(f"--{key}={value}")
    return argv


# entries rendered per piece: about 40 KB of text
_ENTRY_BLOCK = 256


def _entry_pieces(entries: cdiff.Entries, pad: str):
    """An Entries, as json.dumps writes the list of its dicts, one piece
    per block of entries.

    The lines of delta, directions, label and method, which sort between
    c and note, are written once per representative.  Each entry is then
    one f-string: its c, those lines, and the note or rep line it has, by
    the conditions of the Entries docstring.
    """
    inner = pad + "    "
    shared = {rep: f',\n{inner}"delta": {d},\n{inner}"directions": {n},\n{inner}"label": '
                   f'{json.dumps(label)},\n{inner}"method": {json.dumps(method)}'
              for rep, (d, label, method, n) in entries.verdicts.items()}
    note = f',\n{inner}"note": {json.dumps(cdiff.C1_NOTE)}'
    rep_key = f',\n{inner}"rep": '
    sep, head = f",\n{pad}  ", f"[\n{pad}  "
    for i in range(0, len(entries), _ENTRY_BLOCK):
        block = zip(entries.cs[i:i + _ENTRY_BLOCK], entries.reps[i:i + _ENTRY_BLOCK])
        yield head + sep.join([
            f'{{\n{inner}"c": {c}{shared[rep]}{note if c == 1 else ""}'
            f'{rep_key + str(rep) if rep != c else ""}\n{pad}  }}' for c, rep in block])
        head = sep
    yield f"\n{pad}]"


def _holds_entries(obj) -> bool:
    """Whether obj is a nonempty Entries, or a dict holding one at any depth."""
    if isinstance(obj, dict):
        return any(map(_holds_entries, obj.values()))
    return isinstance(obj, cdiff.Entries) and bool(obj)


def _json_pieces(obj, pad: str = ""):
    """Exactly json.dumps(obj, sort_keys=True, indent=2), in pieces to be
    written in turn, pad being the indentation of the line obj starts on.
    An Entries anywhere is written as the list of its dicts.

    Only the dicts that hold a nonempty Entries are walked here, and the
    Entries goes to _entry_pieces.  Any other value is one json.dumps, each
    of whose newlines takes pad (JSON text holds no raw newline), and which
    writes an Entries it meets as the list it iterates.
    """
    if not _holds_entries(obj):
        yield json.dumps(obj, sort_keys=True, indent=2, default=list).replace("\n", "\n" + pad)
    elif isinstance(obj, dict):
        inner = pad + "  "
        sep = "{"
        for k, v in sorted(obj.items()):
            # json.dumps({k: None}) renders a key as the encoder does: 1 -> "1"
            yield f"{sep}\n{inner}{json.dumps({k: None})[1:-7]}: "
            yield from _json_pieces(v, inner)
            sep = ","
        yield f"\n{pad}}}"
    else:
        yield from _entry_pieces(obj, pad)


def _human_lines(obj, pad: str = ""):
    """The human format of obj, in pieces of whole lines: each key of a
    dict on its own line, a nonempty container indented below its key, and
    each item of a list on a line of its own or, if it nests, as a block
    followed by an empty line.  An Entries is written as the list of its
    dicts, which nest nothing, one piece per entry."""
    inner = pad + "  "
    if isinstance(obj, cdiff.Entries):
        for entry in obj:
            yield "".join([f"{inner}{k}: {v}\n" for k, v in entry.items()]) + "\n"
    elif isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list, tuple, cdiff.Entries)) and v:
                yield f"{pad}{k}:\n"
                yield from _human_lines(v, inner)
            else:
                yield f"{pad}{k}: {v}\n"
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            if isinstance(v, (dict, list, tuple, cdiff.Entries)):
                yield from _human_lines(v, inner)
                yield "\n"
            else:
                yield f"{pad}- {v}\n"
    else:
        yield f"{pad}{obj}\n"


def _emit(report: dict, fmt: str):
    """Write report to stdout in the format fmt; every report leaves here."""
    lines = itertools.chain(_json_pieces(report), ["\n"]) if fmt == "json" else _human_lines(report)
    sys.stdout.writelines(lines)


def _drop_stdout():
    """Send the rest of stdout to os.devnull once its reader has closed
    the pipe, so that the flush at exit does not raise again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _admit(args, p: int = 1, e: int = 0, work: int = 0, cost: str = ""):
    """Refuse, unless --force is given, a field of order p^e above MAX_ORDER
    without computing a power too large to read, or work element operations
    (cost says which) above --cap.  Call it before the field or work is made."""
    if args.cap < 1:
        raise InvalidParams(f"--cap must be at least 1, got {args.cap}")
    if args.force:
        return
    if (p > 1 and e > MAX_ORDER.bit_length()) or p ** e > MAX_ORDER:
        over = f"field order {p}^{e} exceeds the limit {MAX_ORDER}: about 32 MiB of tables"
    elif work > args.cap:
        count = work if work < 1 << 60 else f"over 2^{work.bit_length() - 1}"
        over = f"work of {count} element operations exceeds the cap {args.cap}: {cost}"
    else:
        return
    raise CapExceeded(f"{over}; pass --force to override")


def cmd_analyze(args) -> tuple[dict, int]:
    p, n, modulus = split_field_spec(args.field)
    scope = args.c_scope
    if scope is not None and (scope < 1 or n % scope):
        raise InvalidParams(f"--c-scope {scope} does not divide the extension degree {n}")
    if args.matrix_out is not None and args.matrix_c is None:
        raise InvalidParams("--matrix-out needs --matrix-c, the multiplier of the matrix to dump")
    _admit(args, p, n)
    ctx = make_field(p, n, modulus)
    try:
        f = parse_function(args.function, ctx)
    except ParseError as exc:
        raise InvalidParams(f"cannot parse function: {exc}") from None
    cs = None if scope is None else ctx.subfield_elements(ctx.p ** scope)
    matrix_c, matrix_out = None, None
    if args.matrix_c is not None:
        try:
            matrix_c = parse_element(ctx, args.matrix_c)
        except ParseError as exc:
            raise InvalidParams(f"cannot parse --matrix-c: {exc}") from None
    plan = cdiff.report_plan(f, cs)
    rows = sum(map(len, plan[2].values())) + (0 if matrix_c is None else ctx.order)
    _admit(args, work=rows * ctx.order, cost=f"{rows} c-derivative rows of {ctx.order} elements")
    if args.matrix_out:
        # checked before the report is counted
        try:
            matrix_out = open(args.matrix_out, "w")
        except OSError as exc:
            raise InvalidParams(f"cannot write --matrix-out: {exc}") from None
    with matrix_out or contextlib.nullcontext():
        report = cdiff.full_report(f, plan=plan).to_dict(records=True)
        if matrix_out:
            cdiff.write_c_ddt_csv(f, matrix_c, matrix_out)
            report["matrix_csv"] = args.matrix_out
        elif matrix_c is not None:
            try:
                cdiff.write_c_ddt_csv(f, matrix_c, sys.stdout)
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
            raise InvalidParams(f"cannot read recipe file: {exc}") from None
    try:
        recipe = json.loads(raw)
    except ValueError as exc:
        raise InvalidParams(f"recipe is not valid JSON: {exc}") from None
    if not isinstance(recipe, dict):
        raise InvalidParams("the recipe must be a JSON object")
    for key in ("theorem", "q", "n"):
        if key not in recipe:
            raise InvalidParams(f"recipe is missing {key!r}")

    def text(key, value, kind="an integer or polynomial text"):
        """Polynomial or digit text, or a JSON integer as its text; not a bool,
        float, null, list or object, which str() would misread or int() cut."""
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            return str(value)
        raise InvalidParams(f"the recipe's {key} must be {kind}, got {quoted(value)}")

    def integer(key, value):
        try:
            return _integer(text(key, value, "an integer"))
        except argparse.ArgumentTypeError as exc:
            raise InvalidParams(f"the recipe's {key} {exc}") from None

    theorem = recipe["theorem"]
    reads = _RECIPE_KEYS.get(theorem) if isinstance(theorem, str) else None
    if reads is None:
        raise InvalidParams(f"unknown theorem {quoted(theorem)}; use pcn1 | quad | apcnagw")
    if unread := [k for k in recipe if k not in reads]:
        raise InvalidParams(f"recipe key {quoted(unread[0])}: theorem {theorem} reads only"
                            f" {', '.join(map(repr, reads))}")
    q0, n = integer("q", recipe["q"]), integer("n", recipe["n"])
    # the limit comes first: factoring a large q would take longer than refusing it
    _admit(args, q0, n)
    p, m = prime_power(q0)
    ctx = make_field(p, m * n)

    def polynomial(key, value):
        try:
            return parse_function(text(key, value), ctx)
        except ParseError as exc:
            raise InvalidParams(f"cannot parse the recipe's {key}: {exc}") from None

    def fparse(key, default=None):
        if key not in recipe and default is None:
            raise InvalidParams(f"recipe is missing {key!r}")
        return polynomial(key, recipe.get(key, default))

    if theorem == "pcn1":
        phi = fparse("phi", "x")
        g = fparse("g", "0")
        h_or_b = text("h_or_b", recipe.get("h_or_b", 1))
        # digit text is the constant b, other text the polynomial h
        h = ({"b": integer("h_or_b", h_or_b)} if h_or_b.lstrip("-").isdigit()
             else {"h": polynomial("h_or_b", h_or_b)})
        params = construct.AgwParams(ctx=ctx, q=q0, phi=phi, g=g,
                                     kind=recipe.get("kind", "f1"), **h)
        report = construct.validate_preconditions(params)
        report.require()
        validation = report.to_dict()
        f = construct.build_agw_pp(params, validate=False)
        extra = {"is_permutation": is_permutation(f)}
    elif theorem == "quad":
        phi = fparse("phi", "x")
        b = integer("h_or_b", recipe.get("h_or_b", 1))
        terms = recipe.get("terms")
        if not (isinstance(terms, list) and terms
                and all(isinstance(t, dict) and {"g", "s"} <= t.keys() for t in terms)):
            raise InvalidParams("recipe needs a nonempty 'terms' list of objects "
                                "with keys 'g' and 's' for theorem=quad")
        if unread := [f"terms[{i}].{k}" for i, t in enumerate(terms)
                      for k in t if k not in ("g", "s")]:
            raise InvalidParams(f"recipe key {quoted(unread[0])}: a term reads only 'g', 's'")
        terms = [(polynomial(f"terms[{i}].g", t["g"]), integer(f"terms[{i}].s", t["s"]))
                 for i, t in enumerate(terms)]
        f = construct.build_quad_exponent_pp(ctx, q0, phi, b, terms)
        validation = {"terms": len(terms)}
        extra = {"is_permutation": is_permutation(f)}
    else:  # apcnagw
        phi = fparse("phi")
        g = fparse("g", "0")
        b = integer("h_or_b", recipe.get("h_or_b", 1))
        kind = recipe.get("kind", "f1")
        params = construct.AgwParams(ctx=ctx, q=q0, phi=phi, g=g, b=b, kind=kind)
        report = construct.validate_preconditions(params, two_to_one=True)
        # the builder's own checks (characteristic, parity of n, b) fail first
        f = construct.build_apcn_2to1(params, validate=False)
        report.require()
        validation = report.to_dict()
        extra = {"is_two_to_one": is_two_to_one(f)}

    # the plan and str(f) read f's coefficients, interpolated from its table
    _admit(args, work=ctx.order ** 2, cost=f"interpolating the {ctx.order} values of f")
    plan = cdiff.report_plan(f)
    rows = sum(map(len, plan[2].values()))
    _admit(args, work=rows * ctx.order, cost=f"{rows} c-derivative rows of {ctx.order} elements")
    classification = cdiff.full_report(f, plan=plan).to_dict(records=True)
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

    p, h, rmax = args.p, args.h, args.rmax
    _admit(args, p, h * rmax)
    elements = sum(p ** (h * r) for r in range(1, rmax + 1)) if p > 1 and h > 0 else 0
    # trial division of d - 1 and of phi(d - 1) < d - 1 tries up to their square roots
    half = (max(args.d - 1, 1).bit_length() + 1) // 2
    _admit(args, work=elements + (DIVISION_OPS << half + 1),
           cost=f"{elements} elements of F_{p}^({h}r), r = 1..{rmax}, and 2^{half} trial divisions"
                f" each of d - 1 and phi(d - 1) at {DIVISION_OPS} element operations apiece")
    base = make_field(args.p, args.h)
    try:
        c = parse_element(base, args.c)
    except ParseError as exc:
        raise InvalidParams(f"cannot parse c: {exc}") from None
    analysis = monomial.exceptionality_sweep(args.p, args.h, args.d, c, args.rmax)
    return {"command": "monomial", "report": asdict(analysis)}, EXIT_OK


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
    except CduError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
