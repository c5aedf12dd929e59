"""Correctness checks of cdu's outputs against the reference arithmetic.

Every check recomputes what it asserts from the printed field modulus and
the printed function with reffield, or tests a property the method must
have.  No check compares against a stored copy of an earlier output.  Each
check function returns a list of error strings; an empty list means the
output passed.
"""

from __future__ import annotations

import csv
import json
import math
import random

import numpy as np

from reffield import RefField, evaluate, max_fiber, parse_field, parse_poly
from workloads import min_s

# every delta of a report is recomputed by brute force when that touches at
# most this many (c, a, x) triples; otherwise a seeded sample of SAMPLED_CS
EXHAUSTIVE_WORK = 1 << 25
SAMPLED_CS = 2
# CSV rows compared with reference counts
SAMPLED_ROWS = 6
# tower extensions up to this order get the full fiber histogram recomputed
HISTOGRAM_MAX_ORDER = 1 << 13


def _label(delta: int) -> str:
    return {1: "PcN", 2: "APcN"}.get(delta, f"uniform({delta})")


def _field_errors(ref: RefField) -> list[str]:
    if ref.is_monic_irreducible():
        return []
    return [f"modulus {ref.modulus} of F_{ref.p}^{ref.n} is not monic irreducible"]


def check_report(report: dict, function: str, cs, rng: random.Random) -> list[str]:
    """A ClassificationReport: the field and function it names, its
    entries, labels and summary, and the deltas themselves.

    function is the polynomial text given to cdu; cs the requested
    multipliers in any order.
    """
    ref = parse_field(report["field"])
    errs = _field_errors(ref)
    if errs:
        return errs
    q = ref.q
    terms = parse_poly(function)
    table = evaluate(ref, terms)
    if not np.array_equal(evaluate(ref, parse_poly(report["function"])), table):
        errs.append(f"printed function {report['function']!r} differs from {function!r}")

    entries = report["entries"]
    got_cs = [e["c"] for e in entries]
    if got_cs != sorted(cs):
        return errs + [f"entries cover c = {got_cs[:8]}..., expected {sorted(cs)[:8]}..."]
    deltas = {e["c"]: e["delta"] for e in entries}
    for e in entries:
        if e["label"] != _label(e["delta"]):
            errs.append(f"c={e['c']}: label {e['label']} does not match delta {e['delta']}")
    summary = report["summary"]
    if summary["pcn_c"] != [c for c in got_cs if deltas[c] == 1]:
        errs.append("summary pcn_c does not match the entries")
    if summary["apcn_c"] != [c for c in got_cs if deltas[c] == 2]:
        errs.append("summary apcn_c does not match the entries")

    if 0 in deltas and deltas[0] != max_fiber(table, q):
        errs.append(f"delta_0 = {deltas[0]}, largest fiber of f = {max_fiber(table, q)}")

    # f(x)^p = f(x^p) when every coefficient lies in F_p, so c and c^p agree
    if all(c < ref.p for c in terms.values()):
        for c, d in deltas.items():
            cp = ref.pow(c, ref.p)
            if cp in deltas and deltas[cp] != d:
                errs.append(f"delta_{c} = {d} but delta_{cp} = {deltas[cp]} (c^p)")

    # x -> a*x reduces every direction of alpha*x^d to a = 1
    if len(terms) == 1 and 0 not in terms:
        (d,) = terms
        xs = ref.elements()
        shifted, plain = ref.vpow(ref.vadd(xs, 1), d), ref.vpow(xs, d)
        g = math.gcd(d, q - 1)
        for c, dc in deltas.items():
            if c == 1:
                continue
            want = max(g, max_fiber(ref.vsub(shifted, ref.vmul_const(c, plain)), q))
            if dc != want:
                errs.append(f"monomial x^{d}: delta_{c} = {dc}, the reduction gives {want}")

    sample = got_cs
    if len(got_cs) * q * q > EXHAUSTIVE_WORK:
        sample = rng.sample(got_cs, min(SAMPLED_CS, len(got_cs)))
    for c in sample:
        want = ref.delta(table, c)
        if deltas[c] != want:
            errs.append(f"delta_{c} = {deltas[c]}, brute force gives {want}")
    return errs


def check_matrix(text: str, report: dict, function: str, c: int,
                 rng: random.Random) -> list[str]:
    """The CSV dump of the c-DDT for multiplier c."""
    ref = parse_field(report["field"])
    q = ref.q
    rows = list(csv.reader(text.splitlines()))
    if len(rows) != q + 1 or rows[0] != ["a\\b"] + [str(b) for b in range(q)]:
        return [f"CSV has {len(rows)} lines or a bad header, expected {q + 1} lines"]
    try:
        counts = np.array([[int(v) for v in row[1:]] for row in rows[1:]], dtype=np.int64)
    except ValueError as exc:
        return [f"CSV cell is not an integer: {exc}"]
    errs = []
    if counts.shape != (q, q) or [r[0] for r in rows[1:]] != [str(a) for a in range(q)]:
        return [f"CSV matrix has shape {counts.shape} or bad row labels"]
    bad = np.nonzero(counts.sum(axis=1) != q)[0]
    if bad.size:
        errs.append(f"CSV rows {bad[:5].tolist()} do not sum to q = {q}")
    admissible = counts[1:] if c == 1 else counts
    reported = {e["c"]: e["delta"] for e in report["entries"]}.get(c)
    if int(admissible.max()) != reported:
        errs.append(f"CSV largest admissible entry {int(admissible.max())}, reported delta {reported}")
    table = evaluate(ref, parse_poly(function))
    dirs = sorted({0} | set(rng.sample(range(q), SAMPLED_ROWS - 1)))
    want = ref.row_counts(table, c, dirs)
    for i, a in enumerate(dirs):
        if not np.array_equal(counts[a], want[i]):
            errs.append(f"CSV row a={a} differs from the reference counts")
    return errs


def check_analyze(op: dict, stdout: str, files: dict, rng: random.Random) -> list[str]:
    report = json.loads(stdout)["report"]
    ref = parse_field(report["field"])
    cs = range(ref.q) if op["scope"] is None else ref.subfield(op["scope"])
    errs = check_report(report, op["function"], cs, rng)
    if op["matrix_c"] is not None:
        text = files.get(op["matrix_out"])
        if text is None:
            return errs + [f"no CSV file at {op['matrix_out']}"]
        errs += check_matrix(text, report, op["function"], op["matrix_c"], rng)
    return errs


def check_construct(op: dict, stdout: str, files: dict, rng: random.Random) -> list[str]:
    """A construct output: the built function's permutation or 2-to-1
    property, its classification, and the theorem's delta on F_q minus 1."""
    out = json.loads(stdout)
    recipe = op["recipe"]
    ref = parse_field(out["field"])
    errs = _field_errors(ref)
    if errs:
        return errs
    q = ref.q
    table = evaluate(ref, parse_poly(out["function"]))
    fibers = np.bincount(table, minlength=q)
    theorem = recipe["theorem"]
    if theorem == "pcn1":
        prop, holds, want = "is_permutation", bool((fibers == 1).all()), 1
        ok_key = "pp_ok"
    else:
        prop, holds, want = "is_two_to_one", bool(np.isin(fibers, (0, 2)).all()), 2
        ok_key = "two_to_one_ok"
    if out["properties"].get(prop) is not True or not holds:
        errs.append(f"{prop}: reported {out['properties'].get(prop)}, reference {holds}")
    if out["validation"].get(ok_key) is not True:
        errs.append(f"validation {ok_key} is not true")
    errs += check_report(out["classification"], out["function"], range(q), rng)
    deltas = {e["c"]: e["delta"] for e in out["classification"]["entries"]}
    m, sub_q = 0, 1
    while sub_q < recipe["q"]:
        m, sub_q = m + 1, sub_q * ref.p
    for c in ref.subfield(m):
        if c == 1:
            continue
        got = ref.delta(table, c)
        if got != want or deltas.get(c) != want:
            errs.append(f"{theorem}: delta_{c} = {deltas.get(c)}, brute force {got}, theorem {want}")
    return errs


def check_monomial(op: dict, stdout: str, files: dict, rng: random.Random) -> list[str]:
    """An exceptionality sweep of x^d over the tower F_{(p^h)^r}."""
    rep = json.loads(stdout)["report"]
    p, h, d = op["p"], op["h"], op["d"]
    errs = []
    if (rep["p"], rep["h"], rep["d"], rep["c"]) != (p, h, d, op["c"]):
        errs.append("report echoes other parameters than requested")
    exts = rep["per_extension"]
    if [v["r"] for v in exts] != list(range(1, op["rmax"] + 1)):
        return errs + [f"extensions r = {[v['r'] for v in exts]}"]
    s = min_s(p, d)
    if rep["s"] != s:
        errs.append(f"s = {rep['s']}, the order of {p} mod {d - 1} is {s}")
    # c lies in F_{p^s} iff c^(p^gcd(h, s)) = c; then it has a (d-1)-th root
    # there iff c^((p^s - 1)/(d - 1)) = 1
    base = RefField(p, exts[0]["modulus"])
    c1 = exts[0]["c"]
    root = (base.pow(c1, p ** math.gcd(h, s)) == c1
            and base.pow(c1, (p ** s - 1) // (d - 1)) == 1)
    if rep["root_in_fps"] != root:
        errs.append(f"root_in_fps = {rep['root_in_fps']}, reference {root}")

    for v in exts:
        errs += [f"r={v['r']}: {e}" for e in _check_extension(v, p, h, d)]
    first = next((v["r"] for v in exts if v["violation_witness"]), None)
    if rep["first_violation_r"] != first:
        errs.append(f"first_violation_r = {rep['first_violation_r']}, first witness at {first}")
    if rep["gcd_ok"] != all(v["gcd_value"] <= 2 for v in exts):
        errs.append("gcd_ok does not match the extensions")
    return errs


def _check_extension(v: dict, p: int, h: int, d: int) -> list[str]:
    r, q = v["r"], v["order"]
    errs = []
    if q != p ** (h * r):
        return [f"order {q} is not {p}^{h * r}"]
    ref = RefField(p, v["modulus"])
    if ref.n != h * r:
        return [f"modulus has degree {ref.n}, expected {h * r}"]
    errs += _field_errors(ref)
    if errs:
        return errs
    c = v["c"]
    if c in (0, 1) or ref.pow(c, p ** h) != c:
        errs.append(f"c = {c} is not in F_{p}^{h} minus {{0, 1}}")
    g = math.gcd(d, q - 1)
    if v["gcd_value"] != g or v["gcd_ok"] != (g <= 2):
        errs.append(f"gcd_value {v['gcd_value']}, gcd(d, q-1) = {g}")

    def direction_map(x):  # (x+1)^d - c*x^d
        return ref.sub(ref.pow(ref.add(x, 1), d), ref.mul(c, ref.pow(x, d)))

    counts = []
    w = v["violation_witness"]
    if w is not None:
        if w["a"] == 1:
            value = direction_map
        else:
            one_minus_c = ref.sub(1, c)
            value = lambda x: ref.mul(one_minus_c, ref.pow(x, d))  # noqa: E731
        sols = w["solutions"]
        if len(set(sols)) != len(sols) or w["count"] != len(sols) or len(sols) < 3:
            errs.append(f"violation witness has count {w['count']} and {len(sols)} solutions")
        if any(value(x) != w["b"] for x in sols):
            errs.append(f"a violation witness solution does not solve the a={w['a']} equation")
        counts.append(len(sols))
    split = v["split_witness"]
    if split is not None:
        sols = split["solutions"]
        if len(set(sols)) != d or len(sols) != d:
            errs.append(f"split witness has {len(sols)} solutions, expected d = {d}")
        if any(direction_map(x) != split["t"] for x in sols):
            errs.append("a split witness solution does not solve (x+1)^d - c*x^d = t")
    delta = v["delta"]
    if delta < max([g] + counts):
        errs.append(f"delta {delta} is below gcd {g} or a witness count {counts}")
    if v["is_pcn"] != (delta == 1) or v["is_apcn"] != (delta == 2):
        errs.append(f"is_pcn/is_apcn do not match delta {delta}")

    if q <= HISTOGRAM_MAX_ORDER:
        xs = ref.elements()
        fibers = np.bincount(ref.vsub(ref.vpow(ref.vadd(xs, 1), d), ref.vmul_const(c, ref.vpow(xs, d))),
                             minlength=q)
        top = int(fibers.max())
        if delta != max(g, top):
            errs.append(f"delta {delta}, reference histogram gives {max(g, top)}")
        if (w is not None) != (top >= 3 or g >= 3):
            errs.append(f"violation witness present: {w is not None}; largest fiber {top}, gcd {g}")
        if (split is not None) != bool((fibers == d).any()):
            errs.append("split witness presence does not match the histogram")
    return errs


def check_verify(op: dict, stdout: str, files: dict, rng: random.Random) -> list[str]:
    rep = json.loads(stdout)
    errs = [f"suite {name} did not pass" for name, s in sorted(rep["suites"].items())
            if s.get("passed") is not True]
    if not rep["suites"] or rep["passed"] is not True:
        errs.append("verify-theorems did not pass")
    if rep["seed"] != op["seed"]:
        errs.append(f"report seed {rep['seed']}, requested {op['seed']}")
    return errs


CHECKS = {"analyze": check_analyze, "construct": check_construct,
          "monomial": check_monomial, "verify": check_verify}


def check(op: dict, stdout: str, files: dict, rng: random.Random) -> list[str]:
    """Errors in one operation's output; a malformed output is one error."""
    try:
        return CHECKS[op["kind"]](op, stdout, files, rng)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
