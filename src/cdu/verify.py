"""Executable verification suites.

Each suite re-derives one of the library's structural claims by brute
force at desk scale and returns a JSON-ready dict with a top-level
``passed`` flag.  The CLI ``verify-theorems`` command runs them; the
acceptance tests call them directly.  All randomness is derived from a
seed string per instance, so reports are byte-identical across runs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict

import numpy as np

from . import cdiff, construct, monomial
from .field import embed, format_field_spec, make_field, prime_power
from .funcs import PolyFunc, is_permutation, is_planar, is_two_to_one, parse_function


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------

def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def random_quadratic(ctx, rng: random.Random, shape: str = "mixed",
                     allow_constant: bool = False) -> PolyFunc:
    """Seeded random polynomial of quadratic shape.

    shape picks the exponent support: "do" (p-weight-2 exponents only),
    "affine" (p-weight <= 1), "quadratic" (both), or "mixed" (weighted
    draw).  Constants are only added outside the "do" shape.
    """
    p, n, q = ctx.p, ctx.n, ctx.order
    do_exps = sorted({p ** i + p ** j for i in range(n) for j in range(i, n)
                      if not (p == 2 and i == j)})
    lin_exps = [p ** i for i in range(n)]
    if shape == "mixed":
        shape = rng.choices(["do", "quadratic", "affine"], weights=[4, 5, 1])[0]
    coeffs: dict[int, int] = {}
    if shape in ("do", "quadratic"):
        for e in do_exps:
            coeffs[e] = rng.randrange(q)
    if shape in ("affine", "quadratic"):
        for e in lin_exps:
            coeffs[e] = rng.randrange(q)
    if allow_constant and shape != "do" and rng.random() < 0.5:
        coeffs[0] = rng.randrange(q)
    return PolyFunc(ctx, coeffs)


def random_poly(ctx, rng: random.Random, max_terms: int = 4) -> PolyFunc:
    q = ctx.order
    coeffs = {rng.randrange(q): rng.randrange(q)
              for _ in range(rng.randint(1, max_terms))}
    return PolyFunc(ctx, coeffs)


# ---------------------------------------------------------------------------
# 1. the planar example whose c-uniformity never drops below 3
# ---------------------------------------------------------------------------

def planar_but_not_apcn_report() -> dict:
    """x^2 + x^3 over F_9: planar, yet delta >= 3 for every c != 1."""
    ctx = make_field(3, 2)
    f = parse_function("x^2 + x^3", ctx)
    planar = is_planar(f)
    classical = cdiff.c_uniformity(f, 1)
    deltas = {c: cdiff.c_uniformity(f, c) for c in range(9) if c != 1}
    passed = planar and classical == 1 and all(d >= 3 for d in deltas.values())
    return {
        "suite": "planar-example",
        "function": "x^2 + x^3",
        "field": format_field_spec(ctx),
        "planar": planar,
        "classical_uniformity": classical,
        "deltas": {str(c): d for c, d in sorted(deltas.items())},
        "passed": passed,
    }


# ---------------------------------------------------------------------------
# 2. quadratic characterization on seeded random quadratics
# ---------------------------------------------------------------------------

def quadratic_characterization_suite(seed: int = 0, per_field: int = 200) -> dict:
    """2-to-1 => delta <= 2, DO: APcN <=> planar, PP <=> PcN, checked on
    random quadratics over F_{p^2} and F_{p^3} for p in {3, 5}."""
    configs = [(3, 2), (3, 3), (5, 2), (5, 3)]
    failures = []
    counts = {"two_to_one_implies_apcn": 0, "do_apcn_iff_planar": 0, "pp_iff_pcn": 0}

    for p, ext in configs:
        ctx = make_field(p, ext)
        for i in range(per_field):
            f = random_quadratic(ctx, _rng(seed, "quadchar", p, ext, i),
                                 allow_constant=True)
            for claim in cdiff.check_quadratic_characterization(f).claims:
                if claim.applicable:
                    counts[claim.name] += 1
                    if not claim.consistent:
                        failures.append({"claim": claim.name, "p": p, "ext": ext,
                                         "index": i, "function": str(f)})
    return {
        "suite": "quadratic-characterization",
        "seed": seed,
        "per_field": per_field,
        "fields": [format_field_spec(make_field(p, e)) for p, e in configs],
        "applicable_counts": counts,
        "failures": failures,
        "passed": not failures and all(v > 0 for v in counts.values()),
    }


# ---------------------------------------------------------------------------
# 3. the c-derivative shift identity for quadratics
# ---------------------------------------------------------------------------

def shift_identity_suite(seed: int = 0, count: int = 50) -> dict:
    """Pointwise equality of f(x+g) - c*f(x) with its scaled-shift form
    for constant-free random quadratics over F_27, c in {0, 2}, all g."""
    ctx = make_field(3, 3)

    def check(i):
        f = random_quadratic(ctx, _rng(seed, "shift", i), shape="quadratic")
        for c in (0, 2):
            for gamma in range(27):
                lhs = cdiff.c_derivative(f, gamma, c)
                rhs = cdiff.c_derivative_shift_form(f, gamma, c)
                if not np.array_equal(lhs.table, rhs.table):
                    return {"index": i, "c": c, "gamma": gamma, "function": str(f)}
        return None

    failures = [r for r in map(check, range(count)) if r]
    return {
        "suite": "shift-identity",
        "seed": seed,
        "count": count,
        "field": format_field_spec(ctx),
        "checked_pairs": count * 2 * 27,
        "failures": failures,
        "passed": not failures,
    }


# ---------------------------------------------------------------------------
# 4. the construction builders
# ---------------------------------------------------------------------------

def _random_base_linear(ctx, q0, rng) -> PolyFunc:
    """Random additive polynomial with base-subfield coefficients on
    q0-power exponents (keeps J stable)."""
    base = ctx.subfield_elements(q0)
    m = ctx._subfield_degree(q0)
    coeffs = {}
    for j in range(ctx.n // m):
        c = rng.choice(base)
        if c:
            coeffs[q0 ** j] = c
    if not coeffs:
        coeffs = {1: 1}
    return PolyFunc(ctx, coeffs)


def _permutes_j(ctx, q0, phi: PolyFunc) -> bool:
    j = construct.subspace_j(ctx, q0)
    image = sorted(int(phi.table[y]) for y in j.elements)
    return image == list(j.elements)


def _cs_of(ctx, q0) -> list[int]:
    return [c for c in ctx.subfield_elements(q0) if c != 1]


def _plus_x(f: PolyFunc) -> PolyFunc:
    ctx = f.ctx
    return PolyFunc.from_table(ctx, ctx.vadd(f.table, ctx.elements()))


def trace_power_pp_suite(seed: int = 0, count: int = 20) -> dict:
    """PP builder h == b constant: results must be PPs and PcN for every
    c in F_q \\ {1}; with phi = x and b not in {0, -1} they are CPPs."""
    configs = [(3, 2), (4, 3)]
    failures = []

    def check(q0, n, i):
        p, m = prime_power(q0)
        ctx = make_field(p, m * n)
        rng = _rng(seed, "pcn1", q0, n, i)
        base_units = [b for b in ctx.subfield_elements(q0) if b]
        if i % 2 == 0:
            phi = PolyFunc(ctx, {1: 1})
        else:
            phi = None
            for attempt in range(50):
                cand = _random_base_linear(ctx, q0, _rng(seed, "pcn1-phi", q0, n, i, attempt))
                params_probe = construct.AgwParams(ctx=ctx, q=q0, phi=cand,
                                                   g=PolyFunc(ctx, {}), b=1, kind="f1")
                if construct.validate_preconditions(params_probe).ok:
                    phi = cand
                    break
            if phi is None:
                phi = PolyFunc(ctx, {1: 1})
        b = rng.choice(base_units)
        g = random_poly(ctx, rng)
        kind = "f1" if i % 2 == 0 else "f2"
        params = construct.AgwParams(ctx=ctx, q=q0, phi=phi, g=g, b=b, kind=kind)
        f = construct.build_agw_pp(params, validate=True)
        errs = []
        if not is_permutation(f):
            errs.append("not a permutation")
        for c in _cs_of(ctx, q0):
            if cdiff.c_uniformity(f, c) != 1:
                errs.append(f"delta != 1 at c={c}")
        if phi.coeffs == {1: 1} and b not in (0, ctx.neg(1)):
            if not is_permutation(_plus_x(f)):
                errs.append("f + x not a permutation (CPP remark)")
        return errs

    for q0, n in configs:
        for i in range(count):
            failures += [{"q": q0, "n": n, "index": i, "error": e} for e in check(q0, n, i)]
    return {
        "suite": "trace-power-pp",
        "seed": seed,
        "count": count,
        "configs": [list(c) for c in configs],
        "built": len(configs) * count,
        "failures": failures,
        "passed": not failures,
    }


def quad_exponent_suite(seed: int = 0, count: int = 20) -> dict:
    """Exponent-power builder over F_25: PP iff phi permutes J with a
    trivial kernel on F_5, and the PPs are PcN for every c in F_5 \\ {1}."""
    ctx = make_field(5, 2)
    q0 = 5
    j = construct.subspace_j(ctx, q0)
    failures = []
    pp_count = 0

    def check(i):
        rng = _rng(seed, "quadexp", i)
        if i % 2 == 0:
            phi = PolyFunc(ctx, {1: 1})
        else:
            phi = _random_base_linear(ctx, q0, rng)
        b = rng.choice([1, 2, 3, 4])
        terms = []
        for _ in range(1 + (i % 2)):
            lam = rng.choice([1, 2, 3, 4])
            delta = rng.choice(j.elements)
            g_i = PolyFunc(ctx, {1: lam, 0: delta})
            terms.append((g_i, 10))  # 10 = 5^1 + 5^1, the only legal exponent for m = 1
        f = construct.build_quad_exponent_pp(ctx, q0, phi, b, terms)
        permutes = _permutes_j(ctx, q0, phi)
        ker_trivial = all(int(phi.table[x]) != 0 for x in ctx.subfield_elements(q0)[1:])
        errs = []
        is_pp = is_permutation(f)
        if is_pp != (permutes and ker_trivial):
            errs.append(f"PP={is_pp} but phi-permutes-J={permutes}, "
                        f"trivial-kernel={ker_trivial}")
        if is_pp:
            for c in (0, 2, 3, 4):
                if cdiff.c_uniformity(f, c) != 1:
                    errs.append(f"delta != 1 at c={c}")
            if phi.coeffs == {1: 1} and b not in (0, 4):
                if not is_permutation(_plus_x(f)):
                    errs.append("f + x not a permutation (CPP remark)")
        return is_pp, errs

    for i in range(count):
        is_pp, errs = check(i)
        pp_count += int(is_pp)
        failures += [{"index": i, "error": e} for e in errs]
    return {
        "suite": "quad-exponent-pp",
        "seed": seed,
        "count": count,
        "field": format_field_spec(ctx),
        "pp_instances": pp_count,
        "failures": failures,
        "passed": not failures and pp_count > 0,
    }


def two_to_one_suite(seed: int = 0, count: int = 20) -> dict:
    """2-to-1 builder: results are 2-to-1 and APcN for all c in F_q\\{1}."""
    configs = [(4, 3), (2, 5)]
    failures = []

    def check(q0, n, i):
        p, m = prime_power(q0)
        ctx = make_field(p, m * n)
        rng = _rng(seed, "apcn", q0, n, i)
        good_i = [1, 5] if q0 == 4 else [1, 2, 3, 4]
        exp_i = rng.choice(good_i)  # phi = x^(2^i) + x with gcd(i, m*n) = 1
        phi = PolyFunc(ctx, {2 ** exp_i: 1, 1: 1})
        base_units = [b for b in ctx.subfield_elements(q0) if b]
        b = rng.choice(base_units)
        g = random_poly(ctx, rng)
        kind = "f1" if i % 2 == 0 else "f2"
        params = construct.AgwParams(ctx=ctx, q=q0, phi=phi, g=g, b=b, kind=kind)
        f = construct.build_apcn_2to1(params, validate=True)
        errs = []
        if not is_two_to_one(f):
            errs.append("not 2-to-1")
        for c in _cs_of(ctx, q0):
            if cdiff.c_uniformity(f, c) != 2:
                errs.append(f"delta != 2 at c={c}")
        return errs

    for q0, n in configs:
        for i in range(count):
            failures += [{"q": q0, "n": n, "index": i, "error": e} for e in check(q0, n, i)]
    return {
        "suite": "two-to-one-apcn",
        "seed": seed,
        "count": count,
        "configs": [list(c) for c in configs],
        "failures": failures,
        "passed": not failures,
    }


def construction_suite(seed: int = 0, count: int = 20) -> dict:
    parts = [
        trace_power_pp_suite(seed, count),
        quad_exponent_suite(seed, count),
        two_to_one_suite(seed, count),
    ]
    return {
        "suite": "constructions",
        "seed": seed,
        "parts": parts,
        "passed": all(p["passed"] for p in parts),
    }


# ---------------------------------------------------------------------------
# 5. the known planar power family is APcN at c = -1
# ---------------------------------------------------------------------------

def planar_power_family_report() -> dict:
    """x^((3^k+1)/2) over F_{3^n}, k odd, gcd(k, n) = 1: delta = 2 at c = -1."""
    cases = []
    for k, n in [(1, 2), (1, 3), (3, 2)]:
        ctx = make_field(3, n)
        d = (3 ** k + 1) // 2
        f = PolyFunc(ctx, {d: 1})
        delta = cdiff.c_uniformity(f, ctx.neg(1))
        cases.append({"k": k, "n": n, "d": d, "delta": delta, "ok": delta == 2})
    return {
        "suite": "planar-power-family",
        "cases": cases,
        "passed": all(c["ok"] for c in cases),
    }


# ---------------------------------------------------------------------------
# 6. classical DDT cross-check (c = 1 reduction)
# ---------------------------------------------------------------------------

def classical_ddt_direct(f: PolyFunc, c: int = 1) -> list[list[int]]:
    """Reference c-DDT (the classical DDT at c = 1): naive scalar triple
    loop, coefficients evaluated term by term (independent of the
    vectorized table path)."""
    ctx = f.ctx
    q = ctx.order
    values = [f.evaluate(x) for x in range(q)]
    counts = [[0] * q for _ in range(q)]
    for a in range(q):
        for x in range(q):
            b = ctx.sub(values[ctx.add(x, a)], ctx.mul(c, values[x]))
            counts[a][b] += 1
    return counts


def classical_ddt_crosscheck() -> dict:
    """x^3 over F_8/F_32 has classical uniformity 2, and the generic
    c_ddt at c = 1 matches the reference DDT on small monomials."""
    gold = {}
    for n in (3, 5):
        ctx = make_field(2, n)
        gold[f"2^{n}"] = cdiff.c_uniformity(PolyFunc(ctx, {3: 1}), 1)

    def check(spec, d):
        ctx = make_field(*spec)
        f = PolyFunc(ctx, {d: 1})
        direct = classical_ddt_direct(f)
        spec_matrix = cdiff.c_ddt(f, 1)
        same = np.array_equal(spec_matrix.counts, np.array(direct))
        direct_delta = max(max(row) for row in direct[1:])
        return {"field": f"{spec[0]}^{spec[1]}", "d": d, "matrix_equal": bool(same),
                "delta_equal": spec_matrix.delta == direct_delta}

    results = [check(spec, d) for spec in [(2, 3), (3, 2)] for d in range(8)]
    passed = (gold["2^3"] == 2 and gold["2^5"] == 2
              and all(r["matrix_equal"] and r["delta_equal"] for r in results))
    return {
        "suite": "classical-ddt",
        "gold_uniformity": gold,
        "monomial_checks": results,
        "passed": passed,
    }


# ---------------------------------------------------------------------------
# 7. singular-point consistency
# ---------------------------------------------------------------------------

def singular_point_report() -> dict:
    """p=3, d=5: s = 2; every c in F_27 \\ F_3 has no (d-1)-th root in
    F_9 and an empty singular system over F_{3^6}; c = 1 has solutions."""
    s = monomial.min_s(3, 5)
    f27 = make_field(3, 3)
    f729 = make_field(3, 6)

    rows = [{"c": c, "root_in_fps": monomial.root_in_fps(3, 3, 5, c),
             "singular_points": len(monomial.singular_points(f729, 5, embed(f27, f729, c)))}
            for c in range(3, 27)]
    c1_pts = monomial.singular_points(f729, 5, 1)
    passed = (s == 2
              and all(not r["root_in_fps"] and r["singular_points"] == 0 for r in rows)
              and len(c1_pts) > 0)
    return {
        "suite": "singular-points",
        "s": s,
        "cases": rows,
        "c1_solutions": [list(p) for p in c1_pts],
        "passed": passed,
    }


# ---------------------------------------------------------------------------
# 8. monomial sweep with witnesses
# ---------------------------------------------------------------------------

def monomial_sweep_report(c: int = 3) -> dict:
    """Sweep x^5 with a fixed c in F_27 \\ F_3 over F_27^r, r = 1..3:
    some extension must certify non-PcN/APcN with a >= 3-solution
    witness, and the fast path must agree with the generic DDT at r=1."""
    analysis = monomial.exceptionality_sweep(3, 3, 5, c, 3)
    first = analysis.first_violation_r
    witness_ok = False
    not_pcn_apcn = False
    if first is not None:
        verdict = analysis.per_extension[first - 1]
        witness_ok = (verdict.violation_witness is not None
                      and verdict.violation_witness["count"] >= 3)
        not_pcn_apcn = not verdict.is_pcn and not verdict.is_apcn
    ctx27 = make_field(3, 3)
    generic = cdiff.c_uniformity(PolyFunc(ctx27, {5: 1}), c)
    fast = analysis.per_extension[0].delta
    return {
        "suite": "monomial-sweep",
        "analysis": asdict(analysis),
        "witness_ok": witness_ok,
        "not_pcn_apcn_at_witness": not_pcn_apcn,
        "generic_delta_r1": generic,
        "fast_delta_r1": fast,
        "passed": (not analysis.root_in_fps and witness_ok and not_pcn_apcn
                   and generic == fast),
    }


# ---------------------------------------------------------------------------
# 9. relaxed-PcN implies PP in characteristic 2
# ---------------------------------------------------------------------------

def _derivatives_bijective(table, mc) -> bool:
    """Whether x -> table[x ^ gamma] ^ mc[table[x]] is a bijection of
    F_{2^n} for every direction gamma != 0, mc being the row of
    multiplication by c: a scalar bitmask loop over a table of q = 2^n
    values, independent of cdiff.is_relaxed_pcn."""
    q = len(table)
    for gamma in range(1, q):
        seen = 0
        for x in range(q):
            bit = 1 << (table[x ^ gamma] ^ mc[table[x]])
            if seen & bit:
                return False
            seen |= bit
    return True


def relaxed_pcn_suite(seed: int = 0, random_count: int = 10000) -> dict:
    """Exhaustive over all maps F_4 -> F_4 plus seeded random maps over
    F_8: whenever every nonzero-direction c-derivative is bijective for
    some c != 1, the map itself is a bijection."""
    ctx4 = make_field(2, 2)
    mul4 = [[ctx4.mul(a, b) for b in range(4)] for a in range(4)]
    failures = []
    relaxed_hits_4 = 0
    for table in itertools.product(range(4), repeat=4):
        for c in (0, 2, 3):
            if _derivatives_bijective(table, mul4[c]):
                relaxed_hits_4 += 1
                if len(set(table)) != 4:
                    failures.append({"field": "2^2", "c": c, "table": list(table)})

    ctx8 = make_field(2, 3)
    mul8 = [[ctx8.mul(a, b) for b in range(8)] for a in range(8)]
    relaxed_hits_8 = 0
    consistency_failures = []
    for i in range(random_count):
        rng = _rng(seed, "relaxed", i)
        table = [rng.randrange(8) for _ in range(8)]
        for c in (0, 2, 3, 4, 5, 6, 7):
            ok = _derivatives_bijective(table, mul8[c])
            if i < 20 and cdiff.is_relaxed_pcn(PolyFunc.from_table(ctx8, table), c) != ok:
                consistency_failures.append({"index": i, "c": c})
            if ok:
                relaxed_hits_8 += 1
                if len(set(table)) != 8:
                    failures.append({"field": "2^3", "index": i, "c": c, "table": table})
    return {
        "suite": "relaxed-pcn",
        "seed": seed,
        "random_count": random_count,
        "relaxed_instances": {"2^2": relaxed_hits_4, "2^3": relaxed_hits_8},
        "failures": failures,
        "fast_path_mismatches": consistency_failures,
        "passed": not failures and not consistency_failures,
    }


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# each suite is looked up when it runs, so a wrapper set on this module
# (bench/tracer.py times the suites so) is the one called
SUITES = {
    "planar-example": lambda seed: planar_but_not_apcn_report(),
    "quadratic-characterization": lambda seed: quadratic_characterization_suite(seed),
    "shift-identity": lambda seed: shift_identity_suite(seed),
    "constructions": lambda seed: construction_suite(seed),
    "planar-power-family": lambda seed: planar_power_family_report(),
    "classical-ddt": lambda seed: classical_ddt_crosscheck(),
    "singular-points": lambda seed: singular_point_report(),
    "monomial-sweep": lambda seed: monomial_sweep_report(),
    "relaxed-pcn": lambda seed: relaxed_pcn_suite(seed),
}
