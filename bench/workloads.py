"""The four benchmark workloads, generated from a seed.

A workload is a list of operations (one cdu command each, run through
cdu.cli.main) plus the fields its commands build, which the set-up phase
builds cold first.  The seed picks coefficients, exponents, multipliers and
suite seeds.  It never changes a field size, a function's shape (its number
of terms and which coefficients lie in the prime field) or how many
multipliers a report covers, so the cost of a workload stays the same
across seeds.
"""

from __future__ import annotations

import json
import math
import random

NAMES = ("analyze-odd", "analyze-char2", "tower", "verify")


def _rng(name: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{name}:{seed}:{part}")


def _poly(terms) -> str:
    """Polynomial text from (coefficient, exponent) pairs, highest degree first."""
    parts = []
    for c, e in sorted(terms, key=lambda t: -t[1]):
        if e == 0:
            parts.append(str(c))
            continue
        x = "x" if e == 1 else f"x^{e}"
        parts.append(x if c == 1 else f"{c}*{x}")
    return " + ".join(parts)


def _analyze(field: str, function: str, scope=None, matrix_c=None, matrix_out=None) -> dict:
    argv = ["analyze", "--field", field, "--function", function]
    if scope is not None:
        argv += ["--c-scope", str(scope)]
    if matrix_c is not None:
        argv += ["--matrix-c", str(matrix_c), "--matrix-out", matrix_out]
    return {"kind": "analyze", "argv": argv, "function": function, "scope": scope,
            "matrix_c": matrix_c, "matrix_out": matrix_out}


def _construct(recipe: dict) -> dict:
    return {"kind": "construct", "argv": ["construct", "--recipe", json.dumps(recipe)],
            "recipe": recipe}


def _random_g(rng: random.Random, big_q: int) -> str:
    """Two-term g for an AGW recipe; any g is admissible."""
    e1 = rng.randrange(2, big_q - 1)
    e2 = rng.randrange(1, e1)
    return _poly([(rng.randrange(1, big_q), e1), (rng.randrange(1, big_q), e2)])


def _pcn1(rng: random.Random, q: int, n: int) -> dict:
    """AGW permutation with phi = x and constant h = b in the prime field:
    the preconditions hold for every g and b, so the recipe never fails."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    return _construct({"theorem": "pcn1", "q": q, "n": n, "phi": "x",
                       "g": _random_g(rng, q ** n), "h_or_b": rng.randrange(1, p),
                       "kind": rng.choice(["f1", "f2"])})


def _apcnagw(rng: random.Random, q: int, n: int) -> dict:
    """2-to-1 AGW construction with phi = x^2 + x, which is 2-to-1 on F_q and
    permutes J for odd n, whatever g is."""
    return _construct({"theorem": "apcnagw", "q": q, "n": n, "phi": "x^2 + x",
                       "g": _random_g(rng, q ** n), "h_or_b": 1,
                       "kind": rng.choice(["f1", "f2"])})


def analyze_odd_allc(seed: int) -> tuple[str, str]:
    """Field and monomial of the analyze-odd all-c report."""
    rng = _rng("analyze-odd", seed, "allc")
    return "3^5", _poly([(1, rng.choice([d for d in range(2, 60) if d % 3]))])


def _analyze_odd(seed: int, out: str) -> dict:
    rng = _rng("analyze-odd", seed, "ops")
    field, mono = analyze_odd_allc(seed)
    ops = [
        # monomial, all 243 multipliers: both proven reductions apply
        _analyze(field, mono),
        # prime-field coefficients, c in F_9: the Frobenius-orbit reduction applies
        _analyze("3^6", _poly([(1, rng.randrange(20, 80)), (rng.randrange(1, 3), rng.randrange(2, 20)),
                               (rng.randrange(1, 3), 1)]), scope=2),
        # a coefficient outside F_3 on F_{3^7}, above the shift-permutation cache
        _analyze("3^7", _poly([(rng.randrange(3, 3 ** 7), rng.randrange(20, 80)),
                               (1, rng.randrange(2, 20)), (rng.randrange(1, 3 ** 7), 1)]), scope=1),
        _pcn1(rng, 3, 4),
    ]
    return {"ops": ops, "fields": [(3, 5), (3, 6), (3, 7), (3, 4)]}


def _analyze_char2(seed: int, out: str) -> dict:
    rng = _rng("analyze-char2", seed, "ops")
    ops = [
        # monomial, all 512 multipliers, plus the full c-DDT of one c as CSV
        _analyze("2^9", _poly([(1, rng.randrange(3, 64, 2))]),
                 matrix_c=rng.randrange(2, 2 ** 9), matrix_out=f"{out}/ddt.csv"),
        # coefficients in F_2, c in F_32: the Frobenius-orbit reduction applies
        _analyze("2^10", _poly([(1, rng.randrange(20, 80)), (1, rng.randrange(2, 20)), (1, 1)]),
                 scope=5),
        # a coefficient outside F_2 on F_{2^12}, above the shift-permutation cache
        _analyze("2^12", _poly([(rng.randrange(2, 2 ** 12), rng.randrange(20, 80)),
                                (1, rng.randrange(2, 20))]), scope=3),
        _apcnagw(rng, 4, 3),
    ]
    return {"ops": ops, "fields": [(2, 9), (2, 10), (2, 12), (2, 6)]}


def min_s(p: int, d: int) -> int:
    """Multiplicative order of p modulo d - 1."""
    m, s, t = d - 1, 1, p % (d - 1)
    while t != 1 % m:
        t = t * p % m
        s += 1
    return s


# (p, h, d, r_max) of each sweep; the largest fields are F_{3^12}, F_{5^8}, F_{7^6}
TOWER_SWEEPS = ((3, 3, 5, 4), (5, 2, 3, 4), (7, 2, 5, 3))


def _tower(seed: int, out: str) -> dict:
    rng = _rng("tower", seed, "ops")
    ops, fields = [], []
    for p, h, d, rmax in TOWER_SWEEPS:
        c = rng.randrange(p, p ** h)  # in F_{p^h} but outside the prime field
        ops.append({"kind": "monomial", "p": p, "h": h, "d": d, "c": c, "rmax": rmax,
                    "argv": ["monomial", "--p", str(p), "--h", str(h), "--d", str(d),
                             "--c", str(c), "--rmax", str(rmax)]})
        # the sweep's extensions, then the field root_in_fps decides in
        for k in [h * r for r in range(1, rmax + 1)] + [math.lcm(h, min_s(p, d))]:
            if (p, k) not in fields:
                fields.append((p, k))
    return {"ops": ops, "fields": fields}


def _verify(seed: int, out: str) -> dict:
    rng = _rng("verify", seed, "ops")
    ops = [
        {"kind": "verify", "seed": seed, "argv": ["verify-theorems", "--seed", str(seed)]},
        _pcn1(rng, 3, 2),
        _pcn1(rng, 5, 2),
        _apcnagw(rng, 2, 5),
        _apcnagw(rng, 4, 3),
    ]
    # every field the suites build, then those of the recipes
    fields = [(2, 2), (2, 3), (2, 5), (2, 6), (3, 2), (3, 3), (3, 6), (3, 9), (5, 2), (5, 3)]
    return {"ops": ops, "fields": fields}


_WORKLOADS = {"analyze-odd": _analyze_odd, "analyze-char2": _analyze_char2,
             "tower": _tower, "verify": _verify}


def build(name: str, seed: int, out: str) -> dict:
    """Operations and set-up fields of one workload; out is the directory
    (relative to the checkout) for files the commands write."""
    return _WORKLOADS[name](seed, out)
