"""(Non-)exceptionality analysis of power functions x^d.

For f = x^d with p not dividing d(d-1) and a multiplier c != 1, being
APcN over F_q comes down to two finite conditions: gcd(d, q-1) <= 2 (the
zero-direction row) and "(x+1)^d - c*x^d = b has at most two solutions"
(every other direction reduces to a = 1 by substituting x -> ax).  The
sweep classifies x^d over a tower F_{q^r}, r = 1..r_max, certifying
PcN/APcN failures with explicit witnesses: a value b hit by >= 3 points,
or a totally split value t0 hit by exactly d points.  It reads one row,
the values of (x+1)^d - c*x^d, per extension: delta and both witnesses
come from that row and its fiber counts, and only an a = 0 witness
evaluates a second row, x^d - c*x^d.

The hypothesis driving the non-existence theory is arithmetic: with s
the order of p modulo d-1, ask whether c has a (d-1)-th root in
F_{p^s}.  When it does not, the singular-point system

    ((x0+1)/x0)^(d-1) = c,  ((y0+1)/y0)^(d-1) = c,  (x0/y0)^(d-1) = 1

has no off-diagonal solutions; singular_points searches it exhaustively
so the claim can be checked field by field.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FieldTooSmallWarning, InvalidParams
from .field import FieldContext, embed, make_field, prime_factors


def min_s(p: int, d: int) -> int:
    """Multiplicative order of p modulo d-1 (smallest s with d-1 | p^s - 1).

    The order divides phi(d-1); starting from phi(d-1), each prime r is
    divided out while p^(s/r) = 1 still holds, so the time grows with the
    factoring of d-1 and phi(d-1), not with the order itself.
    """
    if d < 2 or d % p == 0 or (d - 1) % p == 0:
        raise InvalidParams(f"need d >= 2 with p not dividing d(d-1); got p={p}, d={d}")
    m = d - 1
    if m == 1:
        return 1
    s = m
    for r in prime_factors(m):
        s = s // r * (r - 1)
    for r in prime_factors(s):
        while s % r == 0 and pow(p, s // r, m) == 1:
            s //= r
    return s


def root_in_fps(p: int, h: int, d: int, c: int, s: int | None = None) -> bool:
    """Does some c0 in F_{p^s} satisfy c0^(d-1) = c?  s is min_s(p, d),
    computed here unless given.

    Decided inside F_{p^h}: c must lie in F_{p^s}, that is in
    F_{p^h} ∩ F_{p^s} = F_{p^gcd(h,s)}, which holds iff c^(p^s) = c, and
    satisfy c^((p^s - 1)/(d-1)) = 1.  Both powers are the same computed
    in F_{p^h} or in any field containing it, so F_{p^lcm(h,s)} is never
    built.  Neither is p^s: x -> x^p has order h on F_{p^h}, so
    c^(p^s) = c^(p^(s mod h)), and as c^(p^h - 1) = 1 the second exponent
    only matters modulo p^h - 1, which (p^s mod M - 1)/(d-1) gives for
    M = (d-1)(p^h - 1).
    """
    if c == 0:
        raise InvalidParams("c must be nonzero")
    if s is None:
        s = min_s(p, d)
    base = make_field(p, h)
    if base.pow(c, p ** (s % h)) != c:
        return False
    m = d - 1
    return base.pow(c, (pow(p, s, m * (p ** h - 1)) - 1) // m) == 1 if d > 2 else True


def root_of_unity(ctx: FieldContext, m: int) -> int:
    """A primitive m-th root of unity, located by exhaustion.

    Exists iff m divides q - 1; for m = d-1 and q = p^s that divisibility
    is what defines s, so the singular-point parametrization always has
    its root of unity inside F_{p^s}.
    """
    if m < 1 or (ctx.order - 1) % m:
        raise InvalidParams(f"no primitive {m}-th root of unity in a field of order {ctx.order}")
    if m == 1:
        return 1
    factors = prime_factors(m)
    for x in range(2, ctx.order):
        if ctx.pow(x, m) == 1 and all(ctx.pow(x, m // r) != 1 for r in factors):
            return x
    raise AssertionError("root of unity not found despite divisibility (unreachable)")


def _row(ctx: FieldContext, d: int, c: int, a: int = 1) -> np.ndarray:
    """Values of (x+a)^d - c*x^d at every x of ctx, indexed by x."""
    return ctx.vsub(ctx.vpow_const(ctx.shift_perm(a), d),
                    ctx.vmul_const(c, ctx.vpow_const(ctx.elements(), d)))


def singular_points(ctx: FieldContext, d: int, c: int) -> list[tuple[int, int]]:
    """All pairs (x0, y0), x0 != y0, x0*y0 != 0, satisfying the singular
    system, found by exhaustion over the nonzero elements of ctx.

    Returned as sorted pairs with x0 < y0 (the system is symmetric).  A
    FieldTooSmallWarning is attached when the field visibly cannot hold
    the parametrized solutions, in which case an empty result only rules
    out points inside the searched field.
    """
    p = ctx.p
    if d >= 2 and d % p and (d - 1) % p:
        s = min_s(p, d)
        t = 1
        while ctx.pow(c, p ** t) != c:
            t += 1
        needed = math.lcm(t, s)
        if ctx.n % needed:
            warnings.warn(
                f"search field F_{p}^{ctx.n} does not contain F_{p}^{needed}; "
                "an empty result only rules out points in the searched field",
                FieldTooSmallWarning)
    # the first two equations: zeros x0 != 0 of (x+1)^(d-1) - c*x^(d-1)
    cands = np.flatnonzero(_row(ctx, d - 1, c)[1:] == 0) + 1
    # the third, (x0/y0)^(d-1) = 1, groups candidates by x^(d-1)
    by_power: dict[int, list[int]] = {}
    for x0, w in zip(cands.tolist(), ctx.vpow_const(cands, d - 1).tolist()):
        by_power.setdefault(w, []).append(x0)
    pairs = []
    for group in by_power.values():
        for i, x0 in enumerate(group):
            for y0 in group[i + 1:]:
                pairs.append((min(x0, y0), max(x0, y0)))
    return sorted(pairs)


@dataclass
class ValueDistribution:
    """Fiber-size histogram of x -> (x+1)^d - c*x^d over one field."""

    q: int
    d: int
    c: int
    histogram: dict[int, int]
    max_fiber: int
    violations: tuple[tuple[int, int], ...]  # (value, fiber size >= 3)
    splits: tuple[int, ...]  # values with exactly d preimages


def value_distribution(ctx: FieldContext, d: int, c: int) -> ValueDistribution:
    """O(q) histogram of the normalized direction map (x+1)^d - c*x^d."""
    if c == 1:
        raise InvalidParams("c = 1 degenerates the leading coefficient; use the classical DDT")
    counts = np.bincount(_row(ctx, d, c), minlength=ctx.order)
    sizes, freq = np.unique(counts[counts > 0], return_counts=True)
    histogram = {int(s): int(f) for s, f in zip(sizes, freq)}
    viol = [(int(t), int(counts[t])) for t in np.nonzero(counts >= 3)[0]]
    splits = tuple(int(t) for t in np.nonzero(counts == d)[0])
    return ValueDistribution(
        q=ctx.order, d=d, c=c, histogram=histogram,
        max_fiber=int(counts.max()), violations=tuple(viol), splits=splits)


def fiber_members(ctx: FieldContext, d: int, c: int, t: int) -> list[int]:
    """Solutions x of (x+1)^d - c*x^d = t, by exhaustion."""
    return np.flatnonzero(_row(ctx, d, c) == t).tolist()


@dataclass
class ExtensionVerdict:
    """Classification of x^d over one tower extension F_{q^r}."""

    r: int
    order: int
    modulus: tuple[int, ...]
    c: int
    gcd_value: int
    gcd_ok: bool
    delta: int
    is_pcn: bool
    is_apcn: bool
    violation_witness: dict | None
    split_witness: dict | None


@dataclass
class MonomialAnalysis:
    """Full sweep result for (p, h, d, c) across extensions r = 1..r_max."""

    p: int
    h: int
    d: int
    c: int
    s: int
    root_in_fps: bool
    gcd_ok: bool
    per_extension: tuple[ExtensionVerdict, ...]
    first_violation_r: int | None
    message: str


def _classify_extension(p: int, h: int, d: int, c_base: int, r: int) -> ExtensionVerdict:
    base = make_field(p, h)
    ctx = make_field(p, h * r)
    c = embed(base, ctx, c_base)
    q = ctx.order
    g = math.gcd(d, q - 1)
    row = _row(ctx, d, c)
    counts = np.bincount(row, minlength=q)
    delta = max(g, int(counts.max()))

    violation = None
    many = np.flatnonzero(counts >= 3)
    if many.size:
        sols = np.flatnonzero(row == many[0]).tolist()
        violation = {"a": 1, "b": int(many[0]), "count": len(sols), "solutions": sols}
    elif g >= 3:
        b = ctx.sub(1, c)  # image of x = 1 under x^d - c*x^d
        sols = np.flatnonzero(_row(ctx, d, c, a=0) == b).tolist()
        violation = {"a": 0, "b": b, "count": len(sols), "solutions": sols}

    split = None
    full = np.flatnonzero(counts == d)
    if full.size:
        split = {"t": int(full[0]), "solutions": np.flatnonzero(row == full[0]).tolist()}

    return ExtensionVerdict(
        r=r, order=q, modulus=ctx.modulus, c=c,
        gcd_value=g, gcd_ok=g <= 2,
        delta=delta, is_pcn=delta == 1, is_apcn=delta == 2,
        violation_witness=violation, split_witness=split)


def exceptionality_sweep(p: int, h: int, d: int, c: int, r_max: int) -> MonomialAnalysis:
    """Classify x^d over F_{(p^h)^r} for r = 1..r_max.

    Builds every field of the tower, so the caller bounds (p^h)^r_max, as
    the CLI does by field order and by the sweep's elements (see --cap).

    The sweep certifies the swept range only: it reports where PcN/APcN
    first fails (with witnesses) and never concludes exceptionality.
    c and r_max are checked before d - 1 is factored, once, for min_s.
    """
    q0 = p ** h
    if not 0 <= c < q0:
        raise InvalidParams(f"c={c} is not an element of F_{q0}")
    if c in (0, 1):
        raise InvalidParams("c must avoid 0 and 1 (c = 1 is the classical case)")
    if r_max < 1:
        raise InvalidParams(f"r_max must be positive, got {r_max}")

    s = min_s(p, d)
    root = root_in_fps(p, h, d, c, s)
    verdicts = [_classify_extension(p, h, d, c, r) for r in range(1, r_max + 1)]
    first_violation = next((v.r for v in verdicts if v.violation_witness), None)
    if first_violation is None:
        message = f"no violation witness up to r = {r_max} (certifies the swept range only)"
    else:
        message = (f"witness found at r = {first_violation}: "
                   "x^d is neither PcN nor APcN there")
    return MonomialAnalysis(
        p=p, h=h, d=d, c=c, s=s, root_in_fps=root,
        gcd_ok=all(v.gcd_ok for v in verdicts),
        per_extension=tuple(verdicts),
        first_violation_r=first_violation,
        message=message)
