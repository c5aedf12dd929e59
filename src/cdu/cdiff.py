"""c-derivatives, c-difference tables, and PcN/APcN classification.

For a multiplier c, the c-derivative of f in direction a is the map
x -> f(x+a) - c*f(x).  Counting its solutions over all (a, b) pairs,
excluding the degenerate pair (a, c) = (0, 1), gives the c-differential
uniformity delta; delta = 1 is PcN (perfect c-nonlinear), delta = 2 is
APcN.  c = 1 recovers the classical derivative and differential
uniformity, which is why the a = 0 row is excluded exactly there.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import InvalidParams, NotQuadratic, OddCharacteristic
from .field import format_field_spec
from .funcs import PolyFunc, classify_shape, is_permutation, is_planar, is_two_to_one, p_weight
from .parallel import pmap


def c_derivative(f: PolyFunc, a: int, c: int) -> PolyFunc:
    """The table function x -> f(x+a) - c*f(x)."""
    ctx = f.ctx
    table = f.table
    row = ctx.vsub(table[ctx.shift_perm(a)], ctx.vmul_const(c, table))
    return PolyFunc.from_table(ctx, row)


# c-derivative rows are counted in blocks of about this many elements:
# large enough to amortize numpy's per-call cost, small enough that a
# block's index and value arrays stay in cache
_BLOCK_ELEMS = 1 << 15


def _row_block_counts(f: PolyFunc, c: int, directions, *, extra=None):
    """Count the c-derivative rows of f, a block of directions at a time.

    Yields one array per block of consecutive directions; its row i
    counts, for each b, the x with f(x+a) - c*f(x) = b, a being the
    block's i-th direction.  extra, if given, maps a block of directions
    to a (block, q) array added to the rows, e.g. a term a*x.  A caller
    that stops iterating skips the remaining blocks.
    """
    ctx = f.ctx
    q = ctx.order
    shifted_minus_cf = ctx.gather_add(f.table, ctx.vneg(ctx.vmul_const(c, f.table)))
    directions = np.asarray(directions, dtype=np.int64)
    step = max(1, _BLOCK_ELEMS // q)
    for lo in range(0, len(directions), step):
        block = directions[lo:lo + step]
        rows = shifted_minus_cf(ctx.shift_rows(block))
        if extra is not None:
            rows = ctx.vadd(rows, extra(block))
        rows += q * np.arange(len(block))[:, None]
        yield np.bincount(rows.ravel(), minlength=len(block) * q).reshape(len(block), q)


@dataclass
class CDiffSpectrum:
    """Full c-difference-distribution table for one multiplier c.

    counts[a][b] is the number of x with f(x+a) - c*f(x) = b; delta is
    the maximum over admissible (a, b) (the a = 0 row is skipped when
    c = 1).
    """

    c: int
    counts: np.ndarray
    row_max: np.ndarray
    delta: int

    def to_csv(self, stream):
        q = self.counts.shape[0]
        stream.write("a\\b," + ",".join(str(b) for b in range(q)) + "\n")
        for a in range(q):
            stream.write(str(a) + "," + ",".join(str(int(v)) for v in self.counts[a]) + "\n")


def c_ddt(f: PolyFunc, c: int) -> CDiffSpectrum:
    """Materialize the full q x q count matrix (O(q^2) time and space)."""
    q = f.ctx.order
    counts = np.empty((q, q), dtype=np.int64)
    a = 0
    for block in _row_block_counts(f, c, range(q)):
        counts[a:a + len(block)] = block
        a += len(block)
    row_max = counts.max(axis=1)
    if c == 1:
        delta = int(row_max[1:].max()) if q > 1 else 0
    else:
        delta = int(row_max.max())
    return CDiffSpectrum(c=c, counts=counts, row_max=row_max, delta=delta)


def c_uniformity(f: PolyFunc, c: int) -> int:
    """delta without materializing the matrix (streams row blocks)."""
    q = f.ctx.order
    directions = range(1, q) if c == 1 else range(q)
    return max(int(block.max()) for block in _row_block_counts(f, c, directions))


def label_for_delta(delta: int) -> str:
    if delta == 1:
        return "PcN"
    if delta == 2:
        return "APcN"
    return f"uniform({delta})"


def classify_c(f: PolyFunc, c: int) -> str:
    """PcN / APcN / uniform(delta) label for one multiplier."""
    return label_for_delta(c_uniformity(f, c))


@dataclass
class CEntry:
    c: int
    delta: int
    label: str
    note: str | None = None

    def to_dict(self):
        d = {"c": self.c, "delta": self.delta, "label": self.label}
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class ClassificationReport:
    """Per-c verdicts for one function across all multipliers in its field."""

    function: str
    field: str
    entries: list[CEntry]
    pcn_cs: list[int] = dc_field(default_factory=list)
    apcn_cs: list[int] = dc_field(default_factory=list)

    def to_dict(self):
        return {
            "function": self.function,
            "field": self.field,
            "entries": [e.to_dict() for e in self.entries],
            "summary": {"pcn_c": self.pcn_cs, "apcn_c": self.apcn_cs},
        }


def full_report(f: PolyFunc, workers: int = 1, cs=None) -> ClassificationReport:
    """Classify f for every c in the field, in canonical integer order.

    cs restricts the multipliers (e.g. to a subfield); default is all of
    F_q including c = 1, which is reported as the classical uniformity.
    """
    ctx = f.ctx

    def entry(c: int) -> CEntry:
        delta = c_uniformity(f, c)
        note = "c=1 is the classical differential uniformity" if c == 1 else None
        return CEntry(c=c, delta=delta, label=label_for_delta(delta), note=note)

    entries = pmap(entry, sorted(cs) if cs is not None else range(ctx.order), workers)
    return ClassificationReport(
        function=str(f),
        field=format_field_spec(ctx),
        entries=entries,
        pcn_cs=[e.c for e in entries if e.delta == 1],
        apcn_cs=[e.c for e in entries if e.delta == 2],
    )


# ---------------------------------------------------------------------------
# the quadratic characterization and its supporting identity
# ---------------------------------------------------------------------------

def c_derivative_shift_form(f: PolyFunc, gamma: int, c: int) -> PolyFunc:
    """The c-derivative of a quadratic f rewritten as a scaled shift:

        (1-c) * f(x + gamma/(1-c)) + f(gamma) - (1-c) * f(gamma/(1-c))

    Valid for constant-free quadratic f with c in the subfield fixing
    all coefficient-Frobenius twists (prime subfield in general).
    """
    ctx = f.ctx
    if c == 1:
        raise InvalidParams("shift form requires c != 1")
    one_minus_c = ctx.sub(1, c)
    gamma2 = ctx.div(gamma, one_minus_c)
    table = f.table
    shifted = ctx.vmul_const(one_minus_c, table[ctx.shift_perm(gamma2)])
    const = ctx.sub(int(table[gamma]), ctx.mul(one_minus_c, int(table[gamma2])))
    if const:
        shifted = ctx.vadd(shifted, np.full(ctx.order, const, dtype=np.int64))
    return PolyFunc.from_table(ctx, shifted)


@dataclass
class Claim:
    name: str
    applicable: bool
    consistent: bool | None
    detail: str

    def to_dict(self):
        return {"name": self.name, "applicable": self.applicable,
                "consistent": self.consistent, "detail": self.detail}


@dataclass
class QuadCheckResult:
    """Brute-force consistency verdict for the quadratic characterization:
    2-to-1 implies delta <= 2; for DO shapes APcN iff planar; PP iff PcN."""

    function: str
    field: str
    scope_degree: int
    cs: list[int]
    claims: list[Claim]

    @property
    def ok(self) -> bool:
        return all(c.consistent is not False for c in self.claims)

    def to_dict(self):
        return {
            "function": self.function,
            "field": self.field,
            "scope_degree": self.scope_degree,
            "cs": self.cs,
            "claims": [c.to_dict() for c in self.claims],
            "ok": self.ok,
        }


def _is_q_power_do(f: PolyFunc, q0: int) -> bool:
    """All exponents of the form q0^i + q0^j (base-q0 digit sum 2)."""
    return all(e > 0 and p_weight(e, q0) == 2 for e in f.coeffs)


def check_quadratic_characterization(f: PolyFunc, scope: int = 1) -> QuadCheckResult:
    """Verify, by exhaustion, the structural claims tying fiber profiles
    to c-uniformity for a quadratic f.

    scope is the subfield degree the multipliers c range over: the prime
    field by default; a larger scope is only legal when every exponent of
    f is a sum of two q0-powers (q0 = p^scope), which is the shape that
    makes the shift identity work beyond the prime field.
    """
    ctx = f.ctx
    shape = classify_shape(f)
    if not shape.is_quadratic:
        raise NotQuadratic(f"{f} is not quadratic")
    if ctx.n % scope:
        raise InvalidParams(f"scope degree {scope} does not divide {ctx.n}")
    q0 = ctx.p ** scope
    if scope > 1 and not _is_q_power_do(f, q0):
        raise InvalidParams(
            f"extended c-scope needs all exponents of the form {q0}^i + {q0}^j")
    cs = [c for c in ctx.subfield_elements(q0) if c != 1]
    deltas = {c: c_uniformity(f, c) for c in cs}

    two21 = is_two_to_one(f)
    pp = is_permutation(f)
    claims = []

    if two21:
        bad = [c for c in cs if deltas[c] > 2]
        claims.append(Claim(
            "two_to_one_implies_apcn", True, not bad,
            f"2-to-1 holds; deltas {sorted(set(deltas.values()))}"))
    else:
        claims.append(Claim("two_to_one_implies_apcn", False, None, "f is not 2-to-1"))

    if shape.is_do:
        planar = is_planar(f)
        bad = [c for c in cs if (deltas[c] == 2) != planar]
        claims.append(Claim(
            "do_apcn_iff_planar", True, not bad,
            f"planar={planar}; deltas {sorted(set(deltas.values()))}"))
    else:
        claims.append(Claim("do_apcn_iff_planar", False, None, "f is not DO"))

    bad = [c for c in cs if (deltas[c] == 1) != pp]
    claims.append(Claim(
        "pp_iff_pcn", True, not bad,
        f"pp={pp}; deltas {sorted(set(deltas.values()))}"))

    return QuadCheckResult(
        function=str(f), field=format_field_spec(ctx), scope_degree=scope,
        cs=cs, claims=claims)


# ---------------------------------------------------------------------------
# relaxed and pseudo variants
# ---------------------------------------------------------------------------

def is_relaxed_pcn(f: PolyFunc, c: int) -> bool:
    """True iff x -> f(x+gamma) - c*f(x) is bijective for all gamma != 0
    (the zero-direction derivative is not required to be)."""
    q = f.ctx.order
    return all(int(block.max()) <= 1 for block in _row_block_counts(f, c, range(1, q)))


def is_pseudo_pcn(f: PolyFunc, c: int) -> bool:
    """Even-characteristic probe: true iff x -> f(x+e) + c*f(x) + e*x is
    a bijection for every e != 0."""
    ctx = f.ctx
    if ctx.p != 2:
        raise OddCharacteristic("pseudo-PcN is defined in characteristic 2")
    xs = ctx.elements()
    blocks = _row_block_counts(f, c, range(1, ctx.order),
                               extra=lambda eps: ctx.vmul(eps[:, None], xs))
    return all(int(block.max()) <= 1 for block in blocks)
