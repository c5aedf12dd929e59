"""c-derivatives, c-difference tables, and PcN/APcN classification.

For a multiplier c, the c-derivative of f in direction a is the map
x -> f(x+a) - c*f(x).  Counting its solutions over all (a, b) pairs,
excluding the degenerate pair (a, c) = (0, 1), gives the c-differential
uniformity delta; delta = 1 is PcN (perfect c-nonlinear), delta = 2 is
APcN.  c = 1 recovers the classical derivative and differential
uniformity, which is why the a = 0 row is excluded exactly there.
"""

from __future__ import annotations

import math
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
# the most values or words a function's translate table holds
_TRANSLATE_ELEMS = 1 << 20


def _row_block_counts(f: PolyFunc, c: int, directions, *, extra=None):
    """Count the c-derivative rows of f, a block of directions at a time.

    Yields one array per block of consecutive directions; its row i
    counts, for each b, the x with f(x+a) - c*f(x) = b, a being the
    block's i-th direction.  extra, if given, maps a block of directions
    to a (block, q) array added to the rows, e.g. a term a*x.  A block's
    rows come from _rows with row i offset by i*q, so one bincount counts
    them all.  A caller that stops iterating skips the remaining blocks.
    """
    q = f.ctx.order
    directions = np.asarray(directions, dtype=np.int64)
    step = max(1, _BLOCK_ELEMS // q)
    rows_of = _rows(f, c, min(step, len(directions)), extra)
    for lo in range(0, len(directions), step):
        block = directions[lo:lo + step]
        rows = rows_of(block)
        yield np.bincount(rows.ravel(), minlength=len(block) * q).reshape(len(block), q)


def _translate_table(ctx, values) -> tuple[int, np.ndarray]:
    """(K, runs): the translate table of the function with these values.

    K = p^k, k being the largest value <= ceil(n/2) with q*K <=
    _TRANSLATE_ELEMS.  runs[a_lo*q/K + x_hi] holds f(x + a_lo) for
    x = x_lo + K*x_hi, x_lo = 0..K-1: values for p = 2 (int16 when
    q <= 2^15), spread words for odd p.  The q/K runs of one a_lo sit next
    to each other.
    """
    q, p = ctx.order, ctx.p
    k = (ctx.n + 1) // 2
    while k and q * p ** k > _TRANSLATE_ELEMS:
        k -= 1
    low, lows = p ** k, ctx.elements()[:p ** k]
    cells = values.astype(np.int16 if q <= 1 << 15 else np.int32) if p == 2 else ctx.words(values)
    runs = np.empty((low, q // low, low), dtype=cells.dtype)
    for a_lo, translated in enumerate(ctx.vadd(lows[:, None], lows)):
        cells.reshape(q // low, low).take(translated, axis=1, out=runs[a_lo])
    return low, runs.reshape(q, low)


def _rows(f: PolyFunc, c: int, count: int, extra=None):
    """A function mapping a block of at most count directions to its rows
    of f(x+a) - c*f(x) (plus extra), row i offset by i*q.

    x = x_lo + K*x_hi splits into halves, and x + a adds each half on its
    own, so the row of a copies the q/K runs of a_lo in f.translates, in
    the order x_hi + a_hi; K = 1 is a plain gather.  For p = 2 the row is
    one XOR of those values with c*f, to which the offsets were added
    beforehand: they have no bits below q.  For odd p the words of -c*f are
    added, each element folds once, and the offsets are added in the call
    that widens the fold to int64.
    """
    ctx, q = f.ctx, f.ctx.order
    low, runs = f.translates
    highs = ctx.elements()[:q // low]
    offsets = q * np.arange(count)[:, None]
    cf = ctx.vmul_const(c, f.table)
    cf = cf + offsets if ctx.p == 2 else ctx.neg_words(cf)

    def rows_of(block):
        hi, lo = np.divmod(block, low)
        copied = runs.take(ctx.vadd(hi[:, None], highs) + (lo * (q // low))[:, None], axis=0)
        copied = copied.reshape(len(block), q)
        if ctx.p == 2:  # extra is below q, so XOR adds it before the offsets
            other = cf[:len(block)] if extra is None else cf[:len(block)] ^ extra(block)
            return np.bitwise_xor(copied, other, dtype=np.int64)
        copied += cf
        folded = ctx.fold(copied) if extra is None else ctx.vadd(ctx.fold(copied), extra(block))
        return np.add(folded, offsets[:len(block)], dtype=np.int64)

    return rows_of


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
        """Write the header b = 0..q-1, then one line "a,counts[a]" per a.

        A block of rows is encoded at a time: each cell is gathered from
        a table holding, for every value, its decimal digits, null
        padding and a comma; the row's last comma becomes a newline and
        the padding is deleted, giving the bytes of str() per cell.
        """
        counts = self.counts
        q = counts.shape[0]
        stream.write("a\\b," + ",".join(map(str, range(q))) + "\n")
        top = max(q - 1, int(counts.max()))
        digits = np.array([str(v).encode() for v in range(top + 1)])
        width = digits.itemsize + 1
        table = np.full((top + 1, width), ord(","), dtype=np.uint8)
        table[:, :-1] = digits.view(np.uint8).reshape(top + 1, -1)
        table = table.view(f"V{width}").ravel()
        step = max(1, _BLOCK_ELEMS // q)
        for lo in range(0, q, step):
            block = counts[lo:lo + step]
            cells = np.empty((len(block), q + 1), dtype=table.dtype)
            cells[:, 0] = table[lo:lo + len(block)]
            cells[:, 1:] = table[block]
            cells.view(np.uint8)[:, -1] = ord("\n")
            stream.write(cells.tobytes().translate(None, b"\0").decode("ascii"))


def c_ddt(f: PolyFunc, c: int) -> CDiffSpectrum:
    """Materialize the full q x q count matrix (O(q^2) time and space)."""
    q = f.ctx.order
    counts = np.empty((q, q), dtype=np.int32)  # a count never exceeds q
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
    """delta without materializing the matrix (streams row blocks).  At
    c = 0 every row counts the fibers of f, translated by a, so the row of
    direction 0, f's own table, gives delta: its largest fiber."""
    if c == 0:
        return int(np.bincount(f.table).max())
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
    """One multiplier's verdict.  method names the directions delta was
    counted over (see full_report) and directions how many rows that took;
    rep, when set, is the multiplier whose delta was computed in c's place."""

    c: int
    delta: int
    label: str
    directions: int
    note: str | None = None
    method: str = "rows"
    rep: int | None = None

    def to_dict(self):
        d = {"c": self.c, "delta": self.delta, "label": self.label, "method": self.method,
             "directions": self.directions}
        if self.note:
            d["note"] = self.note
        if self.rep is not None:
            d["rep"] = self.rep
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


def orbit_reps(ctx, cs, i: int) -> list[int]:
    """For each c of cs, the smallest element of its orbit under
    c -> c^(p^i) and c -> 1/c (0 is its own orbit), i being the first
    entry of f.semilinear_twist.

    Substituting y = x + a turns f(x+a) - c*f(x) = b into
    f(y-a) - f(y)/c = -b/c, a bijection on (a, b) that keeps a = 0, so
    delta_c = delta_{1/c} for every f.  With f(g^s * x^(p^i)) =
    mu * f(x)^(p^i), substituting x -> g^s * x^(p^i) maps the solutions
    for c onto those for c' with c'^(p^i) = c (see row_directions), so the
    whole orbit shares one delta.
    """
    c = np.asarray(cs, dtype=np.int64)
    rep = c
    for _ in range(ctx.n // i):
        rep = np.minimum(rep, np.minimum(c, ctx.vpow_const(c, ctx.order - 2)))
        c = ctx.vpow_const(c, ctx.p ** i)
    return rep.tolist()


def row_directions(ctx, c: int, m: int, twist: tuple[int, int]) -> np.ndarray:
    """One nonzero direction per orbit of a group that keeps the multiset
    of counts of each row of the c-derivative, for f with
    m = f.scaling_order and twist = f.semilinear_twist.  Direction 0 is an
    orbit of its own.

    The group is generated by three kinds of map.  a -> lambda*a for
    lambda^m = 1: substituting x -> lambda*x sends the solutions for (a, b)
    to those for (lambda*a, lambda^d * b).  a -> g^s * a^(p^i) for
    (i, s) = twist, raised to the smallest power r with sigma^(i*r)(c) = c,
    sigma being x -> x^p: with f(g^s * x^(p^i)) = mu * f(x)^(p^i),
    substituting x -> g^s * x^(p^i) turns f(x+a) - c*f(x) = b into
    mu * (f(y+a') - c'*f(y))^(p^i) = b, where a = g^s * a'^(p^i) and
    c'^(p^i) = c.  When c^2 = 1 and p is odd, a -> -a: y = x + a sends
    the solutions for (a, b) to those for (-a, -b/c); m becomes
    lcm(m, 2).  Writing a = g^t, the scalings reduce t modulo
    L = (q-1)/m and the twist maps t to P*t + S mod L, so the directions
    are g^t for each t in [0, L) that is the smallest element of its orbit
    under that map.  A monomial has L = 1 and its one nonzero direction
    is 1.
    """
    q, p, n = ctx.order, ctx.p, ctx.n
    if p != 2 and ctx.mul(c, c) == 1:
        m = math.lcm(m, 2)
    length = (q - 1) // m
    i, s = twist
    # the subfield of c has degree j | n; sigma^(i*r) fixes c iff j | i*r
    j = next(j for j in range(1, n + 1) if n % j == 0 and ctx.pow(c, p ** j) == c)
    step, shift = 1 % length, 0  # t -> step*t + shift, the twist's r-th power
    for _ in range(math.lcm(i, j) // i):
        step, shift = p ** i * step % length, (p ** i * shift + s) % length
    t = np.arange(length, dtype=np.int64)
    smallest, power, offset = t, step, shift
    while (power, offset) != (1 % length, 0):  # the nontrivial powers of the map
        smallest = np.minimum(smallest, (t * power + offset) % length)
        power, offset = power * step % length, (offset * step + shift) % length
    return ctx.vexp(t[smallest == t])


def report_method(f: PolyFunc, c: int) -> str:
    """The name full_report gives the directions it counts for c.

    fiber: c = 0, where every row counts the fibers of f, so direction 0
    alone gives delta_0, the largest fiber.  monomial: f = alpha*x^d with
    d >= 1, where x -> a*x scales the row of direction a != 0 by a^d
    (m = q-1), so row_directions picks direction 1 alone.  rows: any other
    f, over the directions row_directions picks, at c = 1 those of f
    without its affine terms (see full_report).  Direction 0 is added for
    every c other than 0 and 1.
    """
    if c == 0:
        return "fiber"
    if len(f.coeffs) == 1 and 0 not in f.coeffs:
        return "monomial"
    return "rows"


def full_report(f: PolyFunc, workers: int = 1, cs=None) -> ClassificationReport:
    """Classify f for every c in the field, in canonical integer order.

    cs restricts the multipliers (e.g. to a subfield); default is all of
    F_q including c = 1, which is reported as the classical uniformity.
    delta is counted once per orbit of c under f's semilinear twist and
    c -> 1/c (see orbit_reps), for the orbit's smallest element, over
    direction 0 alone when c = 0 and otherwise over the directions
    row_directions picks, plus direction 0 unless c = 1; the result equals
    c_uniformity(f, c) for every c.

    At c = 1 the directions come from g, f without its constant term and
    its terms x^(p^j): f(x+a) - f(x) = g(x+a) - g(x) + L(a) with L
    additive, so each row of f is a row of g with b shifted by L(a), and
    g's scaling order and twist keep f's rows too.  f's own rows are
    counted.  g is built, from coefficients alone, only when 1 is a
    representative and f has such a term.
    """
    ctx = f.ctx
    cs = sorted(cs) if cs is not None else range(ctx.order)
    m, twist = f.scaling_order, f.semilinear_twist
    reps = orbit_reps(ctx, cs, twist[0])
    g = f
    if 1 in reps and any(p_weight(e, ctx.p) <= 1 for e in f.coeffs):
        g = PolyFunc(ctx, {e: a for e, a in f.coeffs.items() if p_weight(e, ctx.p) > 1})

    def verdict(c: int) -> tuple[int, str, int, str]:
        """delta, label, rows counted and method for a representative; the
        method is the same for every c of its orbit (0 is an orbit alone)."""
        if c == 0:
            directions = [0]
        elif c == 1:
            directions = row_directions(ctx, c, g.scaling_order, g.semilinear_twist)
        else:
            directions = np.concatenate(([0], row_directions(ctx, c, m, twist)))
        d = c_uniformity(f, 0) if c == 0 else max(
            int(block.max()) for block in _row_block_counts(f, c, directions))
        return d, label_for_delta(d), len(directions), report_method(f, c)

    distinct = sorted(set(reps))
    verdicts = dict(zip(distinct, pmap(verdict, distinct, workers)))

    def entry(c: int, rep: int) -> CEntry:
        note = "c=1 is the classical differential uniformity" if c == 1 else None
        d, label, rows, method = verdicts[rep]
        return CEntry(c=c, delta=d, label=label, directions=rows, note=note, method=method,
                      rep=rep if rep != c else None)

    entries = [entry(c, rep) for c, rep in zip(cs, reps)]
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
    a bijection for every e != 0.  Library API that no command calls,
    kept while the benchmark's tracer wraps it."""
    ctx = f.ctx
    if ctx.p != 2:
        raise OddCharacteristic("pseudo-PcN is defined in characteristic 2")
    xs = ctx.elements()
    blocks = _row_block_counts(f, c, range(1, ctx.order),
                               extra=lambda eps: ctx.vmul(eps[:, None], xs))
    return all(int(block.max()) <= 1 for block in blocks)
