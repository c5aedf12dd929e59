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

from .errors import InvalidParams
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
_BLOCK_ELEMS = 1 << 14
# the shortest run of a translate table, unless the field is smaller: long
# enough that a row's q/K run copies cost little more than its elements
_RUN_ELEMS = 16
# the most values or words a function's translate table holds
_TRANSLATE_ELEMS = 1 << 20


def _row_block_counts(f: PolyFunc, c: int, directions):
    """Count the c-derivative rows of f, a block of directions at a time.

    Yields one array per block of consecutive directions; its row i
    counts, for each b, the x with f(x+a) - c*f(x) = b, a being the
    block's i-th direction.  A block's rows come from _rows with row i
    offset by i*q, so one bincount counts them all.  A caller that stops
    iterating skips the remaining blocks.
    """
    q = f.ctx.order
    directions = np.asarray(directions, dtype=np.int64)
    step = max(1, _BLOCK_ELEMS // q)
    rows_of = _rows(f, c, min(step, len(directions)))
    for lo in range(0, len(directions), step):
        block = directions[lo:lo + step]
        # the rows die here, so a suspended generator holds only the counts
        counts = np.bincount(rows_of(block).ravel(), minlength=len(block) * q)
        yield counts.reshape(len(block), q)


def _translate_table(ctx, values) -> tuple[int, np.ndarray]:
    """(K, runs): the translate table of the function with these values.

    K = p^k: k starts at the smallest k with p^k >= _RUN_ELEMS (or at n)
    and is lowered until q*K <= _TRANSLATE_ELEMS, so the q*K cells stay
    near cache size: 2^16 on F_{2^12}, 3^10 on F_{3^7}.
    runs[a_lo*q/K + x_hi] holds f(x + a_lo) for x = x_lo + K*x_hi,
    x_lo = 0..K-1: values for p = 2 (int16 when q <= 2^15), spread words
    for odd p.  The q/K runs of one a_lo sit next to each other.
    """
    q, p = ctx.order, ctx.p
    k = next(k for k in range(1, ctx.n + 1) if p ** k >= _RUN_ELEMS or k == ctx.n)
    while k and q * p ** k > _TRANSLATE_ELEMS:
        k -= 1
    low, lows = p ** k, ctx.elements()[:p ** k]
    cells = values.astype(np.int16 if q <= 1 << 15 else np.int32) if p == 2 else ctx.words(values)
    runs = np.empty((low, q // low, low), dtype=cells.dtype)
    for a_lo, translated in enumerate(ctx.vadd(lows[:, None], lows)):
        cells.reshape(q // low, low).take(translated, axis=1, out=runs[a_lo])
    return low, runs.reshape(q, low)


def _rows(f: PolyFunc, c: int, count: int):
    """A function mapping a block of at most count directions to its rows
    of f(x+a) - c*f(x), row i offset by i*q.

    x = x_lo + K*x_hi splits into a low and a high part, and x + a adds
    each part on its own, so the row of a copies the q/K runs of a_lo in
    f.translates, in the order x_hi + a_hi; K = 1 is a plain gather.  For
    p = 2 the row is one XOR of those values with c*f, to which the offsets
    were added beforehand: they have no bits below q.  For odd p the words
    of -c*f are added, each element folds once, and the offsets are added
    in the call that widens the fold to int64.
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
        if ctx.p == 2:
            return np.bitwise_xor(copied, cf[:len(block)], dtype=np.int64)
        copied += cf
        return np.add(ctx.fold(copied), offsets[:len(block)], dtype=np.int64)

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
        """Write the header b = 0..q-1, then one line "a,counts[a]" per a
        (see _write_csv)."""
        counts = self.counts
        q = counts.shape[0]
        step = max(1, _BLOCK_ELEMS // q)
        _write_csv(stream, q, (counts[lo:lo + step] for lo in range(0, q, step)))


def _write_csv(stream, q: int, blocks):
    """Write the header b = 0..q-1, then one line "a,counts[a]" per a, the
    rows of a q x q count matrix coming in consecutive blocks.

    A block of rows is encoded at a time: each cell is gathered from a
    table holding, for every value up to q, its decimal digits, null
    padding and a comma; the row's last comma becomes a newline and the
    padding is deleted, giving the bytes of str() per cell.  A count can
    reach q: at c = 1, row 0 puts every x on b = 0.
    """
    stream.write("a\\b," + ",".join(map(str, range(q))) + "\n")
    digits = np.array([str(v).encode() for v in range(q + 1)])
    width = digits.itemsize + 1
    table = np.full((q + 1, width), ord(","), dtype=np.uint8)
    table[:, :-1] = digits.view(np.uint8).reshape(q + 1, -1)
    table = table.view(f"V{width}").ravel()
    lo = 0
    for block in blocks:
        cells = np.empty((len(block), q + 1), dtype=table.dtype)
        cells[:, 0] = table[lo:lo + len(block)]
        cells[:, 1:] = table[block]
        cells.view(np.uint8)[:, -1] = ord("\n")
        stream.write(cells.tobytes().translate(None, b"\0").decode("ascii"))
        lo += len(block)


def write_c_ddt_csv(f: PolyFunc, c: int, stream):
    """Write the bytes of c_ddt(f, c).to_csv(stream) without materializing
    the matrix: each block of rows is written as soon as it is counted, so
    time stays O(q^2) but at most one block (about _BLOCK_ELEMS counts) and
    its text are held."""
    q = f.ctx.order
    _write_csv(stream, q, _row_block_counts(f, c, range(q)))


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


C1_NOTE = "c=1 is the classical differential uniformity"


@dataclass(repr=False)
class Entries:
    """A report's entries as columns: cs, the multipliers in increasing
    order; reps, the multiplier each c takes its delta from (c itself when
    c counted its own); verdicts, for each representative, its (delta,
    label, method, directions), method naming the directions delta was
    counted over (see full_report) and directions how many rows that took.

    Iterating yields each entry as a dict with the keys c, delta, label,
    method and directions, then note (C1_NOTE) only at c = 1, and rep only
    where the representative is not c.  It prints as the list of them.
    """

    cs: list[int] | range
    reps: list[int]
    verdicts: dict[int, tuple[int, str, str, int]]

    def __len__(self):
        return len(self.cs)

    def __iter__(self):
        for c, rep in zip(self.cs, self.reps):
            delta, label, method, directions = self.verdicts[rep]
            entry = {"c": c, "delta": delta, "label": label, "method": method,
                     "directions": directions}
            if c == 1:
                entry["note"] = C1_NOTE
            if rep != c:
                entry["rep"] = rep
            yield entry

    def __repr__(self):
        return repr(list(self))


@dataclass
class ClassificationReport:
    """Per-c verdicts for one function across all multipliers in its field."""

    function: str
    field: str
    entries: Entries
    pcn_cs: list[int] = dc_field(default_factory=list)
    apcn_cs: list[int] = dc_field(default_factory=list)

    def to_dict(self, records: bool = False):
        """The report as plain data; with records, the entries stay an
        Entries, which the command line writes without a dict each."""
        return {
            "function": self.function,
            "field": self.field,
            "entries": self.entries if records else list(self.entries),
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


def report_plan(f: PolyFunc, cs=None) -> tuple:
    """(cs, reps, directions): the multipliers of full_report(f, cs=cs) in
    increasing order, the representative of each (see orbit_reps) and,
    for each distinct one, the directions whose rows give its delta.

    c = 0 counts direction 0 alone: every row counts the fibers of f, so
    f's own table gives delta_0, the largest fiber.  Any other c counts
    the directions row_directions picks, plus direction 0 unless c = 1.
    Those depend on c only through c = 1, c^2 = 1 and the subfield degree
    of c, which its multiplicative order fixes, so they are found once
    per order.

    At c = 1 the directions come from g, f without its constant term and
    its terms x^(p^j): f(x+a) - f(x) = g(x+a) - g(x) + L(a) with L
    additive, so each row of f is a row of g with b shifted by L(a), and
    g's scaling order and twist keep f's rows too.  f's own rows are
    counted.
    """
    ctx = f.ctx
    cs = sorted(cs) if cs is not None else range(ctx.order)
    reps = orbit_reps(ctx, cs, f.semilinear_twist[0])
    g = PolyFunc(ctx, {e: a for e, a in f.coeffs.items() if p_weight(e, ctx.p) > 1})
    directions, by_order = {}, {0: np.zeros(1, dtype=np.int64)}
    for c in sorted(set(reps)):
        order = c and (ctx.order - 1) // math.gcd(ctx.log(c), ctx.order - 1)
        if order not in by_order:
            h = g if c == 1 else f
            found = row_directions(ctx, c, h.scaling_order, h.semilinear_twist)
            by_order[order] = found if c == 1 else np.concatenate(([0], found))
        directions[c] = by_order[order]
    return cs, reps, directions


def full_report(f: PolyFunc, workers: int = 1, cs=None, plan=None) -> ClassificationReport:
    """Classify f for every c of cs (default all of F_q, c = 1 reported as
    the classical uniformity) in increasing order.  plan is report_plan(f,
    cs), made here unless given, and decides the multipliers.  delta is
    counted once per representative, over the directions the plan gives
    it, and equals c_uniformity(f, c) for every c.  Each entry's method
    names them: fiber at c = 0, monomial for f = alpha*x^d, d >= 1, else rows.
    """
    cs, reps, directions = plan or report_plan(f, cs)
    method = "monomial" if len(f.coeffs) == 1 and 0 not in f.coeffs else "rows"

    def verdict(c: int) -> tuple[int, str, str, int]:
        """delta, label, method and rows counted for a representative."""
        if c == 0:
            d = c_uniformity(f, 0)
            return d, label_for_delta(d), "fiber", 1
        d = max(int(block.max()) for block in _row_block_counts(f, c, directions[c]))
        return d, label_for_delta(d), method, len(directions[c])

    verdicts = dict(zip(directions, pmap(verdict, directions, workers)))
    return ClassificationReport(
        function=str(f),
        field=format_field_spec(f.ctx),
        entries=Entries(cs, reps, verdicts),
        pcn_cs=[c for c, rep in zip(cs, reps) if verdicts[rep][0] == 1],
        apcn_cs=[c for c, rep in zip(cs, reps) if verdicts[rep][0] == 2],
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
        raise InvalidParams(f"{f} is not quadratic")
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
        raise InvalidParams("pseudo-PcN is defined in characteristic 2")
    xs, table = ctx.elements(), f.table
    cf = ctx.vmul_const(c, table)
    return all(np.bincount(table[xs ^ e] ^ cf ^ ctx.vmul_const(e, xs)).max() <= 1
               for e in range(1, ctx.order))
