"""Finite fields F_{p^n} with integer-encoded elements.

An element is the canonical integer ``sum(coords[i] * p**i)`` where
``(coords[0], ..., coords[n-1])`` are its coordinates in the polynomial
basis ``{1, g, ..., g^{n-1}}``, ``g`` being the residue of the
indeterminate modulo the defining polynomial.  Prime-subfield elements
are therefore just the integers ``0..p-1``, and all tables are indexed
directly by element value.

A FieldContext is immutable once constructed and safe to share across
threads: every operation is a pure function of the context and its
arguments.  Every field multiplies through discrete-log/exponential
tables.  The exponential table is built by doubling: multiplying by the
constant g^k is an F_p-linear map, one n x n matrix applied to the
base-p digits of the first k powers.

Element I/O accepts the canonical integer form and the symbolic
``a*g^2+b*g+c`` polynomial-in-generator form; output is canonical
integers.  Field specification strings look like ``"3^2"`` or
``"2^3/1,1,0,1"`` (modulus coefficients, lowest degree first).
"""

from __future__ import annotations

import functools
import re
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadSubfieldDegree,
    DegreeMismatch,
    IncompatibleTower,
    NotPrime,
    ReducibleModulus,
)

# Shift permutations are no longer cached.  The benchmark's tracer still
# reads this name to select the shift_perm calls it reports as uncached
# (orders above it), so the name and value stay until the benchmark drops
# the read.
_SHIFT_CACHE_MAX_ORDER = 1 << 11


def is_prime(m: int) -> bool:
    """Trial-division primality test, adequate for desk-scale orders."""
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m, ascending."""
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over Z_p (coefficient tuples, lowest degree
# first, trailing zeros trimmed) -- used for modulus validation, the
# irreducibility test and the scalar steps of the log-table build
# ---------------------------------------------------------------------------

def _ptrim(a: tuple[int, ...]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(tuple(out))


def _pmod(a, f, p):
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], p - 2, p)
    while len(a) - 1 >= df and a:
        if a[-1] == 0:
            a.pop()
            continue
        coef = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - df
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - coef * fi) % p
        a.pop()
    return _ptrim(tuple(a))


def _pmulmod(a, b, f, p):
    return _pmod(_pmul(a, b, p), f, p)


def _ppowmod(a, e, f, p):
    result = (1,)
    base = _pmod(a, f, p)
    while e:
        if e & 1:
            result = _pmulmod(result, base, f, p)
        base = _pmulmod(base, base, f, p)
        e >>= 1
    return result


def _pgcd(a, b, p):
    a, b = _ptrim(a), _ptrim(b)
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = tuple((c * inv) % p for c in a)
    return a


def _psub(a, b, p):
    length = max(len(a), len(b))
    a = a + (0,) * (length - len(a))
    b = b + (0,) * (length - len(b))
    return _ptrim(tuple((x - y) % p for x, y in zip(a, b)))


def is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Rabin's irreducibility test for a monic polynomial over Z_p."""
    f = tuple(c % p for c in coeffs)
    n = len(f) - 1
    if n < 1 or f[-1] != 1:
        return False
    if n == 1:
        return True
    if f[0] == 0:  # divisible by x
        return False
    x = (0, 1)
    # x^(p^k) mod f by iterated p-th powers
    t = x
    frob = {}
    for k in range(1, n + 1):
        t = _ppowmod(t, p, f, p)
        frob[k] = t
    if _psub(frob[n], x, p) != ():
        return False
    for r in prime_factors(n):
        if _pgcd(_psub(frob[n // r], x, p), f, p) != (1,):
            return False
    return True


def smallest_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree n over Z_p.

    Coefficient tuples (c0, c1, ..., c_{n-1}) are compared lowest degree
    first, so the choice is reproducible across platforms.
    """
    if n == 1:
        return (0, 1)
    # candidates below p^(n-1) have c0 = 0, so x divides them
    for m in range(p ** (n - 1), p ** n):
        # m's base-p digits, most significant digit = c0
        digs = []
        t = m
        for _ in range(n):
            digs.append(t % p)
            t //= p
        cand = tuple(reversed(digs)) + (1,)
        if is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found (unreachable)")


@dataclass(frozen=True)
class FieldSpec:
    """Defining data of F_{p^n}: characteristic, degree, monic modulus."""

    p: int
    n: int
    modulus: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.p ** self.n


class FieldContext:
    """A fully materialized finite field F_{p^n}.

    Holds the element tables (discrete-log and exponential tables,
    half-addition tables for odd p) that the rest of the library computes
    with.  Construct through :func:`make_field`, which validates and
    caches contexts.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = spec.p
        self.n = spec.n
        self.order = spec.order
        self.modulus = spec.modulus

        p, n, q = self.p, self.n, self.order
        self._pow_vec = np.array([p ** i for i in range(n)], dtype=np.int64)

        self._build_log_tables()
        if p != 2:
            self._build_half_tables()

        self._lock = threading.Lock()
        self._embed_roots: dict[FieldSpec, int] = {}
        self._subfield_cache: dict[int, tuple[int, ...]] = {}
        self._elements = np.arange(q, dtype=np.int64)

    # -- representation helpers ------------------------------------------

    def __repr__(self):
        return f"FieldContext(F_{self.p}^{self.n}, modulus={list(self.modulus)})"

    def _digits(self, u) -> np.ndarray:
        """Base-p digits of each element of u, along a new last axis."""
        return np.asarray(u, dtype=np.int64)[..., None] // self._pow_vec % self.p

    def coords(self, x: int) -> tuple[int, ...]:
        """Polynomial-basis coordinates of a canonical integer."""
        return tuple(int(v) for v in self._digits(x))

    @property
    def gen_residue(self) -> int:
        """Canonical integer of g, the residue of the indeterminate."""
        if self.n == 1:
            return (-self.modulus[0]) % self.p
        return self.p

    def elements(self) -> np.ndarray:
        """All canonical integers 0..q-1 (shared array; do not mutate)."""
        return self._elements

    # -- table construction ------------------------------------------------

    def _build_log_tables(self):
        """Generator, exponential and discrete-log tables.

        The generator is the smallest integer whose (q-1)/r-th power is not
        1 for any prime r dividing q-1.  exp is filled by doubling:
        exp[k:2k] = exp[:k] * g^k, and multiplying by g^k maps digit
        vectors through the matrix whose row i holds X^i * g^k mod the
        modulus.
        """
        p, n, q, f = self.p, self.n, self.order, self.modulus
        factors = prime_factors(q - 1)
        self.generator = next(
            (c for c in range(2, q)
             if all(_ppowmod(_ptrim(self.coords(c)), (q - 1) // r, f, p) != (1,)
                    for r in factors)),
            1)  # F_2: the only unit generates
        exp = np.empty(q - 1, dtype=np.int64)
        exp[0] = 1
        gk = _ptrim(self.coords(self.generator))
        k = 1
        while k < q - 1:
            mat = np.zeros((n, n), dtype=np.int64)
            row = gk
            for i in range(n):
                mat[i, : len(row)] = row
                row = _pmulmod(row, (0, 1), f, p)
            # in chunks, so that the int64 digit temporaries stay small
            m, chunk = min(k, q - 1 - k), 1 << 16
            for lo in range(0, m, chunk):
                hi = min(lo + chunk, m)
                exp[k + lo:k + hi] = self._digits(exp[lo:hi]) @ mat % p @ self._pow_vec
            gk = _pmulmod(gk, gk, f, p)
            k *= 2
        self._exp2 = np.concatenate([exp, exp])
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(len(exp), dtype=np.int64)
        self._log = log

    def _build_half_tables(self):
        """Carry-free addition tables for odd p.

        An element x splits into halves x = lo + K*hi with K = p^k,
        k = ceil(n/2).  Digit-wise addition never carries between digits,
        so each half adds on its own.  _spread writes a half's base-p
        digits in base 2p-1 (_spread_neg those of its negation), where
        adding two spread halves is plain integer addition with no carry;
        _fold maps such a sum back to the half's canonical digits mod p,
        and _fold_hi to K times them.  The tables hold K or (2p-1)^k
        entries each (81 and 625 for F_{3^7}), against K^2 for a table of
        half sums.
        """
        p, k = self.p, (self.n + 1) // 2
        self._half = p ** k
        radix = 2 * p - 1
        spread_pow = radix ** np.arange(k, dtype=np.int64)
        half_digits = self._digits(np.arange(self._half))[:, :k]
        self._spread = half_digits @ spread_pow
        self._spread_neg = (-half_digits % p) @ spread_pow
        sums = np.arange(radix ** k, dtype=np.int64)
        self._fold = (sums[:, None] // spread_pow % radix % p) @ self._pow_vec[:k]
        self._fold_hi = self._half * self._fold

    # -- scalar arithmetic -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        out, mult = 0, 1
        for _ in range(self.n):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        p = self.p
        if p == 2:
            return a
        out, mult = 0, 1
        for _ in range(self.n):
            out += (-a % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self._exp2[self._log[a] + self._log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self._exp2[(self.order - 1) - self._log[a]])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, x: int, e: int) -> int:
        """x^e with 0^0 = 1; e may far exceed the field order."""
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return 1
        if x == 0:
            return 0
        qm1 = self.order - 1
        em = e % qm1
        if em == 0:
            return 1
        return int(self._exp2[(self._log[x] * em) % qm1])

    # -- vector arithmetic (numpy arrays of canonical integers) -----------

    def _spread_halves(self, spread, u):
        """Low and high halves of u, each written through the table spread
        (odd p)."""
        hi, lo = np.divmod(u, self._half)
        return spread[lo], spread[hi]

    def _join(self, lo_sum, hi_sum):
        """The element whose halves fold from the spread sums given."""
        return self._fold[lo_sum] + self._fold_hi[hi_sum]

    def vadd(self, u, v):
        if self.p == 2:
            return np.asarray(u) ^ np.asarray(v)
        ul, uh = self._spread_halves(self._spread, u)
        vl, vh = self._spread_halves(self._spread, v)
        return self._join(ul + vl, uh + vh)

    def vsub(self, u, v):
        if self.p == 2:
            return np.asarray(u) ^ np.asarray(v)
        ul, uh = self._spread_halves(self._spread, u)
        vl, vh = self._spread_halves(self._spread_neg, v)
        return self._join(ul + vl, uh + vh)

    def vneg(self, u):
        if self.p == 2:
            return np.asarray(u)
        return self._join(*self._spread_halves(self._spread_neg, u))

    def gather_add(self, u, v):
        """A function mapping an index array s to vadd(u[s], v).

        u and v are split into spread halves once, so each call costs a
        few gathers per element; s may be any shape that broadcasts
        against v.
        """
        u = np.asarray(u, dtype=np.int64)
        if self.p == 2:
            return lambda s: u[s] ^ v
        ul, uh = self._spread_halves(self._spread, u)
        vl, vh = self._spread_halves(self._spread, v)
        return lambda s: self._join(ul[s] + vl, uh[s] + vh)

    def vmul(self, u, v):
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        r = self._exp2[self._log[u] + self._log[v]]
        return np.where((u == 0) | (v == 0), 0, r)

    def vmul_const(self, c: int, u):
        u = np.asarray(u, dtype=np.int64)
        if c == 0:
            return np.zeros_like(u)
        if c == 1:
            return u.copy()
        r = self._exp2[int(self._log[c]) + self._log[u]]
        return np.where(u == 0, 0, r)

    def vpow_const(self, u, e: int):
        """Elementwise u^e for a fixed non-negative exponent."""
        if e < 0:
            raise ValueError("negative exponent")
        u = np.asarray(u, dtype=np.int64)
        if e == 0:
            return np.ones_like(u)
        qm1 = self.order - 1
        r = self._exp2[(self._log[u] * (e % qm1)) % qm1]
        return np.where(u == 0, 0, r)

    def vexp(self, t):
        """Elementwise g^t, g being the generator, for exponents t >= 0."""
        return self._exp2[np.asarray(t, dtype=np.int64) % (self.order - 1)]

    def log(self, x: int) -> int:
        """The t in [0, q-1) with g^t = x, for x != 0."""
        if x == 0:
            raise ValueError("logarithm of zero")
        return int(self._log[x])

    def shift_perm(self, a: int) -> np.ndarray:
        """Index array of the translation x -> x + a."""
        if a == 0:
            return self._elements
        return self.shift_rows([a])[0]

    def shift_rows(self, directions) -> np.ndarray:
        """Row i holds the translation x -> x + directions[i], for all x."""
        a = np.asarray(directions, dtype=np.int64)
        if self.p == 2:
            return a[:, None] ^ self._elements
        # x = x_lo + K*x_hi, row-major over (x_hi, x_lo): x + a permutes each
        # axis on its own, so a direction folds only K + q/K half sums
        al, ah = self._spread_halves(self._spread, a)
        lo = self._fold[al[:, None] + self._spread]
        hi = self._fold_hi[ah[:, None] + self._spread[: self.order // self._half]]
        return (hi[:, :, None] + lo[:, None, :]).reshape(len(a), self.order)

    def field_sum(self, u) -> int:
        """Sum of an array of elements, as one field element."""
        d = self._digits(u).sum(axis=0) % self.p
        return int(d @ self._pow_vec)

    # -- subfields ---------------------------------------------------------

    def subfield_elements(self, q0: int) -> tuple[int, ...]:
        """Sorted canonical integers of the subfield of order q0."""
        cached = self._subfield_cache.get(q0)
        if cached is not None:
            return cached
        m = self._subfield_degree(q0)
        if m is None:
            raise BadSubfieldDegree(f"{q0} is not the order of a subfield of F_{self.p}^{self.n}")
        x = self._elements
        sub = tuple(int(v) for v in x[self.vpow_const(x, q0) == x])
        with self._lock:
            self._subfield_cache[q0] = sub
        return sub

    def _subfield_degree(self, q0: int) -> int | None:
        m, t = 0, 1
        while t < q0:
            t *= self.p
            m += 1
        if t != q0 or m == 0 or self.n % m:
            return None
        return m

    def in_subfield(self, x: int, q0: int) -> bool:
        return self.pow(x, q0) == x


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

_FIELD_CACHE: dict[tuple, FieldContext] = {}
_FIELD_CACHE_LOCK = threading.Lock()


@functools.cache
def _default_modulus(p: int, n: int) -> tuple[int, ...]:
    """smallest_irreducible(p, n), searched once per (p, n)."""
    return smallest_irreducible(p, n)


def make_field(p: int, n: int, modulus=None) -> FieldContext:
    """Construct (or fetch from cache) the field F_{p^n}.

    When no modulus is given, the lexicographically smallest monic
    irreducible of degree n over Z_p is chosen (coefficients compared
    lowest degree first), so construction is reproducible everywhere.
    An explicit modulus is validated for degree, monicity and
    irreducibility.
    """
    if not is_prime(p):
        raise NotPrime(p)
    if n < 1:
        raise DegreeMismatch(f"extension degree must be positive, got {n}")
    if modulus is not None:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != n + 1 or mod[-1] != 1:
            raise DegreeMismatch(
                f"modulus must be monic of degree {n}, got coefficients {list(modulus)}")
        if not is_irreducible(mod, p):
            raise ReducibleModulus(f"{list(mod)} is reducible over Z_{p}")
    else:
        mod = _default_modulus(p, n)
    key = (p, n, mod)
    with _FIELD_CACHE_LOCK:
        ctx = _FIELD_CACHE.get(key)
    if ctx is None:
        ctx = FieldContext(FieldSpec(p, n, mod))
        with _FIELD_CACHE_LOCK:
            ctx = _FIELD_CACHE.setdefault(key, ctx)
    return ctx


def embed(sub: FieldContext, sup: FieldContext, x: int) -> int:
    """Image of x under the fixed embedding of sub into sup.

    The embedding sends sub's basis generator to the smallest root (in
    canonical integer order) of sub's modulus inside sup, which makes it
    a deterministic field homomorphism.  Every root of that modulus lies
    in sup's subfield of order p^sub.n, so only that subfield is searched.
    """
    if sub.p != sup.p or sup.n % sub.n:
        raise IncompatibleTower(
            f"F_{sub.p}^{sub.n} does not embed in F_{sup.p}^{sup.n}")
    root = sup._embed_roots.get(sub.spec)
    if root is None:
        xs = np.array(sup.subfield_elements(sup.p ** sub.n), dtype=np.int64)
        acc = np.full(xs.shape, sub.modulus[0], dtype=np.int64)
        for i in range(1, len(sub.modulus)):
            ci = sub.modulus[i]
            if ci:
                acc = sup.vadd(acc, sup.vmul_const(ci, sup.vpow_const(xs, i)))
        roots = xs[acc == 0]
        assert roots.size > 0, "modulus has no root in the bigger field (unreachable)"
        root = int(roots.min())
        with sup._lock:
            sup._embed_roots[sub.spec] = root
    acc = 0
    for c in reversed(sub.coords(x)):
        acc = sup.add(sup.mul(acc, root), c)
    return acc


def relative_trace(ctx: FieldContext, sub_degree: int, x: int) -> int:
    """Trace of x onto the subfield of order p^sub_degree."""
    if sub_degree < 1 or ctx.n % sub_degree:
        raise BadSubfieldDegree(
            f"{sub_degree} does not divide the extension degree {ctx.n}")
    q0 = ctx.p ** sub_degree
    k = ctx.n // sub_degree
    acc = cur = x
    for _ in range(k - 1):
        cur = ctx.pow(cur, q0)
        acc = ctx.add(acc, cur)
    return acc


def trace_table(ctx: FieldContext, sub_degree: int, values) -> np.ndarray:
    """Vectorized relative_trace over an array of elements."""
    if sub_degree < 1 or ctx.n % sub_degree:
        raise BadSubfieldDegree(
            f"{sub_degree} does not divide the extension degree {ctx.n}")
    q0 = ctx.p ** sub_degree
    k = ctx.n // sub_degree
    acc = np.asarray(values, dtype=np.int64).copy()
    cur = acc
    for _ in range(k - 1):
        cur = ctx.vpow_const(cur, q0)
        acc = ctx.vadd(acc, cur)
    return acc


# ---------------------------------------------------------------------------
# element and field-spec I/O
# ---------------------------------------------------------------------------

def parse_element(ctx: FieldContext, text: str) -> int:
    """Parse an element literal: canonical integer or a*g^2+b*g+c form."""
    from ._parse import parse_element_text

    return parse_element_text(ctx, text)


_FIELD_SPEC_RE = re.compile(r"^(\d+)\^(\d+)(?:/(.+))?$")


def split_field_spec(text: str) -> tuple[int, int, list[int] | None]:
    """(p, n, modulus or None) of a spec string, without building the field."""
    m = _FIELD_SPEC_RE.match(text.strip())
    if not m:
        raise ValueError(
            f"bad field spec {text!r}; expected 'p^n' or 'p^n/c0,c1,...,cn'")
    p, n = int(m.group(1)), int(m.group(2))
    modulus = None
    if m.group(3):
        modulus = [int(c) for c in m.group(3).split(",")]
    return p, n, modulus


def parse_field_spec(text: str) -> FieldContext:
    """Build a field from a spec string like ``3^2`` or ``2^3/1,1,0,1``."""
    return make_field(*split_field_spec(text))


def format_field_spec(ctx: FieldContext) -> str:
    coeffs = ",".join(str(c) for c in ctx.modulus)
    return f"{ctx.p}^{ctx.n}/{coeffs}"
