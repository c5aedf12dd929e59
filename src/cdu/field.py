"""Finite fields F_{p^n} with integer-encoded elements.

An element is the canonical integer ``sum(coords[i] * p**i)`` where
``(coords[0], ..., coords[n-1])`` are its coordinates in the polynomial
basis ``{1, g, ..., g^{n-1}}``, ``g`` being the residue of the
indeterminate modulo the defining polynomial.  Prime-subfield elements
are therefore just the integers ``0..p-1``, and all tables are indexed
directly by element value.

A FieldContext is immutable once constructed and safe to share across
threads: every operation is a pure function of the context and its
arguments.  Multiplication uses discrete-log/exponential tables when the
field order is at or below ``log_table_cap`` (default 2^20), and direct
polynomial multiplication with modular reduction above it.

Element I/O accepts the canonical integer form and the symbolic
``a*g^2+b*g+c`` polynomial-in-generator form; output is canonical
integers.  Field specification strings look like ``"3^2"`` or
``"2^3/1,1,0,1"`` (modulus coefficients, lowest degree first).
"""

from __future__ import annotations

import functools
import math
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

DEFAULT_LOG_TABLE_CAP = 1 << 20

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
# first, trailing zeros trimmed) -- used for modulus validation and the
# irreducibility test only
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
    for m in range(p ** n):
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

    Holds the element tables (base-p digit matrix, optional discrete-log
    tables, Frobenius matrices, half-addition tables for odd p) that the
    rest of the library computes with.  Construct through :func:`make_field`, which validates and
    caches contexts.
    """

    def __init__(self, spec: FieldSpec, log_table_cap: int = DEFAULT_LOG_TABLE_CAP):
        self.spec = spec
        self.p = spec.p
        self.n = spec.n
        self.order = spec.order
        self.modulus = spec.modulus

        p, n, q = self.p, self.n, self.order
        self._pow_vec = np.array([p ** i for i in range(n)], dtype=np.int64)
        idx = np.arange(q, dtype=np.int64)
        self.digits = np.empty((q, n), dtype=np.int16)
        for i in range(n):
            self.digits[:, i] = (idx // (p ** i)) % p

        # reduction rows: x^(n+k) mod modulus as a digit vector, k = 0..n-2
        self._reduc = np.zeros((max(n - 1, 0), n), dtype=np.int64)
        for k in range(n - 1):
            row = _pmod((0,) * (n + k) + (1,), self.modulus, p)
            self._reduc[k, : len(row)] = row

        self.mul_table_mode = "log_table" if q <= log_table_cap else "direct"
        self.generator: int | None = None
        self._exp2: np.ndarray | None = None
        self._log: np.ndarray | None = None
        if self.mul_table_mode == "log_table":
            self._build_log_tables()

        self.frobenius_matrices = self._build_frobenius_matrices()

        if p != 2:
            self._build_half_tables()

        self._lock = threading.Lock()
        self._embed_roots: dict[FieldSpec, int] = {}
        self._subfield_cache: dict[int, tuple[int, ...]] = {}
        self._elements = np.arange(q, dtype=np.int64)

    # -- representation helpers ------------------------------------------

    def __repr__(self):
        return f"FieldContext(F_{self.p}^{self.n}, modulus={list(self.modulus)})"

    def coords(self, x: int) -> tuple[int, ...]:
        """Polynomial-basis coordinates of a canonical integer."""
        return tuple(int(v) for v in self.digits[x])

    def from_coords(self, coords) -> int:
        out = 0
        for i, c in enumerate(coords):
            out += (int(c) % self.p) * self.p ** i
        return out

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

    def _vmul_direct(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Digit-convolution product; works without discrete-log tables."""
        p, n = self.p, self.n
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        u, v = np.broadcast_arrays(u, v)
        flat_u = u.reshape(-1)
        flat_v = v.reshape(-1)
        out = np.empty(flat_u.shape[0], dtype=np.int64)
        chunk = 1 << 18
        for lo in range(0, flat_u.shape[0], chunk):
            du = self.digits[flat_u[lo:lo + chunk]].astype(np.int64)
            dv = self.digits[flat_v[lo:lo + chunk]].astype(np.int64)
            conv = np.zeros((du.shape[0], 2 * n - 1), dtype=np.int64)
            for i in range(n):
                col = du[:, i:i + 1]
                conv[:, i:i + n] += col * dv
            low = conv[:, :n]
            if n > 1:
                low = low + conv[:, n:] @ self._reduc
            out[lo:lo + chunk] = (low % p) @ self._pow_vec
        return out.reshape(u.shape)

    def _mul_direct(self, a: int, b: int) -> int:
        return int(self._vmul_direct(np.int64(a), np.int64(b)))

    def _pow_direct(self, a: int, e: int) -> int:
        result, base = 1, a
        while e:
            if e & 1:
                result = self._mul_direct(result, base)
            base = self._mul_direct(base, base)
            e >>= 1
        return result

    def _build_log_tables(self):
        q = self.order
        if q == 2:
            self.generator = 1
            exp = np.array([1], dtype=np.int64)
        else:
            factors = prime_factors(q - 1)
            gen = None
            for cand in range(2, q):
                if all(self._pow_direct(cand, (q - 1) // r) != 1 for r in factors):
                    gen = cand
                    break
            assert gen is not None, "no primitive element found (unreachable)"
            self.generator = gen
            # block build of the power table: g^k = g^(k%B) * (g^B)^(k//B)
            b = math.isqrt(q - 1) + 1
            g1 = [1]
            for _ in range(b):
                g1.append(self._mul_direct(g1[-1], gen))
            gb = g1[b]
            g2 = [1]
            for _ in range((q - 2) // b + 1):
                g2.append(self._mul_direct(g2[-1], gb))
            ks = np.arange(q - 1, dtype=np.int64)
            exp = self._vmul_direct(
                np.array(g1[:b], dtype=np.int64)[ks % b],
                np.array(g2, dtype=np.int64)[ks // b],
            )
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
        half_digits = self.digits[: self._half, :k].astype(np.int64)
        self._spread = half_digits @ spread_pow
        self._spread_neg = (-half_digits % p) @ spread_pow
        sums = np.arange(radix ** k, dtype=np.int64)
        self._fold = (sums[:, None] // spread_pow % radix % p) @ self._pow_vec[:k]
        self._fold_hi = self._half * self._fold

    def _build_frobenius_matrices(self) -> list[np.ndarray]:
        """Matrix of x -> x^(p^i) on digit columns, for i = 0..n-1."""
        mats = []
        for i in range(self.n):
            m = np.zeros((self.n, self.n), dtype=np.int64)
            for j in range(self.n):
                image = self.pow(self.p ** j, self.p ** i)
                m[:, j] = self.digits[image]
            mats.append(m)
        return mats

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
        if self._log is not None:
            return int(self._exp2[self._log[a] + self._log[b]])
        return self._mul_direct(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._log is not None:
            return int(self._exp2[(self.order - 1) - self._log[a]])
        return self._pow_direct(a, self.order - 2)

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
        if self._log is not None:
            return int(self._exp2[(self._log[x] * em) % qm1])
        return self._pow_direct(x, em)

    def frobenius(self, x: int, i: int = 1) -> int:
        return self.pow(x, self.p ** i)

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
        if self._log is None:
            r = self._vmul_direct(u, v)
        else:
            r = self._exp2[self._log[u] + self._log[v]]
        return np.where((u == 0) | (v == 0), 0, r)

    def vmul_const(self, c: int, u):
        u = np.asarray(u, dtype=np.int64)
        if c == 0:
            return np.zeros_like(u)
        if c == 1:
            return u.copy()
        if self._log is None:
            r = self._vmul_direct(np.int64(c), u)
        else:
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
        if qm1 == 0:
            return u.copy()
        em = e % qm1
        if self._log is not None:
            r = self._exp2[(self._log[u] * em) % qm1]
            return np.where(u == 0, 0, r)
        result = np.ones_like(u)
        base = u.copy()
        ee = em if em else qm1
        while ee:
            if ee & 1:
                result = self.vmul(result, base)
            ee >>= 1
            if ee:
                base = self.vmul(base, base)
        return np.where(u == 0, 0, result)

    def vfrob(self, u, i: int = 1):
        """Elementwise x -> x^(p^i) via the precomputed Frobenius matrix."""
        m = self.frobenius_matrices[i % self.n]
        d = (self.digits[u].astype(np.int64) @ m.T) % self.p
        return d @ self._pow_vec

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
        d = self.digits[u].astype(np.int64).sum(axis=0) % self.p
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


def make_field(p: int, n: int, modulus=None,
               log_table_cap: int = DEFAULT_LOG_TABLE_CAP) -> FieldContext:
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
    key = (p, n, mod, log_table_cap)
    with _FIELD_CACHE_LOCK:
        ctx = _FIELD_CACHE.get(key)
    if ctx is None:
        ctx = FieldContext(FieldSpec(p, n, mod), log_table_cap)
        with _FIELD_CACHE_LOCK:
            ctx = _FIELD_CACHE.setdefault(key, ctx)
    return ctx


def embed(sub: FieldContext, sup: FieldContext, x: int) -> int:
    """Image of x under the fixed embedding of sub into sup.

    The embedding sends sub's basis generator to the smallest root (in
    canonical integer order) of sub's modulus inside sup, which makes it
    a deterministic field homomorphism.
    """
    if sub.p != sup.p or sup.n % sub.n:
        raise IncompatibleTower(
            f"F_{sub.p}^{sub.n} does not embed in F_{sup.p}^{sup.n}")
    root = sup._embed_roots.get(sub.spec)
    if root is None:
        xs = sup.elements()
        acc = np.full(sup.order, sub.modulus[0], dtype=np.int64)
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


def elem_pow(ctx: FieldContext, x: int, e: int) -> int:
    """x^e by square-and-multiply; 0^0 = 1, exponents reduce mod q-1."""
    return ctx.pow(x, e)


# ---------------------------------------------------------------------------
# element and field-spec I/O
# ---------------------------------------------------------------------------

def parse_element(ctx: FieldContext, text: str) -> int:
    """Parse an element literal: canonical integer or a*g^2+b*g+c form."""
    from ._parse import parse_element_text

    return parse_element_text(ctx, text)


def format_element(ctx: FieldContext, x: int) -> str:
    """Canonical integer form."""
    return str(int(x))


def format_element_symbolic(ctx: FieldContext, x: int) -> str:
    """Polynomial-in-generator form, e.g. ``2*g^2+g+1``."""
    coords = ctx.coords(x)
    parts = []
    for i in range(ctx.n - 1, -1, -1):
        c = coords[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("g" if c == 1 else f"{c}*g")
        else:
            parts.append(f"g^{i}" if c == 1 else f"{c}*g^{i}")
    return "+".join(parts) if parts else "0"


_FIELD_SPEC_RE = re.compile(r"^(\d+)\^(\d+)(?:/(.+))?$")


def parse_field_spec(text: str) -> FieldContext:
    """Build a field from a spec string like ``3^2`` or ``2^3/1,1,0,1``."""
    m = _FIELD_SPEC_RE.match(text.strip())
    if not m:
        raise ValueError(
            f"bad field spec {text!r}; expected 'p^n' or 'p^n/c0,c1,...,cn'")
    p, n = int(m.group(1)), int(m.group(2))
    modulus = None
    if m.group(3):
        modulus = [int(c) for c in m.group(3).split(",")]
    return make_field(p, n, modulus)


def format_field_spec(ctx: FieldContext) -> str:
    coeffs = ",".join(str(c) for c in ctx.modulus)
    return f"{ctx.p}^{ctx.n}/{coeffs}"
