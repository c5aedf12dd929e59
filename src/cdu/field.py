"""Finite fields F_{p^n} with integer-encoded elements.

An element is the canonical integer ``sum(coords[i] * p**i)`` where
``(coords[0], ..., coords[n-1])`` are its coordinates in the polynomial
basis ``{1, g, ..., g^{n-1}}``, ``g`` being the residue of the
indeterminate modulo the defining polynomial.  Prime-subfield elements
are therefore just the integers ``0..p-1``, and all tables are indexed
directly by element value.

A FieldContext is immutable once constructed and safe to share across
threads: every operation is a pure function of the context and its
arguments.  One polynomial arithmetic, F_p[X]/(f) on digits packed into
Python ints (see _ring), serves the irreducibility test, the search for
the default modulus and the search for the generator.  Every field
multiplies through discrete-log/exponential tables.  The exponential
table is built by doubling: multiplying by the constant g^k is an
F_p-linear map, applied to the first k powers through one lookup table
per half of an element's digits (see linear_map).  For p = 2 addition is
XOR; for odd p an element's spread word writes its base-p digits in base
2p-1, two words add as integers without carry, and the sum folds back to
an element through tables over chunks of digits.

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

from .errors import InvalidParams, quoted

# Shift permutations are no longer cached.  The benchmark's tracer still
# reads this name to select the shift_perm calls it reports as uncached
# (orders above it), so the name and value stay until the benchmark drops
# the read.
_SHIFT_CACHE_MAX_ORDER = 1 << 11

# The largest fold table of odd-p addition, in entries: a chunk of k digits
# folds through a table of (2p-1)^k entries.
_FOLD_CHUNK_ENTRIES = 1 << 17


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


def prime_power(q: int) -> tuple[int, int]:
    """(p, m) with q = p^m, p prime and m >= 1."""
    factors = prime_factors(q)
    if len(factors) != 1:
        raise InvalidParams(f"q={q} is not a prime power")
    p, m = factors[0], 1
    while p ** m < q:
        m += 1
    return p, m


# ---------------------------------------------------------------------------
# F_p[X]/(f) on packed digits: the one polynomial arithmetic, serving the
# irreducibility test, the modulus search and the generator search
# ---------------------------------------------------------------------------

def _ring(p: int, f: tuple[int, ...]):
    """Arithmetic of F_p[X]/(f) for a monic f of degree n >= 1.

    A residue a_0 + a_1 X + ... + a_{n-1} X^(n-1) with digits a_i < p packs
    into the Python int sum(a_i << width * i), its digits `width` bits
    apart, so that one integer product multiplies two polynomials with no
    carry between digits (Kronecker substitution).  Digits of X^n and above
    fold back through X^n mod f, and floor(v / p) = v * m >> shift reduces
    every digit v < 2^bits mod p at once.  Returns (mul, power, reduced,
    width): the product and power of packed residues, the reduction of each
    digit of a packed word mod p, and the digit spacing.
    """
    n = len(f) - 1
    bits = (n * n * (p - 1) ** 2).bit_length()  # n^2 (p-1)^2 bounds a digit
    shift = bits + p.bit_length()
    width, m = bits + shift, -(-(1 << shift) // p)
    top = width * n
    quotients = sum((1 << bits) - 1 << width * i for i in range(2 * n))
    xn = sum(-c % p << width * i for i, c in enumerate(f[:n]))  # X^n mod f

    def reduced(w):
        return w - p * (w * m >> shift & quotients)

    def mul(a, b):
        w = a * b
        while w >> top:  # each pass adds at most (n-1)(p-1)^2 to a digit
            w = (w & (1 << top) - 1) + reduced(w >> top) * xn
        return reduced(w)

    def power(x, e):
        out = 1
        while e:
            out, x, e = mul(out, x) if e & 1 else out, mul(x, x), e >> 1
        return out

    return mul, power, reduced, width


def is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Rabin's irreducibility test for a monic polynomial over Z_p.

    f of degree n is irreducible iff X^(p^n) = X mod f and, for every prime
    r dividing n, h = X^(p^(n/r)) - X is prime to f.  Once the first check
    holds, f divides X^(p^n) - X, so f is squarefree and F_p[X]/(f) is a
    product of fields F_{p^d} with d | n.  h is prime to f iff it is a unit
    of that product, that is iff h^(p^n - 1) = 1 mod f: each F_{p^d}^* has
    order p^d - 1 dividing p^n - 1, and a zero component stays zero.  So
    the test takes powers in _ring and no gcd.
    """
    f = tuple(c % p for c in coeffs)
    n = len(f) - 1
    if n < 1 or f[-1] != 1:
        return False
    if n == 1:
        return True
    if f[0] == 0:  # divisible by x
        return False
    _, power, reduced, width = _ring(p, f)
    x = 1 << width
    frob = [x]  # X^(p^k) mod f for k = 0..n, by iterated p-th powers
    for _ in range(n):
        frob.append(power(frob[-1], p))
    return frob[n] == x and all(
        power(reduced(frob[n // r] + (p - 1 << width)), p ** n - 1) == 1
        for r in prime_factors(n))


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

    Holds the element tables that the rest of the library computes with:
    discrete-log and exponential tables, and for odd p the spread words of
    every element and of its negation, with the fold tables that map a sum
    of two words back to an element (see _build_add_tables).  Construct
    through :func:`make_field`, which validates and caches contexts.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = spec.p
        self.n = spec.n
        self.order = spec.order
        self.modulus = spec.modulus

        if self.p != 2:
            self._build_add_tables()  # linear_map adds through them
        self._build_log_tables()

        self._lock = threading.Lock()
        self._embed_roots: dict[FieldSpec, int] = {}
        self._subfield_cache: dict[int, tuple[int, ...]] = {}
        self._elements = np.arange(self.order, dtype=np.int64)

    # -- representation helpers ------------------------------------------

    def __repr__(self):
        return f"FieldContext(F_{self.p}^{self.n}, modulus={list(self.modulus)})"

    def coords(self, x: int) -> tuple[int, ...]:
        """Polynomial-basis coordinates of a canonical integer."""
        return tuple(int(x) // self.p ** i % self.p for i in range(self.n))

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

        The generator g is the smallest integer whose (q-1)/r-th power is
        not 1 for any prime r dividing q-1, searched on the packed residues
        of _ring.  exp is filled by doubling: exp[k:2k] = exp[:k] * g^k
        through the linear_map with images X^i * g^k, which also takes
        these images to those for 2k.
        """
        p, n, q = self.p, self.n, self.order
        mul, power, _, width = _ring(p, self.modulus)
        factors = prime_factors(q - 1)

        def pack(x):
            return sum(d << width * i for i, d in enumerate(self.coords(x)))

        def unpack(w):
            return sum((w >> width * i & (1 << width) - 1) * p ** i for i in range(n))

        self.generator = next(
            (c for c in range(2, q) if all(power(pack(c), (q - 1) // r) != 1 for r in factors)),
            1)  # F_2: the only unit generates
        images = [unpack(mul(pack(self.generator), 1 << width * i)) for i in range(n)]
        exp = np.empty(q - 1, dtype=np.int64)
        exp[0] = 1
        k = 1
        while k < q - 1:
            times = self.linear_map(images)  # multiplication by g^k
            exp[k:2 * k] = times(exp[:min(k, q - 1 - k)])
            images = times(images)
            k *= 2
        self._exp2 = np.concatenate([exp, exp])
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(len(exp), dtype=np.int64)
        self._log = log

    def _build_add_tables(self):
        """Carry-free addition tables for odd p.

        The n base-p digits of x split into balanced chunks of consecutive
        digits, a chunk of k digits having (2p-1)^k <= _FOLD_CHUNK_ENTRIES:
        one chunk for every field up to F_{3^7}, two for F_{3^12}, F_{5^8}
        or F_{7^6}.  _words[x] writes each chunk's digits in base 2p-1, the
        chunks in bit fields of their own (_neg_words does the same for
        -x), so that adding two words is plain integer addition with no
        carry between digits.  A chunk of a sum folds back to its digits
        mod p through one table of (2p-1)^k entries, 78,125 for F_{3^7}.
        Every table is built by broadcast sums over one digit at a time.
        """
        p, n, q = self.p, self.n, self.order
        radix = 2 * p - 1
        width = 1
        while width < n and radix ** (width + 1) <= _FOLD_CHUNK_ENTRIES:
            width += 1
        count = -(-n // width)
        sizes = [n // count + (i < n % count) for i in range(count)]
        bits = (radix ** sizes[0] - 1).bit_length()
        top = sum(radix ** k - 1 << c * bits for c, k in enumerate(sizes))  # the largest word
        word_dtype = np.int32 if top < 2 ** 31 else np.int64
        elem_dtype = np.int16 if q <= 2 ** 15 else np.int32 if q <= 2 ** 31 else np.int64

        def by_digit(values, place, dtype):
            """For every index with digits d_i (d_0 varying fastest), the sum
            of values[d_i] * place[i]."""
            out = np.zeros(1, dtype=dtype)
            for w in place:
                out = np.add.outer(values.astype(dtype) * w, out).ravel()
            return out

        digits, residues = np.arange(p), np.arange(radix) % p
        spread, folds, low = [], [], 0
        for c, k in enumerate(sizes):
            spread += [radix ** j << c * bits for j in range(k)]
            table = by_digit(residues, [p ** (low + j) for j in range(k)], elem_dtype)
            folds.append((c * bits, table))
            low += k
        self._words = by_digit(digits, spread, word_dtype)
        self._neg_words = by_digit(-digits % p, spread, word_dtype)
        self._folds = folds
        self._fold_mask = (1 << bits) - 1

    def linear_map(self, images):
        """The F_p-linear map of the field that sends X^i to images[i], as
        a function of an array of elements (or of one element).

        x = x_lo + K*x_hi splits into halves, K = p^ceil(n/2), so a map is
        two tables, one per half, of the image of every value of that half,
        each built a digit at a time from the multiples of that digit's
        image.  For p = 2 the tables hold elements, at most 2^10 entries
        each up to F_{2^20}, and the two lookups XOR; for odd p they hold
        spread words, which add once and fold.
        """
        p, half = self.p, (self.n + 1) // 2
        low, images = p ** half, np.asarray(images, dtype=np.int64)
        multiples = [np.zeros_like(images)]  # d * images for d in F_p
        for _ in range(p - 1):
            multiples.append(self.vadd(multiples[-1], images))
        digits = np.array(multiples).T

        def table(columns):
            t = np.zeros(1, dtype=np.int64)
            for column in columns:  # each digit is more significant than t's
                t = self.vadd(column[:, None], t).ravel()
            return t if p == 2 else self._words[t]

        lows, highs = table(digits[:half]), table(digits[half:])
        if p == 2:
            return lambda u: lows[np.bitwise_and(u, low - 1)] ^ highs[np.right_shift(u, half)]
        return lambda u: self.fold(lows[np.remainder(u, low)]
                                   + highs[np.floor_divide(u, low)]).astype(np.int64)

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

    def words(self, u) -> np.ndarray:
        """Spread word of each element of u (odd p): its base-p digits
        written in base 2p-1, a bit field per chunk of digits, so that two
        words add without carry."""
        return self._words[u]

    def neg_words(self, u) -> np.ndarray:
        """Spread word of the negation of each element of u (odd p)."""
        return self._neg_words[u]

    def fold(self, w) -> np.ndarray:
        """The elements whose base-p digits are those of the sums of two
        spread words w, taken mod p (odd p), in the smallest integer type
        of the fold tables that holds q - 1."""
        if len(self._folds) == 1:
            return self._folds[0][1].take(w)
        return sum(table.take((w >> shift) & self._fold_mask) for shift, table in self._folds)

    def vadd(self, u, v):
        if self.p == 2:
            return np.asarray(u) ^ np.asarray(v)
        return self.fold(self._words[u] + self._words[v]).astype(np.int64)

    def vsub(self, u, v):
        if self.p == 2:
            return np.asarray(u) ^ np.asarray(v)
        return self.fold(self._words[u] + self._neg_words[v]).astype(np.int64)

    def vneg(self, u):
        if self.p == 2:
            return np.asarray(u)
        return self.fold(self._neg_words[u]).astype(np.int64)

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

    def vlog(self, u):
        """Elementwise discrete log of nonzero elements."""
        return self._log[u]

    def shift_perm(self, a: int) -> np.ndarray:
        """Index array of the translation x -> x + a."""
        if a == 0:
            return self._elements
        return self.vadd(self._elements, a)

    def field_sum(self, u) -> np.ndarray:
        """Sum of the elements along the last axis of u, as field elements.
        Digit j of a sum is the sum of floor(u / p^j) mod p, for
        floor(u / p^j) is digit j of u plus p times the digits above it."""
        u = np.asarray(u, dtype=np.int64)
        if self.p == 2:
            return np.bitwise_xor.reduce(u, axis=-1)
        out = 0
        for j in range(self.n):
            out = out + u.sum(axis=-1) % self.p * self.p ** j
            u = u // self.p
        return out

    # -- subfields ---------------------------------------------------------

    def subfield_elements(self, q0: int) -> tuple[int, ...]:
        """Sorted canonical integers of the subfield of order q0."""
        cached = self._subfield_cache.get(q0)
        if cached is not None:
            return cached
        m = self._subfield_degree(q0)
        if m is None:
            raise InvalidParams(f"{q0} is not the order of a subfield of F_{self.p}^{self.n}")
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

# the contexts make_field built, least recently used first
_FIELD_CACHE: dict[tuple, FieldContext] = {}
_FIELD_CACHE_LOCK = threading.Lock()
_FIELD_CACHE_SIZE = 16


@functools.cache
def _default_modulus(p: int, n: int) -> tuple[int, ...]:
    """smallest_irreducible(p, n), searched once per (p, n)."""
    return smallest_irreducible(p, n)


def make_field(p: int, n: int, modulus=None) -> FieldContext:
    """Construct (or fetch from cache) the field F_{p^n}.

    The cache keeps the _FIELD_CACHE_SIZE (16) fields used most recently.

    When no modulus is given, the lexicographically smallest monic
    irreducible of degree n over Z_p is chosen (coefficients compared
    lowest degree first), so construction is reproducible everywhere.
    An explicit modulus is validated for degree, monicity and
    irreducibility.
    """
    if prime_factors(p) != [p]:
        raise InvalidParams(f"{p} is not prime")
    if n < 1:
        raise InvalidParams(f"extension degree must be positive, got {n}")
    if modulus is not None:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != n + 1 or mod[-1] != 1:
            raise InvalidParams(
                f"modulus must be monic of degree {n}, got coefficients {list(modulus)}")
        if not is_irreducible(mod, p):
            raise InvalidParams(f"{list(mod)} is reducible over Z_{p}")
    else:
        mod = _default_modulus(p, n)
    key = (p, n, mod)
    with _FIELD_CACHE_LOCK:
        ctx = _FIELD_CACHE.pop(key, None)
        if ctx is not None:
            _FIELD_CACHE[key] = ctx  # now the most recently used
            return ctx
    ctx = FieldContext(FieldSpec(p, n, mod))
    with _FIELD_CACHE_LOCK:
        ctx = _FIELD_CACHE.setdefault(key, ctx)
        if len(_FIELD_CACHE) > _FIELD_CACHE_SIZE:
            del _FIELD_CACHE[next(iter(_FIELD_CACHE))]
    return ctx


def embed(sub: FieldContext, sup: FieldContext, x: int) -> int:
    """Image of x under the fixed embedding of sub into sup.

    The embedding sends sub's basis generator to the smallest root (in
    canonical integer order) of sub's modulus inside sup, which makes it
    a deterministic field homomorphism.  Every root of that modulus lies
    in sup's subfield of order p^sub.n, so only that subfield is searched.
    """
    if sub.p != sup.p or sup.n % sub.n:
        raise InvalidParams(f"F_{sub.p}^{sub.n} does not embed in F_{sup.p}^{sup.n}")
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


def trace_table(ctx: FieldContext, sub_degree: int, values) -> np.ndarray:
    """The trace onto the subfield of order p^sub_degree of an array of
    elements (or of one element).

    The trace x + x^q0 + ... + x^(q0^(k-1)) is F_p-linear, so it is the
    linear_map with the traces of the basis X^i as its images.
    """
    if sub_degree < 1 or ctx.n % sub_degree:
        raise InvalidParams(f"{sub_degree} does not divide the extension degree {ctx.n}")
    q0 = ctx.p ** sub_degree
    images = cur = ctx.p ** np.arange(ctx.n, dtype=np.int64)
    for _ in range(ctx.n // sub_degree - 1):
        cur = ctx.vpow_const(cur, q0)
        images = ctx.vadd(images, cur)
    return ctx.linear_map(images)(values)


# ---------------------------------------------------------------------------
# element and field-spec I/O
# ---------------------------------------------------------------------------

def parse_element(ctx: FieldContext, text: str) -> int:
    """Parse an element literal: canonical integer or a*g^2+b*g+c form."""
    from ._parse import parse_poly_text

    return parse_poly_text(ctx, text, allow_x=False).get(0, 0)


# each modulus coefficient is an integer, as int() reads it
_COEFF = r"\s*[+-]?\d+\s*"
_FIELD_SPEC_RE = re.compile(rf"^(\d+)\^(\d+)(?:/({_COEFF}(?:,{_COEFF})*))?$")


def split_field_spec(text: str) -> tuple[int, int, list[int] | None]:
    """(p, n, modulus or None) of a spec string, without building the field."""
    m = _FIELD_SPEC_RE.match(text.strip())
    try:
        # int() refuses a number of more digits than sys.get_int_max_str_digits()
        if m:
            modulus = [int(c) for c in m.group(3).split(",")] if m.group(3) else None
            return int(m.group(1)), int(m.group(2)), modulus
    except ValueError:
        pass
    raise InvalidParams(f"bad field spec {quoted(text)}; expected 'p^n' or 'p^n/c0,c1,...,cn'")


def parse_field_spec(text: str) -> FieldContext:
    """Build a field from a spec string like ``3^2`` or ``2^3/1,1,0,1``."""
    return make_field(*split_field_spec(text))


def format_field_spec(ctx: FieldContext) -> str:
    coeffs = ",".join(str(c) for c in ctx.modulus)
    return f"{ctx.p}^{ctx.n}/{coeffs}"
