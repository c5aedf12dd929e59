"""Reference arithmetic for F_{p^n}, written independently of cdu.field.

A field is built only from its characteristic p and the monic modulus
printed in a report.  Elements use the same encoding cdu documents: the
canonical integer sum(coords[i] * p**i) of the polynomial-basis
coordinates.  Scalar arithmetic (add, mul, pow, the irreducibility test)
is plain Python on digit lists.  For the brute-force counts the
exponential, logarithm and Zech-logarithm tables are filled element by
element with that scalar arithmetic; numpy only gathers from those tables
and counts, so no result depends on how cdu computes.
"""

from __future__ import annotations

import re

import numpy as np

# fields above this order get no tables: only scalar checks run on them
TABLE_LIMIT = 1 << 16
# elements gathered per block in the brute-force counts
_BLOCK_ELEMS = 1 << 20


def prime_divisors(m: int) -> list[int]:
    out, f = [], 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out.append(m)
    return out


# -- polynomials over Z_p as coefficient lists, lowest degree first -----------

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a: list[int], f: list[int], p: int) -> list[int]:
    a = _trim([x % p for x in a])
    inv_lead = pow(f[-1], p - 2, p)
    while len(a) >= len(f):
        coef = a[-1] * inv_lead % p
        shift = len(a) - len(f)
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - coef * fi) % p
        _trim(a)
    return a


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


class RefField:
    """F_{p^n} = Z_p[g]/(modulus) with canonical-integer elements."""

    def __init__(self, p: int, modulus):
        self.p = p
        self.modulus = [int(c) for c in modulus]
        self.n = len(self.modulus) - 1
        self.q = p ** self.n
        self._tables = None
        self._shift = None

    # -- scalar arithmetic ---------------------------------------------------

    def digits(self, x: int) -> list[int]:
        out = []
        for _ in range(self.n):
            x, r = divmod(x, self.p)
            out.append(r)
        return out

    def value(self, digs) -> int:
        out = 0
        for d in reversed(digs):
            out = out * self.p + d % self.p
        return out

    def add(self, a: int, b: int) -> int:
        p = self.p
        return self.value([(x + y) % p for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a: int) -> int:
        return self.value([-x % self.p for x in self.digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        p, n = self.p, self.n
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        return self.value(_poly_mod(prod, self.modulus, p))

    def pow(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def is_monic_irreducible(self) -> bool:
        """Rabin's test: x^(p^n) = x mod f, and gcd(x^(p^(n/r)) - x, f) = 1
        for every prime r dividing n."""
        f, p, n = self.modulus, self.p, self.n
        if n < 1 or f[-1] != 1 or any(not 0 <= c < p for c in f):
            return False
        if n == 1:
            return True
        x = p  # the residue of the indeterminate
        frob = {0: x}
        cur = x
        for k in range(1, n + 1):
            cur = self.pow(cur, p)
            frob[k] = cur
        if frob[n] != x:
            return False
        for r in prime_divisors(n):
            diff = self.digits(self.sub(frob[n // r], x))
            if len(_poly_gcd(f, diff, p)) != 1:
                return False
        return True

    # -- tables --------------------------------------------------------------

    def tables(self):
        """(exp, log, zech) as numpy arrays; zech[k] = log(1 + g^k), or -1
        where 1 + g^k = 0."""
        if self._tables is None:
            q = self.q
            if q > TABLE_LIMIT:
                raise ValueError(f"no reference tables above order {TABLE_LIMIT}")
            factors = prime_divisors(q - 1)
            gen = 1
            if q > 2:
                gen = next(g for g in range(2, q)
                           if all(self.pow(g, (q - 1) // r) != 1 for r in factors))
            exp = [1]
            for _ in range(q - 2):
                exp.append(self.mul(exp[-1], gen))
            log = [0] * q
            for k, v in enumerate(exp):
                log[v] = k
            zech = []
            for v in exp:
                s = self.add(v, 1)
                zech.append(log[s] if s else -1)
            self._tables = (np.array(exp, dtype=np.int64), np.array(log, dtype=np.int64),
                            np.array(zech, dtype=np.int64))
        return self._tables

    # -- vector operations (gathers from the tables) -------------------------

    def elements(self) -> np.ndarray:
        return np.arange(self.q, dtype=np.int64)

    def vadd(self, u, v):
        u, v = np.broadcast_arrays(np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64))
        if self.p == 2:
            return u ^ v
        exp, log, zech = self.tables()
        m = self.q - 1
        lu = log[u]
        z = zech[(log[v] - lu) % m]
        out = np.where(z < 0, 0, exp[(lu + z) % m])
        return np.where(u == 0, v, np.where(v == 0, u, out))

    def vneg(self, u):
        u = np.asarray(u, dtype=np.int64)
        if self.p == 2:
            return u
        exp, log, _ = self.tables()
        m = self.q - 1
        return np.where(u == 0, 0, exp[(log[u] + m // 2) % m])

    def vsub(self, u, v):
        return self.vadd(u, self.vneg(v))

    def vmul_const(self, c: int, u):
        u = np.asarray(u, dtype=np.int64)
        if c == 0:
            return np.zeros_like(u)
        exp, log, _ = self.tables()
        return np.where(u == 0, 0, exp[(log[c] + log[u]) % (self.q - 1)])

    def vpow(self, u, e: int):
        u = np.asarray(u, dtype=np.int64)
        if e == 0:
            return np.ones_like(u)
        exp, log, _ = self.tables()
        return np.where(u == 0, 0, exp[(log[u] * e) % (self.q - 1)])

    def subfield(self, degree: int) -> list[int]:
        """Sorted elements x with x^(p^degree) = x."""
        xs = self.elements()
        return [int(x) for x in xs[self.vpow(xs, self.p ** degree) == xs]]

    # -- counting ------------------------------------------------------------

    def _shift_rows(self, dirs: np.ndarray) -> np.ndarray:
        """rows[i, x] = x + dirs[i]."""
        xs = self.elements()
        if self.p == 2:
            return dirs[:, None] ^ xs[None, :]
        if self._shift is None:
            q = self.q
            self._shift = np.empty((q, q), dtype=np.int32)
            block = max(1, _BLOCK_ELEMS // q)
            for lo in range(0, q, block):
                self._shift[lo:lo + block] = self.vadd(xs[None, :], xs[lo:lo + block, None])
        return self._shift[dirs]

    def row_counts(self, table, c: int, dirs) -> np.ndarray:
        """counts[i, b] = #{x : f(x + dirs[i]) - c*f(x) = b}."""
        q = self.q
        table = np.asarray(table, dtype=np.int64)
        neg_cf = self.vneg(self.vmul_const(c, table))
        dirs = np.asarray(dirs, dtype=np.int64)
        out = np.empty((len(dirs), q), dtype=np.int64)
        block = max(1, _BLOCK_ELEMS // q)
        for lo in range(0, len(dirs), block):
            d = dirs[lo:lo + block]
            vals = self.vadd(table[self._shift_rows(d)], neg_cf[None, :])
            offs = (np.arange(len(d), dtype=np.int64) * q)[:, None]
            out[lo:lo + len(d)] = np.bincount((vals + offs).ravel(),
                                              minlength=len(d) * q).reshape(len(d), q)
        return out

    def delta(self, table, c: int) -> int:
        """c-differential uniformity by brute force over every (a, b); the
        a = 0 row is skipped when c = 1."""
        q = self.q
        best = 0
        block = max(1, _BLOCK_ELEMS // q)
        first = 1 if c == 1 else 0
        for lo in range(first, q, block):
            dirs = np.arange(lo, min(lo + block, q), dtype=np.int64)
            best = max(best, int(self.row_counts(table, c, dirs).max()))
        return best


def max_fiber(values, q: int) -> int:
    return int(np.bincount(np.asarray(values, dtype=np.int64), minlength=q).max())


# -- field specs and printed polynomials -----------------------------------------

_SPEC = re.compile(r"^(\d+)\^(\d+)/([\d,]+)$")
_TERM = re.compile(r"^(?:(\d+)\*)?x(?:\^(\d+))?$|^(\d+)$")


def parse_field(spec: str) -> RefField:
    """Field from a printed spec 'p^n/c0,...,cn'."""
    m = _SPEC.match(spec)
    if not m:
        raise ValueError(f"bad field spec {spec!r}")
    p, n = int(m.group(1)), int(m.group(2))
    modulus = [int(c) for c in m.group(3).split(",")]
    if len(modulus) != n + 1:
        raise ValueError(f"modulus of {spec!r} does not have degree {n}")
    return RefField(p, modulus)


def parse_poly(text: str) -> dict[int, int]:
    """Terms of a printed polynomial such as '2*x^5 + x^3 + x + 7', as
    {exponent: coefficient}; coefficients are canonical integers."""
    out: dict[int, int] = {}
    for part in text.split(" + "):
        m = _TERM.match(part.strip())
        if not m:
            raise ValueError(f"cannot read term {part!r} of {text!r}")
        if m.group(3) is not None:
            e, c = 0, int(m.group(3))
        else:
            c = int(m.group(1)) if m.group(1) else 1
            e = int(m.group(2)) if m.group(2) else 1
        if e in out:
            raise ValueError(f"exponent {e} repeats in {text!r}")
        out[e] = c
    return out


def evaluate(field: RefField, terms: dict[int, int]) -> np.ndarray:
    """Value table of sum c * x^e over every element, with x^q = x."""
    q = field.q
    xs = field.elements()
    total = np.zeros(q, dtype=np.int64)
    for e, c in terms.items():
        if e >= q:
            e = 1 + (e - 1) % (q - 1)
        term = np.full(q, c, dtype=np.int64) if e == 0 else field.vmul_const(c, field.vpow(xs, e))
        total = field.vadd(total, term)
    return total
