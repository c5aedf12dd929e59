"""Functions F_q -> F_q as reduced polynomials with cached value tables.

A PolyFunc stores a sparse coefficient dict reduced modulo x^q - x and a
lazily built length-q value table; either side can be reconstructed from
the other (tables by evaluation, coefficients by interpolation), so
functions may equally be built from explicit coefficients, parsed text,
or a raw value table.  All structural predicates (permutation, 2-to-1,
planar) run on the table, never by symbolic shortcuts.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from ._parse import parse_poly_text
from .errors import InvalidParams
from .field import FieldContext


def reduce_exponent(e: int, q: int) -> int:
    """Reduce an exponent modulo x^q = x (0 stays 0)."""
    if e < q:
        return e
    return 1 + (e - 1) % (q - 1)


def p_weight(e: int, p: int) -> int:
    """Sum of the base-p digits of e."""
    w = 0
    while e:
        w += e % p
        e //= p
    return w


@dataclass(frozen=True)
class ShapeFlags:
    """Structural classification of a reduced polynomial."""

    is_linearized: bool
    is_affine: bool
    is_do: bool
    is_quadratic: bool


class PolyFunc:
    """A function F_q -> F_q.

    Immutable once the value table is built; first access to the lazy
    side (table or coefficients) is lock-protected so sharing across
    threads is safe.
    """

    def __init__(self, ctx: FieldContext, coeffs=None, *, table=None):
        if coeffs is None and table is None:
            coeffs = {}
        self.ctx = ctx
        self._lock = threading.Lock()
        if coeffs is not None:
            self._coeffs = self._reduce(coeffs)
        else:
            self._coeffs = None
        if table is not None:
            arr = np.asarray(table, dtype=np.int64)
            if arr.shape != (ctx.order,):
                raise InvalidParams(
                    f"value table must have length {ctx.order}, got shape {arr.shape}")
            if arr.size and (arr.min() < 0 or arr.max() >= ctx.order):
                raise InvalidParams("table values outside the field")
            arr.setflags(write=False)
            self._table = arr
        else:
            self._table = None

    @classmethod
    def from_table(cls, ctx: FieldContext, values) -> "PolyFunc":
        return cls(ctx, None, table=values)

    def _reduce(self, coeffs) -> dict[int, int]:
        ctx = self.ctx
        q = ctx.order
        if not isinstance(coeffs, dict):
            coeffs = {e: c for e, c in enumerate(coeffs)}
        out: dict[int, int] = {}
        for e, c in coeffs.items():
            if e < 0:
                raise InvalidParams(f"negative exponent {e}")
            c = int(c)
            if c < 0 or c >= q:
                raise InvalidParams(f"coefficient {c} outside the field")
            if c == 0:
                continue
            r = reduce_exponent(int(e), q)
            merged = ctx.add(out.get(r, 0), c)
            if merged:
                out[r] = merged
            else:
                out.pop(r, None)
        return out

    # -- lazy sides --------------------------------------------------------

    @property
    def coeffs(self) -> dict[int, int]:
        if self._coeffs is None:
            with self._lock:
                if self._coeffs is None:
                    self._coeffs = _interpolate(self.ctx, self._table)
        return self._coeffs

    @property
    def table(self) -> np.ndarray:
        if self._table is None:
            with self._lock:
                if self._table is None:
                    arr = self._evaluate_all()
                    arr.setflags(write=False)
                    self._table = arr
        return self._table

    def _evaluate_all(self) -> np.ndarray:
        ctx = self.ctx
        xs = ctx.elements()
        vals = np.zeros(ctx.order, dtype=np.int64)
        for e, c in sorted(self._coeffs.items()):
            if e == 0:
                term = np.full(ctx.order, c, dtype=np.int64)
            else:
                term = ctx.vmul_const(c, ctx.vpow_const(xs, e))
            vals = ctx.vadd(vals, term)
        return np.asarray(vals, dtype=np.int64)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x: int) -> int:
        """Direct evaluation from coefficients (independent of the table)."""
        ctx = self.ctx
        acc = 0
        for e, c in self.coeffs.items():
            acc = ctx.add(acc, ctx.mul(c, ctx.pow(x, e)))
        return acc

    def __call__(self, x: int) -> int:
        return int(self.table[x])

    # -- niceties ------------------------------------------------------------

    @property
    def degree(self) -> int:
        return max(self.coeffs, default=-1)

    @functools.cached_property
    def frobenius_degree(self) -> int:
        """The smallest k with every coefficient in F_{p^k}, so that
        f(x)^(p^k) = f(x^(p^k))."""
        ctx = self.ctx
        return next(k for k in range(1, ctx.n + 1)
                    if ctx.n % k == 0 and all(ctx.in_subfield(v, ctx.p ** k)
                                              for v in self.coeffs.values()))

    @functools.cached_property
    def scaling_order(self) -> int:
        """m = gcd(q-1, d_i - d_j over the exponents d_i), so that
        f(lambda*x) = lambda^d * f(x) for every lambda with lambda^m = 1,
        d being any exponent."""
        exponents = list(self.coeffs) or [0]
        return math.gcd(self.ctx.order - 1, *(e - exponents[0] for e in exponents[1:]))

    @functools.cached_property
    def semilinear_twist(self) -> tuple[int, int]:
        """(i, s): i is the smallest i >= 1 with some lambda = g^s and
        mu != 0 such that f(lambda * x^(p^i)) = mu * f(x)^(p^i), and s is
        one such exponent, taken modulo (q-1)/scaling_order.

        Comparing the coefficients of x^(d*p^i) on both sides, this holds
        iff s*(d - d0) = (p^i - 1)*(log alpha_d - log alpha_d0) mod q-1 for
        every term alpha_d*x^d.  The valid i form the multiples of one
        divisor of n, since i = n always holds with s = 0; i divides
        frobenius_degree, where s = 0.
        """
        ctx = self.ctx
        qm1 = ctx.order - 1
        (d0, a0), *rest = sorted(self.coeffs.items()) or [(0, 1)]
        diffs = [d - d0 for d, _ in rest]
        logs = [ctx.log(a) - ctx.log(a0) for _, a in rest]
        for i in range(1, ctx.n + 1):
            if ctx.n % i == 0:
                s = _solve_congruences(diffs, [(ctx.p ** i - 1) * e for e in logs], qm1)
                if s is not None:
                    return i, s % (qm1 // self.scaling_order)
        raise AssertionError("i = n always holds (unreachable)")

    def __eq__(self, other):
        if not isinstance(other, PolyFunc):
            return NotImplemented
        return self.ctx.spec == other.ctx.spec and bool(
            np.array_equal(self.table, other.table))

    def __str__(self):
        terms = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                terms.append(str(c))
            elif e == 1:
                terms.append("x" if c == 1 else f"{c}*x")
            else:
                terms.append(f"x^{e}" if c == 1 else f"{c}*x^{e}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"PolyFunc({self.ctx.p}^{self.ctx.n}, {self!s})"


def _solve_congruences(coeffs, rhs, modulus: int) -> int | None:
    """One s with s*a = b (mod modulus) for every pair (a, b), or None."""
    s, step = 0, 1  # the solutions so far are s + step*Z
    for a, b in zip(coeffs, rhs):
        # (s + step*u)*a = b  <=>  u*(step*a) = b - s*a
        a_step, b_rest = step * a % modulus, (b - s * a) % modulus
        g = math.gcd(a_step, modulus)
        if b_rest % g:
            return None
        u = b_rest // g * pow(a_step // g, -1, modulus // g)
        s, step = (s + step * u) % modulus, math.gcd(step * (modulus // g), modulus)
    return s


def _interpolate(ctx: FieldContext, values: np.ndarray) -> dict[int, int]:
    """Coefficients of the unique reduced polynomial with the given table.

    Uses c_0 = f(0), c_{q-1} = -sum_b f(b), and for 1 <= k <= q-2
    c_k = -sum_{b != 0} f(b) * b^(q-1-k).
    """
    q = ctx.order
    out: dict[int, int] = {}
    c0 = int(values[0])
    if c0:
        out[0] = c0
    top = ctx.neg(ctx.field_sum(values))
    if top and q > 1:
        out[q - 1] = top
    if q > 2:
        nz = ctx.elements()[1:]
        fb = values[1:]
        binv = ctx.vpow_const(nz, q - 2)
        pw = binv.copy()  # b^(q-1-k) starting at k = 1
        for k in range(1, q - 1):
            ck = ctx.neg(ctx.field_sum(ctx.vmul(fb, pw)))
            if ck:
                out[k] = ck
            if k < q - 2:
                pw = ctx.vmul(pw, binv)
    return out


def parse_function(text: str, ctx: FieldContext) -> PolyFunc:
    """Parse polynomial text like ``x^3 + 2*x`` or ``(g+1)*x^2``."""
    return PolyFunc(ctx, parse_poly_text(ctx, text, allow_x=True))


def _shape_from_exponents(exponents, p: int) -> ShapeFlags:
    weights = {p_weight(e, p) for e in exponents if e > 0}
    has_const = any(e == 0 for e in exponents)
    is_linearized = weights <= {1} and not has_const
    is_affine = weights <= {1}
    is_do = weights <= {2} and not has_const
    is_quadratic = all(w <= 2 for w in weights)
    return ShapeFlags(is_linearized, is_affine, is_do, is_quadratic)


def classify_shape(f: PolyFunc) -> ShapeFlags:
    """Shape flags of the reduced polynomial, from exponent p-weights.

    Weight-1 exponents only: linearized (affine if a constant is
    allowed); weight-2 only: Dembowski-Ostrom; everything of weight at
    most 2: quadratic.  For p = 2 an exponent 2^(i+1) = 2^i + 2^i has
    base-2 weight 1, so the i < j restriction on DO terms is automatic.
    """
    return _shape_from_exponents(f.coeffs.keys(), f.ctx.p)


def classify_unreduced(text: str, ctx: FieldContext) -> ShapeFlags:
    """Shape flags computed from the raw exponents of the text form.

    Reduction mod x^q - x can change the shape (e.g. x^11 over F_9
    reduces to x^3), so callers wanting the written shape use this.
    """
    raw = parse_poly_text(ctx, text, allow_x=True)
    return _shape_from_exponents(raw.keys(), ctx.p)


def is_permutation(f: PolyFunc) -> bool:
    """True iff the value table hits every field element exactly once."""
    q = f.ctx.order
    return bool((np.bincount(f.table, minlength=q) == 1).all())


def is_two_to_one(f: PolyFunc) -> bool:
    """Fiber profile test: even q — all fibers of size 0 or 2; odd q —
    exactly one fiber of size 1, all others of size 0 or 2."""
    q = f.ctx.order
    counts = np.bincount(f.table, minlength=q)
    if q % 2 == 0:
        return bool(np.isin(counts, (0, 2)).all())
    ones = int((counts == 1).sum())
    rest_ok = bool(np.isin(counts[counts != 1], (0, 2)).all())
    return ones == 1 and rest_ok


def is_planar(f: PolyFunc) -> bool:
    """True iff x -> f(x+a) - f(x) is a bijection for every a != 0."""
    from .cdiff import _row_block_counts  # cdiff imports this module

    q = f.ctx.order
    return all(int(block.max()) <= 1 for block in _row_block_counts(f, 1, range(1, q)))
