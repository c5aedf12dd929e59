"""Builders for PP / PcN / APcN families over extension towers.

All builders share the additive-map skeleton of the AGW criterion: with
q the subfield order, psi(x) = x^q - x maps F_{q^n} onto the trace-zero
F_q-subspace J of size q^(n-1), and functions of the form

    f(x) = h(psi(x)) * phi(x) + T(psi(x))

with T valued in F_q (a relative trace or the (q^n-1)/(q-1) power map)
and phi commuting with psi permute F_{q^n} exactly when ker(phi) meets
F_q trivially and h*phi permutes J.  With h a nonzero constant these
permutations are PcN for every c in F_q \\ {1}; swapping the permutation
hypotheses on phi for 2-to-1 ones (even characteristic, odd n) yields
APcN functions instead.  Every hypothesis is decided by finite
exhaustion, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidParams, PreconditionFailed, quoted
from .field import FieldContext, trace_table
from .funcs import PolyFunc, classify_shape


@dataclass(frozen=True)
class JSubspace:
    """The image set {x^q - x}, as a sorted int64 array of its elements."""

    q: int
    elements: np.ndarray


def psi_table(ctx: FieldContext, q0: int) -> np.ndarray:
    """Value table of psi(x) = x^q0 - x (identical to x^q0 + x for p=2)."""
    xs = ctx.elements()
    return ctx.vsub(ctx.vpow_const(xs, q0), xs)


def subspace_j(ctx: FieldContext, q0: int) -> JSubspace:
    """Materialize J = {x^q0 - x : x in F_{q0^n}}."""
    ctx.subfield_elements(q0)  # refuses a q0 that is no subfield order
    # the values psi takes, sorted; np.unique would import numpy.ma on first use
    elems = np.flatnonzero(np.bincount(psi_table(ctx, q0)))
    assert elems.size == ctx.order // q0
    return JSubspace(q=q0, elements=elems)


@dataclass
class AgwParams:
    """Inputs for the trace/power-form builders.

    ctx is the big field F_{q^n}; q the subfield order; phi an additive
    polynomial over the big field; g arbitrary; h either a polynomial
    whose values on J are nonzero subfield elements or the constant
    b != 0; kind selects the trace form ("f1") or power form ("f2").
    """

    ctx: FieldContext
    q: int
    phi: PolyFunc
    g: PolyFunc
    h: PolyFunc | None = None
    b: int | None = None
    kind: str = "f1"

    def __post_init__(self):
        if (self.h is None) == (self.b is None):
            raise InvalidParams("exactly one of h (polynomial) and b (constant) is required")
        if self.b is not None and not 0 < self.b < self.ctx.order:
            raise InvalidParams(f"constant h must be a nonzero element, got {self.b}")
        if self.kind not in ("f1", "f2"):
            raise InvalidParams(f"kind must be 'f1' or 'f2', got {quoted(self.kind)}")
        if self.ctx._subfield_degree(self.q) is None:
            raise InvalidParams(f"{self.q} is not the order of a subfield of the given field")
        if not classify_shape(self.phi).is_linearized:
            raise InvalidParams("phi must be additive (p-power exponents, no constant term)")

    @property
    def sub_degree(self) -> int:
        return self.ctx._subfield_degree(self.q)

    @property
    def extension_degree(self) -> int:
        return self.ctx.n // self.sub_degree

    def linearity_degree(self) -> int:
        """Largest t such that phi is F_{p^t}-linear.

        For phi = sum a_i x^(p^i), scalars in F_{p^t} commute with every
        term exactly when t divides each exponent index i, so the answer
        is gcd of the indices (and of the ambient degree); a single
        x-term is linear over the whole field.
        """
        ctx = self.ctx
        g = 0
        for e in self.phi.coeffs:
            i = 0
            while ctx.p ** i < e:
                i += 1
            g = math.gcd(g, i)
        return math.gcd(g, ctx.n) if g else ctx.n


@dataclass
class PreconditionItem:
    name: str
    passed: bool
    detail: str


@dataclass
class PreconditionReport:
    """Itemized validation of the hypotheses of one route, the permutation
    route or (two_to_one) the 2-to-1 route, each item decided by exhaustion."""

    items: list[PreconditionItem]
    linearity_degree: int
    two_to_one: bool

    @property
    def ok(self) -> bool:
        return all(it.passed for it in self.items)

    def require(self):
        """Raise PreconditionFailed, naming each failed item, unless every item passed."""
        if failed := [it for it in self.items if not it.passed]:
            raise PreconditionFailed(self, failed)

    def to_dict(self):
        return {"items": [asdict(it) for it in self.items],
                "linearity_degree": self.linearity_degree,
                "two_to_one_ok" if self.two_to_one else "pp_ok": self.ok}


def _tail_value_map(params: AgwParams) -> np.ndarray:
    """Table of the F_q-valued tail T(y) = Tr(g(y)) or g(y)^((q^n-1)/(q-1))."""
    ctx = params.ctx
    gvals = params.g.table
    if params.kind == "f1":
        return trace_table(ctx, params.sub_degree, gvals)
    exp = (ctx.order - 1) // (params.q - 1) if params.q > 1 else 0
    return ctx.vpow_const(gvals, exp)


def validate_preconditions(params: AgwParams, two_to_one: bool = False) -> PreconditionReport:
    """Check the hypotheses of one route by exhaustion over the relevant
    sets: h-image inside F_q*, trivial kernel intersection with F_q (or, on
    the 2-to-1 route, phi 2-to-1 on F_q), phi commuting with psi on the
    whole field, so that psi(f(x)) = h(y)*phi(y) for y = psi(x), and h*phi
    permuting J.  The composite AGW map h(y)*phi(y) + psi(T(y)) is checked
    against J as well.  Additivity of phi needs no item: AgwParams refuses
    any other phi."""
    ctx = params.ctx
    q0 = params.q
    js = subspace_j(ctx, q0).elements
    items = []

    hvals = np.full(js.shape, params.b) if params.h is None else params.h.table[js]
    bad_h = int(np.count_nonzero((hvals == 0) | (ctx.vpow_const(hvals, q0) != hvals)))
    items.append(PreconditionItem(
        "h_image_in_base_units", not bad_h,
        "h(J) lies in the base subfield and avoids 0" if not bad_h
        else f"{bad_h} values of h on J are 0 or outside F_{q0}"))

    phi_table = params.phi.table
    base = np.array(ctx.subfield_elements(q0))
    if two_to_one:
        sizes = sorted(set(np.unique(phi_table[base], return_counts=True)[1].tolist()))
        items.append(PreconditionItem(
            "phi_two_to_one_on_base", sizes == [2],
            f"fiber sizes of phi on F_{q0}: {sizes}"))
    else:
        kernel_in_base = base[phi_table[base] == 0].tolist()
        items.append(PreconditionItem(
            "kernel_meets_base_trivially", kernel_in_base == [0],
            f"ker(phi) meets the base subfield in {kernel_in_base}"))

    psi = psi_table(ctx, q0)
    moved = int(np.count_nonzero(psi[phi_table] != phi_table[psi]))
    items.append(PreconditionItem(
        "phi_commutes_with_psi", not moved,
        f"phi(x^{q0} - x) = phi(x)^{q0} - phi(x) for every x" if not moved
        else f"phi(x^{q0} - x) != phi(x)^{q0} - phi(x) for {moved} of {ctx.order} x"))

    head = ctx.vmul(hvals, phi_table[js])
    permutes = np.array_equal(np.sort(head), js)
    items.append(PreconditionItem(
        "h_phi_permutes_j", permutes,
        "h(y)*phi(y) permutes J" if permutes else "h(y)*phi(y) does not permute J"))

    # composite AGW condition; psi kills the F_q-valued tail, so this
    # must agree with the previous item whenever h_image passed
    tail = _tail_value_map(params)[js]
    comp = ctx.vadd(head, ctx.vsub(ctx.vpow_const(tail, q0), tail))
    comp_ok = np.array_equal(np.sort(comp), js)
    items.append(PreconditionItem(
        "composite_permutes_j", comp_ok,
        "h(y)*phi(y) + psi(T(y)) permutes J" if comp_ok else "composite map does not permute J"))

    return PreconditionReport(items=items, linearity_degree=params.linearity_degree(),
                              two_to_one=two_to_one)


def _compose_table(params: AgwParams) -> np.ndarray:
    ctx = params.ctx
    psi = psi_table(ctx, params.q)
    if params.b is not None:
        head = ctx.vmul_const(params.b, params.phi.table)
    else:
        head = ctx.vmul(params.h.table[psi], params.phi.table)
    tail_map = _tail_value_map(params)
    return ctx.vadd(head, tail_map[psi])


def build_agw_pp(params: AgwParams, validate: bool = True) -> PolyFunc:
    """Build f(x) = h(x^q - x) * phi(x) + T(x^q - x) over F_{q^n}.

    T is the relative trace of g (kind "f1") or g raised to
    (q^n - 1)/(q - 1) (kind "f2").  When validation is requested, the
    permutation hypotheses are checked first and the result is a PP.
    """
    if validate:
        validate_preconditions(params).require()
    return PolyFunc.from_table(params.ctx, _compose_table(params))


def build_apcn_2to1(params: AgwParams, validate: bool = True) -> PolyFunc:
    """Even-characteristic 2-to-1 builder: same skeleton as build_agw_pp
    but with phi 2-to-1 on F_q and permuting J, constant h = b, and odd
    extension degree; the result is 2-to-1 and APcN for c in F_q \\ {1}."""
    ctx = params.ctx
    if ctx.p != 2:
        raise InvalidParams("the 2-to-1 builder needs characteristic 2")
    if params.extension_degree % 2 == 0:
        raise InvalidParams(
            "even extension degree: F_q lies inside J, so no additive phi "
            "is both 2-to-1 on F_q and a permutation of J")
    if params.b is None:
        raise InvalidParams("the 2-to-1 builder takes a constant b, not a polynomial h")
    if not ctx.in_subfield(params.b, params.q):
        raise InvalidParams(f"b={params.b} is not a nonzero element of F_{params.q}")
    if validate:
        validate_preconditions(params, two_to_one=True).require()
    return PolyFunc.from_table(ctx, _compose_table(params))


def build_quad_exponent_pp(ctx: FieldContext, q0: int, phi: PolyFunc, b: int,
                           terms) -> PolyFunc:
    """Build f(x) = b*phi(x) + sum_i (g_i(x^q - x))^{s_i} over F_{q^2}.

    Each exponent s_i must be a sum of two p-powers p^h + p^k with
    1 <= h <= k <= 2m-1 (q = p^m); since y^q = -y on J, such powers of
    J-stable g_i land in F_q and the AGW reduction applies: f is a PP
    iff phi permutes J and ker(phi) meets F_q trivially.  (The kernel
    clause is not redundant: phi(x) = x^q - x permutes J for odd p yet
    annihilates F_q, and the resulting f factors through x^q - x.)
    """
    m = ctx._subfield_degree(q0)
    if m is None:
        raise InvalidParams(f"{q0} is not the order of a subfield of the given field")
    if ctx.n != 2 * m:
        raise InvalidParams("this builder works over the quadratic extension of F_q")
    if not 0 < b < ctx.order or not ctx.in_subfield(b, q0):
        raise InvalidParams(f"b={b} is not a nonzero element of F_{q0}")
    if not classify_shape(phi).is_linearized:
        raise InvalidParams("phi must be additive")
    js = subspace_j(ctx, q0).elements
    p = ctx.p
    for g_i, s_i in terms:
        # each base-p digit position of s_i, once per unit of its digit (none for s_i <= 0)
        digs = [i for i in range(max(s_i, 0).bit_length()) for _ in range(s_i // p ** i % p)]
        if len(digs) != 2:
            raise InvalidParams(f"exponent {s_i} is not a sum of two p-powers")
        lo, hi = digs[0], digs[-1]
        if lo < 1 or hi > 2 * m - 1:
            raise InvalidParams(
                f"exponent {s_i} = {p}^{lo} + {p}^{hi} has an index outside [1, {2*m-1}]")
        if not np.isin(g_i.table[js], js).all():
            raise InvalidParams(f"g = {g_i} does not map J into J")
    psi = psi_table(ctx, q0)
    total = ctx.vmul_const(b, phi.table)
    for g_i, s_i in terms:
        total = ctx.vadd(total, ctx.vpow_const(g_i.table[psi], s_i))
    return PolyFunc.from_table(ctx, total)
