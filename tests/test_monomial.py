"""Power-function exceptionality machinery."""

import math
import random
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cdu import errors
from cdu.cdiff import c_uniformity
from cdu.field import embed, make_field, prime_factors
from cdu.funcs import PolyFunc
from cdu.monomial import (
    exceptionality_sweep,
    fiber_members,
    min_s,
    root_in_fps,
    root_of_unity,
    singular_points,
    value_distribution,
)

F27 = make_field(3, 3)
F25 = make_field(5, 2)


def stepped_min_s(p, d):
    """The order of p modulo d-1, one power of p at a time."""
    m = d - 1
    if m == 1:
        return 1
    s, t = 1, p % m
    while t != 1:
        t = t * p % m
        s += 1
    return s


def full_power_root_in_fps(p, h, d, c):
    """root_in_fps with p^s and (p^s - 1)/(d-1) built in full."""
    base = make_field(p, h)
    ps = p ** stepped_min_s(p, d)
    if base.pow(c, ps) != c:
        return False
    return base.pow(c, (ps - 1) // (d - 1)) == 1 if d > 2 else True


def _admissible(p, bound):
    return [d for d in range(2, bound) if d % p and (d - 1) % p]


class TestMinS:
    def test_examples(self):
        assert min_s(3, 5) == 2  # 4 | 3^2 - 1, 4 does not divide 3 - 1
        assert min_s(5, 3) == 1  # 2 | 4
        assert min_s(3, 2) == 1  # d - 1 = 1

    def test_direct_order_oracle(self):
        rng = random.Random(20)
        found = 0
        while found < 20:
            p = rng.choice([2, 3, 5, 7, 11])
            d = rng.randrange(2, 40)
            if d % p == 0 or (d - 1) % p == 0:
                continue
            s = min_s(p, d)
            m = d - 1
            # the defining divisibility, checked directly
            assert (p ** s - 1) % m == 0
            for t in range(1, s):
                assert (p ** t - 1) % m != 0
            found += 1

    def test_matches_the_stepping_loop(self):
        for p in (3, 5, 7, 11):
            for d in _admissible(p, 400):
                assert min_s(p, d) == stepped_min_s(p, d), (p, d)
        rng = random.Random(21)
        for p in (3, 5, 7):
            for d in rng.sample(_admissible(p, 20_000), 10):
                assert min_s(p, d) == stepped_min_s(p, d), (p, d)

    def test_large_modulus(self):
        # the stepping loop takes minutes here: the order is 10^9 + 6
        m = 1_000_000_007
        s = min_s(5, m + 1)
        assert s == m - 1 and pow(5, s, m) == 1
        assert all(pow(5, s // r, m) != 1 for r in prime_factors(s))

    def test_bad_exponent(self):
        with pytest.raises(errors.InvalidParams, match="need d >= 2 with p not dividing"):
            min_s(3, 6)  # p | d
        with pytest.raises(errors.InvalidParams, match="need d >= 2 with p not dividing"):
            min_s(3, 4)  # p | d - 1
        with pytest.raises(errors.InvalidParams, match="need d >= 2 with p not dividing"):
            min_s(3, 1)


class TestRootInFps:
    def test_outside_subfield(self):
        # c generating F_27 cannot have a 4th root in F_9
        for c in range(3, 27):
            assert not root_in_fps(3, 3, 5, c)

    def test_trivial_root(self):
        assert root_in_fps(3, 2, 5, 1)

    def test_prime_field_residue(self):
        # squares mod 5 are {1, 4}
        assert not root_in_fps(5, 1, 3, 2)
        assert not root_in_fps(5, 1, 3, 3)
        assert root_in_fps(5, 1, 3, 4)
        assert root_in_fps(5, 1, 3, 1)

    def test_exhaustive_root_search_oracle(self):
        f729 = make_field(3, 6)
        f27 = make_field(3, 3)
        sub9 = f729.subfield_elements(9)
        for c in [1, 2, 3, 7, 13, 26]:
            c_big = embed(f27, f729, c)
            oracle = any(f729.pow(c0, 4) == c_big for c0 in sub9)
            assert root_in_fps(3, 3, 5, c) == oracle

    def test_matches_the_full_powers(self):
        # every nonzero c of every F_{p^h} of order at most 343
        for p, h_max in ((3, 5), (5, 3), (7, 3)):
            for d in _admissible(p, 120):
                for h in range(1, h_max + 1):
                    for c in range(1, p ** h):
                        assert root_in_fps(p, h, d, c) == full_power_root_in_fps(p, h, d, c), \
                            (p, h, d, c)

    def test_zero_c(self):
        with pytest.raises(errors.InvalidParams, match="c must be nonzero"):
            root_in_fps(3, 2, 5, 0)


class TestSingularPoints:
    def naive(self, ctx, d, c):
        out = []
        for x0 in range(1, ctx.order):
            for y0 in range(x0 + 1, ctx.order):
                if (ctx.pow(ctx.div(ctx.add(x0, 1), x0), d - 1) == c
                        and ctx.pow(ctx.div(ctx.add(y0, 1), y0), d - 1) == c
                        and ctx.pow(ctx.div(x0, y0), d - 1) == 1):
                    out.append((x0, y0))
        return sorted(out)

    def test_matches_naive_f25(self):
        for d in (3, 4):
            if d % 5 == 0 or (d - 1) % 5 == 0:
                continue
            for c in range(25):
                assert singular_points(F25, d, c) == self.naive(F25, d, c)

    def test_d2_always_empty(self):
        # the ratio equation (x0/y0)^1 = 1 forces x0 = y0
        for c in range(9):
            ctx = make_field(3, 2)
            assert singular_points(ctx, 2, c) == self.naive(ctx, 2, c) == []

    def test_empty_when_no_root(self):
        f729 = make_field(3, 6)
        f27 = make_field(3, 3)
        for c in range(3, 27):
            assert singular_points(f729, 5, embed(f27, f729, c)) == []

    def test_c_one_has_solutions(self):
        f729 = make_field(3, 6)
        pts = singular_points(f729, 5, 1)
        assert pts
        for x0, y0 in pts:
            assert f729.pow(f729.div(f729.add(x0, 1), x0), 4) == 1
            assert f729.pow(f729.div(x0, y0), 4) == 1

    def test_double_degree_field_consistency(self):
        # when c has no (d-1)-th root in F_{p^s}, even the double-degree
        # field F_{p^(2*lcm(h,s))} holds no off-diagonal singular points
        f3_12 = make_field(3, 12)
        f27 = make_field(3, 3)
        for c in range(3, 27):
            assert singular_points(f3_12, 5, embed(f27, f3_12, c)) == []
        f25 = make_field(5, 2)
        f5 = make_field(5, 1)
        for c in (2, 3):  # non-residues mod 5
            assert not root_in_fps(5, 1, 3, c)
            assert singular_points(f25, 3, embed(f5, f25, c)) == []

    def test_small_field_warning(self):
        # F_27 does not contain F_9, where the d=5 solutions live
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            singular_points(F27, 5, 4)
        assert any(issubclass(w.category, errors.FieldTooSmallWarning) for w in caught)


class TestValueDistribution:
    def test_histogram_totals(self):
        for c in [0, 2, 5, 20]:
            vd = value_distribution(F27, 5, c)
            assert sum(size * count for size, count in vd.histogram.items()) == 27

    def test_degree_two_bound(self):
        for c in range(25):
            if c == 1:
                continue
            assert value_distribution(F25, 2, c).max_fiber <= 2

    def test_violations_and_members(self):
        vd = value_distribution(F27, 5, 3)
        assert vd.max_fiber >= 3
        t, size = vd.violations[0]
        members = fiber_members(F27, 5, 3, t)
        assert len(members) == size
        for x in members:
            lhs = F27.sub(F27.pow(F27.add(x, 1), 5), F27.mul(3, F27.pow(x, 5)))
            assert lhs == t

    def test_rejects_c_one(self):
        with pytest.raises(errors.InvalidParams, match="c = 1 degenerates"):
            value_distribution(F27, 5, 1)


class TestRootOfUnity:
    def test_primitive_order(self):
        f9 = make_field(3, 2)
        xi = root_of_unity(f9, 4)
        assert f9.pow(xi, 4) == 1
        assert f9.pow(xi, 2) != 1

    def test_lives_in_fps(self):
        # the (d-1)-th roots of unity lie in F_{p^s} by the choice of s
        # (p = 2 never qualifies: d(d-1) is always even)
        for p, d in [(3, 5), (5, 3), (7, 4)]:
            s = min_s(p, d)
            ctx = make_field(p, s)
            xi = root_of_unity(ctx, d - 1)
            assert ctx.pow(xi, d - 1) == 1

    def test_nonexistent(self):
        with pytest.raises(errors.InvalidParams, match="no primitive 5-th root of unity"):
            root_of_unity(make_field(3, 2), 5)  # 5 does not divide 8


class TestSweep:
    def test_direction_reduction_invariant(self):
        # fibers of (x+a)^d - c x^d match those of (x+1)^d - c x^d for a != 0
        d, c = 5, 7
        base = sorted(value_distribution(F27, d, c).histogram.items())
        for a in [1, 2, 5, 27 - 1]:
            counts = {}
            for x in range(27):
                v = F27.sub(F27.pow(F27.add(x, a), d), F27.mul(c, F27.pow(x, d)))
                counts[v] = counts.get(v, 0) + 1
            hist = {}
            for v in counts.values():
                hist[v] = hist.get(v, 0) + 1
            assert sorted(hist.items()) == base

    def test_fast_path_agrees_with_generic_ddt(self):
        for c in [3, 10, 25]:
            analysis = exceptionality_sweep(3, 3, 5, c, 1)
            generic = c_uniformity(PolyFunc(F27, {5: 1}), c)
            assert analysis.per_extension[0].delta == generic

    def test_structure_of_analysis(self):
        analysis = exceptionality_sweep(3, 3, 5, 3, 2)
        assert analysis.s == 2
        assert not analysis.root_in_fps
        assert [v.r for v in analysis.per_extension] == [1, 2]
        assert analysis.first_violation_r == 1
        v1 = analysis.per_extension[0]
        assert v1.violation_witness is not None
        sols = v1.violation_witness["solutions"]
        assert len(sols) == v1.violation_witness["count"] >= 3
        b = v1.violation_witness["b"]
        for x in sols:
            assert F27.sub(F27.pow(F27.add(x, 1), 5), F27.mul(3, F27.pow(x, 5))) == b
        assert "witness found at r = 1" in analysis.message

    def test_planar_square_stays_apcn(self):
        # d = 2: x^2 is planar and 2-to-1, so the sweep reports APcN at
        # every extension even though the root hypothesis fails
        analysis = exceptionality_sweep(3, 1, 2, 2, 3)
        assert analysis.root_in_fps  # c = 2 = (-1), and -1 is its own 1st root
        for v in analysis.per_extension:
            assert v.is_apcn
        assert analysis.first_violation_r is None
        assert "no violation witness" in analysis.message

    def test_zero_row_violation_witness(self):
        # d with gcd(d, q-1) > 2: the a = 0 row itself certifies failure
        analysis = exceptionality_sweep(5, 1, 3, 2, 2)
        v2 = analysis.per_extension[1]  # over F_25: gcd(3, 24) = 3
        assert v2.gcd_value == 3
        if v2.violation_witness and v2.violation_witness["a"] == 0:
            assert v2.violation_witness["count"] >= 3

    @pytest.mark.parametrize("p,h,d,c,r", [(3, 2, 20, 3, 1), (7, 1, 3, 2, 1), (7, 1, 27, 4, 1),
                                           (5, 2, 9, 6, 1), (5, 2, 18, 5, 1)])
    def test_zero_row_witness_matches_scalar_solutions(self, p, h, d, c, r):
        # every case has gcd(d, q-1) >= 3 and no fiber of size 3 in the a = 1 row
        ctx = make_field(p, h * r)
        assert math.gcd(d, ctx.order - 1) >= 3
        w = exceptionality_sweep(p, h, d, c, r).per_extension[r - 1].violation_witness
        assert w["a"] == 0
        one_minus_c = ctx.sub(1, c)
        scalar = [x for x in range(ctx.order) if ctx.mul(one_minus_c, ctx.pow(x, d)) == one_minus_c]
        assert w["b"] == one_minus_c
        assert w["solutions"] == scalar
        assert all(type(x) is int for x in w["solutions"])
        assert w["count"] == len(scalar) >= 3

    def test_bad_inputs(self):
        with pytest.raises(errors.InvalidParams, match="c must avoid 0 and 1"):
            exceptionality_sweep(3, 3, 5, 1, 2)
        with pytest.raises(errors.InvalidParams, match="c must avoid 0 and 1"):
            exceptionality_sweep(3, 3, 5, 0, 2)
        with pytest.raises(errors.InvalidParams, match="c=27 is not an element of F_27"):
            exceptionality_sweep(3, 3, 5, 27, 2)
        with pytest.raises(errors.InvalidParams, match="need d >= 2"):
            exceptionality_sweep(3, 3, 6, 4, 2)
        for r_max in (0, -1):
            with pytest.raises(errors.InvalidParams, match="r_max must be positive"):
                exceptionality_sweep(3, 3, 5, 4, r_max)

    def test_one_sweep_factors_d_minus_1_once(self, monkeypatch):
        from cdu import monomial

        calls = []

        def counted(p, d):
            calls.append((p, d))
            return min_s(p, d)

        monkeypatch.setattr(monomial, "min_s", counted)
        analysis = exceptionality_sweep(3, 2, 1099511627690, 5, 1)
        assert calls == [(3, 1099511627690)]
        assert analysis.s == min_s(3, 1099511627690)
        assert analysis.root_in_fps == root_in_fps(3, 2, 1099511627690, 5)


# largest extension degree h * r per characteristic, so that q <= 7^3
_MAX_DEGREE = {3: 5, 5: 3, 7: 3}


@st.composite
def sweep_cases(draw):
    p = draw(st.sampled_from(sorted(_MAX_DEGREE)))
    h = draw(st.integers(1, _MAX_DEGREE[p]))
    r = draw(st.integers(1, _MAX_DEGREE[p] // h))
    d = draw(st.integers(2, 60).filter(lambda d: d % p and (d - 1) % p))
    c = draw(st.integers(2, p ** h - 1))
    return p, h, d, c, r


class TestSweepOracle:
    """Every verdict of the sweep against scalar evaluation of the row."""

    @settings(max_examples=60, deadline=None)
    @given(sweep_cases(), st.data())
    def test_verdicts_match_scalar_rows(self, case, data):
        p, h, d, c_base, r_max = case
        base = make_field(p, h)
        analysis = exceptionality_sweep(p, h, d, c_base, r_max)
        assert [v.r for v in analysis.per_extension] == list(range(1, r_max + 1))
        for v in analysis.per_extension:
            ctx = make_field(p, h * v.r)
            q = ctx.order
            c = embed(base, ctx, c_base)
            assert (v.order, v.modulus, v.c) == (q, ctx.modulus, c)
            row = [ctx.sub(ctx.pow(ctx.add(x, 1), d), ctx.mul(c, ctx.pow(x, d)))
                   for x in range(q)]
            counts = Counter(row)
            g = math.gcd(d, q - 1)
            assert (v.gcd_value, v.gcd_ok) == (g, g <= 2)
            delta = c_uniformity(PolyFunc(ctx, {d: 1}), c)
            assert v.delta == delta
            assert (v.is_pcn, v.is_apcn) == (delta == 1, delta == 2)

            many = sorted(t for t, n in counts.items() if n >= 3)
            if many:
                b = many[0]
                sols = [x for x in range(q) if row[x] == b]
                assert v.violation_witness == {"a": 1, "b": b, "count": len(sols),
                                               "solutions": sols}
            elif g >= 3:
                b = ctx.sub(1, c)
                sols = [x for x in range(q)
                        if ctx.sub(ctx.pow(x, d), ctx.mul(c, ctx.pow(x, d))) == b]
                assert v.violation_witness == {"a": 0, "b": b, "count": len(sols),
                                               "solutions": sols}
            else:
                assert v.violation_witness is None
            full = sorted(t for t, n in counts.items() if n == d)
            if full:
                sols = [x for x in range(q) if row[x] == full[0]]
                assert v.split_witness == {"t": full[0], "solutions": sols}
            else:
                assert v.split_witness is None

            vd = value_distribution(ctx, d, c)
            assert vd.histogram == dict(Counter(counts.values()))
            assert vd.max_fiber == max(counts.values())
            assert vd.violations == tuple((t, counts[t]) for t in many)
            assert vd.splits == tuple(full)
            t = data.draw(st.integers(0, q - 1))
            assert fiber_members(ctx, d, c, t) == [x for x in range(q) if row[x] == t]
        first = next((v.r for v in analysis.per_extension if v.violation_witness), None)
        assert analysis.first_violation_r == first
