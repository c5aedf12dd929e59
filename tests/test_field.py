"""Field construction, arithmetic, embeddings, traces."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdu import errors
from cdu import field as field_module
from cdu.field import (
    embed,
    format_field_spec,
    is_irreducible,
    make_field,
    parse_element,
    parse_field_spec,
    relative_trace,
    smallest_irreducible,
    trace_table,
)


def brute_force_irreducible(coeffs, p):
    """Oracle: no monic factor of degree 1..deg/2, by trial division."""
    deg = len(coeffs) - 1

    def poly_mod(a, f):
        a = list(a)
        df = len(f) - 1
        while len(a) - 1 >= df:
            if a[-1] == 0:
                a.pop()
                continue
            coef = a[-1] * pow(f[-1], p - 2, p) % p
            shift = len(a) - 1 - df
            for i, fi in enumerate(f):
                a[shift + i] = (a[shift + i] - coef * fi) % p
            a.pop()
        while a and a[-1] == 0:
            a.pop()
        return a

    for d in range(1, deg // 2 + 1):
        for m in range(p ** d):
            digs = []
            t = m
            for _ in range(d):
                digs.append(t % p)
                t //= p
            f = digs + [1]
            if not poly_mod(list(coeffs), f):
                return False
    return True


def _poly(x, p):
    """Coefficient tuple of a canonical integer, lowest degree first, trimmed."""
    out = []
    while x:
        x, d = divmod(x, p)
        out.append(d)
    return tuple(out)


def _value(poly, p):
    return sum(c * p ** i for i, c in enumerate(poly))


def poly_mul(ctx, a, b):
    """Oracle: a*b by the scalar polynomial product mod the modulus."""
    p = ctx.p
    return _value(field_module._pmulmod(_poly(a, p), _poly(b, p), ctx.modulus, p), p)


def poly_pow(ctx, a, e):
    """Oracle: a^e by scalar square-and-multiply mod the modulus."""
    p = ctx.p
    return _value(field_module._ppowmod(_poly(a, p), e, ctx.modulus, p), p)


# every F_{p^n} with p in {2, 3, 5, 7} and q <= 3^7
SMALL_FIELDS = [(p, n) for p in (2, 3, 5, 7) for n in range(1, 12) if p ** n <= 3 ** 7]


class TestConstruction:
    def test_prime_field_modulus_is_x(self):
        assert make_field(3, 1).modulus == (0, 1)

    def test_f8_explicit_modulus(self):
        # x^3 + x + 1, irreducibility confirmed by the brute-force oracle
        assert brute_force_irreducible((1, 1, 0, 1), 2)
        ctx = make_field(2, 3, [1, 1, 0, 1])
        assert ctx.order == 8

    def test_not_prime(self):
        with pytest.raises(errors.NotPrime):
            make_field(4, 2)

    def test_reducible_modulus(self):
        # x^2 + 1 = (x+1)^2 over F_2
        with pytest.raises(errors.ReducibleModulus):
            make_field(2, 2, [1, 0, 1])

    def test_degree_mismatch(self):
        with pytest.raises(errors.DegreeMismatch):
            make_field(2, 3, [1, 1, 1])
        with pytest.raises(errors.DegreeMismatch):
            make_field(2, 3, [1, 1, 0, 1, 0])

    def test_default_moduli_are_lex_smallest(self):
        # recompute the lex scan independently for a couple of cases
        assert make_field(2, 3).modulus == (1, 0, 1, 1)  # x^3 + x^2 + 1
        assert make_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1
        for p, n in [(2, 4), (3, 3), (5, 2)]:
            mod = smallest_irreducible(p, n)
            assert is_irreducible(mod, p)
            assert brute_force_irreducible(mod, p)
            # nothing lexicographically smaller is irreducible
            for m in range(int("".join(map(str, mod[:-1][::-1])), p) if p < 10 else 0):
                digs = []
                t = m
                for _ in range(n):
                    digs.append(t % p)
                    t //= p
                cand = tuple(reversed(digs)) + (1,)
                if cand == mod:
                    break
                assert not is_irreducible(cand, p)

    def test_contexts_are_cached(self):
        assert make_field(3, 2) is make_field(3, 2)

    def test_warm_call_skips_the_modulus_search(self, monkeypatch):
        ctx = make_field(3, 5)

        def no_search(p, n):
            raise AssertionError("modulus searched again on a warm call")

        monkeypatch.setattr(field_module, "smallest_irreducible", no_search)
        assert make_field(3, 5) is ctx

    def test_modulus_search_skips_multiples_of_x(self, monkeypatch):
        def lex_scan(p, n):
            for m in range(p ** n):
                digs = [m // p ** i % p for i in range(n)]
                cand = tuple(reversed(digs)) + (1,)
                if is_irreducible(cand, p):
                    return cand

        cases = [(2, 6), (2, 10), (3, 4), (3, 5), (5, 3), (7, 2)]
        expected = [lex_scan(p, n) for p, n in cases]

        def no_multiples_of_x(coeffs, p):
            assert coeffs[0] != 0, f"tried {coeffs}, which x divides"
            return is_irreducible(coeffs, p)

        monkeypatch.setattr(field_module, "is_irreducible", no_multiples_of_x)
        assert [smallest_irreducible(p, n) for p, n in cases] == expected

    def test_rabin_matches_bruteforce(self):
        rng = random.Random(0)
        for _ in range(60):
            p = rng.choice([2, 3, 5])
            n = rng.randint(2, 5)
            coeffs = tuple(rng.randrange(p) for _ in range(n)) + (1,)
            assert is_irreducible(coeffs, p) == brute_force_irreducible(coeffs, p)


class TestArithmetic:
    @pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2), (3, 3)])
    def test_field_axioms_exhaustive(self, p, n):
        ctx = make_field(p, n)
        q = ctx.order
        for a in range(q):
            for b in range(q):
                assert ctx.add(a, b) == ctx.add(b, a)
                assert ctx.mul(a, b) == ctx.mul(b, a)
                assert ctx.sub(a, b) == ctx.add(a, ctx.neg(b))
        rng = random.Random(3)
        for _ in range(300):
            a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        for a in range(1, q):
            assert ctx.mul(a, ctx.inv(a)) == 1

    def test_field_axioms_sampled_large(self):
        ctx = make_field(2, 10)  # q = 1024, above the exhaustive cutoff
        rng = random.Random(5)
        for _ in range(500):
            a, b, c = (rng.randrange(1024) for _ in range(3))
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        for a in [1, 2, 17, 1000]:
            assert ctx.mul(a, ctx.inv(a)) == 1

    def test_identity_elements(self):
        ctx = make_field(5, 2)
        assert ctx.coords(0) == (0, 0)
        assert ctx.coords(1) == (1, 0)
        for a in range(25):
            assert ctx.add(a, 0) == a
            assert ctx.mul(a, 1) == a

    @pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (7, 1)])
    def test_direct_and_log_multiplication_agree(self, p, n):
        # the scalar polynomial product, which never reads the log tables,
        # is the oracle
        ctx = make_field(p, n)
        q = ctx.order
        for a in range(q):
            for b in range(q):
                assert ctx.mul(a, b) == poly_mul(ctx, a, b)
        for a in range(1, q):
            assert ctx.inv(a) == poly_pow(ctx, a, q - 2)
            assert ctx.pow(a, 13) == poly_pow(ctx, a, 13)

    @settings(max_examples=4 * len(SMALL_FIELDS), deadline=None)
    @given(st.sampled_from(SMALL_FIELDS))
    def test_log_tables_follow_scalar_powers(self, field):
        ctx = make_field(*field)
        q, g = ctx.order, ctx.generator

        def order(c):
            x, k = c, 1
            while x != 1:
                x, k = poly_mul(ctx, x, c), k + 1
            return k

        assert order(g) == q - 1
        assert all(order(c) < q - 1 for c in range(2, g))
        exp = ctx._exp2[: q - 1]
        assert exp[0] == 1
        for k in range(q - 2):
            assert exp[k + 1] == poly_mul(ctx, int(exp[k]), g)
        assert list(ctx._log[exp]) == list(range(q - 1))

    def test_generator_has_full_order(self):
        for p, n in [(2, 3), (3, 2), (5, 2), (2, 1)]:
            ctx = make_field(p, n)
            g = ctx.generator
            order = 1
            x = ctx.mul(g, 1)
            while x != 1:
                x = ctx.mul(x, g)
                order += 1
            assert order == ctx.order - 1 or ctx.order == 2

    def test_vector_ops_match_scalar(self):
        for p, n in [(2, 3), (3, 2), (5, 2)]:
            ctx = make_field(p, n)
            q = ctx.order
            u = np.arange(q)
            v = (u * 7 + 3) % q
            assert list(ctx.vadd(u, v)) == [ctx.add(int(a), int(b)) for a, b in zip(u, v)]
            assert list(ctx.vsub(u, v)) == [ctx.sub(int(a), int(b)) for a, b in zip(u, v)]
            assert list(ctx.vmul(u, v)) == [ctx.mul(int(a), int(b)) for a, b in zip(u, v)]
            assert list(ctx.vneg(u)) == [ctx.neg(int(a)) for a in u]
            for e in [0, 1, 5, q - 1, 3 * q]:
                assert list(ctx.vpow_const(u, e)) == [ctx.pow(int(a), e) for a in u]
            for c in [0, 1, q - 1]:
                assert list(ctx.vmul_const(c, u)) == [ctx.mul(c, int(a)) for a in u]

    def test_direct_mode_vector_ops(self):
        for p, n in [(3, 2), (2, 4)]:
            ctx = make_field(p, n)
            q = ctx.order
            u = np.arange(q)
            v = (u * 2 + 1) % q
            assert list(ctx.vmul(u, v)) == [poly_mul(ctx, int(a), int(b)) for a, b in zip(u, v)]
            assert list(ctx.vpow_const(u, 7)) == [poly_pow(ctx, int(a), 7) for a in u]


class TestElemPow:
    def test_lagrange(self):
        ctx = make_field(2, 3)
        for g in range(1, 8):
            assert ctx.pow(g, 7) == 1

    def test_frobenius_identity(self):
        ctx = make_field(3, 2)
        for x in range(9):
            assert ctx.pow(x, 3) == ctx.mul(x, ctx.mul(x, x))

    def test_repeated_multiplication_oracle(self):
        # cubing is bijective on F_27 (gcd(3,26)=1), so "non-cube" is vacuous
        # there; a 13th-power non-residue exercises the same oracle
        ctx = make_field(3, 3)
        powers13 = {ctx.pow(x, 13) for x in range(27)}
        witness = next(c for c in range(1, 27) if c not in powers13)
        for x in [witness, ctx.generator, 5]:
            acc = 1
            for _ in range(13):
                acc = ctx.mul(acc, x)
            assert ctx.pow(x, 13) == acc

    def test_zero_conventions(self):
        ctx = make_field(5, 1)
        assert ctx.pow(0, 0) == 1
        assert ctx.pow(0, 7) == 0
        assert ctx.pow(3, 0) == 1

    def test_exponent_reduction(self):
        ctx = make_field(3, 2)
        big = (9 ** 4 - 1) // (9 - 1)
        for x in range(1, 9):
            assert ctx.pow(x, big) == ctx.pow(x, big % 8)


class TestFrobenius:
    @pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (3, 6)])
    def test_additive_and_fixes_prime_subfield(self, p, n):
        ctx = make_field(p, n)
        q = ctx.order

        def frob(x):
            return ctx.pow(x, p)

        rng = random.Random(9)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(200)] \
            if q > 4096 else [(a, b) for a in range(q) for b in range(0, q, max(q // 64, 1))]
        for a, b in pairs:
            assert frob(ctx.add(a, b)) == ctx.add(frob(a), frob(b))
        fixed = [x for x in range(q) if frob(x) == x]
        assert fixed == list(range(p))


class TestEmbed:
    def test_prime_subfield_is_coordinatewise(self):
        F3, F9 = make_field(3, 1), make_field(3, 2)
        assert embed(F3, F9, 2) == 2

    def test_root_found_by_exhaustion(self):
        F4, F16 = make_field(2, 2), make_field(2, 4)
        img = embed(F4, F16, 2)  # 2 encodes the generator of F_4
        # oracle: solve x^2 + x + 1 = 0 in F_16 by exhaustion
        roots = [x for x in range(16)
                 if F16.add(F16.add(F16.mul(x, x), x), 1) == 0]
        assert img in roots
        assert img == min(roots)  # deterministic choice
        # odd p and towers with intermediate subfields: still the least
        # root over the whole bigger field
        def modulus_at(sub, sup, x):
            acc = 0
            for c in reversed(sub.modulus):
                acc = sup.add(sup.mul(acc, x), c)
            return acc

        for (p, m), k in [((3, 2), 6), ((3, 3), 6), ((5, 2), 4), ((2, 3), 6)]:
            sub, sup = make_field(p, m), make_field(p, k)
            roots = [x for x in range(sup.order) if modulus_at(sub, sup, x) == 0]
            assert embed(sub, sup, sub.gen_residue) == min(roots)

    def test_incompatible_tower(self):
        F4, F8 = make_field(2, 2), make_field(2, 3)
        with pytest.raises(errors.IncompatibleTower):
            embed(F4, F8, 2)

    @pytest.mark.parametrize("p,m,k", [(2, 2, 2), (3, 2, 2)])
    def test_homomorphism(self, p, m, k):
        sub = make_field(p, m)
        sup = make_field(p, m * k)
        for a in range(sub.order):
            for b in range(sub.order):
                assert embed(sub, sup, sub.mul(a, b)) == sup.mul(
                    embed(sub, sup, a), embed(sub, sup, b))
                assert embed(sub, sup, sub.add(a, b)) == sup.add(
                    embed(sub, sup, a), embed(sub, sup, b))

    def test_tower_composition(self):
        # F_3 < F_9 < F_81: going up in two hops equals the direct hop
        F3, F9, F81 = make_field(3, 1), make_field(3, 2), make_field(3, 4)
        for x in range(3):
            assert embed(F9, F81, embed(F3, F9, x)) == embed(F3, F81, x)
        F2, F4, F16 = make_field(2, 1), make_field(2, 2), make_field(2, 4)
        for x in range(2):
            assert embed(F4, F16, embed(F2, F4, x)) == embed(F2, F16, x)


class TestRelativeTrace:
    def test_trace_of_one(self):
        F9 = make_field(3, 2)
        assert relative_trace(F9, 1, 1) == 2  # 1 + 1^3 = 2

    def test_kernel_size(self):
        F8 = make_field(2, 3, [1, 1, 0, 1])
        images = [relative_trace(F8, 1, x) for x in range(8)]
        assert images.count(0) == 4 and images.count(1) == 4

    def test_lands_in_subfield(self):
        F64 = make_field(2, 6)
        for y in range(64):
            t = relative_trace(F64, 2, y)
            assert F64.pow(t, 4) == t

    def test_subfield_linearity(self):
        F64 = make_field(2, 6)
        sub = F64.subfield_elements(4)
        rng = random.Random(11)
        for _ in range(200):
            lam = rng.choice(sub)
            x, y = rng.randrange(64), rng.randrange(64)
            lhs = relative_trace(F64, 2, F64.add(F64.mul(lam, x), y))
            rhs = F64.add(F64.mul(lam, relative_trace(F64, 2, x)),
                          relative_trace(F64, 2, y))
            assert lhs == rhs

    def test_bad_degree(self):
        with pytest.raises(errors.BadSubfieldDegree):
            relative_trace(make_field(2, 6), 4, 1)

    def test_vectorized_matches_scalar(self):
        F64 = make_field(2, 6)
        xs = np.arange(64)
        assert list(trace_table(F64, 2, xs)) == [relative_trace(F64, 2, x) for x in range(64)]


class TestElementIO:
    def test_parse_roundtrip(self):
        F9 = make_field(3, 2)
        for x in range(9):
            assert parse_element(F9, str(x)) == x

    def test_symbolic_forms(self):
        F27 = make_field(3, 3)
        g = F27.gen_residue
        assert parse_element(F27, "g") == g
        assert parse_element(F27, "2*g^2+g+1") == F27.add(
            F27.add(F27.mul(2, F27.pow(g, 2)), g), 1)

    def test_out_of_range(self):
        with pytest.raises(errors.CoefficientNotInField):
            parse_element(make_field(3, 1), "3")

    def test_field_spec_strings(self):
        ctx = parse_field_spec("2^3/1,1,0,1")
        assert ctx.modulus == (1, 1, 0, 1)
        assert parse_field_spec("3^2").order == 9
        assert parse_field_spec(format_field_spec(ctx)) is ctx
        with pytest.raises(ValueError):
            parse_field_spec("nine")


class TestSubfields:
    def test_subfield_elements(self):
        F64 = make_field(2, 6)
        sub4 = F64.subfield_elements(4)
        assert len(sub4) == 4 and 0 in sub4 and 1 in sub4
        for x in sub4:
            for y in sub4:
                assert F64.mul(x, y) in sub4
                assert F64.add(x, y) in sub4
        with pytest.raises(errors.BadSubfieldDegree):
            F64.subfield_elements(16)
