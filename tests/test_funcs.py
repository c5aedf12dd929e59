"""Polynomial functions: parsing, reduction, shapes, predicates."""

import random

import pytest

from cdu import cdiff, errors
from cdu.field import make_field
from cdu.funcs import (
    PolyFunc,
    classify_shape,
    classify_unreduced,
    is_permutation,
    is_planar,
    is_two_to_one,
    p_weight,
    parse_function,
    reduce_exponent,
)

F8 = make_field(2, 3, [1, 1, 0, 1])
F9 = make_field(3, 2)


class TestParsing:
    def test_monomial(self):
        assert parse_function("x^3", F8).coeffs == {3: 1}

    def test_sum(self):
        assert parse_function("x^2 + x^3", F9).coeffs == {2: 1, 3: 1}

    def test_reduction_mod_xq_minus_x(self):
        f = parse_function("x^10", F9)
        assert f.coeffs == {2: 1}
        # oracle: table equality with x^2 by exhaustive evaluation
        assert list(f.table) == [F9.pow(x, 2) for x in range(9)]

    def test_field_coefficients(self):
        f = parse_function("(g+1)*x^2 + g*x", F9)
        g = F9.gen_residue
        assert f.coeffs == {2: F9.add(g, 1), 1: g}

    def test_minus_and_whitespace(self):
        f = parse_function("  x^2-x ", F9)
        assert f.coeffs == {2: 1, 1: 2}

    def test_coefficient_merging(self):
        assert parse_function("x + x", F9).coeffs == {1: 2}
        assert parse_function("x + x + x", F9).coeffs == {}  # char 3
        assert parse_function("x + 2*x", F9).coeffs == {}  # 1 + 2 = 0 mod 3

    def test_syntax_error_position(self):
        with pytest.raises(errors.ParseError) as exc:
            parse_function("x^(", F9)
        assert exc.value.position == 2

    def test_unknown_symbol(self):
        with pytest.raises(errors.ParseError):
            parse_function("x + y", F9)

    def test_coefficient_not_in_field(self):
        with pytest.raises(errors.CoefficientNotInField):
            parse_function("9*x", F9)

    def test_print_parse_roundtrip(self):
        rng = random.Random(2)
        for _ in range(40):
            coeffs = {rng.randrange(9): rng.randrange(9) for _ in range(4)}
            f = PolyFunc(F9, coeffs)
            assert parse_function(str(f), F9).coeffs == f.coeffs
        assert str(PolyFunc(F9, {})) == "0"
        assert parse_function("0", F9).coeffs == {}


class TestReduction:
    def test_reduce_exponent(self):
        assert reduce_exponent(0, 9) == 0
        assert reduce_exponent(8, 9) == 8
        assert reduce_exponent(9, 9) == 1
        assert reduce_exponent(10, 9) == 2
        assert reduce_exponent(17, 9) == 1

    def test_reduction_preserves_function(self):
        rng = random.Random(4)
        for _ in range(20):
            e = rng.randrange(9, 200)
            f = PolyFunc(F9, {e: 1})
            assert list(f.table) == [F9.pow(x, e) for x in range(9)]


class TestTableAndInterpolation:
    def test_table_matches_evaluate(self):
        f = parse_function("2*x^5 + g*x + 1", F9)
        for x in range(9):
            assert f.evaluate(x) == f(x)

    @pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2)])
    def test_from_table_roundtrip(self, p, n):
        ctx = make_field(p, n)
        rng = random.Random(p * n)
        for _ in range(15):
            coeffs = {rng.randrange(ctx.order): rng.randrange(ctx.order)
                      for _ in range(5)}
            f = PolyFunc(ctx, coeffs)
            g = PolyFunc.from_table(ctx, f.table)
            assert g.coeffs == f.coeffs

    def test_arbitrary_table_interpolates(self):
        rng = random.Random(8)
        table = [rng.randrange(9) for _ in range(9)]
        f = PolyFunc.from_table(F9, table)
        assert [f.evaluate(x) for x in range(9)] == table

    def test_bad_table(self):
        with pytest.raises(errors.InvalidParams):
            PolyFunc.from_table(F9, [0] * 8)
        with pytest.raises(errors.InvalidParams):
            PolyFunc.from_table(F9, [9] * 9)


class TestShapes:
    def test_linearized(self):
        F25 = make_field(5, 2)
        s = classify_shape(parse_function("x^5 + 3*x", F25))
        assert s.is_linearized and s.is_affine and s.is_quadratic and not s.is_do

    def test_mixed_weights(self):
        s = classify_shape(parse_function("x^2 + x^3", F9))
        assert s.is_quadratic and not s.is_do and not s.is_linearized

    def test_do_monomial(self):
        assert classify_shape(parse_function("x^4", F9)).is_do  # 4 = 3 + 1

    def test_p2_weight_rule(self):
        # x^4 = x^(2^2) has base-2 weight 1: linearized, not DO
        s = classify_shape(parse_function("x^4", F8))
        assert s.is_linearized and not s.is_do
        # x^3 = x^(2^0 + 2^1) is the DO shape
        assert classify_shape(parse_function("x^3", F8)).is_do

    def test_affine_vs_linearized(self):
        s = classify_shape(parse_function("x^3 + 1", F9))
        assert s.is_affine and not s.is_linearized

    def test_implications(self):
        rng = random.Random(6)
        for _ in range(60):
            coeffs = {rng.randrange(9): rng.randrange(9) for _ in range(3)}
            s = classify_shape(PolyFunc(F9, coeffs))
            if s.is_linearized:
                assert s.is_affine
            if s.is_affine:
                assert s.is_quadratic
            if s.is_do:
                assert s.is_quadratic

    def test_classify_unreduced(self):
        # x^11 has p-weight 3 over F_9 (11 = 2 + 0*3 + 1*9) but reduces to x^3
        assert not classify_unreduced("x^11", F9).is_quadratic
        assert classify_shape(parse_function("x^11", F9)).is_linearized

    def test_p_weight(self):
        assert p_weight(4, 3) == 2
        assert p_weight(10, 3) == 2
        assert p_weight(11, 3) == 3
        assert p_weight(4, 2) == 1


class TestPredicates:
    def test_monomial_pp_criterion(self):
        assert is_permutation(parse_function("x^3", F8))  # gcd(3,7)=1
        assert not is_permutation(parse_function("x^3", make_field(7, 1)))

    def test_pp_by_image_count_oracle(self):
        f = parse_function("x + x^3", F9)
        image = len({int(v) for v in f.table})
        assert image == 3  # frozen from the exhaustive scan
        assert is_permutation(f) == (image == 9)

    def test_two_to_one(self):
        assert is_two_to_one(parse_function("x^2", make_field(5, 1)))
        assert is_two_to_one(parse_function("x^2 + x", F8))
        assert not is_two_to_one(parse_function("x^3", F8))

    def test_two_to_one_odd_profile(self):
        # exactly one fiber of size 1 is required for odd q
        f = PolyFunc.from_table(make_field(3, 1), [0, 1, 2])  # identity: three size-1 fibers
        assert not is_two_to_one(f)

    def test_planar(self):
        assert is_planar(parse_function("x^2", make_field(7, 1)))
        assert is_planar(parse_function("x^2 + x^3", F9))
        # derivative-by-derivative oracle for the negative case
        f = parse_function("x^3", F9)
        assert not is_planar(f)
        bad = []
        for a in range(1, 9):
            vals = {F9.sub(f(F9.add(x, a)), f(x)) for x in range(9)}
            if len(vals) != 9:
                bad.append(a)
        assert bad  # some derivative really is non-bijective

    def test_planar_never_in_char2(self):
        assert not is_planar(parse_function("x^3", F8))

    def test_do_is_even(self):
        rng = random.Random(10)
        F27 = make_field(3, 3)
        do_exps = [2, 4, 6, 10, 12, 18]
        for _ in range(20):
            coeffs = {e: rng.randrange(27) for e in rng.sample(do_exps, 3)}
            f = PolyFunc(F27, coeffs)
            assert classify_shape(f).is_do or not any(coeffs.values())
            for x in range(27):
                assert f(x) == f(F27.neg(x))

    @pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2)])
    def test_do_monomials_planar_iff_two_to_one(self, p, n):
        ctx = make_field(p, n)
        exps = sorted({p ** i + p ** j for i in range(n) for j in range(i, n)})
        for e in exps:
            for coeff in range(1, ctx.order):
                f = PolyFunc(ctx, {e: coeff})
                assert is_planar(f) == is_two_to_one(f)

    def test_planar_iff_c1_uniformity_one(self):
        rng = random.Random(12)
        for _ in range(25):
            coeffs = {rng.randrange(9): rng.randrange(9) for _ in range(3)}
            f = PolyFunc(F9, coeffs)
            assert is_planar(f) == (cdiff.c_uniformity(f, 1) == 1)


class TestConcurrency:
    def test_lazy_table_is_shared_and_immutable(self):
        f = parse_function("x^3 + x", F9)
        t1 = f.table
        t2 = f.table
        assert t1 is t2
        with pytest.raises(ValueError):
            t1[0] = 5

    def test_concurrent_first_access(self):
        import threading
        f = parse_function("x^5 + 2*x^2", F9)
        results = []

        def grab():
            results.append(f.table)

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r is results[0] for r in results)
