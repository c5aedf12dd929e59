"""AGW-based builders: J subspace, preconditions, PP/APcN outputs."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from cdu import errors
from cdu.cdiff import c_uniformity
from cdu.construct import (
    AgwParams,
    build_agw_pp,
    build_apcn_2to1,
    build_quad_exponent_pp,
    subspace_j,
    validate_preconditions,
)
from cdu.field import make_field, trace_table
from cdu.funcs import PolyFunc, is_permutation, is_two_to_one, parse_function

F9 = make_field(3, 2)
F25 = make_field(5, 2)
F27 = make_field(3, 3)
F32 = make_field(2, 5)
F64 = make_field(2, 6)
F81 = make_field(3, 4)

# the items of the permutation route and of the 2-to-1 route, in order
PP_ROUTE = ["h_image_in_base_units", "kernel_meets_base_trivially",
            "phi_commutes_with_psi", "h_phi_permutes_j", "composite_permutes_j"]
TWO_TO_ONE_ROUTE = ["h_image_in_base_units", "phi_two_to_one_on_base",
                    "phi_commutes_with_psi", "h_phi_permutes_j", "composite_permutes_j"]


class TestJSubspace:
    def test_f9_is_trace_kernel(self):
        j = subspace_j(F9, 3)
        kernel = tuple(x for x in range(9) if trace_table(F9, 1, x) == 0)
        assert j.elements == kernel
        assert len(j.elements) == 3

    def test_size_formula(self):
        assert len(subspace_j(F64, 4).elements) == 16  # q^(n-1), q=4, n=3
        assert len(subspace_j(F27, 3).elements) == 9
        assert subspace_j(F9, 9).elements == (0,)

    def test_bad_subfield(self):
        with pytest.raises(errors.InvalidParams, match="9 is not the order of a subfield"):
            subspace_j(F27, 9)

    def test_closed_under_addition_and_base_scaling(self):
        for ctx, q0 in [(F9, 3), (F25, 5), (F64, 4)]:
            j = subspace_j(ctx, q0)
            js = j.as_set
            for y in j.elements:
                for z in j.elements:
                    assert ctx.add(y, z) in js
            for lam in ctx.subfield_elements(q0):
                if lam:
                    assert sorted(ctx.mul(lam, y) for y in j.elements) == list(j.elements)

    def test_annihilation_identities(self):
        # x^q - x kills both the relative trace and the power map values
        for ctx, q0, m in [(F9, 3, 1), (F64, 4, 2)]:
            exp = (ctx.order - 1) // (q0 - 1)
            for y in range(ctx.order):
                t = int(trace_table(ctx, m, y))
                assert ctx.sub(ctx.pow(t, q0), t) == 0
                v = ctx.pow(y, exp)
                assert ctx.sub(ctx.pow(v, q0), v) == 0


class TestAgwParams:
    def test_requires_exactly_one_of_h_b(self):
        phi = parse_function("x", F9)
        g = parse_function("x", F9)
        with pytest.raises(errors.InvalidParams):
            AgwParams(ctx=F9, q=3, phi=phi, g=g)
        with pytest.raises(errors.InvalidParams):
            AgwParams(ctx=F9, q=3, phi=phi, g=g, h=g, b=1)

    def test_rejects_zero_b(self):
        phi = parse_function("x", F9)
        with pytest.raises(errors.InvalidParams, match="constant h must be a nonzero element"):
            AgwParams(ctx=F9, q=3, phi=phi, g=phi, b=0)

    def test_rejects_non_additive_phi(self):
        with pytest.raises(errors.InvalidParams):
            AgwParams(ctx=F9, q=3, phi=parse_function("x^2", F9),
                      g=parse_function("x", F9), b=1)

    def test_linearity_degree(self):
        # x is linear over the whole field; x^2+x only over F_2
        p1 = AgwParams(ctx=F64, q=4, phi=parse_function("x", F64),
                       g=parse_function("x", F64), b=1)
        assert p1.linearity_degree() == 6
        p2 = AgwParams(ctx=F64, q=4, phi=parse_function("x^2 + x", F64),
                       g=parse_function("x", F64), b=1)
        assert p2.linearity_degree() == 1
        p3 = AgwParams(ctx=F64, q=4, phi=parse_function("x^4 + x", F64),
                       g=parse_function("x", F64), b=1)
        assert p3.linearity_degree() == 2


def _passed(report) -> dict:
    """Each item's name, and whether it passed."""
    return {it.name: it.passed for it in report.items}


class TestValidatePreconditions:
    def test_simple_pass(self):
        params = AgwParams(ctx=F9, q=3, phi=parse_function("x", F9),
                           g=parse_function("x^2", F9), b=1)
        rep = validate_preconditions(params)
        assert rep.ok
        assert _passed(rep) == dict.fromkeys(PP_ROUTE, True)

    def test_h_zero_fails_image_check(self):
        params = AgwParams(ctx=F9, q=3, phi=parse_function("x", F9),
                           g=parse_function("x^2", F9), h=PolyFunc(F9, {}))
        rep = validate_preconditions(params)
        assert not _passed(rep)["h_image_in_base_units"]
        assert not rep.ok

    def test_kernel_detection(self):
        # phi = x^2 + x on F_4-in-F_64 has kernel F_2 (2-to-1, not injective)
        params = AgwParams(ctx=F64, q=4, phi=parse_function("x^2 + x", F64),
                           g=parse_function("x", F64), b=1)
        assert _passed(validate_preconditions(params)) == {
            **dict.fromkeys(PP_ROUTE, True), "kernel_meets_base_trivially": False}
        rep = validate_preconditions(params, two_to_one=True)
        assert _passed(rep) == dict.fromkeys(TWO_TO_ONE_ROUTE, True)
        assert rep.ok

    def test_report_serializes(self):
        params = AgwParams(ctx=F64, q=4, phi=parse_function("x^2 + x", F64),
                           g=parse_function("x", F64), b=1)
        # phi = x^2 + x fails the permutation route and passes the 2-to-1 one
        for two_to_one, key, ok in [(False, "pp_ok", False), (True, "two_to_one_ok", True)]:
            d = validate_preconditions(params, two_to_one).to_dict()
            assert set(d) == {"items", "linearity_degree", key} and d[key] is ok


# (field, order of a proper subfield) of each configuration agw_cases draws,
# and those the 2-to-1 builder takes: characteristic 2, odd extension degree
AGW_CONFIGS = [(F9, 3), (F25, 5), (F27, 3), (F32, 2), (F64, 2), (F64, 4), (F64, 8),
               (F81, 3), (F81, 9)]
APCN_CONFIGS = [(F32, 2), (F64, 4)]


@st.composite
def agw_cases(draw):
    """AgwParams and a route (two_to_one).  The nonzero coefficients of phi
    and the constant b come from F_q or the whole field, so that both
    verdicts come up, and the 2-to-1 route draws half of its fields from
    those its builder takes.  On the permutation route h may instead be a
    polynomial, given by its values: units of F_q, and on request any
    element at one point of J."""
    two_to_one = draw(st.booleans())
    apcn = two_to_one and draw(st.booleans())
    ctx, q = draw(st.sampled_from(APCN_CONFIGS if apcn else AGW_CONFIGS))
    units = ctx.subfield_elements(q)[1:]
    unit = st.one_of(st.sampled_from(units), st.integers(1, ctx.order - 1))
    element = st.integers(0, ctx.order - 1)
    indices = draw(st.lists(st.integers(0, ctx.n - 1), min_size=1, max_size=3, unique=True))
    phi = PolyFunc(ctx, {ctx.p ** i: draw(unit) for i in indices})
    g = PolyFunc(ctx, draw(st.dictionaries(element, element, max_size=3)))
    kind = draw(st.sampled_from(["f1", "f2"]))
    if not two_to_one and draw(st.booleans()):
        rng = draw(st.randoms(use_true_random=False))
        table = [rng.choice(units) for _ in range(ctx.order)]
        if draw(st.booleans()):
            table[rng.choice(subspace_j(ctx, q).elements)] = rng.randrange(ctx.order)
        h_or_b = {"h": PolyFunc.from_table(ctx, table)}
    else:
        h_or_b = {"b": draw(unit)}
    return AgwParams(ctx=ctx, q=q, phi=phi, g=g, kind=kind, **h_or_b), two_to_one


class TestRoutes:
    @settings(max_examples=150, deadline=None)
    @given(agw_cases())
    # phi = 4*x^3 + 3*x has a coefficient outside F_3 and does not commute
    # with psi: every other item passes, yet f is no permutation
    @example((AgwParams(ctx=F9, q=3, phi=parse_function("4*x^3 + 3*x", F9),
                        g=parse_function("x", F9), b=1, kind="f2"), False))
    def test_route_decides_its_builder(self, case):
        params, two_to_one = case
        report = validate_preconditions(params, two_to_one)
        passed = _passed(report)
        assert list(passed) == (TWO_TO_ONE_ROUTE if two_to_one else PP_ROUTE)
        # psi sends the F_q-valued tail to 0, so the self-check always agrees
        assert passed["composite_permutes_j"] == passed["h_phi_permutes_j"]
        build = build_apcn_2to1 if two_to_one else build_agw_pp
        try:
            f = build(params)
        except errors.PreconditionFailed as exc:
            # the refusal names exactly the failed items of its route
            assert not report.ok
            assert str(exc) == "precondition(s) failed: " + "; ".join(
                f"{it.name} ({it.detail})" for it in report.items if not it.passed)
        except errors.InvalidParams:
            # the 2-to-1 builder's own refusals: odd p, even n, b outside F_q
            assert two_to_one and not report.ok
        else:
            assert report.ok
            assert is_two_to_one(f) if two_to_one else is_permutation(f)


class TestBuildAgwPP:
    def test_trace_form_example(self):
        params = AgwParams(ctx=F9, q=3, phi=parse_function("x", F9),
                           g=parse_function("x^2", F9), b=1, kind="f1")
        f = build_agw_pp(params)
        assert is_permutation(f)
        # matches the pointwise definition
        for x in range(9):
            psi = F9.sub(F9.pow(x, 3), x)
            expect = F9.add(x, int(trace_table(F9, 1, F9.pow(psi, 2))))
            assert f(x) == expect

    def test_zero_g_is_identity(self):
        params = AgwParams(ctx=F9, q=3, phi=parse_function("x", F9),
                           g=PolyFunc(F9, {}), b=1, kind="f1")
        assert str(build_agw_pp(params)) == "x"

    def test_power_form(self):
        params = AgwParams(ctx=F9, q=3, phi=parse_function("x", F9),
                           g=parse_function("x^2 + g*x", F9), b=2, kind="f2")
        f = build_agw_pp(params)
        assert is_permutation(f)
        g = params.g
        exp = (9 - 1) // (3 - 1)
        for x in range(9):
            psi = F9.sub(F9.pow(x, 3), x)
            expect = F9.add(F9.mul(2, x), F9.pow(g(psi), exp))
            assert f(x) == expect
        # every c != 1 in the base field gives a PcN function
        for c in (0, 2):
            assert c_uniformity(f, c) == 1

    def test_precondition_failure_raises(self):
        params = AgwParams(ctx=F32, q=2, phi=parse_function("x^2 + x", F32),
                           g=parse_function("x", F32), b=1)
        with pytest.raises(errors.PreconditionFailed) as exc:
            build_agw_pp(params)
        # only the failed item of the permutation route, with its detail
        assert str(exc.value) == ("precondition(s) failed: kernel_meets_base_trivially"
                                  " (ker(phi) meets the base subfield in [0, 1])")
        assert [it.name for it in exc.value.report.items] == PP_ROUTE

    def test_unvalidated_build_still_composes(self):
        params = AgwParams(ctx=F32, q=2, phi=parse_function("x^2 + x", F32),
                           g=parse_function("x", F32), b=1)
        f = build_agw_pp(params, validate=False)
        assert not is_permutation(f)


class TestBuildApcn2to1:
    def test_frobenius_plus_identity_phi_q4_n3(self):
        params = AgwParams(ctx=F64, q=4, phi=parse_function("x^2 + x", F64),
                           g=parse_function("x", F64), b=1, kind="f1")
        f = build_apcn_2to1(params)
        assert is_two_to_one(f)
        for c in F64.subfield_elements(4):
            if c != 1:
                assert c_uniformity(f, c) == 2

    def test_zero_g_gives_phi(self):
        params = AgwParams(ctx=F64, q=4, phi=parse_function("x^2 + x", F64),
                           g=PolyFunc(F64, {}), b=1, kind="f1")
        f = build_apcn_2to1(params)
        assert is_two_to_one(f)
        assert list(f.table) == list(parse_function("x^2 + x", F64).table)

    def test_even_n_impossible(self):
        F16 = make_field(2, 4)
        params = AgwParams(ctx=F16, q=4, phi=parse_function("x^2 + x", F16),
                           g=parse_function("x", F16), b=1)
        with pytest.raises(errors.InvalidParams, match="even extension degree"):
            build_apcn_2to1(params)

    def test_odd_characteristic_rejected(self):
        params = AgwParams(ctx=F27, q=3, phi=parse_function("x", F27),
                           g=parse_function("x", F27), b=1)
        with pytest.raises(errors.InvalidParams, match="needs characteristic 2"):
            build_apcn_2to1(params)

    def test_phi_not_two_to_one(self):
        # phi = x is injective on F_q, not 2-to-1
        params = AgwParams(ctx=F64, q=4, phi=parse_function("x", F64),
                           g=parse_function("x", F64), b=1)
        with pytest.raises(errors.PreconditionFailed) as exc:
            build_apcn_2to1(params)
        assert str(exc.value) == ("precondition(s) failed: phi_two_to_one_on_base"
                                  " (fiber sizes of phi on F_4: [1])")

    def test_phi_not_j_permuting(self):
        # phi = x^8 + x on F_64 kills F_8, which meets J nontrivially
        params = AgwParams(ctx=F64, q=4, phi=parse_function("x^8 + x", F64),
                           g=parse_function("x", F64), b=1)
        with pytest.raises(errors.PreconditionFailed) as exc:
            build_apcn_2to1(params)
        assert str(exc.value) == ("precondition(s) failed: h_phi_permutes_j"
                                  " (h(y)*phi(y) does not permute J); composite_permutes_j"
                                  " (composite map does not permute J)")


class TestBuildQuadExponentPP:
    def test_basic_pp(self):
        j = subspace_j(F25, 5)
        g = PolyFunc(F25, {1: 1, 0: j.elements[1]})
        f = build_quad_exponent_pp(F25, 5, parse_function("x", F25), 1, [(g, 10)])
        assert is_permutation(f)
        for c in (0, 2, 3, 4):
            assert c_uniformity(f, c) == 1

    def test_pp_iff_phi_permutes_j_with_trivial_kernel(self):
        # exhaustive over phi = a0*x + a1*x^5 with base-field coefficients
        j = subspace_j(F25, 5)
        g = PolyFunc(F25, {1: 1, 0: j.elements[1]})
        for a0 in range(5):
            for a1 in range(5):
                if a0 == 0 and a1 == 0:
                    continue
                phi = PolyFunc(F25, {1: a0, 5: a1})
                f = build_quad_exponent_pp(F25, 5, phi, 1, [(g, 10)])
                permutes = sorted(int(phi.table[y]) for y in j.elements) == list(j.elements)
                kernel_trivial = all(int(phi.table[x]) for x in range(1, 5))
                assert is_permutation(f) == (permutes and kernel_trivial)

    def test_multi_term(self):
        j = subspace_j(F25, 5)
        g1 = PolyFunc(F25, {1: 2, 0: j.elements[1]})
        g2 = PolyFunc(F25, {1: 1, 0: j.elements[2]})
        f = build_quad_exponent_pp(F25, 5, parse_function("x", F25), 3,
                                   [(g1, 10), (g2, 10)])
        assert is_permutation(f)

    def test_bad_exponents(self):
        g = PolyFunc(F25, {1: 1})
        with pytest.raises(errors.InvalidParams, match="has an index outside"):
            build_quad_exponent_pp(F25, 5, parse_function("x", F25), 1, [(g, 6)])  # 5^0+5^1
        with pytest.raises(errors.InvalidParams, match="7 is not a sum of two p-powers"):
            build_quad_exponent_pp(F25, 5, parse_function("x", F25), 1, [(g, 7)])  # weight 3

    def test_g_not_j_stable(self):
        with pytest.raises(errors.InvalidParams, match="does not map J into J"):
            build_quad_exponent_pp(F25, 5, parse_function("x", F25), 1,
                                   [(parse_function("x + 1", F25), 10)])

    def test_bad_b(self):
        g = PolyFunc(F25, {1: 1})
        with pytest.raises(errors.InvalidParams, match="b=0 is not a nonzero element of F_5"):
            build_quad_exponent_pp(F25, 5, parse_function("x", F25), 0, [(g, 10)])
        with pytest.raises(errors.InvalidParams, match="b=5 is not a nonzero element of F_5"):
            # an element outside the base subfield
            build_quad_exponent_pp(F25, 5, parse_function("x", F25), 5, [(g, 10)])

    def test_wrong_tower(self):
        with pytest.raises(errors.InvalidParams):
            build_quad_exponent_pp(F27, 3, parse_function("x", F27), 1,
                                   [(PolyFunc(F27, {1: 1}), 12)])

    def test_j_power_lands_in_base(self):
        # y^s lies in F_q for y in J when s has p-weight 2
        j = subspace_j(F25, 5)
        for y in j.elements:
            v = F25.pow(y, 10)
            assert F25.pow(v, 5) == v


class TestModuleInvariantConfigs:
    """Delta checks at the configurations beyond the acceptance list."""

    @pytest.mark.parametrize("q0,n", [(3, 3), (5, 2)])
    def test_trace_power_pcn(self, q0, n):
        ctx = make_field(q0, n)
        rng = random.Random(f"inv{q0}{n}")
        cs = [c for c in range(q0) if c != 1]
        for i in range(6):
            g = PolyFunc(ctx, {rng.randrange(ctx.order): rng.randrange(ctx.order)
                               for _ in range(3)})
            b = rng.randrange(1, q0)
            kind = "f1" if i % 2 == 0 else "f2"
            params = AgwParams(ctx=ctx, q=q0, phi=parse_function("x", ctx),
                               g=g, b=b, kind=kind)
            f = build_agw_pp(params)
            assert is_permutation(f)
            for c in cs:
                assert c_uniformity(f, c) == 1

    def test_quad_exponent_pcn_q3(self):
        ctx = F9
        j = subspace_j(ctx, 3)
        rng = random.Random("inv-quad3")
        for _ in range(6):
            delta = rng.choice(j.elements)
            lam = rng.choice([1, 2])
            g = PolyFunc(ctx, {1: lam, 0: delta})
            b = rng.choice([1, 2])
            f = build_quad_exponent_pp(ctx, 3, parse_function("x", ctx), b,
                                       [(g, 6)])  # 6 = 3^1 + 3^1
            assert is_permutation(f)
            for c in (0, 2):
                assert c_uniformity(f, c) == 1


class TestCppRemark:
    def test_phi_x_gives_cpp_when_b_allows(self):
        rng = random.Random(5)
        for b in (1, 2, 3):  # over F_25: -1 = 4 is excluded, 0 is excluded
            params = AgwParams(ctx=F25, q=5, phi=parse_function("x", F25),
                               g=PolyFunc(F25, {2: rng.randrange(25)}), b=b, kind="f1")
            f = build_agw_pp(params)
            assert is_permutation(f)
            plus_x = PolyFunc.from_table(F25, F25.vadd(f.table, F25.elements()))
            assert is_permutation(plus_x)
