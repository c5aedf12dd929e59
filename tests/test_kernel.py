"""The blocked c-derivative row kernel and the split-half field addition,
checked differentially against scalar oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdu import cdiff
from cdu.cdiff import c_ddt, c_uniformity, is_pseudo_pcn, is_relaxed_pcn
from cdu.field import make_field
from cdu.funcs import PolyFunc, is_planar
from cdu.verify import classical_ddt_direct

# every F_{p^n} with p in {2, 3, 5, 7} and q <= 125
SMALL_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1), (3, 2), (3, 3),
                (3, 4), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2)]
# odd n splits an element into halves of different sizes
SPLIT_FIELDS = SMALL_FIELDS + [(3, 5), (3, 7), (5, 4), (7, 3), (11, 1), (13, 2)]


@st.composite
def functions(draw, fields=SMALL_FIELDS):
    """A sparse polynomial f over a small field, and a multiplier c."""
    p, n = draw(st.sampled_from(fields))
    ctx = make_field(p, n)
    q = ctx.order
    coeffs = draw(st.dictionaries(st.integers(0, q - 1), st.integers(1, q - 1),
                                  min_size=1, max_size=4))
    c = draw(st.integers(0, q - 1))
    return PolyFunc(ctx, coeffs), c


def scalar_row(f, c, a, extra=lambda x: 0):
    """Counts of x -> f(x+a) - c*f(x) + extra(x), by scalar arithmetic."""
    ctx = f.ctx
    counts = np.zeros(ctx.order, dtype=np.int64)
    for x in range(ctx.order):
        b = ctx.sub(f(ctx.add(x, a)), ctx.mul(c, f(x)))
        counts[ctx.add(b, extra(x))] += 1
    return counts


class TestRowKernel:
    @settings(max_examples=60, deadline=None)
    @given(functions())
    def test_counts_and_delta_match_scalar_oracle(self, fc):
        f, c = fc
        direct = np.array(classical_ddt_direct(f, c))
        spectrum = c_ddt(f, c)
        assert np.array_equal(spectrum.counts, direct)
        delta = int(direct[1:].max()) if c == 1 else int(direct.max())
        assert spectrum.delta == delta
        assert c_uniformity(f, c) == delta

    @settings(max_examples=60, deadline=None)
    @given(functions())
    def test_predicates_match_full_counts(self, fc):
        f, c = fc
        ctx = f.ctx
        nonzero_rows = c_ddt(f, c).counts[1:]
        assert is_relaxed_pcn(f, c) == bool(nonzero_rows.max() <= 1)
        assert is_planar(f) == bool(c_ddt(f, 1).counts[1:].max() <= 1)
        if ctx.p == 2:
            bijective = all(scalar_row(f, c, e, lambda x: ctx.mul(e, x)).max() <= 1
                            for e in range(1, ctx.order))
            assert is_pseudo_pcn(f, c) == bijective

    @pytest.mark.parametrize("p,n", [(2, 5), (3, 3), (5, 2)])
    @pytest.mark.parametrize("rows_per_block", [1, 2, 3, 7])
    def test_blocks_straddle_the_budget(self, monkeypatch, p, n, rows_per_block):
        ctx = make_field(p, n)
        q = ctx.order
        f = PolyFunc(ctx, {3: 1, 2: ctx.order - 1, 1: 2})
        whole = {c: c_ddt(f, c) for c in (0, 1, 2)}
        relaxed = {c: is_relaxed_pcn(f, c) for c in (0, 1, 2)}
        # a budget one short of the next row boundary leaves a partial last block
        monkeypatch.setattr(cdiff, "_BLOCK_ELEMS", rows_per_block * q + q - 1)
        for c in (0, 1, 2):
            directions = range(1, q) if c == 1 else range(q)
            blocks = list(cdiff._row_block_counts(f, c, directions))
            assert [len(b) for b in blocks[:-1]] == [rows_per_block] * (len(blocks) - 1)
            assert 1 <= len(blocks[-1]) <= rows_per_block
            assert np.array_equal(np.concatenate(blocks), whole[c].counts[list(directions)])
            assert np.array_equal(c_ddt(f, c).counts, whole[c].counts)
            assert c_uniformity(f, c) == whole[c].delta
            assert is_relaxed_pcn(f, c) == relaxed[c]

    def test_c1_skips_row_zero(self):
        # x^2 over F_9 is planar, so every nonzero row holds only ones, while
        # the a = 0 row of the classical derivative puts all 9 x on b = 0
        f = PolyFunc(make_field(3, 2), {2: 1})
        assert c_ddt(f, 1).counts[0, 0] == 9
        assert c_uniformity(f, 1) == 1
        assert is_planar(f)

    def test_extra_term_is_added_to_each_row(self):
        ctx = make_field(2, 3)
        f = PolyFunc(ctx, {3: 1})
        xs = ctx.elements()
        blocks = cdiff._row_block_counts(f, 5, range(ctx.order),
                                         extra=lambda a: ctx.vmul(a[:, None], xs))
        counts = np.concatenate(list(blocks))
        for a in range(ctx.order):
            assert np.array_equal(counts[a], scalar_row(f, 5, a, lambda x: ctx.mul(a, x)))


class TestSplitAddition:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(SPLIT_FIELDS), st.data())
    def test_vector_ops_match_scalar(self, field, data):
        ctx = make_field(*field)
        q = ctx.order
        elems = st.integers(0, q - 1)
        u = np.array(data.draw(st.lists(elems, min_size=1, max_size=40)))
        v = np.array(data.draw(st.lists(elems, min_size=len(u), max_size=len(u))))
        assert list(ctx.vadd(u, v)) == [ctx.add(int(a), int(b)) for a, b in zip(u, v)]
        assert list(ctx.vsub(u, v)) == [ctx.sub(int(a), int(b)) for a, b in zip(u, v)]
        assert list(ctx.vneg(u)) == [ctx.neg(int(a)) for a in u]
        a = data.draw(elems)
        assert list(ctx.shift_perm(a)) == [ctx.add(x, a) for x in range(q)]
        rows = ctx.shift_rows(u)
        assert rows.shape == (len(u), q)
        assert all(np.array_equal(rows[i], ctx.shift_perm(int(d))) for i, d in enumerate(u))
        shifted_plus_v = ctx.gather_add(v, v[:1])
        assert list(shifted_plus_v(np.arange(len(v)))) == [ctx.add(int(b), int(v[0])) for b in v]

    @pytest.mark.parametrize("p,n", [(3, 5), (3, 7), (5, 3), (7, 1)])
    def test_every_sum_is_closed_and_exact(self, p, n):
        # x + a and -x for every x, with a = q - 1 nonzero in every digit of
        # both halves
        ctx = make_field(p, n)
        q = ctx.order
        xs = ctx.elements()
        a = q - 1
        assert list(ctx.vadd(xs, a)) == [ctx.add(x, a) for x in range(q)]
        assert list(ctx.vneg(xs)) == [ctx.neg(x) for x in range(q)]
        assert np.array_equal(np.sort(ctx.shift_perm(a)), xs)
