"""The blocked c-derivative row kernel and the spread-word field addition,
checked differentially against scalar oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdu import cdiff, field
from cdu.cdiff import c_ddt, c_uniformity, is_pseudo_pcn, is_relaxed_pcn
from cdu.field import FieldContext, FieldSpec, make_field
from cdu.funcs import PolyFunc, is_planar
from cdu.verify import classical_ddt_direct

# every F_{p^n} with p in {2, 3, 5, 7} and q <= 125
SMALL_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1), (3, 2), (3, 3),
                (3, 4), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2)]
# odd n splits an element into halves of different sizes
SPLIT_FIELDS = SMALL_FIELDS + [(3, 5), (3, 7), (5, 4), (7, 3), (11, 1), (13, 2)]
# prime fields, odd n and both halves of more than one digit, for p = 2 too
KERNEL_FIELDS = SMALL_FIELDS + [(11, 1), (13, 1), (3, 5), (7, 3), (2, 7), (2, 9)]


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
    @given(st.sampled_from(SMALL_FIELDS), st.data())
    def test_c_zero_is_the_largest_fiber_of_every_row(self, pn, data):
        # c_uniformity(f, 0) counts f's own table; every direction's row,
        # counted by scalar arithmetic, is the oracle
        ctx = make_field(*pn)
        q = ctx.order
        if data.draw(st.booleans()):
            f = PolyFunc.from_table(ctx, data.draw(st.lists(st.integers(0, q - 1),
                                                            min_size=q, max_size=q)))
        else:
            f = PolyFunc(ctx, data.draw(st.dictionaries(st.integers(0, 2 * q),
                                                        st.integers(1, q - 1),
                                                        min_size=1, max_size=4)))
        delta = max(int(scalar_row(f, 0, a).max()) for a in range(q))
        assert c_uniformity(f, 0) == delta
        assert f._translates is None  # no row was copied from a translate table
        assert cdiff.full_report(f, cs=[0]).entries[0].delta == delta

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

    @settings(max_examples=80, deadline=None)
    @given(functions(KERNEL_FIELDS), st.data())
    def test_any_direction_set_in_any_block(self, fc, data):
        # unsorted directions with repeats, in blocks of any size, on a
        # translate table of halves or of K = 1; every row lands at its
        # direction's position
        f, c = fc
        q = f.ctx.order
        directions = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=30))
        rows_per_block = data.draw(st.integers(1, 8))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cdiff, "_BLOCK_ELEMS", rows_per_block * q)
            mp.setattr(cdiff, "_TRANSLATE_ELEMS", data.draw(st.sampled_from([0, 1 << 20])))
            blocks = list(cdiff._row_block_counts(f, c, directions))
        assert [len(b) for b in blocks[:-1]] == [rows_per_block] * (len(blocks) - 1)
        counts = np.concatenate(blocks)
        for a, row in zip(directions, counts):
            assert np.array_equal(row, scalar_row(f, c, a)), (str(f), c, a)

    @pytest.mark.parametrize("p,n,ks", [(2, 7, (0, 2, 4)), (3, 5, (0, 1, 3)), (5, 3, (0, 1, 2))])
    def test_every_split_of_the_translate_table(self, p, n, ks):
        # the budget picks K = p^k: a plain gather, a low part shorter than
        # the half, and the split into halves of different sizes
        ctx = make_field(p, n)
        q = ctx.order
        coeffs = {q // p + 5: 2, 7: 1, 3: q - 1, 0: 1}
        directions = [0, 1, q - 1, p ** 2 + 1, q // 2, q - p]
        for k in ks:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cdiff, "_TRANSLATE_ELEMS", q * p ** k + p - 1)
                mp.setattr(cdiff, "_BLOCK_ELEMS", 4 * q)
                f = PolyFunc(ctx, coeffs)
                assert f.translates[0] == p ** k
                for c in (0, 1, ctx.generator):
                    counts = np.concatenate(list(cdiff._row_block_counts(f, c, directions)))
                    for a, row in zip(directions, counts):
                        assert np.array_equal(row, scalar_row(f, c, a)), (k, c, a)

    def test_translate_table_is_built_once_per_function(self, monkeypatch):
        built = []
        translate_table = cdiff._translate_table

        def counted(ctx, values):
            built.append(len(values))
            return translate_table(ctx, values)

        monkeypatch.setattr(cdiff, "_translate_table", counted)
        ctx = make_field(2, 6)
        f = PolyFunc(ctx, {13: 3, 5: 1, 2: 1, 1: 7})
        report = cdiff.full_report(f, workers=2)
        spectrum = c_ddt(f, ctx.generator)
        assert built == [ctx.order]
        assert spectrum.delta == report.entries[ctx.generator].delta
        assert c_uniformity(f, 1) == report.entries[1].delta
        assert built == [ctx.order]

    @pytest.mark.parametrize("p,n,coeffs", [(3, 7, {53: 151, 15: 1, 1: 1}),
                                            (5, 5, {47: 2, 9: 1, 0: 3})])
    def test_large_fields(self, p, n, coeffs):
        ctx = make_field(p, n)
        q = ctx.order
        f = PolyFunc(ctx, coeffs)
        c = ctx.generator
        # more directions than the low half holds, then a few: both copy
        # their rows from one translate table, and c_ddt keeps direction order
        many = np.arange(q - 1, 0, -13)
        few = many[[3, 0, 3]]
        assert len(many) > ctx.p ** ((n + 1) // 2) > len(few)
        rows = np.concatenate(list(cdiff._row_block_counts(f, c, many)))
        assert np.array_equal(np.concatenate(list(cdiff._row_block_counts(f, c, few))),
                              rows[[3, 0, 3]])
        counts = c_ddt(f, c).counts
        assert np.array_equal(counts[many], rows)
        for a in (0, 1, int(many[3]), q - 1):
            assert np.array_equal(counts[a], scalar_row(f, c, a))

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


def chunked_field(monkeypatch, p, n, entries):
    """F_{p^n} built outside the cache with fold chunks of at most entries."""
    monkeypatch.setattr(field, "_FOLD_CHUNK_ENTRIES", entries)
    return FieldContext(FieldSpec(p, n, make_field(p, n).modulus))


class TestChunkedFold:
    @pytest.mark.parametrize("n,entries,chunks", [(4, 25, 2), (5, 25, 3), (6, 25, 3),
                                                  (4, 125, 2), (5, 125, 2), (6, 125, 2),
                                                  (6, 5, 6)])
    def test_chunk_count(self, monkeypatch, n, entries, chunks):
        ctx = chunked_field(monkeypatch, 3, n, entries)
        assert len(ctx._folds) == chunks
        assert all(len(table) <= entries for _, table in ctx._folds)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(4, 25), (5, 25), (6, 25), (5, 125), (6, 125)]), st.data())
    def test_vector_ops_on_chunks(self, shape, data):
        n, entries = shape
        with pytest.MonkeyPatch.context() as mp:
            ctx = chunked_field(mp, 3, n, entries)
        q = ctx.order
        elems = st.integers(0, q - 1)
        u = np.array(data.draw(st.lists(elems, min_size=1, max_size=40)))
        v = np.array(data.draw(st.lists(elems, min_size=len(u), max_size=len(u))))
        assert list(ctx.vadd(u, v)) == [ctx.add(int(a), int(b)) for a, b in zip(u, v)]
        assert list(ctx.vsub(u, v)) == [ctx.sub(int(a), int(b)) for a, b in zip(u, v)]
        assert list(ctx.vneg(u)) == [ctx.neg(int(a)) for a in u]
        assert ctx.vadd(u, v).dtype == np.int64
        a = data.draw(elems)
        assert list(ctx.shift_perm(a)) == [ctx.add(x, a) for x in range(q)]

    @pytest.mark.parametrize("n,entries", [(4, 25), (5, 25), (6, 125)])
    def test_rows_on_chunks(self, monkeypatch, n, entries):
        whole = make_field(3, n)
        ctx = chunked_field(monkeypatch, 3, n, entries)
        coeffs = {whole.order // 3 + 5: 2, 7: 1, 1: 1}
        directions = [5, 0, whole.order - 1, 5]
        for c in (0, 1, 2, whole.generator):
            expect = cdiff._row_block_counts(PolyFunc(whole, coeffs), c, directions)
            got = cdiff._row_block_counts(PolyFunc(ctx, coeffs), c, directions)
            assert np.array_equal(np.concatenate(list(expect)), np.concatenate(list(got)))
