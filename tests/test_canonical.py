"""Tests for the canonical / dual canonical solver and the matrix identities."""

import warnings

import pytest

from qfock.barinv import bar, bar_oracle
from qfock.canonical import (
    TruncationWarning,
    bkl_matrices,
    canonical,
    dual_canonical,
    inverse_relation_check,
)
from qfock.fock import FockVector
from qfock.laurent import LaurentPoly
from qfock.weightlat import Shape, SignedTuple, Window, block, bruhat_leq, window_tuples


def T(m, n, *entries):
    return SignedTuple(Shape(m, n), entries)


def M(m, n, *entries):
    return FockVector.monomial(T(m, n, *entries))


def P(d):
    return LaurentPoly(d)


class TestFrozenValues:
    def test_two_covariant(self):
        w = Window(1, 2)
        exp = canonical(T(2, 0, 2, 1), w)
        assert exp.vector() == M(2, 0, 2, 1) + M(2, 0, 1, 2).scaled(P({1: 1}))
        exp = dual_canonical(T(2, 0, 2, 1), w)
        assert exp.vector() == M(2, 0, 2, 1) + M(2, 0, 1, 2).scaled(P({-1: -1}))
        assert canonical(T(2, 0, 1, 2), w).vector() == M(2, 0, 1, 2)
        assert dual_canonical(T(2, 0, 1, 2), w).vector() == M(2, 0, 1, 2)

    def test_atypical_canonical(self):
        exp = canonical(T(1, 1, 2, 2), Window(0, 2))
        assert exp.vector() == M(1, 1, 2, 2) + M(1, 1, 1, 1).scaled(P({1: 1}))

    def test_atypical_dual_chain(self):
        exp = dual_canonical(T(1, 1, 3, 3), Window(0, 3))
        want = (
            M(1, 1, 3, 3)
            + M(1, 1, 2, 2).scaled(P({-1: -1}))
            + M(1, 1, 1, 1).scaled(P({-2: 1}))
            + M(1, 1, 0, 0).scaled(P({-3: -1}))
        )
        assert exp.vector() == want

    def test_typical_singleton(self):
        w = Window(1, 3)
        assert canonical(T(1, 1, 1, 3), w).vector() == M(1, 1, 1, 3)
        assert dual_canonical(T(1, 1, 1, 3), w).vector() == M(1, 1, 1, 3)

    def test_memoized(self):
        w = Window(1, 2)
        assert canonical(T(2, 0, 2, 1), w) is canonical(T(2, 0, 2, 1), w)

    def test_json(self):
        data = canonical(T(2, 0, 2, 1), Window(1, 2)).to_json()
        assert data["target"] == "2,1|"
        assert data["mode"] == "canonical"
        assert len(data["coefficients"]) == 2


SHAPES = [Shape(2, 0), Shape(0, 2), Shape(1, 1), Shape(2, 1), Shape(1, 2)]


class TestDefiningProperties:
    def test_bar_invariance_and_degrees(self):
        w = Window(0, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for shape in SHAPES:
                for f in window_tuples(shape, w):
                    for mode, solver in (("canonical", canonical), ("dual", dual_canonical)):
                        exp = solver(f, w)
                        v = exp.vector()
                        assert bar(v, w) == v, (f, mode)
                        assert exp.coeff(f) == LaurentPoly.one()
                        for g, c in exp.coefficients.items():
                            if g == f:
                                continue
                            assert bruhat_leq(g, f), (g, f, mode)
                            if mode == "canonical":
                                assert c.min_exp() >= 1, (g, f, c)
                            else:
                                assert c.max_exp() <= -1, (g, f, c)

    def test_oracle_agreement(self):
        w = Window(0, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for shape in SHAPES:
                for f in window_tuples(shape, w):
                    assert len(block(f, w)) <= 12
                    got = canonical(f, w).vector()
                    assert got == bar_oracle(f, w, 6), f
                    got = dual_canonical(f, w).vector()
                    assert got == bar_oracle(f, w, 6, mode="dual"), f

    def test_window_stability(self):
        f = T(1, 1, 2, 2)
        small = canonical(f, Window(0, 2))
        big = canonical(f, Window(-1, 3))
        assert small.coeff(T(1, 1, 1, 1)) == big.coeff(T(1, 1, 1, 1))
        ds = dual_canonical(f, Window(0, 2))
        db = dual_canonical(f, Window(-1, 3))
        for g in ds.support():
            assert ds.coeff(g) == db.coeff(g)


class TestFloorWarning:
    def test_warns_when_block_would_grow(self):
        with pytest.warns(TruncationWarning):
            canonical(T(1, 1, 5, 5), Window(4, 6))

    def test_silent_when_block_is_complete(self):
        # the pure-sector block does not change if the floor is lowered
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            canonical(T(2, 0, 8, 7), Window(7, 8))

    def test_dual_mode_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            dual_canonical(T(1, 1, 9, 9), Window(8, 10))


class TestMatrices:
    def test_rank_two_block(self):
        w = Window(1, 2)
        order = block(T(2, 0, 2, 1), w)
        tmat, lmat = bkl_matrices(order, w)
        lo, hi = T(2, 0, 1, 2), T(2, 0, 2, 1)
        assert tmat[(lo, lo)] == LaurentPoly.one()
        assert tmat[(hi, hi)] == LaurentPoly.one()
        assert tmat[(lo, hi)] == P({1: 1})
        assert (hi, lo) not in tmat
        assert lmat[(lo, hi)] == P({-1: -1})

    def test_singleton(self):
        w = Window(1, 3)
        order = block(T(1, 1, 1, 3), w)
        tmat, lmat = bkl_matrices(order, w)
        assert tmat == {(T(1, 1, 1, 3), T(1, 1, 1, 3)): LaurentPoly.one()}
        assert lmat == tmat


class TestInverseRelation:
    def test_singleton(self):
        w = Window(-3, 3)
        assert inverse_relation_check([T(1, 1, 1, 3)], w)

    def test_atypical_chain(self):
        w = Window(-2, 2)
        order = block(T(1, 1, 1, 1), w)
        assert len(order) == 5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            assert inverse_relation_check(order, w)

    def test_pure_rank_two(self):
        w = Window(-2, 2)
        order = block(T(2, 0, 1, 2), w)
        assert inverse_relation_check(order, w)

    def test_mixed_blocks(self):
        w = Window(-2, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for f in [T(2, 1, 1, 2, 1), T(1, 2, 0, 1, 0), T(1, 2, 1, 1, 1)]:
                assert inverse_relation_check(block(f, w), w), f

    def test_rejects_asymmetric_window(self):
        w = Window(0, 2)
        with pytest.raises(ValueError):
            inverse_relation_check(block(T(1, 1, 1, 1), w), w)


class TestCachedBarColumnsStayIntact:
    """Solvers accumulate in place, but never into a memoized bar column."""

    @staticmethod
    def snapshot(memo):
        return {
            key: (v.shape, {g: dict(c.c) for g, c in v.terms.items()})
            for key, v in memo.items()
        }

    def test_memo_unchanged_after_bar_and_solvers(self):
        from qfock.barinv import bar_context
        from qfock.qsym import qsym_canonical_intrinsic
        from qfock.weightlat import Parabolic, is_antidominant

        shape, w = Shape(2, 1), Window(-1, 2)
        par = Parabolic(shape, frozenset({1}))
        order = block(T(2, 1, 1, 2, 1), w)
        ctx = bar_context(shape, w)
        for g in order:
            ctx.bar_monomial(g)
        before = self.snapshot(ctx._memo)
        v = FockVector(shape, {g: P({i: 1}) for i, g in enumerate(order)})
        bar(v, w)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for g in order:
                canonical(g, w)
                dual_canonical(g, w)
                if is_antidominant(g, par):
                    qsym_canonical_intrinsic(g, par, w)
        after = self.snapshot(ctx._memo)
        assert {k: after[k] for k in before} == before
