"""The Hecke algebra through its right action on the tensor space.

The algebra has no multiplication of its own: fock.act_gen is its
generator rule.  Each identity is checked on the regular anti-dominant
monomial M_f0 (distinct letters, increasing on the covariant sector and
decreasing on the dual one).  The group acts freely on it, M_f0 H_sigma =
M_{f0 sigma}, so an identity holds there exactly when it holds in the
algebra.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qfock.barinv import bar, pure_bar
from qfock.fock import FockVector, act, act_gen
from qfock.hecke import HeckeElement, symmetrizer
from qfock.laurent import LaurentPoly
from qfock.weightlat import (
    Parabolic,
    Shape,
    SignedTuple,
    Window,
    group_qfactorial,
    identity_perm,
    par_elements,
)

QMQ = LaurentPoly({1: 1, -1: -1})


def regular(shape):
    m, n = shape
    return SignedTuple(shape, tuple(range(m)) + tuple(range(n - 1, -1, -1)))


def word(v, *gens):
    """v H_{i1} H_{i2} ... by act_gen."""
    for i in gens:
        v = act_gen(v, i)
    return v


def bar_gen(v, i):
    """v bar(H_i) = v (H_i + q - q^-1)."""
    return act_gen(v, i).axpy(v, QMQ)


def basis(shape, perm):
    return HeckeElement(shape, {perm: LaurentPoly.one()})


def gens_of(shape):
    return [i for i in range(1, shape.size) if i != shape.m]


def all_parabolics(shape):
    valid = gens_of(shape)
    for r in range(len(valid) + 1):
        for gens in itertools.combinations(valid, r):
            yield Parabolic(shape, frozenset(gens))


@st.composite
def hecke_elements(draw, shape=Shape(3, 0)):
    perms = sorted(par_elements(Parabolic.full(shape)))
    terms = {}
    for p in draw(st.lists(st.sampled_from(perms), max_size=3)):
        terms[p] = LaurentPoly(draw(
            st.dictionaries(st.integers(-3, 3), st.integers(-4, 4), max_size=3)))
    return HeckeElement(shape, terms)


class TestBasics:
    def test_validation(self):
        v = FockVector.monomial(regular(Shape(2, 1)))
        with pytest.raises(ValueError):
            act_gen(v, 2)
        with pytest.raises(ValueError):
            act(v, symmetrizer(Parabolic.full(Shape(2, 0))))

    def test_quadratic_relation(self):
        for shape in (Shape(2, 0), Shape(0, 2), Shape(2, 2), Shape(3, 1)):
            v = FockVector.monomial(regular(shape))
            for i in gens_of(shape):
                assert word(v, i, i) == v + act_gen(v, i).scaled(LaurentPoly({-1: 1, 1: -1}))

    def test_inverse(self):
        # H_i^-1 = H_i + (q - q^-1), on either side
        for shape in (Shape(2, 0), Shape(1, 2)):
            v = FockVector.monomial(regular(shape))
            for i in gens_of(shape):
                assert bar_gen(act_gen(v, i), i) == v
                assert act_gen(bar_gen(v, i), i) == v

    def test_braid(self):
        f0 = regular(Shape(3, 0))
        v = FockVector.monomial(f0)
        assert word(v, 1, 2, 1) == word(v, 2, 1, 2)
        assert word(v, 1, 2, 1) == FockVector.monomial(f0.act((2, 1, 0)))

    def test_commuting_generators(self):
        f0 = regular(Shape(2, 2))
        v = FockVector.monomial(f0)
        assert word(v, 1, 3) == word(v, 3, 1)
        assert word(v, 1, 3) == FockVector.monomial(f0.act((1, 0, 3, 2)))

    def test_basis_product_matches_length(self):
        # H_x H_y = H_{xy} whenever lengths add
        sh = Shape(3, 0)
        v = FockVector.monomial(regular(sh))
        x, y = (1, 0, 2), (0, 2, 1)
        assert act(act(v, basis(sh, x)), basis(sh, y)) == act(v, basis(sh, (1, 2, 0)))


class TestBar:
    """bar(M_f0 h) = M_f0 bar(h), since bar fixes M_f0."""

    def test_bar_generator(self):
        for shape in (Shape(3, 0), Shape(0, 3)):
            v = FockVector.monomial(regular(shape))
            for i in gens_of(shape):
                assert pure_bar(act_gen(v, i)) == bar_gen(v, i)

    def test_bar_is_multiplicative_on_words(self):
        sh, w = Shape(3, 1), Window(0, 2)
        v = FockVector.monomial(regular(sh))
        for i, j in [(1, 2), (2, 1)]:
            assert bar(word(v, i, j), w) == bar_gen(bar_gen(bar(v, w), i), j)

    @given(hecke_elements())
    @settings(max_examples=25, deadline=None)
    def test_bar_involution(self, x):
        v = act(FockVector.monomial(regular(x.shape)), x)
        assert pure_bar(pure_bar(v)) == v

    @given(hecke_elements(), hecke_elements())
    @settings(max_examples=15, deadline=None)
    def test_bar_ring_hom(self, x, y):
        v = FockVector.monomial(regular(x.shape))
        vx, vy = act(v, x), act(v, y)
        assert pure_bar(vx + vy) == pure_bar(vx) + pure_bar(vy)
        for i in gens_of(x.shape):
            assert pure_bar(act_gen(vx, i)) == bar_gen(pure_bar(vx), i)

    def test_bar_unitriangular(self):
        # f0 = (0, 1, 2), so M_f0 H_sigma is the monomial with entries sigma
        sh = Shape(3, 0)
        lengths = par_elements(Parabolic.full(sh))
        for perm in lengths:
            bb = pure_bar(FockVector.monomial(SignedTuple(sh, perm)))
            assert bb.coeff(SignedTuple(sh, perm)) == 1
            for g in bb.terms:
                assert lengths[g.entries] <= lengths[perm]


class TestSymmetrizer:
    def test_s2_symmetrizer(self):
        par = Parabolic(Shape(2, 0), frozenset({1}))
        S = symmetrizer(par)
        assert S.coeff((0, 1)) == LaurentPoly.q_power(1)
        assert S.coeff((1, 0)) == 1

    def test_eigenvalue_and_square(self):
        for shape in (Shape(2, 0), Shape(3, 0), Shape(2, 2), Shape(1, 3)):
            v = FockVector.monomial(regular(shape))
            for par in all_parabolics(shape):
                S = symmetrizer(par)
                vs = act(v, S)
                for i in par.generators:
                    assert act_gen(vs, i) == vs.scaled(LaurentPoly.q_power(-1)), (shape, par, i)
                    assert act(act_gen(v, i), S) == vs.scaled(LaurentPoly.q_power(-1))
                assert act(vs, S) == vs.scaled(group_qfactorial(par))

    def test_bar_fixed(self):
        for shape in (Shape(2, 0), Shape(2, 1), Shape(2, 2)):
            v = FockVector.monomial(regular(shape))
            w = Window(0, max(shape) - 1)
            for par in all_parabolics(shape):
                S = symmetrizer(par)
                assert bar(act(v, S), w) == act(bar(v, w), S)

    def test_built_once_per_parabolic_and_read_only(self):
        for par in all_parabolics(Shape(2, 2)):
            S = symmetrizer(par)
            assert symmetrizer(par) is S
            with pytest.raises(TypeError):
                S.add_term(next(iter(S.terms)), LaurentPoly.one())
            with pytest.raises(TypeError):
                S.axpy(basis(par.shape, identity_perm(par.shape.size)))
            assert S == symmetrizer.__wrapped__(par)

    def test_absorbs_coset_lengths(self):
        # S H_sigma = q^{-l(sigma)} S for sigma in the parabolic
        par = Parabolic(Shape(3, 0), frozenset({1, 2}))
        vs = act(FockVector.monomial(regular(par.shape)), symmetrizer(par))
        for p, l in par_elements(par).items():
            assert act(vs, basis(par.shape, p)) == vs.scaled(LaurentPoly.q_power(-l))
