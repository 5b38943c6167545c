import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qfock.hecke import HeckeElement, symmetrizer
from qfock.laurent import LaurentPoly
from qfock.weightlat import Parabolic, Shape, group_qfactorial, par_elements


def H(shape, i):
    return HeckeElement.generator(shape, i)


def gens_of(shape):
    return [i for i in range(1, shape.size) if i != shape.m]


def all_parabolics(shape):
    valid = gens_of(shape)
    for r in range(len(valid) + 1):
        for gens in itertools.combinations(valid, r):
            yield Parabolic(shape, frozenset(gens))


QMQ = LaurentPoly({1: 1, -1: -1})


@st.composite
def hecke_elements(draw, shape=Shape(2, 1)):
    full = Parabolic.full(shape)
    perms = sorted(par_elements(full))
    terms = {}
    for p in draw(st.lists(st.sampled_from(perms), max_size=3)):
        terms[p] = LaurentPoly(draw(
            st.dictionaries(st.integers(-3, 3), st.integers(-4, 4), max_size=3)))
    return HeckeElement(shape, terms)


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            HeckeElement.generator(Shape(2, 1), 2)
        with pytest.raises(ValueError):
            HeckeElement.basis(Shape(2, 1), (2, 1, 0))

    def test_quadratic_relation(self):
        sh = Shape(2, 0)
        h = H(sh, 1)
        assert h * h == HeckeElement.unit(sh) + h.scaled(LaurentPoly({-1: 1, 1: -1}))

    def test_inverse(self):
        sh = Shape(2, 0)
        h = H(sh, 1)
        hinv = h + HeckeElement.unit(sh).scaled(QMQ)
        assert h * hinv == HeckeElement.unit(sh)
        assert hinv * h == HeckeElement.unit(sh)

    def test_braid(self):
        sh = Shape(3, 0)
        a, b = H(sh, 1), H(sh, 2)
        assert a * b * a == b * a * b
        assert (a * b * a).terms == {(2, 1, 0): LaurentPoly.one()}

    def test_commuting_generators(self):
        sh = Shape(2, 2)
        a, b = H(sh, 1), H(sh, 3)
        assert a * b == b * a
        assert (a * b).coeff((1, 0, 3, 2)) == 1

    def test_basis_product_matches_length(self):
        # H_x * H_y = H_{xy} whenever lengths add
        sh = Shape(3, 0)
        x = (1, 0, 2)
        y = (0, 2, 1)
        prod = HeckeElement.basis(sh, x) * HeckeElement.basis(sh, y)
        assert prod.terms == {(1, 2, 0): LaurentPoly.one()}


class TestBar:
    def test_bar_generator(self):
        sh = Shape(2, 0)
        h = H(sh, 1)
        expected = h + HeckeElement.unit(sh).scaled(QMQ)
        assert h.bar() == expected

    def test_bar_is_multiplicative_on_words(self):
        sh = Shape(3, 1)
        for i, j in [(1, 2), (2, 1)]:
            lhs = (H(sh, i) * H(sh, j)).bar()
            rhs = H(sh, i).bar() * H(sh, j).bar()
            assert lhs == rhs

    @given(hecke_elements())
    @settings(max_examples=25, deadline=None)
    def test_bar_involution(self, x):
        assert x.bar().bar() == x

    @given(hecke_elements(), hecke_elements())
    @settings(max_examples=15, deadline=None)
    def test_bar_ring_hom(self, x, y):
        assert (x * y).bar() == x.bar() * y.bar()
        assert (x + y).bar() == x.bar() + y.bar()

    def test_bar_unitriangular(self):
        sh = Shape(3, 0)
        lengths = par_elements(Parabolic.full(sh))
        for perm in lengths:
            bb = HeckeElement.basis(sh, perm).bar()
            assert bb.coeff(perm) == 1
            for p, c in bb.terms.items():
                assert lengths[p] <= lengths[perm]


class TestSymmetrizer:
    def test_s2_symmetrizer(self):
        par = Parabolic(Shape(2, 0), frozenset({1}))
        S = symmetrizer(par)
        assert S.coeff((0, 1)) == LaurentPoly.q_power(1)
        assert S.coeff((1, 0)) == 1

    def test_eigenvalue_and_square(self):
        for shape in (Shape(2, 0), Shape(3, 0), Shape(2, 2), Shape(1, 3)):
            for par in all_parabolics(shape):
                S = symmetrizer(par)
                for i in par.generators:
                    h = H(shape, i)
                    assert S * h == S.scaled(LaurentPoly.q_power(-1)), (shape, par, i)
                    assert h * S == S.scaled(LaurentPoly.q_power(-1))
                assert S * S == S.scaled(group_qfactorial(par))

    def test_bar_fixed(self):
        for shape in (Shape(2, 0), Shape(2, 1), Shape(2, 2)):
            for par in all_parabolics(shape):
                S = symmetrizer(par)
                assert S.bar() == S

    def test_built_once_per_parabolic_and_read_only(self):
        for par in all_parabolics(Shape(2, 2)):
            S = symmetrizer(par)
            assert symmetrizer(par) is S
            with pytest.raises(TypeError):
                S.add_term(next(iter(S.terms)), LaurentPoly.one())
            with pytest.raises(TypeError):
                S.axpy(HeckeElement.unit(par.shape))
            assert S == symmetrizer.__wrapped__(par)

    def test_absorbs_coset_lengths(self):
        # S * H_sigma = q^{-l(sigma)} S for sigma in the parabolic
        par = Parabolic(Shape(3, 0), frozenset({1, 2}))
        S = symmetrizer(par)
        for p, l in par_elements(par).items():
            assert S * HeckeElement.basis(par.shape, p) == S.scaled(LaurentPoly.q_power(-l))


class TestAlgebraAxioms:
    @given(hecke_elements(), hecke_elements(), hecke_elements())
    @settings(max_examples=15, deadline=None)
    def test_associativity_distributivity(self, x, y, z):
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
