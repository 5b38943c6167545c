import pytest
from hypothesis import given, strategies as st

from qfock.laurent import (
    LaurentCombination,
    LaurentPoly,
    NotAntisymmetric,
    NotDivisible,
    div_exact,
    neg_part,
    pos_part,
    q_fact,
    q_int,
)


def P(coeffs):
    return LaurentPoly(coeffs)


polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6),
)
nonzero_polys = polys.filter(bool)


class TestBasics:
    def test_zero_pruning(self):
        assert P({2: 0, 1: 3}).c == {1: 3}
        assert not P({0: 0})
        assert P({}) == LaurentPoly.zero()

    def test_equality_with_int(self):
        assert P({0: 5}) == 5
        assert P({}) == 0
        assert P({1: 1}) != 1

    def test_product_example(self):
        # (q + q^-1)(q - q^-1) = q^2 - q^-2
        a = P({1: 1, -1: 1})
        b = P({1: 1, -1: -1})
        assert a * b == P({2: 1, -2: -1})

    def test_scalar_and_power(self):
        assert 3 * P({1: 2}) == P({1: 6})
        assert P({1: 1, 0: 1}) ** 2 == P({2: 1, 1: 2, 0: 1})
        assert P({5: 7}) ** 0 == 1
        with pytest.raises(ValueError):
            P({1: 1}) ** -1

    def test_str(self):
        assert str(P({2: 1, 0: 1, -2: 1})) == "q^2 + 1 + q^-2"
        assert str(P({1: -1, -3: 4})) == "-q + 4*q^-3"
        assert str(P({})) == "0"

    def test_json_roundtrip(self):
        p = P({-1: 1, 1: 1})
        assert p.to_json() == {"poly": {"-1": 1, "1": 1}}
        assert LaurentPoly.from_json(p.to_json()) == p


class TestQInt:
    def test_values(self):
        assert q_int(0) == 0
        assert q_int(1) == 1
        assert q_int(2) == P({1: 1, -1: 1})
        assert q_int(3) == P({2: 1, 0: 1, -2: 1})
        assert q_int(-2) == -q_int(2)

    def test_factorial(self):
        assert q_fact(0) == 1
        assert q_fact(1) == 1
        assert q_fact(3) == q_int(2) * q_int(3)
        # [3]! = (q + q^-1)(q^2 + 1 + q^-2) = q^3 + 2q + 2q^-1 + q^-3
        assert q_fact(3) == P({3: 1, 1: 2, -1: 2, -3: 1})
        with pytest.raises(ValueError):
            q_fact(-1)

    def test_q_int_bar_symmetric(self):
        for r in range(8):
            assert q_int(r).bar() == q_int(r)
            assert q_fact(r).bar() == q_fact(r)

    def test_at_one(self):
        assert q_int(5).at_one() == 5
        assert q_fact(4).at_one() == 24


class TestDivision:
    def test_examples(self):
        assert div_exact(P({2: 1, -2: -1}), P({1: 1, -1: -1})) == P({1: 1, -1: 1})
        assert div_exact(q_fact(3), q_int(3)) == q_int(2)
        assert div_exact(P({}), q_int(2)) == 0

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            div_exact(P({1: 1, 0: 1}), P({1: 1, -1: 1}))
        with pytest.raises(NotDivisible):
            div_exact(P({0: 3}), P({0: 2}))
        with pytest.raises(NotDivisible):
            div_exact(P({0: 1}), P({}))

    @given(polys, nonzero_polys)
    def test_roundtrip(self, a, b):
        assert div_exact(a * b, b) == a


class TestParts:
    def test_pos_neg(self):
        d = P({3: 2, 1: -1, -1: 1, -3: -2})
        p = pos_part(d)
        n = neg_part(d)
        assert p == P({3: 2, 1: -1})
        assert n == P({-1: 1, -3: -2})
        assert p - p.bar() == d
        assert n - n.bar() == d

    def test_not_antisymmetric(self):
        with pytest.raises(NotAntisymmetric):
            pos_part(P({0: 1}))
        with pytest.raises(NotAntisymmetric):
            neg_part(P({2: 1, -2: 1}))

    @given(st.dictionaries(st.integers(1, 6), st.integers(-9, 9), max_size=5))
    def test_reassembly(self, half):
        p = LaurentPoly(half)
        d = p - p.bar()
        assert pos_part(d) == p
        assert pos_part(d) - pos_part(d).bar() == d
        assert neg_part(d) - neg_part(d).bar() == d


class TestRingAxioms:
    @given(polys, polys, polys)
    def test_ring(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a * b == b * a
        assert a + b == b + a
        assert a - a == 0

    @given(polys, polys)
    def test_bar_automorphism(self, a, b):
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()
        assert a.bar().bar() == a

    @given(polys)
    def test_at_one_hom(self, a):
        assert (a * a).at_one() == a.at_one() ** 2

    @given(polys)
    def test_json(self, a):
        assert LaurentPoly.from_json(a.to_json()) == a


combinations = st.builds(
    lambda terms: LaurentCombination("s", terms),
    st.dictionaries(st.sampled_from("abcd"), polys, max_size=4),
)
scalars = st.one_of(st.integers(-3, 3), polys)


class TestLaurentCombination:
    @given(combinations, combinations, scalars)
    def test_axpy_agrees_with_operators(self, u, v, c):
        before = {k: dict(a.c) for k, a in v.terms.items()}
        got = u.scaled(1).axpy(v, c)
        assert got == u + v.scaled(c)
        assert u.scaled(1).axpy(v) == u + v
        assert u.scaled(1).axpy(v, -1) == u - v == u + (-v)
        assert {k: dict(a.c) for k, a in v.terms.items()} == before
        for w in (u, got, u + v, u - v, v.scaled(c), got.add_term("a", P({0: 1}))):
            assert all(w.terms.values())

    @given(combinations)
    def test_self_cancellation_is_empty(self, v):
        assert not v - v
        assert (v - v).terms == {}
        w = v.scaled(1)
        assert not w.axpy(w, -1)
        assert v.scaled(0).terms == {}

    def test_add_term_prunes_and_coeff_defaults_to_zero(self):
        v = LaurentCombination("s", {"a": P({1: 1})})
        v.add_term("a", P({1: -1})).add_term((1, 2), P({0: 3}))
        assert v.terms == {(1, 2): P({0: 3})}
        assert v.coeff([1, 2]) == 3
        assert v.coeff("a") == 0
        assert v != LaurentCombination("t", v.terms)
