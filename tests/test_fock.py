"""Tests for the tensor space: quantum group action and Hecke action.

Expected vectors in the frozen tests were computed by hand from the
letter-level rules and the twisted coproduct before the module was written.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock.barinv import bar
from qfock.fock import FockVector, act, act_gen, apply_chevalley
from qfock.hecke import HeckeElement, symmetrizer
from qfock.laurent import LaurentPoly, div_exact, q_fact, q_int
from qfock.weightlat import (
    Parabolic,
    Shape,
    SignedTuple,
    Window,
    antidominant_rep,
    coset_reps,
    group_qfactorial,
    is_antidominant,
    stabilizer,
    window_tuples,
)


def T(m, n, *entries):
    return SignedTuple(Shape(m, n), entries)


def M(m, n, *entries):
    return FockVector.monomial(T(m, n, *entries))


def P(d):
    return LaurentPoly(d)


def apply_divided(v, kind, a, r):
    """The divided power E_a^{(r)} or F_a^{(r)} = (.)^r / [r]!, exactly."""
    if r < 0:
        raise ValueError("negative divided power")
    cur = v
    for _ in range(r):
        cur = apply_chevalley(cur, kind, a)
    fact = q_fact(r)
    return FockVector(v.shape, {f: div_exact(c, fact) for f, c in cur.terms.items()})


SHAPES = [Shape(2, 0), Shape(1, 1), Shape(0, 2), Shape(2, 1), Shape(1, 2)]


@st.composite
def monomials(draw, shapes=SHAPES):
    shape = draw(st.sampled_from(shapes))
    entries = tuple(
        draw(st.integers(-2, 3)) for _ in range(shape.size)
    )
    return SignedTuple(shape, entries)


@st.composite
def vectors(draw):
    shape = draw(st.sampled_from(SHAPES))
    k = draw(st.integers(1, 3))
    v = FockVector.zero(shape)
    for _ in range(k):
        entries = tuple(draw(st.integers(-2, 3)) for _ in range(shape.size))
        c = LaurentPoly(
            draw(
                st.dictionaries(
                    st.integers(-3, 3), st.integers(-4, 4), min_size=1, max_size=3
                )
            )
        )
        v = v + FockVector(shape, {SignedTuple(shape, entries): c})
    return v


class TestVectorArithmetic:
    def test_zero_and_monomial(self):
        z = FockVector.zero(Shape(1, 1))
        assert not z
        assert str(z) == "0"
        v = M(1, 1, 2, 5)
        assert v.coeff(T(1, 1, 2, 5)) == LaurentPoly.one()
        assert v.coeff(T(1, 1, 5, 2)) == LaurentPoly.zero()

    def test_cancellation(self):
        v = M(2, 0, 1, 2)
        assert not (v - v)
        w = v + v.scaled(-1)
        assert w == FockVector.zero(Shape(2, 0))

    def test_scaling_and_bar(self):
        v = M(1, 1, 1, 1).scaled(P({1: 1}))
        # 1|1 is alone in its block in 1..1, so bar only conjugates the scalar
        assert bar(v, Window(1, 1)) == M(1, 1, 1, 1).scaled(P({-1: 1}))
        assert v.scaled(0) == FockVector.zero(Shape(1, 1))

    def test_str(self):
        v = M(1, 1, 1, 2).scaled(P({1: 1}))
        assert str(v) == "(q)*M[1|2]"


class TestChevalleySingleFactor:
    """Letter-level action tables on one covariant and one dual factor."""

    def test_covariant(self):
        assert apply_chevalley(M(1, 0, 2), "E", 1) == M(1, 0, 1)
        assert apply_chevalley(M(1, 0, 1), "E", 1) == FockVector.zero(Shape(1, 0))
        assert apply_chevalley(M(1, 0, 1), "F", 1) == M(1, 0, 2)
        assert apply_chevalley(M(1, 0, 2), "F", 1) == FockVector.zero(Shape(1, 0))
        assert apply_chevalley(M(1, 0, 1), "K", 1) == M(1, 0, 1).scaled(P({1: 1}))
        assert apply_chevalley(M(1, 0, 2), "K", 1) == M(1, 0, 2)
        assert apply_chevalley(M(1, 0, 1), "Kinv", 1) == M(1, 0, 1).scaled(P({-1: 1}))

    def test_dual(self):
        assert apply_chevalley(M(0, 1, 1), "E", 1) == M(0, 1, 2)
        assert apply_chevalley(M(0, 1, 2), "E", 1) == FockVector.zero(Shape(0, 1))
        assert apply_chevalley(M(0, 1, 2), "F", 1) == M(0, 1, 1)
        assert apply_chevalley(M(0, 1, 1), "F", 1) == FockVector.zero(Shape(0, 1))
        assert apply_chevalley(M(0, 1, 1), "K", 1) == M(0, 1, 1).scaled(P({-1: 1}))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            apply_chevalley(M(1, 0, 1), "X", 1)


class TestChevalleyTwists:
    """Two-factor actions with the K-twists, frozen from hand computation."""

    def test_E_two_covariant(self):
        got = apply_chevalley(M(2, 0, 2, 2), "E", 1)
        want = M(2, 0, 1, 2).scaled(P({1: 1})) + M(2, 0, 2, 1)
        assert got == want

    def test_F_two_covariant(self):
        got = apply_chevalley(M(2, 0, 1, 1), "F", 1)
        want = M(2, 0, 2, 1) + M(2, 0, 1, 2).scaled(P({1: 1}))
        assert got == want

    def test_E_mixed(self):
        # v_2 (x) w_2, E_1: acts on v_2 with a twist from w_2 worth q^-1
        got = apply_chevalley(M(1, 1, 2, 2), "E", 1)
        assert got == M(1, 1, 1, 2).scaled(P({-1: 1}))

    def test_F_mixed(self):
        # v_1 (x) w_2, F_1: v-part gives M(2|2), w-part twists past v_1
        got = apply_chevalley(M(1, 1, 1, 2), "F", 1)
        want = M(1, 1, 2, 2) + M(1, 1, 1, 1).scaled(P({1: 1}))
        assert got == want

    def test_K_mixed_counts(self):
        got = apply_chevalley(M(2, 1, 1, 1, 1), "K", 1)
        assert got == M(2, 1, 1, 1, 1).scaled(P({1: 1}))
        got = apply_chevalley(M(1, 2, 1, 1, 1), "K", 1)
        assert got == M(1, 2, 1, 1, 1).scaled(P({-1: 1}))

    def test_linearity(self):
        v = M(2, 0, 2, 2).scaled(P({2: 3})) + M(2, 0, 1, 2)
        got = apply_chevalley(v, "E", 1)
        want = apply_chevalley(M(2, 0, 2, 2), "E", 1).scaled(P({2: 3})) + apply_chevalley(
            M(2, 0, 1, 2), "E", 1
        )
        assert got == want


def _letter_image(sector, kind, a, b):
    """The image letter of E_a/F_a on the letter b, or None if killed."""
    if kind == "E":
        if sector == 0:
            return a if b == a + 1 else None
        return a + 1 if b == a else None
    if sector == 0:
        return a + 1 if b == a else None
    return a if b == a + 1 else None


def _twist(sector, kind, a, b):
    """Exponent contribution of the K-twist accompanying E_a/F_a."""
    if kind == "E":
        t = (1 if b == a + 1 else 0) - (1 if b == a else 0)
    else:
        t = (1 if b == a else 0) - (1 if b == a + 1 else 0)
    return -t if sector else t


def reference_chevalley(v, kind, a):
    """E_a, F_a, K_a or Kinv_a case by case over generator and sector.

    The independent reference for `apply_chevalley`, which applies the
    same coproduct as one signed move rule with running twist sums.
    """
    shape = v.shape
    m, size = shape.m, shape.size
    sectors = [0] * m + [1] * shape.n
    res = FockVector(shape)
    for f, c in v.terms.items():
        if kind in ("K", "Kinv"):
            exp = sum(1 for b in f.entries[:m] if b == a) - sum(
                1 for b in f.entries[m:] if b == a
            )
            res.add_term(f, c * LaurentPoly.q_power(exp if kind == "K" else -exp))
            continue
        for j in range(size):
            img = _letter_image(sectors[j], kind, a, f.entries[j])
            if img is None:
                continue
            rng = range(j + 1, size) if kind == "E" else range(0, j)
            exp = sum(_twist(sectors[i], kind, a, f.entries[i]) for i in rng)
            g = SignedTuple(shape, f.entries[:j] + (img,) + f.entries[j + 1:])
            res.add_term(g, c * LaurentPoly.q_power(exp))
    return res


class TestChevalleyAgainstCaseRule:
    SMALL = [Shape(m, n) for m in range(4) for n in range(4) if 1 <= m + n <= 3]

    @pytest.mark.parametrize("shape", SMALL, ids=str)
    def test_every_tuple_in_window(self, shape):
        for f in window_tuples(shape, Window(0, 2)):
            v = FockVector(shape, {f: P({1: 2, -1: -1})})
            for kind in ("E", "F", "K", "Kinv"):
                for a in range(-1, 4):
                    got = apply_chevalley(v, kind, a)
                    assert got == reference_chevalley(v, kind, a), (f, kind, a)


def _comm_EF(v, a, b):
    ef = apply_chevalley(apply_chevalley(v, "F", b), "E", a)
    fe = apply_chevalley(apply_chevalley(v, "E", a), "F", b)
    return ef - fe


def _cartan_rhs(v, a):
    """(K_a K_{a+1}^-1 - K_a^-1 K_{a+1}) / (q - q^-1) on v, exactly."""
    res = FockVector.zero(v.shape)
    m = v.shape.m
    for f, c in v.terms.items():
        k = 0
        for pos in range(1, v.shape.size + 1):
            s = 1 if pos <= m else -1
            if f[pos] == a:
                k += s
            elif f[pos] == a + 1:
                k -= s
        res = res + FockVector(f.shape, {f: c * q_int(k)})
    return res


class TestQuantumGroupRelations:
    def test_commutator_glone_one(self):
        v = M(1, 1, 1, 2)
        assert _comm_EF(v, 1, 1) == v.scaled(q_int(2))
        assert _comm_EF(M(1, 1, 1, 1), 1, 1) == FockVector.zero(Shape(1, 1))

    @settings(max_examples=60, deadline=None)
    @given(monomials(), st.integers(-2, 2), st.integers(-2, 2))
    def test_commutator(self, f, a, b):
        v = FockVector.monomial(f)
        got = _comm_EF(v, a, b)
        want = _cartan_rhs(v, a) if a == b else FockVector.zero(f.shape)
        assert got == want

    @settings(max_examples=40, deadline=None)
    @given(monomials(), st.integers(-2, 2))
    def test_serre_adjacent(self, f, a):
        b = a + 1
        v = FockVector.monomial(f)

        def e(x, c):
            return apply_chevalley(x, "E", c)

        lhs = e(e(e(v, b), a), a) - e(e(e(v, a), b), a).scaled(q_int(2)) + e(
            e(e(v, a), a), b
        )
        assert lhs == FockVector.zero(f.shape)

    @settings(max_examples=40, deadline=None)
    @given(monomials(), st.integers(-2, 2))
    def test_distant_generators_commute(self, f, a):
        b = a + 2
        v = FockVector.monomial(f)
        for k1 in ("E", "F"):
            for k2 in ("E", "F"):
                one = apply_chevalley(apply_chevalley(v, k1, a), k2, b)
                two = apply_chevalley(apply_chevalley(v, k2, b), k1, a)
                assert one == two

    @settings(max_examples=40, deadline=None)
    @given(monomials(), st.integers(-2, 2), st.integers(-2, 2))
    def test_K_conjugation(self, f, a, b):
        # K_a E_b K_a^-1 = q^{d_ab - d_{a,b+1}} E_b
        v = FockVector.monomial(f)
        lhs = apply_chevalley(apply_chevalley(v, "E", b), "K", a)
        mid = apply_chevalley(apply_chevalley(v, "K", a), "E", b)
        c = (1 if a == b else 0) - (1 if a == b + 1 else 0)
        assert lhs == mid.scaled(LaurentPoly.q_power(c))


class TestDividedPowers:
    def test_divided_square(self):
        got = apply_divided(M(2, 0, 2, 2), "E", 1, 2)
        assert got == M(2, 0, 1, 1)

    def test_divided_zero_and_one(self):
        v = M(2, 0, 2, 2)
        assert apply_divided(v, "E", 1, 0) == v
        assert apply_divided(v, "E", 1, 1) == apply_chevalley(v, "E", 1)

    def test_negative_power(self):
        with pytest.raises(ValueError):
            apply_divided(M(1, 0, 1), "E", 1, -1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(-1, 2), st.integers(2, 3))
    def test_divided_f_on_aligned(self, a, r):
        # F_a^(r) on v_a^{(x)r} has image [r]!/[r]! = 1 times the shuffle sum
        shape = Shape(r, 0)
        f = SignedTuple(shape, (a,) * r)
        got = apply_divided(FockVector.monomial(f), "F", a, r)
        assert got.coeff(SignedTuple(shape, (a + 1,) * r)) == LaurentPoly.one()


class TestHeckeAction:
    def test_covariant_rules(self):
        assert act_gen(M(2, 0, 1, 2), 1) == M(2, 0, 2, 1)
        got = act_gen(M(2, 0, 2, 1), 1)
        assert got == M(2, 0, 1, 2) + M(2, 0, 2, 1).scaled(P({-1: 1, 1: -1}))
        assert act_gen(M(2, 0, 1, 1), 1) == M(2, 0, 1, 1).scaled(P({-1: 1}))

    def test_dual_rules_reverse(self):
        assert act_gen(M(0, 2, 2, 1), 1) == M(0, 2, 1, 2)
        got = act_gen(M(0, 2, 1, 2), 1)
        assert got == M(0, 2, 2, 1) + M(0, 2, 1, 2).scaled(P({-1: 1, 1: -1}))

    def test_tied_term_shifts_its_whole_coefficient(self):
        # a tied pair scales the coefficient by q^-1, every term of it,
        # beside an untied term, and leaves the input vector as it was
        c = P({2: 1, 0: 4, -1: -3})
        v = M(2, 1, 3, 3, 1).scaled(c) + M(2, 1, 2, 3, 1)
        got = act_gen(v, 1)
        assert got == M(2, 1, 3, 3, 1).scaled(P({1: 1, -1: 4, -2: -3})) + M(2, 1, 3, 2, 1)
        assert v.coeff(T(2, 1, 3, 3, 1)) == c

    def test_rejects_boundary_generator(self):
        with pytest.raises(ValueError):
            act_gen(M(1, 1, 1, 1), 1)

    @settings(max_examples=50, deadline=None)
    @given(monomials([Shape(2, 0), Shape(0, 2), Shape(2, 1), Shape(1, 2)]))
    def test_quadratic_relation(self, f):
        # v H_i^2 = v + (q^-1 - q) v H_i
        shape = f.shape
        i = 1 if shape.m != 1 else 2
        v = FockVector.monomial(f)
        lhs = act_gen(act_gen(v, i), i)
        rhs = v + act_gen(v, i).scaled(P({-1: 1, 1: -1}))
        assert lhs == rhs

    @settings(max_examples=30, deadline=None)
    @given(vectors())
    def test_module_associativity(self, v):
        shape = v.shape
        gens = [i for i in range(1, shape.size) if i != shape.m]
        if not gens:
            return
        x = HeckeElement.generator(shape, gens[0])
        y = HeckeElement.generator(shape, gens[-1]) + HeckeElement.unit(shape).scaled(
            P({2: 1})
        )
        assert act(v, x * y) == act(act(v, x), y)

    @settings(max_examples=60, deadline=None)
    @given(monomials([Shape(2, 0), Shape(0, 2), Shape(2, 1), Shape(1, 2)]), st.integers(-2, 2))
    def test_commutes_with_quantum_group(self, f, a):
        shape = f.shape
        v = FockVector.monomial(f)
        for i in range(1, shape.size):
            if i == shape.m:
                continue
            for kind in ("E", "F", "K"):
                one = act_gen(apply_chevalley(v, kind, a), i)
                two = apply_chevalley(act_gen(v, i), kind, a)
                assert one == two


class TestSymmetrizerAction:
    def closed_form(self, f, par):
        stab = stabilizer(f, par)
        reps = coset_reps(stab, par)
        top = reps[-1][1]
        out = FockVector.zero(f.shape)
        for tau, ltau in reps:
            c = LaurentPoly.q_power(top - ltau)
            out = out + FockVector(f.shape, {f.act(tau): c})
        return out.scaled(group_qfactorial(stab))

    def test_closed_form_matches_action(self):
        # the closed form is for antidominant tuples
        cases = [
            (T(2, 0, 1, 2), Parabolic(Shape(2, 0), {1})),
            (T(2, 0, 1, 1), Parabolic(Shape(2, 0), {1})),
            (T(0, 2, 2, 1), Parabolic(Shape(0, 2), {1})),
            (T(2, 1, 1, 2, 4), Parabolic(Shape(2, 1), {1})),
            (T(1, 3, 0, 3, 1, 1), Parabolic(Shape(1, 3), {2, 3})),
            (T(1, 3, 0, 2, 2, 2), Parabolic(Shape(1, 3), {2, 3})),
            (T(3, 0, 1, 5, 5), Parabolic(Shape(3, 0), {1, 2})),
        ]
        for f, par in cases:
            assert is_antidominant(f, par)
            got = act(FockVector.monomial(f), symmetrizer(par))
            assert got == self.closed_form(f, par), f"{f} {par}"

    def test_reduction_to_antidominant(self):
        # M_f S = q^{-len(tau)} M_{f0} S where f = f0 tau, tau minimal
        cases = [
            (T(0, 2, 1, 2), Parabolic(Shape(0, 2), {1})),
            (T(3, 0, 5, 1, 5), Parabolic(Shape(3, 0), {1, 2})),
            (T(1, 3, 0, 1, 3, 1), Parabolic(Shape(1, 3), {2, 3})),
        ]
        for f, par in cases:
            f0, _, ltau = antidominant_rep(f, par)
            sym = symmetrizer(par)
            lhs = act(FockVector.monomial(f), sym)
            rhs = act(FockVector.monomial(f0), sym).scaled(
                LaurentPoly.q_power(-ltau)
            )
            assert lhs == rhs, f"{f} {par}"

    def test_eigenvector_property(self):
        par = Parabolic(Shape(0, 3), {1, 2})
        v = act(M(0, 3, 2, 0, 1), symmetrizer(par))
        for i in (1, 2):
            assert act_gen(v, i) == v.scaled(P({-1: 1}))

    def test_exhaustive_small(self):
        # every tuple with letters in a window of 2, every parabolic of (0,2)
        shape = Shape(0, 2)
        par = Parabolic(shape, {1})
        sym = symmetrizer(par)
        for x in (0, 1):
            for y in (0, 1):
                f = T(0, 2, x, y)
                f0, _, ltau = antidominant_rep(f, par)
                want = self.closed_form(f0, par).scaled(LaurentPoly.q_power(-ltau))
                assert act(FockVector.monomial(f), sym) == want
