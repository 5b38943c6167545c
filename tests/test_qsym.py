"""Tests for the symmetrized image space: bases, projection, canonical bases."""

import itertools
import warnings
from collections import Counter
from types import MappingProxyType

import pytest

import qfock.canonical
import qfock.qsym
from qfock.barinv import BarContext, bar, bar_context
from qfock.canonical import TruncationWarning, canonical, dual_canonical, orbit_data, project
from qfock.fock import FockVector, act, apply_chevalley
from qfock.hecke import HeckeElement, symmetrizer
from qfock.laurent import LaurentPoly, NotDivisible, div_exact
from qfock.qsym import (
    QSymExpansion,
    _image_bar,
    base_change,
    mtilde_expand,
    n_ratio,
    ntilde_expand,
    qsym_canonical,
    qsym_canonical_intrinsic,
    qsym_canonical_push,
    qsym_dual_canonical,
    qsym_dual_canonical_push,
    reexpress,
)
from qfock.verify import verify_qsym
from qfock.weightlat import (
    CheckFailed,
    Parabolic,
    Shape,
    SignedTuple,
    Window,
    antidominant_rep,
    block,
    bruhat_leq,
    group_qfactorial,
    is_antidominant,
    longest_element,
    stabilizer,
    window_tuples,
)


def T(m, n, *entries):
    return SignedTuple(Shape(m, n), entries)


def M(m, n, *entries):
    return FockVector.monomial(T(m, n, *entries))


def P(d):
    return LaurentPoly(d)


Q = P({1: 1})
QINV = P({-1: 1})
ONE = LaurentPoly.one()
# B_f in each basis; N_f = ([W]/[W_f]) Ntilde_f is built here independently of
# qsym's own scale s_N(f) Mtilde_f
EXPANDERS = {
    "Ntilde": ntilde_expand,
    "Mtilde": mtilde_expand,
    "N": lambda f, par: ntilde_expand(f, par).scaled(n_ratio(f, par)),
}
# s_B(f) in B_f = s_B(f) Mtilde_f, from the q-factorials of the groups
SCALES = {
    "Ntilde": lambda f, par: group_qfactorial(stabilizer(f, par)),
    "Mtilde": lambda f, par: ONE,
    "N": lambda f, par: group_qfactorial(par),
}


def in_basis(coords, par, basis):
    """Mtilde coordinates, as reexpress returns them, rewritten in basis."""
    return {f: div_exact(c, SCALES[basis](f, par)) for f, c in coords.items()}


def expand(terms, par, basis="Ntilde"):
    """The tensor-space vector whose coordinates in one image basis are terms."""
    out = FockVector.zero(par.shape)
    for f, c in terms.items():
        out.axpy(EXPANDERS[basis](f, par), c)
    return out


def all_parabolics(shape):
    gens = sorted(Parabolic.full(shape).generators)
    for r in range(len(gens) + 1):
        for sub in itertools.combinations(gens, r):
            yield Parabolic(shape, sub)


def column(par, basis, terms):
    """A canonical image column record holding terms, keyed by its first tuple."""
    target = next(iter(terms))
    return QSymExpansion(target, "canonical", basis, par, Window(0, 2), MappingProxyType(terms))


class TestExpansions:
    def test_regular_orbit(self):
        par = Parabolic(Shape(2, 1), {1})
        got = ntilde_expand(T(2, 1, 1, 2, 7), par)
        assert got == M(2, 1, 1, 2, 7).scaled(Q) + M(2, 1, 2, 1, 7)

    def test_stabilized_monomial(self):
        par = Parabolic(Shape(2, 1), {1})
        got = ntilde_expand(T(2, 1, 1, 1, 5), par)
        assert got == M(2, 1, 1, 1, 5).scaled(P({1: 1, -1: 1}))

    def test_trivial_group(self):
        par = Parabolic.trivial(Shape(1, 1))
        assert ntilde_expand(T(1, 1, 2, 5), par) == M(1, 1, 2, 5)

    def test_rejects_non_antidominant(self):
        par = Parabolic(Shape(2, 1), {1})
        with pytest.raises(ValueError):
            ntilde_expand(T(2, 1, 2, 1, 7), par)

    def test_mtilde_divides_out_stabilizer(self):
        par = Parabolic(Shape(2, 0), {1})
        assert mtilde_expand(T(2, 0, 1, 1), par) == M(2, 0, 1, 1)
        assert mtilde_expand(T(2, 0, 1, 2), par) == ntilde_expand(
            T(2, 0, 1, 2), par
        )

    def test_n_scales_by_index(self):
        # N_f = [W] Mtilde_f = ([W]/[W_f]) Ntilde_f
        par = Parabolic(Shape(2, 0), {1})
        w_q = group_qfactorial(par)
        f = T(2, 0, 1, 2)
        assert mtilde_expand(f, par).scaled(w_q) == ntilde_expand(f, par).scaled(P({1: 1, -1: 1}))
        g = T(2, 0, 1, 1)
        assert mtilde_expand(g, par).scaled(w_q) == ntilde_expand(g, par)

    def test_dual_sector_orbit(self):
        par = Parabolic(Shape(0, 2), {1})
        got = ntilde_expand(T(0, 2, 2, 1), par)
        assert got == M(0, 2, 2, 1).scaled(Q) + M(0, 2, 1, 2)

    def test_mtilde_closed_form(self):
        # Mtilde_h = sum over minimal coset reps x of q^(top(h) - l(x)) M_{h.x},
        # the identity behind canonical's orbit-top route
        cases = [
            (Shape(2, 2), Window(0, 2)),
            (Shape(3, 1), Window(0, 2)),
            (Shape(1, 3), Window(0, 2)),
            (Shape(4, 0), Window(0, 2)),
            (Shape(0, 4), Window(0, 2)),
            (Shape(2, 1), Window(-1, 2)),
            (Shape(3, 2), Window(0, 1)),
        ]
        pairs = 0
        for shape, w in cases:
            gens = sorted(Parabolic.full(shape).generators)
            for r in range(1, len(gens) + 1):
                for sub in itertools.combinations(gens, r):
                    par = Parabolic(shape, sub)
                    for h in anti_members(par, w):
                        _, reps, top, _ = orbit_data(stabilizer(h, par), par)
                        terms = {h.act(x): LaurentPoly.q_power(top - lx) for x, lx in reps}
                        assert FockVector(shape, terms) == mtilde_expand(h, par), (h, par)
                        pairs += 1
        assert pairs == 1142

    def test_orbit_data_is_one_immutable_entry_per_stabilizer(self):
        par, w = Parabolic.full(Shape(2, 2)), Window(-1, 2)
        members = anti_members(par, w)
        orbit_data.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for f in members:
                base_change(qsym_canonical(f, par, w), "Ntilde")
                qsym_dual_canonical_push(f, par, w)
                reexpress(mtilde_expand(f, par), par, {})
        stabs = {stabilizer(f, par) for f in members}
        assert orbit_data.cache_info().currsize == len(stabs) < len(members)
        _, reps, _, _ = orbit_data(stabilizer(members[0], par), par)
        assert isinstance(reps, tuple) and all(isinstance(r, tuple) for r in reps)
        with pytest.raises(TypeError):
            reps[0] = reps[-1]


class TestBaseChange:
    def test_round_trip_through_all_bases(self):
        par = Parabolic(Shape(2, 1), {1})
        v = column(par, "Ntilde", {T(2, 1, 1, 1, 5): ONE})
        m = base_change(v, "Mtilde")
        assert m.coefficients == {T(2, 1, 1, 1, 5): P({1: 1, -1: 1})}
        assert (m.target, m.mode, m.parabolic, m.window) == (v.target, v.mode, v.parabolic, v.window)
        assert base_change(m, "Ntilde") == v
        n = base_change(v, "N")
        assert n.coefficients == v.coefficients
        assert base_change(n, "Ntilde") == v

    def test_inexact_division_is_an_error(self):
        par = Parabolic(Shape(2, 1), {1})
        m = column(par, "Mtilde", {T(2, 1, 1, 1, 5): ONE})
        with pytest.raises(NotDivisible):
            base_change(m, "Ntilde")

    def test_coordinates_transform_against_expansion(self):
        par = Parabolic(Shape(2, 0), {1})
        vectors = [column(par, "N", {T(2, 0, 1, 2): Q, T(2, 0, 1, 1): P({0: 2})})]
        # every antidominant index in 0..2; N coordinates stay integral in
        # every basis, so all nine changes are exact
        for par in (
            Parabolic(Shape(2, 1), {1}),
            Parabolic(Shape(2, 2), {1, 3}),
            Parabolic.full(Shape(0, 3)),
        ):
            anti = [
                f for f in window_tuples(par.shape, Window(0, 2)) if is_antidominant(f, par)
            ]
            terms = {f: P({k % 3 - 1: k + 1, 2: -1}) for k, f in enumerate(anti)}
            vectors.append(column(par, "N", terms))
        for v in vectors:
            coords = {to: base_change(v, to) for to in ("Ntilde", "Mtilde", "N")}
            want = expand(v.coefficients, v.parabolic, "N")
            for frm, u in coords.items():
                assert expand(u.coefficients, u.parabolic, frm) == want, frm
                for to in coords:
                    there = base_change(u, to)
                    assert there == coords[to], (frm, to)
                    assert base_change(there, frm) == u, (frm, to)

    def test_rejects_unknown_basis(self):
        par = Parabolic.trivial(Shape(1, 1))
        v = column(par, "Ntilde", {T(1, 1, 1, 2): ONE})
        with pytest.raises(ValueError, match="unknown basis 'monomial'"):
            base_change(v, "monomial")
        with pytest.raises(ValueError, match="unknown basis 'monomial'"):
            base_change(v._replace(basis="monomial"), "N")


class TestPhiZeta:
    """phi_zeta, the projection onto the image in Ntilde coordinates (canonical.project)."""

    def test_antidominant_is_fixed(self):
        par = Parabolic(Shape(2, 1), {1})
        assert project(M(2, 1, 1, 2, 5).terms, par) == {T(2, 1, 1, 2, 5): ONE}

    def test_single_swap(self):
        par = Parabolic(Shape(2, 1), {1})
        assert project(M(2, 1, 2, 1, 5).terms, par) == {T(2, 1, 1, 2, 5): QINV}

    def test_matches_right_symmetrization_exhaustively(self):
        w = Window(1, 3)
        shapes = [
            Shape(2, 0), Shape(1, 1), Shape(0, 2),
            Shape(3, 0), Shape(2, 1), Shape(1, 2), Shape(0, 3),
            Shape(4, 0), Shape(3, 1), Shape(2, 2), Shape(1, 3), Shape(0, 4),
        ]
        for shape in shapes:
            pars = [Parabolic.full(shape)]
            if shape == Shape(2, 2):
                pars += [Parabolic(shape, {1}), Parabolic(shape, {3})]
            for par in pars:
                s = symmetrizer(par)
                for f in window_tuples(shape, w):
                    f0, _, ltau = antidominant_rep(f, par)
                    want = ntilde_expand(f0, par).scaled(
                        LaurentPoly.q_power(-ltau)
                    )
                    assert act(FockVector.monomial(f), s) == want

    def test_hecke_generators_scale(self):
        shape = Shape(2, 2)
        par = Parabolic(shape, {1, 3})
        w = Window(1, 2)
        for f in window_tuples(shape, w):
            v = FockVector.monomial(f)
            for i in (1, 3):
                h = HeckeElement.generator(shape, i)
                left = expand(project(act(v, h).terms, par), par)
                right = expand(project(v.terms, par), par)
                assert left == right.scaled(QINV)

    def test_longer_hecke_word_scales(self):
        shape = Shape(0, 3)
        par = Parabolic.full(shape)
        v = M(0, 3, 3, 1, 2) + M(0, 3, 2, 2, 1).scaled(Q)
        sigma = (1, 2, 0)
        h = HeckeElement.basis(shape, sigma)
        left = expand(project(act(v, h).terms, par), par)
        right = expand(project(v.terms, par), par)
        assert left == right.scaled(P({-2: 1}))

    def test_chevalley_equivariance(self):
        shape = Shape(2, 1)
        par = Parabolic(shape, {1})
        vs = [
            M(2, 1, 1, 2, 1),
            M(2, 1, 2, 1, 1) + M(2, 1, 1, 1, 2).scaled(Q),
            M(2, 1, 2, 2, 2).scaled(P({0: 3, -1: 1})),
        ]
        for v in vs:
            for kind in ("E", "F", "K", "Kinv"):
                for a in (0, 1, 2):
                    left = expand(project(apply_chevalley(v, kind, a).terms, par), par)
                    right = apply_chevalley(expand(project(v.terms, par), par), kind, a)
                    assert left == right

    def test_linearity_with_cancellation(self):
        par = Parabolic(Shape(2, 0), {1})
        v = M(2, 0, 2, 1) + M(2, 0, 1, 2).scaled(P({-1: -1}))
        assert project(v.terms, par) == {}


class TestReexpress:
    def test_each_basis_recovers_itself(self):
        par = Parabolic(Shape(2, 1), {1})
        for f in (T(2, 1, 1, 2, 5), T(2, 1, 1, 1, 5)):
            for basis, expander in EXPANDERS.items():
                assert reexpress(expander(f, par), par, {}) == {f: SCALES[basis](f, par)}

    def test_linear_combination(self):
        par = Parabolic(Shape(2, 0), {1})
        f, g = T(2, 0, 1, 2), T(2, 0, 1, 1)
        v = ntilde_expand(f, par).scaled(Q) + ntilde_expand(g, par).scaled(
            P({0: 2})
        )
        # Ntilde_f = Mtilde_f (trivial stabilizer), Ntilde_g = [2] Mtilde_g
        assert reexpress(v, par, {}) == {f: Q, g: P({-1: 2, 1: 2})}

    def test_vector_outside_image(self):
        par = Parabolic(Shape(2, 0), {1})
        with pytest.raises(CheckFailed, match="not in the symmetrized image"):
            reexpress(M(2, 0, 2, 1), par, {})

    def test_round_trip_through_phi(self):
        par = Parabolic(Shape(2, 2), {1, 3})
        v = M(2, 2, 2, 1, 1, 2) + M(2, 2, 1, 2, 2, 1).scaled(P({2: 3}))
        img = project(v.terms, par)
        assert in_basis(reexpress(expand(img, par), par, {}), par, "Ntilde") == img


class TestQsymCanonical:
    def test_trivial_group_relabels(self):
        shape = Shape(1, 1)
        par = Parabolic.trivial(shape)
        w = Window(0, 2)
        exp = qsym_canonical(T(1, 1, 2, 2), par, w)
        plain = canonical(T(1, 1, 2, 2), w)
        assert exp.coefficients == plain.coefficients
        assert exp.basis == "N"

    def test_singleton_block(self):
        par = Parabolic(Shape(2, 0), {1})
        exp = qsym_canonical(T(2, 0, 1, 2), par, Window(1, 2))
        assert exp.coefficients == {T(2, 0, 1, 2): ONE}

    def test_rejects_non_antidominant(self):
        par = Parabolic(Shape(2, 0), {1})
        with pytest.raises(ValueError):
            qsym_canonical(T(2, 0, 2, 1), par, Window(1, 2))

    def test_unitriangular_with_positive_corrections(self):
        shape = Shape(2, 1)
        par = Parabolic(shape, {1})
        w = Window(1, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for f in window_tuples(shape, w):
                if not is_antidominant(f, par):
                    continue
                exp = qsym_canonical(f, par, w)
                assert exp.coeff(f) == ONE
                for g, c in exp.coefficients.items():
                    assert is_antidominant(g, par)
                    if g != f:
                        assert bruhat_leq(g, f) and g != f
                        assert c.min_exp() >= 1

    def test_vector_expands_inside_image(self):
        par = Parabolic(Shape(2, 2), {1, 3})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            exp = qsym_canonical(T(2, 2, 1, 2, 2, 1), par, Window(1, 2))
        assert exp.basis == "N"
        coords = reexpress(expand(exp.coefficients, par, "N"), par, {})
        assert in_basis(coords, par, "N") == exp.coefficients

    @pytest.mark.parametrize(
        "shape, w, count",
        [
            (Shape(2, 2), Window(-2, 4), 672),
            (Shape(3, 2), Window(0, 4), 214),
            (Shape(3, 3), Window(0, 3), 56),
        ],
        ids=["2|2", "3|2", "3|3"],
    )
    def test_monomial_at_regular_entries_of_full_parabolic(self, shape, w, count):
        """In N coordinates of the full-parabolic image, a coefficient at a
        regular g (distinct letters within each sector) is exactly q^k."""
        par = Parabolic.full(shape)
        regular = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for f in window_tuples(shape, w):
                if not is_antidominant(f, par):
                    continue
                exp = qsym_canonical(f, par, w)
                assert exp.basis == "N"
                for g, c in exp.coefficients.items():
                    cov, dual = g.entries[: shape.m], g.entries[shape.m :]
                    if len(set(cov)) == len(cov) and len(set(dual)) == len(dual):
                        regular += 1
                        assert list(c.c.values()) == [1], (f, g, str(c))
        assert regular == count

    def test_irregular_entry_need_not_be_monomial(self):
        par = Parabolic.full(Shape(2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            exp = qsym_canonical(T(2, 2, 0, 1, 1, 0), par, Window(-2, 4))
        assert exp.coeff(T(2, 2, 0, 0, 0, 0)) == P({3: 1, 1: 1})


class TestQsymDualCanonical:
    def test_trivial_group_relabels(self):
        shape = Shape(1, 1)
        par = Parabolic.trivial(shape)
        w = Window(0, 3)
        exp = qsym_dual_canonical(T(1, 1, 3, 3), par, w)
        plain = dual_canonical(T(1, 1, 3, 3), w)
        assert exp.coefficients == plain.coefficients
        assert exp.basis == "Ntilde"

    def test_singleton_block(self):
        par = Parabolic(Shape(2, 0), {1})
        exp = qsym_dual_canonical(T(2, 0, 1, 2), par, Window(1, 2))
        assert exp.coefficients == {T(2, 0, 1, 2): ONE}

    def test_non_antidominant_projects_to_zero(self):
        # only the push-forward answers there; the image route refuses
        cases = [
            (T(2, 0, 2, 1), Parabolic(Shape(2, 0), {1})),
            (T(2, 1, 2, 1, 1), Parabolic(Shape(2, 1), {1})),
        ]
        for f, par in cases:
            assert qsym_dual_canonical_push(f, par, Window(1, 2)).coefficients == {}
            with pytest.raises(ValueError, match="is not antidominant"):
                qsym_dual_canonical(f, par, Window(1, 2))

    def test_diagonal_one_and_negative_corrections(self):
        shape = Shape(2, 1)
        par = Parabolic(shape, {1})
        w = Window(1, 2)
        for f in window_tuples(shape, w):
            if not is_antidominant(f, par):
                continue
            exp = qsym_dual_canonical(f, par, w)
            assert exp.coeff(f) == ONE
            for g, c in exp.coefficients.items():
                if g != f:
                    assert bruhat_leq(g, f)
                    assert c.max_exp() <= -1


class TestIntrinsic:
    def test_singleton(self):
        par = Parabolic(Shape(2, 0), {1})
        tn, tm = qsym_canonical_intrinsic(T(2, 0, 1, 2), par, Window(1, 2))
        assert tn.coefficients == {T(2, 0, 1, 2): ONE}
        # N_f = [2] Mtilde_f
        assert tm.coefficients == {T(2, 0, 1, 2): P({-1: 1, 1: 1})}
        assert (tn.basis, tm.basis) == ("N", "Mtilde")

    def test_agrees_with_push_forward(self):
        cases = [
            (Shape(2, 0), Parabolic(Shape(2, 0), {1}), Window(1, 3)),
            (Shape(1, 1), Parabolic.trivial(Shape(1, 1)), Window(0, 2)),
            (Shape(2, 1), Parabolic(Shape(2, 1), {1}), Window(1, 2)),
            (Shape(1, 2), Parabolic(Shape(1, 2), {2}), Window(1, 2)),
            (Shape(2, 2), Parabolic(Shape(2, 2), {1, 3}), Window(1, 2)),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for shape, par, w in cases:
                for f in window_tuples(shape, w):
                    if not is_antidominant(f, par):
                        continue
                    n_anti = sum(
                        1 for g in block(f, w) if is_antidominant(g, par)
                    )
                    assert n_anti <= 12
                    tn, tm = qsym_canonical_intrinsic(f, par, w)
                    push = qsym_canonical_push(f, par, w)
                    assert tn.coefficients == push.coefficients
                    assert tm == base_change(push, "Mtilde")
                    assert in_basis(tm.coefficients, par, "N") == push.coefficients

    def test_expands_each_tuple_once(self, monkeypatch):
        """One act per distinct anti-dominant tuple the solve reaches."""
        par, w = Parabolic(Shape(2, 2), {1}), Window(-1, 2)
        f = T(2, 2, 1, 2, 2, 1)
        real, expanded = qfock.qsym.act, []

        def counting(v, h):
            expanded.extend(v.terms)
            return real(v, h)

        monkeypatch.setattr(qfock.qsym, "act", counting)
        qsym_canonical_intrinsic(f, par, w)
        assert f in expanded and len(expanded) > 1
        assert len(expanded) == len(set(expanded)), sorted(map(str, expanded))
        assert set(expanded) <= {g for g in block(f, w) if is_antidominant(g, par)}

    @pytest.mark.parametrize(
        "par", list(all_parabolics(Shape(2, 2))), ids=lambda par: f"{par.shape}-{par}"
    )
    def test_memo_changes_no_image_bar(self, par):
        w = Window(-1, 2)
        f = T(2, 2, 1, 2, 2, 1)
        members = [g for g in block(f, w) if is_antidominant(g, par)]
        memo = {}
        for g in members:
            fresh = _image_bar(g, par, w, {})
            assert _image_bar(g, par, w, memo) == fresh, g
            # the Mtilde column of bar(Mtilde_g) is the N column of bar(N_g),
            # with N_g built from Ntilde_g and the index, not from Mtilde_g
            assert expand(fresh, par, "N") == bar(EXPANDERS["N"](g, par), w), g
        assert set(memo) == set(members)

    def test_bars_each_solved_tuple_once(self, monkeypatch):
        """One solve, in N coordinates: each solved tuple's vector is barred once."""
        par, w = Parabolic(Shape(2, 2), {1}), Window(-1, 2)
        f = T(2, 2, 1, 2, 2, 1)
        real_bar, real_image_bar = BarContext.bar, qfock.qsym._image_bar
        barred, solved = Counter(), []

        def counting_bar(ctx, v):
            # B_g is supported on the orbit of g, whose one anti-dominant member is g
            (g,) = [h for h in v.terms if is_antidominant(h, par)]
            barred[g] += 1
            return real_bar(ctx, v)

        def recording_image_bar(g, par, w, memo):
            solved.append(g)
            return real_image_bar(g, par, w, memo)

        monkeypatch.setattr(BarContext, "bar", counting_bar)
        monkeypatch.setattr(qfock.qsym, "_image_bar", recording_image_bar)
        qsym_canonical_intrinsic(f, par, w)
        assert len(solved) > 1
        assert len(solved) == len(set(solved))
        assert barred == Counter(solved)
        assert set(barred.values()) == {1}

    def test_a_scaled_mtilde_fails_verify(self, monkeypatch):
        """q Mtilde_f fails re-expression's reconstruction; only the intrinsic rows fail."""
        real = qfock.qsym.mtilde_expand
        monkeypatch.setattr(
            qfock.qsym, "mtilde_expand", lambda f, par: real(f, par).scaled(Q)
        )
        ok, msgs = verify_qsym(3, Window(1, 2))
        assert not ok and msgs[1:]
        assert all(m.startswith("intrinsic solve fails at") for m in msgs[1:]), msgs

    def test_planted_wrong_expansion_fails_the_check(self):
        par = Parabolic(Shape(2, 0), {1})
        f = T(2, 0, 1, 2)
        wrong = mtilde_expand(f, par) + M(2, 0, 2, 1)
        for basis, expander in EXPANDERS.items():
            v = expander(f, par)
            assert in_basis(reexpress(v, par, {}), par, basis) == {f: ONE}
            with pytest.raises(CheckFailed, match="not in the symmetrized image"):
                reexpress(v, par, {f: wrong})


SMALL_CASES = [
    (Parabolic(Shape(2, 0), {1}), Window(1, 3)),
    (Parabolic.trivial(Shape(1, 1)), Window(0, 2)),
    (Parabolic(Shape(2, 1), {1}), Window(1, 2)),
    (Parabolic(Shape(1, 2), {2}), Window(1, 2)),
    (Parabolic(Shape(2, 2), {1, 3}), Window(1, 2)),
    (Parabolic.full(Shape(3, 0)), Window(0, 2)),
    (Parabolic(Shape(2, 2), {1}), Window(0, 2)),
]


def anti_members(par, w):
    return [f for f in window_tuples(par.shape, w) if is_antidominant(f, par)]


class TestImageSolve:
    """The default route solves inside the image; the push-forward is the second route."""

    def test_agrees_with_push_forward_on_every_member(self):
        seen = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for par, w in SMALL_CASES:
                for f in anti_members(par, w):
                    image = qsym_canonical(f, par, w)
                    assert image.coefficients == qsym_canonical_push(f, par, w).coefficients
                    dual = qsym_dual_canonical(f, par, w)
                    assert dual.coefficients == qsym_dual_canonical_push(f, par, w).coefficients
                    assert (image.basis, dual.basis) == ("N", "Ntilde")
                    seen += 1
        assert seen == 100

    def test_answers_without_the_tensor_solve(self, monkeypatch):
        cases = [(f, par, w) for par, w in SMALL_CASES[2:5] for f in anti_members(par, w)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            want = [
                (qsym_canonical_push(*c).coefficients, qsym_dual_canonical_push(*c).coefficients)
                for c in cases
            ]

            def forbidden(f, w):
                raise AssertionError(f"tensor solve called at {f}")

            monkeypatch.setattr(qfock.qsym, "tensor_canonical", forbidden)
            monkeypatch.setattr(qfock.qsym, "dual_canonical", forbidden)
            got = [
                (qsym_canonical(*c).coefficients, qsym_dual_canonical(*c).coefficients)
                for c in cases
            ]
        assert got == want
        with pytest.raises(AssertionError, match="tensor solve called"):
            qsym_canonical_push(*cases[0])

    def test_push_forward_survives_a_broken_image_core(self, monkeypatch):
        # the push-forward calls the tensor solve, so it answers while the
        # core shared by qsym's image solve and canonical's route is broken
        par, w = Parabolic(Shape(2, 2), {1, 3}), Window(0, 2)
        f = T(2, 2, 0, 1, 2, 1)
        top = f.act(longest_element(par)[0])

        def broken(*args):
            raise CheckFailed("image core broken")

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            want = qsym_canonical(f, par, w).coefficients
            monkeypatch.setattr(qfock.canonical, "image_solve", broken)
            monkeypatch.setattr(qfock.qsym, "image_solve", broken)
            # nothing may come from a cache: both routes solve afresh
            qfock.canonical._canonical.cache_clear()
            qfock.canonical._solve.cache_clear()
            with pytest.raises(CheckFailed, match="image core broken"):
                canonical(top, w)
            with pytest.raises(CheckFailed, match="image core broken"):
                qsym_canonical(f, par, w)
            assert qsym_canonical_push(f, par, w).coefficients == want

    def test_truncation_flag_reads_the_image_down_set(self):
        # f = f.w0 is the bottom of its block and of its anti-dominant
        # down-set, which a lower floor grows; the tensor column through f
        # and the image column both warn, and the image column does grow
        par, w = Parabolic(Shape(2, 2), {1}), Window(-1, 3)
        f = T(2, 2, -1, -1, -1, -1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            push = qsym_canonical_push(f, par, w)
            assert [x.category for x in caught] == [TruncationWarning]
            image = qsym_canonical(f, par, w)
            assert [x.category for x in caught] == [TruncationWarning] * 2
            lower = qsym_canonical(f, par, Window(-2, 3))
        assert image.coefficients == push.coefficients
        assert len(lower.coefficients) > len(image.coefficients)

    def test_truncated_image_column_warns(self):
        par, w = Parabolic(Shape(2, 2), {1, 3}), Window(1, 2)
        f = T(2, 2, 1, 2, 2, 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            qsym_canonical(f, par, w)
            qsym_canonical(f, par, w)
        assert [x.category for x in caught] == [TruncationWarning] * 2
        assert "anti-dominant down-set" in str(caught[0].message)


def certify_image_bar(par, w):
    """The failures of bar(Ntilde_g) = phi(bar(M_g)) and its N form on par's image in w.

    The reference is `_image_bar`: expand Mtilde_g, bar every orbit member,
    re-express in Mtilde coordinates y.  Since Ntilde_g = [W_g] Mtilde_g
    and N_g = [W] Mtilde_g with bar-invariant scales, the Ntilde column of
    bar(Ntilde_g) is [W_g] y_h / [W_h], and the N column of bar(N_g),
    n_ratio(g) phi(bar(M_g)) divided at h by n_ratio(h), is y itself.
    """
    ctx = bar_context(par.shape, w)
    fails, memo = [], {}
    for g in anti_members(par, w):
        col = project(ctx.bar_monomial(g).terms, par)
        y = _image_bar(g, par, w, memo)
        stab_g = SCALES["Ntilde"](g, par)
        if col != {h: div_exact(c * stab_g, SCALES["Ntilde"](h, par)) for h, c in y.items()}:
            fails.append(f"Ntilde column differs at {g}")
        ncol = {h: div_exact(c * n_ratio(g, par), n_ratio(h, par)) for h, c in col.items()}
        if ncol != y:
            fails.append(f"N column differs at {g}")
    return fails


@pytest.mark.parametrize(
    "par",
    [
        Parabolic(Shape(2, 0), {1}),
        Parabolic(Shape(2, 1), {1}),
        Parabolic(Shape(1, 2), {2}),
        Parabolic.full(Shape(0, 3)),
        Parabolic(Shape(2, 2), {1, 3}),
        Parabolic(Shape(2, 2), {3}),
    ],
    ids=lambda par: f"{par.shape}-{par}",
)
def test_image_bar_identity_certifies(par):
    w = Window(-1, 2)
    assert anti_members(par, w)
    assert certify_image_bar(par, w) == []


class TestBarTriangularity:
    def test_bar_fixes_diagonal_and_stays_below(self):
        cases = [
            (Shape(2, 0), Parabolic(Shape(2, 0), {1}), Window(1, 3)),
            (Shape(2, 1), Parabolic(Shape(2, 1), {1}), Window(1, 2)),
            (Shape(2, 2), Parabolic(Shape(2, 2), {1, 3}), Window(1, 2)),
        ]
        for shape, par, w in cases:
            for f in window_tuples(shape, w):
                if not is_antidominant(f, par):
                    continue
                for basis, expander in EXPANDERS.items():
                    coords = in_basis(reexpress(bar(expander(f, par), w), par, {}), par, basis)
                    assert coords[f] == ONE
                    for g in coords:
                        assert is_antidominant(g, par)
                        assert bruhat_leq(g, f)


class TestSerialization:
    def test_expansion_json(self):
        # the `qsym --json` answer, keys in this order
        par = Parabolic(Shape(2, 0), {1})
        exp = qsym_canonical(T(2, 0, 1, 2), par, Window(1, 2))
        blob = exp.to_json()
        assert list(blob) == ["shape", "parabolic", "basis", "terms", "target", "mode", "window"]
        assert blob == {
            "shape": "2|0",
            "parabolic": "s1",
            "basis": "N",
            "terms": [{"tuple": "1,2|", "poly": {"0": 1}}],
            "target": "1,2|",
            "mode": "canonical",
            "window": "1..2",
        }

    def test_base_changed_json(self):
        par = Parabolic(Shape(2, 1), {1})
        v = base_change(column(par, "N", {T(2, 1, 1, 2, 5): Q}), "Ntilde")
        blob = v.to_json()
        assert (blob["basis"], blob["parabolic"], blob["target"]) == ("Ntilde", "s1", "1,2|5")
        assert blob["terms"] == [{"tuple": "1,2|5", "poly": {"2": 1, "0": 1}}]

    def test_expansion_is_a_read_only_tuple_of_its_fields(self):
        par = Parabolic(Shape(2, 0), {1})
        f, w = T(2, 0, 1, 2), Window(1, 2)
        exp = qsym_canonical(f, par, w)
        assert isinstance(exp, QSymExpansion)
        assert exp == (f, "canonical", "N", par, w, {f: LaurentPoly.one()})
        with pytest.raises(AttributeError):
            exp.basis = "Ntilde"
        assert exp.basis == "N"
