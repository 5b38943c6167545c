"""Tests for the canonical / dual canonical solver and the matrix identities."""

import hashlib
import itertools
import warnings
from types import MappingProxyType

import pytest

import qfock.canonical
from qfock.barinv import bar, bar_context, bar_oracle
from qfock.canonical import (
    BasisExpansion,
    TruncationWarning,
    canonical,
    dual_canonical,
    image_solve,
    inverse_column,
    inverse_relation_check,
    reaches_floor,
    sector_descent,
    tensor_canonical,
    tensor_dual_canonical,
    top_parabolic,
    triangular_solve,
)
from qfock.cli import main
from qfock.fock import FockVector
from qfock.laurent import LaurentPoly, NotAntisymmetric, NotDivisible, neg_part, pos_part
from qfock.qsym import qsym_dual_canonical, qsym_dual_canonical_push
from qfock.weightlat import (
    CheckFailed,
    Parabolic,
    Shape,
    SignedTuple,
    Window,
    antidominant_rep,
    apply_s,
    block,
    blocks,
    bruhat_leq,
    is_antidominant,
    window_tuples,
)


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

    def test_cached_results_are_read_only(self):
        # every call returns the cached object; a caller may not change it
        f, g, w = T(2, 0, 2, 1), T(2, 0, 1, 2), Window(1, 2)
        cases = [
            (lambda: canonical(f, w), lambda e: e.coefficients.__setitem__(g, P({0: 1}))),
            (lambda: dual_canonical(f, w), lambda e: e.coefficients.clear()),
            (lambda: canonical(f, w), lambda e: setattr(e, "truncated", True)),
        ]
        for read, mutate in cases:
            before = repr(read())
            # setting a field and a missing mutator raise AttributeError
            with pytest.raises((TypeError, AttributeError)):
                mutate(read())
            assert repr(read()) == before

    def test_expansion_is_a_tuple_of_its_fields(self):
        f, w = T(2, 0, 1, 2), Window(1, 2)
        exp = BasisExpansion(f, "canonical", w, MappingProxyType({f: P({0: 1})}), False)
        assert exp.truncated is False
        assert exp == canonical(f, w) == (f, "canonical", w, {f: P({0: 1})}, False)
        with pytest.raises(AttributeError):
            exp.mode = "dual"

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
                    assert got == bar_oracle(f, w, 6, "canonical"), f
                    got = dual_canonical(f, w).vector()
                    assert got == bar_oracle(f, w, 6, mode="dual"), f

    def test_window_stability(self):
        # a wider window keeps each in-window coefficient of an untruncated column
        shapes = [Shape(1, 1), Shape(2, 1), Shape(1, 2), Shape(2, 2), Shape(3, 1), Shape(1, 3)]
        every = [f for shape in shapes for f in window_tuples(shape, Window(0, 3))]
        inputs = [
            ([T(1, 1, 2, 2)], Window(0, 2), Window(-1, 3)),
            (every, Window(0, 3), Window(-1, 4)),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for tuples, inner_w, outer_w in inputs:
                for f in tuples:
                    for solver in (canonical, dual_canonical):
                        inner, outer = solver(f, inner_w), solver(f, outer_w)
                        if inner.truncated:
                            continue
                        for g in inner.coefficients.keys() | outer.coefficients.keys():
                            if g.in_window(inner_w):
                                assert inner.coeff(g) == outer.coeff(g), (f, g)


class TestOrbitTopRoute:
    """At f with nontrivial J(f), canonical expands the image column of the orbit bottom."""

    def test_top_parabolic(self):
        assert top_parabolic(T(3, 3, 3, 2, 1, 1, 2, 3)) == Parabolic(Shape(3, 3), {1, 2, 4, 5})
        assert top_parabolic(T(2, 2, 1, 2, 2, 1)) == Parabolic.trivial(Shape(2, 2))
        assert top_parabolic(T(2, 2, 1, 1, 1, 1)) == Parabolic.full(Shape(2, 2))
        assert top_parabolic(T(1, 1, 3, 3)) == Parabolic.trivial(Shape(1, 1))

    # (shape, window, targets that take the route, of them truncated)
    CASES = [
        (Shape(2, 2), Window(-1, 3), 525, 117),
        (Shape(3, 1), Window(0, 3), 240, 76),
        (Shape(1, 3), Window(0, 3), 240, 76),
        (Shape(2, 1), Window(-1, 4), 126, 12),
        (Shape(3, 2), Window(0, 3), 1000, 411),
        (Shape(3, 3), Window(0, 2), 728, 468),
    ]

    @pytest.mark.parametrize("shape, w, routed, truncated", CASES, ids=str)
    def test_agrees_with_the_tensor_solve(self, shape, w, routed, truncated):
        seen = flagged = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for f in window_tuples(shape, w):
                got, want = canonical(f, w), tensor_canonical(f, w)
                assert dict(got.coefficients) == dict(want.coefficients), f
                assert got.truncated == want.truncated, f
                if top_parabolic(f).generators:
                    seen += 1
                    flagged += got.truncated
        assert (seen, flagged) == (routed, truncated)

    @pytest.fixture
    def fresh(self):
        def clear():
            bar_context.cache_clear()
            qfock.canonical._canonical.cache_clear()

        clear()
        yield
        clear()

    def test_builds_only_anti_dominant_bar_columns(self, fresh):
        # a silent fallback to the tensor solve would build every column
        f, w = T(3, 3, 3, 2, 1, 1, 2, 3), Window(0, 3)
        par = top_parabolic(f)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            exp = canonical(f, w)
        size = f.shape.size
        full = [SignedTuple(f.shape, e) for e in bar_context(f.shape, w)._memo if len(e) == size]
        assert antidominant_rep(f, par)[0] in full
        assert all(is_antidominant(g, par) for g in full)
        assert len(full) < len(exp.coefficients)


def ref_down_set(f, w, keep=None):
    """The members of f's block at or below f in block order, those passing keep."""
    return [g for g in block(f, w) if (keep is None or keep(g)) and bruhat_leq(g, f)]


def ref_reaches_floor(target, support, down, w, keep=None):
    """The floor flag read off the down-set: the reference for reaches_floor.

    `down` is ref_down_set(target, w, keep); a member of support is at the
    bottom when nothing before it in down lies below it.
    """
    bottom = [
        g
        for i, g in enumerate(down)
        if g in support and not any(bruhat_leq(h, g) for h in down[:i])
    ]
    if not bottom:
        return False
    grown = ref_down_set(target, Window(w.lo - 1, w.hi), keep)
    return len(grown) > len(down)


def parabolics(shape):
    gens = sorted(Parabolic.full(shape).generators)
    for r in range(len(gens) + 1):
        for sub in itertools.combinations(gens, r):
            yield Parabolic(shape, sub)


class TestFloorFlag:
    """reaches_floor, read off block order, agrees with the down-set reference."""

    CASES = [
        (Shape(2, 2), Window(-1, 3)),
        (Shape(3, 1), Window(0, 3)),
        (Shape(2, 1), Window(-1, 4)),
    ]

    @pytest.mark.parametrize("shape, w", CASES, ids=str)
    def test_tensor_flag(self, shape, w):
        flagged = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for f in window_tuples(shape, w):
                exp = canonical(f, w)
                support = exp.coefficients.keys()
                want = ref_reaches_floor(f, support, ref_down_set(f, w), w)
                assert reaches_floor(f, support, w) == want == exp.truncated, f
                flagged += want
        assert flagged

    @pytest.mark.parametrize("shape, w", CASES, ids=str)
    def test_image_flag(self, shape, w):
        flagged = 0
        for par in parabolics(shape):
            anti = lambda g: is_antidominant(g, par)
            for f in filter(anti, window_tuples(shape, w)):
                t = image_solve(f, par, w, "canonical")
                want = ref_reaches_floor(f, t, ref_down_set(f, w, anti), w, anti)
                assert reaches_floor(f, t, w, anti) == want, (f, par)
                flagged += want
        assert flagged

    def test_dual_solves_make_no_bruhat_comparison(self):
        w = Window(-1, 3)
        qfock.canonical._solve.cache_clear()
        qfock.canonical._dual.cache_clear()
        before = bruhat_leq.cache_info()
        for f in window_tuples(Shape(2, 2), w):
            dual_canonical(f, w)
            for par in parabolics(f.shape):
                image = is_antidominant(f, par)
                (qsym_dual_canonical if image else qsym_dual_canonical_push)(f, par, w)
        after = bruhat_leq.cache_info()
        assert after.hits + after.misses == before.hits + before.misses


class TestFloorWarning:
    def test_warns_when_block_would_grow(self):
        with pytest.warns(TruncationWarning):
            canonical(T(1, 1, 5, 5), Window(4, 6))

    def test_warns_on_every_call_at_the_caller(self):
        # the second call is a cache hit and must warn all the same
        for _ in range(2):
            with pytest.warns(TruncationWarning) as caught:
                exp = canonical(T(1, 1, 5, 5), Window(4, 6))
            assert exp.truncated
            assert [x.filename for x in caught] == [__file__]

    @pytest.mark.parametrize("solver", [canonical, tensor_canonical])
    def test_flags_a_column_whose_only_floor_term_is_its_target(self, solver):
        # -1,-1|-1,-1 is the bottom of its block: its column is M_f alone in
        # -1..3 and has 6 terms in -2..3; canonical takes the orbit-top route
        f = T(2, 2, -1, -1, -1, -1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            exp, lower = solver(f, Window(-1, 3)), solver(f, Window(-2, 3))
        assert exp.truncated and len(exp.coefficients) == 1
        assert len(lower.coefficients) == 6

    def test_silent_when_block_is_complete(self):
        # the pure-sector block does not change if the floor is lowered
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            canonical(T(2, 0, 8, 7), Window(7, 8))

    def test_dual_mode_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            dual_canonical(T(1, 1, 9, 9), Window(8, 10))


class TestDualRecursion:
    """dual_canonical's Kazhdan-Lusztig recursion against the tensor dual solve."""

    # (shape, window, a member whose block is taken, or None for every tuple
    # of the window; members, of them descent-free)
    CASES = [
        (Shape(2, 1), Window(0, 2), None, 27, 18),
        (Shape(2, 2), Window(-1, 2), None, 256, 100),
        (Shape(2, 2), Window(-1, 4), None, 1296, 441),
        (Shape(3, 2), Window(-1, 2), None, 1024, 200),
        (Shape(3, 3), Window(0, 3), (3, 2, 1, 1, 2, 3), 256, 20),
    ]

    @pytest.fixture
    def fresh(self):
        qfock.canonical._dual.cache_clear()
        yield
        qfock.canonical._dual.cache_clear()

    @pytest.mark.parametrize("shape, w, member, size, base", CASES, ids=str)
    def test_agrees_with_the_tensor_solve(self, fresh, shape, w, member, size, base):
        members = block(SignedTuple(shape, member), w) if member else window_tuples(shape, w)
        seen = free = 0
        for f in members:
            assert dual_canonical(f, w) == tensor_dual_canonical(f, w), f
            seen += 1
            free += sector_descent(f) is None
        assert (seen, free) == (size, base)

    def test_sector_descent(self):
        assert sector_descent(T(3, 3, 1, 2, 2, 3, 3, 1)) is None
        assert sector_descent(T(3, 3, 1, 3, 2, 3, 3, 1)) == 2
        assert sector_descent(T(3, 3, 1, 2, 3, 3, 1, 2)) == 5
        # s_m joins the sectors and is never a descent
        assert sector_descent(T(1, 1, 3, 1)) is None

    def test_a_broken_hecke_action_raises_where_it_acts(self, fresh, monkeypatch):
        # H_i without its (q^-1 - q) term at a descent keeps every degree
        # right; the check that H_i + q kills L_f catches it at every column
        # whose L_{f.s_i} has a term that falls at i, and the others never
        # use the dropped term
        def dropped(v, i):
            res = FockVector(v.shape)
            for f, c in v.terms.items():
                if f[i] == f[i + 1]:
                    res.add_term(f, c * P({-1: 1}))
                else:
                    res.add_term(SignedTuple(f.shape, apply_s(f.entries, i)), c)
            return res

        monkeypatch.setattr(qfock.canonical, "act_gen", dropped)
        w = Window(0, 3)
        raised = 0
        for f in block(T(3, 3, 3, 2, 1, 1, 2, 3), w):
            try:
                got = dual_canonical(f, w)
            except CheckFailed as exc:
                assert sector_descent(f) is not None
                assert "is not killed by H_" in str(exc)
                raised += 1
            else:
                assert got == tensor_dual_canonical(f, w), f
        assert raised == 194

    def test_a_base_column_out_of_degree_raises(self, fresh, monkeypatch):
        f, g, w = T(2, 0, 1, 2), T(2, 0, 0, 1), Window(0, 2)
        honest = qfock.canonical._solve

        def shifted(h, w, mode):
            exp = honest(h, w, mode)
            coeffs = {**exp.coefficients, g: P({0: 1})}
            return exp._replace(coefficients=MappingProxyType(coeffs))

        monkeypatch.setattr(qfock.canonical, "_solve", shifted)
        with pytest.raises(CheckFailed, match=r"coefficient at 0,1\| of 1,2\| is 1"):
            dual_canonical(f, w)

    # the recursion-depth probes: stdout length and SHA-256 of the tensor
    # dual solve's answer, which the recursion must reproduce
    PROBES = [
        ("bkl --shape 2|1 --tuple 30,29|29 --window 0..30 --mode dual", 1349,
         "2952f44c9dca41a0ff6948fd1dfaf750ec098c5b695b72f42000aa3cda52b5fd"),
        ("bkl --shape 3|1 --tuple 12,11,10|10 --window 0..12 --mode dual", 1573,
         "932a87330ba9be2269498206a88912d85b3f08a85899d06c2297a4f3671b1906"),
    ]

    @pytest.mark.parametrize("argv, size, digest", PROBES, ids=["2|1", "3|1"])
    def test_wide_windows_answer_as_the_tensor_solve(self, fresh, capsys, argv, size, digest):
        assert main(argv.split()) == 0
        out = capsys.readouterr().out.encode()
        assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)


class TestMatrices:
    def test_rank_two_block(self):
        w = Window(1, 2)
        lo, hi = T(2, 0, 1, 2), T(2, 0, 2, 1)
        assert block(hi, w) == (lo, hi)
        assert canonical(lo, w).coefficients == {lo: LaurentPoly.one()}
        assert canonical(hi, w).coefficients == {hi: LaurentPoly.one(), lo: P({1: 1})}
        assert dual_canonical(hi, w).coefficients == {hi: LaurentPoly.one(), lo: P({-1: -1})}

    def test_singleton(self):
        w = Window(1, 3)
        f = T(1, 1, 1, 3)
        assert block(f, w) == (f,)
        assert canonical(f, w).coefficients == {f: LaurentPoly.one()}
        assert dual_canonical(f, w).coefficients == {f: LaurentPoly.one()}


class TestInverseColumn:
    @pytest.mark.parametrize("graded", [True, False], ids=["graded", "at_one"])
    @pytest.mark.parametrize("mode", ["canonical", "dual"])
    @pytest.mark.parametrize("shape", [Shape(2, 1), Shape(1, 2)], ids=str)
    def test_column_times_matrix_is_unit_vector(self, shape, mode, graded):
        """Every column f of the inverse, times the matrix, is the unit vector at f."""
        w = Window(-1, 3)
        solve = canonical if mode == "canonical" else dual_canonical

        def column(h):
            coeffs = solve(h, w).coefficients
            if graded:
                return coeffs
            return {g: c.at_one() for g, c in coeffs.items() if c.at_one()}

        n_columns = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for order in blocks(shape, w):
                for f in order:
                    x = inverse_column(order, column, f)
                    assert all(x.values()), f
                    assert x[f] == 1
                    product: dict = {}
                    for h, xh in x.items():
                        for g, a in column(h).items():
                            product[g] = product.get(g, 0) + a * xh
                    assert {g: c for g, c in product.items() if c} == {f: 1}, f
                    if graded:
                        assert all(isinstance(c, LaurentPoly) for c in x.values())
                    n_columns += 1
        assert n_columns == 125

    @pytest.mark.parametrize("diagonal", [2, 0, -1, P({1: 1}), P({0: 1, 1: 1})], ids=str)
    def test_non_unit_diagonal_raises(self, diagonal):
        columns = {"a": {"a": diagonal}, "b": {"a": 1, "b": 1}}
        with pytest.raises(CheckFailed, match="diagonal entry at a"):
            inverse_column(["a", "b"], columns.__getitem__, "b")
        columns["b"]["b"] = diagonal
        with pytest.raises(CheckFailed, match="diagonal entry at b"):
            inverse_column(["a", "b"], columns.__getitem__, "b")


class TestTriangularSolve:
    def test_broken_bar_column_raises(self):
        # bar(M_b) = M_b + q M_a leaves d_a = q, which is not bar-antisymmetric
        columns = {"a": {"a": P({0: 1})}, "b": {"a": P({1: 1}), "b": P({0: 1})}}
        with pytest.raises(CheckFailed, match="difference at a below b") as info:
            triangular_solve(["a", "b"], columns.__getitem__, pos_part, "b")
        assert isinstance(info.value.__cause__, NotAntisymmetric)

    def test_target_missing_from_the_order_raises(self):
        with pytest.raises(CheckFailed, match="c is not in its ordered block"):
            triangular_solve(["a", "b"], {}.__getitem__, pos_part, "c")

    @pytest.mark.parametrize("mode", ["canonical", "dual"])
    def test_block_order_solves_as_the_down_set(self, mode):
        # the block also holds members incomparable with the target and
        # members after it; the solve must not read a bar column there
        w = Window(-1, 3)
        ctx = bar_context(Shape(2, 2), w)
        part = pos_part if mode == "canonical" else neg_part
        incomparable = later = 0
        for f in window_tuples(Shape(2, 2), w):
            order = block(f, w)
            down = ref_down_set(f, w)
            incomparable += len(down) < order.index(f) + 1
            later += order[-1] != f
            read = []

            def column(g):
                read.append(g)
                return ctx.bar_monomial(g).terms

            t = triangular_solve(order, column, part, f)
            assert t == triangular_solve(down, lambda g: ctx.bar_monomial(g).terms, part, f), f
            assert read == list(t), f
        assert (incomparable, later) == (292, 494)

    def test_scale_solves_for_the_scaled_basis(self):
        # with N_a = [2] e_a and N_b = e_b, bar(N_b) = N_b + (q - q^-1) N_a
        # reads bar(e_b) = e_b + (q^2 - q^-2) e_a in e-coordinates
        two = P({1: 1, -1: 1})
        columns = {"a": {"a": P({0: 1})}, "b": {"a": P({2: 1, -2: -1}), "b": P({0: 1})}}
        scale = {"a": two, "b": P({0: 1})}
        got = triangular_solve(["a", "b"], columns.__getitem__, pos_part, "b", scale.get)
        assert got == {"b": P({0: 1}), "a": P({1: 1})}
        plain = triangular_solve(["a", "b"], columns.__getitem__, pos_part, "b")
        assert plain == {"b": P({0: 1}), "a": P({2: 1})}

    def test_indivisible_scaled_difference_raises(self):
        columns = {"a": {"a": P({0: 1})}, "b": {"a": P({1: 1, -1: -1}), "b": P({0: 1})}}
        scale = {"a": P({1: 1, -1: 1}), "b": P({0: 1})}
        with pytest.raises(CheckFailed, match="difference at a below b is not divisible") as info:
            triangular_solve(["a", "b"], columns.__getitem__, pos_part, "b", scale.get)
        assert isinstance(info.value.__cause__, NotDivisible)


class TestInverseRelation:
    def test_singleton(self):
        w = Window(-3, 3)
        inverse_relation_check([T(1, 1, 1, 3)], w)

    def test_atypical_chain(self):
        w = Window(-2, 2)
        order = block(T(1, 1, 1, 1), w)
        assert len(order) == 5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            inverse_relation_check(order, w)

    def test_pure_rank_two(self):
        w = Window(-2, 2)
        order = block(T(2, 0, 1, 2), w)
        inverse_relation_check(order, w)

    def test_mixed_blocks(self):
        w = Window(-2, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for f in [T(2, 1, 1, 2, 1), T(1, 2, 0, 1, 0), T(1, 2, 1, 1, 1)]:
                inverse_relation_check(block(f, w), w)

    def test_corrupted_dual_column_raises(self, monkeypatch):
        # l_{12,21} = -q^-1; doubling it breaks the relation at (1,2|, 2,1|)
        w = Window(-2, 2)
        order = block(T(2, 0, 1, 2), w)
        top, low = T(2, 0, 2, 1), T(2, 0, 1, 2)
        honest = qfock.canonical.dual_canonical

        def corrupted(f, w):
            exp = honest(f, w)
            if f != top:
                return exp
            coeffs = dict(exp.coefficients)
            coeffs[low] = coeffs[low] * 2
            return exp._replace(coefficients=MappingProxyType(coeffs))

        monkeypatch.setattr(qfock.canonical, "dual_canonical", corrupted)
        with pytest.raises(CheckFailed, match=r"inverse relation fails at \(1,2\|, 2,1\|\): 2\*q != q"):
            inverse_relation_check(order, w)

    def test_rejects_asymmetric_window(self):
        w = Window(0, 2)
        with pytest.raises(ValueError):
            inverse_relation_check(block(T(1, 1, 1, 1), w), w)


class TestCachedBarColumnsStayIntact:
    """Solvers accumulate in place, but never into a memoized bar or transfer column."""

    @staticmethod
    def snapshot(memo):
        return {
            key: v and (v.shape, {g: dict(c.c) for g, c in v.terms.items()})
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
        memos = (ctx._memo, ctx._transfer_memo)
        before = [self.snapshot(memo) for memo in memos]
        assert all(before)
        v = FockVector(shape, {g: P({i: 1}) for i, g in enumerate(order)})
        bar(v, w)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for g in order:
                canonical(g, w)
                dual_canonical(g, w)
                if is_antidominant(g, par):
                    qsym_canonical_intrinsic(g, par, w)
        for memo, was in zip(memos, before):
            now = self.snapshot(memo)
            assert {k: now[k] for k in was} == was
