"""Tests for the bar involution, the coupling operator and the solve oracle.

All frozen vectors were computed by hand from the transfer recursions (or,
for the pure-sector cases, by Hecke transport) before the module existed.
"""

import inspect
import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock.barinv import BarContext, _solve_exact, bar, bar_context, bar_oracle, pure_bar
from qfock.fock import FockVector, act, apply_chevalley
from qfock.hecke import HeckeElement
from qfock.laurent import LaurentPoly
from qfock.weightlat import (
    CheckFailed,
    Shape,
    SignedTuple,
    Window,
    WindowEscape,
    block,
    blocks,
    bruhat_leq,
    weight,
    window_tuples,
)


def T(m, n, *entries):
    return SignedTuple(Shape(m, n), entries)


def M(m, n, *entries):
    return FockVector.monomial(T(m, n, *entries))


def P(d):
    return LaurentPoly(d)


QMQ = P({1: 1, -1: -1})


class TestPureBar:
    def test_frozen_two_covariant(self):
        assert pure_bar(M(2, 0, 1, 2)) == M(2, 0, 1, 2)
        got = pure_bar(M(2, 0, 2, 1))
        assert got == M(2, 0, 2, 1) + M(2, 0, 1, 2).scaled(QMQ)

    def test_single_factor(self):
        assert pure_bar(M(1, 0, 5)) == M(1, 0, 5)
        assert pure_bar(M(0, 1, -3)) == M(0, 1, -3)

    def test_antilinear(self):
        v = M(2, 0, 2, 1).scaled(P({1: 1}))
        assert pure_bar(v) == pure_bar(M(2, 0, 2, 1)).scaled(P({-1: 1}))

    def test_involution_exhaustive(self):
        for shape in (Shape(2, 0), Shape(0, 2), Shape(3, 0), Shape(0, 3)):
            for f in window_tuples(shape, Window(1, 3)):
                v = FockVector.monomial(f)
                assert pure_bar(pure_bar(v)) == v, f

    def test_rejects_mixed_shape(self):
        with pytest.raises(ValueError):
            pure_bar(M(1, 1, 1, 1))


class TestBarFrozen:
    def test_two_covariant(self):
        w = Window(1, 2)
        assert bar(M(2, 0, 2, 1), w) == M(2, 0, 2, 1) + M(2, 0, 1, 2).scaled(QMQ)
        assert bar(M(2, 0, 1, 2), w) == M(2, 0, 1, 2)

    def test_atypical_chain(self):
        # shape (1|1): the orbit of (a,a) is a chain going down the diagonal
        w = Window(0, 3)
        got = bar(M(1, 1, 3, 3), w)
        want = (
            M(1, 1, 3, 3)
            + M(1, 1, 2, 2).scaled(QMQ)
            + M(1, 1, 1, 1).scaled(P({-2: 1, 0: -1}))
            + M(1, 1, 0, 0).scaled(P({-1: 1, -3: -1}))
        )
        assert got == want

    def test_typical_singleton(self):
        w = Window(1, 3)
        assert bar(M(1, 1, 1, 3), w) == M(1, 1, 1, 3)

    def test_fixed_canonical_element(self):
        w = Window(1, 2)
        v = M(2, 0, 1, 2).scaled(P({1: 1})) + M(2, 0, 2, 1)
        assert bar(v, w) == v

    def test_window_escape(self):
        with pytest.raises(WindowEscape):
            bar(M(1, 1, 0, 5), Window(0, 3))


ALL_SHAPES = [Shape(2, 0), Shape(0, 2), Shape(1, 1), Shape(2, 1), Shape(1, 2)]


class TestBarProperties:
    def test_involution(self):
        for shape in ALL_SHAPES:
            w = Window(0, 2)
            for f in window_tuples(shape, w):
                v = FockVector.monomial(f)
                assert bar(bar(v, w), w) == v, f

    def test_triangular(self):
        for shape in ALL_SHAPES:
            w = Window(0, 2)
            for f in window_tuples(shape, w):
                diff = bar(FockVector.monomial(f), w) - FockVector.monomial(f)
                for g in diff.support():
                    assert g != f
                    assert bruhat_leq(g, f), (g, f)

    def test_weight_preserved(self):
        w = Window(0, 2)
        for shape in (Shape(2, 1), Shape(1, 2)):
            for f in window_tuples(shape, w):
                for g in bar(FockVector.monomial(f), w).support():
                    assert weight(g) == weight(f)

    def test_pure_sector_agreement(self):
        for shape in (Shape(2, 0), Shape(0, 2), Shape(3, 0), Shape(0, 3)):
            w = Window(1, 3)
            for f in window_tuples(shape, w):
                v = FockVector.monomial(f)
                assert bar(v, w) == pure_bar(v), f

    def test_antilinear(self):
        w = Window(0, 2)
        c = P({2: 3, -1: 1})
        v = M(1, 1, 2, 2).scaled(c)
        assert bar(v, w) == bar(M(1, 1, 2, 2), w).scaled(c.bar())


class TestBarCompatibility:
    def test_hecke_generators(self):
        w = Window(0, 2)
        for shape in (Shape(2, 0), Shape(0, 2), Shape(2, 1), Shape(1, 2)):
            gens = [i for i in range(1, shape.size) if i != shape.m]
            for f in window_tuples(shape, w):
                v = FockVector.monomial(f)
                for i in gens:
                    h = HeckeElement.generator(shape, i)
                    lhs = bar(act(v, h), w)
                    rhs = act(bar(v, w), h.bar())
                    assert lhs == rhs, (f, i)

    def test_hecke_products(self):
        w = Window(1, 3)
        shape = Shape(3, 0)
        h = HeckeElement.generator(shape, 1) * HeckeElement.generator(shape, 2)
        h = h + HeckeElement.unit(shape).scaled(P({1: 2}))
        for f in [T(3, 0, 3, 1, 2), T(3, 0, 2, 2, 1), T(3, 0, 1, 3, 2)]:
            v = FockVector.monomial(f)
            assert bar(act(v, h), w) == act(bar(v, w), h.bar())

    def test_chevalley(self):
        w = Window(0, 2)
        for shape in (Shape(1, 1), Shape(2, 1), Shape(1, 2)):
            for f in window_tuples(shape, w):
                v = FockVector.monomial(f)
                bv = bar(v, w)
                for a in (0, 1):
                    for kind in ("E", "F"):
                        lhs = bar(apply_chevalley(v, kind, a), w)
                        assert lhs == apply_chevalley(bv, kind, a), (f, kind, a)
                for a in (0, 1, 2):
                    lhs = bar(apply_chevalley(v, "K", a), w)
                    assert lhs == apply_chevalley(bv, "Kinv", a), (f, a)


class TestWindowStability:
    def test_nested_windows(self):
        shapes = (Shape(1, 1), Shape(2, 1), Shape(1, 2))
        cases = [(shape, Window(1, 2), Window(0, 4)) for shape in shapes]
        # 247 in-window coefficients; affordable only with the transfer memo
        cases.append((Shape(1, 1), Window(0, 12), Window(-1, 13)))
        for shape, small, big in cases:
            for f in window_tuples(shape, small):
                inner = bar(FockVector.monomial(f), small)
                outer = bar(FockVector.monomial(f), big)
                for g in set(inner.support()) | set(outer.support()):
                    if g.in_window(small):
                        assert inner.coeff(g) == outer.coeff(g), (f, g)


def peel_top(v, c, d, dual):
    """T_{c,d}(v) by the recursion that peels the top index, unmemoized.

    The independent reference for `BarContext.transfer`, which peels the
    bottom index and memoizes per prefix monomial.
    """
    E = lambda x: apply_chevalley(x, "E", d - 1)
    if d == c + 1:
        return E(v).scaled(QMQ)
    inner = lambda x: peel_top(x, c, d - 1, dual)
    lead, trail = (E(inner(v)), inner(E(v))) if dual else (inner(E(v)), E(inner(v)))
    return lead.axpy(trail, P({-1: -1}))


def certify_theta(f, w):
    """The failures of Theta on the weight block of f in w; empty if it certifies.

    Checks Delta(u) Theta = Theta Delta-bar(u) for every Chevalley generator
    inside the window, Delta-bar conjugating by the factorwise bar (bar on
    the prefix, identity on the last letter) and sending K to K^-1; then
    compares `transfer` with `peel_top` on every component Theta applies.
    """
    shape, dual = f.shape, f.shape.n > 0
    prefix = Shape(shape.m, shape.n - 1) if dual else Shape(shape.m - 1, 0)
    ctx = bar_context(shape, w)

    def split(g, c=LaurentPoly.one()):
        return FockVector(prefix, {SignedTuple(prefix, g.entries[:-1]): c}), g.entries[-1]

    def theta(v):
        out = FockVector.zero(shape)
        for g, c in v.terms.items():
            out.axpy(ctx.theta(*split(g, c)))
        return out

    def factorwise_bar(v):
        out = FockVector.zero(shape)
        for g, c in v.terms.items():
            x, b = split(g)
            for h, a in bar(x, w).terms.items():
                out.add_term(SignedTuple(shape, h.entries + (b,)), a * c.bar())
        return out

    gens = [(k, a) for k in ("E", "F") for a in range(w.lo, w.hi)]
    gens += [("K", a) for a in range(w.lo, w.hi + 1)]
    fails = []
    for g in block(f, w):
        v = FockVector.monomial(g)
        for kind, a in gens:
            lhs = apply_chevalley(theta(v), kind, a)
            inner = apply_chevalley(factorwise_bar(v), "Kinv" if kind == "K" else kind, a)
            if lhs != theta(factorwise_bar(inner)):
                fails.append(f"defining identity fails at {g} for {kind}_{a}")
        x, b = split(g)
        # the (c, d) of every T_{c,d} that Theta applies to x (x) M_b
        lows, highs = range(w.lo, b), range(b + 1, w.hi + 1)
        for c, d in [(c, b) for c in lows] if dual else [(b, d) for d in highs]:
            if ctx.transfer(x, c, d) != peel_top(x, c, d, dual):
                fails.append(f"transfer recursions disagree on T_{{{c},{d}}} at {g}")
    return fails


@pytest.mark.parametrize(
    "shape", [Shape(2, 0), Shape(1, 1), Shape(2, 1), Shape(1, 2), Shape(3, 0), Shape(2, 2)], ids=str
)
def test_theta_certifies_on_every_block(shape):
    w = Window(0, 3)
    for order in {block(f, w) for f in window_tuples(shape, w)}:
        assert certify_theta(order[0], w) == [], order


class TestCoupling:
    def test_two_covariant_block(self):
        ctx = bar_context(Shape(2, 0), Window(1, 2))
        assert ctx.theta(M(1, 0, 1), 2) == M(2, 0, 1, 2)
        assert ctx.theta(M(1, 0, 2), 1) == M(2, 0, 2, 1) + M(2, 0, 1, 2).scaled(QMQ)

    def test_identity_component(self):
        ctx = bar_context(Shape(1, 1), Window(0, 2))
        for f in block(T(1, 1, 2, 1), Window(0, 2)):
            got = ctx.theta(M(1, 0, f.entries[0]), f.entries[1])
            assert got.coeff(f) == LaurentPoly.one()

    def test_typical_singleton_is_identity(self):
        ctx = bar_context(Shape(1, 1), Window(1, 3))
        assert ctx.theta(M(1, 0, 1), 3) == M(1, 1, 1, 3)


class TestCertificationFailsLoudly:
    """A broken transfer component fails the certification, never passes it."""

    # the block of test_identity_component, which certifies when intact
    BLOCK = (T(1, 1, 2, 1), Window(0, 2))

    @pytest.fixture(autouse=True)
    def fresh_contexts(self):
        # no bar column computed with a broken transfer may stay cached
        bar_context.cache_clear()
        yield
        bar_context.cache_clear()

    def test_peel_top_disagreement(self, monkeypatch):
        reference = peel_top
        wrong = lambda v, c, d, dual: reference(v, c, d, dual) + v
        monkeypatch.setitem(globals(), "peel_top", wrong)
        assert any("transfer recursions disagree" in x for x in certify_theta(*self.BLOCK))

    def test_dropped_component(self, monkeypatch):
        transfer = BarContext.transfer

        def dropped(self, v, c, d):
            if (c, d) == (0, 2):
                return FockVector.zero(v.shape)
            return transfer(self, v, c, d)

        monkeypatch.setattr(BarContext, "transfer", dropped)
        assert any("defining identity" in x for x in certify_theta(*self.BLOCK))


# (prefix shape, context shape); the appended last factor is dual exactly
# when the prefix fills the context's covariant sector
PREFIXES = [
    (Shape(1, 0), Shape(2, 1)),
    (Shape(2, 0), Shape(3, 0)),
    (Shape(1, 0), Shape(1, 1)),
    (Shape(0, 1), Shape(0, 2)),
    (Shape(1, 1), Shape(1, 2)),
]


@st.composite
def prefix_vectors(draw):
    """A prefix vector with several terms in a window of width at most 5."""
    prefix, shape = draw(st.sampled_from(PREFIXES))
    lo = draw(st.integers(-1, 0))
    w = Window(lo, lo + draw(st.integers(1, 4)))
    coeffs = st.dictionaries(
        st.integers(-2, 2), st.integers(-3, 3).filter(bool), min_size=1, max_size=3
    ).map(LaurentPoly)
    entries = st.tuples(*[st.integers(w.lo, w.hi)] * prefix.size)
    terms = draw(st.dictionaries(entries, coeffs, min_size=1, max_size=4))
    v = FockVector(prefix, {SignedTuple(prefix, e): c for e, c in terms.items()})
    return v, w, shape


class TestTransferMemo:
    @settings(max_examples=60, deadline=None)
    @given(prefix_vectors())
    def test_memoized_transfer_matches_peel_top(self, case):
        v, w, shape = case
        # one cached context per (shape, window) serves every example, so
        # the memo is hit across them
        ctx = bar_context(shape, w)
        dual = v.shape.size >= shape.m
        for c in range(w.lo, w.hi):
            for d in range(c + 1, w.hi + 1):
                want = peel_top(v, c, d, dual)
                assert ctx.transfer(v, c, d) == want, (c, d)

    def test_wide_window_makes_few_transfer_calls(self, monkeypatch):
        # without the per-monomial memo this bar makes 262,125 calls
        calls = 0
        transfer = BarContext.transfer

        def counted(self, v, c, d):
            nonlocal calls
            calls += 1
            return transfer(self, v, c, d)

        monkeypatch.setattr(BarContext, "transfer", counted)
        BarContext(Shape(1, 1), Window(0, 17)).bar(M(1, 1, 17, 17))
        assert 0 < calls <= 1000

    def test_transfer_takes_one_frame_per_window_letter(self):
        # T_{0,100} recurses 100 letters deep; at more than one stack frame
        # per letter this column outruns a limit 150 frames above the caller
        f, w = T(1, 1, 100, 100), Window(0, 100)
        want = BarContext(f.shape, w).bar_monomial(f)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 150)
        try:
            got = BarContext(f.shape, w).bar_monomial(f)
        finally:
            sys.setrecursionlimit(limit)
        assert got == want

    def test_vanishing_components_are_memoized_without_a_vector(self):
        # the bar columns of the 256-member 3|3 block memoize 597 components,
        # 36 of them zero; each zero is recorded as None, not as a vector
        w = Window(0, 3)
        ctx = BarContext(Shape(3, 3), w)
        for g in block(T(3, 3, 3, 2, 1, 1, 2, 3), w):
            ctx.bar_monomial(g)
        stored = list(ctx._transfer_memo.values())
        assert (len(stored), stored.count(None)) == (597, 36)
        assert all(v is None or v.terms for v in stored)


class TestBarOracle:
    def test_two_covariant_canonical(self):
        got = bar_oracle(T(2, 0, 2, 1), Window(1, 2), 2, "canonical")
        assert got == M(2, 0, 2, 1) + M(2, 0, 1, 2).scaled(P({1: 1}))

    def test_atypical_canonical(self):
        got = bar_oracle(T(1, 1, 2, 2), Window(0, 2), 3, "canonical")
        assert got == M(1, 1, 2, 2) + M(1, 1, 1, 1).scaled(P({1: 1}))

    def test_atypical_dual_chain(self):
        got = bar_oracle(T(1, 1, 2, 2), Window(0, 2), 3, mode="dual")
        want = (
            M(1, 1, 2, 2)
            + M(1, 1, 1, 1).scaled(P({-1: -1}))
            + M(1, 1, 0, 0).scaled(P({-2: 1}))
        )
        assert got == want

    def test_singleton(self):
        assert bar_oracle(T(1, 1, 1, 3), Window(1, 3), 2, "canonical") == M(1, 1, 1, 3)

    def test_degree_bound_too_small(self):
        with pytest.raises(CheckFailed, match="bar fixed-point system is inconsistent"):
            bar_oracle(T(1, 1, 2, 2), Window(0, 2), 1, mode="dual")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            bar_oracle(T(1, 1, 2, 2), Window(0, 2), 1, mode="positive")

    @pytest.mark.parametrize("extra", [1, -1, P({1: 1})], ids=["2", "0", "1+q"])
    def test_planted_coefficient_at_the_target_fails(self, monkeypatch, extra):
        # bar(M_f) - M_f must lie strictly below f; a coefficient other than
        # 1 at M_f leaves a row at (f, 0) or (f, 1) with no unknown in it
        f, w = T(1, 1, 2, 2), Window(0, 2)
        honest = BarContext.bar_monomial

        def planted(self, g):
            got = honest(self, g)
            return got + M(1, 1, 2, 2).scaled(extra) if g == f else got

        monkeypatch.setattr(BarContext, "bar_monomial", planted)
        with pytest.raises(CheckFailed, match="bar fixed-point system is inconsistent"):
            bar_oracle(f, w, 3, "canonical")

    def test_oracle_results_are_bar_fixed(self):
        w = Window(0, 2)
        for f in [T(2, 1, 2, 1, 1), T(1, 2, 2, 2, 1), T(2, 0, 2, 1)]:
            got = bar_oracle(f, w, 4, "canonical")
            assert bar(got, w) == got, f
            got = bar_oracle(f, w, 4, mode="dual")
            assert bar(got, w) == got, f


class TestSolveExact:
    """The oracle's integer solve; rows are {column: value}, rhs at ncols."""

    def test_unique_integral_solution(self):
        # -3z = 6, x + 2z = -3, 2x - y + z = -1 peel z, x, y in turn; the
        # redundant row x + y + z = 0 is emptied on the way
        system = [
            {0: 1, 1: 1, 2: 1},
            {0: 2, 1: -1, 2: 1, 3: -1},
            {2: -3, 3: 6},
            {0: 1, 2: 2, 3: -3},
        ]
        assert _solve_exact(system, 3) == [1, 1, -2]

    def test_eliminated_rows_may_vanish(self):
        # the second row is twice the first: once y = 2 peels, solving x
        # from either of them empties the other
        assert _solve_exact([{0: 1, 1: 2, 2: 5}, {0: 2, 1: 4, 2: 10}, {1: 1, 2: 2}], 2) == [1, 2]

    def test_rows_without_unknowns_that_hold_zero(self):
        # an empty row and 0 = 0 state nothing and are left alone
        assert _solve_exact([{}, {0: 3, 2: 6}, {2: 0}, {0: 1, 1: 1, 2: 5}], 2) == [2, 3]

    def test_inconsistent(self):
        with pytest.raises(CheckFailed, match="bar fixed-point system is inconsistent"):
            _solve_exact([{0: 1, 1: 1}, {0: 1, 1: 2}], 1)

    def test_free_directions(self):
        with pytest.raises(CheckFailed, match="system leaves 2 of 2 unknowns unsolved"):
            _solve_exact([{0: 1, 1: 1, 2: 2}], 2)

    def test_not_integral(self):
        with pytest.raises(CheckFailed, match="bar fixed-point solution is not integral"):
            _solve_exact([{0: 2, 1: 5}], 1)

    @pytest.mark.parametrize(
        "system, ncols, message",
        [
            # z = 4 peels; x + y = 3, x - y = 1 fix x and y, but neither
            # of their rows is ever a singleton
            (
                [{2: 1, 3: 4}, {0: 1, 1: 1, 2: 1, 3: 7}, {0: 1, 1: -1, 3: 1}],
                3,
                "system leaves 2 of 3 unknowns unsolved",
            ),
            # 2x = 1 is skipped, and y + z = 2 never peels
            ([{0: 2, 3: 1}, {1: 1, 2: 1, 3: 2}], 3, "solution is not integral"),
            # z = 1 and z = 2 clash, while x + y = 3, x - y = 1 stall
            (
                [{0: 1, 1: 1, 3: 3}, {0: 1, 1: -1, 3: 1}, {2: 1, 3: 1}, {2: 1, 3: 2}],
                3,
                "system is inconsistent",
            ),
        ],
        ids=["unknowns-left", "not-integral", "inconsistent"],
    )
    def test_a_stalled_system(self, system, ncols, message):
        # inconsistency is reported first, then a skipped fraction, and
        # only then the count of unknowns left
        with pytest.raises(CheckFailed, match=f"bar fixed-point {message}"):
            _solve_exact(system, ncols)

    @pytest.mark.parametrize(
        "system, ncols, left",
        [
            ([{0: 1, 3: 2}, {0: 1, 1: 1, 2: 1, 3: 5}], 3, "2 of 3"),
            ([{0: 1, 2: 2}], 2, "1 of 2"),
            ([{0: 1, 1: 1, 3: 2}, {0: 1, 1: 1, 2: 2, 3: 4}, {2: 1, 3: 1}], 3, "2 of 3"),
        ],
        ids=["substitution-leaves-two", "never-held", "a-repeated-row"],
    )
    def test_free_directions_after_substitution(self, system, ncols, left):
        with pytest.raises(CheckFailed, match=f"leaves {left} unknowns unsolved"):
            _solve_exact(system, ncols)

    @pytest.mark.parametrize(
        "system, ncols",
        [
            ([{0: 2, 1: 1}, {0: 1, 1: 1}], 1),
            ([{0: 1, 1: 1}, {0: 2, 1: 1}], 1),
            ([{0: 2, 2: 1}, {1: 1, 2: 1}, {1: 1, 2: 2}], 2),
        ],
        ids=["fraction-then-integer", "integer-then-fraction", "elsewhere"],
    )
    def test_a_fractional_singleton_is_reported_last(self, system, ncols):
        # 2x = 1 has no integral solution, but an inconsistent system is
        # reported as such first
        with pytest.raises(CheckFailed, match="bar fixed-point system is inconsistent"):
            _solve_exact(system, ncols)

    def test_row_without_unknowns_from_the_start(self):
        # 0 = 3 sits beside a singleton row that solves x = 2 on its own
        with pytest.raises(CheckFailed, match="bar fixed-point system is inconsistent"):
            _solve_exact([{1: 3}, {0: 2, 1: 4}], 1)

    def test_bar_systems_need_no_cross_multiplied_pivot(self):
        # every bar system peels: row (g, j) holds x_{g,j} with coefficient
        # +-1 and unknowns of members above g only, so substitution alone
        # solves it top-down
        solved = 0
        for shape, w in [(Shape(2, 1), Window(-1, 4)), (Shape(3, 1), Window(0, 3))]:
            for order in blocks(shape, w):
                if len(order) > 12:
                    continue
                for f in order:
                    for mode in ("canonical", "dual"):
                        got = bar_oracle(f, w, 8, mode)
                        assert got.coeff(f) == LaurentPoly.one()
                        solved += 1
        assert solved == 728, solved


@st.composite
def solvable_systems(draw):
    """A small peelable system with one integral solution, its rows shuffled.

    Core row k holds x_k with coefficient +-1 and unknowns above k only;
    the redundant rows are integer combinations of core rows.
    """
    ncols = draw(st.integers(1, 3))
    x = draw(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))
    core = []
    for k in range(ncols):
        row = {k: draw(st.sampled_from([1, -1]))}
        for j in range(k + 1, ncols):
            row[j] = draw(st.integers(-2, 2))
        core.append(row)
    rows = list(core)
    weights = st.lists(st.integers(-2, 2), min_size=ncols, max_size=ncols)
    for ws in draw(st.lists(weights, max_size=2)):
        combo: dict[int, int] = {}
        for w, row in zip(ws, core):
            for k, a in row.items():
                combo[k] = combo.get(k, 0) + w * a
        rows.append(combo)
    system = []
    for row in draw(st.permutations(rows)):
        row = {k: a for k, a in row.items() if a}
        rhs = sum(a * x[k] for k, a in row.items())
        if rhs:
            row[ncols] = rhs
        system.append(row)
    return system, ncols, x


class TestSolveExactRowOrder:
    @given(solvable_systems())
    @settings(max_examples=60, deadline=None)
    def test_every_row_order_gives_the_solution(self, case):
        system, ncols, x = case
        for order in itertools.permutations(system):
            assert _solve_exact(list(order), ncols) == x
