import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from qfock.weightlat import (
    Parabolic,
    Shape,
    SignedTuple,
    Window,
    WindowEscape,
    antidominant_rep,
    apply_s,
    block,
    blocks,
    bruhat_leq,
    coset_reps,
    group_qfactorial,
    height,
    identity_perm,
    is_antidominant,
    is_right_ascent,
    is_typical,
    longest_element,
    par_elements,
    perm_inv,
    reduced_word,
    stabilizer,
    tuple_to_weight,
    weight,
    weight_key,
    weight_to_tuple,
    weight_block,
    window_tuples,
)
from qfock.laurent import LaurentPoly, q_fact


def T(m, n, *entries):
    return SignedTuple(Shape(m, n), tuple(entries))


def tail_weight(f, j):
    """Reference: the signed weight of the tail f(j), f(j+1), ..., f(m+n)."""
    wt = Counter()
    for pos in range(j, f.shape.size + 1):
        wt[f[pos]] += 1 if pos <= f.shape.m else -1
    return {r: a for r, a in wt.items() if a}


def dominates(mu, nu):
    """Reference: mu <= nu iff nu - mu is a nonnegative sum of eps_r - eps_{r+1} terms.

    Equivalently the difference has total sum zero and all partial sums,
    accumulated from the smallest letter upward, nonnegative.
    """
    diff = Counter(nu)
    diff.subtract(mu)
    run = 0
    for r in sorted(diff):
        run += diff[r]
        if run < 0:
            return False
    return run == 0


def tail_weight_bruhat_leq(g, f):
    """Reference Bruhat order: equal weights, every tail weight of g dominated by f's."""
    tails = range(2, f.shape.size + 1)
    return tail_weight(g, 1) == tail_weight(f, 1) and all(
        dominates(tail_weight(g, j), tail_weight(f, j)) for j in tails
    )


def perm_mul(a, b):
    """(a*b)(i) = a(b(i)), the product the right action on tuples follows."""
    return tuple(a[j] for j in b)


def perm_length(a):
    """Inversion count, the Coxeter length: the reference for reduced words and coset reps."""
    return sum(1 for i, j in itertools.combinations(range(len(a)), 2) if a[i] > a[j])


small_shapes = st.sampled_from([Shape(1, 1), Shape(2, 0), Shape(0, 2), Shape(2, 1), Shape(1, 2), Shape(2, 2)])


@st.composite
def tuples_strategy(draw, shape=None):
    sh = draw(small_shapes) if shape is None else shape
    entries = draw(st.tuples(*[st.integers(-3, 3)] * sh.size))
    return SignedTuple(sh, entries)


class TestShapesAndTuples:
    def test_sectors(self):
        # positions 1..m are covariant (+1 in the weight), m+1..m+n dual (-1)
        assert weight(T(2, 1, 5, 5, 5)) == {5: 1}
        assert weight(T(1, 2, 5, 5, 5)) == {5: -1}
        with pytest.raises(ValueError):
            Shape(0, 0)

    def test_parse_and_str(self):
        f = SignedTuple.parse("2,1|5")
        assert f.shape == Shape(2, 1)
        assert f.entries == (2, 1, 5)
        assert str(f) == "2,1|5"
        g = SignedTuple.parse("|3,4")
        assert g.shape == Shape(0, 2)
        with pytest.raises(ValueError):
            SignedTuple.parse("1|2", Shape(2, 0))

    def test_act(self):
        f = T(2, 1, 10, 20, 30)
        assert f.act((1, 0, 2)).entries == (20, 10, 30)
        # (f.sigma).tau = f.(sigma tau)
        sigma, tau = (1, 0, 2), (0, 2, 1)
        assert f.act(sigma).act(tau) == f.act(perm_mul(sigma, tau))

    def test_window(self):
        w = Window(-1, 2)
        assert w.width == 4
        assert 0 in w and -2 not in w
        assert T(1, 1, 0, 2).in_window(w)
        assert not T(1, 1, 0, 3).in_window(w)
        with pytest.raises(ValueError):
            Window(1, 0)


shapes_up_to_4 = st.integers(1, 4).flatmap(
    lambda k: st.integers(0, k).map(lambda m: Shape(m, k - m))
)


@st.composite
def shaped_entries(draw):
    sh = draw(shapes_up_to_4)
    return sh, draw(st.tuples(*[st.integers(-3, 3)] * sh.size))


class TestValueTypeContract:
    """Shape, Window, SignedTuple and Parabolic: immutable, validated values
    whose hash is the hash of their field tuple."""

    @given(st.integers(1, 4), st.data())
    def test_equal_entries_different_shapes_are_unequal(self, k, data):
        m1, m2 = data.draw(st.lists(st.integers(0, k), min_size=2, max_size=2, unique=True))
        entries = data.draw(st.tuples(*[st.integers(-3, 3)] * k))
        f, g = SignedTuple(Shape(m1, k - m1), entries), SignedTuple(Shape(m2, k - m2), entries)
        assert f != g and not f == g

    @given(shaped_entries())
    def test_hash_is_the_field_tuple_hash(self, case):
        sh, entries = case
        f = SignedTuple(sh, entries)
        g = SignedTuple(Shape(sh.m, sh.n), tuple(list(entries)))
        assert f == g and hash(f) == hash(g)
        assert hash(f) == hash(((sh.m, sh.n), entries))
        assert hash(sh) == hash((sh.m, sh.n))
        assert hash(Window(-1, 3)) == hash((-1, 3))
        par = Parabolic.full(sh)
        assert hash(par) == hash(((sh.m, sh.n), par.generators))

    @given(shaped_entries())
    def test_fields_are_read_only(self, case):
        sh, entries = case
        f, w, par = SignedTuple(sh, entries), Window(0, 2), Parabolic.trivial(sh)
        for obj, field in [(f, "shape"), (f, "entries"), (w, "lo"), (w, "hi"),
                           (par, "generators"), (par, "shape"), (sh, "m")]:
            with pytest.raises(AttributeError):
                setattr(obj, field, getattr(obj, field))
        with pytest.raises(AttributeError):
            f.extra = 1

    @given(shaped_entries(), st.integers(-1, 5))
    def test_validation_errors(self, case, i):
        sh, entries = case
        with pytest.raises(ValueError, match="entry count"):
            SignedTuple(sh, entries + (0,))
        with pytest.raises(ValueError, match="entry count"):
            SignedTuple(sh, entries[1:])
        with pytest.raises(ValueError, match="empty window"):
            Window(i, i - 1)
        with pytest.raises(ValueError, match="shape needs"):
            Shape(0, 0)
        with pytest.raises(ValueError, match="shape needs"):
            Shape(-1, sh.size + 1)
        if 1 <= i <= sh.size - 1 and i != sh.m:
            assert Parabolic(sh, [i]).generators == frozenset({i})
        else:
            with pytest.raises(ValueError, match="not admissible"):
                Parabolic(sh, frozenset({i}))

    @given(shaped_entries())
    def test_one_based_indexing_repr_and_str(self, case):
        sh, entries = case
        f = SignedTuple(sh, entries)
        assert [f[pos] for pos in range(1, sh.size + 1)] == list(entries)
        assert repr(f) == f"SignedTuple(shape=Shape(m={sh.m}, n={sh.n}), entries={entries!r})"
        left, right = entries[: sh.m], entries[sh.m :]
        assert str(f) == ",".join(map(str, left)) + "|" + ",".join(map(str, right))
        assert str(sh) == f"{sh.m}|{sh.n}" and str(Window(-2, 1)) == "-2..1"
        assert repr(Window(-2, 1)) == "Window(lo=-2, hi=1)"
        par = Parabolic.full(sh)
        assert repr(par) == f"Parabolic(shape={sh!r}, generators={par.generators!r})"


class TestWeights:
    def test_weight_signs(self):
        f = T(2, 1, 1, 2, 1)
        assert weight(f) == tail_weight(f, 1) == {2: 1}
        assert tail_weight(f, 2) == {2: 1, 1: -1}
        assert tail_weight(f, 3) == {1: -1}

    def test_dominance_examples(self):
        e = lambda r: {r: 1}
        assert dominates(e(2), e(1))
        assert not dominates(e(1), e(2))
        assert dominates({-1: -1}, {2: -1})
        assert dominates(e(5), e(5))
        # different total => incomparable
        assert not dominates({}, e(1))
        # eps_1 + eps_3 vs 2 eps_2: incomparable (one up-step, one down-step)
        assert not dominates({1: 1, 3: 1}, {2: 2})
        assert not dominates({2: 2}, {1: 1, 3: 1})
        # but eps_1 + eps_3 <= eps_1 + eps_2 <= 2 eps_1
        assert dominates({1: 1, 3: 1}, {1: 1, 2: 1})
        assert dominates({1: 1, 2: 1}, {1: 2})

    @given(st.dictionaries(st.integers(-3, 3), st.integers(-2, 2), max_size=4),
           st.lists(st.integers(-3, 2), max_size=5))
    def test_dominance_from_steps(self, base, steps):
        # adding eps_r - eps_{r+1} moves strictly up
        nu = dict(base)
        for r in steps:
            nu[r] = nu.get(r, 0) + 1
            nu[r + 1] = nu.get(r + 1, 0) - 1
        assert dominates(base, nu)
        if steps and weight_key(base) != weight_key(nu):
            assert not dominates(nu, base)


class TestBruhat:
    def test_chain(self):
        assert bruhat_leq(T(1, 1, 0, 0), T(1, 1, 1, 1))
        assert not bruhat_leq(T(1, 1, 1, 1), T(1, 1, 0, 0))
        assert bruhat_leq(T(2, 0, 1, 2), T(2, 0, 2, 1))
        assert bruhat_leq(T(0, 2, 2, 1), T(0, 2, 1, 2))
        # different weights are incomparable
        assert not bruhat_leq(T(1, 1, 0, 1), T(1, 1, 1, 1))

    @given(tuples_strategy())
    def test_reflexive(self, f):
        assert bruhat_leq(f, f)

    @given(st.data())
    def test_negation_reverses(self, data):
        f = data.draw(tuples_strategy())
        g = data.draw(tuples_strategy(shape=f.shape))
        assert bruhat_leq(g, f) == bruhat_leq(f.negate(), g.negate())

    @given(st.data())
    @settings(max_examples=40)
    def test_antisymmetric_and_transitive(self, data):
        f = data.draw(tuples_strategy())
        g = data.draw(tuples_strategy(shape=f.shape))
        h = data.draw(tuples_strategy(shape=f.shape))
        if bruhat_leq(g, f) and bruhat_leq(f, g):
            assert f == g
        if bruhat_leq(g, f) and bruhat_leq(h, g):
            assert bruhat_leq(h, f)


    def test_matches_tail_weight_definition(self):
        cases = [
            ((2, 2), -1, 2), ((3, 1), 0, 3), ((1, 3), 0, 3), ((2, 1), -1, 3),
            ((3, 2), 0, 2), ((3, 0), 0, 3), ((0, 3), 0, 3), ((1, 1), -2, 3),
        ]
        same = 0
        for shape, lo, hi in cases:
            for blk in blocks(Shape(*shape), Window(lo, hi)):
                for g in blk:
                    for f in blk:
                        assert bruhat_leq(g, f) == tail_weight_bruhat_leq(g, f), (g, f)
                        same += 1
        different = 0
        for shape in (Shape(2, 1), Shape(1, 2), Shape(2, 2), Shape(3, 1)):
            tuples = list(window_tuples(shape, Window(0, 2 if shape.size < 4 else 1)))
            for g in tuples:
                for f in tuples:
                    if weight(g) != weight(f):
                        assert not bruhat_leq(g, f) and not tail_weight_bruhat_leq(g, f)
                        different += 1
        assert (same, different) == (13924, 1644)


class TestPermutations:
    def test_basics(self):
        assert identity_perm(3) == (0, 1, 2)
        assert perm_mul((1, 0, 2), (0, 2, 1)) == (1, 2, 0)
        assert perm_inv((1, 2, 0)) == (2, 0, 1)
        assert perm_length((2, 1, 0)) == 3
        assert apply_s((0, 1, 2), 2) == (0, 2, 1)
        assert is_right_ascent((0, 1, 2), 1)
        assert not is_right_ascent((1, 0, 2), 1)

    @given(st.permutations(list(range(4))))
    def test_reduced_word(self, perm):
        p = tuple(perm)
        word = reduced_word(p)
        assert len(word) == perm_length(p)
        q = identity_perm(4)
        for i in word:
            assert is_right_ascent(q, i)
            q = apply_s(q, i)
        assert q == p

    @given(st.permutations(list(range(4))), st.permutations(list(range(4))))
    def test_length_subadditive(self, a, b):
        a, b = tuple(a), tuple(b)
        assert perm_length(perm_mul(a, b)) <= perm_length(a) + perm_length(b)
        assert perm_length(perm_inv(a)) == perm_length(a)


def all_parabolics(shape):
    valid = [i for i in range(1, shape.size) if i != shape.m]
    for r in range(len(valid) + 1):
        for gens in itertools.combinations(valid, r):
            yield Parabolic(shape, frozenset(gens))


class TestParabolic:
    def test_validation(self):
        with pytest.raises(ValueError):
            Parabolic(Shape(2, 1), frozenset({2}))
        with pytest.raises(ValueError):
            Parabolic(Shape(2, 1), frozenset({3}))
        assert Parabolic.full(Shape(2, 2)).generators == frozenset({1, 3})
        assert Parabolic.full(Shape(1, 3)).generators == frozenset({2, 3})

    def test_intervals(self):
        p = Parabolic(Shape(3, 3), frozenset({1, 2, 4, 5}))
        assert p.intervals() == ((1, 3), (4, 6))
        assert Parabolic.trivial(Shape(1, 1)).intervals() == ()

    def test_elements_count(self):
        p = Parabolic(Shape(3, 2), frozenset({1, 2, 4}))
        elems = par_elements(p)
        assert len(elems) == 12  # S_3 x S_2
        w0, l0 = longest_element(p)
        assert l0 == 4  # 3 + 1 inversions
        assert all(0 <= l <= l0 for l in elems.values())

    def test_poincare(self):
        # sum over W of q^{l(w0) - 2 l(sigma)} equals [|W|]
        for shape in (Shape(2, 1), Shape(1, 2), Shape(2, 2), Shape(3, 1)):
            for par in all_parabolics(shape):
                elems = par_elements(par)
                _, l0 = longest_element(par)
                total = LaurentPoly.zero()
                for _, l in elems.items():
                    total = total + LaurentPoly.q_power(l0 - 2 * l)
                assert total == group_qfactorial(par), str(par)

    def test_qfactorial_cached_per_parabolic(self):
        for shape in (Shape(2, 2), Shape(3, 1)):
            for par in all_parabolics(shape):
                got = group_qfactorial(par)
                assert group_qfactorial(par) is got
                assert got == group_qfactorial.__wrapped__(par), str(par)

    def test_qfactorial_values(self):
        assert group_qfactorial(Parabolic.trivial(Shape(1, 1))) == 1
        p = Parabolic(Shape(2, 2), frozenset({1, 3}))
        assert group_qfactorial(p) == q_fact(2) * q_fact(2)


class TestAntidominant:
    def test_hand_example(self):
        f = T(2, 1, 3, 1, 5)
        par = Parabolic.full(f.shape)
        f0, tau, l = antidominant_rep(f, par)
        assert f0.entries == (1, 3, 5)
        assert tau == (1, 0, 2)
        assert l == 1
        assert f.act(tau) == f0

    def test_dual_sector_sorts_down(self):
        f = T(0, 3, 1, 3, 2)
        par = Parabolic.full(f.shape)
        f0, tau, l = antidominant_rep(f, par)
        assert f0.entries == (3, 2, 1)
        assert is_antidominant(f0, par)

    def test_respects_intervals(self):
        f = T(2, 2, 5, 1, 1, 4)
        par = Parabolic(f.shape, frozenset({3}))
        f0, tau, l = antidominant_rep(f, par)
        assert f0.entries == (5, 1, 4, 1)
        assert l == 1

    @given(st.data())
    @settings(max_examples=60)
    def test_minimality_exhaustive(self, data):
        f = data.draw(tuples_strategy())
        gens = data.draw(st.sets(st.sampled_from(
            [i for i in range(1, f.shape.size) if i != f.shape.m] or [None])))
        if gens == {None}:
            gens = set()
        par = Parabolic(f.shape, frozenset(g for g in gens if g is not None))
        f0, tau, l = antidominant_rep(f, par)
        assert is_antidominant(f0, par)
        assert f.act(tau) == f0
        assert perm_length(tau) == l
        elems = par_elements(par)
        assert tau in elems
        best = min(lp for p, lp in elems.items() if f.act(p) == f0)
        assert l == best
        # antidominant representatives are Bruhat-minimal within the orbit
        assert all(bruhat_leq(f0, f.act(p)) for p in elems)

    def test_stabilizer(self):
        par = Parabolic.full(Shape(3, 0))
        f = T(3, 0, 1, 1, 2)
        assert stabilizer(f, par).generators == frozenset({1})
        assert stabilizer(T(3, 0, 1, 2, 3), par).generators == frozenset()

    def test_coset_reps(self):
        par = Parabolic.full(Shape(3, 0))
        f = T(3, 0, 1, 1, 2)
        sub = stabilizer(f, par)
        reps = coset_reps(sub, par)
        assert len(reps) == 3
        assert [l for _, l in reps] == [0, 1, 2]
        # orbit of f under the reps covers the W-orbit without repeats
        orbit = {f.act(p) for p, _ in reps}
        assert len(orbit) == 3

    def test_coset_reps_are_minimal_in_coset(self):
        par = Parabolic.full(Shape(2, 2))
        sub = Parabolic(par.shape, frozenset({1}))
        reps = coset_reps(sub, par)
        sub_elems = par_elements(sub)
        for rep, l in reps:
            coset_lengths = [perm_length(perm_mul(u, rep)) for u in sub_elems]
            assert l == min(coset_lengths)
        count = len(par_elements(par)) // len(sub_elems)
        assert len(reps) == count

    @staticmethod
    def bucket_coset_reps(sub, par):
        """Reference rule: the shortest element of each coset, keyed by min(sub.p)."""
        sub_elems = par_elements(sub)
        buckets = {}
        for p, lp in par_elements(par).items():
            key = min(perm_mul(u, p) for u in sub_elems)
            if key not in buckets or (lp, p) < (buckets[key][1], buckets[key][0]):
                buckets[key] = (p, lp)
        return sorted(buckets.values(), key=lambda t: (t[1], t[0]))

    def test_coset_reps_match_bucket_rule(self):
        pairs = 0
        for size in range(1, 6):
            for m in range(size + 1):
                for par in all_parabolics(Shape(m, size - m)):
                    for r in range(len(par.generators) + 1):
                        for gens in itertools.combinations(sorted(par.generators), r):
                            sub = Parabolic(par.shape, frozenset(gens))
                            assert coset_reps(sub, par) == self.bucket_coset_reps(sub, par)
                            pairs += 1
        assert pairs == 384


class TestBlock:
    def test_gl11_chain(self):
        blk = block(T(1, 1, 1, 1), Window(-1, 2))
        assert [g.entries for g in blk] == [(-1, -1), (0, 0), (1, 1), (2, 2)]

    def test_pure_block(self):
        blk = block(T(2, 0, 2, 1), Window(1, 2))
        assert [g.entries for g in blk] == [(1, 2), (2, 1)]

    def test_window_escape(self):
        with pytest.raises(WindowEscape):
            block(T(1, 1, 3, 3), Window(0, 2))

    def test_linear_extension(self):
        blk = block(T(2, 1, 2, 1, 1), Window(0, 2))
        for i, g in enumerate(blk):
            for h in blk[i + 1:]:
                assert not bruhat_leq(h, g) or h == g
        # all members share the weight and the window
        for g in blk:
            assert weight(g) == weight(T(2, 1, 2, 1, 1))
        # deterministic
        assert blk == block(T(2, 1, 2, 1, 1), Window(0, 2))

    def test_membership_complete(self):
        f = T(1, 1, 0, 0)
        w = Window(-1, 1)
        blk = set(block(f, w))
        for g in window_tuples(f.shape, w):
            assert (g in blk) == (weight(g) == weight(f))


@st.composite
def tuple_in_window(draw):
    """A shape with m + n <= 4, a window of width <= 4 and a tuple inside it."""
    m, n = draw(st.sampled_from([(m, n) for m in range(5) for n in range(5) if 1 <= m + n <= 4]))
    lo = draw(st.integers(-2, 2))
    w = Window(lo, lo + draw(st.integers(0, 3)))
    entries = draw(st.tuples(*[st.integers(w.lo, w.hi)] * (m + n)))
    return SignedTuple(Shape(m, n), entries), w


class TestBlockProperties:
    @settings(max_examples=60, deadline=None)
    @given(tuple_in_window())
    def test_membership_matches_brute_force(self, fw):
        f, w = fw
        want = {g for g in window_tuples(f.shape, w) if weight(g) == weight(f)}
        assert set(block(f, w)) == want

    @settings(max_examples=40, deadline=None)
    @given(tuple_in_window())
    def test_linear_extension_and_height(self, fw):
        f, w = fw
        blk = block(f, w)
        for i, g in enumerate(blk):
            for h in blk[i + 1:]:
                assert not bruhat_leq(h, g)
                if bruhat_leq(g, h):
                    assert height(g) < height(h)

    @settings(max_examples=40, deadline=None)
    @given(tuple_in_window())
    def test_one_immutable_object_per_block(self, fw):
        f, w = fw
        blk = block(f, w)
        assert isinstance(blk, tuple)
        for g in blk:
            assert block(g, w) is blk

    @settings(max_examples=60, deadline=None)
    @given(tuple_in_window())
    def test_height_closed_form(self, fw):
        f, _ = fw
        tails = range(1, f.shape.size + 1)
        assert height(f) == -sum(r * a for j in tails for r, a in tail_weight(f, j).items())

    def test_blocks_in_first_occurrence_order(self):
        shape, w = Shape(2, 1), Window(-1, 2)
        firsts, seen = [], set()
        for f in window_tuples(shape, w):
            if weight_key(weight(f)) not in seen:
                seen.add(weight_key(weight(f)))
                firsts.append(f)
        assert [min(blk, key=lambda g: g.entries) for blk in blocks(shape, w)] == firsts
        assert all(blk is block(f, w) for blk, f in zip(blocks(shape, w), firsts))

    def test_weight_outside_the_window_has_an_empty_block(self):
        w = Window(0, 2)
        assert weight_block(Shape(1, 1), ((0, -1), (3, 1)), w) == ()
        assert weight_block(Shape(1, 1), ((-1, -1), (1, 1)), w) == ()
        assert weight_block(Shape(2, 1), ((1, 1),), w) == block(T(2, 1, 1, 0, 0), w)

    def test_building_a_block_makes_no_bruhat_comparison(self):
        # a shape and window no other test touches, so the block is new
        f, w = T(2, 2, -9, -8, -8, -7), Window(-10, -6)
        before = bruhat_leq.cache_info()
        builds = weight_block.cache_info().misses
        blk = block(f, w)
        after = bruhat_leq.cache_info()
        assert weight_block.cache_info().misses == builds + 1
        assert len(blk) == 16
        assert after.hits + after.misses == before.hits + before.misses


class TestWeightDictionary:
    def test_gl11_zero(self):
        assert weight_to_tuple(Shape(1, 1), (0, 0)).entries == (1, 1)

    def test_roundtrip(self):
        sh = Shape(2, 1)
        for lam in itertools.product(range(-2, 3), repeat=3):
            assert tuple_to_weight(weight_to_tuple(sh, lam)) == lam

    def test_dot_action_transport(self):
        # w . lam = w(lam + rho) - rho, coordinates permuted within sectors,
        # translates to the inverse right action on tuples.
        sh = Shape(2, 2)
        m, size = sh.m, sh.size
        rho = [m - i + 1 for i in range(1, m + 1)] + [m - j for j in range(m + 1, size + 1)]
        par = Parabolic.full(sh)
        for lam in [(0, 0, 0, 0), (1, -2, 3, 0), (2, 2, -1, -1)]:
            for w in par_elements(par):
                shifted = [lam[k] + rho[k] for k in range(size)]
                winv = perm_inv(w)
                permuted = [shifted[winv[k]] for k in range(size)]
                dotted = tuple(permuted[k] - rho[k] for k in range(size))
                assert weight_to_tuple(sh, dotted) == weight_to_tuple(sh, lam).act(winv)

    def test_typicality(self):
        assert not is_typical(T(1, 1, 1, 1))
        assert is_typical(T(1, 1, 2, 1))
        assert not is_typical(weight_to_tuple(Shape(1, 1), (0, 0)))

    def test_antidominance_matches_weight_condition(self):
        # f_lam antidominant iff lam+rho weakly increasing (cov) resp.
        # the dual-sector coordinates weakly increasing as well
        sh = Shape(2, 2)
        par = Parabolic.full(sh)
        for lam in itertools.product(range(-1, 2), repeat=4):
            f = weight_to_tuple(sh, lam)
            rho = [2, 1, -1, -2]
            shifted = [lam[k] + rho[k] for k in range(4)]
            cond = shifted[0] <= shifted[1] and shifted[2] <= shifted[3]
            assert is_antidominant(f, par) == cond
