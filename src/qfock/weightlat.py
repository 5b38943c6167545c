"""Signed tuples, their weight lattice, and the combinatorial Bruhat order.

A shape (m, n) splits positions 1..m+n into a covariant sector (1..m) and a
dual sector (m+1..m+n).  A signed tuple f assigns an integer letter to each
position; its weight is sum_{i<=m} eps_{f(i)} - sum_{j>m} eps_{f(j)} in the
free abelian group on {eps_r : r in Z}.

The dominance order on weights declares mu <= nu when nu - mu is a
nonnegative integer combination of the differences eps_r - eps_{r+1}.
The Bruhat order on tuples compares all tail weights in dominance order.

Permutations are 0-based one-line tuples; (a*b)(i) = a(b(i)); tuples carry a
right action (f.sigma)(i) = f(sigma(i)).  Parabolic subgroups of S_m x S_n
are generated by adjacent transpositions s_i with label i != m.

Shape, Window, SignedTuple and Parabolic are immutable named tuples of their
fields, validated on construction, so the hash and equality behind every
dict and cache lookup keyed by them run in C.  Inside them fields are read
by name: SignedTuple indexing is 1-based, f[1] being the first letter.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Mapping
from functools import lru_cache


class WindowEscape(Exception):
    """Raised when a computation needs letters outside the ambient window."""


class CheckFailed(Exception):
    """An identity checked against a second route failed: the code is wrong."""


class Shape(namedtuple("Shape", "m n")):
    __slots__ = ()

    def __new__(cls, m: int, n: int):
        if m < 0 or n < 0 or m + n == 0:
            raise ValueError("shape needs m, n >= 0 with m + n >= 1")
        return tuple.__new__(cls, (m, n))

    @property
    def size(self) -> int:
        return self.m + self.n

    def __str__(self) -> str:
        return f"{self.m}|{self.n}"


class Window(namedtuple("Window", "lo hi")):
    __slots__ = ()

    def __new__(cls, lo: int, hi: int):
        if lo > hi:
            raise ValueError("empty window")
        return tuple.__new__(cls, (lo, hi))

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    def __contains__(self, letter: int) -> bool:
        return self.lo <= letter <= self.hi

    def letters(self) -> range:
        return range(self.lo, self.hi + 1)

    def __str__(self) -> str:
        return f"{self.lo}..{self.hi}"


class SignedTuple(namedtuple("SignedTuple", "shape entries")):
    __slots__ = ()

    def __new__(cls, shape: Shape, entries: tuple[int, ...]):
        if len(entries) != shape.size:
            raise ValueError("entry count does not match shape")
        return tuple.__new__(cls, (shape, entries))

    def __getitem__(self, pos: int) -> int:
        """1-based position access, matching the mathematical indexing."""
        return self.entries[pos - 1]

    def act(self, perm: tuple[int, ...]) -> "SignedTuple":
        """Right action (f.sigma)(i) = f(sigma(i))."""
        return SignedTuple(self.shape, tuple(self.entries[j] for j in perm))

    def negate(self) -> "SignedTuple":
        return SignedTuple(self.shape, tuple(-e for e in self.entries))

    def in_window(self, w: Window) -> bool:
        return all(e in w for e in self.entries)

    def __str__(self) -> str:
        m = self.shape.m
        left = ",".join(str(e) for e in self.entries[:m])
        right = ",".join(str(e) for e in self.entries[m:])
        return f"{left}|{right}"

    @classmethod
    def parse(cls, text: str, shape: Shape | None = None) -> "SignedTuple":
        """Parse "a,b|c" into a tuple, inferring the shape from the bar."""
        left, _, right = text.partition("|")
        lefts = [int(x) for x in left.split(",") if x.strip() != ""]
        rights = [int(x) for x in right.split(",") if x.strip() != ""]
        inferred = Shape(len(lefts), len(rights))
        if shape is not None and shape != inferred:
            raise ValueError(f"tuple {text} does not match shape {shape}")
        return cls(inferred, tuple(lefts + rights))


# ---------------------------------------------------------------------------
# weights


def weight(f: SignedTuple) -> dict[int, int]:
    """The weight of f as a sparse map letter -> multiplicity (signed)."""
    wt: dict[int, int] = {}
    m = f.shape.m
    for pos, r in enumerate(f.entries):
        b = wt.get(r, 0) + (1 if pos < m else -1)
        if b:
            wt[r] = b
        else:
            del wt[r]
    return wt


def weight_key(wt: Mapping[int, int]) -> tuple:
    return tuple(sorted(wt.items()))


@lru_cache(maxsize=None)
def bruhat_leq(g: SignedTuple, f: SignedTuple) -> bool:
    """The combinatorial Bruhat order: same weight, dominated tail weights.

    One pass over the tails j = m+n, ..., 1 keeps diff[k], the signed count
    of tail letters <= the k-th smallest letter in f minus that count in g.
    These are the partial sums of dominance: none may go negative for
    j >= 2, and at j = 1 all must vanish, which says the weights agree.

    >>> sh = Shape(1, 1)
    >>> bruhat_leq(SignedTuple(sh, (0, 0)), SignedTuple(sh, (1, 1)))
    True
    >>> bruhat_leq(SignedTuple(sh, (1, 1)), SignedTuple(sh, (0, 0)))
    False
    """
    if g.shape != f.shape:
        raise ValueError("tuples of different shapes are incomparable")
    rank = {r: k for k, r in enumerate(sorted({*g.entries, *f.entries}))}
    diff = [0] * len(rank)
    m = f.shape.m
    for i in range(f.shape.size - 1, -1, -1):  # tail j = i + 1
        a, b = rank[f.entries[i]], rank[g.entries[i]]
        step = 1 if i < m else -1
        if a > b:
            a, b, step = b, a, -step
        for k in range(a, b):
            diff[k] += step
            if diff[k] < 0 and i:
                return False
    return not any(diff)


# ---------------------------------------------------------------------------
# permutations (0-based one-line tuples)


def identity_perm(k: int) -> tuple[int, ...]:
    return tuple(range(k))


def perm_inv(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def apply_s(a: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Right multiply by the adjacent transposition s_i (1-based label)."""
    lst = list(a)
    lst[i - 1], lst[i] = lst[i], lst[i - 1]
    return tuple(lst)


def reduced_word(a: tuple[int, ...]) -> tuple[int, ...]:
    """A reduced word (s_{j_1}, ..., s_{j_r}) for a, as 1-based labels.

    >>> reduced_word((2, 0, 1))
    (2, 1)
    >>> reduced_word(identity_perm(4))
    ()
    """
    word = []
    cur = a
    while True:
        for i in range(1, len(cur)):
            if cur[i - 1] > cur[i]:
                word.append(i)
                cur = apply_s(cur, i)
                break
        else:
            break
    return tuple(reversed(word))


# ---------------------------------------------------------------------------
# parabolic subgroups of S_m x S_n


class Parabolic(namedtuple("Parabolic", "shape generators")):
    __slots__ = ()

    def __new__(cls, shape: Shape, generators):
        generators = frozenset(generators)
        for i in generators:
            if not 1 <= i <= shape.size - 1 or i == shape.m:
                raise ValueError(f"generator s_{i} is not admissible for shape {shape}")
        return tuple.__new__(cls, (shape, generators))

    @classmethod
    def trivial(cls, shape: Shape) -> "Parabolic":
        return cls(shape, frozenset())

    @classmethod
    def full(cls, shape: Shape) -> "Parabolic":
        gens = {i for i in range(1, shape.size) if i != shape.m}
        return cls(shape, frozenset(gens))

    def intervals(self) -> tuple[tuple[int, int], ...]:
        """Maximal symmetrized position intervals [a, b], 1-based inclusive."""
        gens = sorted(self.generators)
        out = []
        while gens:
            a = gens[0]
            b = a
            while gens and gens[0] == b:
                gens.pop(0)
                b += 1
            out.append((a, b))
        return tuple(out)

    def __str__(self) -> str:
        return ",".join(f"s{i}" for i in sorted(self.generators)) or "e"


@lru_cache(maxsize=None)
def par_elements(par: Parabolic) -> dict[tuple[int, ...], int]:
    """All elements of the parabolic subgroup, mapped to their lengths."""
    k = par.shape.size
    start = identity_perm(k)
    seen = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for i in par.generators:
                q = apply_s(p, i)
                if q not in seen:
                    seen[q] = seen[p] + 1
                    nxt.append(q)
        frontier = nxt
    return seen


def longest_element(par: Parabolic) -> tuple[tuple[int, ...], int]:
    elems = par_elements(par)
    w0 = max(elems, key=lambda p: (elems[p], p))
    return w0, elems[w0]


@lru_cache(maxsize=None)
def group_qfactorial(par: Parabolic):
    """[|W|] = the product of [k]! over the interval factors of the parabolic.

    Poincare polynomial identity: sum_{sigma} q^{l(w0) - 2 l(sigma)} = [|W|].
    """
    from .laurent import LaurentPoly, q_fact

    res = LaurentPoly.one()
    for a, b in par.intervals():
        res = res * q_fact(b - a + 1)
    return res


def is_antidominant(f: SignedTuple, par: Parabolic) -> bool:
    """Weakly increasing on covariant intervals, weakly decreasing on dual ones."""
    for i in par.generators:
        if i < f.shape.m:
            if f[i] > f[i + 1]:
                return False
        else:
            if f[i] < f[i + 1]:
                return False
    return True


@lru_cache(maxsize=None)
def _sort_ranges(par: Parabolic) -> tuple[tuple[int, int, bool], ...]:
    """The intervals of par as 0-based slices [lo, hi), each flagged dual or not."""
    return tuple((a - 1, b, a > par.shape.m) for a, b in par.intervals())


def antidominant_rep(f: SignedTuple, par: Parabolic) -> tuple[SignedTuple, tuple[int, ...], int]:
    """The antidominant tuple in the orbit f.W and the minimal sorter.

    Returns (f0, tau, l(tau)) with f0 = f.act(tau) antidominant and tau of
    minimal length among permutations in W with that property (stable sort).
    tau permutes inside each interval only, so l(tau) is the sum of the
    intervals' inversion counts: the pairs that sort out of order.  An
    interval without inversions is already sorted.
    """
    e = f.entries
    tau = list(range(len(e)))
    length = 0
    for lo, hi, dual in _sort_ranges(par):
        inversions = 0
        for i in range(lo, hi - 1):
            for j in range(i + 1, hi):
                if (e[i] < e[j]) if dual else (e[i] > e[j]):
                    inversions += 1
        if inversions:
            tau[lo:hi] = sorted(range(lo, hi), key=e.__getitem__, reverse=dual)
            length += inversions
    tau_t = tuple(tau)
    return (f.act(tau_t) if length else f), tau_t, length


def stabilizer(f: SignedTuple, par: Parabolic) -> Parabolic:
    """The parabolic {s_i in W : f(i) = f(i+1)}.

    For antidominant f this is the full stabilizer of f inside W.
    """
    gens = frozenset(i for i in par.generators if f[i] == f[i + 1])
    return Parabolic(f.shape, gens)


def coset_reps(sub: Parabolic, par: Parabolic) -> list[tuple[tuple[int, ...], int]]:
    """Minimal-length representatives of the right cosets sub\\W.

    Returned sorted by (length, one-line form); the last entry is the longest
    minimal representative.  sub must be generated by a subset of par's
    generators.
    """
    if not sub.generators <= par.generators:
        raise ValueError("stabilizer is not a standard parabolic of the group")
    elems = par_elements(par)
    gens = sub.generators
    # p is minimal in sub.p iff no s_i of sub is a left descent: i-1 comes before i in p
    reps = sorted(
        ((p, lp) for p, lp in elems.items() if all(p.index(i - 1) < p.index(i) for i in gens)),
        key=lambda t: (t[1], t[0]),
    )
    if len(reps) * len(par_elements(sub)) != len(elems):
        raise CheckFailed("coset decomposition lost elements")
    return reps


# ---------------------------------------------------------------------------
# blocks


def window_tuples(shape: Shape, w: Window):
    """All signed tuples of the shape with letters inside the window."""
    for entries in itertools.product(w.letters(), repeat=shape.size):
        yield SignedTuple(shape, entries)


def height(g: SignedTuple) -> int:
    """-sum_j sum_r r * wt_j(r), strictly increasing in Bruhat order.

    wt_j is the weight of the tail g(j), ..., g(m+n).  A dominance step
    eps_r - eps_{r+1} lowers sum_r r * wt(r) by one, and the tail weights
    determine the tuple, so g < f in the Bruhat order forces
    height(g) < height(f).  Position p lies in the tails j = 1..p,
    which gives the closed form below.

    >>> sh = Shape(1, 1)
    >>> [height(SignedTuple(sh, (a, a))) for a in (0, 1, 2)]
    [0, 1, 2]
    """
    m = g.shape.m
    return sum(p * e if p > m else -p * e for p, e in enumerate(g.entries, 1))


@lru_cache(maxsize=None)
def block(f: SignedTuple, w: Window) -> tuple[SignedTuple, ...]:
    """The weight block of f inside the window, in a linear extension of Bruhat order.

    Members come from the dual multisets of the weight (see `weight_block`)
    and are ordered by height, then by entries.  The block is built once
    per (shape, weight, window), so every member gets back the same
    immutable tuple.
    """
    if not f.in_window(w):
        raise WindowEscape(f"tuple {f} lies outside window {w}")
    return weight_block(f.shape, weight_key(weight(f)), w)


@lru_cache(maxsize=None)
def weight_block(shape: Shape, key: tuple, w: Window) -> tuple[SignedTuple, ...]:
    """All tuples of the shape in the window whose weight has this weight_key.

    Members come from the dual multisets Y of size n in the window for which
    X = wt + Y is a size-m multiset in the window: every arrangement of X on
    the covariant positions with every arrangement of Y on the dual ones.
    They are sorted by (height, entries): height is strict along the Bruhat
    order, so this is a linear extension of it, and incomparable members
    are ordered by height, then lexicographically.  Cached; the returned
    tuple is immutable and shared by every caller.
    """
    wt = dict(key)
    members = []
    for ys in itertools.combinations_with_replacement(w.letters(), shape.n):
        xs_count = dict(wt)
        for y in ys:
            xs_count[y] = xs_count.get(y, 0) + 1
        if any(a < 0 or (a and r not in w) for r, a in xs_count.items()):
            continue
        xs = tuple(r for r in sorted(xs_count) for _ in range(xs_count[r]))
        if len(xs) != shape.m:
            continue
        for left, right in itertools.product(
            set(itertools.permutations(xs)), set(itertools.permutations(ys))
        ):
            members.append(SignedTuple(shape, left + right))
    members.sort(key=lambda g: (height(g), g.entries))
    return tuple(members)


def blocks(shape: Shape, w: Window):
    """Every weight block of the shape in the window, each once.

    Blocks come in the order of their lexicographically first member, which
    is the order in which window_tuples first reaches them.
    """
    seen: set = set()
    letters = w.letters()
    for xs in itertools.combinations_with_replacement(letters, shape.m):
        for ys in itertools.combinations_with_replacement(letters, shape.n):
            key = weight_key(weight(SignedTuple(shape, xs + ys)))
            if key not in seen:
                seen.add(key)
                yield weight_block(shape, key, w)


# ---------------------------------------------------------------------------
# weight <-> tuple dictionary for gl(m|n)


def weight_to_tuple(shape: Shape, lam: tuple[int, ...]) -> SignedTuple:
    """The tuple of a gl(m|n) integral weight under the rho-shifted bijection.

    f(i) = lam_i + m - i + 1 on the covariant sector and
    f(j) = -lam_j + j - m on the dual sector.

    >>> weight_to_tuple(Shape(1, 1), (0, 0)).entries
    (1, 1)
    """
    if len(lam) != shape.size:
        raise ValueError("weight length does not match shape")
    m = shape.m
    ent = [lam[i - 1] + m - i + 1 for i in range(1, shape.m + 1)]
    ent += [-lam[j - 1] + j - m for j in range(shape.m + 1, shape.size + 1)]
    return SignedTuple(shape, tuple(ent))


def tuple_to_weight(f: SignedTuple) -> tuple[int, ...]:
    """Inverse of weight_to_tuple.

    >>> sh = Shape(2, 1)
    >>> tuple_to_weight(weight_to_tuple(sh, (3, -1, 4)))
    (3, -1, 4)
    """
    m = f.shape.m
    lam = [f[i] - (m - i + 1) for i in range(1, m + 1)]
    lam += [(j - m) - f[j] for j in range(m + 1, f.shape.size + 1)]
    return tuple(lam)


def is_typical(f: SignedTuple) -> bool:
    """No letter shared between the two sectors."""
    m = f.shape.m
    return not (set(f.entries[:m]) & set(f.entries[m:]))
