"""The bar involution on a windowed tensor space.

Construction is recursive over the factor count.  On one factor bar fixes
every monomial.  On k factors,

    bar(x (x) y) = Theta_k(bar(x) (x) bar(y)),

where Theta_k = id + sum of weight-transfer components T_{c,d} (x) shift.
A component moves one unit of weight from the last factor into the prefix:
the appended letter moves from c to d (covariant last factor) or from d to
c (dual last factor), c < d, while the prefix absorbs the difference
through a string of raising operators E_c .. E_{d-1}.  The last factor is
dual exactly when the prefix fills the covariant sector, so the sector
follows from the prefix and is never passed.  The components obey

    T_{c,c+1} = (q - q^-1) E_c                     (both sectors)
    covariant: T_{c,d} = E_c T_{c+1,d} - q^-1 T_{c+1,d} E_c
    dual:      T_{c,d} = T_{c+1,d} E_c - q^-1 E_c T_{c+1,d}

with an equivalent recursion that peels the top index instead.  Theta_k is
implemented once, in `BarContext.theta`, which the bar recursion calls;
the tests certify it against its defining identity and against the
unmemoized peel-top recursion.  `transfer` is the linear extension of
T_{c,d}(M_g), memoized per prefix monomial g beside the bar columns and
recursing into itself, one stack frame per window letter, so one
component costs one new column per (monomial, c, d) instead of 2^(d-c)
recursive calls; the one-step T_{c,c+1}, a single E_c, is recomputed
rather than stored.  The normalization is pinned by two executable facts,
covered by tests: bar agrees with the Hecke-transport bar (`pure_bar`)
on single-sector shapes, and bar(M_f) - M_f is supported strictly below f
in the Bruhat order.

`project` is phi, right multiplication by the symmetrizer of a parabolic,
in the image's Ntilde coordinates.  bar commutes with the Hecke action
and the symmetrizer is bar-fixed, so project(bar(M_g)) is bar(Ntilde_g).
`BarContext.image_column` stores each column once: the bar column itself
at the trivial parabolic, else only its projection per (g, parabolic).

The window keeps the dual-side corrections finite.  Letters created by the
recursion stay inside the window by construction; the involution, however,
only holds exactly for coefficients of tuples inside the window.

`bar_oracle` finds a bar-fixed element by one integer linear solve; it
shares no code with the triangular solvers in `canonical` that it checks.
`_solve_exact` solves by substitution alone: it reads off the unknown of
every row that holds only one and substitutes it into the other rows.
Row (g, j) of a bar system holds x_{g,j} with coefficient +-1 and
unknowns of members above g only, so a consistent system peels top-down
from singleton rows without being told the block order.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from types import MappingProxyType

from .fock import FockVector, act_gen, apply_chevalley
from .laurent import MINUS_QINV, Q_MINUS_QINV, LaurentPoly
from .weightlat import (
    CheckFailed,
    Parabolic,
    Shape,
    SignedTuple,
    Window,
    WindowEscape,
    antidominant_rep,
    block,
    bruhat_leq,
    height,
    perm_inv,
    reduced_word,
)

_UNSEEN = object()


def _append(v: FockVector, b: int, out_shape: Shape) -> FockVector:
    res = FockVector(out_shape)
    res.terms = {
        SignedTuple(out_shape, f.entries + (b,)): c for f, c in v.terms.items()
    }
    return res


def project(terms: dict, par: Parabolic) -> dict:
    """phi(v) in Ntilde coordinates, for v the sum of terms[f] M_f.

    phi is right multiplication by the symmetrizer of par, onto its image:
    M_f goes to q^-l(tau) Ntilde_{f.tau}, where f.tau is the anti-dominant
    member of f's orbit and tau the minimal sorter.  Returns a fresh dict
    without zeros.
    """
    out: dict = {}
    for f, c in terms.items():
        f0, _, ltau = antidominant_rep(f, par)
        if ltau:
            c = c.shifted(-ltau)
        s = out[f0] + c if f0 in out else c
        if s:
            out[f0] = s
        else:
            out.pop(f0, None)
    return out


class BarContext:
    """Bar involution for one shape inside one window, with memo tables."""

    def __init__(self, shape: Shape, window: Window):
        self.shape = shape
        self.window = window
        self._memo: dict[tuple[int, ...], FockVector] = {}
        self._transfer_memo: dict[tuple, FockVector | None] = {}
        self._image_memo: dict[tuple, MappingProxyType] = {}

    # -- transfer components -------------------------------------------

    def transfer(self, v: FockVector, c: int, d: int) -> FockVector:
        """T_{c,d} applied to a prefix vector, peeling the bottom index.

        The appended letter is dual exactly when the prefix fills the
        covariant sector.  One step is E_c scaled by q - q^-1; beyond it,
        T_{c,d}(M_g) is memoized (None when it vanishes, then read-only) and
        built by recursing into `transfer` itself, one stack frame per
        letter.  Always a fresh vector, so callers may accumulate into it.
        """
        out = FockVector.zero(v.shape)
        dual = v.shape.size >= self.shape.m
        for g, a in v.terms.items():
            if d == c + 1:
                t = apply_chevalley(FockVector.monomial(g), "E", c).scaled(Q_MINUS_QINV)
            else:
                t = self._transfer_memo.get((g, c, d), _UNSEEN)
                if t is _UNSEEN:
                    x = FockVector.monomial(g)
                    e_inner = apply_chevalley(self.transfer(x, c + 1, d), "E", c)
                    inner_e = self.transfer(apply_chevalley(x, "E", c), c + 1, d)
                    lead, trail = (inner_e, e_inner) if dual else (e_inner, inner_e)
                    t = self._transfer_memo[g, c, d] = lead.axpy(trail, MINUS_QINV) or None
            if t is not None:
                out.axpy(t, a)
        return out

    def theta(self, x: FockVector, b: int) -> FockVector:
        """Theta(x (x) M_b): the appended letter plus every transfer component.

        The sector of b follows from the prefix x, as in `transfer`: a dual
        b moves down to each c (T_{c,b}), a covariant one up to each d
        (T_{b,d}).
        """
        m, n = x.shape
        if x.shape.size >= self.shape.m:
            shape, moves = Shape(m, n + 1), [(c, b, c) for c in range(self.window.lo, b)]
        else:
            shape, moves = Shape(m + 1, n), [(b, d, d) for d in range(b + 1, self.window.hi + 1)]
        out = _append(x, b, shape)
        for c, d, letter in moves:
            out.axpy(_append(self.transfer(x, c, d), letter, shape))
        return out

    # -- the bar map ----------------------------------------------------

    def bar_monomial(self, f: SignedTuple) -> FockVector:
        if f.shape != self.shape:
            raise ValueError("tuple shape differs from the context shape")
        if not f.in_window(self.window):
            raise WindowEscape(f"{f} has letters outside {self.window}")
        return self._bar_entries(f.entries)

    def _bar_entries(self, entries: tuple[int, ...]) -> FockVector:
        """bar of the monomial on the first len(entries) factors, memoized."""
        got = self._memo.get(entries)
        if got is None:
            if len(entries) == 1:
                shape = Shape(1, 0) if self.shape.m else Shape(0, 1)
                got = FockVector.monomial(SignedTuple(shape, entries))
            else:
                got = self.theta(self._bar_entries(entries[:-1]), entries[-1])
            self._memo[entries] = got
        return got

    def image_column(self, g: SignedTuple, par: Parabolic) -> MappingProxyType:
        """project(bar(M_g), par), read-only: the bar column of Ntilde_g in the image.

        The stored bar column itself at the trivial parabolic.  Elsewhere
        memoized per (g, par) beside the bar columns, so clearing bar_context
        drops it, and the bar column is kept only if it was stored before.
        """
        if not par.generators:
            return MappingProxyType(self.bar_monomial(g).terms)
        got = self._image_memo.get((g, par))
        if got is None:
            kept = g.entries in self._memo
            got = MappingProxyType(project(self.bar_monomial(g).terms, par))
            self._image_memo[g, par] = got
            if not kept:
                del self._memo[g.entries]
        return got

    def bar(self, v: FockVector) -> FockVector:
        """Anti-linear extension of bar_monomial."""
        out = FockVector.zero(self.shape)
        for f, c in v.terms.items():
            out.axpy(self.bar_monomial(f), c.bar())
        return out


@lru_cache(maxsize=None)
def bar_context(shape: Shape, window: Window) -> BarContext:
    return BarContext(shape, window)


def bar(v: FockVector, window: Window) -> FockVector:
    """Bar involution of a vector supported inside the window."""
    return bar_context(v.shape, window).bar(v)


def pure_bar(v: FockVector) -> FockVector:
    """Bar involution of a single-sector vector, by Hecke transport.

    Writes each monomial as M_{f0} H_sigma with f0 antidominant (which bar
    fixes) and sigma the inverse of its minimal sorter, so that its bar is
    M_{f0} bar(H_sigma): act_gen applies bar(H_i) = H_i + (q - q^-1) along
    a reduced word of sigma.  Independent of the transfer construction;
    used to pin its conventions.
    """
    shape = v.shape
    if shape.m and shape.n:
        raise ValueError("pure_bar needs a single-sector shape")
    par = Parabolic.full(shape)
    out = FockVector.zero(shape)
    for f, c in v.terms.items():
        f0, tau, _ = antidominant_rep(f, par)
        # f0 = f.act(tau), so f = f0.act(sigma) with sigma the inverse
        cur = FockVector.monomial(f0).scaled(c.bar())
        for i in reduced_word(perm_inv(tau)):
            cur = act_gen(cur, i).axpy(cur, Q_MINUS_QINV)
        out.axpy(cur)
    return out


# ---------------------------------------------------------------------------
# brute-force oracle


def bar_oracle(f: SignedTuple, window: Window, max_degree: int, mode: str) -> FockVector:
    """The unique bar-fixed M_f + sum of strictly lower terms, by linear solve.

    Unknowns are the integer coefficients of q^j (canonical mode) or q^-j
    (dual mode) in each lower coefficient at g, for
    1 <= j <= min(max_degree, height(f) - height(g)); bar(v) = v becomes an
    integer system with one row per (tuple, q-power), built in one pass:
    each row opens with its right-hand side -(bar(M_f) - M_f) at column
    ncols, and each unknown writes its shifted bar column into the rows.

    The height bound is a tested conjecture, not a theorem: every
    canonical and dual coefficient computed so far has degree at most
    height(f) - height(g) (`verify --suite canonical` counts them).  It
    cannot give a wrong answer: the bar-fixed element is unique, so a
    restricted system either returns it or is inconsistent.  max_degree
    only caps it further.  Raises CheckFailed when the system is
    inconsistent, as when bar(M_f) is not M_f plus strictly lower terms or
    a degree bound is too small, or when substitution leaves an unknown
    unsolved.
    """
    if mode not in ("canonical", "dual"):
        raise ValueError(f"unknown mode {mode!r}")
    sign = 1 if mode == "canonical" else -1
    ctx = bar_context(f.shape, window)
    below = [g for g in block(f, window) if g != f and bruhat_leq(g, f)]
    top = height(f)
    degrees = [min(max_degree, top - height(g)) for g in below]
    rows: dict[tuple[SignedTuple, int], dict[int, int]] = {}
    ncols = sum(degrees)
    for h, c in (ctx.bar_monomial(f) - FockVector.monomial(f)).terms.items():
        for e, a in c.c.items():
            rows[h, e] = {ncols: -a}
    # unknown (g, j) contributes bar(M_g) q^-j - q^j M_g: entry a at
    # (h, e - j) for each a q^e in bar(M_g) at h, and -1 at (g, j)
    unknowns = []
    for g, degree in zip(below, degrees):
        column = ctx.bar_monomial(g).terms.items()
        for j in range(sign, sign * (degree + 1), sign):
            idx = len(unknowns)
            unknowns.append((g, j))
            for h, c in column:
                for e, a in c.c.items():
                    rows.setdefault((h, e - j), {})[idx] = a
            row = rows.setdefault((g, j), {})
            row[idx] = row.get(idx, 0) - 1
            if not row[idx]:
                del row[idx]
    sol = _solve_exact(list(rows.values()), ncols)
    out = FockVector.monomial(f)
    for (g, j), x in zip(unknowns, sol):
        if x:
            out.add_term(g, LaurentPoly.q_power(j, x))
    return out


def _solve_exact(system, ncols):
    """Integer solve by substitution alone.

    Rows are sparse {column: value} dicts over Z, left unchanged, with the
    augmented right-hand side at column index ncols.  Whenever a live row
    holds exactly one unknown whose value divides, that value is read off
    by one exact divmod and substituted into every live row holding the
    unknown: the column is popped and the right-hand side adjusted, so
    nothing fills in.  `holders` maps each unknown to the rows that hold
    it.  When no such row is left, a row with no unknown and a nonzero
    right-hand side is reported as inconsistent; otherwise an unsolved
    unknown is reported as not integral if a singleton was skipped because
    its value does not divide, and else by the count of unknowns left.

    A triangular system peels from its singleton rows in any row order;
    x + y = 3, x - y = 1 has none, so it stalls:

    >>> _solve_exact([{0: 1, 1: 1, 3: 5}, {1: 2, 3: 4}, {1: 1, 2: -1}], 3)
    [3, 2, 2]
    >>> _solve_exact([{0: 1, 1: 1, 2: 3}, {0: 1, 1: -1, 2: 1}], 2)
    Traceback (most recent call last):
    ...
    qfock.weightlat.CheckFailed: bar fixed-point system leaves 2 of 2 unknowns unsolved
    """
    live = {i: dict(r) for i, r in enumerate(system)}
    holders: defaultdict[int, set[int]] = defaultdict(set)
    for i, row in live.items():
        for k in row:
            if k != ncols:
                holders[k].add(i)
    singles = [i for i, row in live.items() if len(row) - (ncols in row) == 1]
    sol: dict[int, int] = {}
    fractional = False
    while singles:
        i = singles.pop()
        row = live.get(i)
        if row is None or len(row) - (ncols in row) != 1:
            continue  # solved already, or emptied by a substitution
        for k, a in row.items():
            if k != ncols:
                break
        x, r = divmod(row.get(ncols, 0), a)
        if r:
            fractional = True
            continue
        sol[k] = x
        # row i is a holder too: its own substitution empties it
        for h in holders.pop(k):
            row = live[h]
            rhs = row.get(ncols, 0) - row.pop(k) * x
            if rhs:
                row[ncols] = rhs
            else:
                row.pop(ncols, None)
            if not row:
                del live[h]
            elif len(row) - (ncols in row) == 1:
                singles.append(h)
    for row in live.values():
        if len(row) == 1 and row.get(ncols):
            raise CheckFailed("bar fixed-point system is inconsistent")
    left = ncols - len(sol)
    if left and fractional:
        raise CheckFailed("bar fixed-point solution is not integral")
    if left:
        raise CheckFailed(f"bar fixed-point system leaves {left} of {ncols} unknowns unsolved")
    return [sol[c] for c in range(ncols)]
