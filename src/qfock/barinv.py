"""The bar involution on a windowed tensor space.

Construction is recursive over the factor count.  On one factor bar fixes
every monomial.  On k factors,

    bar(x (x) y) = Theta_k(bar(x) (x) bar(y)),

where Theta_k = id + sum of weight-transfer components T_{c,d} (x) shift.
A component moves one unit of weight from the last factor into the prefix:
the appended letter moves from c to d (covariant last factor) or from d to
c (dual last factor), c < d, while the prefix absorbs the difference
through a string of raising operators E_c .. E_{d-1}.  The components obey

    T_{c,c+1} = (q - q^-1) E_c                     (both sectors)
    covariant: T_{c,d} = E_c T_{c+1,d} - q^-1 T_{c+1,d} E_c
    dual:      T_{c,d} = T_{c+1,d} E_c - q^-1 E_c T_{c+1,d}

with an equivalent recursion that peels the top index instead; both are
implemented and compared.  The normalization is pinned by two executable
facts, covered by tests: bar agrees with the Hecke-transport bar on
single-sector shapes, and bar(M_f) - M_f is supported strictly below f in
the Bruhat order.

The window keeps the dual-side corrections finite.  Letters created by the
recursion stay inside the window by construction; the involution, however,
only holds exactly for coefficients of tuples inside the window.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .fock import FockVector, act, apply_chevalley
from .hecke import HeckeElement
from .laurent import LaurentPoly
from .weightlat import (
    Parabolic,
    Shape,
    SignedTuple,
    Window,
    WindowEscape,
    antidominant_rep,
    block,
    bruhat_leq,
    perm_inv,
    weight,
    weight_key,
    window_tuples,
)

_Q_MINUS_QINV = LaurentPoly({1: 1, -1: -1})
_MINUS_QINV = LaurentPoly({-1: -1})


class NoSolution(Exception):
    """A defining linear condition turned out to be unsatisfiable."""


class NonUnique(Exception):
    """A defining linear condition failed to pin the answer down."""


def _prefix_shape(shape: Shape, k: int) -> Shape:
    mm = min(k, shape.m)
    return Shape(mm, k - mm)


def _append(v: FockVector, b: int, out_shape: Shape) -> FockVector:
    res = FockVector(out_shape)
    res.terms = {
        SignedTuple(out_shape, f.entries + (b,)): c for f, c in v.terms.items()
    }
    return res


class BarContext:
    """Bar involution for one shape inside one window, with memo tables."""

    def __init__(self, shape: Shape, window: Window):
        self.shape = shape
        self.window = window
        self._memo: dict[tuple[int, ...], FockVector] = {}

    # -- transfer components -------------------------------------------

    def _E(self, v: FockVector, a: int) -> FockVector:
        return apply_chevalley(v, "E", a)

    def transfer(self, v: FockVector, c: int, d: int, right_dual: bool) -> FockVector:
        """T_{c,d} applied to a prefix vector, peeling the bottom index."""
        if d == c + 1:
            return self._E(v, c).scaled(_Q_MINUS_QINV)
        inner = lambda x: self.transfer(x, c + 1, d, right_dual)
        if right_dual:
            lead, trail = inner(self._E(v, c)), self._E(inner(v), c)
        else:
            lead, trail = self._E(inner(v), c), inner(self._E(v, c))
        return lead.axpy(trail, _MINUS_QINV)

    def transfer_peel_top(
        self, v: FockVector, c: int, d: int, right_dual: bool
    ) -> FockVector:
        """Same component through the other recursion, for cross-checks."""
        if d == c + 1:
            return self._E(v, c).scaled(_Q_MINUS_QINV)
        inner = lambda x: self.transfer_peel_top(x, c, d - 1, right_dual)
        if right_dual:
            lead, trail = self._E(inner(v), d - 1), inner(self._E(v, d - 1))
        else:
            lead, trail = inner(self._E(v, d - 1)), self._E(inner(v), d - 1)
        return lead.axpy(trail, _MINUS_QINV)

    # -- the bar map ----------------------------------------------------

    def bar_monomial(self, f: SignedTuple) -> FockVector:
        if f.shape != self.shape:
            raise ValueError("tuple shape differs from the context shape")
        if not f.in_window(self.window):
            raise WindowEscape(f"{f} has letters outside {self.window}")
        got = self._memo.get(f.entries)
        if got is None:
            got = self._bar_entries(f.entries)
            self._memo[f.entries] = got
        return got

    def _bar_entries(self, entries: tuple[int, ...]) -> FockVector:
        k = len(entries)
        shape_k = _prefix_shape(self.shape, k)
        if k == 1:
            return FockVector.monomial(SignedTuple(shape_k, entries))
        prefix, b = entries[:-1], entries[-1]
        cached = self._memo.get(prefix)
        if cached is None:
            cached = self._bar_entries(prefix)
            self._memo[prefix] = cached
        x = cached
        out = _append(x, b, shape_k)
        lo, hi = self.window.lo, self.window.hi
        if k > self.shape.m:
            for c in range(lo, b):
                out.axpy(_append(self.transfer(x, c, b, True), c, shape_k))
        else:
            for d in range(b + 1, hi + 1):
                out.axpy(_append(self.transfer(x, b, d, False), d, shape_k))
        return out

    def bar(self, v: FockVector) -> FockVector:
        """Anti-linear extension of bar_monomial."""
        out = FockVector.zero(self.shape)
        for f, c in v.terms.items():
            out.axpy(self.bar_monomial(f), c.bar())
        return out

    def factorwise_bar(self, v: FockVector) -> FockVector:
        """bar on the first k-1 factors tensor bar on the last, anti-linear.

        This is the inner conjugation in the defining identity of the
        coupling operator; the last factor's bar is trivial on monomials.
        """
        out = FockVector.zero(v.shape)
        for f, c in v.terms.items():
            prefix, b = f.entries[:-1], f.entries[-1]
            sub = BarContext(_prefix_shape(self.shape, len(prefix)), self.window)
            sub._memo = self._memo
            barred = sub._bar_entries(prefix) if prefix else None
            if barred is None:
                out.add_term(f, c.bar())
            else:
                out.axpy(_append(barred, b, v.shape), c.bar())
        return out


_CONTEXTS: dict[tuple[Shape, Window], BarContext] = {}


def bar_context(shape: Shape, window: Window) -> BarContext:
    key = (shape, window)
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        ctx = _CONTEXTS[key] = BarContext(shape, window)
    return ctx


def bar(v: FockVector, window: Window) -> FockVector:
    """Bar involution of a vector supported inside the window."""
    return bar_context(v.shape, window).bar(v)


def pure_bar(v: FockVector) -> FockVector:
    """Bar involution of a single-sector vector, by Hecke transport.

    Writes each monomial as M_{f0} H_tau with f0 antidominant (which bar
    fixes) and tau a minimal coset representative, then conjugates H_tau.
    Independent of the coupling construction; used to pin its conventions.
    """
    shape = v.shape
    if shape.m and shape.n:
        raise ValueError("pure_bar needs a single-sector shape")
    par = Parabolic.full(shape)
    out = FockVector.zero(shape)
    for f, c in v.terms.items():
        f0, tau, _ = antidominant_rep(f, par)
        # f0 = f.act(tau), so f = f0.act(sigma) with sigma the inverse
        h = HeckeElement.basis(shape, perm_inv(tau)).bar()
        out.axpy(act(FockVector.monomial(f0), h), c.bar())
    return out


# ---------------------------------------------------------------------------
# the coupling operator, materialized on one weight block


class CouplingOperator:
    """id + weight-transfer components on one weight block of prefix (x) letter.

    columns[(prefix_entries, b)] is the image of the corresponding monomial;
    components[(c, d)] collects the part contributed by T_{c,d}.  The
    defining conjugation identity is certified at construction against
    every Chevalley generator available inside the window.
    """

    def __init__(self, left_shape: Shape, right_dual: bool, window: Window, wtblock):
        self.left_shape = left_shape
        self.right_dual = right_dual
        self.window = window
        m, n = left_shape.m, left_shape.n
        if right_dual:
            self.shape = Shape(m, n + 1)
        else:
            if n:
                raise ValueError("covariant factor cannot follow a dual one")
            self.shape = Shape(m + 1, 0)
        self.weight = weight_key(wtblock)
        self.ctx = bar_context(self.shape, window)
        self.basis: list[SignedTuple] = []
        for f in window_tuples(self.shape, window):
            if weight_key(weight(f)) == self.weight:
                self.basis.append(f)
        self.columns: dict[SignedTuple, FockVector] = {}
        self.components: dict[tuple[int, int], dict[SignedTuple, FockVector]] = {}
        for f in self.basis:
            self.columns[f] = self._column(f)
        self._certify()

    def _column(self, f: SignedTuple) -> FockVector:
        prefix, b = f.entries[:-1], f.entries[-1]
        pshape = _prefix_shape(self.shape, len(prefix))
        x = FockVector.monomial(SignedTuple(pshape, prefix))
        out = FockVector.monomial(f)
        lo, hi = self.window.lo, self.window.hi
        if self.right_dual:
            pairs = [(c, b) for c in range(lo, b)]
        else:
            pairs = [(b, d) for d in range(b + 1, hi + 1)]
        for c, d in pairs:
            t = self.ctx.transfer(x, c, d, self.right_dual)
            t2 = self.ctx.transfer_peel_top(x, c, d, self.right_dual)
            if t != t2:
                raise NoSolution(
                    f"transfer recursions disagree on T_{{{c},{d}}} at {f}"
                )
            shifted = _append(t, c if self.right_dual else d, self.shape)
            if shifted:
                self.components.setdefault((c, d), {})[f] = shifted
                out.axpy(shifted)
        return out

    def apply(self, v: FockVector) -> FockVector:
        out = FockVector.zero(self.shape)
        for f, c in v.terms.items():
            col = self.columns.get(f)
            if col is None:
                raise WindowEscape(f"{f} is outside the materialized block")
            out.axpy(col, c)
        return out

    def _theta_anywhere(self, v: FockVector) -> FockVector:
        """Theta applied without the block restriction (for certification)."""
        out = FockVector.zero(self.shape)
        lo, hi = self.window.lo, self.window.hi
        for f, coeff in v.terms.items():
            prefix, b = f.entries[:-1], f.entries[-1]
            pshape = _prefix_shape(self.shape, len(prefix))
            x = FockVector.monomial(SignedTuple(pshape, prefix), coeff)
            out.add_term(f, coeff)
            if self.right_dual:
                pairs = [(c, b) for c in range(lo, b)]
            else:
                pairs = [(b, d) for d in range(b + 1, hi + 1)]
            for c, d in pairs:
                t = self.ctx.transfer(x, c, d, self.right_dual)
                out.axpy(_append(t, c if self.right_dual else d, self.shape))
        return out

    def _certify(self):
        """Check Delta(u) Theta = Theta Delta-bar(u) on the block basis.

        Delta-bar(u) conjugates by the factorwise bar of the smaller spaces
        and replaces u by its bar image (E, F fixed, K inverted).
        """
        gens = [("E", a) for a in range(self.window.lo, self.window.hi)]
        gens += [("F", a) for a in range(self.window.lo, self.window.hi)]
        gens += [("K", a) for a in range(self.window.lo, self.window.hi + 1)]
        barred_kind = {"E": "E", "F": "F", "K": "Kinv"}
        for f in self.basis:
            v = FockVector.monomial(f)
            theta_v = self.columns[f]
            for kind, a in gens:
                lhs = apply_chevalley(theta_v, kind, a)
                inner = self.ctx.factorwise_bar(v)
                inner = apply_chevalley(inner, barred_kind[kind], a)
                rhs = self._theta_anywhere(self.ctx.factorwise_bar(inner))
                if lhs != rhs:
                    raise NoSolution(
                        f"coupling fails the defining identity at {f} "
                        f"for {kind}_{a}"
                    )


def coupling(
    left_shape: Shape, right_dual: bool, window: Window, wtblock
) -> CouplingOperator:
    """Materialize the coupling operator on one weight block."""
    return CouplingOperator(left_shape, right_dual, window, wtblock)


# ---------------------------------------------------------------------------
# brute-force oracle


def bar_oracle(
    f: SignedTuple, window: Window, degree_bound: int, mode: str = "canonical"
) -> FockVector:
    """The unique bar-fixed M_f + sum of strictly lower terms, by linear solve.

    Unknowns are the integer coefficients of q^j (canonical mode, j >= 1) or
    q^-j (dual mode) in each lower coefficient; the fixed-point equation
    bar(v) = v becomes an integer linear system solved by elimination.
    Completely independent of the triangular solver built on top of bar.
    """
    if mode not in ("canonical", "dual"):
        raise ValueError(f"unknown mode {mode!r}")
    sign = 1 if mode == "canonical" else -1
    ctx = bar_context(f.shape, window)
    order = block(f, window)
    below = [g for g in order if g != f and bruhat_leq(g, f)]
    bars = {g: ctx.bar_monomial(g) for g in below + [f]}

    unknowns = [(g, sign * j) for g in below for j in range(1, degree_bound + 1)]
    # residual rows are indexed by (tuple, q-power)
    rows: dict[tuple[SignedTuple, int], dict[int, int]] = {}
    const: dict[tuple[SignedTuple, int], int] = {}

    def add_vec(vec: FockVector, into):
        for g, c in vec.terms.items():
            for e, a in c.c.items():
                key = (g, e)
                into[key] = into.get(key, 0) + a

    base = bars[f] - FockVector.monomial(f)
    add_vec(base, const)
    for idx, (g, j) in enumerate(unknowns):
        contrib = bars[g].scaled(LaurentPoly.q_power(-j)) - FockVector.monomial(
            g, LaurentPoly.q_power(j)
        )
        tmp: dict[tuple[SignedTuple, int], int] = {}
        add_vec(contrib, tmp)
        for key, val in tmp.items():
            if val:
                rows.setdefault(key, {})[idx] = val

    ncols = len(unknowns)
    keys = sorted(
        set(rows) | set(const), key=lambda t: (t[0].entries, t[1])
    )
    system = []
    for k in keys:
        row = dict(rows.get(k, {}))
        b = const.get(k, 0)
        if b:
            row[ncols] = -b  # augmented column, [A | rhs] with rhs = -const
        if row:
            system.append(row)

    sol = _solve_exact(system, ncols)
    out = FockVector.monomial(f)
    for (g, j), x in zip(unknowns, sol):
        if x:
            out.add_term(g, LaurentPoly.q_power(j, x))
    return out


def _solve_exact(system, ncols):
    """Gaussian elimination over the integers; integral unique solution.

    Rows are sparse {column: value} dicts over Z with the augmented
    right-hand side stored at column index ncols.  Elimination combines
    rows by cross-multiplication, dividing out the content afterwards, so
    no rationals appear until the final back-substitution.
    """
    live = [dict(r) for r in system]
    pivot_rows: list[tuple[int, dict[int, int]]] = []
    for c in range(ncols):
        best = None
        for i, row in enumerate(live):
            if row.get(c) and (best is None or len(row) < len(live[best])):
                best = i
        if best is None:
            continue
        prow = live.pop(best)
        p = prow[c]
        reduced = []
        for row in live:
            v = row.get(c)
            if not v:
                reduced.append(row)
                continue
            combined = {k: a * p for k, a in row.items()}
            for k, b in prow.items():
                x = combined.get(k, 0) - v * b
                if x:
                    combined[k] = x
                else:
                    combined.pop(k, None)
            if combined:
                content = gcd(*combined.values())
                if content > 1:
                    combined = {k: x // content for k, x in combined.items()}
                reduced.append(combined)
        live = reduced
        pivot_rows.append((c, prow))
    # rows that survive every pivot have zeros in all unknown columns
    for row in live:
        if row.get(ncols):
            raise NoSolution("bar fixed-point system is inconsistent")
    if len(pivot_rows) < ncols:
        raise NonUnique(
            f"bar fixed-point system has {ncols - len(pivot_rows)} free directions"
        )
    sol: dict[int, Fraction] = {}
    for c, prow in reversed(pivot_rows):
        acc = Fraction(prow.get(ncols, 0))
        for k, v in prow.items():
            if k != c and k != ncols:
                acc -= v * sol[k]
        sol[c] = acc / prow[c]
    out = []
    for c in range(ncols):
        x = sol[c]
        if x.denominator != 1:
            raise NoSolution("bar fixed-point solution is not integral")
        out.append(int(x))
    return out
