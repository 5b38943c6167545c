"""Canonical and dual canonical bases by bar triangularization.

For a tuple f inside a window, the canonical element T_f (dual: L_f) is the
unique bar-fixed vector M_f + sum over g strictly below f of t_{gf} M_g with
t_{gf} in q Z[q] (dual: in q^-1 Z[q^-1]).  The solver walks f's block
downward from f, in block order (a linear extension of the Bruhat order):
once every t_{hf} with h above g is known, the difference

    d_g = sum_{g < h <= f} r_{gh} bar(t_{hf}),   r_{gh} = [M_g] bar(M_h),

must be killed by t_{gf} - bar(t_{gf}), which pins t_{gf} inside the chosen
half of the coefficient ring.  A member that no solved bar column reaches
is skipped, so no Bruhat comparison is needed.  Each step checks that d_g
is antisymmetric under bar and raises CheckFailed if not (the bar map is
broken).  Every column is one cached `image_solve`: `triangular_solve`
inside the symmetrized image of a parabolic, shared with qsym, reading
each projected bar column from its BarContext; at the trivial parabolic
it is the tensor solve.  `canonical` solves at the parabolic f tops and
expands over the orbits; `tensor_canonical` solves at the trivial one.
`dual_canonical` runs the tensor solve only at members with no sector
descent and reaches every other member by the Kazhdan-Lusztig recursion
over the right Hecke action; the tensor dual solve stays as its second
route, `tensor_dual_canonical`.

Dual canonical supports legitimately run into the window floor (their full
expansions are infinite).  Canonical supports should not; a canonical
expansion whose support, the target included, reaches the bottom of its
block, when a one-step floor extension would enlarge the block, triggers
a TruncationWarning instead of being trusted silently.  That flag
(`reaches_floor`) is a heuristic: it can miss a truncated column.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from functools import lru_cache
from types import MappingProxyType

from .barinv import bar_context
from .fock import FockVector, act_gen
from .laurent import (
    MINUS_QINV,
    LaurentPoly,
    NotAntisymmetric,
    NotDivisible,
    div_exact,
    neg_part,
    pos_part,
)
from .weightlat import (
    CheckFailed,
    Parabolic,
    SignedTuple,
    Window,
    antidominant_rep,
    apply_s,
    block,
    bruhat_leq,
    coset_reps,
    group_qfactorial,
    stabilizer,
)


class TruncationWarning(UserWarning):
    """A canonical expansion may have been cut off by the window floor."""


class BasisExpansion(
    namedtuple("BasisExpansion", "target mode window coefficients truncated")
):
    """One column of a (dual) canonical basis matrix; cached, so read-only.

    Fields: target, mode ("canonical" or "dual"), window, coefficients (a
    read-only mapping from tuples to LaurentPoly) and truncated.
    """

    __slots__ = ()

    def coeff(self, g: SignedTuple) -> LaurentPoly:
        return self.coefficients.get(g, LaurentPoly.zero())

    def vector(self) -> FockVector:
        return FockVector(self.target.shape, dict(self.coefficients))

    def to_json(self) -> dict:
        return {
            "target": str(self.target),
            "mode": self.mode,
            "window": str(self.window),
            "coefficients": json_rows(self.coefficients),
        }


def json_rows(terms) -> list[dict]:
    """The --json rows {"tuple", "poly"} of a tuple-keyed mapping, in tuple order."""
    rows = sorted(terms.items(), key=lambda t: t[0].entries)
    return [{"tuple": str(g), **c.to_json()} for g, c in rows]


def triangular_solve(order, bar_column, part, target, scale=None) -> dict:
    """The coefficients t_{g,target} of the bar-fixed element through target.

    `order` is any linear extension of the Bruhat order holding target,
    such as its block; `bar_column(h)` is the coefficient dict of bar
    applied to the basis vector at h; `part` is pos_part (canonical) or
    neg_part (dual).  Each nonzero t_{h,target} adds bar(t_{h,target})
    times bar_column(h) into one running difference, which lies strictly
    below h; an index it never reaches is skipped, and only solved indices
    get a bar column.  Raises CheckFailed, naming g and target, if target
    is not in order or the bar map is broken.

    With `scale`, the coefficients are solved for the basis scale(h) e_h
    while the columns stay in e-coordinates: scale(h) must be bar-invariant,
    each bar(t_h) enters the difference times scale(h), and the difference
    at g is divided once by scale(g), a failed exact division raising
    CheckFailed too.
    """
    if target not in order:
        raise CheckFailed(f"{target} is not in its ordered block")
    t: dict = {}
    diff: dict = {}
    val = LaurentPoly.one()
    for g in reversed(order[: order.index(target) + 1]):
        if g != target and g not in diff:
            continue
        s = None if scale is None else scale(g)
        if g != target:
            d = diff.pop(g)
            try:
                if s is not None:
                    d = div_exact(d, s)
                val = part(d)
            except NotDivisible as exc:
                raise CheckFailed(
                    f"difference at {g} below {target} is not divisible by {s}"
                ) from exc
            except NotAntisymmetric as exc:
                raise CheckFailed(
                    f"difference at {g} below {target} is not bar-antisymmetric: {d}"
                ) from exc
        if val:
            t[g] = val
            tb = val.bar() if s is None else val.bar() * s
            for h, r in bar_column(g).items():
                diff[h] = diff[h] + r * tb if h in diff else r * tb
    return t


def inverse_column(order, column, f) -> dict:
    """Column f of the inverse of a unitriangular matrix, as a dict without zeros.

    `order` is a linear extension of the Bruhat order holding f; `column(h)`
    maps g to the entry (g, h), an int or a LaurentPoly, zero unless g is at
    or before h.  Solved downward from f by one running difference, as in
    triangular_solve: only columns h with a nonzero entry x_h are read, and
    one whose diagonal entry is not exactly 1 raises CheckFailed.
    """
    x: dict = {}
    diff: dict = {}
    for h in reversed(order[: order.index(f) + 1]):
        xh = -diff.pop(h, 0)
        if h != f and not xh:
            continue
        col = column(h)
        one = col.get(h, 0)
        if one != 1:
            raise CheckFailed(f"diagonal entry at {h} is {one}, not 1")
        if h == f:
            xh = one
        x[h] = xh
        for g, a in col.items():
            diff[g] = diff.get(g, 0) + a * xh
    return x


def reaches_floor(target: SignedTuple, support, w: Window, keep=None) -> bool:
    """Whether support reaches the bottom of target's block and a lower floor grows it.

    Only block members passing keep count.  A member of support is at the
    bottom when no kept member before it in block order lies below it; the
    block grows when the window with floor w.lo - 1 holds a kept member
    below target that w does not.
    """
    order = block(target, w)
    kept = []
    for g in order[: order.index(target) + 1]:
        if keep is None or keep(g):
            if g in support and not any(bruhat_leq(h, g) for h in kept):
                break
            kept.append(g)
    else:
        return False
    wider = block(target, Window(w.lo - 1, w.hi))
    return any(
        not h.in_window(w) and (keep is None or keep(h)) and bruhat_leq(h, target)
        for h in wider[: wider.index(target)]
    )


# ---------------------------------------------------------------------------
# the symmetrized image of a parabolic W, as far as the solvers need it


@lru_cache(maxsize=None)
def orbit_data(sub: Parabolic, par: Parabolic) -> tuple:
    """([W_f], reps, top, n_ratio) for an orbit whose stabilizer in par is sub.

    reps is the tuple of coset_reps(sub, par), top the length of the last.
    """
    stab_q = group_qfactorial(sub)
    reps = tuple(coset_reps(sub, par))
    return stab_q, reps, reps[-1][1], div_exact(group_qfactorial(par), stab_q)


def n_ratio(f: SignedTuple, par: Parabolic) -> LaurentPoly:
    """[W] / [W_f], the exact quantum index of the stabilizer of f in W.

    A quotient of balanced q-factorials, hence bar-invariant.  Cached per
    stabilizer, so nothing is stored per tuple.
    """
    return orbit_data(stabilizer(f, par), par)[3]


@lru_cache(maxsize=None)
def image_solve(target: SignedTuple, par: Parabolic, w: Window, mode: str) -> MappingProxyType:
    """The (dual) canonical image column through an anti-dominant target, read-only.

    Solved over block(target, w).  The bar column of Ntilde_g is
    project(bar(M_g)) (BarContext.image_column, built once per g and
    parabolic): phi is right multiplication by the bar-fixed symmetrizer,
    and bar commutes with the Hecke action.  project lands at or below
    each tuple on an anti-dominant one, so only anti-dominant indices are
    solved.  The canonical column is solved for N_g = n_ratio(g) Ntilde_g
    (n_ratio is bar-invariant), the dual one for Ntilde_g; at the trivial
    parabolic this is the tensor solve.  It solves every column of
    canonical and qsym's image, cached per (target, par, w, mode); it
    never warns.
    """
    ctx = bar_context(target.shape, w)
    order = block(target, w)
    column = lambda g: ctx.image_column(g, par)
    if mode == "dual":
        t = triangular_solve(order, column, neg_part, target)
    else:
        t = triangular_solve(order, column, pos_part, target, lambda g: n_ratio(g, par))
    return MappingProxyType(t)


def top_parabolic(f: SignedTuple) -> Parabolic:
    """J(f): the s_i where f weakly falls (covariant) or rises (dual), so f tops its orbit."""
    e, m = f.entries, f.shape.m
    gens = range(1, f.shape.size)
    return Parabolic(
        f.shape, [i for i in gens if i != m and (e[i - 1] >= e[i] if i < m else e[i - 1] <= e[i])]
    )


@lru_cache(maxsize=None)
def _canonical(f: SignedTuple, par: Parabolic, w: Window) -> BasisExpansion:
    """T_f from the image column of par through the bottom of f's orbit; see canonical."""
    t = {}
    for b, c in image_solve(antidominant_rep(f, par)[0], par, w, "canonical").items():
        _, reps, top, _ = orbit_data(stabilizer(b, par), par)
        for x, lx in reps:
            t[b.act(x)] = c if lx == top else c.shifted(top - lx)
    truncated = reaches_floor(f, t.keys(), w)
    return BasisExpansion(f, "canonical", w, MappingProxyType(t), truncated)


def _warned(exp: BasisExpansion) -> BasisExpansion:
    if exp.truncated:
        warnings.warn(
            f"canonical expansion of {exp.target} reaches the bottom of its "
            f"block and window {exp.window} may truncate it",
            TruncationWarning,
            stacklevel=3,
        )
    return exp


def canonical(f: SignedTuple, w: Window) -> BasisExpansion:
    """The canonical basis element T_f through f, coefficients in qZ[q].

    The parabolic is chosen by f alone: f tops its orbit under
    J(f) = top_parabolic(f), whose bottom g is anti-dominant, and the
    q-symmetrizer carries T_f onto the image's canonical element through
    g.  (When J(f) is trivial, g = f and this is the tensor solve.)  With
    Mtilde_b = sum_x q^(top(b) - l(x)) M_{b.x} over the minimal coset reps
    x, the vector sum_b t^N_{b,g} Mtilde_b of the image column (N
    coordinates, image_solve) is bar-fixed, is 1 at M_f and lies in qZ[q]
    elsewhere, so by uniqueness it is T_f:

        t_{b.x,f} = t^N_{b,g} q^(top(b) - l(x)).

    Only the bar columns at anti-dominant tuples are read.  The truncation
    flag is one rule on the tensor support, whatever J(f) is.

    Warns with a TruncationWarning on every call whose expansion is
    truncated, cached or not.
    """
    return _warned(_canonical(f, top_parabolic(f), w))


def tensor_canonical(f: SignedTuple, w: Window) -> BasisExpansion:
    """T_f by the tensor solve at every f: the second route, warning as canonical does."""
    return _warned(_canonical(f, Parabolic.trivial(f.shape), w))


def _falls(x: int, y: int, i: int, m: int) -> bool:
    """Whether letters x, y at positions i, i+1 fall (covariant) or rise (dual)."""
    return x != y and (x > y) == (i < m)


def sector_descent(f: SignedTuple) -> int | None:
    """The first i != m where f falls (covariant) or rises (dual), else None."""
    e, m = f.entries, f.shape.m
    for i in range(1, f.shape.size):
        if i != m and _falls(e[i - 1], e[i], i, m):
            return i
    return None


def _in_kernel(v: FockVector, i: int) -> bool:
    """Whether v (H_i + q) = 0, read off v's coefficients without act_gen.

    That kernel is spanned by M_g - q^-1 M_{g.s_i} over the g that fall at
    i: v holds no tie at i, and each g that falls carries a partner g.s_i
    with -q^-1 times its coefficient, which accounts for every other term.
    """
    m, falls = v.shape.m, 0
    for g, c in v.terms.items():
        x, y = g[i], g[i + 1]
        if x == y:
            return False
        if _falls(x, y, i, m):
            falls += 1
            if v.terms.get(SignedTuple(g.shape, apply_s(g.entries, i))) != -c.shifted(-1):
                return False
    return 2 * falls == len(v.terms)


def _checked(exp: BasisExpansion) -> BasisExpansion:
    """exp, once its diagonal is 1 and every other coefficient lies in 1/q Z[1/q]."""
    f = exp.target
    for g, c in exp.coefficients.items():
        if g != f and c.max_exp() > -1:
            raise CheckFailed(f"dual canonical coefficient at {g} of {f} is {c}")
    if exp.coeff(f) != LaurentPoly.one():
        raise CheckFailed(f"dual canonical diagonal at {f} is {exp.coeff(f)}")
    return exp


@lru_cache(maxsize=None)
def _dual(f: SignedTuple, w: Window) -> BasisExpansion:
    """L_f by the Kazhdan-Lusztig recursion; see dual_canonical."""
    i = sector_descent(f)
    if i is None:
        return _checked(tensor_dual_canonical(f, w))
    prev = _dual(SignedTuple(f.shape, apply_s(f.entries, i)), w).vector()
    v = act_gen(prev, i).axpy(prev, MINUS_QINV)
    order = block(f, w)
    for g in reversed(order[: order.index(f)]):
        mu = v.terms[g].coeff(0) if g in v.terms else 0
        if mu:
            v.axpy(_dual(g, w).vector(), -mu)
    if not _in_kernel(v, i):
        raise CheckFailed(f"dual canonical element at {f} is not killed by H_{i} + q")
    return _checked(BasisExpansion(f, "dual", w, MappingProxyType(v.terms), False))


def dual_canonical(f: SignedTuple, w: Window) -> BasisExpansion:
    """The dual canonical basis element L_f, coefficients in 1/q Z[1/q].

    If f has a sector descent s_i (sector_descent), L_f comes from the
    column of f' = f.s_i by the Kazhdan-Lusztig recursion: H_i - q^-1 is
    bar-fixed, so L_f' (H_i - q^-1) is bar-fixed, 1 at M_f, and lies in
    Z[q^-1] elsewhere; taken top-down over f's block, each constant term
    mu_g at g < f is removed by subtracting mu_g L_g.  Only a member with no
    sector descent (covariant letters weakly increasing, dual ones weakly
    decreasing) runs the tensor solve.  Every column is checked: diagonal 1,
    every other coefficient in 1/q Z[1/q], and, at a descent, killed by
    H_i + q as the image of H_i - q^-1 is (_in_kernel, which a broken
    act_gen fails where the degrees cannot show it); a failure raises
    CheckFailed.
    """
    return _dual(f, w)


def tensor_dual_canonical(f: SignedTuple, w: Window) -> BasisExpansion:
    """L_f by the tensor solve at every f: the second route to dual_canonical."""
    t = image_solve(f, Parabolic.trivial(f.shape), w, "dual")
    return BasisExpansion(f, "dual", w, t, False)


def dual_inverse_column(order: tuple[SignedTuple, ...], f: SignedTuple, w: Window) -> dict:
    """Column f of the inverse of D_{g,h} = l_{g,h}(q^-1) over an ordered block.

    Bar is a ring automorphism: this bars column f of the inverse of l(q).
    """
    inv = inverse_column(order, lambda h: dual_canonical(h, w).coefficients, f)
    return {g: c.bar() for g, c in inv.items()}


def inverse_relation_check(order: tuple[SignedTuple, ...], w: Window) -> None:
    """Inverting the dual matrix at q -> 1/q lands on the negated canonical one.

    With D_{g,f} = l_{g,f}(q^-1) over the given block, the inverse matrix
    must satisfy (D^-1)_{g,f} = t_{-f,-g}(q) where the canonical
    coefficients are computed on the entrywise-negated block.  Exact, no
    specialization.  Raises CheckFailed naming the first bad entry.
    """
    negated = [g.negate() for g in order]
    for g in negated:
        if not g.in_window(w):
            raise ValueError(f"negated tuple {g} leaves the window {w}")
    inv = {f: dual_inverse_column(order, f, w) for f in order}
    for g, ng in zip(order, negated):
        for f, nf in zip(order, negated):
            got = inv[f].get(g, LaurentPoly.zero())
            want = canonical(ng, w).coeff(nf)
            if got != want:
                raise CheckFailed(f"inverse relation fails at ({g}, {f}): {got} != {want}")
