"""Canonical and dual canonical bases by bar triangularization.

For a tuple f inside a window, the canonical element T_f (dual: L_f) is the
unique bar-fixed vector M_f + sum over g strictly below f of t_{gf} M_g with
t_{gf} in q Z[q] (dual: in q^-1 Z[q^-1]).  The solver works down the block:
once every t_{hf} with h above g is known, the difference

    d_g = sum_{g < h <= f} r_{gh} bar(t_{hf}),   r_{gh} = [M_g] bar(M_h),

must be killed by t_{gf} - bar(t_{gf}), which pins t_{gf} inside the chosen
half of the coefficient ring.  Each step checks that d_g is antisymmetric
under bar and raises CheckFailed if not (the bar map is broken).  The same
solver, `triangular_solve`, also runs inside the symmetrized image of a
parabolic (`image_solve`, shared with qsym).  `canonical` takes that image
route whenever f tops a nontrivial parabolic orbit, and the tensor solve
otherwise; `tensor_canonical` and `dual_canonical` always solve in the
tensor space.

Dual canonical supports legitimately run into the window floor (their full
expansions are infinite).  Canonical supports should not; a canonical
expansion whose correction terms reach the bottom of the current block,
when a one-step floor extension would enlarge the block, triggers a
TruncationWarning instead of being trusted silently.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from functools import lru_cache
from types import MappingProxyType

from .barinv import bar_context
from .fock import FockVector
from .laurent import (
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
    block,
    bruhat_leq,
    group_qfactorial,
    stabilizer,
)


class TruncationWarning(UserWarning):
    """A canonical expansion may have been cut off by the window floor."""


class BasisExpansion(
    namedtuple("BasisExpansion", "target mode window coefficients truncated", defaults=(False,))
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

    def support(self):
        return set(self.coefficients)

    def to_json(self) -> dict:
        rows = sorted(self.coefficients.items(), key=lambda t: t[0].entries)
        return {
            "target": str(self.target),
            "mode": self.mode,
            "window": str(self.window),
            "coefficients": [{"tuple": str(g), **c.to_json()} for g, c in rows],
        }


def triangular_solve(down, bar_column, part, target, scale=None) -> dict:
    """The coefficients t_{g,target} of the bar-fixed element through target.

    `down` lists every index below target in a linear extension of the
    Bruhat order and ends at target; `bar_column(h)` is the coefficient dict
    of bar applied to the basis vector at h; `part` is pos_part (canonical)
    or neg_part (dual).  Each nonzero t_{h,target} adds bar(t_{h,target})
    times bar_column(h) into one running difference, so the step at g reads
    one entry, and only such h get a bar column.  Raises CheckFailed,
    naming g and target, if the bar map is broken.

    With `scale`, the coefficients are solved for the basis scale(h) e_h
    while the columns stay in e-coordinates: scale(h) must be bar-invariant,
    each bar(t_h) enters the difference times scale(h), and the difference
    at g is divided once by scale(g), a failed exact division raising
    CheckFailed too.
    """
    if not down or down[-1] != target:
        raise CheckFailed(f"{target} is not the top of its ordered block")
    t: dict = {}
    diff: dict = {}
    val = LaurentPoly.one()
    for g in reversed(down):
        s = None if scale is None else scale(g)
        if g != target:
            d = diff.pop(g, LaurentPoly.zero())
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


def down_set(f: SignedTuple, w: Window, keep=None) -> list:
    """The members of f's block at or below f in block order, those passing keep."""
    return [g for g in block(f, w) if (keep is None or keep(g)) and bruhat_leq(g, f)]


@lru_cache(maxsize=None)
def _solve(f: SignedTuple, w: Window, mode: str) -> BasisExpansion:
    """The tensor solve: triangular_solve over down_set(f, w) with tensor bar columns."""
    ctx = bar_context(f.shape, w)
    down = down_set(f, w)
    part = pos_part if mode == "canonical" else neg_part
    t = triangular_solve(down, lambda g: ctx.bar_monomial(g).terms, part, f)
    truncated = mode == "canonical" and reaches_floor(f, t.keys() - {f}, down, w)
    return BasisExpansion(f, mode, w, MappingProxyType(t), truncated)


def reaches_floor(target: SignedTuple, support, down, w: Window, keep=None) -> bool:
    """Whether support reaches the bottom of down and a lower floor grows down.

    `down` is down_set(target, w, keep); a member of support is at the
    bottom when nothing before it in down lies below it.
    """
    bottom = [
        g
        for i, g in enumerate(down)
        if g in support and not any(bruhat_leq(h, g) for h in down[:i])
    ]
    if not bottom:
        return False
    grown = down_set(target, Window(w.lo - 1, w.hi), keep)
    return len(grown) > len(down)


# ---------------------------------------------------------------------------
# the symmetrized image of a parabolic W, as far as the solvers need it


def project(terms: dict, par: Parabolic) -> dict:
    """phi(v) in Ntilde coordinates, for v the sum of terms[f] M_f.

    M_f goes to q^-l(tau) Ntilde_{f.tau}, where f.tau is the anti-dominant
    member of f's orbit and tau the minimal sorter.
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


@lru_cache(maxsize=None)
def _index(sub: Parabolic, par: Parabolic) -> LaurentPoly:
    return div_exact(group_qfactorial(par), group_qfactorial(sub))


def n_ratio(f: SignedTuple, par: Parabolic) -> LaurentPoly:
    """[W] / [W_f], the exact quantum index of the stabilizer of f in W.

    A quotient of balanced q-factorials, hence bar-invariant.  Cached per
    stabilizer, so nothing is stored per tuple.
    """
    return _index(stabilizer(f, par), par)


def image_solve(down, target: SignedTuple, par: Parabolic, w: Window, mode: str) -> dict:
    """The (dual) canonical image column through target, solved on down.

    `down` is the anti-dominant down-set of target in block order.  The bar
    column of Ntilde_g is project(bar(M_g)): phi is right multiplication by
    the bar-fixed symmetrizer, and bar commutes with the Hecke action.  The
    canonical column is solved for N_g = n_ratio(g) Ntilde_g (n_ratio is
    bar-invariant), the dual one for Ntilde_g.  The one core of qsym's image
    solve and of canonical's orbit-top route; it never warns.
    """
    ctx = bar_context(target.shape, w)
    column = lambda g: project(ctx.bar_monomial(g).terms, par)
    if mode == "dual":
        return triangular_solve(down, column, neg_part, target)
    return triangular_solve(down, column, pos_part, target, lambda g: n_ratio(g, par))


def _tops(f: SignedTuple, gens) -> list:
    """The s_i in gens at which f is weakly decreasing (covariant) or increasing (dual)."""
    e, m = f.entries, f.shape.m
    return [i for i in gens if (e[i - 1] >= e[i] if i < m else e[i - 1] <= e[i])]


def top_parabolic(f: SignedTuple) -> Parabolic:
    """J(f), the largest parabolic whose orbit through f has f at its top."""
    m = f.shape.m
    return Parabolic(f.shape, _tops(f, (i for i in range(1, f.shape.size) if i != m)))


@lru_cache(maxsize=None)
def _canonical(f: SignedTuple, w: Window) -> BasisExpansion:
    """T_f by the route that J(f) picks; see canonical."""
    par = top_parabolic(f)
    if not par.generators:
        return _solve(f, w, "canonical")
    down = down_set(f, w)
    # k = b.x with b the bottom of its orbit; at the orbit's top l(x) = top(b),
    # and the anti-dominant down-set of g is the bottoms of the tops in down
    reps = [(k, antidominant_rep(k, par)) for k in down]
    gens = sorted(par.generators)
    top_len = {b: lx for k, (b, _, lx) in reps if _tops(k, gens) == gens}
    anti = [h for h in down if h in top_len]
    image = image_solve(anti, antidominant_rep(f, par)[0], par, w, "canonical")
    t = {}
    for k, (b, _, lx) in reversed(reps):
        c = image.get(b)
        if c is not None:
            t[k] = c.shifted(top_len[b] - lx)
    truncated = reaches_floor(f, t.keys() - {f}, down, w)
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

    The route is chosen by f alone.  If J(f) = top_parabolic(f) is
    trivial, the tensor solve runs over down_set(f, w).  Otherwise f tops
    its W_J-orbit, whose bottom g is anti-dominant, and the q-symmetrizer
    carries T_f onto the image's canonical element through g: with
    Mtilde_h = sum_x q^(top(h) - l(x)) M_{h.x} over the minimal coset reps
    x, the vector sum_h t^N_{h,g} Mtilde_h of the image column (N
    coordinates) is bar-fixed, is 1 at M_f and lies in qZ[q] elsewhere, so
    by uniqueness it is T_f:

        t_{k,f} = t^N_{b,g} q^(top(b) - l),   (b, _, l) = antidominant_rep(k, J).

    The image solve (image_solve) runs over the bottoms of the W_J-orbit
    tops in down_set(f, w), in block order, which is g's anti-dominant
    down-set; only anti-dominant bar columns are built.  Both routes flag
    truncation by the same rule on the tensor support.

    Warns with a TruncationWarning on every call whose expansion is
    truncated, cached or not.
    """
    return _warned(_canonical(f, w))


def tensor_canonical(f: SignedTuple, w: Window) -> BasisExpansion:
    """T_f by the tensor solve at every f: the second route, warning as canonical does."""
    return _warned(_solve(f, w, "canonical"))


def dual_canonical(f: SignedTuple, w: Window) -> BasisExpansion:
    """The dual canonical basis element through f, coefficients in 1/q Z[1/q]."""
    return _solve(f, w, "dual")


def bkl_matrices(order: tuple[SignedTuple, ...], w: Window):
    """Both polynomial matrices over an ordered block: ({t_{gf}}, {l_{gf}})."""
    tmat: dict[tuple[SignedTuple, SignedTuple], LaurentPoly] = {}
    lmat: dict[tuple[SignedTuple, SignedTuple], LaurentPoly] = {}
    for f in order:
        for g, c in canonical(f, w).coefficients.items():
            tmat[(g, f)] = c
        for g, c in dual_canonical(f, w).coefficients.items():
            lmat[(g, f)] = c
    return tmat, lmat


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
