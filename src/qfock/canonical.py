"""Canonical and dual canonical bases by bar triangularization.

For a tuple f inside a window, the canonical element T_f (dual: L_f) is the
unique bar-fixed vector M_f + sum over g strictly below f of t_{gf} M_g with
t_{gf} in q Z[q] (dual: in q^-1 Z[q^-1]).  The solver works down the block:
once every t_{hf} with h above g is known, the difference

    d_g = sum_{g < h <= f} r_{gh} bar(t_{hf}),   r_{gh} = [M_g] bar(M_h),

must be killed by t_{gf} - bar(t_{gf}), which pins t_{gf} inside the chosen
half of the coefficient ring.  Each step asserts that d_g is antisymmetric
under bar; a violation means the bar map itself is broken.  The same
solver, `triangular_solve`, also runs inside the symmetrized image (qsym).

Dual canonical supports legitimately run into the window floor (their full
expansions are infinite).  Canonical supports should not; a canonical
expansion whose correction terms reach the bottom of the current block,
when a one-step floor extension would enlarge the block, triggers a
TruncationWarning instead of being trusted silently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .barinv import bar_context
from .fock import FockVector
from .laurent import LaurentPoly, NotAntisymmetric, neg_part, pos_part
from .weightlat import SignedTuple, Window, bruhat_leq, block


class AntisymmetryViolation(ArithmeticError):
    """The running difference failed bar-antisymmetry: the bar map is wrong."""


class TruncationWarning(UserWarning):
    """A canonical expansion may have been cut off by the window floor."""


@dataclass
class BasisExpansion:
    """One column of a (dual) canonical basis matrix."""

    target: SignedTuple
    mode: str
    window: Window
    coefficients: dict[SignedTuple, LaurentPoly] = field(default_factory=dict)

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


_MEMO: dict[tuple, BasisExpansion] = {}


def triangular_solve(down, bar_column, part, target) -> dict:
    """The coefficients t_{g,target} of the bar-fixed element through target.

    `down` lists every index below target in a linear extension of the
    Bruhat order and ends at target; `bar_column(h)` is the coefficient dict
    of bar applied to the basis vector at h; `part` is pos_part (canonical)
    or neg_part (dual).  Only indices with a nonzero coefficient get a bar
    column.  Raises AntisymmetryViolation if the bar map is broken.
    """
    if not down or down[-1] != target:
        raise AssertionError(f"{target} is not the top of its ordered block")
    bars = {target: bar_column(target)}
    t = {target: LaurentPoly.one()}
    for g in reversed(down[:-1]):
        d = LaurentPoly.zero()
        for h, thf in t.items():
            r = bars[h].get(g)
            if r is not None:
                d = d + r * thf.bar()
        try:
            val = part(d)
        except NotAntisymmetric as exc:
            raise AntisymmetryViolation(
                f"difference at {g} below {target} is not bar-antisymmetric: {d}"
            ) from exc
        if val:
            t[g] = val
            bars[g] = bar_column(g)
    return t


def _solve(f: SignedTuple, w: Window, mode: str) -> BasisExpansion:
    key = (f.shape, f.entries, w, mode)
    got = _MEMO.get(key)
    if got is not None:
        return got
    ctx = bar_context(f.shape, w)
    down = [g for g in block(f, w) if bruhat_leq(g, f)]
    part = pos_part if mode == "canonical" else neg_part
    t = triangular_solve(down, lambda g: ctx.bar_monomial(g).terms, part, f)
    exp = BasisExpansion(f, mode, w, t)
    if mode == "canonical":
        _maybe_warn_floor(exp, down, w)
    _MEMO[key] = exp
    return exp


def _maybe_warn_floor(exp: BasisExpansion, down, w: Window):
    support = [g for g in exp.coefficients if g != exp.target]
    if not support:
        return
    minimal = [
        g
        for g in support
        if not any(h != g and bruhat_leq(h, g) for h in down)
    ]
    if not minimal:
        return
    probe = Window(w.lo - 1, w.hi)
    grown = [
        g for g in block(exp.target, probe) if bruhat_leq(g, exp.target)
    ]
    if len(grown) > len(down):
        warnings.warn(
            f"canonical expansion of {exp.target} reaches the bottom of its "
            f"block and window {w} may truncate it",
            TruncationWarning,
            stacklevel=3,
        )


def canonical(f: SignedTuple, w: Window) -> BasisExpansion:
    """The canonical basis element through f, coefficients in qZ[q]."""
    return _solve(f, w, "canonical")


def dual_canonical(f: SignedTuple, w: Window) -> BasisExpansion:
    """The dual canonical basis element through f, coefficients in 1/q Z[1/q]."""
    return _solve(f, w, "dual")


def bkl_matrices(order: list[SignedTuple], w: Window):
    """Both polynomial matrices over an ordered block: ({t_{gf}}, {l_{gf}})."""
    tmat: dict[tuple[SignedTuple, SignedTuple], LaurentPoly] = {}
    lmat: dict[tuple[SignedTuple, SignedTuple], LaurentPoly] = {}
    for f in order:
        for g, c in canonical(f, w).coefficients.items():
            tmat[(g, f)] = c
        for g, c in dual_canonical(f, w).coefficients.items():
            lmat[(g, f)] = c
    return tmat, lmat


def unitriangular_inverse(mat, zero, one):
    """Invert an upper unit-triangular square matrix (nested lists).

    Entries only need +, -, *; the diagonal must consist of exact ones.
    Works for LaurentPoly (zero(), one()) and for plain integers (0, 1).
    """
    n = len(mat)
    inv = [[zero] * n for _ in range(n)]
    for j in range(n):
        col = [zero] * n
        col[j] = one
        for i in range(j, -1, -1):
            acc = col[i]
            for k in range(i + 1, j + 1):
                acc = acc - mat[i][k] * inv[k][j]
            inv[i][j] = acc
    return inv


def inverse_relation_check(order: list[SignedTuple], w: Window) -> bool:
    """Inverting the dual matrix at q -> 1/q lands on the negated canonical one.

    With D_{g,f} = l_{g,f}(q^-1) over the given block, the inverse matrix
    must satisfy (D^-1)_{g,f} = t_{-f,-g}(q) where the canonical
    coefficients are computed on the entrywise-negated block.  Exact, no
    specialization.  Returns False (with a warning naming the first bad
    entry) on any mismatch.
    """
    shape = order[0].shape
    negated = [SignedTuple(shape, tuple(-x for x in g.entries)) for g in order]
    for g in negated:
        if not g.in_window(w):
            raise ValueError(f"negated tuple {g} leaves the window {w}")
    n = len(order)
    dmat = [[dual_canonical(order[j], w).coeff(order[i]).bar() for j in range(n)] for i in range(n)]
    inv = unitriangular_inverse(dmat, LaurentPoly.zero(), LaurentPoly.one())
    for i in range(n):
        for j in range(n):
            want = canonical(negated[i], w).coeff(negated[j])
            if inv[i][j] != want:
                warnings.warn(
                    f"inverse relation fails at ({order[i]}, {order[j]}): "
                    f"{inv[i][j]} != {want}",
                    stacklevel=2,
                )
                return False
    return True
