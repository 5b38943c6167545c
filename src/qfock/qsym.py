"""The symmetrized tensor space: image of right multiplication by S.

For a parabolic subgroup W of the Hecke-acting symmetric group (the
"evenly placed" generators), the image T·S of the symmetrizer carries
three bases indexed by antidominant tuples f:

    Ntilde_f = M_f S,    Mtilde_f = Ntilde_f / [W_f],
    N_f = ([W] / [W_f]) Ntilde_f,

where [G] is the Poincare polynomial of G and W_f the stabilizer of f
inside W.  All three are one per-orbit scale of Mtilde:

    B_f = s_B(f) Mtilde_f,   s_Ntilde = [W_f],  s_Mtilde = 1,  s_N = [W],

so coordinates change basis by c s_from(f) / s_to(f).  Mtilde_f is
supported on the W-orbit of f and its bottom monomial M_f carries the
unit q^top (top the length of the longest minimal coset representative),
so a vector of the image is re-expressed in Mtilde coordinates by one
shift by q^-top per orbit.

The map phi(M_f) = q^{-len(tau)} Ntilde_{f tau} (tau the minimal sorter
of f) projects the whole tensor space onto the image; it is v S in
Ntilde coordinates (`canonical.project`).  Since S is bar-fixed and bar
commutes with the Hecke action, bar(Ntilde_g) = phi(bar(M_g)).  A column
of a canonical basis is one read-only QSymExpansion, which `base_change`
rewrites in another of the three bases.  Canonical bases come out three
ways:

- the image solve (the default, `qsym_canonical` and
  `qsym_dual_canonical`, both for antidominant f only):
  `canonical.image_solve` down the block of f, one projected tensor bar
  column per solved index, every one of them antidominant;
- the push-forward (`qsym_canonical_push`, `qsym_dual_canonical_push`):
  the ordinary (dual) canonical element through f.w0 (or f), from the
  tensor solve, pushed through phi and checked against the coefficients
  at g.w0 (or against the coset sums); the dual at a non-antidominant f,
  whose projection must vanish, has only this route;
- the intrinsic solve (`qsym_canonical_intrinsic`): the solver in N
  coordinates with the bar map transported through expansion and
  re-expression.  One memo per call, g -> Mtilde_g, serves the bar
  columns and re-expression's reconstruction check.  Since
  N_g = [W] Mtilde_g and [W] is bar-invariant, the Mtilde coordinates
  of bar(Mtilde_g) are the N coordinates of bar(N_g): nothing is scaled.

The routes must agree (the tests and `verify --suite qsym` compare
them); a failed internal check raises CheckFailed.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from types import MappingProxyType

from .barinv import bar_context
from .canonical import (
    TruncationWarning,
    dual_canonical,
    image_solve,
    json_rows,
    n_ratio,
    orbit_data,
    project,
    reaches_floor,
    tensor_canonical,
    triangular_solve,
)
from .fock import FockVector, act
from .hecke import symmetrizer
from .laurent import LaurentPoly, NotDivisible, div_exact, pos_part
from .weightlat import (
    CheckFailed,
    Parabolic,
    SignedTuple,
    Window,
    antidominant_rep,
    block,
    group_qfactorial,
    is_antidominant,
    longest_element,
    stabilizer,
)


# ---------------------------------------------------------------------------
# orbit bookkeeping


def _scale(f: SignedTuple, par: Parabolic, basis: str) -> LaurentPoly:
    """s_B(f) in B_f = s_B(f) Mtilde_f: [W_f], 1 or [W] for Ntilde, Mtilde, N."""
    if basis == "Ntilde":
        return orbit_data(stabilizer(f, par), par)[0]
    if basis == "Mtilde":
        return LaurentPoly.one()
    if basis == "N":
        return group_qfactorial(par)
    raise ValueError(f"unknown basis {basis!r}")


# ---------------------------------------------------------------------------
# basis vectors as plain tensor-space vectors


def ntilde_expand(f: SignedTuple, par: Parabolic) -> FockVector:
    """Ntilde_f = M_f S as a monomial expansion."""
    if not is_antidominant(f, par):
        raise ValueError(f"{f} is not antidominant for {par}")
    return act(FockVector.monomial(f), symmetrizer(par))


def mtilde_expand(f: SignedTuple, par: Parabolic) -> FockVector:
    """Mtilde_f = Ntilde_f / [W_f]; integral by the orbit closed form."""
    stab_q = orbit_data(stabilizer(f, par), par)[0]
    big = ntilde_expand(f, par)
    return FockVector(f.shape, {g: div_exact(c, stab_q) for g, c in big.terms.items()})


def _mtilde(f: SignedTuple, par: Parabolic, memo: dict) -> FockVector:
    """Mtilde_f from memo (g -> Mtilde_g, for one parabolic), expanded on first use."""
    if f not in memo:
        memo[f] = mtilde_expand(f, par)
    return memo[f]


# ---------------------------------------------------------------------------
# vectors of the image in coordinates


def reexpress(v: FockVector, par: Parabolic, memo: dict) -> dict:
    """Mtilde coordinates of a tensor-space vector that lies in the image.

    The coefficient of Mtilde_f is the one of its bottom monomial M_f
    shifted by q^-top, one shift per orbit.  The reconstruction sum
    y_f Mtilde_f, with Mtilde_f taken from memo (see _mtilde), must be v
    on the nose (CheckFailed if not).
    """
    coords: dict[SignedTuple, LaurentPoly] = {}
    recon = FockVector.zero(v.shape)
    for f, c in v.terms.items():
        if not is_antidominant(f, par):
            continue
        coords[f] = y = c.shifted(-orbit_data(stabilizer(f, par), par)[2])
        recon.axpy(_mtilde(f, par, memo), y)
    if recon != v:
        raise CheckFailed(f"vector is not in the symmetrized image for {par}")
    return coords


# ---------------------------------------------------------------------------
# canonical bases of the image


class QSymExpansion(
    namedtuple("QSymExpansion", "target mode basis parabolic window coefficients")
):
    """One column of a canonical basis of the image, in one basis; read-only.

    coefficients is a read-only mapping from anti-dominant tuples to
    LaurentPoly, in the coordinates named by basis.
    """

    __slots__ = ()

    def coeff(self, g: SignedTuple) -> LaurentPoly:
        return self.coefficients.get(g, LaurentPoly.zero())

    def to_json(self) -> dict:
        """The `qsym --json` answer."""
        return {
            "shape": str(self.target.shape),
            "parabolic": str(self.parabolic),
            "basis": self.basis,
            "terms": json_rows(self.coefficients),
            "target": str(self.target),
            "mode": self.mode,
            "window": str(self.window),
        }


def base_change(exp: QSymExpansion, to: str) -> QSymExpansion:
    """The same column in basis to: exact coordinate change c s_from(f) / s_to(f)."""
    par = exp.parabolic
    out = {
        f: div_exact(c * _scale(f, par, exp.basis), _scale(f, par, to))
        for f, c in exp.coefficients.items()
    }
    return exp._replace(basis=to, coefficients=MappingProxyType(out))


def _image_solve(f: SignedTuple, par: Parabolic, w: Window, mode: str) -> dict:
    """The (dual) canonical image column through f, solved in block order.

    canonical.image_solve does the solve.  Warns with a TruncationWarning
    when the canonical support reaches the bottom of the anti-dominant
    members of the block and a lower window floor would add one below f.
    """
    if not is_antidominant(f, par):
        raise ValueError(f"{f} is not antidominant for {par}")
    t = image_solve(f, par, w, mode)
    anti = lambda g: is_antidominant(g, par)
    # unlike a tensor column, the target counts: f lies below f.w0, so it
    # stands for corrections of the tensor column pushed forward onto it
    if mode == "canonical" and reaches_floor(f, t, w, anti):
        warnings.warn(
            f"image canonical expansion of {f} for {par} reaches the bottom "
            f"of its anti-dominant down-set and window {w} may truncate it",
            TruncationWarning,
            stacklevel=3,
        )
    return t


def qsym_canonical(f: SignedTuple, par: Parabolic, w: Window) -> QSymExpansion:
    """Canonical basis of the image, in N coordinates, solved inside the image."""
    t = _image_solve(f, par, w, "canonical")
    return QSymExpansion(f, "canonical", "N", par, w, MappingProxyType(t))


def qsym_dual_canonical(f: SignedTuple, par: Parabolic, w: Window) -> QSymExpansion:
    """Dual canonical image basis, in Ntilde coordinates, solved inside the image.

    f must be antidominant (ValueError otherwise); at any other f the
    projection phi(L_f) vanishes, which qsym_dual_canonical_push checks.
    """
    t = _image_solve(f, par, w, "dual")
    return QSymExpansion(f, "dual", "Ntilde", par, w, MappingProxyType(t))


def qsym_canonical_push(f: SignedTuple, par: Parabolic, w: Window) -> QSymExpansion:
    """Canonical basis of the image by push-forward, in N coordinates.

    Computes the ordinary canonical element through f.w0 (w0 the longest
    element of the parabolic) by the tensor solve, never by canonical's
    image route, projects it, and checks that the resulting coefficient at
    g is the ordinary one at g.w0, or raises CheckFailed.
    """
    if not is_antidominant(f, par):
        raise ValueError(f"{f} is not antidominant for {par}")
    w0, _ = longest_element(par)
    top = f.act(w0)
    texp = tensor_canonical(top, w)
    coords = {}
    for g, c in project(texp.coefficients, par).items():
        try:
            coords[g] = div_exact(c, n_ratio(g, par))
        except NotDivisible as exc:
            raise CheckFailed(
                f"push-forward coefficient at {g} is not divisible by its "
                f"index {n_ratio(g, par)}"
            ) from exc
        if coords[g] != texp.coeff(g.act(w0)):
            raise CheckFailed(
                f"push-forward coefficient at {g} disagrees with the "
                f"ordinary coefficient at {g.act(w0)}"
            )
    return QSymExpansion(f, "canonical", "N", par, w, MappingProxyType(coords))


def qsym_dual_canonical_push(f: SignedTuple, par: Parabolic, w: Window) -> QSymExpansion:
    """Dual canonical image basis by push-forward, in Ntilde coordinates, or zero.

    For antidominant f the coefficients are checked against the coset sum
    of ordinary dual coefficients; for any other f the projection must
    cancel to zero exactly and the expansion is empty.  Failures raise CheckFailed.
    """
    lexp = dual_canonical(f, w)
    push = project(lexp.coefficients, par)
    if not is_antidominant(f, par):
        if push:
            raise CheckFailed(
                f"projection of the dual element at non-antidominant {f} "
                "failed to vanish"
            )
        return QSymExpansion(f, "dual", "Ntilde", par, w, MappingProxyType({}))
    want: dict[SignedTuple, LaurentPoly] = {}
    seen = set()
    for g in lexp.coefficients:
        g0, _, _ = antidominant_rep(g, par)
        if g0 in seen:
            continue
        seen.add(g0)
        reps = orbit_data(stabilizer(g0, par), par)[1]
        total = LaurentPoly.zero()
        for x, lx in reps:
            total = total + lexp.coeff(g0.act(x)) * LaurentPoly.q_power(-lx)
        if total:
            want[g0] = total
    if want != push:
        raise CheckFailed(f"coset-sum formula disagrees with the projection at {f}")
    return QSymExpansion(f, "dual", "Ntilde", par, w, MappingProxyType(push))


def _image_bar(g: SignedTuple, par: Parabolic, w: Window, memo: dict) -> dict:
    """Mtilde coordinates of bar(Mtilde_g), Mtilde_g from memo.

    They are also the N coordinates of bar(N_g): N_g = [W] Mtilde_g and
    [W] is bar-invariant.
    """
    return reexpress(bar_context(g.shape, w).bar(_mtilde(g, par, memo)), par, memo)


def qsym_canonical_intrinsic(f: SignedTuple, par: Parabolic, w: Window):
    """Canonical image basis solved inside the image, in N and Mtilde coordinates.

    Runs the triangular bar solver once down the block of f, in N
    coordinates, with the bar map computed by expand / bar / re-express
    (see _image_bar).  Each Mtilde_g is expanded once per call into a memo
    dropped on return.  Returns the N expansion and its base change to
    Mtilde, whose coefficients are [W] times the N ones; the image solve
    and the push-forward are the checks.
    """
    if not is_antidominant(f, par):
        raise ValueError(f"{f} is not antidominant for {par}")
    memo: dict = {}
    t = triangular_solve(block(f, w), lambda g: _image_bar(g, par, w, memo), pos_part, f)
    nexp = QSymExpansion(f, "canonical", "N", par, w, MappingProxyType(t))
    return nexp, base_change(nexp, "Mtilde")
