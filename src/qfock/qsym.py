"""The symmetrized tensor space: image of right multiplication by S.

For a parabolic subgroup W of the Hecke-acting symmetric group (the
"evenly placed" generators), the image T·S of the symmetrizer carries
three bases indexed by antidominant tuples f:

    Ntilde_f = M_f S,    Mtilde_f = Ntilde_f / [W_f],
    N_f = ([W] / [W_f]) Ntilde_f,

where [G] is the Poincare polynomial of G and W_f the stabilizer of f
inside W.  Each basis vector is supported on the W-orbit of f and its
bottom monomial M_f carries an invertible-up-to-units coefficient, so a
vector of the image is re-expressed per orbit by one exact division.

The map phi(M_f) = q^{-len(tau)} Ntilde_{f tau} (tau the minimal sorter
of f) projects the whole tensor space onto the image.  Canonical bases
come out two ways: pushing the ordinary canonical basis through phi, or
running the triangular solver intrinsically in N- or Mtilde-coordinates
with the bar map transported through expansion and re-expression.  The
two constructions are asserted against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .barinv import bar_context
from .canonical import canonical, dual_canonical, triangular_solve
from .fock import FockVector, act
from .hecke import symmetrizer
from .laurent import (
    LaurentCombination,
    LaurentPoly,
    NotDivisible,
    div_exact,
    pos_part,
)
from .weightlat import (
    Parabolic,
    SignedTuple,
    Window,
    antidominant_rep,
    block,
    bruhat_leq,
    coset_reps,
    group_qfactorial,
    is_antidominant,
    longest_element,
    stabilizer,
)


class ReexpressionFailure(Exception):
    """A vector claimed to lie in the symmetrized image does not."""


_BASES = ("Ntilde", "Mtilde", "N")


# ---------------------------------------------------------------------------
# orbit bookkeeping


_ORBIT: dict[tuple, tuple] = {}


def _orbit_data(f: SignedTuple, par: Parabolic):
    """(stabilizer qfactorial, coset reps, length of the longest rep)."""
    key = (f.shape, f.entries, par.generators)
    got = _ORBIT.get(key)
    if got is None:
        stab = stabilizer(f, par)
        reps = coset_reps(stab, par)
        got = _ORBIT[key] = (group_qfactorial(stab), reps, reps[-1][1])
    return got


def n_ratio(f: SignedTuple, par: Parabolic) -> LaurentPoly:
    """[W] / [W_f], the exact quantum index of the stabilizer."""
    stab_q, _, _ = _orbit_data(f, par)
    return div_exact(group_qfactorial(par), stab_q)


def _bottom_coeff(f: SignedTuple, par: Parabolic, basis: str) -> LaurentPoly:
    """Coefficient of the monomial M_f inside the basis vector through f."""
    stab_q, _, top_len = _orbit_data(f, par)
    unit = LaurentPoly.q_power(top_len)
    if basis == "Ntilde":
        return stab_q * unit
    if basis == "Mtilde":
        return unit
    if basis == "N":
        return group_qfactorial(par) * unit
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
    stab_q, _, _ = _orbit_data(f, par)
    big = ntilde_expand(f, par)
    return FockVector(
        f.shape, {g: div_exact(c, stab_q) for g, c in big.terms.items()}
    )


def n_expand(f: SignedTuple, par: Parabolic) -> FockVector:
    """N_f = ([W]/[W_f]) Ntilde_f."""
    return ntilde_expand(f, par).scaled(n_ratio(f, par))


_EXPAND = {"Ntilde": ntilde_expand, "Mtilde": mtilde_expand, "N": n_expand}


# ---------------------------------------------------------------------------
# vectors of the image in coordinates


class QSymVector(LaurentCombination):
    """Coordinates of an image vector in one of the three bases."""

    __slots__ = ("parabolic", "basis", "window")

    def __init__(
        self, shape, parabolic: Parabolic, basis: str, terms=None, window=None
    ):
        if basis not in _BASES:
            raise ValueError(f"unknown basis {basis!r}")
        super().__init__(shape, terms)
        self.parabolic = parabolic
        self.basis = basis
        self.window = window
        for f in self.terms:
            if not is_antidominant(f, parabolic):
                raise ValueError(f"index {f} is not antidominant")

    def _with(self, terms: dict) -> "QSymVector":
        return QSymVector(self.shape, self.parabolic, self.basis, terms, self.window)

    def expand(self) -> FockVector:
        out = FockVector.zero(self.shape)
        for f, c in self.terms.items():
            out.axpy(_EXPAND[self.basis](f, self.parabolic), c)
        return out

    def __eq__(self, other) -> bool:
        """Equal coordinates in the same basis; the window is not compared."""
        return (
            super().__eq__(other)
            and self.parabolic == other.parabolic
            and self.basis == other.basis
        )

    def __repr__(self) -> str:
        return f"QSymVector({self.shape}, {self.parabolic}, {self.basis}, {self.terms!r})"

    def to_json(self) -> dict:
        rows = sorted(self.terms.items(), key=lambda t: t[0].entries)
        return {
            "shape": str(self.shape),
            "parabolic": str(self.parabolic),
            "basis": self.basis,
            "terms": [{"tuple": str(f), **c.to_json()} for f, c in rows],
        }


def base_change(v: QSymVector, to: str) -> QSymVector:
    """Exact coordinate change between the three bases; hub is Ntilde."""
    if to not in _BASES:
        raise ValueError(f"unknown basis {to!r}")
    out = {}
    for f, c in v.terms.items():
        stab_q, _, _ = _orbit_data(f, v.parabolic)
        if v.basis != "Ntilde":
            if v.basis == "Mtilde":
                c = div_exact(c, stab_q)
            else:
                c = c * n_ratio(f, v.parabolic)
        if to == "Mtilde":
            c = c * stab_q
        elif to == "N":
            c = div_exact(c, n_ratio(f, v.parabolic))
        out[f] = c
    return QSymVector(v.shape, v.parabolic, to, out, v.window)


def reexpress(v: FockVector, par: Parabolic, basis: str = "Ntilde") -> dict:
    """Coordinates of a tensor-space vector that lies in the image.

    Reads one exact division per orbit off the bottom monomial, then
    checks the reconstruction reproduces v on the nose.
    """
    coords: dict[SignedTuple, LaurentPoly] = {}
    recon = FockVector.zero(v.shape)
    for f, c in v.terms.items():
        if not is_antidominant(f, par):
            continue
        try:
            x = div_exact(c, _bottom_coeff(f, par, basis))
        except NotDivisible as exc:
            raise ReexpressionFailure(
                f"orbit coefficient at {f} is not divisible in basis {basis}"
            ) from exc
        coords[f] = x
        recon.axpy(_EXPAND[basis](f, par), x)
    if recon != v:
        raise ReexpressionFailure(
            f"vector is not in the symmetrized image for {par}"
        )
    return coords


def phi_zeta(v: FockVector, par: Parabolic) -> QSymVector:
    """Project a tensor-space vector into the image, in Ntilde coordinates.

    Monomial-wise M_f goes to q^{-len(tau)} Ntilde_{f0} where f0 = f.tau
    is the antidominant representative and tau the minimal sorter.
    """
    out = QSymVector(v.shape, par, "Ntilde")
    for f, c in v.terms.items():
        f0, _, ltau = antidominant_rep(f, par)
        out.add_term(f0, c * LaurentPoly.q_power(-ltau))
    return out


# ---------------------------------------------------------------------------
# canonical bases of the image


@dataclass
class QSymExpansion:
    """One column of a canonical basis of the image, in one basis."""

    target: SignedTuple
    mode: str
    basis: str
    parabolic: Parabolic
    window: Window
    coefficients: dict = field(default_factory=dict)

    def coeff(self, g: SignedTuple) -> LaurentPoly:
        return self.coefficients.get(g, LaurentPoly.zero())

    def vector(self) -> QSymVector:
        return QSymVector(
            self.target.shape,
            self.parabolic,
            self.basis,
            dict(self.coefficients),
            self.window,
        )

    def to_json(self) -> dict:
        rows = sorted(self.coefficients.items(), key=lambda t: t[0].entries)
        return {
            "target": str(self.target),
            "mode": self.mode,
            "basis": self.basis,
            "parabolic": str(self.parabolic),
            "window": str(self.window),
            "coefficients": [{"tuple": str(g), **c.to_json()} for g, c in rows],
        }


def qsym_canonical(f: SignedTuple, par: Parabolic, w: Window) -> QSymExpansion:
    """Canonical basis of the image by push-forward, in N coordinates.

    Computes the ordinary canonical element through f.w0 (w0 the longest
    element of the parabolic), projects it, and asserts that the resulting
    coefficient at g equals the ordinary coefficient at g.w0.
    """
    if not is_antidominant(f, par):
        raise ValueError(f"{f} is not antidominant for {par}")
    w0, _ = longest_element(par)
    top = f.act(w0)
    texp = canonical(top, w)
    push = phi_zeta(texp.vector(), par)
    coords = {}
    for g, c in push.terms.items():
        coords[g] = div_exact(c, n_ratio(g, par))
        if coords[g] != texp.coeff(g.act(w0)):
            raise AssertionError(
                f"push-forward coefficient at {g} disagrees with the "
                f"ordinary coefficient at {g.act(w0)}"
            )
    return QSymExpansion(f, "canonical", "N", par, w, coords)


def qsym_dual_canonical(f: SignedTuple, par: Parabolic, w: Window) -> QSymExpansion:
    """Dual canonical image basis in Ntilde coordinates, or zero.

    For antidominant f the coefficients are checked against the coset sum
    of ordinary dual coefficients; for any other f the projection must
    cancel to zero exactly, and the returned expansion is empty.
    """
    lexp = dual_canonical(f, w)
    push = phi_zeta(lexp.vector(), par)
    if not is_antidominant(f, par):
        if push:
            raise AssertionError(
                f"projection of the dual element at non-antidominant {f} "
                "failed to vanish"
            )
        return QSymExpansion(f, "dual", "Ntilde", par, w, {})
    want: dict[SignedTuple, LaurentPoly] = {}
    seen = set()
    for g in lexp.coefficients:
        g0, _, _ = antidominant_rep(g, par)
        if g0 in seen:
            continue
        seen.add(g0)
        _, reps, _ = _orbit_data(g0, par)
        total = LaurentPoly.zero()
        for x, lx in reps:
            total = total + lexp.coeff(g0.act(x)) * LaurentPoly.q_power(-lx)
        if total:
            want[g0] = total
    if want != push.terms:
        raise AssertionError(
            f"coset-sum formula disagrees with the projection at {f}"
        )
    return QSymExpansion(f, "dual", "Ntilde", par, w, dict(push.terms))


def _image_bar(g: SignedTuple, par: Parabolic, w: Window, basis: str) -> dict:
    """Coordinates of bar applied to one image basis vector."""
    expanded = _EXPAND[basis](g, par)
    barred = bar_context(g.shape, w).bar(expanded)
    return reexpress(barred, par, basis)


def qsym_canonical_intrinsic(f: SignedTuple, par: Parabolic, w: Window):
    """Canonical image basis solved inside the image, in both coordinates.

    Runs the triangular bar solver directly on antidominant indices, once
    in N coordinates and once in Mtilde coordinates, with the bar map
    computed by expand / bar / re-express.  Returns the two expansions;
    their coefficient dictionaries must agree and do so by construction
    (asserted).
    """
    if not is_antidominant(f, par):
        raise ValueError(f"{f} is not antidominant for {par}")
    down = [
        g for g in block(f, w) if is_antidominant(g, par) and bruhat_leq(g, f)
    ]
    results = []
    for basis in ("N", "Mtilde"):
        t = triangular_solve(
            down, lambda g: _image_bar(g, par, w, basis), pos_part, f
        )
        results.append(QSymExpansion(f, "canonical", basis, par, w, t))
    if results[0].coefficients != results[1].coefficients:
        raise AssertionError(
            f"intrinsic coefficients differ between N and Mtilde bases at {f}"
        )
    return results[0], results[1]
