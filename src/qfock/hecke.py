"""q-symmetrizers in the Iwahori-Hecke algebra of S_m x S_n over Z[q, q^-1].

An element is a combination of basis elements H_sigma, keyed by
sector-preserving permutations in one-line form.  The algebra's only
multiplication is its right action on the tensor space, fock.act, which
runs fock.act_gen along a reduced word of each sigma; the generator rule
lives there, and verify_hecke checks the relations on it.

The q-symmetrizer of a parabolic subgroup W' with longest element w0 is
S = sum_{sigma in W'} q^{l(w0) - l(sigma)} H_sigma; it satisfies
S H_i = H_i S = q^-1 S for generators of W', bar(S) = S, and
S^2 = [|W'|] S.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .laurent import LaurentCombination, LaurentPoly
from .weightlat import Parabolic, longest_element, par_elements


class HeckeElement(LaurentCombination):
    """A Z[q, q^-1]-linear combination of basis elements H_sigma."""

    __slots__ = ()


@lru_cache(maxsize=None)
def symmetrizer(par: Parabolic) -> HeckeElement:
    """S = sum_{sigma in W'} q^{l(w0') - l(sigma)} H_sigma.

    Built once per parabolic; the shared element's terms are read-only,
    so add_term and axpy into it raise TypeError.

    >>> from qfock.weightlat import Parabolic, Shape
    >>> S = symmetrizer(Parabolic(Shape(2, 0), frozenset({1})))
    >>> print(S.coeff((0, 1)), "|", S.coeff((1, 0)))
    q | 1
    """
    elems = par_elements(par)
    _, l0 = longest_element(par)
    terms = {p: LaurentPoly.q_power(l0 - l) for p, l in elems.items()}
    s = HeckeElement(par.shape, terms)
    s.terms = MappingProxyType(s.terms)
    return s
