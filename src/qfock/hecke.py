"""The Iwahori-Hecke algebra of S_m x S_n over Z[q, q^-1].

Basis elements H_sigma are indexed by sector-preserving permutations in
one-line form.  The generators satisfy (H_i - q^-1)(H_i + q) = 0, so
H_i^-1 = H_i + (q - q^-1), and multiplication follows

    H_sigma H_i = H_{sigma s_i}                          if l goes up,
    H_sigma H_i = H_{sigma s_i} + (q^-1 - q) H_sigma     if l goes down.

The bar involution is the ring homomorphism q -> q^-1, H_i -> H_i^-1.
The q-symmetrizer of a parabolic subgroup W' with longest element w0 is
S = sum_{sigma in W'} q^{l(w0) - l(sigma)} H_sigma; it satisfies
S H_i = H_i S = q^-1 S for generators of W', bar(S) = S, and
S^2 = [|W'|] S.
"""

from __future__ import annotations

from .laurent import LaurentCombination, LaurentPoly
from .weightlat import (
    Parabolic,
    Shape,
    identity_perm,
    is_right_ascent,
    longest_element,
    par_elements,
    perm_length,
    apply_s,
    reduced_word,
)

_Q_MINUS_QINV = LaurentPoly({1: 1, -1: -1})
_QINV_MINUS_Q = LaurentPoly({-1: 1, 1: -1})


def _sector_preserving(shape: Shape, perm: tuple[int, ...]) -> bool:
    return all((j < shape.m) == (i < shape.m) for i, j in enumerate(perm))


class HeckeElement(LaurentCombination):
    """A Z[q, q^-1]-linear combination of basis elements H_sigma."""

    __slots__ = ()

    @classmethod
    def unit(cls, shape: Shape) -> "HeckeElement":
        return cls(shape, {identity_perm(shape.size): LaurentPoly.one()})

    @classmethod
    def generator(cls, shape: Shape, i: int) -> "HeckeElement":
        if not 1 <= i <= shape.size - 1 or i == shape.m:
            raise ValueError(f"H_{i} is not a generator for shape {shape}")
        return cls.basis(shape, apply_s(identity_perm(shape.size), i))

    @classmethod
    def basis(cls, shape: Shape, perm: tuple[int, ...]) -> "HeckeElement":
        if not _sector_preserving(shape, perm):
            raise ValueError(f"{perm} does not preserve the sectors of {shape}")
        return cls(shape, {tuple(perm): LaurentPoly.one()})

    def times_gen(self, i: int) -> "HeckeElement":
        """Right multiplication by H_i."""
        out = HeckeElement(self.shape)
        for p, c in self.terms.items():
            out.add_term(apply_s(p, i), c)
            if not is_right_ascent(p, i):
                out.add_term(p, c * _QINV_MINUS_Q)
        return out

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scaled(other)
        if not isinstance(other, HeckeElement):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("cannot multiply Hecke elements of different shapes")
        total = HeckeElement(self.shape)
        for p, c in other.terms.items():
            cur = self.scaled(c)
            for i in reduced_word(p):
                cur = cur.times_gen(i)
            total.axpy(cur)
        return total

    def __rmul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scaled(other)
        return NotImplemented

    def bar(self) -> "HeckeElement":
        """q -> q^-1 on coefficients and H_sigma -> (H_{sigma^-1})^-1 on basis."""
        total = HeckeElement(self.shape)
        for p, c in self.terms.items():
            cur = HeckeElement.unit(self.shape).scaled(c.bar())
            for i in reduced_word(p):
                # bar(H_i) = H_i + (q - q^-1), multiplied in word order
                cur = cur.times_gen(i).axpy(cur, _Q_MINUS_QINV)
            total.axpy(cur)
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for p in sorted(self.terms):
            parts.append(f"({self.terms[p]})*H{list(p)}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"HeckeElement({self.shape}, {self.terms!r})"


def symmetrizer(par: Parabolic) -> HeckeElement:
    """S = sum_{sigma in W'} q^{l(w0') - l(sigma)} H_sigma.

    >>> from qfock.weightlat import Parabolic, Shape
    >>> S = symmetrizer(Parabolic(Shape(2, 0), frozenset({1})))
    >>> print(S.coeff((0, 1)), "|", S.coeff((1, 0)))
    q | 1
    """
    elems = par_elements(par)
    _, l0 = longest_element(par)
    terms = {p: LaurentPoly.q_power(l0 - l) for p, l in elems.items()}
    return HeckeElement(par.shape, terms)
