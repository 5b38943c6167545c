"""Vectors in the mixed tensor space and the two commuting actions on it.

The space for shape (m, n) has standard monomials M_f indexed by signed
tuples f: positions 1..m carry covariant letters (basis v_b), positions
m+1..m+n carry dual letters (basis w_b).

Quantum gl-infinity acts through the iterated coproduct
Delta(E_a) = 1 (x) E_a + E_a (x) K_{a+1} K_a^-1,
Delta(F_a) = F_a (x) 1 + K_a K_{a+1}^-1 (x) F_a,
Delta(K_a) = K_a (x) K_a, left-normed over all positions, with the
letter-level rules

    E_a v_b = delta_{a+1,b} v_a     E_a w_b = delta_{a,b} w_{a+1}
    F_a v_b = delta_{a,b} v_{a+1}   F_a w_b = delta_{a+1,b} w_a
    K_a v_b = q^{delta_ab} v_b      K_a w_b = q^{-delta_ab} w_b

In one move rule: put (src, dst) = (a+1, a) for E_a and (a, a+1) for F_a.
The generator moves one letter from src to dst at a covariant position,
or from dst to src at a dual one, and weighs the result by q^t.  A letter
b at a position of sign s (+1 covariant, -1 dual) adds s([b = src] -
[b = dst]) to the twist t, which sums over the positions right of the
moved letter for E_a and left of it for F_a.  K_a is q to the signed
count of letters equal to a.

The type A Hecke algebra acts on the right: for the generator H_i compare
the letters at positions i, i+1; the exchanged tuple is Bruhat-larger when
they increase in the covariant sector or decrease in the dual sector, and

    M_f H_i = M_{f s_i}                       f < f s_i,
    M_f H_i = q^-1 M_f                        f = f s_i,
    M_f H_i = M_{f s_i} + (q^-1 - q) M_f      f > f s_i.

The two actions commute; tests pin this down.
"""

from __future__ import annotations

from .laurent import QINV_MINUS_Q, LaurentCombination, LaurentPoly
from .weightlat import Shape, SignedTuple, apply_s, reduced_word


class FockVector(LaurentCombination):
    """A Z[q, q^-1]-linear combination of standard monomials of one shape."""

    __slots__ = ()

    @classmethod
    def zero(cls, shape: Shape) -> "FockVector":
        return cls(shape)

    @classmethod
    def monomial(cls, f: SignedTuple) -> "FockVector":
        return cls(f.shape, {f: LaurentPoly.one()})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        rows = sorted(self.terms.items(), key=lambda t: t[0].entries)
        return " + ".join(f"({c})*M[{f}]" for f, c in rows)

    def __repr__(self) -> str:
        return f"FockVector({self.shape}, {len(self.terms)} terms)"


# ---------------------------------------------------------------------------
# quantum group action


def apply_chevalley(v: FockVector, kind: str, a: int) -> FockVector:
    """Apply E_a, F_a, K_a or Kinv_a through the iterated coproduct."""
    shape = v.shape
    signs = (1,) * shape.m + (-1,) * shape.n
    res = FockVector(shape)
    if kind in ("K", "Kinv"):
        sign = 1 if kind == "K" else -1
        for f, c in v.terms.items():
            exp = sum(s for s, b in zip(signs, f.entries) if b == a)
            res.add_term(f, c * LaurentPoly.q_power(sign * exp))
        return res
    if kind not in ("E", "F"):
        raise ValueError(f"unknown generator kind {kind!r}")
    src, dst = (a + 1, a) if kind == "E" else (a, a + 1)
    for f, c in v.terms.items():
        e = f.entries
        twists = [s * ((b == src) - (b == dst)) for s, b in zip(signs, e)]
        left, right = 0, sum(twists)
        for j, (s, b, t) in enumerate(zip(signs, e, twists)):
            right -= t
            # covariant letters move src -> dst, dual letters dst -> src
            if b == (src if s > 0 else dst):
                g = SignedTuple(shape, e[:j] + (dst if s > 0 else src,) + e[j + 1:])
                res.add_term(g, c * LaurentPoly.q_power(right if kind == "E" else left))
            left += t
    return res


# ---------------------------------------------------------------------------
# Hecke action


def act_gen(v: FockVector, i: int) -> FockVector:
    """Right action of the Hecke generator H_i."""
    shape = v.shape
    if not 1 <= i <= shape.size - 1 or i == shape.m:
        raise ValueError(f"H_{i} is not a generator for shape {shape}")
    res = FockVector(shape)
    dual = i > shape.m
    for f, c in v.terms.items():
        x, y = f[i], f[i + 1]
        if x == y:
            res.add_term(f, c.shifted(-1))
            continue
        swapped = SignedTuple(shape, apply_s(f.entries, i))
        ascent = (x < y) if not dual else (x > y)
        res.add_term(swapped, c)
        if not ascent:
            res.add_term(f, c * QINV_MINUS_Q)
    return res


def act(v: FockVector, h) -> FockVector:
    """Right action of a Hecke element (see hecke.HeckeElement)."""
    if v.shape != h.shape:
        raise ValueError("shape mismatch between vector and Hecke element")
    total = FockVector.zero(v.shape)
    for p, c in h.terms.items():
        cur = v.scaled(c)
        for i in reduced_word(p):
            cur = act_gen(cur, i)
        total.axpy(cur)
    return total
