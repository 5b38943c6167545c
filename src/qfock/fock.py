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

The type A Hecke algebra acts on the right: for the generator H_i compare
the letters at positions i, i+1; the exchanged tuple is Bruhat-larger when
they increase in the covariant sector or decrease in the dual sector, and

    M_f H_i = M_{f s_i}                       f < f s_i,
    M_f H_i = q^-1 M_f                        f = f s_i,
    M_f H_i = M_{f s_i} + (q^-1 - q) M_f      f > f s_i.

The two actions commute; tests pin this down.
"""

from __future__ import annotations

from .laurent import LaurentCombination, LaurentPoly, div_exact, q_fact
from .weightlat import Shape, SignedTuple, apply_s, reduced_word

_QINV_MINUS_Q = LaurentPoly({-1: 1, 1: -1})


class FockVector(LaurentCombination):
    """A Z[q, q^-1]-linear combination of standard monomials of one shape."""

    __slots__ = ()

    @classmethod
    def zero(cls, shape: Shape) -> "FockVector":
        return cls(shape)

    @classmethod
    def monomial(cls, f: SignedTuple, coeff=None) -> "FockVector":
        return cls(f.shape, {f: LaurentPoly.one() if coeff is None else coeff})

    def at_one(self) -> dict[SignedTuple, int]:
        return {f: c.at_one() for f, c in self.terms.items()}

    def to_json(self) -> dict:
        rows = sorted(self.terms.items(), key=lambda t: t[0].entries)
        return {
            "shape": str(self.shape),
            "terms": [{"tuple": str(f), **c.to_json()} for f, c in rows],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FockVector":
        m, _, n = data["shape"].partition("|")
        shape = Shape(int(m), int(n))
        terms = {}
        for row in data["terms"]:
            f = SignedTuple.parse(row["tuple"], shape)
            terms[f] = LaurentPoly.from_json(row)
        return cls(shape, terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        rows = sorted(self.terms.items(), key=lambda t: t[0].entries)
        return " + ".join(f"({c})*M[{f}]" for f, c in rows)

    def __repr__(self) -> str:
        return f"FockVector({self.shape}, {len(self.terms)} terms)"


# ---------------------------------------------------------------------------
# quantum group action


def _letter_image(sector: int, kind: str, a: int, b: int) -> int | None:
    """The image letter of E_a/F_a on the letter b, or None if killed."""
    if kind == "E":
        if sector == 0:
            return a if b == a + 1 else None
        return a + 1 if b == a else None
    if sector == 0:
        return a + 1 if b == a else None
    return a if b == a + 1 else None


def _twist(sector: int, kind: str, a: int, b: int) -> int:
    """Exponent contribution of the K-twist accompanying E_a/F_a."""
    if kind == "E":
        t = (1 if b == a + 1 else 0) - (1 if b == a else 0)
    else:
        t = (1 if b == a else 0) - (1 if b == a + 1 else 0)
    return -t if sector else t


def apply_chevalley(v: FockVector, kind: str, a: int) -> FockVector:
    """Apply E_a, F_a, K_a or Kinv_a through the iterated coproduct."""
    if kind in ("K", "Kinv"):
        sign = 1 if kind == "K" else -1
        res = FockVector(v.shape)
        for f, c in v.terms.items():
            m = v.shape.m
            exp = sum(1 for b in f.entries[:m] if b == a) - sum(
                1 for b in f.entries[m:] if b == a
            )
            res.add_term(f, c * LaurentPoly.q_power(sign * exp))
        return res
    if kind not in ("E", "F"):
        raise ValueError(f"unknown generator kind {kind!r}")
    shape = v.shape
    size = shape.size
    res = FockVector(shape)
    for f, c in v.terms.items():
        sectors = [0] * shape.m + [1] * shape.n
        for j in range(size):
            img = _letter_image(sectors[j], kind, a, f.entries[j])
            if img is None:
                continue
            # E acts at j with twists to its right, F with twists to its left
            rng = range(j + 1, size) if kind == "E" else range(0, j)
            exp = sum(_twist(sectors[i], kind, a, f.entries[i]) for i in rng)
            g = SignedTuple(shape, f.entries[:j] + (img,) + f.entries[j + 1:])
            res.add_term(g, c * LaurentPoly.q_power(exp))
    return res


def apply_divided(v: FockVector, kind: str, a: int, r: int) -> FockVector:
    """The divided power E_a^{(r)} or F_a^{(r)} = (.)^r / [r]!."""
    if r < 0:
        raise ValueError("negative divided power")
    cur = v
    for _ in range(r):
        cur = apply_chevalley(cur, kind, a)
    fact = q_fact(r)
    return FockVector(v.shape, {f: div_exact(c, fact) for f, c in cur.terms.items()})


def dual_pair(a: int, b: int) -> LaurentPoly:
    """The contravariant pairing of the dual letter w_a against v_b.

    <w_a, v_b> = (-1)^a q^{-a} delta_{ab}.
    """
    if a != b:
        return LaurentPoly.zero()
    return LaurentPoly.q_power(-a, 1 if a % 2 == 0 else -1)


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
            res.add_term(f, c * LaurentPoly.q_power(-1))
            continue
        swapped = SignedTuple(shape, apply_s(f.entries, i))
        ascent = (x < y) if not dual else (x > y)
        res.add_term(swapped, c)
        if not ascent:
            res.add_term(f, c * _QINV_MINUS_Q)
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
