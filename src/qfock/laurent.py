"""Sparse exact arithmetic in the ring Z[q, q^-1] of integer Laurent polynomials.

Polynomials are stored as dicts mapping exponent -> nonzero integer
coefficient.  All operations are exact; there is no floating point anywhere.
The bar involution is the ring automorphism q -> q^-1.
"""

from __future__ import annotations


class NotDivisible(ArithmeticError):
    """Raised when an exact division in Z[q, q^-1] leaves a remainder."""


class NotAntisymmetric(ArithmeticError):
    """Raised when a polynomial expected to satisfy bar(d) = -d does not."""


class LaurentPoly:
    """An element of Z[q, q^-1], kept in zero-pruned sparse form."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        self.c = {}
        if coeffs:
            for e, a in coeffs.items():
                if a:
                    self.c[int(e)] = int(a)

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def q_power(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        """The monomial coeff * q^exp.

        >>> print(LaurentPoly.q_power(-2, 3))
        3*q^-2
        """
        return cls({exp: coeff})

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.c == other.c

    def __hash__(self) -> int:
        return hash(frozenset(self.c.items()))

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        out = dict(self.c)
        for e, a in other.c.items():
            b = out.get(e, 0) + a
            if b:
                out[e] = b
            else:
                out.pop(e, None)
        res = LaurentPoly()
        res.c = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        res = LaurentPoly()
        res.c = {e: -a for e, a in self.c.items()}
        return res

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            res = LaurentPoly()
            if other:
                res.c = {e: a * other for e, a in self.c.items()}
            return res
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, a1 in self.c.items():
            for e2, a2 in other.c.items():
                e = e1 + e2
                b = out.get(e, 0) + a1 * a2
                if b:
                    out[e] = b
                else:
                    out.pop(e, None)
        res = LaurentPoly()
        res.c = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined in Z[q, q^-1]")
        res = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                res = res * base
            base = base * base
            n >>= 1
        return res

    def bar(self) -> "LaurentPoly":
        """The involution q -> q^-1.

        >>> p = LaurentPoly({2: 1, -1: 3})
        >>> print(p.bar())
        3*q + q^-2
        """
        res = LaurentPoly()
        res.c = {-e: a for e, a in self.c.items()}
        return res

    def coeff(self, exp: int) -> int:
        return self.c.get(exp, 0)

    def min_exp(self) -> int:
        if not self.c:
            raise ValueError("the zero polynomial has no degree")
        return min(self.c)

    def max_exp(self) -> int:
        if not self.c:
            raise ValueError("the zero polynomial has no degree")
        return max(self.c)

    def at_one(self) -> int:
        """Evaluate at q = 1."""
        return sum(self.c.values())

    def shifted(self, exp: int) -> "LaurentPoly":
        """Multiply by q^exp."""
        res = LaurentPoly()
        res.c = {e + exp: a for e, a in self.c.items()}
        return res

    def to_json(self) -> dict:
        return {"poly": {str(e): a for e, a in sorted(self.c.items())}}

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPoly":
        return cls({int(e): a for e, a in data["poly"].items()})

    def __str__(self) -> str:
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c, reverse=True):
            a = self.c[e]
            if e == 0:
                term = str(abs(a))
            else:
                qp = "q" if e == 1 else f"q^{e}"
                term = qp if abs(a) == 1 else f"{abs(a)}*{qp}"
            if not parts:
                parts.append(term if a > 0 else "-" + term)
            else:
                parts.append(("+ " if a > 0 else "- ") + term)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.c!r})"


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()
Q = LaurentPoly.q_power(1)
QINV = LaurentPoly.q_power(-1)


def q_int(r: int) -> LaurentPoly:
    """The balanced q-integer [r] = q^{r-1} + q^{r-3} + ... + q^{1-r}.

    [0] = 0 and [-r] = -[r].

    >>> print(q_int(3))
    q^2 + 1 + q^-2
    >>> print(q_int(0))
    0
    """
    if r < 0:
        return -q_int(-r)
    return LaurentPoly({r - 1 - 2 * k: 1 for k in range(r)})


def q_fact(r: int) -> LaurentPoly:
    """The q-factorial [r]! = [1][2]...[r], with [0]! = 1.

    >>> print(q_fact(2))
    q + q^-1
    >>> q_fact(3) == q_int(3) * q_int(2)
    True
    """
    if r < 0:
        raise ValueError("q-factorial of a negative integer")
    res = LaurentPoly.one()
    for k in range(2, r + 1):
        res = res * q_int(k)
    return res


def div_exact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact quotient num / den in Z[q, q^-1]; raises NotDivisible otherwise.

    >>> print(div_exact(LaurentPoly({2: 1, -2: -1}), LaurentPoly({1: 1, -1: -1})))
    q + q^-1
    """
    if not den:
        raise NotDivisible("division by zero")
    if not num:
        return LaurentPoly.zero()
    # Normalize away the q-power ambiguity: an exact Laurent quotient has
    # lowest exponent num.min - den.min, so division reduces to ordinary
    # polynomial long division with a hard floor.
    offset = num.min_exp() - den.min_exp()
    top = den.max_exp()
    lead = den.c[top]
    rem = dict(num.c)
    quot: dict[int, int] = {}
    while rem:
        e = max(rem)
        shift = e - top
        if shift < offset or rem[e] % lead:
            raise NotDivisible(f"({num}) is not divisible by ({den})")
        coeff = rem[e] // lead
        quot[shift] = coeff
        for de, da in den.c.items():
            k = de + shift
            b = rem.get(k, 0) - coeff * da
            if b:
                rem[k] = b
            else:
                rem.pop(k, None)
    return LaurentPoly(quot)


def _check_antisymmetric(d: LaurentPoly) -> None:
    for e, a in d.c.items():
        if d.c.get(-e, 0) != -a:
            raise NotAntisymmetric(f"bar({d}) != -({d})")


def pos_part(d: LaurentPoly) -> LaurentPoly:
    """For bar-antisymmetric d, the unique p in q*Z[q] with p - bar(p) = d.

    >>> print(pos_part(LaurentPoly({3: 2, -3: -2, 1: 1, -1: -1})))
    2*q^3 + q
    """
    _check_antisymmetric(d)
    return LaurentPoly({e: a for e, a in d.c.items() if e > 0})


def neg_part(d: LaurentPoly) -> LaurentPoly:
    """For bar-antisymmetric d, the unique p in q^-1*Z[q^-1] with p - bar(p) = d.

    >>> print(neg_part(LaurentPoly({3: 2, -3: -2})))
    -2*q^-3
    """
    _check_antisymmetric(d)
    return LaurentPoly({e: a for e, a in d.c.items() if e < 0})


class LaurentCombination:
    """A finite Z[q, q^-1]-linear combination of hashable basis keys.

    `terms` is a plain dict key -> nonzero LaurentPoly; no zero coefficient
    is ever stored.  Binary operators build new combinations; `add_term`
    and `axpy` accumulate in place and must only be applied to a
    combination the caller created itself, never to a cached one.

    >>> v = LaurentCombination("s", {"a": Q, "b": ONE})
    >>> w = v.scaled(-1).axpy(v, Q).add_term("b", ONE)
    >>> print(w.coeff("a"), "|", w.coeff("b"), "|", sorted(w.support()))
    q^2 - q | q | ['a', 'b']
    >>> bool(v - v), (v + v).coeff("b") == 2
    (False, True)
    """

    __slots__ = ("shape", "terms")

    def __init__(self, shape, terms=None):
        self.shape = shape
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    def _with(self, terms: dict) -> "LaurentCombination":
        """A combination like self holding the given, already pruned, terms."""
        res = object.__new__(type(self))
        res.shape = self.shape
        res.terms = terms
        return res

    def coeff(self, key) -> LaurentPoly:
        """The coefficient at key, zero when absent; a list key means its tuple."""
        if isinstance(key, list):
            key = tuple(key)
        return self.terms.get(key, LaurentPoly.zero())

    def support(self) -> set:
        return set(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.shape == other.shape
            and self.terms == other.terms
        )

    def add_term(self, key, c: LaurentPoly) -> "LaurentCombination":
        """In place: self += c * [key].  Returns self."""
        terms = self.terms
        s = terms[key] + c if key in terms else c
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)
        return self

    def axpy(self, other: "LaurentCombination", c=None) -> "LaurentCombination":
        """In place: self += c * other (c an int or LaurentPoly, default 1).

        Returns self; other is left untouched, even when it is self.
        """
        if c is not None and not c:
            return self
        items = list(other.terms.items()) if other is self else other.terms.items()
        for key, a in items:
            self.add_term(key, a if c is None else a * c)
        return self

    def __add__(self, other: "LaurentCombination") -> "LaurentCombination":
        return self._with(dict(self.terms)).axpy(other)

    def __sub__(self, other: "LaurentCombination") -> "LaurentCombination":
        return self._with(dict(self.terms)).axpy(other, -1)

    def __neg__(self) -> "LaurentCombination":
        return self._with({k: -c for k, c in self.terms.items()})

    def scaled(self, c) -> "LaurentCombination":
        """c * self for c an int or LaurentPoly."""
        if not c:
            return self._with({})
        return self._with({k: a * c for k, a in self.terms.items()})

    def bar_coeffs(self) -> "LaurentCombination":
        """q -> q^-1 on every coefficient, keys untouched."""
        return self._with({k: c.bar() for k, c in self.terms.items()})
