"""Exact canonical-basis combinatorics in the q-Fock space of gl-infinity.

The package computes, over Z[q, q^-1] with no floating point:

- the standard monomial, canonical and dual canonical bases of the mixed
  tensor space spanned by signed tuples (laurent, weightlat, fock, barinv,
  canonical);
- the type A Hecke-algebra action and q-symmetrizers (hecke);
- the q-symmetrized quotient space with its three distinguished bases and
  the symmetrization map (qsym);
- character and multiplicity tables that specialize the above at q = 1
  (reports);
- graded reciprocity, the quiver presentation and the identity sweeps
  (verify);
- a command line interface (cli).
"""

from .laurent import LaurentPoly, NotDivisible, NotAntisymmetric, q_int, q_fact, div_exact, pos_part, neg_part

__all__ = [
    "LaurentPoly",
    "NotDivisible",
    "NotAntisymmetric",
    "q_int",
    "q_fact",
    "div_exact",
    "pos_part",
    "neg_part",
]

__version__ = "0.1.0"
