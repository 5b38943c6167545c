"""Decategorified outputs: characters and Whittaker multiplicities.

At q = 1 the tensor-space bases turn into multiplicity tables for blocks
of category O of gl(m|n) and of its Whittaker quotients: dual canonical
coefficients give irreducible characters in the Verma basis, canonical
ones give tilting characters, and the symmetrized bases give the
standard and simple classes of the quotient category attached to a
parabolic.  Every table records the window it was computed in, and
tables never mix windows.  The two-route checks, the identity sweeps
and the quiver presentation live in `verify`.
"""

from __future__ import annotations

import csv
import io
from collections import namedtuple

from .canonical import canonical, dual_canonical, inverse_column
from .qsym import n_ratio, qsym_canonical, qsym_dual_canonical
from .weightlat import (
    CheckFailed,
    Parabolic,
    Shape,
    SignedTuple,
    Window,
    antidominant_rep,
    block,
    is_antidominant,
    tuple_to_weight,
)


def format_weight(f: SignedTuple) -> str:
    """The weight of f, printed like a tuple, covariant|dual: 3|3 -> "2|-2"."""
    return str(SignedTuple(f.shape, tuple_to_weight(f)))


# ---------------------------------------------------------------------------
# character tables


# table tag -> label of the basis its columns are written in
TABLE_TAGS = {
    "simple-in-Verma": "M",
    "tilting-in-Verma": "M",
    "Verma-in-simple": "L",
    "standard-Whittaker": "pstd",
}


class CharRow(namedtuple("CharRow", "name ftuple entries")):
    """One class, expanded in a fixed basis with integer multiplicities.

    The class and its entries are keyed by tuples; the weights are read off
    through the rho-shifted dictionary only when the row is serialized, so
    that both spellings appear in the output.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        ent = [
            {
                "weight": list(tuple_to_weight(g)),
                "tuple": str(g),
                "mult": c,
            }
            for g, c in sorted(self.entries.items(), key=lambda kv: kv[0].entries)
        ]
        return {
            "name": self.name,
            "weight": list(tuple_to_weight(self.ftuple)),
            "tuple": str(self.ftuple),
            "entries": ent,
        }


class CharTable(namedtuple("CharTable", "shape tag window rows")):
    """Rows of one table tag (a key of TABLE_TAGS), computed in one window."""

    __slots__ = ()

    def __new__(cls, shape: Shape, tag: str, window: Window, rows: list[CharRow]):
        if tag not in TABLE_TAGS:
            raise ValueError(f"unknown table tag {tag!r}")
        return tuple.__new__(cls, (shape, tag, window, rows))

    def to_json(self) -> dict:
        return {
            "shape": str(self.shape),
            "tag": self.tag,
            "window": str(self.window),
            "rows": [r.to_json() for r in self.rows],
        }

    def to_csv(self) -> str:
        out = io.StringIO()
        wr = csv.writer(out)
        wr.writerow(["tag", "name", "lambda", "lambda_tuple", "mu", "mu_tuple", "mult"])
        for r in self.rows:
            lam_s = format_weight(r.ftuple)
            for g, c in sorted(r.entries.items(), key=lambda kv: kv[0].entries):
                wr.writerow([self.tag, r.name, lam_s, str(r.ftuple), format_weight(g), str(g), c])
        return out.getvalue()


def _at_one(exp) -> dict[SignedTuple, int]:
    """The nonzero coefficients of an expansion at q = 1."""
    return {g: v for g, c in exp.coefficients.items() if (v := c.at_one())}


def _check_diagonal(entries: dict, f: SignedTuple) -> None:
    if entries.get(f) != 1:
        raise CheckFailed(f"diagonal entry at {f} is {entries.get(f, 0)}, not 1")


def simple_character(f: SignedTuple, w: Window) -> CharRow:
    """The irreducible character in the Verma basis.

    Multiplicities are the dual canonical coefficients at q = 1 and may be
    negative; the diagonal entry is 1.
    """
    entries = _at_one(dual_canonical(f, w))
    _check_diagonal(entries, f)
    return CharRow(f"L({format_weight(f)})", f, entries)


def tilting_character(f: SignedTuple, w: Window) -> CharRow:
    """The tilting character in the Verma basis; entries must be >= 0."""
    entries = _at_one(canonical(f, w))
    _check_diagonal(entries, f)
    if any(c < 0 for c in entries.values()):
        raise CheckFailed(f"negative tilting entry at {f}")
    return CharRow(f"T({format_weight(f)})", f, entries)


def verma_column(f: SignedTuple, w: Window) -> dict[SignedTuple, int]:
    """[M_f : L_g] over the block of f: column f of the inverse dual matrix at q = 1."""
    return inverse_column(block(f, w), lambda g: _at_one(dual_canonical(g, w)), f)


def verma_in_simple(f: SignedTuple, w: Window) -> CharRow:
    """The Verma class in the basis of irreducibles (composition multiplicities)."""
    return CharRow(f"M({format_weight(f)})", f, verma_column(f, w))


def character_table(f: SignedTuple, w: Window, kind: str) -> CharTable:
    if kind == "simple":
        return CharTable(f.shape, "simple-in-Verma", w, [simple_character(f, w)])
    if kind == "tilting":
        return CharTable(f.shape, "tilting-in-Verma", w, [tilting_character(f, w)])
    if kind == "verma":
        return CharTable(f.shape, "Verma-in-simple", w, [verma_in_simple(f, w)])
    raise ValueError(f"unknown character kind {kind!r}")


# ---------------------------------------------------------------------------
# Whittaker quotient attached to a parabolic


def delta_flag_length(f: SignedTuple, par: Parabolic) -> int:
    """Size of the parabolic orbit of f: the proper-standard flag length."""
    f0, _, _ = antidominant_rep(f, par)
    return n_ratio(f0, par).at_one()


def _check_antidominant(f: SignedTuple, par: Parabolic) -> None:
    if not is_antidominant(f, par):
        raise ValueError(f"weight {format_weight(f)} (tuple {f}) is not anti-dominant for {par}")


def whittaker_decomposition(f: SignedTuple, par: Parabolic, w: Window) -> CharTable:
    """Classes of the standard, tilting and simple objects of the quotient.

    All three rows are written in the basis of proper standard classes.
    The tuple must be anti-dominant for the parabolic.
    """
    _check_antidominant(f, par)
    ws = format_weight(f)

    delta = CharRow(f"Delta({ws})", f, {f: n_ratio(f, par).at_one()})

    t_one = _at_one(qsym_canonical(f, par, w))
    tentries = {g: v * n_ratio(g, par).at_one() for g, v in t_one.items()}
    tilt = CharRow(f"TObar({ws})", f, tentries)

    simple = CharRow(f"piL({ws})", f, _at_one(qsym_dual_canonical(f, par, w)))

    return CharTable(f.shape, "standard-Whittaker", w, [delta, tilt, simple])


def standard_whittaker_column(
    f: SignedTuple, par: Parabolic, w: Window
) -> dict[SignedTuple, int]:
    """Composition multiplicities of the standard Whittaker object of f.

    Computed inside the quotient: the column of the inverse simple-to-
    standard matrix over the anti-dominant part of the block.  Keys are
    the anti-dominant tuples with nonzero multiplicity.
    """
    f0, _, _ = antidominant_rep(f, par)
    anti = [g for g in block(f0, w) if is_antidominant(g, par)]
    return inverse_column(anti, lambda g: _at_one(qsym_dual_canonical(g, par, w)), f0)
