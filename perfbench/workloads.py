"""Workload definitions, seeded inputs and result digests.

Each workload is a fixed list of operations ("ops").  On ladder the seed
changes which tuples are asked but never shapes, window widths or block
sizes, so runs with different seeds cost the same.

- sweep:  every block of a few narrow-window shapes, canonical and dual
          canonical columns of every member, oracle cross-checks on small
          blocks, and the symmetrised space for every parabolic of order
          at most 4.  The inputs are the same for every seed: translating
          these windows would change their cost, because in CPython
          hash(-1) == hash(-2) and tuples holding both letters collide.
- ladder: a fixed list of CLI queries that grows from 1|1 to 3|3, with one
          wide-window dual column where the bar transfer recursion is nearly
          all of the time.  The seed picks, per query, one member of the
          query's block from a stored list of members whose down-set has the
          default member's size.

Digests hash the sorted coefficients of a result, never the order of a
block.

This module imports nothing from qfock, so that input generation never
touches the caches of the program under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

WORKLOADS = ("sweep", "ladder")

# (shape, window lo, window hi)
SWEEP_SETS = (("2|2", -1, 3), ("3|1", 0, 3), ("1|3", 0, 3), ("2|1", -1, 4), ("1|2", -1, 4))
SWEEP_CROSSCHECK_MAX = 12
ORACLE_DEGREE_BOUND = 8

# Queries are run with --json so that the output can be digested.  A
# "{tuple}" or "{weight}" field is filled with a seeded block member.
# `char --kind verma` is left out: the CLI rejects that kind.
LADDER = (
    "bkl --shape 1|1 --tuple {tuple} --window 0..3 --mode canonical",
    "char --algebra gl(1|1) --weight={weight} --window 0..3 --kind simple",
    "qsym --shape 1|2 --parabolic s2 --tuple {tuple} --window=-1..2 --basis N",
    "char --algebra gl(2|0) --weight={weight} --window 0..3 --kind whittaker",
    "bkl --shape 2|1 --tuple {tuple} --window=-1..3 --mode dual",
    "bkl --shape 2|2 --tuple {tuple} --window=-1..4 --mode canonical",
    "char --algebra gl(2|2) --weight={weight} --window=-1..3 --parabolic s1,s3 --kind whittaker",
    "qsym --shape 2|3 --parabolic s3,s4 --tuple {tuple} --window=-1..3 --basis N",
    "char --algebra gl(3|2) --weight={weight} --window 0..4 --kind simple",
    "bkl --shape 3|2 --tuple {tuple} --window 0..4 --mode canonical",
    "qsym --shape 3|3 --parabolic s1,s2 --tuple {tuple} --window 0..3 --basis N",
    "char --algebra gl(3|3) --weight={weight} --window 0..3 --kind tilting",
    "bkl --shape 1|1 --tuple {tuple} --window 0..17 --mode dual",
    "bkl --shape 3|3 --tuple {tuple} --window=0..4 --mode dual",
)
# the member each query asks at seed-independent defaults, as a tuple
LADDER_DEFAULTS = (
    "2|2", "3|3", "1|1,0", "1,2|", "1,2|2", "1,2|1,2", "2,2|1,1",
    "1,2|2,2,1", "3,2,1|1,2", "1,2,3|1,2", "1,2,3|1,2,3", "3,2,1|1,2,3",
    "17|17", "1,2,3|1,2,3",
)
LADDER_CANDIDATES_MAX = 4


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def parse_tuple(text: str) -> tuple[tuple[int, ...], int]:
    """("a,b|c") -> ((a, b, c), m)."""
    left, _, right = text.partition("|")
    lefts = [int(x) for x in left.split(",") if x]
    rights = [int(x) for x in right.split(",") if x]
    return tuple(lefts + rights), len(lefts)


def format_tuple(entries, m: int) -> str:
    return ",".join(map(str, entries[:m])) + "|" + ",".join(map(str, entries[m:]))


def shift_tuple(text: str, by: int) -> str:
    entries, m = parse_tuple(text)
    return format_tuple([e + by for e in entries], m)


def tuple_to_weight_text(text: str) -> str:
    """The gl(m|n) weight of a tuple under the rho-shifted dictionary."""
    entries, m = parse_tuple(text)
    lam = [entries[i - 1] - (m - i + 1) for i in range(1, m + 1)]
    lam += [(j - m) - entries[j - 1] for j in range(m + 1, len(entries) + 1)]
    return format_tuple(lam, m)


def sweep_inputs(ref: dict) -> list[dict]:
    """Every sweep block, with its members written in absolute letters."""
    sets = []
    for shape, lo, hi in SWEEP_SETS:
        stored = ref["sweep"][shape]
        sets.append({
            "shape": shape,
            "lo": lo,
            "hi": hi,
            "parabolics": stored["parabolics"],
            "blocks": [
                {"members": [shift_tuple(g, lo) for g in b["members"]], "anti": b["anti"]}
                for b in stored["blocks"]
            ],
        })
    return sets


def ladder_argv(template: str, member: str) -> list[str]:
    argv = template.format(tuple=member, weight=tuple_to_weight_text(member)).split()
    return argv + ["--json"]


def inputs(workload: str, seed: int, ref: dict) -> dict:
    """The seeded inputs of one workload; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        return {"sets": sweep_inputs(ref)}
    if workload == "ladder":
        members = [rng.choice(c) for c in ref["ladder"]["candidates"]]
        return {"queries": [ladder_argv(t, m) for t, m in zip(LADDER, members)]}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# digests


def _hash(rows) -> str:
    return hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()[:16]


def _poly(data: dict) -> tuple:
    """A LaurentPoly's JSON form as sorted (exponent, coefficient) pairs."""
    return tuple(sorted((int(e), a) for e, a in data["poly"].items()))


def expansion_digest(coefficients: dict, m: int, lo: int) -> str:
    """Digest of {tuple: LaurentPoly}, tuples written relative to lo."""
    return _hash(
        (format_tuple([e - lo for e in g.entries], m), _poly(c.to_json()))
        for g, c in coefficients.items()
    )


def cli_digest(command: str, data: dict) -> str:
    """Digest of the mathematical content of one `--json` CLI answer."""
    if command == "bkl":
        return _hash((d["tuple"], _poly(d)) for d in data["coefficients"])
    if command == "qsym":
        return _hash((d["tuple"], _poly(d)) for d in data["terms"])
    if command == "char":
        return _hash(
            (r["name"], tuple(sorted((e["tuple"], e["mult"]) for e in r["entries"])))
            for r in data["rows"]
        )
    raise ValueError(f"no digest for command {command!r}")


def relative_key(kind: str, shape: str, lo: int, hi: int, f: str, par: str = "") -> str:
    """Reference key of a sweep op, written relative to the window floor."""
    entries, m = parse_tuple(f)
    rel = format_tuple([e - lo for e in entries], m)
    return " ".join(p for p in (kind, shape, f"w{hi - lo + 1}", par, rel) if p)


def ladder_key(argv: list[str]) -> str:
    return " ".join(a for a in argv if a != "--json")
