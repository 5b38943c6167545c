"""Command line front end.

Subcommands: bkl (canonical/dual canonical expansions), qsym (canonical
basis of the symmetrized image in a choice of coordinates), char
(character and multiplicity tables), verify (identity sweeps), quiver
(the gl(1|n) presentation).  bkl and qsym print their expansion through
one answer path, `_print_answer`.  Exit codes: 0 on success; 2 on bad
input, a FAIL verdict, a failed internal identity check (CheckFailed) or a
window too wide for the recursion depth (the bar's transfer recursion
takes one stack frame per window letter); 3 when a computation needs
letters outside the requested window.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys

from .canonical import canonical, dual_canonical
from .qsym import base_change, qsym_canonical
from .reports import TABLE_TAGS, character_table, whittaker_decomposition
from .weightlat import (
    CheckFailed, Parabolic, Shape, SignedTuple, Window, WindowEscape, weight_to_tuple,
)

# sorted(verify.VERIFY_SUITES), spelled out so that building the parser does
# not import verify: bkl, qsym and char never load it
VERIFY_SUITE_NAMES = ("bar", "bgg", "canonical", "hecke", "qsym")


def parse_shape(text: str) -> Shape:
    m = re.fullmatch(r"(\d+)\|(\d+)", text.strip())
    if not m:
        raise ValueError(f"shape must look like m|n, got {text!r}")
    return Shape(int(m.group(1)), int(m.group(2)))


def parse_window(text: str) -> Window:
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text.strip())
    if not m:
        raise ValueError(f"window must look like lo..hi, got {text!r}")
    return Window(int(m.group(1)), int(m.group(2)))


def parse_parabolic(text: str | None, shape: Shape) -> Parabolic:
    """An unset parabolic (None) is the full one."""
    text = "full" if text is None else text.strip()
    if text in ("", "e", "trivial"):
        return Parabolic.trivial(shape)
    if text == "full":
        return Parabolic.full(shape)
    gens = set()
    for tok in text.split(","):
        tok = tok.strip()
        if tok.startswith("s"):
            tok = tok[1:]
        if not tok.isdigit():
            raise ValueError(f"bad parabolic generator {tok!r}")
        gens.add(int(tok))
    return Parabolic(shape, frozenset(gens))


def _rows_csv(rows) -> str:
    out = io.StringIO()
    wr = csv.writer(out)
    wr.writerow(["tuple", "coefficient"])
    for g, c in rows:
        wr.writerow([str(g), str(c)])
    return out.getvalue()


def _print_answer(args, exp, header: str, label: str) -> int:
    """Print an expansion as --json, --csv or text, its rows sorted by tuple."""
    rows = sorted(exp.coefficients.items(), key=lambda t: t[0].entries)
    if args.json:
        print(json.dumps(exp.to_json(), indent=2))
    elif args.csv:
        print(_rows_csv(rows), end="")
    else:
        print(header)
        for g, c in rows:
            coeff = f"({c})" if len(c.c) > 1 else c
            print(f"  {coeff} * {label}[{g}]")
    return 0


def cmd_bkl(args) -> int:
    shape = parse_shape(args.shape)
    f = SignedTuple.parse(args.tuple, shape)
    w = parse_window(args.window)
    exp = canonical(f, w) if args.mode == "canonical" else dual_canonical(f, w)
    header = f"{args.mode} basis element for f = {f}, shape {shape}, window {w}"
    return _print_answer(args, exp, header, "M")


def cmd_qsym(args) -> int:
    shape = parse_shape(args.shape)
    f = SignedTuple.parse(args.tuple, shape)
    w = parse_window(args.window)
    par = parse_parabolic(args.parabolic, shape)
    exp = qsym_canonical(f, par, w)
    if args.basis != exp.basis:
        exp = base_change(exp, args.basis)
    header = (
        f"canonical image element for f = {f}, parabolic {par}, "
        f"window {w}, {args.basis} coordinates"
    )
    return _print_answer(args, exp, header, args.basis)


def cmd_char(args) -> int:
    m = re.fullmatch(r"gl\((\d+)\|(\d+)\)", args.algebra.strip())
    if not m:
        raise ValueError(f"algebra must look like gl(m|n), got {args.algebra!r}")
    shape = Shape(int(m.group(1)), int(m.group(2)))
    lam = SignedTuple.parse(args.weight)
    if lam.shape != shape:
        raise ValueError(f"weight {args.weight!r} does not match {args.algebra}")
    f = weight_to_tuple(shape, lam.entries)
    w = parse_window(args.window)
    if args.kind == "whittaker":
        tab = whittaker_decomposition(f, parse_parabolic(args.parabolic, shape), w)
    elif args.parabolic is not None:
        raise ValueError(f"--parabolic applies to --kind whittaker only, not {args.kind}")
    else:
        tab = character_table(f, w, args.kind)
    if args.json:
        print(json.dumps(tab.to_json(), indent=2))
    elif args.csv:
        print(tab.to_csv(), end="")
    else:
        label = TABLE_TAGS[tab.tag]
        print(f"{tab.tag} table, shape {shape}, window {w}")
        for row in tab.rows:
            terms = sorted(row.entries.items(), key=lambda t: t[0].entries)
            body = ", ".join(f"{c}*{label}[{g}]" for g, c in terms)
            print(f"  {row.name} = {body}")
    return 0


def cmd_verify(args) -> int:
    w = parse_window(args.window)
    from .verify import run_verify

    ok, msgs = run_verify(args.suite, args.max_size, w)
    for line in msgs:
        print(line)
    print(f"suite {args.suite}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def cmd_quiver(args) -> int:
    from .verify import QuiverPresentation

    print(QuiverPresentation(args.n).display(), end="")
    return 0


def _add_format_flags(p: argparse.ArgumentParser) -> None:
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfock",
        description="canonical bases of the q-Fock space and their character tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bkl", help="canonical or dual canonical expansion of a tuple")
    p.add_argument("--shape", required=True, help="m|n")
    p.add_argument("--tuple", required=True, help='signed tuple, e.g. "1,2|5"')
    p.add_argument("--window", required=True, help="lo..hi")
    p.add_argument("--mode", choices=("canonical", "dual"), default="canonical")
    _add_format_flags(p)
    p.set_defaults(func=cmd_bkl)

    p = sub.add_parser("qsym", help="canonical basis element of the symmetrized image")
    p.add_argument("--shape", required=True, help="m|n")
    p.add_argument("--parabolic", required=True, help='"s1,s3", "full" or "e"')
    p.add_argument("--tuple", required=True, help="anti-dominant signed tuple")
    p.add_argument("--window", required=True, help="lo..hi")
    p.add_argument("--basis", choices=("N", "Ntilde", "Mtilde"), default="N")
    _add_format_flags(p)
    p.set_defaults(func=cmd_qsym)

    p = sub.add_parser("char", help="character and multiplicity tables")
    p.add_argument("--algebra", required=True, help="gl(m|n)")
    p.add_argument("--weight", required=True, help='integral weight, e.g. "2|-2"')
    p.add_argument("--window", required=True, help="lo..hi")
    p.add_argument("--kind", choices=("simple", "tilting", "verma", "whittaker"), required=True)
    p.add_argument("--parabolic", help="parabolic for --kind whittaker only (default: full)")
    _add_format_flags(p)
    p.set_defaults(func=cmd_char)

    p = sub.add_parser("verify", help="re-run an identity sweep")
    p.add_argument("--suite", choices=VERIFY_SUITE_NAMES, required=True)
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--window", default="0..4", help="lo..hi")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("quiver", help="gl(1|n) quiver presentation")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_quiver)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WindowEscape as exc:
        print(f"window escape: {exc}", file=sys.stderr)
        return 3
    except CheckFailed as exc:
        print(f"identity verification failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError as exc:
        print(f"error: {exc}; try a narrower window", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
