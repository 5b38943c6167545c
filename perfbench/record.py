"""Regenerate perfbench/reference.json from the qfock package as it stands.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/record.py

The reference holds, for every op the benchmark can ask under any seed,
the digest of its correct result, together with the stored inputs the
seeds choose from: the members of every sweep block (in block order,
relative to the window floor) with their anti-dominant members per
parabolic, and the ladder members whose down-set has the default member's
size.  Record it only from a commit whose results are trusted; the
benchmark fails every op that disagrees with it.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import time
import warnings

import workloads as wl
from worker import ROOT, import_qfock, op_runner, prepare_sweep, run_sweep

OUT = wl.HERE / "out"
# members screened per ladder query, and the share by which a kept member's
# traced call count may differ from the default member's
SCREENED = 8
WORK_TOLERANCE = 0.02


def sweep_blocks(shape_text: str, lo: int, hi: int) -> dict:
    from qfock.weightlat import (
        Parabolic, Shape, Window, block, is_antidominant, par_elements, weight, weight_key,
        window_tuples,
    )

    m, n = map(int, shape_text.split("|"))
    shape, w = Shape(m, n), Window(lo, hi)
    gens = [i for i in range(1, shape.size) if i != shape.m]
    pars = []
    for r in range(1, len(gens) + 1):
        for sub in itertools.combinations(gens, r):
            par = Parabolic(shape, frozenset(sub))
            if len(par_elements(par)) <= 4:
                pars.append((str(par), list(sub)))
    seen, blocks = set(), []
    for f in window_tuples(shape, w):
        key = weight_key(weight(f))
        if key in seen:
            continue
        seen.add(key)
        order = block(f, w)
        anti = {}
        for label, sub in pars:
            par = Parabolic(shape, frozenset(sub))
            idx = [i for i, g in enumerate(order) if is_antidominant(g, par)]
            if idx:
                anti[label] = idx
        blocks.append({
            "members": [wl.format_tuple([e - lo for e in g.entries], m) for g in order],
            "anti": anti,
        })
    return {"parabolics": pars, "blocks": blocks}


def same_size_members(template: str, default: str) -> list[str]:
    """The default member of a ladder query's block, then the other members
    whose down-set (and, with a parabolic, the down-set of the top of their
    orbit) has the default's size, sorted by entries."""
    from qfock.cli import build_parser, parse_parabolic, parse_window
    from qfock.weightlat import Shape, SignedTuple, block, bruhat_leq, is_antidominant, longest_element

    args = build_parser().parse_args(wl.ladder_argv(template, default))
    entries, m = wl.parse_tuple(default)
    shape = Shape(m, len(entries) - m)
    w = parse_window(args.window)
    par = None
    if args.command == "qsym" or getattr(args, "kind", None) == "whittaker":
        par = parse_parabolic(args.parabolic, shape)
    f0 = SignedTuple(shape, entries)
    order = block(f0, w)

    def size(f):
        sizes = [sum(1 for g in order if bruhat_leq(g, f))]
        if par is not None:
            top = f.act(longest_element(par)[0])
            sizes.append(sum(1 for g in order if bruhat_leq(g, top)))
        return sizes

    want = size(f0)
    same = [
        g for g in sorted(order, key=lambda g: g.entries)
        if g != f0 and (par is None or is_antidominant(g, par)) and size(g) == want
    ]
    return [wl.format_tuple(g.entries, m) for g in [f0] + same[:SCREENED - 1]]


def traced_query(argv: list[str]) -> tuple[str, int, float]:
    """(digest, work, seconds) of one query in a fresh traced process; work is
    the total count of traced calls, a deterministic proxy for its cost."""
    OUT.mkdir(exist_ok=True)
    trace = OUT / "record-trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(wl.HERE / "worker.py"), "query", "--trace", str(trace), "--", *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, check=True,
    )
    took = time.perf_counter() - start
    with open(f"{trace}.summary") as fh:
        work = sum(json.load(fh)["calls"].values())
    return wl.cli_digest(argv[0], json.loads(proc.stdout)), work, took


def main() -> int:
    import_qfock()
    ref = {"sweep": {}, "ladder": {}, "digests": {}}
    for shape, lo, hi in wl.SWEEP_SETS:
        ref["sweep"][shape] = sweep_blocks(shape, lo, hi)
    ops: list = []
    op = op_runner(ops)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_sweep(prepare_sweep(wl.sweep_inputs(ref)), op)
    bad = [o for o in ops if o[3]]
    if bad:
        sys.exit(f"{len(bad)} ops failed while recording, first: {bad[0]}")
    ref["digests"] = {key: digest for key, _, digest, _ in ops if digest is not None}

    cands = ref["ladder"]["candidates"] = []
    for template, default in zip(wl.LADDER, wl.LADDER_DEFAULTS):
        kept, base = [], None
        for member in same_size_members(template, default):
            argv = wl.ladder_argv(template, member)
            digest, work, took = traced_query(argv)
            base = base or work
            keep = abs(work - base) <= WORK_TOLERANCE * base and len(kept) < wl.LADDER_CANDIDATES_MAX
            if keep:
                kept.append(member)
                ref["digests"][wl.ladder_key(argv)] = digest
            print(f"{took:7.2f}s {work:10d} {'kept' if keep else '    '} {wl.ladder_key(argv)}", file=sys.stderr)
        cands.append(kept)
    with open(wl.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(ref['digests'])} digests written to {wl.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
