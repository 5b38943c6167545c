"""Child process of the benchmark: one set-up, one pass, or one traced query.

    worker.py setup --workload W --seed N
    worker.py pass  --workload W --seed N [--trace FILE]
    worker.py query --trace FILE -- <qfock CLI arguments>

`setup` imports qfock, generates the inputs and prints the monotonic clock
reading at which the first op would start.  `pass` then runs every op of
the workload in a closed loop, timing each call alone, and prints one JSON
line with each op's key, latency, result digest and error.  `query` runs
one ladder query through `qfock.cli.main` with the trace wrappers
installed.  With --trace, spans are written to FILE when the process ends.

Every mode refuses to run unless `qfock` resolves to this checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from pathlib import Path

import workloads as wl

ROOT = wl.HERE.parent


def import_qfock():
    import qfock
    import qfock.cli  # noqa: F401  (imports every module of the package)

    src = (ROOT / "src").resolve()
    where = Path(qfock.__file__).resolve()
    if src not in where.parents:
        sys.exit(f"qfock resolves to {where}, not to {src}")
    return qfock


def op_runner(ops: list, tracer=None):
    """op(key, call, check): time call() alone; check(result) -> (digest, error)."""
    clock = time.perf_counter

    def op(key, call, check):
        if tracer is not None:
            tracer.op = len(ops)
        start = clock()
        try:
            res = call()
        except Exception as exc:  # an op that raises counts as failed
            ops.append([key, clock() - start, None, f"{type(exc).__name__}: {exc}"])
            return None
        took = clock() - start
        try:
            digest, error = check(res)
        except Exception as exc:
            digest, error = None, f"check raised {type(exc).__name__}: {exc}"
        ops.append([key, took, digest, error])
        return None if error else res

    return op


def prepare_sweep(sets_in):
    """Sweep inputs as qfock objects."""
    from qfock.weightlat import Parabolic, Shape, SignedTuple, Window

    sets = []
    for s in sets_in:
        m, n = map(int, s["shape"].split("|"))
        shape = Shape(m, n)
        pars = [(label, Parabolic(shape, frozenset(gens))) for label, gens in s["parabolics"]]
        blocks = []
        for b in s["blocks"]:
            members = [(t, SignedTuple(shape, wl.parse_tuple(t)[0])) for t in b["members"]]
            blocks.append((members, b["anti"]))
        sets.append((s["shape"], Window(s["lo"], s["hi"]), pars, blocks))
    return sets


def run_sweep(sets, op) -> None:
    from qfock import barinv, canonical, qsym

    for shape, w, pars, blocks in sets:
        lo, hi, m = w.lo, w.hi, int(shape.split("|")[0])

        def digest(res):
            return wl.expansion_digest(res.coefficients, m, lo), None

        for members, anti in blocks:
            cols = {}
            for t, f in members:
                key = lambda kind: wl.relative_key(kind, shape, lo, hi, t)
                cols[t] = (
                    op(key("canonical"), lambda: canonical.canonical(f, w), digest),
                    op(key("dual"), lambda: canonical.dual_canonical(f, w), digest),
                )
            if len(members) <= wl.SWEEP_CROSSCHECK_MAX:
                for t, f in members:
                    for mode, col in zip(("canonical", "dual"), cols[t]):

                        def agree(v, col=col):
                            ok = col is not None and v == col.vector()
                            return None, None if ok else "oracle disagrees with the solver"

                        op(
                            wl.relative_key(f"oracle-{mode}", shape, lo, hi, t),
                            lambda: barinv.bar_oracle(f, w, wl.ORACLE_DEGREE_BOUND, mode),
                            agree,
                        )
            for label, par in pars:
                idx = anti.get(label, [])
                pushed = {}
                for i in idx:
                    t, f = members[i]
                    key = lambda kind: wl.relative_key(kind, shape, lo, hi, t, label)
                    pushed[t] = op(key("qsym"), lambda: qsym.qsym_canonical(f, par, w), digest)
                    op(key("qsym-dual"), lambda: qsym.qsym_dual_canonical(f, par, w), digest)
                if idx:
                    t, f = members[idx[-1]]

                    def agree(res, push=pushed[t]):
                        ok = push is not None and res[0].coefficients == push.coefficients
                        return None, None if ok else "intrinsic disagrees with the push-forward"

                    op(
                        wl.relative_key("intrinsic", shape, lo, hi, t, label),
                        lambda: qsym.qsym_canonical_intrinsic(f, par, w),
                        agree,
                    )


def _truncation_warnings(caught) -> int:
    from qfock.canonical import TruncationWarning

    return sum(1 for x in caught if issubclass(x.category, TruncationWarning))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("mode", choices=("setup", "pass", "query"))
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace")
    argv = sys.argv[1:] if argv is None else argv
    cli_args = argv[argv.index("--") + 1:] if "--" in argv else []
    args = parser.parse_args(argv[: len(argv) - len(cli_args) - bool(cli_args)])
    if args.mode == "query" and not args.trace:
        parser.error("query needs --trace")
    if args.mode != "query" and (args.workload is None or args.seed is None):
        parser.error(f"{args.mode} needs --workload and --seed")
    if args.mode == "pass" and args.workload == "ladder":
        parser.error("ladder queries run as separate CLI processes, see run.py")

    qfock = import_qfock()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    if args.mode == "query":
        tracer.install()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = qfock.cli.main(cli_args)
        write_trace(args.trace, tracer, _truncation_warnings(caught))
        return code

    inp = wl.inputs(args.workload, args.seed, wl.load_reference())
    prepared = prepare_sweep(inp["sets"]) if args.workload == "sweep" else inp["queries"]
    if tracer is not None:
        tracer.install()
    marker = time.monotonic()
    out = {"marker": marker, "qfock_file": qfock.__file__}
    if args.mode == "pass":
        ops: list = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_sweep(prepared, op_runner(ops, tracer))
        out["ops"] = ops
        out["truncation_warnings"] = _truncation_warnings(caught)
        if tracer is not None:
            write_trace(args.trace, tracer, out["truncation_warnings"])
    print(json.dumps(out))
    return 0


def write_trace(path: str, tracer, truncation_warnings: int) -> None:
    """Spans go to path; the per-layer summary to path + '.summary'."""
    with open(path, "w") as fh:
        json.dump(tracer.dump(), fh)
    with open(path + ".summary", "w") as fh:
        json.dump(tracer.summary(truncation_warnings), fh)


if __name__ == "__main__":
    sys.exit(main())
