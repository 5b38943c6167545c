"""The qfock benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload {sweep,ladder} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its src/
and nothing is installed.  Each workload is a fixed list of ops (see
workloads.py) that one caller runs as a closed loop, the next op sent when
the previous one returns.  Every pass over the list runs in a fresh child
process, so no cache carries over between passes and at most one child is
alive at a time.

--trace 0 repeats passes until --seconds have been used (at least three
passes), starts the set-up path three times after each pass, and prints
every end-to-end metric of BENCHMARK.json (see end_to_end for how they
are taken).  --trace 1 runs exactly one untraced and one traced pass of
the same inputs and prints every per-layer metric, so that counts repeat
exactly; spans are written under perfbench/out/.

Every op's result is checked against perfbench/reference.json, and the
sweep's cross-checks (solver against oracle, intrinsic against push-forward)
are ops themselves.  The last line of standard output is one JSON object
with keys correct, attempted, failed and metrics; the line before it holds
the provenance and sample counts.  The exit code is 0 only if every op
agreed, 1 if one did not, and 2 (with no result) if this checkout cannot
be measured, for example because it has no src/qfock.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads as wl

HERE = wl.HERE
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER = HERE / "worker.py"
HASH_SEED = "0"
MIN_PASSES = 3
SETUP_SAMPLES_PER_PASS = 3
CHILD_TIMEOUT_S = 150


class BenchmarkError(Exception):
    """The benchmark cannot measure this checkout."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def run_child(argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    """Run one child to completion; returns it with its wall time in seconds."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True,
        env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    return proc, time.perf_counter() - start


def worker_json(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    data = json.loads(proc.stdout.splitlines()[-1])
    where = Path(data["qfock_file"]).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchmarkError(f"qfock resolves to {where}, not to {SRC}")
    return data


def setup_sample(workload: str, seed: int) -> tuple[float, str]:
    """Seconds of interpreter start, import of qfock and input generation,
    and the file qfock was imported from."""
    start = time.monotonic()
    proc, _ = run_child([str(WORKER), "setup", "--workload", workload, "--seed", str(seed)])
    data = worker_json(proc)
    return data["marker"] - start, data["qfock_file"]


# ---------------------------------------------------------------------------
# passes: a list of [key, seconds, error or None] plus, when traced, summaries


def judge(key: str, digest, error, digests: dict):
    if error:
        return error
    if digest is None:  # a cross-check, judged by the worker
        return None
    want = digests.get(key)
    if want is None:
        return "no reference digest"
    return None if want == digest else "digest differs from the reference"


def worker_pass(workload: str, seed: int, digests: dict, trace: Path | None):
    argv = [str(WORKER), "pass", "--workload", workload, "--seed", str(seed)]
    if trace is not None:
        argv += ["--trace", str(trace)]
    data = worker_json(run_child(argv)[0])
    ops = [[key, took, judge(key, digest, error, digests)] for key, took, digest, error in data["ops"]]
    summaries = [load_summary(trace)] if trace is not None else []
    return ops, summaries


def ladder_pass(queries: list[list[str]], digests: dict, trace: Path | None):
    ops, summaries = [], []
    for i, argv in enumerate(queries):
        key = wl.ladder_key(argv)
        if trace is None:
            child = ["-m", "qfock.cli", *argv]
        else:
            qtrace = trace.with_name(f"{trace.stem}-q{i}.json")
            child = [str(WORKER), "query", "--trace", str(qtrace), "--", *argv]
        proc, took = run_child(child)
        if proc.returncode != 0:
            error = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        else:
            try:
                error = judge(key, wl.cli_digest(argv[0], json.loads(proc.stdout)), None, digests)
            except (ValueError, KeyError) as exc:
                error = f"unreadable output: {exc}"
            if trace is not None:
                summaries.append(load_summary(qtrace))
        ops.append([key, took, error])
    return ops, summaries


def load_summary(trace: Path) -> dict:
    with open(f"{trace}.summary") as fh:
        return json.load(fh)


def one_pass(workload: str, seed: int, inp: dict, digests: dict, trace: Path | None = None):
    if workload == "ladder":
        return ladder_pass(inp["queries"], digests, trace)
    return worker_pass(workload, seed, digests, trace)


# ---------------------------------------------------------------------------
# metrics


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def pass_wall(ops) -> float:
    """Time the program spent answering the ops of one pass."""
    return sum(took for _, took, _ in ops)


def end_to_end(passes: list, setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics of one run.

    Each op's latency is its median over the run's passes, which drops a
    pass that a pause of the machine hit; p50 and p99 are taken over ops.  The machine's speed also swings by 10-30% for seconds at a time,
    so wall_s (per pass) and ops_per_s are totals over the whole timed part:
    a median of a few pass times would jump between fast and slow spells.
    """
    per_key = defaultdict(list)
    for ops in passes:
        for key, took, _ in ops:
            per_key[key].append(took)
    latencies = [statistics.median(v) for v in per_key.values()]
    walls = [pass_wall(ops) for ops in passes]
    ok = sum(1 for ops in passes for *_, err in ops if err is None)
    values = {
        "wall_s": statistics.fmean(walls),
        "ops_per_s": ok / sum(walls),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p99_ms": percentile(latencies, 99) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }
    samples = {
        "pass_walls": walls,
        "ops": len(latencies),
        "ops_beyond_p99": sum(1 for x in latencies if x * 1e3 > values["op_p99_ms"]),
        "setup": len(setups),
    }
    return values, samples


def per_layer(summaries: list[dict], overhead_s: float, names: list[str]) -> tuple[dict, list]:
    calls, self_s = defaultdict(int), defaultdict(float)
    builds = distinct = warned = 0
    problems = []
    for s in summaries:
        for k, v in s["calls"].items():
            calls[k] += v
        for k, v in s["self_s"].items():
            self_s[k] += v
        builds += s["block_builds"]
        distinct += s["block_distinct"]
        warned += s["truncation_warnings"]
        problems += s["problems"]
    special = {
        "weightlat.block.builds": builds,
        "weightlat.block.builds_per_block": builds / distinct if distinct else 0.0,
        "canonical.truncation_warnings": warned,
        "trace.overhead_s": overhead_s,
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
        elif name.endswith(".calls"):
            values[name] = calls[name[: -len(".calls")]]
        elif name.endswith(".self_s"):
            values[name] = self_s[name[: -len(".self_s")]]
        else:
            raise BenchmarkError(f"no rule computes per-layer metric {name}")
    return values, problems


def zero_counts(workload: str, values: dict) -> list[str]:
    """Named counts that must be nonzero on this workload but are not."""
    with open(HERE / "layers.json") as fh:
        layers = json.load(fh)
    return [
        f"{name} is 0 on {workload}"
        for name, row in layers.items()
        if name in values and workload in row["moves"]
        and (name.endswith(".calls") or name.endswith(".builds") or name.endswith("_warnings"))
        and not values[name]
    ]


# ---------------------------------------------------------------------------


def provenance(qfock_file: str) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qfock").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "pythonhashseed": HASH_SEED,
        "qfock_file": qfock_file,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qfock" / "__init__.py").is_file():
        raise BenchmarkError(f"no qfock package under {SRC}")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    ref = wl.load_reference()
    inp = wl.inputs(args.workload, args.seed, ref)
    digests = ref["digests"]
    OUT.mkdir(exist_ok=True)

    setups = [setup_sample(args.workload, args.seed)]
    problems = []
    if args.trace:
        base, _ = one_pass(args.workload, args.seed, inp, digests)
        trace = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        traced, summaries = one_pass(args.workload, args.seed, inp, digests, trace)
        passes = [base, traced]
        names = [m["name"] for m in spec["per_layer"]]
        values, problems = per_layer(summaries, pass_wall(traced) - pass_wall(base), names)
        problems += zero_counts(args.workload, values)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        samples = {"passes": 2, "trace_file": str(trace.relative_to(ROOT))}
    else:
        # Set-up samples are spread over the run, so that a slow spell of
        # the machine does not land on all of them.
        passes = []
        start = time.monotonic()
        while len(passes) < MIN_PASSES or time.monotonic() - start < args.seconds:
            passes.append(one_pass(args.workload, args.seed, inp, digests)[0])
            setups += [setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES_PER_PASS)]
        values, samples = end_to_end(passes, [sec for sec, _ in setups])
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    attempted = sum(len(ops) for ops in passes)
    failures = [f"{key}: {err}" for ops in passes for key, _, err in ops if err]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "queries": [" ".join(q) for q in inp.get("queries", [])],
        "provenance": provenance(setups[0][1]),
        "samples": samples,
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "problems": problems,
    }
    print(json.dumps(detail))
    correct = not failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchmarkError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
