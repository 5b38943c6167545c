"""Spans and counters around calls into qfock's public functions.

Wrappers are installed from outside the package: every module-level alias
of a wrapped function in any loaded `qfock` module is rebound (canonical,
qsym, barinv and reports all import `block` by name, so patching
`qfock.weightlat.block` alone would miss almost every call), and methods
are patched on their class.  After installing, no qfock module may still
hold an unwrapped original, and on the lru-cached functions the wrapper's
call count must equal the cache's hits plus misses; either failure is
reported, never ignored.

A span records name, start, end, parent span and the op it belongs to.
Functions called more than about 1e5 times per run are aggregated per
parent span instead of stored one span per call; the Laurent operators and
`bruhat_leq` are only counted, because wrapper overhead swamps their time.
Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, metric prefix, kind); kind is "span", "aggregate" or "count"
FUNCTIONS = (
    ("qfock.weightlat", "block", "weightlat.block", "span"),
    ("qfock.weightlat", "bruhat_leq", "weightlat.bruhat_leq", "count"),
    ("qfock.barinv", "bar_oracle", "barinv.bar_oracle", "span"),
    ("qfock.fock", "apply_chevalley", "fock.apply_chevalley", "aggregate"),
    ("qfock.fock", "act", "fock.act", "span"),
    ("qfock.hecke", "symmetrizer", "hecke.symmetrizer", "span"),
    ("qfock.canonical", "canonical", "canonical.solve", "span"),
    ("qfock.canonical", "dual_canonical", "canonical.solve", "span"),
    ("qfock.qsym", "reexpress", "qsym.reexpress", "span"),
    ("qfock.qsym", "qsym_canonical", "qsym.push", "span"),
    ("qfock.qsym", "qsym_dual_canonical", "qsym.push", "span"),
    ("qfock.qsym", "qsym_canonical_intrinsic", "qsym.intrinsic", "span"),
    ("qfock.reports", "character_table", "reports.table", "span"),
    ("qfock.reports", "whittaker_decomposition", "reports.table", "span"),
    ("qfock.cli", "main", "cli.main", "span"),
)
# (module, class, method, metric prefix, kind)
METHODS = (
    ("qfock.barinv", "BarContext", "transfer", "barinv.transfer", "aggregate"),
    ("qfock.barinv", "BarContext", "bar_monomial", "barinv.bar_monomial", "span"),
    ("qfock.laurent", "LaurentPoly", "__mul__", "laurent.mul", "count"),
    ("qfock.laurent", "LaurentPoly", "__rmul__", "laurent.mul", "count"),
    ("qfock.laurent", "LaurentPoly", "__add__", "laurent.add", "count"),
    ("qfock.laurent", "LaurentPoly", "__radd__", "laurent.add", "count"),
)
CACHED = ("weightlat.block", "weightlat.bruhat_leq")


def _block_key(f, w) -> tuple:
    """(shape, weight, window) of a block call, computed without qfock."""
    m = f.shape.m
    wt = Counter()
    for i, e in enumerate(f.entries):
        wt[e] += 1 if i < m else -1
    return (f.shape, tuple(sorted((e, a) for e, a in wt.items() if a)), w)


class Tracer:
    """In-memory spans, per-parent aggregates and call counters."""

    def __init__(self):
        self.op = -1
        self.spans: list[tuple] = []
        self.aggregates: dict[tuple[int, str], list] = {}
        self.counts: Counter = Counter()
        self.block_keys: set = set()
        self.problems: list[str] = []
        self._stack = [[0, 0.0]]  # [id children attach to, time covered by children]
        self._ids = itertools.count(1)
        self._cache_start: dict[str, tuple[int, int]] = {}
        self._cached: dict[str, object] = {}

    def wrap(self, name: str, fn, kind: str):
        if kind == "count":
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted
        stack, clock, ids = self._stack, time.perf_counter, self._ids
        spans, aggregates = self.spans, self.aggregates
        aggregate = kind == "aggregate"

        def spanned(*args, **kwargs):
            parent = stack[-1]
            sid = parent[0] if aggregate else next(ids)
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[1] += dur
                if aggregate:
                    agg = aggregates.get((sid, name))
                    if agg is None:
                        aggregates[(sid, name)] = [1, dur - frame[1]]
                    else:
                        agg[0] += 1
                        agg[1] += dur - frame[1]
                else:
                    spans.append((sid, name, parent[0], self.op, start, end, dur - frame[1]))

        return spanned

    def install(self) -> None:
        """Wrap every listed function and method in the loaded package."""
        modules = [
            mod for key, mod in sys.modules.items()
            if key == "qfock" or key.startswith("qfock.")
        ]
        originals = {}
        for modname, attr, name, kind in FUNCTIONS:
            fn = getattr(importlib.import_module(modname), attr)
            if name in CACHED:
                info = fn.cache_info()
                self._cache_start[name] = (info.hits, info.misses)
                self._cached[name] = fn
            target = fn
            if name == "weightlat.block":
                keys = self.block_keys

                def target(f, w, _block=fn):
                    keys.add(_block_key(f, w))
                    return _block(f, w)

            originals[id(fn)] = (fn, self.wrap(name, target, kind))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        for modname, cls, meth, name, kind in METHODS:
            klass = getattr(importlib.import_module(modname), cls)
            setattr(klass, meth, self.wrap(name, vars(klass)[meth], kind))
        for mod in modules:
            for attr, value in vars(mod).items():
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self.problems.append(f"{mod.__name__}.{attr} is still unwrapped")

    def calls_and_self(self) -> tuple[Counter, dict]:
        calls = Counter(self.counts)
        self_s: dict[str, float] = defaultdict(float)
        for span in self.spans:
            calls[span[1]] += 1
            self_s[span[1]] += span[6]
        for (_, name), (n, own) in self.aggregates.items():
            calls[name] += n
            self_s[name] += own
        return calls, self_s

    def summary(self, truncation_warnings: int) -> dict:
        """Raw per-layer numbers of this process (summed across ladder queries)."""
        calls, self_s = self.calls_and_self()
        for name, fn in self._cached.items():
            info = fn.cache_info()
            hits0, misses0 = self._cache_start[name]
            seen = info.hits - hits0 + info.misses - misses0
            if seen != calls[name]:
                self.problems.append(
                    f"{name}: {calls[name]} wrapped calls but {seen} cache lookups"
                )
        info = self._cached["weightlat.block"].cache_info()
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "block_builds": info.misses - self._cache_start["weightlat.block"][1],
            "block_distinct": len(self.block_keys),
            "truncation_warnings": truncation_warnings,
            "problems": self.problems,
        }

    def dump(self) -> dict:
        """Spans and aggregates in a JSON-ready form."""
        return {
            "span_fields": ["id", "name", "parent", "op", "start", "end", "self_s"],
            "spans": self.spans,
            "aggregate_fields": ["parent", "name", "calls", "self_s"],
            "aggregates": [[pid, name, n, own] for (pid, name), (n, own) in self.aggregates.items()],
            "counts": dict(self.counts),
        }
