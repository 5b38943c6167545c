"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import qfock
from qfock.weightlat import Parabolic, Shape, SignedTuple, Window

PACKAGE = Path(qfock.__file__).parent
TESTS = Path(__file__).resolve().parent
TRACER = TESTS.parent / "perfbench" / "tracer.py"


def test_no_bare_assert_in_package():
    """Checks must survive python -O, so the package raises CheckFailed, never assert."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"bare assert statements: {found}"


def test_no_assertion_error_raised_in_package():
    """A failed internal check raises CheckFailed, which the CLI maps to exit 2."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"raise AssertionError: {found}"


def test_package_exception_classes():
    """Five exception classes: failed checks share CheckFailed, inputs get their own."""
    defined = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"qfock.{path.stem}".removesuffix(".__init__"))
        for name, obj in vars(module).items():
            if (
                inspect.isclass(obj)
                and issubclass(obj, BaseException)
                and obj.__module__ == module.__name__
            ):
                defined.add(name)
    assert defined == {
        "WindowEscape", "NotDivisible", "NotAntisymmetric", "TruncationWarning", "CheckFailed"
    }


def test_no_module_level_empty_dict():
    """Memos are lru_cache'd functions, not hand-written module dicts."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
            if isinstance(value, ast.Dict) and not value.keys:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"module-level empty dicts: {found}"


def test_every_module_import_is_used():
    """A package module (not __init__) or test module uses each name it imports at module level."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        found.append(f"{path.parent.name}/{path.name}:{node.lineno} {name}")
    assert not found, f"unused imports: {found}"


def _referenced_names(node: ast.AST) -> set:
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.FunctionDef):
        return {node.name}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {alias.name for alias in node.names}
    return set()


def test_weights_enter_only_through_the_cli():
    """The package is keyed by tuples; only cli turns a weight into one.

    weight_to_tuple is named by weightlat (its definition) and by cli,
    which parses `char --weight`; every other module takes tuples.
    """
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if "weight_to_tuple" in _referenced_names(node):
                found.add(path.name)
    assert found == {"weightlat.py", "cli.py"}, sorted(found)


def test_one_hecke_generator_rule():
    """fock.act_gen is the only implementation of the Hecke generator rule.

    QINV_MINUS_Q, the (q^-1 - q) M_f term at a descent, is named by laurent
    (its definition), fock (act_gen) and verify (the quadratic relation
    row); a second copy of the rule would have to name it too.
    """
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if "QINV_MINUS_Q" in _referenced_names(node):
                found.add(path.name)
    assert found == {"laurent.py", "fock.py", "verify.py"}, sorted(found)


def test_solvers_do_not_read_the_bruhat_order():
    """The solvers walk block order; no down-set is built.

    bruhat_leq is named only by weightlat (its definition), barinv.bar_oracle
    (the independent oracle), canonical.reaches_floor (the truncation flag)
    and verify, besides the module-level imports that bring it in.
    """
    allowed = {"barinv.py": "bar_oracle", "canonical.py": "reaches_floor"}
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            names = set().union(*map(_referenced_names, ast.walk(top)))
            if "down_set" in names:
                found.add(f"{path.name} down_set")
            if "bruhat_leq" not in names or path.name in ("weightlat.py", "verify.py"):
                continue
            where = getattr(top, "name", None)
            if not isinstance(top, ast.ImportFrom) and where != allowed.get(path.name):
                found.add(f"{path.name}:{top.lineno} bruhat_leq")
    assert not found, sorted(found)


def test_bar_oracle_is_independent_of_the_solvers():
    """The oracle checks the triangular solvers, so it shares none of their code.

    No top-level barinv definition that bar_oracle reaches by name, at any
    depth, names a solver or half-ring projection, and barinv imports
    nothing from canonical or qsym, at any depth.
    """
    solvers = {
        "triangular_solve", "inverse_column", "pos_part", "neg_part",
        "image_solve", "canonical", "dual_canonical",
    }
    path = PACKAGE / "barinv.py"
    tree = ast.parse(path.read_text(), str(path))
    defs = {
        top.name: set().union(*map(_referenced_names, ast.walk(top)))
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
    }
    found, checked, todo = [], set(), ["bar_oracle"]
    while todo:
        name = todo.pop()
        if name not in checked:
            checked.add(name)
            found += [f"{name} names {n}" for n in sorted(defs[name] & solvers)]
            todo += sorted(defs[name] & defs.keys())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules = {(node.module or "").rpartition(".")[2]}
            if node.module in (None, "qfock"):
                modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            modules = {alias.name.rpartition(".")[2] for alias in node.names}
        else:
            continue
        found += [f"line {node.lineno} imports {m}" for m in sorted(modules & {"canonical", "qsym"})]
    assert {"bar_oracle", "_solve_exact", "bar_context", "BarContext"} <= checked, checked
    assert not found, found


def test_intrinsic_route_reads_no_image_memo():
    """The intrinsic solve stays a second computation of the image column.

    No top-level qsym definition that qsym_canonical_intrinsic, _image_bar
    or reexpress reaches by name, at any depth, names the cached image
    solve or the projected bar columns it reads.
    """
    forbidden = {"image_solve", "image_column"}
    path = PACKAGE / "qsym.py"
    tree = ast.parse(path.read_text(), str(path))
    defs = {
        top.name: set().union(*map(_referenced_names, ast.walk(top)))
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
    }
    found, checked, todo = [], set(), ["qsym_canonical_intrinsic", "_image_bar", "reexpress"]
    while todo:
        name = todo.pop()
        if name not in checked:
            checked.add(name)
            found += [f"{name} names {n}" for n in sorted(defs[name] & forbidden)]
            todo += sorted(defs[name] & defs.keys())
    assert {"qsym_canonical_intrinsic", "_image_bar", "reexpress", "_mtilde"} <= checked, checked
    assert not found, found


def test_dual_recursion_reads_no_bar_column():
    """The recursion, the tensor solve and the oracle stay three routes.

    The recursion step of canonical (_dual and the checks it runs) names
    none of the bar map, the solvers or the oracle: only the descent-free
    base, through tensor_dual_canonical, reads bar columns.
    """
    forbidden = {"bar_context", "triangular_solve", "image_solve", "bar_oracle"}
    step = {"_dual", "sector_descent", "_falls", "_in_kernel", "_checked"}
    path = PACKAGE / "canonical.py"
    tree = ast.parse(path.read_text(), str(path))
    found, checked = [], set()
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name in step:
            checked.add(top.name)
            names = set().union(*map(_referenced_names, ast.walk(top)))
            found += [f"{top.name} names {name}" for name in sorted(names & forbidden)]
            if top.name == "_dual":
                assert {"act_gen", "tensor_dual_canonical"} <= names
    assert checked == step, checked
    assert not found, found


def test_one_solve_layer():
    """Every solve of a bar-fixed column runs through canonical.image_solve.

    The tensor solve is image_solve at the trivial parabolic, so the only
    package definitions that name triangular_solve are image_solve and
    the intrinsic route, qsym_canonical_intrinsic, which stays a second
    computation.  A second solver would have to name it too.
    """
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            where = getattr(top, "name", top.lineno)
            if isinstance(top, (ast.Import, ast.ImportFrom)) or where == "triangular_solve":
                continue
            if "triangular_solve" in set().union(*map(_referenced_names, ast.walk(top))):
                found.add(f"{path.stem}.{where}")
    assert found == {"canonical.image_solve", "qsym.qsym_canonical_intrinsic"}, sorted(found)


def test_every_top_level_definition_is_reached():
    """src/ holds only what a command, a verify suite or the benchmark runs.

    Every top-level function and class of the package is named by some
    package module other than at its own definition, is `main` or a
    `cmd_*` entry point, or is named by perfbench/tracer.py, which is read
    as source and never imported.
    """

    def names(node: ast.AST) -> set:
        out = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                out.update(alias.name for alias in sub.names)
        return out

    reached = names(ast.parse(TRACER.read_text(), str(TRACER))) | {"main"}
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            found = names(top)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, top.name))
                found.discard(top.name)
            reached |= found
    unreached = [
        f"{module}.{name}"
        for module, name in defined
        if name not in reached and not name.startswith("cmd_")
    ]
    assert not unreached, unreached


def test_every_method_is_named():
    """Every non-dunder method of a package class is named outside its own definition.

    A name counts as an attribute, a bare name or an exact string, in any
    package module or in perfbench/*.py (read as source, never imported);
    mentions inside the method itself do not count.  The guard matches by
    name only: a method that shares its name with another method, such as
    `to_json`, passes as soon as either is named.
    """

    def mentions(node: ast.AST) -> Counter:
        out = Counter()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out[sub.id] += 1
            elif isinstance(sub, ast.Attribute):
                out[sub.attr] += 1
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                out[sub.value] += 1
        return out

    named, methods = Counter(), []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TRACER.parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        named += mentions(tree)
        if path.parent != PACKAGE:
            continue
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                methods += [
                    (cls.name, fn)
                    for fn in cls.body
                    if isinstance(fn, ast.FunctionDef)
                    and not (fn.name.startswith("__") and fn.name.endswith("__"))
                ]
    unnamed = [
        f"{cls}.{fn.name}"
        for cls, fn in methods
        if named[fn.name] <= mentions(fn)[fn.name]
    ]
    assert not unnamed, unnamed


def test_value_types_hash_and_compare_in_c():
    """Every basis key hashes and compares as a plain tuple, never in Python."""
    for cls in (Shape, Window, SignedTuple, Parabolic):
        assert cls.__hash__ is tuple.__hash__, cls.__name__
        assert cls.__eq__ is tuple.__eq__, cls.__name__


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_trace_points_exist():
    """Every function and method the benchmark tracer wraps is still there.

    A renamed trace point would otherwise fail only when the benchmark runs.
    """
    tracer = _load_tracer()
    by_metric: dict = {}
    for modname, attr, name, _ in tracer.FUNCTIONS:
        fn = getattr(importlib.import_module(modname), attr, None)
        assert callable(fn), f"{modname}.{attr} is not a callable"
        by_metric.setdefault(name, []).append(fn)
    for name in tracer.CACHED:
        assert by_metric.get(name), f"cached metric {name} names no traced function"
        for fn in by_metric[name]:
            assert hasattr(fn, "cache_info"), f"{name} has no cache_info"
    for modname, cls, meth, _, _ in tracer.METHODS:
        klass = getattr(importlib.import_module(modname), cls)
        assert callable(vars(klass).get(meth)), f"{cls}.{meth} is not defined on {cls}"


@pytest.mark.parametrize("workload", ["sweep", "ladder"])
def test_benchmark_traced_run_passes(workload):
    """The benchmark's traced run exits 0, with every op agreeing and no problem.

    It runs the workload once untraced and once traced: every op is checked
    against the reference digests, the sweep's cross-checks run, and every
    per-layer count the workload moves must be nonzero.  A trace point that
    exists but is never called passes test_benchmark_trace_points_exist and
    fails here.  Writes only under perfbench/out/.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload]
    cmd += ["--seed", "1", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(
        cmd, cwd=TRACER.parent.parent, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, (proc.stdout[-2000:], proc.stderr[-2000:])
    detail, result = map(json.loads, proc.stdout.splitlines()[-2:])
    assert result["failed"] == 0 and detail["problems"] == [], detail


def _resolves(module: str, name: str) -> bool:
    """module.name exists, as an attribute or as a submodule of a package."""
    if hasattr(importlib.import_module(module), name):
        return True
    return module == "qfock" and importlib.util.find_spec(f"qfock.{name}") is not None


def test_benchmark_imports_resolve():
    """Every qfock name perfbench/*.py imports or reads off a qfock module exists.

    The benchmark files are read as source, never imported.  A name in
    `from qfock.m import x` must be an attribute of qfock.m, and a module
    bound by `import qfock...` or `from qfock import m` must have every
    attribute read off it, at any depth of the file.  A deleted or renamed
    name would otherwise fail only when the benchmark runs.
    """
    missing, checked = [], set()
    for path in sorted(TRACER.parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "qfock":
                for alias in node.names:
                    checked.add(f"{path.name} {node.module}.{alias.name}")
                    if not _resolves(node.module, alias.name):
                        missing.append(f"{path.name}:{node.lineno} {node.module}.{alias.name}")
                    elif node.module == "qfock":
                        bound[alias.asname or alias.name] = f"qfock.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.partition(".")[0] == "qfock":
                        bound[alias.asname or "qfock"] = alias.name if alias.asname else "qfock"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in bound:
                module = bound[node.value.id]
                checked.add(f"{path.name} {module}.{node.attr}")
                if not _resolves(module, node.attr):
                    missing.append(f"{path.name}:{node.lineno} {module}.{node.attr}")
    assert not missing, missing
    assert {
        "record.py qfock.weightlat.weight_key",
        "record.py qfock.weightlat.bruhat_leq",
        "worker.py qfock.qsym.qsym_canonical_intrinsic",
        "worker.py qfock.barinv.bar_oracle",
    } <= checked, sorted(checked)


def test_cli_import_loads_the_traced_modules_and_nothing_unused():
    """`import qfock.cli` loads what bkl, qsym and char run, and no more.

    The tracer wraps only modules loaded when it installs, so every module it
    names must come with the CLI; dataclasses, fractions and inspect cost
    start-up time on every query, and verify is for `verify` and `quiver`.
    """
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import qfock.cli; "
        "print(*sorted(sys.modules), sep=chr(10))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    ).stdout
    loaded = set(out.split())
    unwanted = {"dataclasses", "fractions", "inspect", "qfock.verify"} & loaded
    assert not unwanted, sorted(unwanted)
    tracer = _load_tracer()
    traced = {row[0] for row in tracer.FUNCTIONS + tracer.METHODS}
    assert traced <= loaded, sorted(traced - loaded)


def test_every_default_is_passed_by_some_call():
    """A default-valued parameter is a knob only if a command or the benchmark sets it.

    Every defaulted parameter of a package function or method, and every
    defaulted field of a `namedtuple(..., defaults=...)` base, is passed,
    positionally or by keyword, by a call in the package or perfbench/*.py;
    otherwise it is a constant.  Some such call also leaves it out;
    otherwise the default is dead and the parameter is required.  Calls in
    tests do not count: a value only a test sets, or a default only a test
    relies on, is not one the program runs.  Calls are matched by name,
    `__init__`, `__new__` and namedtuple fields by their class's name or
    that of any package subclass; a `*args` or `**kwargs` argument counts
    as passing everything it could reach.
    """

    def defaults(fn: ast.FunctionDef, method: bool) -> list:
        args = fn.args
        positional = args.posonlyargs + args.args
        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        skip = int(method and not static)
        first = len(positional) - len(args.defaults)
        out = [(p.arg, i - skip) for i, p in enumerate(positional) if i >= first]
        out += [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        return out

    def field_defaults(base: ast.expr) -> list:
        """The defaulted fields of a namedtuple(name, fields, defaults=...) call."""
        if not (isinstance(base, ast.Call) and getattr(base.func, "id", None) == "namedtuple"):
            return []
        given = [k.value for k in base.keywords if k.arg == "defaults"]
        if not given:
            return []
        fields = base.args[1].value.replace(",", " ").split()
        first = len(fields) - len(given[0].elts)
        return [(name, i) for i, name in enumerate(fields) if i >= first]

    def parse(paths) -> dict:
        return {path: ast.parse(path.read_text(), str(path)) for path in sorted(paths)}

    trees = parse(PACKAGE.glob("*.py"))
    classes = [c for tree in trees.values() for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]

    def family(name: str) -> set:
        """name and the names of its package subclasses, at any depth."""
        out, grew = {name}, True
        while grew:
            grew = False
            for cls in classes:
                if cls.name not in out and any(getattr(b, "id", None) in out for b in cls.bases):
                    out.add(cls.name)
                    grew = True
        return out

    knobs = []
    for path, tree in trees.items():
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                knobs += [(f"{path.stem}.{top.name}", {top.name}, p) for p in defaults(top, False)]
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for base in cls.bases:
                knobs += [(f"{path.stem}.{cls.name}", family(cls.name), p) for p in field_defaults(base)]
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef):
                    called = family(cls.name) if fn.name in ("__init__", "__new__") else {fn.name}
                    where = f"{path.stem}.{cls.name}.{fn.name}"
                    knobs += [(where, called, p) for p in defaults(fn, True)]

    calls: dict = {}
    for tree in [*trees.values(), *parse(TRACER.parent.glob("*.py")).values()]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)

    def passes(call: ast.Call, param: str, index) -> bool:
        if index is not None and (
            index < len(call.args) or any(isinstance(a, ast.Starred) for a in call.args)
        ):
            return True
        return any(k.arg in (param, None) for k in call.keywords)

    unset, always = [], []
    for where, called, (param, index) in knobs:
        passed = [passes(call, param, index) for name in called for call in calls.get(name, [])]
        if not any(passed):
            unset.append(f"{where}({param})")
        elif all(passed):
            always.append(f"{where}({param})")
    assert not unset and not always, f"never passed: {unset}; always passed: {always}"
