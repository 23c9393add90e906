"""The package is one pure-Python implementation with no build step: no
build script, no second (compiled) copy of the kernels, and no switch
that selects between copies.  It keeps no module-global mutable state:
no `global` statement rebinds a module name, nothing imports
`threading` to guard such state, and no `functools.cache` or
`functools.lru_cache` memo keeps results from one call (or run) to the
next.  Nothing imports `dataclasses` or `typing`, which would load
`inspect` and its kin into every process at start-up.  The package's
`__init__.py` re-exports nothing: each public name has one home, its
module.  Only `cli` imports `json`: it writes every document."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import partitionlab

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "partitionlab"

# names of the retired compiled backend and its switches, split so that
# a search of the tree for them finds nothing
RETIRED_NAMES = ("_speed" "ups", "PARTITIONLAB" "_PURE", "MAX_SWEEP" "_N")


def package_files():
    return [
        path
        for path in PACKAGE.rglob("*")
        if path.is_file() and "__pycache__" not in path.relative_to(PACKAGE).parts
    ]


def test_no_build_script():
    assert not (REPO / "setup.py").exists()


def test_package_is_python_only():
    files = package_files()
    assert files
    assert [p.name for p in files if p.suffix != ".py"] == []


def test_no_retired_backend_names():
    for path in package_files():
        text = path.read_text(encoding="utf-8", errors="replace")
        for name in RETIRED_NAMES:
            assert name not in text, (path.name, name)


def package_trees():
    for path in package_files():
        if path.suffix == ".py":
            source = path.read_text(encoding="utf-8")
            yield path, ast.parse(source, filename=str(path))


def imported_modules(node):
    """The top-level names of the modules an import node imports."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom):
        return {(node.module or "").split(".")[0]}
    return set()


def test_package_init_imports_and_defines_nothing():
    (tree,) = [tree for path, tree in package_trees() if path.name == "__init__.py"]
    for node in ast.walk(tree):
        where = getattr(node, "lineno", None)
        assert not isinstance(node, (ast.Import, ast.ImportFrom)), where
        assert not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ), where
    assert partitionlab.__all__ == ["BACKEND", "__version__"]


def fresh_stdout(code):
    """What code prints when a fresh interpreter runs it."""
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def test_importing_the_package_loads_no_submodule():
    loaded = fresh_stdout(
        "import sys, partitionlab; "
        "print(sorted(m for m in sys.modules if m.startswith('partitionlab')))"
    )
    assert loaded == "['partitionlab']\n"


def test_only_cli_imports_json():
    # cli writes every document; verify builds and judges reports, so a
    # run that only checks identities never loads the json module
    loaded = fresh_stdout("import sys, partitionlab.verify; print('json' in sys.modules)")
    assert loaded == "False\n"
    importers = [
        path.name
        for path, tree in package_trees()
        if any("json" in imported_modules(node) for node in ast.walk(tree))
    ]
    assert importers == ["cli.py"]


def test_no_global_statement_or_threading_import():
    for path, tree in package_trees():
        for node in ast.walk(tree):
            where = (path.name, getattr(node, "lineno", None))
            assert not isinstance(node, ast.Global), where
            assert "threading" not in imported_modules(node), where


def test_no_dataclasses_or_typing_import():
    for path, tree in package_trees():
        for node in ast.walk(tree):
            where = (path.name, getattr(node, "lineno", None))
            assert not {"dataclasses", "typing"} & imported_modules(node), where


MEMOS = ("cache", "lru_cache")


def test_no_functools_memo():
    # as a decorator or called, a memo is reached through the functools
    # module (under any alias) or imported from it by name
    for path, tree in package_trees():
        aliases = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "functools"
        }
        for node in ast.walk(tree):
            where = (path.name, getattr(node, "lineno", None))
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                assert not {alias.name for alias in node.names} & set(MEMOS), where
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                assert node.attr not in MEMOS, where


# the series builders that stats builds M_ell and MP_ell (and so the
# remainders of the truncated identities) from
REMAINDER_SIDE_BUILDERS = ("pentagonal_series", "theta_truncated", "gaussian_binomial")


def test_verify_builds_its_sums_apart_from_the_remainder_side():
    (tree,) = [tree for path, tree in package_trees() if path.name == "verify.py"]
    for node in ast.walk(tree):
        where = getattr(node, "lineno", None)
        if isinstance(node, ast.ImportFrom) and "series" in (node.module or ""):
            names = {alias.name for alias in node.names}
            assert not names & set(REMAINDER_SIDE_BUILDERS), where
        if isinstance(node, ast.Attribute):
            assert node.attr not in REMAINDER_SIDE_BUILDERS, where


# the public functions of these modules are the series route, the
# command line and the verification entry points; one that nothing in the
# package calls is test-only code (an oracle, a reader of the CLI's
# output, or a second way to run a suite) and belongs in tests/oracles.py
ROUTE_MODULES = ("series.py", "kernels.py", "cli.py", "verify.py")
# (module, function) -> why it stays in the package with no caller there
NO_CALLER_KEPT = {
    ("kernels.py", "ab_stat_sums"): "perfbench/tracer.py wraps it by name",
}


def referenced_names(node, skip):
    """The names that node reads, as a Name or an attribute, outside skip."""
    if node is skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from referenced_names(child, skip)


def test_every_route_function_has_a_caller_in_the_package():
    trees = {path.name: tree for path, tree in package_trees()}
    uncalled = []
    for module in ROUTE_MODULES:
        for node in trees[module].body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                if not any(
                    node.name in set(referenced_names(tree, node))
                    for tree in trees.values()
                ):
                    uncalled.append((module, node.name))
    assert sorted(uncalled) == sorted(NO_CALLER_KEPT)


def private_definitions(tree):
    """The module-level functions and classes of tree whose name starts
    with "_", and the methods of its classes whose name does but is no
    dunder."""
    for node in tree.body:
        inner = node.body if isinstance(node, ast.ClassDef) else []
        for found in (node, *inner):
            if (
                isinstance(found, (ast.FunctionDef, ast.ClassDef))
                and found.name.startswith("_")
                and not (found.name.startswith("__") and found.name.endswith("__"))
            ):
                yield found


def test_every_private_name_has_a_caller_in_the_package():
    # a private function, class or method is a helper; one that no package
    # code reads is one a refactor left behind
    trees = {path.name: tree for path, tree in package_trees()}
    uncalled = [
        (module, node.name)
        for module, tree in trees.items()
        for node in private_definitions(tree)
        if not any(node.name in set(referenced_names(t, node)) for t in trees.values())
    ]
    assert uncalled == []


def call_sets(call, params, name):
    """Whether call sets the parameter name of a function whose positional
    parameters are params; a call through *args or **kwargs may set any."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    return name in params and params.index(name) < len(call.args)


def call_leaves_out(call, params, name):
    """Whether call may leave the parameter name at its default."""
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    splat = any(kw.arg is None for kw in call.keywords)
    return starred or splat or not call_sets(call, params, name)


def package_calls(trees):
    """The module-level functions of the package, keyed (module, name),
    and the calls that package code makes of each: by a bare name defined
    in or imported into the calling module, or as an attribute of a
    partitionlab module, such as verify.run_all.  A method call such as
    family.main(...) calls no module function."""
    functions = {
        (module, node.name): node
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    calls = {}
    for module, tree in trees.items():
        names = {name: (module, name) for m, name in functions if m == module}
        modules = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module is None:
                        modules[bound] = alias.name
                    else:
                        names[bound] = (node.module, alias.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                key = names.get(func.id)
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                key = (modules.get(func.value.id), func.attr)
            else:
                key = None
            if key in functions:
                calls.setdefault(key, []).append(node)
    return functions, calls


def defaulted(args):
    """The (parameter, default) pairs of a function's ast.arguments."""
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults) :], args.defaults))
    return pairs + [
        (a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]


def defaulted_parameters():
    """Every defaulted parameter of a module-level function of the
    package, as module.function(parameter=default), in file order."""
    return [
        "%s.%s(%s=%s)" % (path.stem, node.name, arg.arg, ast.unparse(default))
        for path, tree in sorted(package_trees())
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        for arg, default in defaulted(node.args)
    ]


# (function, parameter) -> why its default stays although no package call
# both sets it and leaves it out
DEFAULT_KEPT = {
    ("main", "argv"): "the console script calls main(), and tests pass argv",
}


def test_every_default_has_both_values_in_use():
    # a default that no package call sets is the only value in use, and one
    # that every package call overrides is a value only tests use;
    # functions that no package code calls are the public API
    trees = {path.stem: tree for path, tree in package_trees()}
    functions, calls = package_calls(trees)
    one_sided = []
    for key, found in calls.items():
        args = functions[key].args
        params = [a.arg for a in args.posonlyargs + args.args]
        for param in (arg.arg for arg, _ in defaulted(args)):
            if not (
                any(call_sets(call, params, param) for call in found)
                and any(call_leaves_out(call, params, param) for call in found)
            ):
                one_sided.append((key[1], param))
    assert sorted(one_sided) == sorted(DEFAULT_KEPT)
