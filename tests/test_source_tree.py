"""The package is one pure-Python implementation with no build step: no
build script, no second (compiled) copy of the kernels, and no switch
that selects between copies.  It keeps no module-global mutable state:
no `global` statement rebinds a module name, nothing imports
`threading` to guard such state, and no `functools.cache` or
`functools.lru_cache` memo keeps results from one call (or run) to the
next.  Nothing imports `dataclasses` or `typing`, which would load
`inspect` and its kin into every process at start-up."""

import ast
from pathlib import Path

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


# the public functions of these modules are the series route and the
# command line; one that nothing in the package calls is test-only code
# (an oracle, or a reader of the CLI's output) and belongs in
# tests/oracles.py
ROUTE_MODULES = ("series.py", "kernels.py", "cli.py")
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
    # the re-exports of __init__.py are not callers
    trees = {
        path.name: tree for path, tree in package_trees() if path.name != "__init__.py"
    }
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
