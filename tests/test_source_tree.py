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
