"""Backend parity: the compiled kernels must match the pure-Python ones
bit for bit, and both must match definitional oracles.  The partition
sweep `ab_stat_sums` is also the oracle of `enumeration.stat_sum_tables`,
the dynamic program behind the a/b statistics.

The compiled backend is built for these tests, once per session, by
running this checkout's ``setup.py build_ext`` into a temporary
directory; that compiles the shipped ``_speedups.c``, which
``test_shipped_c_matches_pyx`` checks against ``_speedups.pyx``.
The built module is loaded from its file and kept out of
``sys.modules``, so nothing is written under ``src/`` and the backend
that ``partitionlab`` selects in this process is left as it was.  The
compiled cases are skipped only where there is no C compiler or no
``Python.h``; a build that fails where both exist fails the tests.
"""

import importlib.util
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from partitionlab import _kernels_py
from partitionlab.enumeration import stat_sum_tables
from partitionlab.series import euler_product, partition_gf

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "partitionlab"
EXTENSION = "partitionlab._speedups"
CYTHON_MARK = "# <<<<<<<<<<<<<<"

_CC = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
C_COMPILER = shutil.which(shlex.split(_CC)[0])
PYTHON_H = Path(sysconfig.get_paths()["include"]) / "Python.h"
needs_toolchain = pytest.mark.skipif(
    C_COMPILER is None or not PYTHON_H.is_file(),
    reason=f"needs a C compiler ({_CC}) and {PYTHON_H}",
)


@pytest.fixture(scope="session")
def built_extension(tmp_path_factory):
    """Path where ``setup.py build_ext`` puts the extension it builds."""
    out = tmp_path_factory.mktemp("build_ext")
    env = {k: v for k, v in os.environ.items() if k != "PARTITIONLAB_NO_EXTENSION"}
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "temp")],
        cwd=REPO, env=env, capture_output=True, text=True,
    )
    log = proc.stdout + proc.stderr
    assert proc.returncode == 0, log
    # setup.py declares the extension optional, so a compile error there is
    # only a warning: return the log with the path the module should be at
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    return out / "lib" / "partitionlab" / f"_speedups{suffix}", log


@pytest.fixture(scope="session")
def speedups(built_extension):
    """The built extension module, loaded from its file."""
    spec = importlib.util.spec_from_file_location(EXTENSION, built_extension[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Cython's module init adds itself to sys.modules; undo that, so later
    # imports of partitionlab in this process still find no extension
    if sys.modules.get(EXTENSION) is module:
        del sys.modules[EXTENSION]
    return module


@pytest.fixture(params=["pure", pytest.param("compiled", marks=needs_toolchain)])
def backend(request):
    if request.param == "pure":
        return _kernels_py
    return request.getfixturevalue("speedups")


@needs_toolchain
def test_compiled_backend_is_built(built_extension, request):
    # the extension is part of the default build; fail loudly if missing
    path, log = built_extension
    assert path.is_file(), log
    module = request.getfixturevalue("speedups")
    for name in ("convolve", "invert_unit", "ab_stat_sums", "MAX_SWEEP_N"):
        assert hasattr(module, name), name


def test_shipped_c_matches_pyx():
    # Cython quotes the .pyx around each line it compiles, under a
    # "partitionlab/_speedups.pyx":N header, and marks line N with <<<;
    # a C generated from another version of the .pyx quotes other lines.
    # The context lines around the mark are compared too: they cover the
    # declaration-only lines, which Cython never marks.
    pyx = (PACKAGE / "_speedups.pyx").read_text().splitlines()
    c_source = (PACKAGE / "_speedups.c").read_text()
    blocks = re.findall(
        r'/\* "partitionlab/_speedups\.pyx":(\d+)\n(.*?)\n\*/', c_source, re.S
    )
    assert blocks
    for lineno, comment in blocks:
        quoted = [line[3:].rstrip() for line in comment.splitlines()]
        marked = [i for i, line in enumerate(quoted) if line.endswith(CYTHON_MARK)]
        assert len(marked) == 1, f"_speedups.pyx:{lineno}"
        quoted[marked[0]] = quoted[marked[0]].removesuffix(CYTHON_MARK).rstrip()
        first = int(lineno) - 1 - marked[0]
        assert first >= 0, f"_speedups.pyx:{lineno}"
        for i, line in enumerate(quoted, start=first):
            assert line == pyx[i].rstrip(), f"_speedups.pyx:{i + 1}"


def naive_convolve(a, b):
    n = len(a)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            if i + j < n:
                out[i + j] += a[i] * b[j]
    return out


def test_convolve_small(backend):
    assert backend.convolve([1, 1, 0], [1, -1, 0]) == [1, 0, -1]
    assert backend.convolve([2], [3]) == [6]
    assert backend.convolve([0, 1, 2], [5, 0, 0]) == [0, 5, 10]


def test_convolve_matches_naive_on_random_input(backend):
    rng = random.Random(12345)
    for _ in range(20):
        n = rng.randrange(1, 40)
        a = [rng.randrange(-10**30, 10**30) for _ in range(n)]
        b = [rng.randrange(-10**30, 10**30) for _ in range(n)]
        assert backend.convolve(a, b) == naive_convolve(a, b)


def test_convolve_rejects_order_mismatch(backend):
    with pytest.raises(ValueError):
        backend.convolve([1, 2], [1, 2, 3])


def test_invert_geometric(backend):
    assert backend.invert_unit([1, -1, 0, 0]) == [1, 1, 1, 1]


def test_invert_roundtrip_random(backend):
    rng = random.Random(999)
    for lead in (1, -1):
        for _ in range(10):
            n = rng.randrange(1, 30)
            a = [lead] + [rng.randrange(-10**20, 10**20) for _ in range(n)]
            inv = backend.invert_unit(a)
            unit = backend.convolve(a, inv)
            assert unit == [1] + [0] * n


def test_invert_rejects_non_unit(backend):
    with pytest.raises(ValueError):
        backend.invert_unit([0, 1])
    with pytest.raises(ValueError):
        backend.invert_unit([2, 1])
    with pytest.raises(ValueError):
        backend.invert_unit([])


def brute_stat_sums(n, k_max):
    """Definitional oracle: run over explicit partitions of n."""
    from partitionlab.enumeration import part_multiplicities, partitions

    A = [[0] * k for k in range(1, k_max + 1)]
    B = [0] * k_max
    for parts in partitions(n):
        mults = part_multiplicities(parts)
        for v, m in mults.items():
            for k in range(1, k_max + 1):
                A[k - 1][v % k] += v
                if m >= k:
                    B[k - 1] += v
    return A, B


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 14])
def test_stat_sums_match_definition(backend, n):
    assert backend.ab_stat_sums(n, 6) == brute_stat_sums(n, 6)


def test_stat_sums_domain_errors(backend):
    with pytest.raises(ValueError):
        backend.ab_stat_sums(-1, 3)
    with pytest.raises(ValueError):
        backend.ab_stat_sums(5, 0)
    with pytest.raises(ValueError):
        backend.ab_stat_sums(backend.MAX_SWEEP_N + 1, 1)


def dp_stat_sums(tables, n, k_max):
    """The (A, B) of one n, cut out of stat_sum_tables' per-n lists."""
    A, B = tables
    return (
        [[A[k - 1][p][n] for p in range(k)] for k in range(1, k_max + 1)],
        [B[k - 1][n] for k in range(1, k_max + 1)],
    )


def test_stat_sum_tables_match_definition():
    tables = stat_sum_tables(25, 6)
    for n in range(26):
        assert dp_stat_sums(tables, n, 6) == brute_stat_sums(n, 6), n


def test_stat_sum_tables_match_the_sweep(backend):
    # the compiled sweep reaches the default enumeration cap in about a
    # second; the pure one stops at 30 to keep the suite fast
    n_max = 60 if backend is not _kernels_py else 30
    tables = stat_sum_tables(n_max, 6)
    for n in range(n_max + 1):
        assert dp_stat_sums(tables, n, 6) == backend.ab_stat_sums(n, 6), n


def test_stat_sum_tables_domain_errors():
    with pytest.raises(ValueError):
        stat_sum_tables(-1, 3)
    with pytest.raises(ValueError):
        stat_sum_tables(5, 0)
    assert stat_sum_tables(0, 2) == ([[[0]], [[0], [0]]], [[0], [0]])


@needs_toolchain
def test_backends_agree_on_larger_sweeps(speedups):
    for n in (20, 33):
        assert speedups.ab_stat_sums(n, 8) == _kernels_py.ab_stat_sums(n, 8)
    euler = [0] * 200
    euler[0] = 1
    # (q;q)_inf coefficients by the pentagonal formula
    j = 1
    while True:
        g1 = j * (3 * j - 1) // 2
        g2 = j * (3 * j + 1) // 2
        if g1 >= 200 and g2 >= 200:
            break
        s = -1 if j % 2 else 1
        if g1 < 200:
            euler[g1] = s
        if g2 < 200:
            euler[g2] = s
        j += 1
    assert speedups.invert_unit(euler) == _kernels_py.invert_unit(euler)
    # order 600: the dense p x p product and the inverse of the Euler product
    pgf = list(partition_gf(600).coeffs)
    assert speedups.convolve(pgf, pgf) == _kernels_py.convolve(pgf, pgf)
    euler = list(euler_product(600).coeffs)
    assert speedups.invert_unit(euler) == _kernels_py.invert_unit(euler)
