"""Command-line interface: outputs, exit codes, round trips."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import partitionlab
from oracles import parse_table_csv
from partitionlab import cli, stats


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(probe, *flags):
    """Run the Python source probe in a new interpreter on this checkout."""
    src = Path(partitionlab.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, *flags, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )


def test_import_does_not_load_numpy():
    # numpy is no dependency: a fresh process must not load it
    proc = run_fresh("import sys, partitionlab.cli; print('numpy' in sys.modules)")
    assert proc.stdout == "False\n", proc.stderr


# dataclasses alone pulls inspect, ast, dis and tokenize into a process
SLOW_START_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


def test_import_loads_only_argparse_and_json():
    # -S: no site module, whose .pth files may load typing themselves
    proc = run_fresh(
        "import sys, argparse, json\n"
        "before = set(sys.modules)\n"
        "import partitionlab.cli\n"
        "added = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(json.dumps([sorted(sys.modules), sorted(added)]))\n",
        "-S",
    )
    assert proc.returncode == 0, proc.stderr
    loaded, added = json.loads(proc.stdout)
    assert [m for m in SLOW_START_MODULES if m in loaded] == []
    # beyond argparse and json the package adds only itself and built-ins
    assert set(added) <= {"partitionlab", "math"}


def test_csub_runs_where_numpy_cannot_be_imported():
    proc = run_fresh(
        "import sys\n"
        "sys.modules['numpy'] = None  # makes any import of numpy fail\n"
        "from partitionlab import cli\n"
        "sys.exit(cli.main(['compute', 'csub', '--n-max', '20']))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert parse_table_csv(proc.stdout) == [
        0, 1, 3, 6, 11, 18, 28, 42, 61, 86, 119,
        162, 217, 287, 375, 485, 622, 791, 998, 1251, 1558,
    ]


# ---------------------------------------------------------------------------
# compute


def test_compute_b_csv(capsys):
    code, out, _ = run_cli(capsys, "compute", "b", "--k", "3", "--n-max", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,value"
    assert lines[6] == "5,2"
    assert out.endswith("\n")


def test_compute_a_with_residue(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "a", "--k", "3", "--p", "2", "--n-max", "5"
    )
    assert code == 0
    assert out.splitlines()[-1] == "5,11"


def test_compute_q_single_row(capsys):
    code, out, _ = run_cli(capsys, "compute", "q", "--n-max", "0")
    assert code == 0
    assert out == "n,value\n0,1\n"


def test_compute_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "m", "--ell", "1", "--n-max", "4", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["stat"] == "m"
    assert doc["params"] == {"ell": 1}
    assert doc["values"] == [0, 0, 1, 1, 2]


def test_compute_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "p", "--n-max", "3", "--format", "text"
    )
    assert code == 0
    assert "value" in out.splitlines()[0]


def test_compute_invalid_params_exit_2(capsys):
    code, _, err = run_cli(capsys, "compute", "a", "--k", "3", "--p", "7", "--n-max", "5")
    assert code == 2
    assert "0 <= p < k" in err
    code, _, err = run_cli(capsys, "compute", "b", "--n-max", "5")
    assert code == 2
    assert "--k" in err
    code, _, err = run_cli(capsys, "compute", "mp", "--n-max", "5")
    assert code == 2
    assert "--ell" in err


def test_compute_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "zzz", "--n-max", "3"])
    assert exc.value.code == 2


def test_compute_out_file_and_csv_roundtrip(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, "compute", "b", "--k", "2", "--n-max", "25", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    values = parse_table_csv(text)
    from partitionlab.stats import b_k_table

    assert values == list(b_k_table(2, 25).coeffs)


def test_compute_unwritable_path_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "compute", "q", "--n-max", "3", "--out", "/nonexistent/q.csv"
    )
    assert code == 3
    assert "cannot write" in err


def test_internal_inconsistency_exit_4(capsys, monkeypatch):
    def inconsistent(ell, n_max):
        raise ArithmeticError("M_%d produced a negative count" % ell)

    monkeypatch.setattr(stats, "m_ell_table", inconsistent)
    code, out, err = run_cli(capsys, "compute", "m", "--ell", "2", "--n-max", "5")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "error: internal inconsistency: M_2 produced a negative count\n"


def test_compute_output_is_deterministic(capsys):
    args = ("compute", "c", "--k", "2", "--n-max", "30", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_compute_csub(capsys):
    code, out, _ = run_cli(capsys, "compute", "csub", "--n-max", "3")
    assert code == 0
    assert out.splitlines()[1:] == ["0,0", "1,1", "2,3", "3,6"]


# ---------------------------------------------------------------------------
# verify


def test_verify_all_exit_0(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "all",
        "--n-max", "24", "--k", "1..3", "--ell", "1..2", "--enum-cap", "10",
    )
    assert code == 0
    assert out.rstrip().endswith("PASS")


def test_verify_text_report_is_deterministic(capsys, monkeypatch):
    args = ("verify", "all", "--n-max", "30", "--k", "1..3", "--format", "text")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    # the report reads no clock: one that makes every reading 1.5 s
    # later than the last changes no byte
    ticks = itertools.count(step=1.5)
    monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
    _, slow, _ = run_cli(capsys, *args)
    assert slow == first
    assert first.splitlines()[0].split() == ["suite", "total", "failed"]


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "trunc", "--k", "2", "--ell", "1..4", "--n-max", "40"
    )
    assert code == 0
    assert "trunc" in out


def test_verify_bad_exponent_exit_1_and_witness(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "bad-exponent", "--n-max", "30", "--ell", "1..2"
    )
    assert code == 1
    failure_lines = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
    assert failure_lines
    assert "n=5" in failure_lines[0] and "ell=2" in failure_lines[0]


def test_verify_bad_exponent_below_ell_2_exit_2(capsys):
    # for ell=1 the two sign rules coincide, so the sweep cannot fail
    code, out, err = run_cli(
        capsys, "verify", "bad-exponent", "--n-max", "30", "--ell", "1..1"
    )
    assert code == 2
    assert out == ""
    assert "--ell" in err
    # inside `verify all` the same range keeps its empty witness report
    code, out, _ = run_cli(
        capsys,
        "verify", "all", "--n-max", "10", "--k", "1", "--ell", "1", "--enum-cap", "5",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)[-1]
    assert (report["suite"], report["total"]) == ("bad-exponent", 0)


def test_verify_bad_exponent_empty_ell_range_exit_2(capsys):
    # an empty --ell range has no ell to sweep: a usage error on its own,
    # never a sweep over some other range
    code, out, err = run_cli(
        capsys, "verify", "bad-exponent", "--n-max", "30", "--ell", "5..2"
    )
    assert code == 2
    assert out == ""
    assert "5..2" in err
    # inside `verify all` the same range is vacuous
    code, out, _ = run_cli(
        capsys,
        "verify", "all", "--n-max", "10", "--k", "1", "--ell", "5..2", "--enum-cap", "5",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)[-1]
    assert (report["suite"], report["total"]) == ("bad-exponent", 0)


def test_verify_enum_cap_above_the_sweep_cap(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "thmgf", "--n-max", "70", "--enum-cap", "65", "--k", "1..2",
        "--format", "json",
    )
    assert code == 0
    (report,) = json.loads(out)
    assert (report["range"]["n_max"], report["total"], report["failed"]) == (65, 325, 0)


def test_verify_json_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "m-routes",
        "--n-max", "20", "--ell", "1..2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["suite"] == "m-routes"
    assert payload[0]["failed"] == 0


def test_verify_bad_range_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "all", "--n-max", "2", "--k", "1..5")
    assert code == 2
    assert "n_max" in err


@pytest.mark.parametrize("flag", ["--threads", "--subset-cap"])
def test_verify_has_no_unread_flags(capsys, flag):
    # suites run serially and none reads a subset cap, so neither flag exists
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "all", flag, "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_malformed_range_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "all", "--k", "x..y")
    assert code == 2
    assert "range" in err


# ---------------------------------------------------------------------------
# export


def test_export_document_counts(capsys):
    code, out, _ = run_cli(
        capsys, "export", "--stats", "a,b,c", "--k", "1..3", "--n-max", "30"
    )
    assert code == 0
    doc = json.loads(out)
    # a: residues 1 + 2 + 3, b: 3, c: 3
    assert len(doc) == 12
    assert doc["b/k=3"]["values"][5] == 2
    assert doc["a/k=3/p=2"]["values"][5] == 11


def test_export_builds_the_partition_series_once(monkeypatch):
    orders = []
    real = stats.partition_gf

    def counting(order):
        orders.append(order)
        return real(order)

    monkeypatch.setattr(stats, "partition_gf", counting)
    doc = cli.export_document(list("abc") + ["m", "mp", "q", "p"], (1, 5), (3, 3), 500)
    assert len(doc) == 15 + 5 + 5 + 1 + 1 + 1 + 1
    assert orders == [500]


def test_export_builds_each_base_series_once(monkeypatch):
    # c_k for every k shares one Q(q^2), MP_ell for every ell one base
    orders = []
    for name in ("q_squared_gf", "mp_base_gf"):

        def counting(order, name=name, real=getattr(stats, name)):
            orders.append((name, order))
            return real(order)

        monkeypatch.setattr(stats, name, counting)
    cli.export_document(["c", "mp"], (1, 5), (1, 3), 100)
    assert sorted(orders) == [("mp_base_gf", 100), ("q_squared_gf", 100)]


def test_compute_prints_the_export_entry_of_every_table(capsys):
    # compute and export build each statistic id of TABLES the same way
    values = {"k": 3, "p": 2, "ell": 2}
    for stat, (_, params) in cli.TABLES.items():
        options = ["--%s=%d" % (param, values[param]) for param in params]
        code, out, _ = run_cli(
            capsys, "compute", stat, *options, "--n-max", "40", "--format", "json"
        )
        assert code == 0, stat
        code, doc, _ = run_cli(
            capsys, "export", "--stats", stat, "--k", "3", "--ell", "2", "--n-max", "40"
        )
        assert code == 0, stat
        key = "/".join([stat] + ["%s=%d" % (param, values[param]) for param in params])
        assert json.loads(out) == json.loads(doc)[key], stat


def test_export_p_zero_only(capsys):
    code, out, _ = run_cli(
        capsys,
        "export", "--stats", "a", "--k", "1..3", "--n-max", "10", "--p-zero-only",
    )
    assert code == 0
    assert sorted(json.loads(out)) == ["a/k=1/p=0", "a/k=2/p=0", "a/k=3/p=0"]


def test_export_empty_selector(capsys):
    code, out, _ = run_cli(capsys, "export", "--stats", "", "--n-max", "5")
    assert code == 0
    assert json.loads(out) == {}


@pytest.mark.parametrize("stat", ["a", "b", "c"])
@pytest.mark.parametrize("k", ["0..2", "-2..1"])
def test_export_k_below_1_exit_2(capsys, stat, k):
    code, out, err = run_cli(
        capsys, "export", "--stats", stat, "--k=" + k, "--n-max", "5"
    )
    assert code == 2
    assert out == ""
    assert "k must be >= 1" in err


def test_export_unknown_stat_exit_2(capsys):
    code, _, err = run_cli(capsys, "export", "--stats", "zz", "--n-max", "5")
    assert code == 2
    assert "zz" in err


def test_export_unwritable_exit_3(capsys):
    code, _, _ = run_cli(
        capsys, "export", "--stats", "q", "--n-max", "5", "--out", "/no/way.json"
    )
    assert code == 3


# ---------------------------------------------------------------------------
# golden output: a change that keeps these bytes is a safe refactor

GOLDEN_VERIFY_ALL_JSON = (
    "8e1a4da6242b010f05ac62f11c4bf641ef8bea56aa21650aa82e00096c387793"
)
GOLDEN_EXPORT_N120 = (
    "e4ca583bc84b9528559f44373dd4ecbe572b45abd060f4c3df498ac22c15b047"
)


def sha256_of_output(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "args,golden",
    [
        pytest.param([], GOLDEN_VERIFY_ALL_JSON, id="1"),
        # the vacuous bad-exponent branch
        pytest.param(
            ["--n-max", "30", "--ell", "1..1"],
            "85bff213a09db535e32fff9f27388b58958197627a5ce208fbb1c88e90cc0a9c",
            id="ell-1",
        ),
        pytest.param(
            ["--n-max", "10", "--k", "2..1", "--ell", "2..1"],
            "06b7022919db73c10a5000ae7823336f6a756f2297cabfa1a3da4dff05a4340e",
            id="empty-ranges",
        ),
        pytest.param(
            ["--p-zero-only", "--k", "2..4"],
            "f8e48a1a5014845eee1188113190ce6efcd7e068e64d30695582ab65eaacbdb0",
            id="p-zero-only",
        ),
        pytest.param(
            ["--n-max", "60", "--k", "1..6", "--enum-cap", "45"],
            "dc4a0e7fff692955c3d9e32d6f471aac3892ead27aaa90d38076fefb387a7dfe",
            id="enum-cap-45",
        ),
    ],
)
def test_verify_all_json_is_golden(capsys, args, golden):
    digest = sha256_of_output(capsys, "verify", "all", "--format", "json", *args)
    assert digest == golden


def test_export_every_table_is_golden(capsys):
    digest = sha256_of_output(
        capsys,
        "export", "--stats", "a,b,c,m,mp,q,p", "--k", "1..5", "--ell", "3",
        "--n-max", "120",
    )
    assert digest == GOLDEN_EXPORT_N120


# sha256 of compute's output for every statistic id, in sorted order,
# then csub, each at the options below
GOLDEN_COMPUTE = {
    "csv": "3ee3ddad3d591a740f394b00f1918e334868dd19a18126d0b54b96df14905c7e",
    "json": "7c0b5f4e35cfdc805e535623e7435a92b0029ba419ed8b918ad0dfe4ca86642e",
    "text": "c94f71126351262e3f20a8645c877a012563c1eeed815380dbbdc9c1f97393bd",
}


@pytest.mark.parametrize("fmt", sorted(GOLDEN_COMPUTE))
def test_compute_is_golden(capsys, fmt):
    digest = hashlib.sha256()
    options = ["--k", "3", "--p", "2", "--ell", "2", "--n-max", "40"]
    for stat in sorted(cli.TABLES) + ["csub"]:
        argv = ["compute", stat, "--format", fmt]
        argv += ["--n-max", "20"] if stat == "csub" else options
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, stat
        digest.update(out.encode("utf-8"))
    assert digest.hexdigest() == GOLDEN_COMPUTE[fmt]


# ---------------------------------------------------------------------------
# range parsing


def test_parse_range():
    assert cli.parse_range("3") == (3, 3)
    assert cli.parse_range("1..4") == (1, 4)
    with pytest.raises(cli.UsageError):
        cli.parse_range("a..b")
