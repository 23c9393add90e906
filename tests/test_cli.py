"""Command-line interface: outputs, exit codes, round trips."""

import argparse
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
from oracles import golden, golden_digests, parse_table_csv
from partitionlab import cli, stats, verify
from partitionlab.series import TruncatedSeries


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
    code, _, err = run_cli(capsys, "compute", "a", "--k", "0", "--n-max", "5")
    assert code == 2
    assert "k must be >= 1" in err
    code, _, err = run_cli(capsys, "compute", "m", "--ell", "0", "--n-max", "5")
    assert code == 2
    assert "ell must be >= 1" in err
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


def _negative_m_count(ell, n_max):
    return (0, -1) + (0,) * (n_max - 1)


def _mp_base_with_constant_2(n_max, build=stats.mp_base_gf):
    return TruncatedSeries((2,) + build(n_max).coeffs[1:])


@pytest.mark.parametrize(
    "builder,fault,args,message",
    [
        (
            "_m_ell_from_gaussian",
            _negative_m_count,
            ("m", "--ell", "2"),
            "M_2 produced a negative count",
        ),
        (
            "mp_base_gf",
            _mp_base_with_constant_2,
            ("mp", "--ell", "1"),
            "MP_1 has a nonzero constant term",
        ),
    ],
    ids=["negative-m", "mp-constant-term"],
)
def test_internal_inconsistency_exit_4(
    capsys, monkeypatch, builder, fault, args, message
):
    # a fault in a real builder reaches the guard in stats that names it
    monkeypatch.setattr(stats, builder, fault)
    code, out, err = run_cli(capsys, "compute", *args, "--n-max", "5")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "error: internal inconsistency: %s\n" % message


# one invocation of each subcommand, to which a test appends --n-max
EACH_COMMAND = pytest.mark.parametrize(
    "args",
    [("compute", "b", "--k", "3"), ("verify", "all"), ("export", "--stats", "a,b")],
    ids=["compute", "verify", "export"],
)


@EACH_COMMAND
def test_a_size_that_cannot_be_indexed_exit_2(capsys, args):
    # a size too large for an index is bad input, not an internal fault
    code, out, err = run_cli(capsys, *args, "--n-max", str(10**20))
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "error: cannot fit 'int' into an index-sized integer\n"


def _out_of_memory(n_max):
    raise MemoryError


@EACH_COMMAND
def test_a_size_that_does_not_fit_in_memory_exit_2(capsys, monkeypatch, args):
    # a size too large for memory is bad input too; a builder that raises
    # stands in for a real allocation failure
    monkeypatch.setattr(stats, "partition_gf", _out_of_memory)
    code, out, err = run_cli(capsys, *args, "--n-max", "10")
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "error: out of memory\n"


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


def test_verify_text_report_truncates_the_failures(capsys):
    # 112 of the 180 cells fail: the report prints the first 20 of them
    code, out, _ = run_cli(capsys, "verify", "bad-exponent", "--n-max", "60")
    assert code == 1
    lines = out.splitlines()
    assert lines[1].split() == ["bad-exponent", "180", "112"]
    fails = lines[2:-2]
    assert len(fails) == cli.MAX_FAILURES_SHOWN == 20
    assert all(line.startswith("FAIL bad-exponent [BadExponent] ") for line in fails)
    assert fails[0].endswith("k=2 ell=2 n=5: lhs=-2 rhs=0")
    assert fails[-1].endswith("k=2 ell=3 n=14: lhs=134 rhs=0")
    assert lines[-2:] == ["... and 92 more failures in bad-exponent", "FAIL"]
    assert out == golden("bad-exponent-n60.txt")


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


@pytest.mark.parametrize("suite, n_max", [("m-routes", "2"), ("bad-exponent", "3")])
def test_verify_suite_that_reads_no_k_ignores_the_k_range(capsys, suite, n_max):
    # n_max is below the default --k 1..4, which neither suite reads
    code, out, err = run_cli(capsys, "verify", suite, "--n-max", n_max)
    assert (code, err) == (0, "")
    assert out.endswith("PASS\n")


@pytest.mark.parametrize("flag", ["--k", "--ell"])
def test_verify_empty_range_below_one_exit_0(capsys, flag):
    # an empty range holds no value to check, whatever its lower end
    code, out, err = run_cli(capsys, "verify", "all", flag, "0..-1")
    assert (code, err) == (0, "")
    assert out.endswith("PASS\n")


def test_verify_n_max_below_the_largest_k_runs(capsys):
    # a k above n_max is a cell like any other; the first cell where the
    # wrong sign fails is n = 5, ell = 2, and below it the two signs give
    # the same left side, so bad-exponent has nothing to show: no cell
    for n_max in range(6):
        args = ("--n-max", str(n_max), "--k", "1..5", "--format", "json")
        code, out, err = run_cli(capsys, "verify", "all", *args)
        assert (code, err) == (0, "")
        (witness,) = [r for r in json.loads(out) if r["suite"] == "bad-exponent"]
        assert (witness["total"], witness["failed"]) == (int(n_max == 5), 0)
    code, out, _ = run_cli(
        capsys,
        "verify", "trunc", "--n-max", "4", "--k", "5", "--ell", "2", "--format", "json",
    )
    (report,) = json.loads(out)
    assert (code, report["total"], report["failed"]) == (0, 5, 0)


def test_bad_exponent_sweeps_ell_from_1(capsys):
    # the raw sweep and the witness inside verify all both start at ell = 1,
    # whatever the lower end of --ell; only ell >= 2 can fail
    code, out, _ = run_cli(
        capsys,
        "verify", "bad-exponent", "--ell", "3..3", "--n-max", "10", "--format", "json",
    )
    (report,) = json.loads(out)
    assert (code, report["range"]["ell"], report["total"]) == (1, [1, 3], 30)
    assert {case["params"]["ell"] for case in report["failures"]} == {2, 3}
    code, out, _ = run_cli(capsys, "verify", "all", "--ell", "2..3", "--format", "json")
    report = json.loads(out)[-1]
    assert (code, report["suite"]) == (0, "bad-exponent")
    assert report["range"]["ell"] == [1, 3]


@pytest.mark.parametrize(
    "args,n_max,ell_max",
    [
        pytest.param([], 60, 3, id="default"),
        pytest.param(
            ["--n-max", "30", "--k", "2..3", "--ell", "2..3", "--enum-cap", "12"],
            30,
            3,
            id="small",
        ),
    ],
)
def test_verify_suite_prints_its_entry_of_verify_all(capsys, args, n_max, ell_max):
    # a suite run alone reports what verify all reports for it, except
    # bad-exponent, which alone prints the raw sweep of the wrong sign
    code, out, _ = run_cli(capsys, "verify", "all", "--format", "json", *args)
    assert code == 0
    entries = {report["suite"]: report for report in json.loads(out)}
    for suite in verify.SUITE_ORDER:
        if suite != "bad-exponent":
            code, out, _ = run_cli(capsys, "verify", suite, "--format", "json", *args)
            assert (code, out) == (0, cli.canonical_json([entries[suite]])), suite
    code, out, _ = run_cli(capsys, "verify", "bad-exponent", "--format", "json", *args)
    raw = verify.uncorrected_exponent_report(n_max, ell_max)
    assert (code, out) == (1, cli.reports_to_json([raw]))


@pytest.mark.parametrize("flag", ["--threads", "--subset-cap"])
def test_verify_has_no_unread_flags(capsys, flag):
    # suites run serially and none reads a subset cap, so neither flag exists
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "all", flag, "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [("verify", "all"), ("export", "--n-max", "5")], ids=["verify", "export"]
)
def test_p_zero_only_is_no_flag(capsys, command):
    # thmgf, thmcomb and export --stats a always cover every residue p < k
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--p-zero-only"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --p-zero-only" in capsys.readouterr().err


def test_every_cli_option_is_in_the_readme():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8"
    )
    parser = cli.build_parser()
    (subcommands,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    missing = [
        "%s %s" % (command, option)
        for command, sub in subcommands.choices.items()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if option.startswith("--") and option not in readme
    ]
    assert missing == []


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
    builders = cli.stat_builders()
    doc = cli.export_document(list(builders), (1, 5), (3, 3), 500)
    # a table per k in 1..5, and per residue p < k; ell 3 is one value
    ks = range(1, 6)
    assert len(doc) == sum(
        sum(k if "p" in params else 1 for k in ks) if "k" in params else 1
        for _, params in builders.values()
    )
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
    # compute and export build each statistic id of stats.BUILDERS the same way
    values = {"k": 3, "p": 2, "ell": 2}
    for stat, (_, params) in cli.stat_builders().items():
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
# golden output, pinned under tests/golden/: a change that keeps these
# bytes is a safe refactor


@pytest.mark.parametrize(
    "args,name",
    [
        pytest.param([], "verify-default.json", id="1"),
        # the vacuous bad-exponent branch
        pytest.param(
            ["--n-max", "30", "--ell", "1..1"], "verify-ell-1.json", id="ell-1"
        ),
        pytest.param(
            ["--n-max", "10", "--k", "2..1", "--ell", "2..1"],
            "verify-empty-ranges.json",
            id="empty-ranges",
        ),
        pytest.param(["--k", "2..4"], "verify-k-2..4.json", id="k-2..4"),
        # the witness check with no n to sweep
        pytest.param(["--n-max", "0"], "verify-n-max-0.json", id="n-max-0"),
        pytest.param(
            ["--n-max", "60", "--k", "1..6", "--enum-cap", "45"],
            "verify-enum-cap-45.json",
            id="enum-cap-45",
        ),
        # the packed DP fields and the walk at the sweep cap, 60
        pytest.param(
            ["--n-max", "60", "--k", "1..6", "--enum-cap", "60"],
            "verify-enum-cap-60.json",
            id="enum-cap-60",
        ),
        # the large config of the ROADMAP's north star
        pytest.param(
            ["--n-max", "240", "--enum-cap", "40", "--k", "1..5"],
            "verify-large.json",
            id="large",
        ),
    ],
)
def test_verify_all_json_is_golden(capsys, args, name):
    code, out, _ = run_cli(capsys, "verify", "all", "--format", "json", *args)
    assert code == 0
    assert out == golden(name)


def test_export_every_table_is_golden(capsys):
    code, out, _ = run_cli(
        capsys,
        "export", "--stats", "a,b,c,m,mp,q,p", "--k", "1..5", "--ell", "3",
        "--n-max", "120",
    )
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == golden_digests()["export-n120.json"]


# compute's output for every statistic id, in sorted order, then csub,
# each at the options below
GOLDEN_COMPUTE = {"csv": "compute.csv", "json": "compute.json", "text": "compute.txt"}


@pytest.mark.parametrize("fmt", sorted(GOLDEN_COMPUTE))
def test_compute_is_golden(capsys, fmt):
    options = ["--k", "3", "--p", "2", "--ell", "2", "--n-max", "40"]
    outs = []
    for stat in sorted(cli.stat_builders()) + ["csub"]:
        argv = ["compute", stat, "--format", fmt]
        argv += ["--n-max", "20"] if stat == "csub" else options
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, stat
        outs.append(out)
    assert "".join(outs) == golden(GOLDEN_COMPUTE[fmt])


# ---------------------------------------------------------------------------
# range parsing


def test_parse_range():
    assert cli.parse_range("3") == (3, 3)
    assert cli.parse_range("1..4") == (1, 4)
    with pytest.raises(ValueError):
        cli.parse_range("a..b")
