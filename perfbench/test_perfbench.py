"""Self-tests of the benchmark harness on tiny CLI configurations.

    python3 -m pytest perfbench -q

They check that every metric BENCHMARK.json names is printed once, with
its unit, for every workload; that the correctness gate counts a corrupted
output as a failure; and that two seeds give the same metric names and the
same gate results.  Each test takes a few seconds.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY_VERIFY = ("verify", "all", "--n-max", "12", "--enum-cap", "8", "--format", "json")
TINY_EXPORT = ("export", "--stats", "a,b,m,p", "--k", "1..2", "--ell", "2", "--n-max", "40")


def cli_output(argv):
    result = run.spawn(("-m", "partitionlab.cli", *argv))
    assert result.exit_code == 0, result.stderr
    return result.stdout


@pytest.fixture(scope="module")
def tiny():
    """Tiny workloads, gated against references taken from this code."""
    verify_text = cli_output(TINY_VERIFY)
    export_text = cli_output(TINY_EXPORT)
    suites = {
        r["suite"]: {"range": r["range"], "total": r["total"]}
        for r in json.loads(verify_text)
    }
    workloads = {
        "tiny-verify": run.Workload("tiny-verify", TINY_VERIFY, {"suites": suites}),
        "tiny-export": run.Workload(
            "tiny-export",
            TINY_EXPORT,
            {"sha256": hashlib.sha256(export_text.encode()).hexdigest()},
        ),
    }
    return workloads, verify_text, export_text


def main_output(monkeypatch, workloads, *args):
    monkeypatch.setattr(run, "load_workloads", lambda: workloads)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(args))
    assert code == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_once_with_its_unit(monkeypatch, tiny, trace, section):
    workloads = tiny[0]
    lines, final = main_output(
        monkeypatch, workloads,
        "--workload", "all", "--seed", "1", "--seconds", "0.1", "--trace", str(trace),
    )
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 2
    expected = {
        "%s.%s" % (w, m["name"]): m["unit"] for w in workloads for m in SPEC[section]
    }
    assert {k: v["unit"] for k, v in final["metrics"].items()} == expected
    table = "\n".join(lines[:-1])
    for w in workloads:
        for m in SPEC[section]:
            assert table.count("  %s " % m["name"]) == len(workloads)
    if trace:
        # interpreter start and exit are a large share of a tiny run, so
        # the 90% coverage target applies to the real workloads only
        for w in workloads:
            assert 0 < final["metrics"][w + ".trace.coverage"]["value"] <= 1


def test_single_workload_prints_bare_metric_names(monkeypatch, tiny):
    _, final = main_output(
        monkeypatch, tiny[0],
        "--workload", "tiny-export", "--seed", "1", "--seconds", "0.1", "--trace", "0",
    )
    assert {k: v["unit"] for k, v in final["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in final["metrics"].values())


def flip_digit(text, after):
    i = text.index(after) + len(after)
    while not text[i].isdigit():
        i += 1
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def test_gate_fails_corrupted_outputs(tiny):
    workloads, verify_text, export_text = tiny
    w_verify, w_export = workloads["tiny-verify"], workloads["tiny-export"]
    assert run.gate(w_verify, 0, verify_text) == []
    assert run.gate(w_export, 0, export_text) == []

    assert run.gate(w_export, 0, flip_digit(export_text, '"values": [')) != []
    assert run.gate(w_export, 1, export_text) != []

    reports = json.loads(verify_text)
    fewer = json.loads(verify_text)
    fewer[0]["total"] -= 1
    narrower = json.loads(verify_text)
    narrower[1]["range"]["n_max"] -= 1
    failing = json.loads(verify_text)
    failing[2]["failed"] = 1
    missing = reports[1:]
    for bad in (fewer, narrower, failing, missing):
        assert run.gate(w_verify, 0, json.dumps(bad)) != []
    extra = reports + [{"suite": "new-suite", "range": {}, "total": 3, "failed": 0}]
    assert run.gate(w_verify, 0, json.dumps(extra)) == []
    assert run.gate(w_verify, 0, "not json") != []


def test_p_table_checked_against_partition_counts():
    workload = run.Workload("p-only", (), {"sha256": ""})
    doc = {"p": {"values": [1, 1, 2, 3, 5, 7]}}
    assert run.gate(workload, 0, json.dumps(doc)) == [
        "sha256 %s, seed had " % hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    ]
    doc["p"]["values"][5] = 8
    assert "p table differs" in run.gate(workload, 0, json.dumps(doc))[-1]


def test_failed_runs_count_in_the_result(monkeypatch, tiny):
    workloads = dict(tiny[0])
    broken = workloads["tiny-export"]
    workloads["tiny-export"] = run.Workload(broken.name, broken.argv, {"sha256": "0" * 64})
    _, final = main_output(
        monkeypatch, workloads,
        "--workload", "tiny-export", "--seed", "2", "--seconds", "0.1", "--trace", "0",
    )
    assert not final["correct"]
    assert final["failed"] == final["attempted"] >= 1


def test_two_seeds_give_same_names_and_gates(monkeypatch, tiny):
    finals = []
    for seed in ("5", "6"):
        _, final = main_output(
            monkeypatch, tiny[0],
            "--workload", "all", "--seed", seed, "--seconds", "0.1", "--trace", "0",
        )
        finals.append(final)
    a, b = finals
    assert sorted(a["metrics"]) == sorted(b["metrics"])
    assert (a["correct"], a["failed"]) == (b["correct"], b["failed"]) == (True, 0)


def test_no_sources_exits_nonzero_without_result(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "verify-default", "--seed", "1",
                         "--seconds", "1", "--trace", "0"])
    assert code != 0 and out.getvalue() == ""


def test_compare_flags_backend_mismatch(tmp_path):
    def record(backend, wall):
        return {
            "environment": {"backend": backend, "python": "3.11.7"},
            "workloads": {"w": {"wall_s": {"value": wall, "unit": "s"}}},
        }

    old, same, other = (tmp_path / n for n in ("old.json", "same.json", "other.json"))
    old.write_text(json.dumps(record("pure-python", 1.0)))
    same.write_text(json.dumps(record("pure-python", 2.0)))
    other.write_text(json.dumps(record("compiled", 2.0)))
    lines, regressions, flagged = compare.compare(old, same)
    assert regressions == 1 and not flagged
    lines, regressions, flagged = compare.compare(old, other)
    assert flagged and regressions == 0 and lines[0].startswith("FLAGGED")

