"""The benchmark harness under perfbench/ still runs against the package.

perfbench/tracer.py wraps the package's layers from outside it and
raises when a name it wraps is bound nowhere in the package, and
perfbench/run.py records partitionlab.BACKEND.  The harness's own tests
(perfbench/test_perfbench.py) run with `python3 -m pytest perfbench`,
not here, so these keep the names it reads from being removed unnoticed.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from partitionlab import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def traced(argv):
    """The record that perfbench/tracer.py prints for one CLI run."""
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracer.py"), *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_tracer_runs_a_small_verify():
    argv = ["verify", "all", "--n-max", "10", "--k", "1..2", "--enum-cap", "8"]
    record = traced([*argv, "--format", "json"])
    assert record["exit_code"] == 0
    reports = json.loads(record["output"])
    assert reports
    assert [r["suite"] for r in reports if r["failed"]] == []


def test_tracer_runs_an_export_of_every_table(capsys):
    # the one path that reaches every statistic's table, and so the span
    # that the tracer wraps each in: the store calls each builder by its
    # name in stats, which the tracer rebinds
    builders = cli.stat_builders()
    argv = ["export", "--stats", ",".join(builders), "--k", "1..2", "--ell", "1"]
    argv += ["--n-max", "20"]
    record = traced(argv)
    assert record["exit_code"] == 0
    metrics = record["metrics"]
    for name, _ in builders.values():
        assert metrics["stats.%s.calls" % name]["value"] >= 1, name
    assert cli.main(argv) == 0
    assert record["output"] == capsys.readouterr().out


def test_run_records_the_backend():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    env = run.environment(["--workload", "all"], 1)
    assert env["backend"] == "pure-python"
