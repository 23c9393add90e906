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

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_tracer_runs_a_small_verify():
    argv = ["verify", "all", "--n-max", "10", "--k", "1..2", "--enum-cap", "8"]
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracer.py"), *argv, "--format", "json"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["exit_code"] == 0
    reports = json.loads(record["output"])
    assert reports
    assert [r["suite"] for r in reports if r["failed"]] == []


def test_run_records_the_backend():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    env = run.environment(["--workload", "all"], 1)
    assert env["backend"] == "pure-python"
