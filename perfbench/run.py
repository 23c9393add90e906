"""partitionlab benchmark: three CLI workloads, gated for correctness.

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Each workload is one fixed ``python -m partitionlab.cli`` invocation, run
as a subprocess with ``src`` on PYTHONPATH.  With ``--trace 0`` the run
repeats it for about ``--seconds`` seconds, interleaved with fresh-import
probes for the set-up time, and reports the end-to-end metrics.  With
``--trace 1`` it runs the workload once untraced and once under
``tracer.py`` and reports the per-layer metrics.  Every run of the CLI,
traced or not, passes through the correctness gate; a run that fails it
is counted in ``failed``, never retried or dropped.

The program has no random input, so the seed only shuffles the order in
which workloads, repetitions and set-up probes interleave.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics, holding the metrics BENCHMARK.json declares.  The lines above it
are the environment record and a table of every metric, raw times
included, with its unit, quartiles and sample count; ``--out`` also
writes the full record of the run as JSON.
"""

import argparse
import functools
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CHILD_TIMEOUT_S = 150
SETUP_PROBES = 7
SETUP_PROBE = ("-c", "import partitionlab.cli")
COVERAGE_TARGET = 0.9
# The speed the scaled times refer to: calibration_loop takes CAL_REF_S.
CAL_REF_S = 0.005


@dataclass(frozen=True)
class Workload:
    """One CLI invocation and the reference its output is gated against.

    ``reference`` holds either ``suites`` (suite id -> range and total
    recorded at the seed commit) for a ``verify`` run, or ``sha256`` of
    the whole output for an ``export`` run, whose ``p`` table is also
    checked against ``enumeration.partition_count_table``.
    """

    name: str
    argv: tuple
    reference: dict


def load_workloads():
    reference = json.loads((HERE / "reference.json").read_text())
    return {
        w.name: w
        for w in (
            Workload(
                "verify-default",
                ("verify", "all", "--format", "json"),
                reference["verify-default"],
            ),
            Workload(
                "verify-n240",
                ("verify", "all", "--n-max", "240", "--k", "1..5", "--format", "json"),
                reference["verify-n240"],
            ),
            Workload(
                "tables-n500",
                ("export", "--stats", "a,b,c,m,mp,q,p", "--k", "1..5",
                 "--ell", "3", "--n-max", "500"),
                reference["tables-n500"],
            ),
        )
    }


# ---------------------------------------------------------------------------
# correctness gate


@functools.lru_cache(maxsize=None)
def _partition_counts(n_max):
    from partitionlab.enumeration import partition_count_table

    return partition_count_table(n_max)


def _check_verify(text, expected_suites):
    try:
        reports = json.loads(text)
        by_suite = {r["suite"]: r for r in reports}
    except (ValueError, TypeError, KeyError) as exc:
        return ["output is not a verify report: %s" % exc]
    problems = [
        "suite %s: %s failed cells" % (r["suite"], r.get("failed"))
        for r in reports
        if r.get("failed") != 0
    ]
    for sid, want in sorted(expected_suites.items()):
        got = by_suite.get(sid)
        if got is None:
            problems.append("suite %s missing" % sid)
            continue
        for key in ("range", "total"):
            if got.get(key) != want[key]:
                problems.append(
                    "suite %s: %s %r, seed had %r" % (sid, key, got.get(key), want[key])
                )
    return problems


def _check_export(text, reference):
    problems = []
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if digest != reference["sha256"]:
        problems.append("sha256 %s, seed had %s" % (digest, reference["sha256"]))
    try:
        values = [int(v) for v in json.loads(text)["p"]["values"]]
    except (ValueError, TypeError, KeyError) as exc:
        return problems + ["no readable p table: %s" % exc]
    if values != _partition_counts(len(values) - 1):
        problems.append("p table differs from enumeration.partition_count_table")
    return problems


def gate(workload, exit_code, text):
    """Problems with one run's output; an empty list means it passed."""
    problems = [] if exit_code == 0 else ["exit code %s" % exit_code]
    if "suites" in workload.reference:
        problems += _check_verify(text, workload.reference["suites"])
    else:
        problems += _check_export(text, workload.reference)
    return problems


# ---------------------------------------------------------------------------
# child processes


@dataclass
class ChildRun:
    exit_code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn(args, timeout=CHILD_TIMEOUT_S):
    """Run ``python args`` to completion and measure it.

    The child is reaped with wait4, which returns the resource usage of
    that child alone: user+sys CPU and its own peak RSS.  A child that
    outlives the timeout is killed; its run then fails the gate on the
    exit code.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    return ChildRun(
        proc.returncode,
        out.decode("utf-8", "replace"),
        err[0].decode("utf-8", "replace") if err else "",
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
    )


# ---------------------------------------------------------------------------
# measurement


def quartiles(values):
    """(q1, median, q3); a single value stands for all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Tally:
    """Attempted and failed CLI runs per workload, with the gate's reasons."""

    def __init__(self):
        self.attempted = Counter()
        self.failures = []

    def error_rate(self, name):
        failed = sum(1 for f in self.failures if f["workload"] == name)
        return failed, self.attempted[name]

    def check(self, workload, exit_code, text, stderr=""):
        self.attempted[workload.name] += 1
        problems = gate(workload, exit_code, text)
        if problems:
            tail = stderr.strip().splitlines()[-1:] if exit_code else []
            self.failures.append({"workload": workload.name, "problems": problems + tail})


def _partitions(n, top):
    if n == 0:
        yield ()
        return
    for k in range(min(n, top), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def calibration_loop():
    # fixed code doing the program's two kinds of work, so that other
    # tenants' load slows it as it slows the program: a truncated big-int
    # convolution (the series kernels) and a generator that allocates a
    # tuple per partition (the enumeration)
    a = [(i * 7919) ** 3 for i in range(150)]
    out = [0] * len(a)
    for i, ai in enumerate(a):
        out[i:] = [s + ai * b for s, b in zip(out[i:], a)]
    return sum(len(parts) for parts in _partitions(18, 18))


def calibrate():
    """Median of five timings of calibration_loop, in seconds."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_end_to_end(workload, seconds, rng, tally):
    """Repeat the workload for about ``seconds``; end-to-end metrics.

    Another repetition starts only if it is expected to finish within the
    budget, but at least one always runs.  The set-up probes are spread
    over the run in seeded order.

    On a shared machine the CPU speed swings by tens of percent from one
    second to the next.  So the calibration loop is timed between every
    two samples, and each sample's times are also reported scaled to the
    reference speed by CAL_REF_S over the mean of the timings on either
    side of it.  The scaled times are the ones BENCHMARK.json bounds.
    """
    spawn(SETUP_PROBE)  # untimed: bytecode and page cache, which users have warm
    runs, setups, cals = [], [], [calibrate()]

    def sample(args):
        child = spawn(args)
        cals.append(calibrate())
        return child, CAL_REF_S / ((cals[-2] + cals[-1]) / 2)

    probes_left = SETUP_PROBES
    t0 = time.perf_counter()
    while True:
        if probes_left and rng.random() < 0.5:
            setups.append(sample(SETUP_PROBE))
            probes_left -= 1
        run, scale = sample(("-m", "partitionlab.cli", *workload.argv))
        tally.check(workload, run.exit_code, run.stdout, run.stderr)
        runs.append((run, scale))
        elapsed = time.perf_counter() - t0
        rep_s = statistics.median(r.wall_s for r, _ in runs)
        probe_s = statistics.median(p.wall_s for p, _ in setups) if setups else rep_s / 4
        if elapsed + rep_s + probes_left * probe_s > seconds:
            break
    while probes_left:
        setups.append(sample(SETUP_PROBE))
        probes_left -= 1
    return {
        "setup_s": summary([p.wall_s * k for p, k in setups], "s"),
        "wall_s": summary([r.wall_s * k for r, k in runs], "s"),
        "cpu_s": summary([r.cpu_s * k for r, k in runs], "s"),
        "peak_rss_mb": summary([r.peak_rss_mb for r, _ in runs], "MB"),
        "raw.setup_s": summary([p.wall_s for p, _ in setups], "s"),
        "raw.wall_s": summary([r.wall_s for r, _ in runs], "s"),
        "raw.cpu_s": summary([r.cpu_s for r, _ in runs], "s"),
        "calibration_ms": summary([c * 1000 for c in cals], "ms"),
    }


def summary(values, unit):
    q1, med, q3 = quartiles(list(values))
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def measure_per_layer(workload, rng, tally):
    """One untraced and one traced run, in seeded order; per-layer metrics."""
    untraced = traced = None
    for kind in rng.sample(["untraced", "traced"], 2):
        if kind == "untraced":
            untraced = spawn(("-m", "partitionlab.cli", *workload.argv))
            tally.check(workload, untraced.exit_code, untraced.stdout, untraced.stderr)
        else:
            traced = spawn((str(HERE / "tracer.py"), *workload.argv))
    try:
        record = json.loads(traced.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        record = {"exit_code": traced.exit_code, "output": "", "metrics": {}}
    tally.check(workload, record["exit_code"], record["output"], traced.stderr)
    metrics = dict(record["metrics"])
    covered = record.get("import_s", 0.0) + record.get("main_s", 0.0)
    metrics["trace.overhead_ratio"] = {
        "value": traced.wall_s / untraced.wall_s,
        "unit": "ratio",
    }
    metrics["trace.coverage"] = {"value": covered / traced.wall_s, "unit": "ratio"}
    metrics["trace.uncovered_s"] = {"value": traced.wall_s - covered, "unit": "s"}
    if covered < COVERAGE_TARGET * traced.wall_s:
        print(
            "WARNING %s: the import and cli.main spans cover %.1f%% of the traced "
            "wall time; %.3f s went to interpreter start and exit and to the tracer"
            % (workload.name, 100 * covered / traced.wall_s, traced.wall_s - covered)
        )
    return metrics


# ---------------------------------------------------------------------------
# environment and output


def environment(argv, seed):
    from partitionlab import BACKEND

    rev = None
    if (ROOT / ".git").exists():  # a plain checkout has no revision to report
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "backend": BACKEND,
        "argv": argv,
        "seed": seed,
    }


def render_table(name, metrics):
    lines = ["%s" % name]
    for key, m in metrics.items():
        if "n" in m:
            lines.append(
                "  %-44s %14.6g %-6s (q1 %.6g, q3 %.6g, n=%d)"
                % (key, m["value"], m["unit"], m["q1"], m["q3"], m["n"])
            )
        else:
            lines.append("  %-44s %14.6g %s" % (key, m["value"], m["unit"]))
    return "\n".join(lines)


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("all", *workload_names))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", help="also write the full record of the run as JSON")
    return parser.parse_args(argv)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not (SRC / "partitionlab").is_dir():
        print("error: no partitionlab sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = load_workloads()
    args = parse_args(argv, workloads)
    rng = random.Random(args.seed)
    env = environment(argv, args.seed)
    # one CPU for the harness and, by inheritance, every child, so the
    # calibration loop times the same CPU the samples ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(json.dumps({"environment": env}, sort_keys=True), flush=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    names = list(workloads) if args.workload == "all" else [args.workload]
    rng.shuffle(names)
    tally = Tally()
    results = {}
    for name in names:
        workload = workloads[name]
        if args.trace:
            results[name] = measure_per_layer(workload, rng, tally)
        else:
            results[name] = measure_end_to_end(workload, args.seconds, rng, tally)
        print(render_table(name, results[name]))
        failed, attempted = tally.error_rate(name)
        print("  %-44s %14.6g ratio  (%d of %d runs failed the gate)"
              % ("error_rate", failed / attempted, failed, attempted), flush=True)
    for failure in tally.failures:
        print("FAILED %s: %s" % (failure["workload"], "; ".join(failure["problems"])))
    attempted = sum(tally.attempted.values())

    record = {
        "environment": env,
        "trace": args.trace,
        "attempted": attempted,
        "failures": tally.failures,
        "workloads": {name: results[name] for name in sorted(results)},
    }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    metrics = {
        ("%s.%s" % (name, key) if args.workload == "all" else key): results[name][key]
        for name in sorted(results)
        for key in declared
        if key in results[name]  # a traced run that crashed has no layer metrics
    }
    final = {
        "correct": not tally.failures,
        "attempted": attempted,
        "failed": len(tally.failures),
        "metrics": {
            key: {"value": m["value"], "unit": m["unit"]} for key, m in metrics.items()
        },
    }
    print(json.dumps(final, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
