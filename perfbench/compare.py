"""Compare two benchmark records, metric by metric.

    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0 --out new.json
    python3 perfbench/compare.py perfbench/baseline.json new.json

A record is what ``run.py --out`` writes, or a list of such records (as in
``baseline.json``, which holds a ``--trace 0`` and a ``--trace 1`` record of
the seed commit).  For every workload and metric present on both sides it
prints the old and new median and their ratio.  An end-to-end metric that
got worse by more than its bound in BENCHMARK.json is marked REGRESSION.

When the two records ran on different kernel backends or Python versions,
the comparison is flagged and no metric is marked: such a difference is
not a gain or a regression of the code.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("backend", "python", "implementation")


def load(path):
    data = json.loads(Path(path).read_text())
    records = data if isinstance(data, list) else [data]
    env = records[0]["environment"]
    metrics = {}
    for record in records:
        for workload, values in record["workloads"].items():
            metrics.setdefault(workload, {}).update(values)
    return env, metrics


def compare(old_path, new_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    old_env, old = load(old_path)
    new_env, new = load(new_path)
    lines = []
    mismatch = [k for k in ENV_KEYS if old_env.get(k) != new_env.get(k)]
    if mismatch:
        lines.append(
            "FLAGGED: environments differ in %s; no gain or regression is reported"
            % ", ".join("%s %r -> %r" % (k, old_env.get(k), new_env.get(k)) for k in mismatch)
        )
    regressions = 0
    for workload in sorted(set(old) & set(new)):
        lines.append(workload)
        for name in sorted(set(old[workload]) & set(new[workload])):
            a, b = old[workload][name]["value"], new[workload][name]["value"]
            ratio = b / a if a else float("nan")
            mark = ""
            if not mismatch and name in bounds and a:
                worse = ratio - 1 if better[name] == "lower" else 1 - ratio
                if worse > bounds[name]["bound"]:
                    mark = "REGRESSION (bound %g)" % bounds[name]["bound"]
                    regressions += 1
            lines.append(
                "  %-44s %14.6g -> %-14.6g x%-8.4f %s"
                % (name, a, b, ratio, mark)
            )
    return lines, regressions, bool(mismatch)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines, regressions, flagged = compare(*argv)
    print("\n".join(lines))
    return 1 if regressions and not flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
