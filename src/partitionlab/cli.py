"""Command-line front end.

Subcommands:
  compute  -- emit one statistic table as CSV, JSON or text
  verify   -- run verification suites and report pass/fail
  export   -- bulk-dump a family of statistic tables as one JSON document

Exit codes: 0 success, 1 at least one identity failure, 2 invalid
usage/parameters (an --n-max too large to index or to fit in memory is
one), 3 I/O error, 4 internal inconsistency (a statistic table failed
its own check: a negative M or MP count, or a nonzero MP constant term).
Identical invocations produce byte-identical output.
"""

import argparse
import json
import sys

from . import stats, verify
from .enumeration import SUBSET_SWEEP_CAP, c_subsets
from .series import TruncatedSeries

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

VERIFY_SUITES = ("all",) + verify.SUITE_ORDER


def stat_builders():
    """Statistic id -> (its stats builder, the parameters it takes before
    n_max): the stats.BUILDERS rows that compute and export can build."""
    rows = stats.BUILDERS.items()
    return {stat: (name, params) for name, (stat, params, _) in rows if stat}


def parse_range(text):
    """Parse 'lo..hi' or a single integer into an inclusive (lo, hi) pair."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return int(lo), int(hi)
        value = int(text)
        return value, value
    except ValueError:
        raise ValueError("invalid range %r (expected 'lo..hi' or an integer)" % text)


def _require(condition, message):
    if not condition:
        raise ValueError(message)


def _compute_table(args):
    """The parameters and the series of the table that compute prints."""
    n_max = args.n_max
    _require(n_max >= 0, "--n-max must be >= 0")
    if args.stat == "csub":
        _require(
            n_max <= SUBSET_SWEEP_CAP,
            "--n-max must be <= %d for the subset count" % SUBSET_SWEEP_CAP,
        )
        return {}, TruncatedSeries(c_subsets(n) for n in range(n_max + 1))
    name, params = stat_builders()[args.stat]
    head = []
    for param in params:
        value = getattr(args, param)
        if param == "p" and value is None:
            value = 0
        _require(value is not None, "stat %r requires --%s" % (args.stat, param))
        head.append(value)
    # the builder checks the ranges and runs alone: one table shares no base series
    return dict(zip(params, head)), getattr(stats, name)(*head, n_max)


def render_table_csv(series):
    lines = ["n,value"]
    for n, v in enumerate(series.coeffs):
        lines.append("%d,%d" % (n, v))
    return "\n".join(lines) + "\n"


def render_table_text(series):
    width = max(len(str(series.order)), 1)
    lines = ["%*s  value" % (width, "n")]
    for n, v in enumerate(series.coeffs):
        lines.append("%*d  %d" % (width, n, v))
    return "\n".join(lines) + "\n"


JSON_INT_LIMIT = 1 << 53


def json_safe_int(v):
    # integers beyond 2^53 become decimal strings so that consumers with
    # double-precision JSON parsers cannot corrupt them silently
    return v if -JSON_INT_LIMIT < v < JSON_INT_LIMIT else str(v)


def canonical_json(payload):
    """The one JSON form of every document: stable key order, two-space
    indent, trailing newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def table_jsonable(stat, params, series):
    """The JSON entry of the table of statistic id stat at params."""
    return {
        "stat": stat,
        "params": params,
        "n_max": series.order,
        "values": [json_safe_int(v) for v in series.coeffs],
    }


def _write_output(text, path):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOError("cannot write %s: %s" % (path, exc))


def cmd_compute(args):
    params, series = _compute_table(args)
    if args.format == "csv":
        text = render_table_csv(series)
    elif args.format == "json":
        text = canonical_json(table_jsonable(args.stat, params, series))
    else:
        text = render_table_text(series)
    _write_output(text, args.out)
    return EXIT_OK


# the failing cells that the text report prints per suite
MAX_FAILURES_SHOWN = 20


def render_reports_text(reports):
    # no wall-clock column: identical invocations print identical text
    lines = ["%-20s %8s %8s" % ("suite", "total", "failed")]
    for r in reports:
        lines.append("%-20s %8d %8d" % (r.suite_id, r.total, len(r.failures)))
    for r in reports:
        for case in r.failures[:MAX_FAILURES_SHOWN]:
            params = " ".join("%s=%s" % kv for kv in case.params.items())
            lines.append(
                "FAIL %s [%s] %s: lhs=%d rhs=%d"
                % (r.suite_id, case.identity_id, params, case.lhs, case.rhs)
            )
        extra = len(r.failures) - MAX_FAILURES_SHOWN
        if extra > 0:
            lines.append("... and %d more failures in %s" % (extra, r.suite_id))
    status = "PASS" if all(r.passed for r in reports) else "FAIL"
    lines.append(status)
    return "\n".join(lines) + "\n"


def case_jsonable(case):
    return {
        "identity": case.identity_id,
        "params": dict(case.params),
        "lhs": json_safe_int(case.lhs),
        "rhs": json_safe_int(case.rhs),
    }


def report_jsonable(report):
    return {
        "suite": report.suite_id,
        "range": report.range_desc,
        "total": report.total,
        "failed": len(report.failures),
        "failures": [case_jsonable(c) for c in report.failures],
    }


def reports_to_json(reports):
    """Canonical JSON for a list of reports; they hold no wall-clock field."""
    return canonical_json([report_jsonable(r) for r in reports])


def _build_config(args):
    config = verify.RunConfig(
        n_max=args.n_max,
        k_range=parse_range(args.k),
        ell_range=parse_range(args.ell),
        enum_cap=args.enum_cap,
    )
    config.validate()
    return config


def cmd_verify(args):
    config = _build_config(args)
    if args.suite == "bad-exponent":
        lo, hi = config.ell_range
        _require(lo <= hi, "--ell range %d..%d is empty" % (lo, hi))
        _require(
            hi >= 2,
            "bad-exponent needs --ell to reach 2: for ell=1 the two sign "
            "rules coincide, so the sweep could not fail",
        )
        reports = [verify.uncorrected_exponent_report(config.n_max, hi)]
    elif args.suite == "all":
        reports = verify.run_all(config)
    else:
        reports = verify.run_all(config, suites={args.suite})
    if args.format == "json":
        text = reports_to_json(reports)
    else:
        text = render_reports_text(reports)
    _write_output(text, args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAILURES


def export_document(selectors, k_range, ell_range, n_max):
    """The statistic id, parameters and table of every (stat, parameter)
    combination, keyed stat/params: k runs over k_range, p over every
    residue 0 <= p < k and ell over ell_range.  A non-empty k_range must
    start at k >= 1 whenever a selected statistic takes k.
    """
    builders = stat_builders()
    for stat in selectors:
        _require(stat in builders, "unknown stat %r in --stats" % stat)
    ks = range(k_range[0], k_range[1] + 1)
    if ks and any("k" in builders[stat][1] for stat in selectors):
        _require(ks[0] >= 1, "k must be >= 1")
    # the values of each parameter, given the values before it
    choices = {
        "k": lambda head: ks,
        "p": lambda head: range(head[0]),
        "ell": lambda head: range(ell_range[0], ell_range[1] + 1),
    }
    # one store for the whole document: the tables share their base series
    tables = stats.TableStore()
    doc = {}
    for stat in selectors:
        name, params = builders[stat]
        heads = [()]
        for param in params:
            heads = [head + (v,) for head in heads for v in choices[param](head)]
        for head in heads:
            labels = dict(zip(params, head))
            key = "/".join([stat] + ["%s=%d" % kv for kv in labels.items()])
            doc[key] = (stat, labels, tables.get(name, *head, n_max))
    return doc


def cmd_export(args):
    selectors = [s for s in args.stats.split(",") if s] if args.stats else []
    _require(args.n_max >= 0, "--n-max must be >= 0")
    doc = export_document(
        selectors, parse_range(args.k), parse_range(args.ell), args.n_max
    )
    # render once every table is built: rendering each entry between
    # builds made the n = 500 export about 4% slower end to end
    payload = {key: table_jsonable(*entry) for key, entry in doc.items()}
    _write_output(canonical_json(payload), args.out)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="partitionlab",
        description="Exact partition-statistic tables and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    builders = stat_builders()

    p_compute = sub.add_parser("compute", help="emit one statistic table")
    p_compute.add_argument("stat", choices=(*builders, "csub"))
    p_compute.add_argument("--k", type=int)
    p_compute.add_argument("--p", type=int)
    p_compute.add_argument("--ell", type=int)
    p_compute.add_argument("--n-max", type=int, required=True, dest="n_max")
    p_compute.add_argument(
        "--format", choices=("csv", "json", "text"), default="csv"
    )
    p_compute.add_argument("--out")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("suite", choices=VERIFY_SUITES)
    # the defaults of a run are RunConfig's
    config = verify.RunConfig()
    p_verify.add_argument("--n-max", type=int, default=config.n_max, dest="n_max")
    p_verify.add_argument(
        "--k", default="%d..%d" % config.k_range, help="lo..hi; may exceed --n-max"
    )
    p_verify.add_argument(
        "--ell",
        default="%d..%d" % config.ell_range,
        help="lo..hi; bad-exponent sweeps ell from 1 to hi",
    )
    p_verify.add_argument(
        "--enum-cap", type=int, default=config.enum_cap, dest="enum_cap"
    )
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify)

    p_export = sub.add_parser("export", help="bulk-dump statistic tables")
    p_export.add_argument(
        "--stats", default="", help="comma-separated subset of " + ",".join(builders)
    )
    p_export.add_argument("--k", default="1..3")
    p_export.add_argument("--ell", default="1..3")
    p_export.add_argument("--n-max", type=int, required=True, dest="n_max")
    p_export.add_argument("--out")
    p_export.set_defaults(func=cmd_export)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # str(MemoryError()) is empty
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    except IOError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    except ArithmeticError as exc:
        print("error: internal inconsistency: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
