"""Command-line front end.

Subcommands:
  compute  -- emit one statistic table as CSV, JSON or text
  verify   -- run verification suites and report pass/fail
  export   -- bulk-dump a family of statistic tables as one JSON document

Exit codes: 0 success, 1 at least one identity failure, 2 invalid
usage/parameters, 3 I/O error, 4 internal inconsistency (a consistency
check inside a statistic table failed).  Identical invocations produce
byte-identical output.
"""

import argparse
import json
import sys

from . import stats, verify
from .enumeration import SUBSET_SWEEP_CAP, c_subsets

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

VERIFY_SUITES = ("all",) + verify.SUITE_ORDER


class UsageError(Exception):
    pass


def parse_range(text):
    """Parse 'lo..hi' or a single integer into an inclusive (lo, hi) pair."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return int(lo), int(hi)
        value = int(text)
        return value, value
    except ValueError:
        raise UsageError("invalid range %r (expected 'lo..hi' or an integer)" % text)


def _require(condition, message):
    if not condition:
        raise UsageError(message)


def _compute_table(args):
    stat = args.stat
    n_max = args.n_max
    _require(n_max >= 0, "--n-max must be >= 0")
    if stat in ("a", "b", "c"):
        _require(args.k is not None, "stat %r requires --k" % stat)
        _require(args.k >= 1, "--k must be >= 1")
    if stat in ("m", "mp"):
        _require(args.ell is not None, "stat %r requires --ell" % stat)
        _require(args.ell >= 1, "--ell must be >= 1")
    if stat == "a":
        p = args.p if args.p is not None else 0
        _require(0 <= p < args.k, "--p must satisfy 0 <= p < k")
        return stats.a_kp_table(args.k, p, n_max)
    if stat == "b":
        return stats.b_k_table(args.k, n_max)
    if stat == "c":
        return stats.c_k_table(args.k, n_max)
    if stat == "m":
        return stats.m_ell_table(args.ell, n_max)
    if stat == "mp":
        return stats.mp_ell_table(args.ell, n_max)
    if stat == "q":
        return stats.q_table(n_max)
    if stat == "p":
        return stats.p_table(n_max)
    if stat == "csub":
        _require(
            n_max <= SUBSET_SWEEP_CAP,
            "--n-max must be <= %d for the subset count" % SUBSET_SWEEP_CAP,
        )
        values = tuple(c_subsets(n) for n in range(n_max + 1))
        return stats.StatTable("csub", {}, values)
    raise UsageError("unknown stat %r" % stat)


def render_table_csv(table):
    lines = ["n,value"]
    for n, v in enumerate(table.values):
        lines.append("%d,%d" % (n, v))
    return "\n".join(lines) + "\n"


def render_table_text(table):
    width = max(len(str(table.n_max)), 1)
    lines = ["%*s  value" % (width, "n")]
    for n, v in enumerate(table.values):
        lines.append("%*d  %d" % (width, n, v))
    return "\n".join(lines) + "\n"


def table_jsonable(table):
    return {
        "stat": table.stat_id,
        "params": dict(table.params),
        "n_max": table.n_max,
        "values": [verify.json_safe_int(v) for v in table.values],
    }


def render_table_json(table):
    return json.dumps(table_jsonable(table), indent=2, sort_keys=True) + "\n"


def parse_table_csv(text):
    """Inverse of render_table_csv: returns the list of values."""
    lines = [ln for ln in text.split("\n") if ln]
    if not lines or lines[0] != "n,value":
        raise ValueError("missing 'n,value' header")
    values = []
    for i, line in enumerate(lines[1:]):
        n_str, v_str = line.split(",", 1)
        if int(n_str) != i:
            raise ValueError("non-contiguous n at row %d" % i)
        values.append(int(v_str))
    return values


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
    table = _compute_table(args)
    if args.format == "csv":
        text = render_table_csv(table)
    elif args.format == "json":
        text = render_table_json(table)
    else:
        text = render_table_text(table)
    _write_output(text, args.out)
    return EXIT_OK


def render_reports_text(reports, max_failures=20):
    lines = ["%-20s %8s %8s %9s" % ("suite", "total", "failed", "time")]
    for r in reports:
        lines.append(
            "%-20s %8d %8d %8.2fs" % (r.suite_id, r.total, len(r.failures), r.wall_time)
        )
    for r in reports:
        for case in r.failures[:max_failures]:
            params = " ".join("%s=%s" % kv for kv in case.params.items())
            lines.append(
                "FAIL %s [%s] %s: lhs=%d rhs=%d"
                % (r.suite_id, case.identity_id, params, case.lhs, case.rhs)
            )
        extra = len(r.failures) - max_failures
        if extra > 0:
            lines.append("... and %d more failures in %s" % (extra, r.suite_id))
    status = "PASS" if all(r.passed for r in reports) else "FAIL"
    lines.append(status)
    return "\n".join(lines) + "\n"


def _build_config(args):
    config = verify.RunConfig(
        n_max=args.n_max,
        k_range=parse_range(args.k),
        ell_range=parse_range(args.ell),
        all_residues=not args.p_zero_only,
        enum_cap=args.enum_cap,
        subset_cap=args.subset_cap,
        threads=args.threads,
    )
    try:
        config.validate()
    except ValueError as exc:
        raise UsageError(str(exc))
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
        text = verify.reports_to_json(reports)
    else:
        text = render_reports_text(reports)
    _write_output(text, args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAILURES


def export_document(selectors, k_range, ell_range, n_max, all_residues=True):
    """Tables for every (stat, parameter) combination, keyed stat/params.

    Selector expansion: 'a' covers every k in k_range and (with
    all_residues) every residue 0 <= p < k; 'b' and 'c' cover each k;
    'm' and 'mp' cover each ell in ell_range; 'q' and 'p' are single
    tables.  A non-empty k_range must start at k >= 1 whenever 'a', 'b'
    or 'c' is selected.
    """
    if {"a", "b", "c"} & set(selectors) and k_range[0] <= k_range[1]:
        _require(k_range[0] >= 1, "k must be >= 1")
    doc = {}
    for stat in selectors:
        if stat == "a":
            for k in range(k_range[0], k_range[1] + 1):
                for p in range(k if all_residues else 1):
                    doc["a/k=%d/p=%d" % (k, p)] = stats.a_kp_table(k, p, n_max)
        elif stat == "b":
            for k in range(k_range[0], k_range[1] + 1):
                doc["b/k=%d" % k] = stats.b_k_table(k, n_max)
        elif stat == "c":
            for k in range(k_range[0], k_range[1] + 1):
                doc["c/k=%d" % k] = stats.c_k_table(k, n_max)
        elif stat == "m":
            for ell in range(ell_range[0], ell_range[1] + 1):
                doc["m/ell=%d" % ell] = stats.m_ell_table(ell, n_max)
        elif stat == "mp":
            for ell in range(ell_range[0], ell_range[1] + 1):
                doc["mp/ell=%d" % ell] = stats.mp_ell_table(ell, n_max)
        elif stat == "q":
            doc["q"] = stats.q_table(n_max)
        elif stat == "p":
            doc["p"] = stats.p_table(n_max)
        else:
            raise UsageError("unknown stat %r in --stats" % stat)
    return doc


def cmd_export(args):
    selectors = [s for s in args.stats.split(",") if s] if args.stats else []
    _require(args.n_max >= 0, "--n-max must be >= 0")
    doc = export_document(
        selectors,
        parse_range(args.k),
        parse_range(args.ell),
        args.n_max,
        all_residues=not args.p_zero_only,
    )
    payload = {key: table_jsonable(doc[key]) for key in sorted(doc)}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write_output(text, args.out)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="partitionlab",
        description="Exact partition-statistic tables and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="emit one statistic table")
    p_compute.add_argument(
        "stat", choices=("a", "b", "c", "m", "mp", "q", "p", "csub")
    )
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
    p_verify.add_argument("--n-max", type=int, default=60, dest="n_max")
    p_verify.add_argument("--k", default="1..4")
    p_verify.add_argument("--ell", default="1..3")
    p_verify.add_argument("--enum-cap", type=int, default=30, dest="enum_cap")
    p_verify.add_argument("--subset-cap", type=int, default=12, dest="subset_cap")
    p_verify.add_argument("--threads", type=int, default=1)
    p_verify.add_argument(
        "--p-zero-only",
        action="store_true",
        help="check only the residue p=0 of each a-statistic",
    )
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify)

    p_export = sub.add_parser("export", help="bulk-dump statistic tables")
    p_export.add_argument(
        "--stats", default="", help="comma-separated subset of a,b,c,m,mp,q,p"
    )
    p_export.add_argument("--k", default="1..3")
    p_export.add_argument("--ell", default="1..3")
    p_export.add_argument("--n-max", type=int, required=True, dest="n_max")
    p_export.add_argument("--p-zero-only", action="store_true")
    p_export.add_argument("--out")
    p_export.set_defaults(func=cmd_export)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except IOError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    except ArithmeticError as exc:
        print("error: internal inconsistency: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
