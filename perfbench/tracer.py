"""Traced run of one CLI workload, for the per-layer metrics.

Run as a child process by ``run.py --trace 1``: a fresh interpreter per
traced workload, because ``enumeration._sweep_cache`` is module-global and
an in-process repeat would measure a warm cache.

    python3 perfbench/tracer.py verify all --format json

It imports partitionlab from ``src``, wraps the public callables of the six
layers (cli, verify, stats, series, enumeration, kernels) in spans and
counters, runs ``cli.main`` on the given arguments with stdout captured,
and prints one JSON object: the CLI's exit code and output, the wall time
of the import and of ``cli.main`` (the two top-level spans), and the
per-layer metrics.  Nothing inside ``src`` is changed; the wrappers are
installed from here.
"""

import contextlib
import io
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

clock = time.perf_counter

# every stats table the CLI or the verification suites build
STATS_TABLES = (
    "a_kp_table",
    "b_k_table",
    "c_k_table",
    "m_ell_table",
    "m_ell_table_pdiff",
    "mp_ell_table",
    "p_table",
    "q_table",
)


def _mults(coeffs):
    # schoolbook work when coeffs drives the loop: each nonzero a_i is
    # multiplied into the len - i output slots it can reach
    n = len(coeffs)
    return sum(n - i for i, c in enumerate(coeffs) if c)


def _max_bits(*seqs):
    return max((abs(c).bit_length() for seq in seqs for c in seq), default=0)


class Tracer:
    """Spans and counters kept in memory for one traced process.

    A span's self time is its duration minus the time its child spans
    cover.  ``stack`` holds, per open span, the child time seen so far; the
    bottom entry collects the time of spans opened outside any other.
    Bookkeeping done after a span closes (the computed counts) is added to
    the enclosing span's child time, so it is charged to no layer.
    """

    def __init__(self):
        self.stack = [[0.0]]
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    def _close(self, name, duration, child):
        self.stack[-1][0] += duration
        self.total[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1

    def _book(self, after, args, result):
        t0 = clock()
        after(args, result)
        self.stack[-1][0] += clock() - t0

    def span(self, name, fn, after=None):
        """Wrap fn so that each call is one span; after(args, result)
        records counts once the span has closed."""

        def traced(*args, **kwargs):
            frame = [0.0]
            self.stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                self.stack.pop()
                self._close(name, duration, frame[0])
            if after is not None:
                self._book(after, args, result)
            return result

        return traced

    def generator_span(self, name, fn, item_count):
        """Wrap a generator function: the time spent producing each item
        is charged to name, and the items are counted under item_count."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            produced = 0
            try:
                while True:
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        break
                    finally:
                        duration = clock() - t0
                        self.stack[-1][0] += duration
                        self.total[name] += duration
                        self.self_time[name] += duration
                    produced += 1
                    yield item
            finally:
                self.calls[name] += 1
                self.counts[item_count] += produced

        return traced

    def counting_generator(self, key, fn):
        """Wrap a generator function; count its items, time nothing."""

        def traced(*args, **kwargs):
            produced = 0
            try:
                for item in fn(*args, **kwargs):
                    produced += 1
                    yield item
            finally:
                self.counts[key] += produced

        return traced

    def counting(self, key, fn):
        """Wrap fn; count its calls, time nothing."""

        def traced(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return traced


def rebind(original, replacement):
    """Replace original wherever a partitionlab module binds it.

    ``stats`` and ``verify`` import names such as ``partition_gf`` with
    ``from .series import ...``, so patching the defining module alone
    would miss their calls.
    """
    bound = 0
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "partitionlab" and not mod_name.startswith("partitionlab."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bound += 1
    if not bound:
        raise RuntimeError("%r is bound nowhere in partitionlab" % (original,))


def install(tracer, pl):
    """Wrap the layer entry points of the imported package ``pl``."""
    kernels, series, stats, enumeration, verify = (
        pl.kernels,
        pl.series,
        pl.stats,
        pl.enumeration,
        pl.verify,
    )
    counts = tracer.counts

    # kernels
    def after_convolve(args, result):
        a, b = args
        mults_a, mults_b = _mults(a), _mults(b)
        nnz_a = sum(1 for c in a if c)
        nnz_b = sum(1 for c in b if c)
        counts["kernels.convolve.mults"] += mults_a
        counts["kernels.convolve.mults_sparse_first"] += (
            mults_a if nnz_a <= nnz_b else mults_b
        )
        bits = _max_bits(a, b, result)
        if bits > counts["kernels.convolve.max_bits"]:
            counts["kernels.convolve.max_bits"] = bits

    def after_invert(args, result):
        (a,) = args
        counts["kernels.invert_unit.mults"] += _mults(a[1:])

    def after_sweep(args, result):
        counts["kernels.ab_stat_sums.partitions"] += enumeration.partition_count_table(
            args[0]
        )[-1]

    for name, after in (
        ("convolve", after_convolve),
        ("invert_unit", after_invert),
        ("ab_stat_sums", after_sweep),
    ):
        original = getattr(kernels, name)
        rebind(original, tracer.span("kernels." + name, original, after))

    # series: the ring operations live on the class, the constructors are
    # module functions
    cls = series.TruncatedSeries
    cls.__mul__ = tracer.span("series.mul", cls.__mul__)
    cls.invert = tracer.span("series.invert", cls.invert)
    cls.mul_binomial = tracer.span("series.binomial", cls.mul_binomial)
    cls.div_binomial = tracer.span("series.binomial", cls.div_binomial)
    rebind(series.product, tracer.span("series.product", series.product))
    gf_orders = set()

    def after_partition_gf(args, result):
        gf_orders.add(args[0])
        counts["series.partition_gf.distinct"] = len(gf_orders)

    rebind(
        series.partition_gf,
        tracer.span("series.partition_gf", series.partition_gf, after_partition_gf),
    )

    # stats
    seen = set()

    def after_table(name):
        def after(args, result):
            key = (name, args)
            if key in seen:
                counts["stats.repeat_calls"] += 1
            seen.add(key)

        return after

    for name in STATS_TABLES:
        original = getattr(stats, name)
        rebind(original, tracer.span("stats." + name, original, after_table(name)))

    # enumeration: a_k delegates to a_kp, so counting a_kp and b_k counts
    # every call to a_k, a_kp and b_k exactly once
    rebind(
        enumeration.warm_statistics_cache,
        tracer.span(
            "enumeration.warm_statistics_cache", enumeration.warm_statistics_cache
        ),
    )
    for name in ("overpartitions_p", "overpartitions_a"):
        original = getattr(enumeration, name)
        rebind(
            original,
            tracer.generator_span(
                "enumeration.overpartitions",
                original,
                "enumeration.overpartitions.objects",
            ),
        )
    rebind(
        enumeration.partitions,
        tracer.counting_generator(
            "enumeration.partitions.yielded", enumeration.partitions
        ),
    )
    for name in ("a_kp", "b_k"):
        original = getattr(enumeration, name)
        rebind(original, tracer.counting("enumeration.lookups", original))

    # verify: one span per suite, by running the public run_all one suite
    # at a time in SUITE_ORDER; with threads=1 that is the sequence the
    # real run executes, and the reports come back in the same order
    run_all = verify.run_all
    suite_spans = {
        sid: tracer.span("verify." + sid, run_all) for sid in verify.SUITE_ORDER
    }

    def run_all_by_suite(config=None, suites=None):
        config = config or verify.RunConfig()
        reports = []
        for sid in verify.SUITE_ORDER:
            if suites is None or sid in suites:
                for report in suite_spans[sid](config, suites={sid}):
                    counts["verify.%s.cells" % sid] += report.total
                    reports.append(report)
        return reports

    rebind(run_all, run_all_by_suite)


def layer_metrics(tracer, suite_ids, output_bytes):
    """The per-layer metrics, named as in BENCHMARK.json."""
    calls, counts = tracer.calls, tracer.counts
    self_time, total = tracer.self_time, tracer.total
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for name in ("convolve", "invert_unit", "ab_stat_sums"):
        key = "kernels." + name
        put(key + ".calls", calls[key], "count")
        put(key + ".self_s", self_time[key], "s")
    for key in (
        "kernels.convolve.mults",
        "kernels.convolve.mults_sparse_first",
        "kernels.invert_unit.mults",
        "kernels.ab_stat_sums.partitions",
    ):
        put(key, counts[key], "count")
    put("kernels.convolve.max_bits", counts["kernels.convolve.max_bits"], "bits")

    for name in ("mul", "binomial", "product"):
        put("series.%s.calls" % name, calls["series." + name], "count")
        put("series.%s.self_s" % name, self_time["series." + name], "s")
    put("series.invert.self_s", self_time["series.invert"], "s")
    put("series.partition_gf.calls", calls["series.partition_gf"], "count")
    put("series.partition_gf.distinct", counts["series.partition_gf.distinct"], "count")

    for name in STATS_TABLES:
        put("stats.%s.calls" % name, calls["stats." + name], "count")
        put("stats.%s.self_s" % name, self_time["stats." + name], "s")
    put("stats.repeat_calls", counts["stats.repeat_calls"], "count")

    put(
        "enumeration.warm_statistics_cache.self_s",
        self_time["enumeration.warm_statistics_cache"],
        "s",
    )
    put("enumeration.overpartitions.self_s", self_time["enumeration.overpartitions"], "s")
    for key in (
        "enumeration.overpartitions.objects",
        "enumeration.partitions.yielded",
        "enumeration.lookups",
    ):
        put(key, counts[key], "count")

    for sid in suite_ids:
        key = "verify." + sid
        put(key + ".s", total[key], "s")
        put(key + ".self_s", self_time[key], "s")
        put(key + ".cells", counts[key + ".cells"], "count")

    put("cli.self_s", self_time["cli.main"], "s")
    put("cli.output_bytes", output_bytes, "bytes")
    return m


def main(argv):
    if not (SRC / "partitionlab").is_dir():
        print("error: no partitionlab sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = clock()
    import partitionlab as pl
    from partitionlab import cli

    import_s = clock() - t0

    tracer = Tracer()
    install(tracer, pl)
    traced_main = tracer.span("cli.main", cli.main)
    sink = io.StringIO()
    t0 = clock()
    with contextlib.redirect_stdout(sink):
        exit_code = traced_main(argv)
    main_s = clock() - t0
    output = sink.getvalue()

    result = {
        "exit_code": exit_code,
        "output": output,
        "import_s": import_s,
        "main_s": main_s,
        "metrics": layer_metrics(
            tracer, pl.verify.SUITE_ORDER, len(output.encode("utf-8"))
        ),
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
